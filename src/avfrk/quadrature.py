"""Shifted Legendre polynomials on [0,1] and quadrature rule generation.

The abscissae of an s-stage rule are the zeros of P_s - zeta*P_{s-1}:
zeta = 0 gives Gauss (order 2s), zeta = -1 and 1 give the two Radau
families (order 2s-1), any other real zeta still gives order 2s-1.
The Legendre three-term recurrence builds P_q, gives the Sturm sequence of
rho = P_s - zeta*P_{s-1} and the weights b_i = 2/(s rho'(c_i) P_{s-1}(c_i)).

All polynomial families (P_q, G_q, R_l, F_q) carry exact rational
coefficients.  The discrete inner product sum_i b_i u(c_i) v(c_i) of two
such polynomials is rational too: each rule holds its exact moments
mu_k = sum_i b_i c_i^k as integers over one denominator, from the
recurrence of the node polynomial, and discrete_ip_exact is the bilinear
form sum u_i v_j mu_(i+j).  Roots are isolated by exact integer Sturm
counts when the rule is built.  The nodes and weights are formed on first
access by one exact routine, _rounded_rule, which rounds each of them
correctly to a given number of bits: each node by Newton's iteration in
integers from the middle of its Sturm bracket, confirmed by the signs of
the integer rho; then one loop halves that bracket by the same signs until
its ends round to one node and an exact enclosure of the weight at them
rounds to one weight.  QuadRule.float_nodes holds them at 53 bits,
for the float stepper; QuadRule.c and QuadRule.b hold them as exact dyadic
Fractions at the bits of the working precision.  The exact certificate
reads only the exact core and never forms a node.

Every number outside the float stepper is an exact rational, and the rule
is computed in integers only.  A node vector g(c) has one representation
on each side: at the rounded nodes (and for a tableau's stage vectors) a
_NodeVector, integers over one denominator, with discrete_ip its exact
sum; over the true nodes a _RayPoly, g as a polynomial in x (and in the
beta of a kernel ray) over one denominator, with _moment_form giving the
rule's c b^T and inner product on the moments.  One printer, _decimal,
writes a rational as the decimal digits of its value rounded to a number
of bits.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, log, log10
from operator import mul
from time import perf_counter
from typing import Sequence


__all__ = [
    "UniPoly",
    "QuadRule",
    "QuadratureError",
    "legendre",
    "gamma_lead",
    "g_poly",
    "r_poly",
    "f_poly",
    "quad_rule",
    "discrete_ip",
    "discrete_ip_exact",
    "discrete_ip_table",
    "continuous_ip",
    "check_discip_lemma",
]

# Root isolation window.  Wide enough for every zeta the analysis uses
# (zeta = 2 puts one node near 1.3); a root escaping the window means the
# rule is rejected rather than silently truncated.
_WINDOW = (Fraction(-4), Fraction(5))

_log = logging.getLogger(__name__)


class QuadratureError(ValueError):
    """Rule construction failed: complex, repeated, or out-of-window roots."""


def _exact_fraction(x) -> Fraction:
    """x, an int, Fraction, float, decimal or "num/den" string, or mpf (its _mpf_ man * 2^exp), as an exact Fraction.

    A value that is no finite rational raises ValueError, any other type TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        try:
            return Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise ValueError(f"{x!r} is not a finite rational") from None
    try:
        sign, man, exp, _ = x._mpf_
    except AttributeError:
        raise TypeError(f"cannot convert {x!r} to an exact rational") from None
    if not man and exp:  # an mpf inf or nan
        raise ValueError(f"{x!r} is not a finite rational")
    return Fraction(-man if sign else man) * Fraction(2) ** exp


class UniPoly:
    """Univariate polynomial, ascending exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_exact_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return UniPoly(a)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            if not isinstance(other, (Fraction, int, float, str)):
                return NotImplemented  # a factor that is not rational may know the product
            c = _exact_fraction(other)
            return UniPoly([c * v for v in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def integral(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        return UniPoly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __call__(self, x):
        """Horner evaluation; exact on Fraction and int input."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


_LEGENDRE = [UniPoly([1]), UniPoly([-1, 2])]


def legendre(q: int) -> UniPoly:
    """Shifted Legendre P_q on [0,1]: (k+1) P_(k+1) = (2k+1)(2x-1) P_k - k P_(k-1).

    Each member is built once, in a loop from the cached lower ones.
    P_q(1) = 1 and the leading coefficient is gamma_q = (2q)!/(q!)^2.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    while len(_LEGENDRE) <= q:
        k = len(_LEGENDRE) - 1
        nxt = _LEGENDRE[1] * _LEGENDRE[k] * (2 * k + 1) - _LEGENDRE[k - 1] * k
        _LEGENDRE.append(nxt * Fraction(1, k + 1))
    return _LEGENDRE[q]


def gamma_lead(q: int) -> int:
    """Leading coefficient gamma_q = (2q)!/(q!)^2 of P_q."""
    return comb(2 * q, q)


@lru_cache(maxsize=None)
def g_poly(q: int) -> UniPoly:
    """G_q(x) = integral_0^x P_{q-1}."""
    if q < 1:
        raise ValueError("q must be positive")
    return legendre(q - 1).integral()


def r_poly(l: int, s: int, zeta) -> UniPoly:
    """R_l family: P_l below s, P_s - zeta*P_{s-1} at s, products above."""
    if s < 1:
        raise ValueError("s must be positive")
    if l < 0:
        raise ValueError("l must be non-negative")
    z = _exact_fraction(zeta)
    if l <= s - 1:
        return legendre(l)
    rs = legendre(s) - z * legendre(s - 1)
    if l == s:
        return rs
    return rs * legendre(l - s)


def f_poly(q: int, s: int, zeta) -> UniPoly:
    """F_q(x) = integral_0^x R_{q-1}; equals G_q for q <= s."""
    if q < 1:
        raise ValueError("q must be positive")
    return r_poly(q - 1, s, zeta).integral()


@lru_cache(maxsize=None)
def _legendre_ints(q: int) -> tuple:
    """The coefficients of P_q, which are integers, as ints."""
    return tuple(c.numerator for c in legendre(q).coeffs)


def _rho_ints(s: int, z: Fraction) -> list:
    """Integer coefficients of z_den P_s - z_num P_(s-1), a multiple of rho = P_s - z P_(s-1)."""
    low = _legendre_ints(s - 1) + (0,)
    return [z.denominator * a - z.numerator * b for a, b in zip(_legendre_ints(s), low)]


# ---------------------------------------------------------------------------
# root isolation on the exact polynomial


def _sturm_values(s: int, z: Fraction, x: Fraction) -> list:
    """(rho, P_(s-1), ..., P_0) at x for rho = P_s - z P_(s-1), in integers.

    With 2x - 1 = m/D each member is scaled by k! D^k > 0, so the Legendre
    recurrence reads p_(k+1) = (2k+1) m p_k - k^2 D^2 p_(k-1), and rho maps
    to z_den p_s - z_num s D p_(s-1).  The signs are those of the members.
    """
    return _sturm_ints(s, z, x.numerator, x.denominator)


def _sturm_ints(s: int, z: Fraction, n: int, d: int) -> list:
    """_sturm_values at x = n / d for integers n and d > 0, not necessarily in lowest terms."""
    m = 2 * n - d
    p = [1, m]
    for k in range(1, s):
        p.append((2 * k + 1) * m * p[k] - k * k * d * d * p[k - 1])
    p[s] = z.denominator * p[s] - z.numerator * s * d * p[s - 1]
    return p[::-1]


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate_roots(s: int, z: Fraction, lo: Fraction, hi: Fraction) -> list:
    """Disjoint rational brackets each containing exactly one root of rho = P_s - z P_(s-1).

    (rho, P_(s-1), ..., P_0) is a Sturm sequence: rho' P_(s-1) - rho P_(s-1)' =
    P_s' P_(s-1) - P_s P_(s-1)' > 0 by Christoffel-Darboux, and at a zero of a
    member its neighbours have opposite signs by the recurrence.  The
    bisection runs on integers: a bracket (a / d, b / d] keeps its ends over
    one denominator, its midpoint and each nudge off an exact rational root,
    (a + 2 mid) / 3, go over d 2 3^k, and a bracket becomes Fractions only
    when it is returned.
    """
    d = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    va, vb = (_sign_changes(_sturm_ints(s, z, x, d)) for x in (a, b))
    brackets, stack = [], [(a, va, b, vb, d)]  # (a, V(a), b, V(b), d): V(a) - V(b) roots in (a/d, b/d]
    while stack:
        a, va, b, vb, d = stack.pop()
        if va - vb == 1:
            brackets.append((Fraction(a, d), Fraction(b, d)))
        elif va - vb > 1:
            mid, dm = a + b, 2 * d
            while (values := _sturm_ints(s, z, mid, dm))[0] == 0:  # nudge off an exact rational root
                mid, dm = a * (dm // d) + 2 * mid, 3 * dm
            vm, f = _sign_changes(values), dm // d
            stack += [(a * f, va, mid, vm, dm), (mid, vm, b * f, vb, dm)]
    return sorted(brackets)


# bits beyond the target at which a root is refined: a root's rounding is
# decided from its Newton bracket unless it lies within 2^-62 ulp of a
# rounding boundary
_GUARD_BITS = 64


def _half_even(num: int, den: int, prec: int) -> tuple:
    """(m, e) with m 2^e = num/den > 0 rounded to prec significant bits, half to even."""
    e = num.bit_length() - den.bit_length() - prec - 2
    q, r = divmod(num << max(-e, 0), den << max(e, 0))  # q has prec + 2 or prec + 3 bits
    shift = q.bit_length() - prec
    q, low, half = q >> shift, q & ((1 << shift) - 1), 1 << shift - 1
    return q + (low > half or low == half and bool(r or q & 1)), e + shift


def _rounded(num: int, den: int, bits: int) -> Fraction:
    """num / den rounded to bits significant bits, half to even, as a Fraction."""
    if not num:
        return Fraction(0)
    m, e = _half_even(abs(num), abs(den), bits)
    x = Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)
    return x if (num < 0) == (den < 0) else -x


def _floor_log2(num: int, den: int) -> int:
    """floor(log2(num / den)) for num, den > 0."""
    e = num.bit_length() - den.bit_length()
    return e - ((num << max(-e, 0)) < (den << max(e, 0)))


def _prec_bits(digits: int) -> int:
    """The bits of a working precision of digits decimal digits, as mpmath's dps_to_prec counts them."""
    return max(1, round((digits + 1) * 3.3219280948873626))


def _decimal(x, digits: int, bits: int) -> str:
    """x to digits significant digits, as mpmath's nstr prints mpf(x.numerator) / x.denominator at bits.

    The value printed is x's numerator rounded to bits, divided by x's
    denominator and rounded again, each half to even (a dyadic x of at most
    bits bits prints as itself).  Its decimal digits are truncated to
    digits + 3, then rounded half up on the first dropped digit, and laid
    out in fixed point for exponents between min(-(digits // 3), -5) and
    digits, else with an exponent.  A value beyond 2^+-3500 is first divided
    by an exact power of ten, which keeps every integer printed short, and
    prints its exact digits so rounded.  There nstr divides by a power of
    ten rounded to its working bits and can misprint a decimal tie: for
    638035 * 10^1578 at 70 bits, 6.38034999...e1583, this prints
    6.3803e+1583 and nstr 6.3804e+1583.  Below 2^3500 the digits are
    nstr's, truncated as its to_digits_exp truncates them.
    """
    x = Fraction(x)
    if not x:
        return "0.0"
    m, e = _half_even(abs(x.numerator), 1, bits)
    m, e = _half_even(m << max(e, 0), x.denominator << max(-e, 0), bits)
    num, den = m << max(e, 0), 1 << max(-e, 0)
    top = e + m.bit_length()  # floor(log2 of the value) + 1
    shift = int(top * log10(2)) if abs(top) > 3500 else 0
    if shift > 0:
        den *= 10**shift
    else:
        num *= 10**-shift
    # mpmath's to_digits_exp at digits + 3, truncating: num / den = v / 10^shift; it truncates
    # twice, to fixprec bits and to fixdps digits, and beyond 2^+-3500 once, to v's own digits
    bitprec = int((digits + 3) * log(10, 2)) + 10
    fixprec = max(bitprec - _floor_log2(num, den) - 1, 0)
    fixdps = int(fixprec / log(10, 2) + 0.5)
    text = str(num * 10**fixdps // den if shift else (num << fixprec) // den * 10**fixdps >> fixprec)
    exp = len(text) - fixdps - 1 + shift
    # mpmath's to_str: round half up on the first dropped digit, then lay out
    q = int(text[:digits]) + (len(text) > digits and text[digits] >= "5")
    if q == 10**digits:
        q, exp = q // 10, exp + 1
    text = str(q)
    if min(-(digits // 3), -5) < exp < digits:  # fixed point
        text = "0" * -exp + text if exp < 0 else text
        split, exp = max(exp, 0) + 1, 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    text = ("-" if x < 0 else "") + text + "0" * text.endswith(".")
    return text if exp == 0 else f"{text}e{exp:+d}"


# ---------------------------------------------------------------------------
# correctly rounded nodes and weights, by exact sign tests


def _root_side(s: int, z: Fraction, lo: Fraction, hi: Fraction, rising: bool):
    """side(t): 1 when r > t, -1 when r < t and 0 when r = t, for the root r of rho in (lo, hi].

    rising tells that rho < 0 at lo.  Inside the isolating bracket the sign
    of the integer rho (_sturm_values) at t decides; outside it, the bracket
    does.
    """

    def side(t: Fraction) -> int:
        if t <= lo:
            return 1
        if t > hi:
            return -1
        v = _sturm_values(s, z, t)[0]
        return 0 if v == 0 else -1 if (v > 0) == rising else 1

    return side


def _dyadic_horner(ints: list, m: int, e: int) -> int:
    """2^(e n) p(m / 2^e) for the integer polynomial p of degree n = len(ints) - 1."""
    acc = 0
    for k, c in enumerate(reversed(ints)):
        acc = acc * m + (c << e * k)
    return acc


def _newton_bracket(side, rho: list, slope: list, lo, hi, x: Fraction, rising: bool, bits: int) -> tuple:
    """(a, b) with a < r < b, or a = b = r, for the root r in (lo, hi] that side locates.

    From the rational start x, Newton's iteration on the integer coefficients
    of rho and of its derivative (slope) runs on the grid 2^-f, _GUARD_BITS
    finer than the bits-wide grid at x, and bisects where a step would leave
    the bracket that the signs of rho keep (rho < 0 left of the root when
    rising).  Two side tests then confirm r within two units of its result
    m, or meet r exactly there.  Where they do not, (lo, hi] widened to the
    2^-f grid is returned.
    """
    f = bits + _GUARD_BITS - (_floor_log2(abs(x.numerator), x.denominator) + 1 if x else 0)
    m = (x.numerator << f) // x.denominator
    low, high = (lo.numerator << f) // lo.denominator, (hi.numerator << f) // hi.denominator + 1
    a, b = low, high
    for _ in range(f + 8):
        v = _dyadic_horner(rho, m, f)
        if not v:
            break
        if (v > 0) == rising:
            b = m
        else:
            a = m
        dv = _dyadic_horner(slope, m, f)  # 2^(f (n - 1)) rho'(m / 2^f): v / dv is the step in units of 2^-f
        nxt = m - (2 * v + dv) // (2 * dv) if dv else a
        if abs(nxt - m) <= 1:
            m = nxt
            break
        m = nxt if a < nxt < b else (a + b) // 2
    below, above = side(Fraction(m - 2, 1 << f)), side(Fraction(m + 2, 1 << f))
    if not below * above:
        t = Fraction(m - 2 if below == 0 else m + 2, 1 << f)
        return t, t
    a, b = (m - 2, m + 2) if below > above else (low, high)
    return Fraction(a, 1 << f), Fraction(b, 1 << f)


def _weight_form(s: int, z: Fraction) -> tuple:
    """(D, bound) of _rounded_node: D = s z_den rho' P_(s-1) and the absolute values of the coefficients of D''.

    Each comes as an (ints, z_den) pair.  The weight at a node c is
    2 / (s rho'(c) P_(s-1)(c)) = 2 z_den / D(c).
    """
    slope = [k * c for k, c in enumerate(_rho_ints(s, z))][1:]
    D = [0] * (2 * s - 1)
    for i, x in enumerate(slope):
        for j, y in enumerate(_legendre_ints(s - 1)):
            D[i + j] += s * x * y
    return (D, z.denominator), ([abs(k * (k - 1) * c) for k, c in enumerate(D)][2:], z.denominator)


def _rounded_node(side, a: Fraction, b: Fraction, weight: tuple, bits: int) -> tuple:
    """(c, w): the root r in the dyadic bracket a < r < b that side locates, and its weight, each rounded.

    Both are rounded to bits significant bits, half to even; weight is
    _weight_form's (D, bound), w = 2 z_den / D(r).  D(r) lies between D(a)
    and D(b), widened by (b - a)^2 / 8 bound(max(|a|, |b|)), the most D
    leaves its chord by.  While the ends of the bracket round to different nodes,
    or the ends of that enclosure to different weights, the bracket is
    halved by the side of r at its middle.  Its width is first made a power
    of 2 of its grid, so a root on a rounding boundary or at 0 is met
    exactly; a root met exactly (a = b = r) gives both values exactly.  Each
    value is an integer over 2^(e n) d for a bracket over 2^e.
    """
    (Di, Dd), (Bi, Bd) = weight
    n = len(Di) - 1
    e = max(a.denominator, b.denominator).bit_length() - 1
    ma, mb = (x.numerator << e - x.denominator.bit_length() + 1 for x in (a, b))
    if ma != mb:
        mb = ma + (1 << (mb - ma - 1).bit_length())
    while ma != mb:
        c = _rounded(ma, 1 << e, bits)
        if c == _rounded(mb, 1 << e, bits):
            ends = sorted(_dyadic_horner(Di, m, e) * 8 * Bd for m in (ma, mb))
            bow = (mb - ma) ** 2 * _dyadic_horner(Bi, max(abs(ma), abs(mb)), e) * Dd
            lo, hi = ends[0] - bow, ends[1] + bow
            if lo > 0 or hi < 0:
                den = 16 * Dd * Bd << e * n
                w = _rounded(den, lo, bits)
                if w == _rounded(den, hi, bits):  # by value: a power of 2 has two (m, e) forms
                    return c, w
        mid = ma + mb
        ma, mb, e = ma << 1, mb << 1, e + 1
        where = side(Fraction(mid, 1 << e))
        if where >= 0:
            ma = mid
        if where <= 0:
            mb = mid
    return _rounded(ma, 1 << e, bits), _rounded(2 * Dd << e * n, _dyadic_horner(Di, ma, e), bits)


def _rounded_rule(s: int, z: Fraction, brackets, bits: int) -> tuple:
    """((c_j, b_j), ...) of the rule rounded to bits significant bits, half to even, in ascending c.

    Each node is refined by Newton's iteration in integers from the middle
    of its Sturm bracket (_newton_bracket); one narrowing of the bracket
    that leaves, by exact sign tests, rounds the node and its weight
    2/(s rho'(c) P_(s-1)(c)) (_rounded_node).  No float is formed.  All
    values are Fractions with at most bits significant bits.
    """
    rho = _rho_ints(s, z)  # z_den rho
    slope = [k * c for k, c in enumerate(rho)][1:]
    weight = _weight_form(s, z)
    out = []
    for lo, hi in brackets:
        rising = _sturm_values(s, z, lo)[0] < 0
        side = _root_side(s, z, lo, hi, rising)
        a, b = _newton_bracket(side, rho, slope, lo, hi, (lo + hi) / 2, rising, bits)
        out.append(_rounded_node(side, a, b, weight, bits))
    return tuple(out)


class QuadRule:
    """Quadrature rule: stages s, parameter zeta, abscissae c and weights b.

    The rule is built on its exact core: zeta_exact, the Sturm-certified
    root brackets, the order, the exact moments and in_unit_interval.  The
    nodes c and weights b, exact dyadic Fractions correctly rounded to the
    bits of precision_digits + 15 digits, are formed and cached on first
    access, so the exact certificate never computes them.  float_nodes
    holds the nodes and weights correctly rounded to floats by the same
    routine.
    """

    __slots__ = (
        "s", "zeta_exact", "order", "precision_digits", "in_unit_interval",
        "_brackets", "_nodes", "_floats", "_mu",
    )

    def __init__(self, *, s, zeta_exact, brackets, order, precision_digits, in_unit_interval):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "zeta_exact", zeta_exact)
        object.__setattr__(self, "_brackets", tuple(brackets))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "precision_digits", precision_digits)
        object.__setattr__(self, "in_unit_interval", in_unit_interval)
        object.__setattr__(self, "_nodes", None)
        object.__setattr__(self, "_floats", None)
        L = lcm(*range(1, s + 1))
        object.__setattr__(self, "_mu", (tuple([L // (k + 1) for k in range(s)]), L))

    def __setattr__(self, *a):
        raise AttributeError("QuadRule is immutable")

    def __repr__(self):
        zeta = _decimal(self.zeta_exact, 8, _prec_bits(self.precision_digits + 15))
        return f"QuadRule(s={self.s}, zeta={zeta}, order={self.order})"

    @property
    def float_nodes(self) -> tuple:
        """((c_j, b_j), ...) in ascending c, each correctly rounded to a float."""
        if self._floats is None:
            pairs = _rounded_rule(self.s, self.zeta_exact, self._brackets, 53)
            object.__setattr__(self, "_floats", tuple((float(c), float(b)) for c, b in pairs))
        return self._floats

    @property
    def c(self) -> tuple:
        """The abscissae in ascending order, Fractions correctly rounded to the working precision."""
        return (self._nodes or self._rounded_nodes())[0]

    @property
    def b(self) -> tuple:
        """The weights 2/(s rho'(c_i) P_{s-1}(c_i)), Fractions correctly rounded to the working precision."""
        return (self._nodes or self._rounded_nodes())[1]

    def _rounded_nodes(self) -> tuple:
        """Round the nodes and weights to the bits of precision_digits + 15 digits and cache them as (c, b)."""
        start = perf_counter()
        bits = _prec_bits(self.precision_digits + 15)
        object.__setattr__(self, "_nodes", tuple(zip(*_rounded_rule(self.s, self.zeta_exact, self._brackets, bits))))
        _log.debug(
            "rounded nodes: s %d, zeta %s, %d bits, %.3f ms",
            self.s, self.zeta_exact, bits, 1e3 * (perf_counter() - start),
        )
        return self._nodes

    def node_poly(self) -> UniPoly:
        """Monic node polynomial rho_s = prod (x - c_i), exact coefficients."""
        rho = legendre(self.s) - self.zeta_exact * legendre(self.s - 1)
        return rho * Fraction(1, gamma_lead(self.s))

    def moments(self, n: int) -> tuple:
        """Exact discrete moments mu_k = sum_i b_i c_i^k for k < n, as n Fractions."""
        ints, d = self._moment_ints(n)
        return tuple(Fraction(x, d) for x in ints)

    def _moment_ints(self, n: int) -> tuple:
        """(ints, d) with mu_k = ints[k] / d for k < n and gcd(d, *ints) = 1.

        The integer rho = z_den P_s - z_num P_(s-1) vanishes on the nodes, so
        sum_i rho_i mu_(i+j) = 0 for j >= 0.  From mu_k = 1/(k+1), k < s, that
        recurrence divides by rho's leading coefficient once per moment, exactly
        over d lead^t for t new moments.  The pair of every moment computed so
        far is held on the rule; the first n are returned over their own
        smallest denominator, so what reads them does not slow down as the
        rule holds more.
        """
        ints, d = self._mu
        if len(ints) < n:
            s = self.s
            rho = _rho_ints(s, self.zeta_exact)
            lead = rho.pop()
            scale = lead ** (n - len(ints))
            ints = [x * scale for x in ints]
            for k in range(len(ints) - s, n - s):
                ints.append(-sum(map(mul, rho, ints[k:])) // lead)
            g = gcd(d * scale, *ints)
            object.__setattr__(self, "_mu", (tuple([x // g for x in ints]), d * scale // g))
            ints, d = self._mu
        ints = ints[:n]
        g = gcd(d, *ints)
        return [x // g for x in ints], d // g

    def to_json(self) -> str:
        d, bits = self.precision_digits, _prec_bits(self.precision_digits + 15)
        return json.dumps(
            {
                "s": self.s,
                "zeta": _decimal(self.zeta_exact, d, bits),
                "c": [_decimal(ci, d, bits) for ci in self.c],
                "b": [_decimal(bi, d, bits) for bi in self.b],
                "order": self.order,
            }
        )


def quad_rule(s: int, zeta, precision_digits: int = 50) -> QuadRule:
    """Construct the s-stage rule with abscissae at the zeros of P_s - zeta*P_{s-1}.

    Construction is exact: integer Sturm counts isolate the roots in
    rational brackets and decide in_unit_interval, and the order and the
    moments follow from s and zeta.  Raises QuadratureError when s distinct
    real roots cannot be found inside the admissible window (complex or
    runaway roots); no later access raises it.  The nodes c and the weights
    2/(s rho'(c_i) P_{s-1}(c_i)) are formed on first access, each the exact
    value correctly rounded to the bits of precision_digits + 15 digits.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if precision_digits < 15:
        raise ValueError("precision_digits too small")
    z = _exact_fraction(zeta)
    lo, hi = _WINDOW
    brackets = _isolate_roots(s, z, lo, hi)
    if len(brackets) != s:
        raise QuadratureError(
            f"P_{s} - zeta*P_{s-1} with zeta={z} has {len(brackets)} real roots "
            f"in {float(lo), float(hi)}; need {s} distinct real roots"
        )
    # V(0) - V(1) counts the roots in (0, 1]; a root at 0 is the one more in [0, 1]
    at0, at1 = _sturm_values(s, z, Fraction(0)), _sturm_values(s, z, Fraction(1))
    in_unit = _sign_changes(at0) - _sign_changes(at1) + (at0[0] == 0) == s
    return QuadRule(
        s=s,
        zeta_exact=z,
        brackets=brackets,
        order=2 * s if z == 0 else 2 * s - 1,
        precision_digits=precision_digits,
        in_unit_interval=in_unit,
    )


class _NodeVector:
    """A vector of rationals n_i / d over one denominator d > 0; * is componentwise.

    x holds the nodes c_i = x[0][i] / 2^x[1] at which a UniPoly or rational
    factor is taken (_node_values), or None for a tableau's stage vectors,
    which multiply only each other.
    """

    __slots__ = ("n", "d", "x")

    def __init__(self, n, d, x=None):
        self.n, self.d, self.x = n, d, x

    def __mul__(self, other):
        if not isinstance(other, _NodeVector):
            other = _node_values(other, self.x)
        return _NodeVector(list(map(mul, self.n, other.n)), self.d * other.d, self.x)

    __rmul__ = __mul__

    def apply(self, A: tuple) -> "_NodeVector":
        """A v for the matrix A = (rows, d), integer rows over d."""
        rows, d = A
        return _NodeVector([sum(map(mul, row, self.n)) for row in rows], d * self.d, self.x)

    def dot(self, w: tuple) -> Fraction:
        """w^T v for w = (ints, d), integers over d."""
        ints, d = w
        return Fraction(sum(map(mul, ints, self.n)), d * self.d)


def _node_values(p, x: tuple) -> _NodeVector:
    """p, a UniPoly or a rational, at the dyadic nodes c_i = x[0][i] / 2^x[1] (_dyadic_horner)."""
    ints, e = x
    cs, d = _scaled(p.coeffs if isinstance(p, UniPoly) else [Fraction(p)])
    return _NodeVector([_dyadic_horner(cs, m, e) for m in ints], d << e * max(len(cs) - 1, 0), x)


def _node_form(rule: QuadRule) -> tuple:
    """(at, ip) at the rule's rounded nodes, in integers.

    at(g) is g, a _NodeVector, UniPoly or rational, as a _NodeVector at the
    nodes; ip(f, g) = sum_i b_i f(c_i) g(c_i), an exact Fraction.
    """
    (ints, d), w = _scaled(rule.c), _scaled(rule.b)
    x = ints, d.bit_length() - 1  # the nodes are dyadic: d = 2^e
    at = lambda g: g if isinstance(g, _NodeVector) else _node_values(g, x)
    return at, lambda f, g: (at(f) * g).dot(w)


class _RayPoly(defaultdict):
    """A node vector g(c) over the true nodes, {(i, j): n} for sum n x^i beta^j / d; + - * also take a rational or a UniPoly."""

    def __init__(self, d, terms=()):
        super().__init__(int, terms)
        self.d = d

    def __add__(self, other):
        other = _ray_poly(other)
        out = _RayPoly(lcm(self.d, other.d))
        for p in (self, other):
            for key, n in p.items():
                out[key] += out.d // p.d * n
        return out

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        other = _ray_poly(other)
        out = _RayPoly(self.d * other.d)
        for (i, j), x in self.items():
            for (k, l), y in other.items():
                out[i + k, j + l] += x * y
        return out

    __rmul__ = __mul__


def _ray_poly(x) -> _RayPoly:
    """x, a _RayPoly, UniPoly or rational, as a _RayPoly."""
    if isinstance(x, _RayPoly):
        return x
    ints, d = _scaled(x.coeffs if isinstance(x, UniPoly) else [Fraction(x)])
    return _RayPoly(d, (((i, 0), n) for i, n in enumerate(ints)))


def _moment_form(rule: QuadRule, n: int, ray=None) -> tuple:
    """(A, ip) on _RayPoly node vectors over the rule's exact moments, read once for mu_k, k < n.

    ip(f, g) = sum_k h_k mu_k for h = f g, a _RayPoly constant in x in
    lowest terms, and A(g) = x <1, g>_D is the rule's c b^T.  With ray =
    (U, V), UniPolys, A is c b^T + beta U(c) b^T V(C): A(g) = x <1, g>_D +
    beta U <V, g>_D.  A product of degree n or more reads the moments again,
    to twice its degree.
    """
    mu = rule._moment_ints(n)

    def moment_sum(h, shift=0):
        """x^shift sum_k h_k mu_k for the _RayPoly h."""
        nonlocal mu
        top = max((i for i, _ in h), default=0)
        if top >= len(mu[0]):
            mu = rule._moment_ints(2 * top + 1)
        ints, dm = mu
        sums = defaultdict(int)
        for (i, j), v in h.items():
            sums[j] += ints[i] * v
        g = gcd(h.d * dm, *sums.values())
        return _RayPoly(h.d * dm // g, (((shift, j), v // g) for j, v in sums.items()))

    ip = lambda f, g: moment_sum(_ray_poly(f) * g)
    if ray is None:
        return lambda g: moment_sum(_ray_poly(g), 1), ip
    bU, V = _RayPoly(1, [((0, 1), 1)]) * ray[0], _ray_poly(ray[1])
    return lambda g: moment_sum(_ray_poly(g), 1) + bU * ip(V, g), ip


def discrete_ip(u: UniPoly, v: UniPoly, rule: QuadRule) -> Fraction:
    """<u, v>_D = sum_i b_i u(c_i) v(c_i) at the rule's rounded nodes, exactly.

    Use it for what the rounded rule does, as the stepper and a printed
    tableau see it: it forms c and b, and differs from the true product by
    their rounding.  For the rule's own identities use discrete_ip_exact.
    """
    return _node_form(rule)[1](u, v)


def continuous_ip(u: UniPoly, v: UniPoly) -> Fraction:
    """Exact integral_0^1 u*v."""
    prod = u * v
    return sum((c / (k + 1) for k, c in enumerate(prod.coeffs)), Fraction(0))


def _scaled(coeffs):
    """(ints, d) with coeffs = ints / d for a sequence of Fractions."""
    # a list, not a generator: CPython sizes a tuple built from a generator at
    # 10 and shrinks it, which strands one tuple on a free list per call
    d = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _scaled_matrix(rows) -> tuple:
    """(int rows, d) with rows = int rows / d for a square matrix of Fractions, as _NodeVector.apply takes it."""
    s = len(rows)
    ints, d = _scaled([x for row in rows for x in row])
    return [ints[i * s : (i + 1) * s] for i in range(s)], d


def _moment_rows(polys, rule: QuadRule, n: int) -> tuple:
    """(rows, d): rows[i][j] = sum_k a_k m_(k+j) for j < n and a = polys[i], in integers.

    With the rule's integer moments mu = m / d (QuadRule._moment_ints), an
    integer coefficient list a / du stands for u with <u, x^j>_D = rows[i][j] / (d du).
    """
    mu, d = rule._moment_ints(max(map(len, polys), default=0) + n - 1)
    return [[sum(map(mul, a, mu[j : j + len(a)])) for j in range(n)] for a in polys], d


def discrete_ip_table(us, vs, rule: QuadRule) -> list:
    """[[<u, v>_D for v in vs] for u in us] as exact rationals.

    <u, v>_D = sum_(i, j) u_i v_j mu_(i+j) over the rule's moments.  Each u
    gives one moment row h_j = sum_i u_i mu_(i+j) (_moment_rows), the
    discrete functional g -> <u, g>_D on x^j, and each entry is that row's
    dot product with v; the sums run over the integer moments and the
    coefficients scaled by their common denominators.
    """
    us, vs = [_scaled(u.coeffs) for u in us], [_scaled(v.coeffs) for v in vs]
    rows, dm = _moment_rows([a for a, _ in us], rule, max((len(a) for a, _ in vs), default=0))
    return [
        [Fraction(sum(map(mul, h, a)), dm * du * dv) for a, dv in vs]
        for h, (_, du) in zip(rows, us)
    ]


def discrete_ip_exact(u: UniPoly, v: UniPoly, rule: QuadRule) -> Fraction:
    """<u, v>_D as an exact rational number: sum_(i, j) u_i v_j mu_(i+j).

    The moments mu_k of the rule are rational (QuadRule.moments), so the
    discrete product of rational-coefficient polynomials is rational even
    when it differs from the continuous integral.  Use it for the true
    rule, whose nodes are in general irrational: it forms no node, and an
    identity of the rule holds in it exactly.  discrete_ip is the same product at the
    rounded nodes.
    """
    return discrete_ip_table([u], [v], rule)[0][0]


def check_discip_lemma(rule: QuadRule, pi_m: UniPoly, theta: UniPoly):
    """Residual of the exactness decomposition for a monic pi_m of degree = order.

    With rho_s the monic node polynomial and theta any monic polynomial of
    degree order - s, the discrete integral of pi_m must equal the exact
    integral minus <rho_s, theta>.  Returns the absolute defect, an exact
    Fraction from the rule's moments.
    """
    if not pi_m.is_monic() or pi_m.degree != rule.order:
        raise ValueError("pi_m must be monic of degree equal to the rule order")
    if not theta.is_monic() or theta.degree != rule.order - rule.s:
        raise ValueError("theta must be monic of degree order - s")
    rho = rule.node_poly()
    one = UniPoly([1])
    return abs(discrete_ip_exact(pi_m, one, rule) - continuous_ip(pi_m, one) + continuous_ip(rho, theta))
