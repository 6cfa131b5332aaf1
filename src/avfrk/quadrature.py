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
form sum u_i v_j mu_(i+j).  Exact integer Sturm counts count the roots
when the rule is built; Sturm bisection isolates them on first access to
the nodes.  The nodes and weights are then formed by one exact routine,
_rounded_rule, which rounds each of them correctly to a given number of
bits: each node by Newton's iteration in integers from the middle of its
Sturm bracket, confirmed by the signs of the integer rho; then one loop
halves that bracket by the same signs until its ends round to one node
and an exact enclosure of the weight at them rounds to one weight.  QuadRule.float_nodes holds them at 53 bits,
for the float stepper; QuadRule.c and QuadRule.b hold them as exact dyadic
Fractions at the bits of the working precision.  The exact certificate
reads only the exact core and never isolates a root.

Every number outside the float stepper is an exact rational, and the rule
is computed in integers only.  A node vector g(c) has one representation
on each side: at the rounded nodes (and for a tableau's stage vectors) a
_NodeVector, integers over one denominator, with discrete_ip its exact
sum; over the true nodes a _RayPoly, g as a polynomial in x (and in the
beta of a kernel ray) over one denominator, with _moment_form giving the
rule's c b^T and inner product on the moments.  One printer, _decimal,
writes a rational as its exact value correctly rounded to a number of
decimal digits, ties half up.
"""

from __future__ import annotations

import json
import logging
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, gcd, lcm, log10
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

    A value that is no finite rational raises ValueError, any other type, bool included, TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
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

    __slots__ = ("coeffs", "_ray")

    def __init__(self, coeffs: Sequence):
        cs = [_exact_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_ray", None)  # its _RayPoly, formed on first use

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


def _rounded(num: int, den: int, bits: int) -> Fraction:
    """num / den rounded to bits significant bits, half to even, as a Fraction."""
    if not num:
        return Fraction(0)
    n, d = abs(num), abs(den)
    e = n.bit_length() - d.bit_length() - bits - 2
    q, r = divmod(n << max(-e, 0), d << max(e, 0))  # q has bits + 2 or bits + 3 bits
    shift = q.bit_length() - bits
    q, low, half = q >> shift, q & ((1 << shift) - 1), 1 << shift - 1
    m, e = q + (low > half or low == half and bool(r or q & 1)), e + shift
    x = Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)
    return x if (num < 0) == (den < 0) else -x


def _floor_log2(num: int, den: int) -> int:
    """floor(log2(num / den)) for num, den > 0."""
    e = num.bit_length() - den.bit_length()
    return e - ((num << max(-e, 0)) < (den << max(e, 0)))


def _prec_bits(digits: int) -> int:
    """The bits of a working precision of digits decimal digits, as mpmath's dps_to_prec counts them."""
    return max(1, round((digits + 1) * 3.3219280948873626))


def _decimal(x, digits: int) -> str:
    """The exact rational x correctly rounded to digits significant digits, ties half up (away from zero).

    The decimal exponent is estimated from bit lengths and corrected by
    exact comparison, so no integer longer than digits digits is written
    out.  The digits are laid out in fixed point for exponents strictly
    between min(-(digits // 3), -5) and digits, else with an exponent;
    trailing zeros are dropped.
    """
    x = Fraction(x)
    if not x:
        return "0.0"
    num, den = abs(x.numerator), x.denominator
    exp = floor((num.bit_length() - den.bit_length()) * log10(2))  # within 1 of floor(log10 |x|)
    while True:
        k = exp - digits + 1  # |x| / 10^k has digits digits before the point
        q, r = divmod(num * 10 ** max(-k, 0), scale := den * 10 ** max(k, 0))
        if q >= 10**digits:
            exp += 1
        elif q < 10 ** (digits - 1):
            exp -= 1
        else:
            break
    q += 2 * r >= scale
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
    of rho and of its derivative (slope) ends on the grid 2^-top, _GUARD_BITS
    finer than the bits-wide grid at x.  It runs on the grids 2^-(top >> k),
    k = coarse..0: the first has 16 to 31 bits, and it moves to the next,
    twice as fine, when its step shrinks to one unit.  It bisects where a
    step would leave the bracket that the signs of rho keep (rho < 0 left of
    the root when rising).  Two side tests on 2^-top then confirm r within
    two units of its result m, or meet r exactly there.  Where they do not,
    (lo, hi] widened to 2^-top is returned.
    """
    top = bits + _GUARD_BITS - (_floor_log2(abs(x.numerator), x.denominator) + 1 if x else 0)
    coarse = max(top.bit_length() - 5, 0)
    f = top >> coarse
    m = (x.numerator << f) // x.denominator
    a, b = (lo.numerator << f) // lo.denominator, (hi.numerator << f) // hi.denominator + 1
    for k in range(coarse, -1, -1):
        g = top >> k
        m, a, b, f = m << g - f, a << g - f, b << g - f, g
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
    low, high = (lo.numerator << f) // lo.denominator, (hi.numerator << f) // hi.denominator + 1
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

    The rule is built on its exact core: zeta_exact, the order, the exact
    moments and in_unit_interval; its s roots are counted by Sturm, not
    isolated.  The first read of c, b or float_nodes isolates them in
    rational Sturm brackets (_brackets, cached), so the exact certificate
    never isolates a root.  c and b are exact dyadic Fractions correctly
    rounded to the bits of precision_digits + 15 digits, and float_nodes
    the nodes and weights correctly rounded to floats by the same routine;
    each is formed on first access and cached.
    """

    __slots__ = (
        "s", "zeta_exact", "order", "precision_digits", "in_unit_interval",
        "_isolated", "_nodes", "_floats", "_mu",
    )

    def __init__(self, *, s, zeta_exact, order, precision_digits, in_unit_interval):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "zeta_exact", zeta_exact)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "precision_digits", precision_digits)
        object.__setattr__(self, "in_unit_interval", in_unit_interval)
        object.__setattr__(self, "_isolated", None)
        object.__setattr__(self, "_nodes", None)
        object.__setattr__(self, "_floats", None)
        L = lcm(*range(1, s + 1))
        object.__setattr__(self, "_mu", (tuple([L // (k + 1) for k in range(s)]), L))

    def __setattr__(self, *a):
        raise AttributeError("QuadRule is immutable")

    def __repr__(self):
        zeta = _decimal(self.zeta_exact, 8)
        return f"QuadRule(s={self.s}, zeta={zeta}, order={self.order})"

    @property
    def _brackets(self) -> tuple:
        """The disjoint Sturm brackets (lo, hi] of the roots in ascending order, isolated on first read."""
        if self._isolated is None:
            object.__setattr__(self, "_isolated", tuple(_isolate_roots(self.s, self.zeta_exact, *_WINDOW)))
        return self._isolated

    @property
    def float_nodes(self) -> tuple:
        """((c_j, b_j), ...) in ascending c, each correctly rounded to a float."""
        if self._floats is None:
            object.__setattr__(self, "_floats", tuple((float(c), float(b)) for c, b in self._round(53)))
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
        object.__setattr__(self, "_nodes", tuple(zip(*self._round(_prec_bits(self.precision_digits + 15)))))
        return self._nodes

    def _round(self, bits: int) -> tuple:
        """_rounded_rule at bits, with the roots isolated first if they are not yet; logs one DEBUG record."""
        start = perf_counter()
        brackets = self._brackets
        isolated = perf_counter()
        pairs = _rounded_rule(self.s, self.zeta_exact, brackets, bits)
        _log.debug(
            "rounded nodes: s %d, zeta %s, %d bits, isolation %.3f ms, %.3f ms",
            self.s, self.zeta_exact, bits, 1e3 * (isolated - start), 1e3 * (perf_counter() - start),
        )
        return pairs

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
        d = self.precision_digits
        return json.dumps(
            {
                "s": self.s,
                "zeta": _decimal(self.zeta_exact, d),
                "c": [_decimal(ci, d) for ci in self.c],
                "b": [_decimal(bi, d) for bi in self.b],
                "order": self.order,
            }
        )


def quad_rule(s: int, zeta, precision_digits: int = 50) -> QuadRule:
    """Construct the s-stage rule with abscissae at the zeros of P_s - zeta*P_{s-1}.

    Construction is exact and isolates no root: integer Sturm counts at the
    ends of the window count the real roots, which are all simple; counts at
    0 and 1 decide in_unit_interval; the order and the moments follow from s
    and zeta.  Raises QuadratureError when the window does not hold s real
    roots (complex or runaway roots), with the message the count gives, and
    ValueError, naming the bound, for precision_digits below 15; no later
    access raises either.  The first access to the nodes isolates the roots
    and forms the nodes c and the weights 2/(s rho'(c_i) P_{s-1}(c_i)), each
    the exact value correctly rounded to the bits of precision_digits + 15
    digits (QuadRule).
    """
    if s < 1:
        raise ValueError("s must be positive")
    if precision_digits < 15:
        raise ValueError(f"precision_digits must be at least 15, got {precision_digits}")
    z = _exact_fraction(zeta)
    lo, hi = _WINDOW
    # V(lo) - V(hi) counts the roots in (lo, hi], V(0) - V(1) those in (0, 1];
    # a root at 0 is the one more in [0, 1]
    vlo, at0, at1, vhi = (_sturm_values(s, z, x) for x in (lo, Fraction(0), Fraction(1), hi))
    roots = _sign_changes(vlo) - _sign_changes(vhi)
    if roots != s:
        raise QuadratureError(
            f"P_{s} - zeta*P_{s-1} with zeta={z} has {roots} real roots "
            f"in {float(lo), float(hi)}; need {s} distinct real roots"
        )
    in_unit = _sign_changes(at0) - _sign_changes(at1) + (at0[0] == 0) == s
    return QuadRule(
        s=s,
        zeta_exact=z,
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


class _RayPoly(dict):
    """A node vector g(c) over the true nodes: {(i, j): n} for sum n x^i beta^j / d, a plain dict of integers over d > 0.

    + and - take a _RayPoly, a UniPoly or a rational; * takes a _RayPoly or
    a UniPoly, and multiplies by a rational (an int or a Fraction) on the
    numerators and d alone.  A UniPoly is converted once (_ray_poly).
    """

    __slots__ = ("d",)

    def __init__(self, d, terms=()):
        super().__init__(terms)
        self.d = d

    def __add__(self, other, sign=1):
        other = _ray_poly(other)
        d = lcm(self.d, other.d)
        f, g = d // self.d, sign * (d // other.d)
        out = _RayPoly(d, {key: f * n for key, n in self.items()})
        for key, n in other.items():
            out[key] = out.get(key, 0) + g * n
        return out

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return _RayPoly(self.d, {key: other * n for key, n in self.items()})
        if isinstance(other, Fraction):
            x = other.numerator
            return _RayPoly(self.d * other.denominator, {key: x * n for key, n in self.items()})
        other = _ray_poly(other)
        out = _RayPoly(self.d * other.d)
        get = out.get
        for (i, j), x in self.items():
            for (k, l), y in other.items():
                key = i + k, j + l
                out[key] = get(key, 0) + x * y
        return out

    __rmul__ = __mul__


def _ray_poly(x) -> _RayPoly:
    """x, a _RayPoly, UniPoly or rational, as a _RayPoly; a UniPoly's is formed once and kept on it."""
    if isinstance(x, _RayPoly):
        return x
    if isinstance(x, UniPoly):
        if x._ray is None:
            ints, d = _scaled(x.coeffs)
            object.__setattr__(x, "_ray", _RayPoly(d, {(i, 0): n for i, n in enumerate(ints)}))
        return x._ray
    x = Fraction(x)
    return _RayPoly(x.denominator, {(0, 0): x.numerator})


def _int_poly(ints, d: int) -> UniPoly:
    """The UniPoly sum_i ints_i x^i / d for integers over d > 0, its _RayPoly formed from them at once."""
    g = gcd(d, *ints)
    ints, d = [x // g for x in ints], d // g
    while ints and not ints[-1]:
        ints.pop()
    p = UniPoly([Fraction(x, d) for x in ints])
    object.__setattr__(p, "_ray", _RayPoly(d, {(i, 0): x for i, x in enumerate(ints)}))
    return p


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
        sums = {}
        for (i, j), v in h.items():
            sums[j] = sums.get(j, 0) + ints[i] * v
        g = gcd(h.d * dm, *sums.values())
        return _RayPoly(h.d * dm // g, {(shift, j): v // g for j, v in sums.items()})

    ip = lambda f, g: moment_sum(_ray_poly(f) * g)
    if ray is None:
        return lambda g: moment_sum(_ray_poly(g), 1), ip
    bU, V = _RayPoly(1, {(0, 1): 1}) * ray[0], _ray_poly(ray[1])
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
