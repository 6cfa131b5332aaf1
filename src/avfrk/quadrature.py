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
counts when the rule is built.  The nodes and weights come two ways, each
formed on first access:
- QuadRule.c and QuadRule.b are high-precision mpf values, polished by a
  float-seeded Newton iteration, safeguarded by bisection inside each
  bracket; a polish or validation QuadratureError is raised then;
- QuadRule.float_nodes holds them correctly rounded to floats, for the
  float stepper: each node from a float seed checked by the signs of the
  integer rho half an ulp either side, each weight from an exact enclosure
  narrowed until both its ends round to one float.
The exact certificate reads only the exact core and never polishes.
mpmath is imported only by what forms an mpf: the polish, its validation,
QuadRule.zeta, UniPoly.values and discrete_ip.
"""

from __future__ import annotations

import json
import logging
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import ceil, comb, gcd, lcm, ulp
from operator import mul
from struct import pack, unpack
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


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise TypeError(f"cannot convert {x!r} to an exact rational; pass str or Fraction")


def _exact_fraction(x) -> Fraction:
    """Lossless conversion to Fraction; float and mpf are binary man * 2^exp."""
    if isinstance(x, (Fraction, int, float)):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


class UniPoly:
    """Univariate polynomial, ascending exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_rat(c) for c in coeffs]
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
            try:
                c = _rat(other)
            except TypeError:
                return NotImplemented  # a factor that is not rational may know the product
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
        """Horner evaluation; exact on Fraction input, mpf on mpf input."""
        if isinstance(x, Fraction) or isinstance(x, int):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        return self.values((x,))[0]

    def values(self, xs) -> list:
        """[p(x) for x in xs] at mpf points, each coefficient converted once."""
        import mpmath as mp

        cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(self.coeffs)]
        out = []
        for x in xs:
            acc = mp.mpf(0)
            for c in cs:
                acc = acc * x + c
            out.append(acc)
        return out


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
    z = _rat(zeta)
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


def _rho_ints(s: int, z: Fraction) -> list:
    """Integer coefficients of z_den P_s - z_num P_(s-1), a multiple of rho = P_s - z P_(s-1)."""
    low = legendre(s - 1).coeffs + (0,)
    return [z.denominator * a.numerator - z.numerator * b.numerator for a, b in zip(legendre(s).coeffs, low)]


# ---------------------------------------------------------------------------
# root isolation on the exact polynomial


def _sturm_values(s: int, z: Fraction, x: Fraction) -> list:
    """(rho, P_(s-1), ..., P_0) at x for rho = P_s - z P_(s-1), in integers.

    With 2x - 1 = m/D each member is scaled by k! D^k > 0, so the Legendre
    recurrence reads p_(k+1) = (2k+1) m p_k - k^2 D^2 p_(k-1), and rho maps
    to z_den p_s - z_num s D p_(s-1).  The signs are those of the members.
    """
    m, d = 2 * x.numerator - x.denominator, x.denominator
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
    member its neighbours have opposite signs by the recurrence.
    """
    va, vb = (_sign_changes(_sturm_values(s, z, x)) for x in (lo, hi))
    brackets, stack = [], [(lo, va, hi, vb)]  # (a, V(a), b, V(b)): V(a) - V(b) roots in (a, b]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            brackets.append((a, b))
        elif va - vb > 1:
            mid = (a + b) / 2
            while (values := _sturm_values(s, z, mid))[0] == 0:  # nudge off an exact rational root
                mid = (a + 2 * mid) / 3
            vm = _sign_changes(values)
            stack += [(a, va, mid, vm), (mid, vm, b, vb)]
    return sorted(brackets)


def _horner(cs, x):
    """(p(x), p'(x)) for ascending coefficients cs, in the arithmetic of x."""
    f = df = 0 * x
    for c in reversed(cs):
        df = df * x + f
        f = f * x + c
    return f, df


def _guard_digits(p: UniPoly) -> int:
    """Digits beyond dps + 15 at which the roots of p are polished and weighed.

    Horner in the monomial basis loses up to log10 sum |p_k| digits on
    [0, 1].  The 15 digits above dps cover that, with two to spare for the
    10^(-dps+2) stop, while sum |p_k| has at most 17 digits: every rule
    up to s = 22 for |zeta| <= 2.  Each further digit adds a guard digit;
    P_s alone has about 0.77 s of them.
    """
    return max(0, len(str(ceil(sum(map(abs, p.coeffs))))) - 17)


def _float_root(f, lo: Fraction, hi: Fraction, rising: bool) -> float:
    """A float root in [lo, hi] of f(x) -> (value, slope): a safeguarded Newton iteration in floats.

    The bracket shrinks by the sign of the value (negative left of the root
    when rising), and a step leaving it is replaced by bisection.
    """
    a, b = float(lo), float(hi)
    x = (a + b) / 2
    for _ in range(100):
        v, dv = f(x)
        if v == 0:
            break
        if (v > 0) == rising:
            b = x
        else:
            a = x
        last = x
        x = x - v / dv if dv else a  # a zero slope falls back to bisection
        if not a < x < b:
            x = (a + b) / 2
        if abs(x - last) <= ulp(last):
            break
    return x


def _rho_float(s: int, z: float, x: float) -> tuple:
    """(rho(x), rho'(x)) in floats for rho = P_s - z P_(s-1), by the Legendre recurrence."""
    t = 2 * x - 1
    p, q, dp, dq = 1.0, t, 0.0, 2.0  # P_(k-1), P_k and their derivatives, from k = 1
    for k in range(1, s):
        nxt = ((2 * k + 1) * t * q - k * p) / (k + 1)
        p, q, dp, dq = q, nxt, dq, ((2 * k + 1) * (2 * q + t * dq) - k * dp) / (k + 1)
    return q - z * p, dq - z * dp


def _polish_root(p: UniPoly, lo: Fraction, hi: Fraction, dps: int):
    """The root of p in the isolating bracket [lo, hi], to 10^(-dps+2).

    A float seed, from _float_root on p's float coefficients by Horner in
    the monomial basis, starts a safeguarded Newton iteration at
    dps + 15 + _guard_digits(p) digits, started again from [lo, hi], which
    stops on a step below the tolerance.  Where p has no sign change on
    [lo, hi] nothing is bisected, and a polished root outside [lo, hi]
    raises QuadratureError.  The root is returned at those digits.  For
    s >= 24 the float seed is mostly rounding noise and only the safeguard
    keeps its Newton iteration in the bracket.  The seed stays Horner's:
    the last polished bits depend on it, and float_nodes' seed
    (_rho_float) would move them for most rules.
    """
    import mpmath as mp

    rising = p(lo) < 0
    # a step leaving [lo, hi] can bisect instead only where p changes sign on it
    isolating = (p(hi) < 0) != rising
    x = _float_root(partial(_horner, [float(c) for c in p.coeffs]), lo, hi, rising)
    with mp.workdps(dps + 15 + _guard_digits(p)):
        cs = [mp.mpf(c.numerator) / c.denominator for c in p.coeffs]
        x = mp.mpf(x)
        a, b = (mp.mpf(e.numerator) / e.denominator for e in (lo, hi))
        tol = mp.mpf(10) ** (-dps + 2)
        where = f"the isolating bracket [{float(lo)}, {float(hi)}]"
        for _ in range(50):
            f, df = _horner(cs, x)
            if f == 0:
                break
            if df == 0:
                raise QuadratureError(f"Newton met a critical point in {where}")
            if (f > 0) == rising:
                b = x
            else:
                a = x
            step = f / df
            nxt = x - step
            if abs(step) < tol * max(1, abs(nxt)):
                x = nxt
                break
            x = nxt if a < nxt < b or not isolating else (a + b) / 2
        else:
            raise QuadratureError(f"Newton did not converge in {where}")
        if not lo <= _exact_fraction(x) <= hi:
            raise QuadratureError(f"Newton left {where}")
        return +x


# ---------------------------------------------------------------------------
# correctly rounded float nodes and weights, by exact sign tests


def _root_side(s: int, z: Fraction, lo: Fraction, hi: Fraction):
    """side(t): 1 when r > t, -1 when r < t and 0 when r = t, for the root r of rho in (lo, hi].

    Inside the isolating bracket the sign of the integer rho (_sturm_values)
    at t against its sign at lo decides; outside it, the bracket does.
    """
    left = _sturm_values(s, z, lo)[0] > 0

    def side(t: Fraction) -> int:
        if t <= lo:
            return 1
        if t > hi:
            return -1
        v = _sturm_values(s, z, t)[0]
        return 0 if v == 0 else 1 if (v > 0) == left else -1

    return side


def _ordinal(x: float) -> int:
    """The place of x in the order of all floats: consecutive floats have consecutive ordinals."""
    n = unpack("<q", pack("<d", x))[0]
    return n if n >= 0 else -(n & (1 << 63) - 1)


def _from_ordinal(n: int) -> float:
    return unpack("<d", pack("<Q", n if n >= 0 else -n | 1 << 63))[0]


def _rounded_root(side, lo: Fraction, hi: Fraction, x: float) -> tuple:
    """(float(r), a, b) for the root r in (lo, hi] that side locates (_root_side), from a float seed x.

    The sides of r at the two points half an ulp from x either enclose r,
    so that x is float(r), or tell on which side of x float(r) lies.  After
    three steps to a neighbour the search bisects the floats that remain,
    in the order of their ordinals, so it ends within 64 more steps.  A root
    exactly at a half-ulp point is returned as float() rounds it, half to
    even.  The dyadic a < r < b are the half-ulp points of float(r), or
    a = b = r.
    """
    first, last = _ordinal(float(lo)), _ordinal(float(hi))  # float(r) lies between them
    for steps in count():
        n = _ordinal(x)
        down, up = ((Fraction(x) + Fraction(_from_ordinal(n + d))) / 2 for d in (-1, 1))
        below = side(down)
        if below == 0:
            return float(down), down, down
        if below > 0:
            above = side(up)
            if above == 0:
                return float(up), up, up
            if above < 0:
                return x, down, up
            first = n = n + 1
        else:
            last = n = n - 1
        x = _from_ordinal(n if steps < 3 else (first + last) // 2)


def _dyadic_horner(ints: list, m: int, e: int) -> int:
    """2^(e n) p(m / 2^e) for the integer polynomial p of degree n = len(ints) - 1."""
    acc = 0
    for k, c in enumerate(reversed(ints)):
        acc = acc * m + (c << e * k)
    return acc


def _rounded_weight(side, s: int, a: Fraction, b: Fraction, D: tuple, bound: tuple) -> float:
    """float(2 / (s D(r))), correctly rounded, for the root r in the dyadic bracket a < r < b.

    side locates r (_root_side).  D = rho' P_(s-1) and bound, the absolute
    values of the coefficients of D'', come as (ints, d) pairs.  D(r) lies
    between D(a) and D(b), widened by (b - a)^2 / 8 bound(max(|a|, |b|)), the
    most D leaves its chord by.  While the weights at the two ends of that
    enclosure round to different floats, the bracket is halved by the side
    of r at its middle; a root met exactly gives its weight exactly.  Each
    value is an integer over 2^(e n) d for a bracket over 2^e, and int / int
    divides correctly rounded.
    """
    e = max(a.denominator, b.denominator).bit_length() - 1
    ma, mb = (x.numerator << e - x.denominator.bit_length() + 1 for x in (a, b))
    (Di, Dd), (Bi, Bd) = D, bound
    while ma != mb:
        ends = sorted(_dyadic_horner(Di, m, e) * 8 * Bd for m in (ma, mb))
        bow = (mb - ma) ** 2 * _dyadic_horner(Bi, max(abs(ma), abs(mb)), e) * Dd
        lo, hi = ends[0] - bow, ends[1] + bow
        if lo > 0 or hi < 0:
            den = 16 * Dd * Bd << e * (len(Di) - 1)
            w = den / (s * lo)
            if w == den / (s * hi):
                return w
        mid = ma + mb
        ma, mb, e = ma << 1, mb << 1, e + 1
        where = side(Fraction(mid, 1 << e))
        if where >= 0:
            ma = mid
        if where <= 0:
            mb = mid
    return (2 * Dd << e * (len(Di) - 1)) / (s * _dyadic_horner(Di, ma, e))


def _float_nodes(rule) -> tuple:
    """((c_j, b_j), ...) of the rule correctly rounded to floats, in ascending c.

    Each node is rounded from its float seed by _rounded_root inside its
    Sturm bracket, and its weight 2/(s rho'(c) P_(s-1)(c)) by _rounded_weight
    on the bracket that leaves; all in exact arithmetic.
    """
    s, z = rule.s, rule.zeta_exact
    rho = legendre(s) - z * legendre(s - 1)
    D = rho.derivative() * legendre(s - 1)
    bound = _scaled([abs(c) for c in D.derivative().derivative().coeffs])
    D = _scaled(D.coeffs)
    f = partial(_rho_float, s, float(z))
    out = []
    for lo, hi in rule._brackets:
        side = _root_side(s, z, lo, hi)
        c, a, b = _rounded_root(side, lo, hi, _float_root(f, lo, hi, rho(lo) < 0))
        out.append((c, _rounded_weight(side, s, a, b, D, bound)))
    return tuple(out)


class QuadRule:
    """Quadrature rule: stages s, parameter zeta, abscissae c and weights b.

    The rule is built on its exact core: zeta_exact, the Sturm-certified
    root brackets, the order, the exact moments and in_unit_interval.  The
    mpf nodes c and weights b are polished, checked and cached on first
    access, so the exact certificate never computes them; the mpf zeta is
    formed on first access too.  float_nodes holds the nodes and weights
    correctly rounded to floats, from exact sign tests, with no mpf at all.
    """

    __slots__ = (
        "s", "zeta_exact", "order", "precision_digits", "in_unit_interval",
        "_brackets", "_zeta", "_nodes", "_floats", "_mu",
    )

    def __init__(self, *, s, zeta_exact, brackets, order, precision_digits, in_unit_interval):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "zeta_exact", zeta_exact)
        object.__setattr__(self, "_brackets", tuple(brackets))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "precision_digits", precision_digits)
        object.__setattr__(self, "in_unit_interval", in_unit_interval)
        object.__setattr__(self, "_zeta", None)
        object.__setattr__(self, "_nodes", None)
        object.__setattr__(self, "_floats", None)
        L = lcm(*range(1, s + 1))
        object.__setattr__(self, "_mu", (tuple([L // (k + 1) for k in range(s)]), L))

    def __setattr__(self, *a):
        raise AttributeError("QuadRule is immutable")

    def __repr__(self):
        import mpmath as mp

        return f"QuadRule(s={self.s}, zeta={mp.nstr(self.zeta, 8)}, order={self.order})"

    @property
    def zeta(self):
        """zeta as an mpf at precision_digits + 15."""
        if self._zeta is None:
            import mpmath as mp

            z = self.zeta_exact
            with mp.workdps(self.precision_digits + 15):
                object.__setattr__(self, "_zeta", mp.mpf(z.numerator) / z.denominator)
        return self._zeta

    @property
    def float_nodes(self) -> tuple:
        """((c_j, b_j), ...) in ascending c, each correctly rounded to a float."""
        if self._floats is None:
            object.__setattr__(self, "_floats", _float_nodes(self))
        return self._floats

    @property
    def c(self) -> tuple:
        """The abscissae in ascending order, mpf at precision_digits + 15."""
        return (self._nodes or self._polish())[0]

    @property
    def b(self) -> tuple:
        """The weights 2/(s rho'(c_i) P_{s-1}(c_i)), mpf at precision_digits + 15."""
        return (self._nodes or self._polish())[1]

    def _polish(self) -> tuple:
        """Polish the roots in their brackets, form the weights, validate and cache (c, b)."""
        import mpmath as mp

        start = perf_counter()
        s, z, dps = self.s, self.zeta_exact, self.precision_digits
        rho = legendre(s) - z * legendre(s - 1)
        with mp.workdps(dps + 15 + _guard_digits(rho)):
            c = sorted(_polish_root(rho, a, b, dps) for a, b in self._brackets)
            b = [2 / (s * d * p) for d, p in zip(rho.derivative().values(c), legendre(s - 1).values(c))]
        with mp.workdps(dps + 15):
            c, b = [+x for x in c], [+x for x in b]
            # distinctness at working precision
            for x, y in zip(c, c[1:]):
                if abs(y - x) < mp.mpf(10) ** (-dps + 5):
                    raise QuadratureError("repeated abscissae at working precision")
            _validate_rule(self, c, b)
        object.__setattr__(self, "_nodes", (tuple(c), tuple(b)))
        _log.debug(
            "polish nodes: s %d, zeta %s, precision %d, %.3f ms",
            s, z, dps, 1e3 * (perf_counter() - start),
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
        import mpmath as mp

        d = self.precision_digits
        return json.dumps(
            {
                "s": self.s,
                "zeta": mp.nstr(self.zeta, d),
                "c": [mp.nstr(ci, d) for ci in self.c],
                "b": [mp.nstr(bi, d) for bi in self.b],
                "order": self.order,
            }
        )


def quad_rule(s: int, zeta, precision_digits: int = 50) -> QuadRule:
    """Construct the s-stage rule with abscissae at the zeros of P_s - zeta*P_{s-1}.

    Construction is exact: integer Sturm counts isolate the roots in
    rational brackets and decide in_unit_interval, and the order and the
    moments follow from s and zeta.  Raises QuadratureError when s distinct
    real roots cannot be found inside the admissible window (complex or
    runaway roots).  The nodes c and weights b are polished on first
    access, by Newton at working precision, and the weights
    2/(s rho'(c_i) P_{s-1}(c_i)) are checked against all `order`
    quadrature conditions then; a polish or validation failure raises
    QuadratureError at that access.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if precision_digits < 15:
        raise ValueError("precision_digits too small")
    z = _rat(zeta)
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


def _validate_rule(rule: QuadRule, c, b) -> None:
    import mpmath as mp

    tol = mp.mpf(10) ** (-rule.precision_digits + 5)
    for k in range(1, rule.order + 1):
        r = mp.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, c)) - mp.mpf(1) / k
        if abs(r) > tol:
            raise QuadratureError(
                f"quadrature condition k={k} violated: residual {mp.nstr(r, 5)}; "
                "raise precision_digits"
            )
    if rule.zeta_exact == -1 and abs(c[0]) > tol:
        raise QuadratureError("zeta=-1 must place c_1 = 0")
    if rule.zeta_exact == 1 and abs(c[-1] - 1) > tol:
        raise QuadratureError("zeta=1 must place c_s = 1")


def discrete_ip(u: UniPoly, v: UniPoly, rule: QuadRule):
    """<u, v>_D = sum_i b_i u(c_i) v(c_i) at the rule's working precision."""
    import mpmath as mp

    with mp.workdps(rule.precision_digits + 15):
        return mp.fsum(bi * u(ci) * v(ci) for bi, ci in zip(rule.b, rule.c))


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
    when it differs from the continuous integral.
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
