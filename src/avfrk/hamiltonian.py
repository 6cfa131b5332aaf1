"""Exact polynomial Hamiltonian systems.

Multivariate polynomials with rational coefficients, canonical Hamiltonian
vector fields f = J^(-1) grad H, and the exact chord average of f that the
averaged-vector-field step computes in floats.  Everything in this module
is exact; floats only appear after an explicit conversion at the
integrator boundary.

Variable ordering is fixed as (q_1..q_d, p_1..p_d) so that

    f = (dH/dp_1..dH/dp_d, -dH/dq_1..-dH/dq_d)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MultiPoly",
    "RationalVec",
    "HamiltonianSystem",
    "evaluate",
    "gradient",
    "vector_field",
    "line_average",
    "hamiltonian_from_json",
]

ZERO_DEGREE = -1  # degree sentinel for the zero polynomial


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)  # accepts "num/den"
    raise TypeError(f"not an exact rational: {x!r}")


class RationalVec(tuple):
    """Fixed-length vector of exact rationals."""

    def __new__(cls, entries: Iterable):
        return super().__new__(cls, (_rat(e) for e in entries))


class MultiPoly:
    """Multivariate polynomial, dense exponent tuples, Fraction coefficients.

    terms maps exponent tuples (one entry per variable) to nonzero rational
    coefficients.  Instances are immutable.
    """

    __slots__ = ("num_vars", "terms", "_degree")

    def __init__(self, num_vars: int, terms: Mapping[tuple, Fraction] | Iterable):
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple, Fraction] = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            coeff = _rat(coeff)
            if coeff == 0:
                continue
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
            if clean[exps] == 0:
                del clean[exps]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)
        deg = ZERO_DEGREE if not clean else max(sum(e) for e in clean)
        object.__setattr__(self, "_degree", deg)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: _rat(c)})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "MultiPoly":
        exps = [0] * num_vars
        exps[i] = 1
        return cls(num_vars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff) -> "MultiPoly":
        exps = tuple(int(e) for e in exponents)
        return cls(len(exps), {exps: _rat(coeff)})

    # -- queries ------------------------------------------------------

    def degree(self) -> int:
        """Max total degree; ZERO_DEGREE (-1) for the zero polynomial."""
        return self._degree

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"MultiPoly({self.num_vars}, 0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            bits.append(f"{self.terms[exps]}*x^{exps}")
        return "MultiPoly(" + " + ".join(bits) + ")"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.num_vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = _rat(other)
            return MultiPoly(self.num_vars, {e: c * v for e, v in self.terms.items()})
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, out)

    __rmul__ = __mul__

    def partial(self, i: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable i."""
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            out[tuple(new)] = coeff * exps[i]
        return MultiPoly(self.num_vars, out)


def evaluate(p: MultiPoly, x: Sequence) -> Fraction:
    """Value of p at the rational point x, exact arithmetic."""
    if len(x) != p.num_vars:
        raise ValueError("point dimension mismatch")
    xs = [_rat(v) for v in x]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for base, e in zip(xs, exps):
            if e:
                term *= base**e
        total += term
    return total


def gradient(p: MultiPoly) -> tuple:
    return tuple(p.partial(i) for i in range(p.num_vars))


class HamiltonianSystem:
    """Canonical system y' = J^(-1) grad H(y) with polynomial H in 2d vars."""

    __slots__ = ("half_dim", "H", "_f")

    def __init__(self, half_dim: int, H: MultiPoly):
        if half_dim < 1:
            raise ValueError("half_dim must be positive")
        if H.num_vars != 2 * half_dim:
            raise ValueError("H must have 2*half_dim variables")
        object.__setattr__(self, "half_dim", half_dim)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "_f", None)

    def __setattr__(self, *a):
        raise AttributeError("HamiltonianSystem is immutable")

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    def vector_field(self) -> tuple:
        # cached; (dH/dp block, -dH/dq block)
        if self._f is None:
            d = self.half_dim
            g = gradient(self.H)
            f = tuple(g[d + i] for i in range(d)) + tuple(-g[i] for i in range(d))
            object.__setattr__(self, "_f", f)
        return self._f

    def energy(self, y: Sequence) -> Fraction:
        return evaluate(self.H, y)


def vector_field(sys: HamiltonianSystem) -> tuple:
    return sys.vector_field()


def _segment_power(y0: Fraction, d: Fraction, e: int) -> list:
    """Coefficients in xi of (y0 + xi*d)^e, binomial expansion."""
    coeffs = [Fraction(0)] * (e + 1)
    binom = 1
    for k in range(e + 1):
        coeffs[k] = Fraction(binom) * y0 ** (e - k) * d**k
        binom = binom * (e - k) // (k + 1)
    return coeffs


def line_average(f: Sequence[MultiPoly], y0: Sequence, y1: Sequence) -> RationalVec:
    """Exact integral_0^1 f((1-xi) y0 + xi y1) dxi componentwise.

    Substitutes the affine segment, expands each component as a univariate
    polynomial in xi and integrates termwise, so the result is an exact
    rational vector for rational endpoints.
    """
    n = len(f)
    if n == 0:
        raise ValueError("empty vector field")
    nv = f[0].num_vars
    if len(y0) != nv or len(y1) != nv:
        raise ValueError("endpoint dimension mismatch")
    a = [_rat(v) for v in y0]
    diff = [_rat(v) - _rat(u) for u, v in zip(y0, y1)]
    out = []
    for comp in f:
        # xi-polynomial accumulator for this component
        acc = [Fraction(0)]
        for exps, coeff in comp.terms.items():
            term = [coeff]
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                factor = _segment_power(a[j], diff[j], e)
                new = [Fraction(0)] * (len(term) + len(factor) - 1)
                for i1, c1 in enumerate(term):
                    if c1 == 0:
                        continue
                    for i2, c2 in enumerate(factor):
                        new[i1 + i2] += c1 * c2
                term = new
            if len(term) > len(acc):
                acc.extend([Fraction(0)] * (len(term) - len(acc)))
            for k, c in enumerate(term):
                acc[k] += c
        out.append(sum((c / (k + 1) for k, c in enumerate(acc)), Fraction(0)))
    return RationalVec(out)


def hamiltonian_from_json(doc: Mapping) -> HamiltonianSystem:
    """Build a HamiltonianSystem from the JSON schema.

    {"half_dim": d, "terms": [{"exponents": [e1..e2d], "coeff": "num/den"}]}
    Coefficients may be integers or "num/den" strings.
    """
    d = int(doc["half_dim"])
    terms = {}
    for entry in doc["terms"]:
        exps = tuple(int(e) for e in entry["exponents"])
        if len(exps) != 2 * d:
            raise ValueError("exponent tuple must have length 2*half_dim")
        coeff = _rat(entry["coeff"])
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return HamiltonianSystem(d, MultiPoly(2 * d, terms))
