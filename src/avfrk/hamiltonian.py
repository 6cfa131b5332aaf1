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
from math import prod
from operator import index
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MultiPoly",
    "RationalVec",
    "HamiltonianSystem",
    "evaluate",
    "gradient",
    "line_average",
    "hamiltonian_from_json",
]

ZERO_DEGREE = -1  # degree sentinel for the zero polynomial


def _rat(x) -> Fraction:
    """x, a Fraction, an int (not a bool) or a "num/den" string, as an exact Fraction; else TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)  # accepts "num/den"
    raise TypeError(f"not an exact rational: {x!r}")


def _exponent(e) -> int:
    """e as an int if it is an integer (operator.index) and not a bool, else TypeError."""
    if isinstance(e, bool):
        raise TypeError(f"not an integer exponent: {e!r}")
    return index(e)


class RationalVec(tuple):
    """Fixed-length vector of exact rationals."""

    def __new__(cls, entries: Iterable):
        return super().__new__(cls, (_rat(e) for e in entries))


class MultiPoly:
    """Multivariate polynomial, dense exponent tuples, Fraction coefficients.

    terms maps exponent tuples (one entry per variable) to nonzero rational
    coefficients.  An exponent must be an integer (operator.index) and not a
    bool, else TypeError.  Instances are immutable.
    """

    __slots__ = ("num_vars", "terms", "_degree")

    def __init__(self, num_vars: int, terms: Mapping[tuple, Fraction] | Iterable):
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple, Fraction] = {}
        for exps, coeff in items:
            exps = tuple(map(_exponent, exps))
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


def line_average(f: Sequence[MultiPoly], y0: Sequence, y1: Sequence) -> RationalVec:
    """Exact integral_0^1 f((1-xi) y0 + xi y1) dxi componentwise.

    Each term of a component is its coefficient times one factor
    y0_j + xi (y1_j - y0_j) per unit of exponent, a product of UniPoly
    factors in xi; their sum is integrated over [0, 1], so the result is an
    exact rational vector for rational endpoints.
    """
    from .quadrature import UniPoly  # here, so that importing this module loads no other layer

    if len(f) == 0:
        raise ValueError("empty vector field")
    if len(y0) != f[0].num_vars or len(y1) != f[0].num_vars:
        raise ValueError("endpoint dimension mismatch")
    chord = [UniPoly([_rat(u), _rat(v) - _rat(u)]) for u, v in zip(y0, y1)]
    out = []
    for comp in f:
        terms = (
            prod([x for x, e in zip(chord, exps) for _ in range(e)], start=UniPoly([coeff]))
            for exps, coeff in comp.terms.items()
        )
        out.append(sum(terms, UniPoly([])).integral()(1))
    return RationalVec(out)


def _json_int(x, field: str) -> int:
    """x if it is an int and not a bool, else ValueError naming field."""
    if type(x) is not int:
        raise ValueError(f"{field}: {x!r} is not a JSON integer")
    return x


def hamiltonian_from_json(doc: Mapping) -> HamiltonianSystem:
    """Build a HamiltonianSystem from the JSON schema.

    {"half_dim": d, "terms": [{"exponents": [e1..e2d], "coeff": "num/den"}]}
    half_dim and the exponents must be JSON integers (no float or bool);
    coefficients may be integers or "num/den" strings.
    """
    d = _json_int(doc["half_dim"], "half_dim")
    terms = {}
    for entry in doc["terms"]:
        exps = tuple(_json_int(e, "exponents") for e in entry["exponents"])
        if len(exps) != 2 * d:
            raise ValueError("exponent tuple must have length 2*half_dim")
        coeff = _rat(entry["coeff"])
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return HamiltonianSystem(d, MultiPoly(2 * d, terms))
