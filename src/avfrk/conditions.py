"""Energy-preservation conditions on the Butcher matrix of a collocation-type rule.

The linear (double-bush) conditions form a system M(A) = w on tableau
coefficients; its kernel measures the freedom left after the linear stage.
The nonlinear (triple-bush and asymmetric-bush) residuals are then evaluated
along A = c b^T + beta N for kernel directions N, and their growth in beta
shows that only beta = 0, i.e. the averaged-vector-field matrix c b^T,
preserves energy for the full polynomial degree.

The certificate path is exact over Q.  All discrete inner products that
enter the operator are rational and come from the rule's integer moments,
one moment row per polynomial, formed once per operator, and the operator
is held as its two s-column inner-product tables.  Its rank (two exact
eliminations with s columns), its kernel basis (the closed-form factors,
checked by exact 2x2 minors on the tables, or fraction-free elimination of
the operator's rows where that check fails) and the zero-row-sum direction
with its rank-one factors are exact, with no tolerance.  A uniqueness
sweep factors its operator once and computes its residual in one pass over
integers: on A = c b^T + beta U(c) b^T V(C) every node vector is a
polynomial in c and beta, so the residual is one in beta.  Each bush
identity has one body over node vectors g(c), given A(g) and ip(f, g) =
b^T f(C) g(c), in one of two representations, both from quadrature:
polynomials in c over the rule's moments, and in beta on a kernel ray
(quadrature._moment_form, for the rule's own c b^T and the sweep), or g's
exact values at the rounded nodes (quadrature._node_form) for the
arbitrary s x s matrices A of the public residual functions.  This module
defines no polynomial or node-vector type of its own.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm
from operator import mul
from time import perf_counter

from .quadrature import (
    QuadRule,
    UniPoly,
    _decimal,
    _exact_fraction,
    _int_poly,
    _legendre_ints,
    _moment_form,
    _moment_rows,
    _node_form,
    _rho_ints,
    _scaled_matrix,
    g_poly,
    gamma_lead,
    legendre,
)

__all__ = [
    "KernelStructureError",
    "double_bush_residual",
    "double_bush_poly_residual",
    "triple_bush_residual",
    "asym_bush_residual",
    "bush_residuals",
    "MOperator",
    "build_M",
    "build_p_tilde",
    "KernelElement",
    "KernelBasis",
    "rank_kernel",
    "kernel_rowsum",
    "expected_rank",
    "uniqueness_sweep",
]

_log = logging.getLogger(__name__)

_ONE = UniPoly([1])
_MONOMIAL_X = UniPoly([0, 1])


class KernelStructureError(RuntimeError):
    """The kernel lacks the expected dimension or factor structure."""


def _require_zero_at_origin(P, name):
    if not P.is_zero() and P.coeffs[0] != 0:
        raise ValueError(f"{name}(0) must vanish")


def _power(k):
    """The monomial x^k."""
    return UniPoly([0] * k + [1])


# ---------------------------------------------------------------------------
# bushy-tree residuals


@lru_cache(maxsize=1024)
def _ends(P):
    """(P', P(1), int_0^1 P) of a bush argument, formed once per polynomial."""
    one = Fraction(1)
    return P.derivative(), P(one), P.integral()(one)


def _double_bush(A, ip, P, Q):
    """b^T P'(C) A Q(c) - b^T Q'(C) A P(c) - (P(1) int Q - Q(1) int P)."""
    (dP, P1, iP), (dQ, Q1, iQ) = _ends(P), _ends(Q)
    return ip(dP, A(Q)) - ip(dQ, A(P)) - (P1 * iQ - Q1 * iP)


def _triple_bush(A, ip, P, Q, R):
    """The triple_bush_residual expression; see there."""
    (dP, P1, iP), (dQ, Q1, iQ), (dR, R1, _) = _ends(P), _ends(Q), _ends(R)
    AQ, AP = A(Q), A(P)
    return (
        ip(dP, A(R * AQ))
        + ip(dQ, A(R * AP))
        - P1 * ip(R, AQ)
        - Q1 * ip(R, AP)
        - ip(dR, AQ * AP)
        + R1 * iP * iQ
    )


def _asym_bush(A, ip, q):
    """b^T (Ac)^q - q b^T A C (Ac)^{q-1} + q b^T C (Ac)^{q-1} - 2^{-q}."""
    Ac = A(_MONOMIAL_X)
    w = reduce(mul, [Ac] * (q - 1), _ONE)
    return ip(Ac, w) - q * ip(_ONE, A(_MONOMIAL_X * w)) + q * ip(_MONOMIAL_X, w) - Fraction(1, 2**q)


def _on_nodes(body, A, rule, *args):
    """body's exact result for the s x s matrix A at the rule's rounded nodes.

    A's entries are converted exactly (_exact_fraction) and held as integer
    rows over one denominator; an mp.matrix is read through its tolist().
    """
    s = rule.s
    rows = A.tolist() if hasattr(A, "tolist") else [list(r) for r in A]
    if len(rows) != s or any(len(r) != s for r in rows):
        raise ValueError(f"expected a {s}x{s} matrix")
    A = _scaled_matrix([[_exact_fraction(x) for x in r] for r in rows])
    at, ip = _node_form(rule)
    return body(lambda g: at(g).apply(A), ip, *args)


def double_bush_residual(A, rule, p: int, q: int):
    """p b^T C^{p-1} A c^q - q b^T C^{q-1} A c^p - (1/(q+1) - 1/(p+1)).

    Vanishes for every energy-preserving method when p < q <= order-1; for
    larger q the expression still evaluates and reports the defect of the
    rule at that degree.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if not 1 <= p < q:
        raise ValueError(f"need 1 <= p < q, got ({p}, {q})")
    return double_bush_poly_residual(A, rule, _power(p), _power(q))


def double_bush_poly_residual(A, rule, P: UniPoly, Q: UniPoly):
    """b^T P'(C) A Q(c) - b^T Q'(C) A P(c) - (P(1) int Q - Q(1) int P).

    Bilinear and antisymmetric in (P, Q); P(0) = Q(0) = 0 required.  The
    vanishing guarantee covers degrees up to order-1.
    """
    _require_zero_at_origin(P, "P")
    _require_zero_at_origin(Q, "Q")
    return _on_nodes(_double_bush, A, rule, P, Q)


def triple_bush_residual(A, rule, P: UniPoly, Q: UniPoly, R: UniPoly):
    """Quadratic-in-A residual of the three-cluster condition.

    b^T P'(C) A R(C) A Q(c) + b^T Q'(C) A R(C) A P(c)
      - P(1) b^T R(C) A Q(c) - Q(1) b^T R(C) A P(c)
      - b^T R'(C) (A Q(c) .* A P(c)) + R(1) int P int Q
    with P(0) = Q(0) = 0; vanishing is guaranteed for deg P, deg Q up to
    order-1 and deg R up to order-2.
    """
    _require_zero_at_origin(P, "P")
    _require_zero_at_origin(Q, "Q")
    return _on_nodes(_triple_bush, A, rule, P, Q, R)


def asym_bush_residual(A, rule, q: int):
    """b^T (Ac)^q - q b^T A C (Ac)^{q-1} + q b^T C (Ac)^{q-1} - 2^{-q}.

    Degree-q-in-A residual of the one-long-leg cluster; vanishes for
    q <= order-1.  Vector powers are componentwise.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return _on_nodes(_asym_bush, A, rule, q)


# ---------------------------------------------------------------------------
# the double-bush operator in the Legendre tableau basis


def _eliminate(rows, ncols):
    """Exact rank, pivot columns and null space of an integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination: every entry of the
    reduced form is a minor of the matrix, so each division by the previous
    pivot is exact, and all pivots end equal to the last one, d.  Only live
    columns are carried: once column c has pivoted, it and the earlier pivot
    columns hold d on the diagonal and 0 elsewhere, so each row keeps the
    columns not yet reached followed by the free columns met so far, which
    the pivot rows carry into the null vectors.  Returns (pivots, null, d):
    null holds one integer vector per free column f, over d > 0 with x_f = 1.
    """
    A = [list(row) for row in rows if any(row)]
    pivots, free = [], []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(A)) if A[i][0]), None)
        if p is None:
            free.append(c)
            A = [row[1:] + row[:1] for row in A]
            continue
        A[r], A[p] = A[p], A[r]
        top = A[r]
        piv = top[0]
        for i, row in enumerate(A):
            if i != r:
                f = row[0]
                pairs = zip(row, top)
                next(pairs)
                A[i] = [(piv * x - f * y) // prev for x, y in pairs]
        A[r] = top[1:]
        A[r + 1 :] = [row for row in A[r + 1 :] if any(row)]
        prev = piv
        pivots.append(c)
    sign = -1 if prev < 0 else 1
    null = []
    for j, f in enumerate(free):
        x = [0] * ncols
        x[f] = sign * prev
        for row, c in zip(A, pivots):
            x[c] = -sign * row[j]
        null.append(x)
    return pivots, null, sign * prev


def _primitive(rows):
    """Each integer row divided by its content, the gcd of its entries, which Bareiss minors would carry."""
    return [[x // g for x in row] if (g := gcd(*row)) > 1 else row for row in rows]


def _null_form(vecs, n):
    """The null vectors _eliminate gives for an operator whose kernel the integer vecs span.

    That is the reduced row-echelon form of vecs with the columns reversed,
    unique for the row space (fraction-free Gauss-Jordan as in _eliminate),
    as integer rows over one d > 0.  Fewer rows than vecs: vecs dependent.
    """
    rows, out, prev = [list(v) for v in vecs], [], 1
    for f in reversed(range(n)):
        top = next((row for row in rows if row[f]), None)
        if top is None:
            continue
        rows.remove(top)
        piv = top[f]
        clear = lambda row: [(piv * x - row[f] * y) // prev for x, y in zip(row, top)]
        rows, out = [clear(row) for row in rows], [clear(row) for row in out] + [top]
        prev = piv
    return (out[::-1], prev) if prev > 0 else ([[-x for x in row] for row in out[::-1]], -prev)


def _solve(rows, rhs):
    """(x, d) with x / d the exact solution of the square integer system rows @ x = rhs, d != 0, or None if singular."""
    n = len(rows)
    pivots, null, d = _eliminate(_primitive([[*r, -v] for r, v in zip(rows, rhs)]), n + 1)
    if pivots != list(range(n)):
        return None
    return null[0][:n], d


def _integrated_rows(rule, qs, odd):
    """(rows, d): d <F_q, x^j>_D for q in qs and j < s, as integer moment rows.

    F_q = int_0^x R_(q-1) is f_poly's F_q if odd, else g_poly's G_q: R_l
    is P_l, or rho P_(l-s) for odd and l >= s.  With rho and P_l scaled by
    z_den to integers, the F_q share the denominator z_den lcm(1..deg+1).
    """
    s, zd = rule.s, rule.zeta_exact.denominator
    rho = _rho_ints(s, rule.zeta_exact)
    R = []
    for q in qs:
        if odd and q > s:
            # coefficient k of rho P_(q-1-s) is sum_i rho_i p_(k-i); P holds p_t at s + 1 + t
            P = [0] * (s + 1) + [*_legendre_ints(q - 1 - s)] + [0] * s
            R.append([sum(map(mul, rho, P[s + 1 + k : k : -1])) for k in range(len(P) - s - 1)])
        else:
            R.append([zd * c for c in _legendre_ints(q - 1)])
    L = lcm(*range(1, max(map(len, R), default=0) + 1))
    rows, d = _moment_rows([[0] + [L // (i + 1) * x for i, x in enumerate(r)] for r in R], rule, s)
    return rows, d * zd * L


def build_p_tilde(rule: QuadRule) -> UniPoly:
    """Degree-s substitute for the final right-basis slot.

    Solves for sum v_l P_l, v_1 = 1, whose derivative is discretely
    orthogonal to F_{s+1}..F_{2s-2} and integrates to zero against G_1;
    coefficients come out as exact rationals.  The F_q enter through the
    integer moment rows build_M forms for its whole operator.  For the
    left-endpoint rule (zeta = -1) the full property set is unattainable
    and P_s - P_{s-1} is returned instead.
    """
    s = rule.s
    if s < 2:
        raise ValueError("need s >= 2")
    vz, dv = _p_tilde(rule, *_integrated_rows(rule, range(s + 1, 2 * s - 1), True))
    return _legendre_sum([0, *vz], dv)


def _p_tilde(rule, high, d):
    """build_p_tilde's coordinates v = vz / dv over P_1..P_s as (vz, dv), in lowest terms with dv > 0.

    high holds the moment rows of F_{s+1}..F_{2s-2} over d, and gamma =
    d <F_(s+r), P_l'>_D, l = 1..s, applies the P_l' coefficient columns to
    them.  v_1 = 1, and v solves gamma v = 0 and sum(v) = 0; both are
    checked on v, in integers: vz is the primitive solution with vz_1 = dv.
    """
    s, zx = rule.s, rule.zeta_exact
    if zx == -1:
        return [0] * (s - 2) + [-1, 1], 1
    dP = list(zip(*_legendre_columns(s, True)))
    gamma = [[sum(map(mul, a, h)) for a in dP] for h in high] + [[1] * s]
    solution = _solve([row[1:] for row in gamma], [-row[0] for row in gamma])
    if solution is None:
        raise KernelStructureError(
            f"reduced basis system is singular at s={s}, zeta={zx}; "
            f"matrix rows {gamma}, the F rows over {d}"
        )
    x, dn = solution
    (vz,), dv = _reduced([[dn, *x]], dn)
    for r, row in enumerate(gamma[:-1], start=1):
        if ip := sum(map(mul, row, vz)):
            raise KernelStructureError(f"orthogonality against F_{s + r} failed: {Fraction(ip, d * dv)}")
    if sum(vz) != 0:
        raise KernelStructureError("coefficients do not sum to zero")
    return vz, dv


def _right_coords(rule, kind, high, d):
    """The right family B_1..B_s as its coordinates over P_1..P_s: (cols, dc), the columns of C times dc > 0.

    C is the identity (B_l = P_l) except in the odd case, where the last
    slot holds p~ (from high, as in _p_tilde) and dc is its denominator; at
    zeta = 0 that polynomial has degree 2, so slot 2 holds P_s to keep the
    family spanning (for s = 2 the plain pair already spans, and p~ is not
    formed).
    """
    s = rule.s
    pz, dc = _p_tilde(rule, high, d) if kind == "odd" and (s > 2 or rule.zeta_exact != 0) else (None, 1)
    cols = [[dc * (k == l) for k in range(s)] for l in range(s)]
    if pz is not None:
        if rule.zeta_exact == 0:
            cols[1] = cols[s - 1]
        cols[-1] = pz
    return cols, dc


def _legendre_sum(ints, d, derivative=False):
    """sum ints_k P_k / d over k = 0..len(ints)-1, or sum ints_k P_(k+1)' / d, a UniPoly from integer Legendre columns."""
    return _int_poly([sum(map(mul, row, ints)) for row in _legendre_columns(len(ints), derivative)], d)


class MOperator:
    """The double-bush conditions as an exact linear system on tableau coordinates.

    Coordinates alpha_{k,l} expand A = sum alpha_{k,l} P_{k-1}(c) b^T B_l'(C)
    over the right family B_l; rows are pairs (p, q) with 1 <= p < q <= m-1,
    columns follow (k-1)*s + (l-1).  matrix_exact @ vec(alpha) = w_exact
    characterizes energy preservation at this level; w_exact is kept
    separate so matrix_exact itself is the homogeneous part.  Both hold
    Fractions.  The operator is held as ip_tables = (lip, rip), the
    (m-1) x s integer inner-product tables over one common denominator d > 0:
    row (p, q) is (lip[p-1] (x) rip[q-1] - lip[q-1] (x) rip[p-1]) / d.
    The right family is held as its Legendre coordinates C, B_(l+1) =
    sum_k C_kl P_k, in integers: _C = (cols, dc) with cols[l] column l of
    C times dc > 0 (_right_coords).  right_family (the B_l as UniPolys),
    scaled_rows, one (ints, d) pair per row with gcd(d, *ints) = 1, and
    matrix_exact are formed on each access.
    """

    __slots__ = ("rule", "m", "basis_kind", "rows", "w_exact", "ip_tables", "_C", "_den")

    def __init__(self, rule, m, basis_kind, rows, w_exact, C, ip_tables, den):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "basis_kind", basis_kind)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "w_exact", tuple(w_exact))
        object.__setattr__(self, "_C", (tuple(map(tuple, C[0])), C[1]))
        object.__setattr__(self, "ip_tables", tuple(tuple(map(tuple, t)) for t in ip_tables))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *a):
        raise AttributeError("MOperator is immutable")

    def __repr__(self):
        return (
            f"MOperator(s={self.rule.s}, m={self.m}, {self.basis_kind}, "
            f"{len(self.rows)}x{self.rule.s ** 2})"
        )

    @property
    def right_family(self) -> tuple:
        cols, dc = self._C
        return tuple(_legendre_sum([0, *col], dc) for col in cols)

    @property
    def scaled_rows(self) -> tuple:
        lip, rip = self.ip_tables
        out = []
        for p, q in self.rows:
            lp, lq, rp, rq = lip[p - 1], lip[q - 1], rip[p - 1], rip[q - 1]
            row = [a * y - b * x for a, b in zip(lp, lq) for x, y in zip(rp, rq)]
            g = gcd(self._den, *row)
            out.append((tuple(x // g for x in row), self._den // g))
        return tuple(out)

    @property
    def matrix_exact(self) -> tuple:
        return tuple(tuple(Fraction(x, d) for x in r) for r, d in self.scaled_rows)

    @property
    def n_conditions(self) -> int:
        return len(self.rows)

    @property
    def n_coeffs(self) -> int:
        return self.rule.s**2


def build_M(rule: QuadRule, m: int) -> MOperator:
    """Assemble the double-bush operator for Hamiltonian degree bound m.

    m = 2s needs the zeta = 0 rule (order 2s); m = 2s-1 admits any rule in
    the family and uses the transformed conditions with the R/F polynomial
    pairs plus the substituted right family, so it needs s >= 2.

    One pass forms the integer moment rows <integ_q, x^j>_D, j < s, of the
    integrated polynomials G_q or F_q.  p~ reads its rows q > s through the
    P_l' coefficient columns D; rip reads them all through D C, with C the
    right family's coordinates over P_1..P_s (_right_coords), so rip is the
    Legendre-derivative table times C.  lip reads the moment rows of the
    left polynomials; no s^2-wide row is formed.  The right-hand side is a closed form: G_1(1) = 1 and
    int G_1 = 1/2, int G_2 = -1/6, the other G_q(1) and int G_q vanish, and
    so do both for F_q, q > s, as rho is orthogonal to degree s-2.  So
    w_exact is -1/6 at row (1, 2) and 0 elsewhere; c b^T is checked in
    integers on the tables to solve each row.  Each call logs one DEBUG
    record on `avfrk.conditions`.
    """
    start = perf_counter()
    s = rule.s
    zx = rule.zeta_exact
    if m == 2 * s - 1 and s < 2:
        raise ValueError("m = 2s-1 needs s >= 2: a one-stage rule has no odd-degree conditions")
    if m == 2 * s:
        if zx != 0:
            raise ValueError("m = 2s requires the zeta = 0 rule")
        kind = "even"
        n_left = m - 1
    elif m == 2 * s - 1:
        kind = "odd"
        # the left polynomials R_l are P_l below s; R_l = rho P_(l-s) vanishes
        # on every node for l >= s, so those rows of lip are exactly zero
        n_left = s
    else:
        raise ValueError(f"m must be {2 * s} or {2 * s - 1} for s = {s}")
    # h[q-1][j] = dh <integ_q, x^j>_D for the integrated polynomials G_q or F_q
    h, dh = _integrated_rows(rule, range(1, m), kind == "odd")
    C = _right_coords(rule, kind, h[s:], dh)
    rows = [(p, q) for p in range(1, m - 1) for q in range(p + 1, m)]
    # lip[p-1][k] = <left_p, P_k>_D and rip[p-1][l] = <integ_p, B_(l+1)'>_D,
    # as integers over the common denominators dl and dr
    left = [_legendre_ints(l) for l in range(n_left)]
    hl, dm = _moment_rows(left, rule, s)
    lip, dl = _reduced([[sum(map(mul, a, row)) for a in left[:s]] for row in hl], dm)
    lip += [[0] * s for _ in range(n_left, m - 1)]
    # the coefficient columns D C of the B_l' over one denominator dc, D those of the P_l'
    cols, dc = C
    D = _legendre_columns(s, True)
    DC = [[sum(map(mul, row, col)) for row in D] for col in cols]
    rip, dr = _reduced([[sum(map(mul, a, col)) for col in DC] for a in h], dh * dc)
    # c b^T = (1/4) u (x) w with u = (1, 1, 0, ...) and w = (1, 0, ...): c = (P_0 + P_1)/2 and B_1' = 2
    for (p, q), x in zip(rows, _pair_minors(rows, [sum(r[:2]) for r in lip], [r[0] for r in rip])):
        if 6 * x != (-4 * dl * dr if (p, q) == (1, 2) else 0):
            raise KernelStructureError(f"c b^T violates the ({p}, {q}) condition exactly")
    zero = Fraction(0)
    w_exact = [Fraction(-1, 6) if pq == (1, 2) else zero for pq in rows]
    _log.debug(
        "build_M: s %d, m %d, %s, %d rows, %.3f ms",
        s, m, kind, len(rows), 1e3 * (perf_counter() - start),
    )
    return MOperator(rule, m, kind, rows, w_exact, C, (lip, rip), dl * dr)


def _pair_minors(rows, lu, rw):
    """Each row (p, q), times d, applied to u (x) w: lu_p rw_q - lu_q rw_p for lu = lip u, rw = rip w."""
    return (lu[p - 1] * rw[q - 1] - lu[q - 1] * rw[p - 1] for p, q in rows)


def _reduced(table, d):
    """(table / g, d / g) for the integer rows over d != 0, with g = +-gcd(d, *entries) signed so that d / g > 0."""
    g = gcd(d, *[x for row in table for x in row])
    g = g if d > 0 else -g
    return [[x // g for x in row] for row in table], d // g


# ---------------------------------------------------------------------------
# rank and kernel


class KernelElement:
    """A kernel direction, optionally with rank-one factor coordinates.

    ints = (vector, d) holds the exact operator coordinate vector vec(alpha)
    of the direction as integers over d > 0, and coords forms it as
    Fractions on first access.  factors = ((uz, du), (vz, dv)), or None
    where the direction is not rank one, holds the factor coordinates as
    integers over du, dv > 0: u over P_0..P_{s-1} for the left factor and v
    over P_1'..P_s' for the right one, so the direction is U(c) b^T V(C).
    u, v and v0, the dependent constant-slot coefficient -sum(v), are
    Fractions formed on each access, or None.  structured marks an element
    of the closed-form factor table.
    """

    __slots__ = ("_coords", "_ints", "_factors", "structured")

    def __init__(self, ints, factors=None, structured=False):
        object.__setattr__(self, "_coords", None)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "structured", structured)

    def __setattr__(self, *a):
        raise AttributeError("KernelElement is immutable")

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            ints, den = self._ints
            object.__setattr__(self, "_coords", tuple(Fraction(x, den) for x in ints))
        return self._coords

    def _factor(self, i):
        """Factor i (0: u, 1: v) as a tuple of Fractions, or None."""
        if self._factors is None:
            return None
        ints, d = self._factors[i]
        return tuple(Fraction(x, d) for x in ints)

    @property
    def u(self):
        return self._factor(0)

    @property
    def v(self):
        return self._factor(1)

    @property
    def v0(self):
        return None if self._factors is None else Fraction(-sum(self._factors[1][0]), self._factors[1][1])

    def factor_polys(self):
        """(U, V) with U = sum u_k P_{k-1} and V = sum v_l P_l', or None."""
        return None if self._factors is None else _factor_polys(*self._factors)

    def __repr__(self):
        tag = "structured" if self.structured else "raw"
        return f"KernelElement({tag}, s={isqrt(len(self._ints[0]))})"


class KernelBasis:
    """Basis of ker M: the elements plus the raw independent set's coordinates.

    coords holds the raw null vectors vec(alpha), one per free column of the
    eliminated operator (x_f = 1), formed on access from integer rows over _den.
    """

    __slots__ = ("elements", "_rows", "_den", "structured")

    def __init__(self, elements, rows, den, structured):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "_rows", tuple(tuple(a) for a in rows))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "structured", structured)

    def __setattr__(self, *a):
        raise AttributeError("KernelBasis is immutable")

    def __len__(self):
        return len(self.elements)

    @property
    def coords(self) -> tuple:
        return tuple(tuple(Fraction(x, self._den) for x in row) for row in self._rows)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def __repr__(self):
        tag = "structured" if self.structured else "raw"
        return f"KernelBasis(dim={len(self.elements)}, {tag})"


def _condforv(rule):
    """Factor coordinates for the interior-parameter kernel, from one triangular system.

    With v_1 = 0 and v_s = 1, condition pair (p, s+r), r = 1..s-2, reads
    sum_(l >= s-r) t_l v_l = zeta <P_(s+r-1), P_(s-1)>_D, with coefficients
    t_l = <G_(s+r), P_l'>_D + <P_(s+r-1), P_l>_D (the second term for l < s)
    that are integers over one denominator, from the moment rows of G_(s+r)
    and P_(s+r-1) (_integrated_rows, _moment_rows) and the Legendre
    coefficient columns; the denominator cancels.  Times z_den, the system in
    v_2..v_(s-1) is solved exactly by _solve.  Returns the (u, v) pairs for
    the two elements beyond (1-c) b^T, each factor as (ints, d) in lowest
    terms with d > 0.
    """
    s, zx = rule.s, rule.zeta_exact
    zn, zd = zx.numerator, zx.denominator
    rs = range(1, s - 1)
    hg, dg = _integrated_rows(rule, range(s + 1, 2 * s - 1), False)
    hp, dp = _moment_rows([_legendre_ints(s + r - 1) for r in rs], rule, s)
    # times dg dp: G[r-1][l-1] = <G_(s+r), P_l'>_D for l = 1..s and P[r-1][l] = <P_(s+r-1), P_l>_D for l < s
    dP, Pc = (list(zip(*_legendre_columns(s, derivative))) for derivative in (True, False))
    G = [[dp * sum(map(mul, row, col)) for col in dP] for row in hg]
    P = [[dg * sum(map(mul, row, col)) for col in Pc] for row in hp]
    rows = [[zd * (G[r - 1][l - 1] + P[r - 1][l]) if l >= s - r else 0 for l in range(2, s)] for r in rs]
    solution = _solve(rows, [zn * P[r - 1][s - 1] - zd * G[r - 1][s - 1] for r in rs])
    if solution is None:
        raise KernelStructureError(f"the system for v_2..v_{s - 1} is singular at s={s}, zeta={zx}")
    x, d = solution
    (v,), dv = _reduced([[0, 0, *x, d]], d)  # v_l = v[l] / dv
    # over dv: v2 = (0, v_2, ..., v_s), v0 = -sum(v2) and v3 = (v0, v_2, ..., v_s)
    v2 = [0] + v[2:]
    v0 = -sum(v2)
    if v0 == 0:
        raise KernelStructureError("degenerate normalization: candidate v0 = 0")
    v3 = [v0] + v[2:]
    # u = (e, w_1, ..., w_(s-3), w_(s-2) - zeta) / v0 for w = v2 and v3, over z_den v0
    pairs = []
    for e, w in (([1, 0], v2), ([0, 1], v3)):
        u = [zd * v0 * x for x in e] + [zd * x for x in w[1 : s - 2]] + [zd * w[s - 2] - zn * dv]
        (u,), du = _reduced([u], zd * v0)
        (w,), dw = _reduced([w], dv)
        pairs.append(((u, du), (w, dw)))
    return pairs


def _structural_factor_table(rule, kind):
    """Closed-form (u, v) factor pairs for ker M, case by case, each factor as (ints, d) in lowest terms."""
    s, zx = rule.s, rule.zeta_exact
    unit = lambda k: ([int(i == k) for i in range(s)], 1)
    n1 = ((([1, -1] + [0] * (s - 2))[:s], 1), unit(0))
    if kind == "even":
        return [n1]
    if s == 2:
        return [n1, (unit(0), ([zx.numerator, zx.denominator], zx.denominator)), (unit(1), ([1, -1], 1))]
    if zx == -1:
        tail = ([0] * (s - 2) + [-1, 1], 1)
        return [n1] + [(unit(i), tail) for i in range(s)]
    if zx == 0:
        rest = [0] * (s - 3)
        return [n1, (([1, 0, -1, *rest], 1), unit(1)), (([0, 1, -1, *rest], 1), ([1, -1, 0, *rest], 1))]
    return [n1, *_condforv(rule)]


def _factor_polys(u, v):
    """(U, V) with U = sum u_k P_{k-1} and V = sum v_l P_l' for factors u = (uz, du) and v = (vz, dv), integers over du, dv > 0."""
    return _legendre_sum(*u), _legendre_sum(*v, True)


@lru_cache(maxsize=None)
def _legendre_columns(s, derivative):
    """The integer s x s matrix whose column l holds the coefficients of P_l, or of P_(l+1)'."""
    polys = [legendre(l).derivative() if derivative else legendre(l - 1) for l in range(1, s + 1)]
    return tuple(tuple(p.coeffs[i].numerator if i < len(p.coeffs) else 0 for p in polys) for i in range(s))


def _det(D):
    """The determinant of the small integer matrix D by cofactors along its first row, 1 if D is empty."""
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in D[1:]]) for j, x in enumerate(D[0])) if D else 1


def _right_inverse(C):
    """(T, dt) with T / dt = C^-1, reduced (_reduced) and dt > 0, for C = (cols, dc) of _right_coords; None if singular.

    C is the identity outside the columns J that _right_coords fills, p~ in
    slot s and P_s in slot 2 at zeta = 0.  With D = C[J, J], at most 2 x 2,
    and B = C[~J, J], C^-1 = [[I, -B D^-1], [0, D^-1]].  With C's columns
    integers over dc, Bz = dc B and Dz = dc D, this is
    T = [[det I, -Bz adj], [0, dc adj]] over det for det = det Dz and its
    adjugate adj.
    """
    cols, dc = C
    s = len(cols)
    J = [l for l, col in enumerate(cols) if any(x != dc * (k == l) for k, x in enumerate(col))]
    cols = [cols[l] for l in J]
    Dz = [[col[k] for col in cols] for k in J]
    det = _det(Dz)
    if det == 0:
        return None
    sign = 1 if det > 0 else -1
    # adj[i][j] = (-1)^(i+j) det(Dz without row j and column i)
    minor = lambda i, j: [row[:i] + row[i + 1 :] for k, row in enumerate(Dz) if k != j]
    adj = [[sign * (-1) ** (i + j) * _det(minor(i, j)) for j in range(len(J))] for i in range(len(J))]
    T = [[abs(det) * (k == l) for l in range(s)] for k in range(s)]
    for j, l in enumerate(J):
        for k in range(s):
            T[k][l] = dc * adj[J.index(k)][j] if k in J else -sum(col[k] * a[j] for col, a in zip(cols, adj))
    return _reduced(T, abs(det))


def _structured_basis(M, nullity, marks=None):
    """The closed-form factor table as a KernelBasis of ker M, or None if it is no exact basis.

    V = sum v_l P_l' is rewritten over the right family's derivatives B_l'
    as exact coordinates w = T v, with T = C^-1 for the family's Legendre
    coordinates C (B_l' = sum_k C_kl P_k', _right_inverse), so vec(u (x) w)
    are the pair's operator coordinates; the table is a basis of ker M when
    each of them is annihilated exactly and together they have rank =
    nullity.  The basis' coords are their _null_form, and each element
    keeps its integer vector over its denominator.  marks, a list, receives
    perf_counter() after the table, after the annihilation check (with T)
    and after the _null_form, as far as the call gets.
    """
    marks = [] if marks is None else marks
    rule = M.rule
    s = rule.s
    table = _structural_factor_table(rule, M.basis_kind)
    marks.append(perf_counter())
    if len(table) != nullity or (inverse := _right_inverse(M._C)) is None:
        return None
    T, dt = inverse
    lip, rip = M.ip_tables
    vecs = []
    for (uz, du), (vz, dv) in table:
        # in integers: u = uz / du and w = wz / (dt dv); row (p, q) applied to
        # u (x) w is a multiple of lu_p rw_q - lu_q rw_p with lu = lip uz, rw = rip wz
        wz = [sum(map(mul, row, vz)) for row in T]
        lu = [sum(map(mul, row, uz)) for row in lip]
        rw = [sum(map(mul, row, wz)) for row in rip]
        if any(_pair_minors(M.rows, lu, rw)):
            return None
        vecs.append(([uk * wl for uk in uz for wl in wz], du * dt * dv))
    marks.append(perf_counter())
    rows, den = _null_form([vec for vec, _ in vecs], s * s)
    marks.append(perf_counter())
    if len(rows) != nullity:
        return None
    elements = [KernelElement(vec, pair, True) for pair, vec in zip(table, vecs)]
    return KernelBasis(elements, rows, den, True)


def _exact_factors(M, alpha):
    """Exact (u, v) with sum alpha_{k,l} P_{k-1}(c) b^T B_l'(C) = U(c) b^T V(C), or None.

    alpha = (ints, d) holds vec(alpha) as integers over d > 0.  None means
    alpha is not rank one.  Each factor comes as (ints, d) in lowest terms
    with d > 0.

    With a the integer s x s matrix of ints, alpha is u (x) w exactly when
    every 2x2 minor through a nonzero pivot a_pq vanishes:
    a_kl a_pq = a_kq a_pl.  u = a_q / d is read off column q and
    w = a_p / a_pq off row p.  w is over the right family's derivatives
    B_l', so V = sum w_l B_l' has the coordinates v = C w over P_1'..P_s':
    the integers cols a_p over dc a_pq for C = (cols, dc).
    """
    s = M.rule.s
    ints, d = alpha
    a = [ints[k * s : (k + 1) * s] for k in range(s)]
    piv = next(((k, l) for k in range(s) for l in range(s) if a[k][l]), None)
    if piv is None:
        return None
    k0, l0 = piv
    row, p = a[k0], a[k0][l0]
    if any(x * p != ak[l0] * y for ak in a for x, y in zip(ak, row)):
        return None
    cols, dc = M._C
    (u,), du = _reduced([[ak[l0] for ak in a]], d)
    (v,), dv = _reduced([[sum(map(mul, c, row)) for c in zip(*cols)]], dc * p)
    return (u, du), (v, dv)


def _kernel_ranks(M):
    """(k, r) for the operator's tables: dim ker M = r(r+1)/2 + s(k-r), see rank_kernel."""
    s = M.rule.s
    lip, rip = M.ip_tables
    d = lip[0][0]
    if not d or any(lip[i][j] * (2 * j + 1) != (d if i == j else 0) for i in range(s) for j in range(s)):
        raise KernelStructureError("the first s rows of the left table are not diag(1/(2k+1))")
    # R1 = d L_P^-1 R_P and R2 = d (R_rest - L_rest L_P^-1 R_P), in integers
    R1 = [[(2 * k + 1) * x for x in row] for k, row in enumerate(rip[:s])]
    R2 = [[d * x - sum(map(mul, a, c)) for x, c in zip(b, zip(*R1))] for a, b in zip(lip[s:], rip[s:])]
    _, K, _ = _eliminate(_primitive(R2), s)
    KR1 = [[sum(map(mul, kz, row)) // gcd(*kz) for row in R1] for kz in K]
    return len(K), len(_eliminate(KR1, s)[0])


def rank_kernel(M: MOperator):
    """Exact rank and kernel basis of the double-bush operator.

    Row (p, q) applied to alpha is Y_pq - Y_qp for Y = L alpha R^T, L = lip
    and R = rip, so ker M = {alpha : Y symmetric}.  The first s rows L_P of
    L are diag(1/(2k+1)) (checked: every rule integrates degree 2s-2
    exactly).  The congruence by T with T L = [I; 0] keeps symmetry and
    gives R1 = L_P^-1 R_P and R2 = R_rest - L_rest R1: ker M = {alpha :
    alpha R2^T = 0 and alpha R1^T symmetric}.  With k = dim ker R2, K a
    basis of it and r = rank(K R1^T), the nullity is r(r+1)/2 + s(k-r),
    read off no operator row.  The closed-form factor table is the basis
    when its elements are annihilated and as many as the nullity.
    Otherwise the operator's rows are eliminated over Q; their raw null
    vectors, with exact factors where they are rank one, are unstructured.
    Logs one DEBUG record with k, r and the ms of _kernel_ranks, the factor
    table, the annihilation check, the _null_form (0 for a part not reached)
    and the whole call.
    """
    s = M.rule.s
    marks = [perf_counter()]
    k, r = _kernel_ranks(M)
    marks.append(perf_counter())
    nullity = r * (r + 1) // 2 + s * (k - r)
    basis = _structured_basis(M, nullity, marks)
    marks += marks[-1:] * (5 - len(marks))
    if basis is None:
        _, null, d = _eliminate([row for row, _ in M.scaled_rows], s * s)
        elements = [KernelElement((row, d), _exact_factors(M, (row, d))) for row in null]
        basis = KernelBasis(elements, null, d, False)
    _log.debug(
        "rank_kernel: s %d, m %d, rank %d, nullity %d, k %d, r %d, structured %s, "
        "ranks %.3f ms, table %.3f ms, check %.3f ms, null form %.3f ms, %.3f ms",
        s, M.m, s * s - nullity, len(basis), k, r, basis.structured,
        *(1e3 * (b - a) for a, b in zip(marks, marks[1:])), 1e3 * (perf_counter() - marks[0]),
    )
    return s * s - nullity, basis


def expected_rank(s: int, m: int, zeta):
    """Published rank of the operator, or None when (s, m) is outside the table."""
    if m == 2 * s:
        return s * s - 1
    if m == 2 * s - 1:
        if zeta == -1:
            return s * s - s - 1
        return s * s - 3
    return None


def _rowsum_element(M, basis):
    """Exact coordinates vec(alpha) = ints / d of the zero-row-sum direction of ker M as (ints, d), d > 0, or None.

    The direction is X alpha Yb^T with X_ik = P_{k-1}(c_i) and
    Yb_jl = b_j B_l'(c_j).  Its row sums are X (alpha r) with
    r_l = B_l(1) - B_l(0), since the rule integrates the degree < s
    derivatives B_l' exactly, and X is invertible.  As P_k(1) = 1 and
    P_k(0) = (-1)^k, r_l = 2 sum_{k odd} C_kl over the family's Legendre
    coordinates C.  The intersection is therefore the exact null space of
    the s x dim(ker) system alpha_t r over the basis' integer rows, and its
    element has alpha r = 0 over Q.
    A higher-dimensional intersection raises KernelStructureError.
    """
    s = M.rule.s
    r = _primitive([[2 * sum(col[::2]) for col in M._C[0]]])[0]
    S = [[sum(map(mul, a[k * s : (k + 1) * s], r)) for a in basis._rows] for k in range(s)]
    _, null, d = _eliminate(S, len(basis._rows))
    if not null:
        return None
    if len(null) != 1:
        raise KernelStructureError(
            f"row-sum kernel intersection has dimension {len(null)}, expected 1"
        )
    return [sum(map(mul, null[0], col)) for col in zip(*basis._rows)], d * basis._den


def kernel_rowsum(M: MOperator):
    """The exact zero-row-sum kernel direction as a KernelElement, or None.

    coords come from _rowsum_element and u, v are its exact rank-one factors
    (None if it is not rank one).  Returns None in the even case, where the
    intersection is trivial and uniqueness already follows from the linear
    stage.
    """
    alpha = _rowsum_element(M, rank_kernel(M)[1])
    return None if alpha is None else KernelElement(alpha, _exact_factors(M, alpha))


# ---------------------------------------------------------------------------
# the uniqueness sweep


_DEFAULT_BETAS = (Fraction(1, 1000), Fraction(1, 100), Fraction(1, 10), Fraction(1))


def _proportional(f, g):
    """Whether factor pairs f and g give the same u (x) v up to one nonzero rational scalar.

    Each factor is (ints, d), and its denominator is one more scalar.  With
    g's factors nonzero, the test holds exactly when each factor of f is a
    nonzero multiple of g's: the 2x2 minors of the integers through g's
    first nonzero entry vanish, s of them per factor.
    """

    def parallel(x, y):
        i = next(i for i, b in enumerate(y) if b)
        return x[i] != 0 and all(a * y[i] == b * x[i] for a, b in zip(x, y))

    return all(parallel(x, y) for (x, _), (y, _) in zip(f, g))


def bush_residuals(rule: QuadRule, m: int, A=None) -> list:
    """[(id, residual)] of the bush identities with every degree below m.

    The rows are double_bush(p,q) for 1 <= p < q < m, triple_bush(G_p,G_q,1)
    for 1 <= p <= q < m and asym_bush(q) for 1 <= q < m, against the rule's
    nodes.  With A None the tableau is the rule's own c b^T, in the exact
    representation: every residual is an exact Fraction over the rule's
    first m moments, read once (quadrature._moment_form; double_bush(p,q)
    reduces to (p - q) mu_p mu_q minus its right-hand side).  A given A, an
    s x s matrix, is evaluated exactly at the rule's rounded nodes, as by
    the public residual functions.
    """
    if A is not None:
        return _on_nodes(_bush_rows, A, rule, m)
    # every inner product of a row has degree below m: <1, x^q>_D, <G_p', x>_D, <x, (Ac)^(q-1)>_D
    return [(name, Fraction(r.get((0, 0), 0), r.d)) for name, r in _bush_rows(*_moment_form(rule, m), m)]


def _bush_rows(A, ip, m):
    """The rows of bush_residuals for the node-vector representation (A, ip)."""
    pairs = [(p, q) for p in range(1, m) for q in range(p, m)]
    x, G = _power, g_poly  # x^p and G_p of the row ids
    rows = [(f"double_bush({p},{q})", _double_bush(A, ip, x(p), x(q))) for p, q in pairs if p < q]
    rows += [(f"triple_bush(G_{p},G_{q},1)", _triple_bush(A, ip, G(p), G(q), _ONE)) for p, q in pairs]
    return rows + [(f"asym_bush({q})", _asym_bush(A, ip, q)) for q in range(1, m)]


def _ray_residual(rule, cond, degree, U, Vd):
    """The residual cond along A = c b^T + beta U(c) b^T Vd(C) as an exact polynomial in beta.

    cond is (body, *args) for a bush body, run once on node vectors that are
    polynomials in x and beta (quadrature._moment_form): A g = x <1, g>_D +
    beta U <Vd, g>_D over the rule's integer moments.  The sweep's conditions
    need mu_k for k <= 2s: <Ac, (Ac)^(s-1)>_D at zeta = 0, where Ac has
    degree 2.  Degree > `degree` raises KernelStructureError.
    """
    body, *args = cond
    r = body(*_moment_form(rule, 2 * rule.s + 1, (U, Vd)), *args)
    poly = UniPoly([Fraction(r.get((0, j), 0), r.d) for j in range(1 + max((j for _, j in r), default=-1))])
    if poly.degree > degree:
        raise KernelStructureError(f"the ray residual has degree {poly.degree} in beta, above {degree}")
    return poly


def _log_sweep(s, m, marks, k=None, degree=None):
    """The sweep's DEBUG record: ms between the marks (build_M, rank_kernel, row-sum, residual), k, degree."""
    _log.debug(
        "uniqueness_sweep: s %d, m %d, build_M %.3f ms, rank_kernel %.3f ms, row-sum %.3f ms, "
        "residual %.3f ms, k %s, degree %s",
        s, m, *(1e3 * (b - a) for a, b in zip(marks, marks[1:])), k, degree,
    )


def uniqueness_sweep(rule: QuadRule, m: int, betas=None):
    """Exact uniqueness certificate: the nonlinear residual along the row-sum kernel ray.

    Perturbs A = c b^T by beta N for the zero-row-sum kernel direction
    N = U(c) b^T V(C) (in the closed-form normalization where one exists,
    after checking the computed direction is a rational multiple of it) and
    computes the discriminating nonlinear residual as an exact polynomial in
    beta, in one pass.  The certificate holds when it is kappa beta^k with
    the published k and kappa ("match" in the report); "residuals" are its
    values at the requested betas; a beta or residual that overflows a
    float, or is nonzero and rounds to a float zero, raises ValueError.
    Even-degree rules skip it (a trivial row-sum intersection).  Logs one DEBUG record.
    """
    s = rule.s
    zx = rule.zeta_exact
    if betas is None:
        betas = _DEFAULT_BETAS
    try:
        betas = [_exact_fraction(b) for b in betas]
    except ValueError:
        raise ValueError("betas must be finite") from None
    if any(b == 0 for b in betas):
        raise ValueError("betas must be nonzero")
    marks = [perf_counter()]
    M = build_M(rule, m)
    marks.append(perf_counter())
    rank, basis = rank_kernel(M)
    marks.append(perf_counter())
    report = {
        "s": s,
        "zeta": float(rule.zeta_exact),
        "m": m,
        "rank": rank,
        "expected_rank": expected_rank(s, m, zx),
        "kernel_dim": len(basis),
    }
    alpha = _rowsum_element(M, basis)
    if M.basis_kind == "even":
        if alpha is not None:
            raise KernelStructureError("even case must have a trivial row-sum intersection")
        report["residual_fit"] = None
        report["note"] = (
            "row-sum constraint eliminates the kernel; uniqueness holds at the linear stage"
        )
        _log_sweep(s, m, marks + [perf_counter()] * 2)
        return report
    if alpha is None:
        raise KernelStructureError("odd case must have a row-sum kernel direction")
    factors = _exact_factors(M, alpha)
    if factors is None:
        raise KernelStructureError("row-sum kernel element is not rank one")
    G2 = g_poly(2)
    if s == 2:
        closed = ([zx.denominator, zx.numerator], zx.denominator), ([0, 1], 6)  # ((zeta-1) - 2 zeta c) b^T (I - 2C)
        if zx != 0:
            cond = _triple_bush, G2, G2, _ONE
            k, expected, name = 2, zx**3 / 81, "triple-bush P=Q=G_2, R=1"
        else:
            cond = _asym_bush, 2
            k, expected, name = 2, Fraction(-1, 36), "asym-bush q=2"
    elif zx == 0:
        closed = ([1, 0, -1] + [0] * (s - 3), 1), ([0, 1] + [0] * (s - 2), 1)
        cond = _asym_bush, s
        k, expected = s, Fraction((-1) ** (s - 1) * 6**s, gamma_lead(s) ** 2)
        name = f"asym-bush q={s}"
    elif zx == -1:
        closed = ([2, -2] + [0] * (s - 2), 1), ([(-1) ** s] + [0] * (s - 3) + [-1, 1], 1)  # s >= 3
        P = _MONOMIAL_X * G2
        cond = _triple_bush, P, P, _ONE
        k, expected, name = 2, Fraction(-4, 9), "triple-bush P=Q=x G_2, R=1"
    else:
        closed = None
        (u, du), (v, dv) = factors
        p = 1 if abs(u[0]) >= abs(u[1]) else 2
        if u[p - 1] == 0:
            raise KernelStructureError("both leading factor coefficients vanish")
        Gp = g_poly(p)
        cond = _triple_bush, Gp, Gp, _MONOMIAL_X
        k, expected = 2, (Fraction(u[p - 1] * v[s - 1], du * dv) * (1 + zx)) ** 2 / (2 * p - 1) ** 2
        name = f"triple-bush P=Q=G_{p}, R=x"
    if closed is not None:
        if not _proportional(factors, closed):
            raise KernelStructureError("row-sum kernel element is no multiple of the closed form")
        factors = closed
    marks.append(perf_counter())
    poly = _ray_residual(rule, cond, k, *_factor_polys(*factors))
    _log_sweep(s, m, marks + [perf_counter()], k, poly.degree)
    if poly.is_zero():
        raise KernelStructureError("the residual vanishes identically along the kernel ray")
    low = next(i for i, x in enumerate(poly.coeffs) if x)
    kappa = poly.coeffs[low]
    report["condition"] = name
    report["betas"], report["residuals"] = [], []
    for b in betas:
        try:
            fb, fr = float(b), float(r := poly(b))
        except OverflowError:
            fb = None
        # a nonzero beta, or a nonzero residual, must not print as a float zero either
        if fb is None or fb == 0 or (fr == 0 and r != 0):
            way = "overflows" if fb is None else "underflows"
            raise ValueError(f"beta = {_decimal(b, 8)}: it or its residual {way} a float")
        report["betas"].append(fb)
        report["residuals"].append(fr)
    report["residual_fit"] = {
        "slope": low,
        "coeff": float(kappa),
        "expected_coeff": float(expected),
        "expected_slope": k,
        "polynomial": [str(x) for x in poly.coeffs],
        "kappa": str(kappa),
        "expected_kappa": str(expected),
        "match": list(poly.coeffs) == [0] * k + [expected],
    }
    return report
