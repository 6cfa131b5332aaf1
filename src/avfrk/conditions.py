"""Energy-preservation conditions on the Butcher matrix of a collocation-type rule.

The linear (double-bush) conditions form a system M(A) = w on tableau
coefficients; its kernel measures the freedom left after the linear stage.
The nonlinear (triple-bush and asymmetric-bush) residuals are then evaluated
along A = c b^T + beta N for kernel directions N, and their growth in beta
shows that only beta = 0, i.e. the averaged-vector-field matrix c b^T,
preserves energy for the full polynomial degree.

All discrete inner products that enter the operator are rational numbers and
are computed exactly; floating work happens at the rule's precision.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .quadrature import (
    QuadRule,
    UniPoly,
    discrete_ip_exact,
    f_poly,
    g_poly,
    gamma_lead,
    legendre,
    r_poly,
)

__all__ = [
    "RankAmbiguityError",
    "KernelStructureError",
    "double_bush_residual",
    "double_bush_poly_residual",
    "triple_bush_residual",
    "asym_bush_residual",
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

_ONE = UniPoly([1])
_MONOMIAL_X = UniPoly([0, 1])


class RankAmbiguityError(RuntimeError):
    """A pivot falls inside the ambiguity band; raise precision and retry."""


class KernelStructureError(RuntimeError):
    """The kernel lacks the expected dimension or factor structure."""


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _exact_fraction(x):
    """Lossless conversion to Fraction; mpf is binary man * 2^exp."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    f = Fraction(-man if sign else man)
    return f * Fraction(2) ** exp if exp >= 0 else f / Fraction(2) ** (-exp)


def _max_abs(M):
    return max(abs(M[i, j]) for i in range(M.rows) for j in range(M.cols))


def _as_matrix(A, s):
    if isinstance(A, mp.matrix):
        if (A.rows, A.cols) != (s, s):
            raise ValueError(f"expected a {s}x{s} matrix, got {A.rows}x{A.cols}")
        return A
    rows = list(A)
    if len(rows) != s or any(len(list(r)) != s for r in rows):
        raise ValueError(f"expected a {s}x{s} matrix")
    M = mp.matrix(s, s)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            M[i, j] = _to_mpf(x)
    return M


def _avf_matrix(rule):
    s = rule.s
    with mp.workdps(rule.precision_digits + 15):
        A = mp.matrix(s, s)
        for i in range(s):
            for j in range(s):
                A[i, j] = rule.c[i] * rule.b[j]
        return A


def _require_zero_at_origin(P, name):
    if not P.is_zero() and P.coeffs[0] != 0:
        raise ValueError(f"{name}(0) must vanish")


# ---------------------------------------------------------------------------
# bushy-tree residuals


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
    s = rule.s
    with mp.workdps(rule.precision_digits + 15):
        A = _as_matrix(A, s)
        b, c = rule.b, rule.c
        Acq = A * mp.matrix([ci**q for ci in c])
        Acp = A * mp.matrix([ci**p for ci in c])
        t1 = mp.fsum(b[i] * c[i] ** (p - 1) * Acq[i] for i in range(s))
        t2 = mp.fsum(b[i] * c[i] ** (q - 1) * Acp[i] for i in range(s))
        rhs = mp.mpf(1) / (q + 1) - mp.mpf(1) / (p + 1)
        return p * t1 - q * t2 - rhs


def double_bush_poly_residual(A, rule, P: UniPoly, Q: UniPoly):
    """b^T P'(C) A Q(c) - b^T Q'(C) A P(c) - (P(1) int Q - Q(1) int P).

    Bilinear and antisymmetric in (P, Q); P(0) = Q(0) = 0 required.  The
    vanishing guarantee covers degrees up to order-1.
    """
    _require_zero_at_origin(P, "P")
    _require_zero_at_origin(Q, "Q")
    s = rule.s
    with mp.workdps(rule.precision_digits + 15):
        A = _as_matrix(A, s)
        b, c = rule.b, rule.c
        Pd, Qd = P.derivative(), Q.derivative()
        AQ = A * mp.matrix([Q(ci) for ci in c])
        AP = A * mp.matrix([P(ci) for ci in c])
        t1 = mp.fsum(b[i] * Pd(c[i]) * AQ[i] for i in range(s))
        t2 = mp.fsum(b[i] * Qd(c[i]) * AP[i] for i in range(s))
        rhs = P(Fraction(1)) * Q.integral()(Fraction(1)) - Q(Fraction(1)) * P.integral()(Fraction(1))
        return t1 - t2 - _to_mpf(rhs)


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
    s = rule.s
    with mp.workdps(rule.precision_digits + 15):
        A = _as_matrix(A, s)
        b, c = rule.b, rule.c
        Pd, Qd, Rd = P.derivative(), Q.derivative(), R.derivative()
        AQ = A * mp.matrix([Q(ci) for ci in c])
        AP = A * mp.matrix([P(ci) for ci in c])
        ARAQ = A * mp.matrix([R(c[i]) * AQ[i] for i in range(s)])
        ARAP = A * mp.matrix([R(c[i]) * AP[i] for i in range(s)])
        t1 = mp.fsum(b[i] * Pd(c[i]) * ARAQ[i] for i in range(s))
        t2 = mp.fsum(b[i] * Qd(c[i]) * ARAP[i] for i in range(s))
        t3 = _to_mpf(P(Fraction(1))) * mp.fsum(b[i] * R(c[i]) * AQ[i] for i in range(s))
        t4 = _to_mpf(Q(Fraction(1))) * mp.fsum(b[i] * R(c[i]) * AP[i] for i in range(s))
        t5 = mp.fsum(b[i] * Rd(c[i]) * AQ[i] * AP[i] for i in range(s))
        t6 = _to_mpf(R(Fraction(1)) * P.integral()(Fraction(1)) * Q.integral()(Fraction(1)))
        return t1 + t2 - t3 - t4 - t5 + t6


def asym_bush_residual(A, rule, q: int):
    """b^T (Ac)^q - q b^T A C (Ac)^{q-1} + q b^T C (Ac)^{q-1} - 2^{-q}.

    Degree-q-in-A residual of the one-long-leg cluster; vanishes for
    q <= order-1.  Vector powers are componentwise.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    s = rule.s
    with mp.workdps(rule.precision_digits + 15):
        A = _as_matrix(A, s)
        b, c = rule.b, rule.c
        Ac = A * mp.matrix(list(c))
        wq1 = [Ac[i] ** (q - 1) for i in range(s)]
        inner = A * mp.matrix([c[i] * wq1[i] for i in range(s)])
        t1 = mp.fsum(b[i] * Ac[i] * wq1[i] for i in range(s))
        t2 = mp.fsum(b[i] * inner[i] for i in range(s))
        t3 = mp.fsum(b[i] * c[i] * wq1[i] for i in range(s))
        return t1 - q * t2 + q * t3 - mp.mpf(2) ** (-q)


# ---------------------------------------------------------------------------
# the double-bush operator in the Legendre tableau basis


def _solve_fraction(rows, rhs):
    """Exact Gaussian elimination; returns x with rows @ x = rhs or None."""
    n = len(rows)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def build_p_tilde(rule: QuadRule) -> UniPoly:
    """Degree-s substitute for the final right-basis slot.

    Solves for sum v_l P_l, v_1 = 1, whose derivative is discretely
    orthogonal to F_{s+1}..F_{2s-2} and integrates to zero against G_1;
    coefficients come out as exact rationals.  For the left-endpoint rule
    (zeta = -1) the full property set is unattainable and P_s - P_{s-1}
    is returned instead.
    """
    s, zx = rule.s, rule.zeta_exact
    if s < 2:
        raise ValueError("need s >= 2")
    if zx == -1:
        return legendre(s) - legendre(s - 1)
    gamma = [[Fraction(0)] * s for _ in range(s - 1)]
    for i in range(1, s - 1):
        Fq = f_poly(s + i, s, zx)
        for j in range(1, s + 1):
            gamma[i - 1][j - 1] = discrete_ip_exact(legendre(j).derivative(), Fq, rule)
    for j in range(s):
        gamma[s - 2][j] = Fraction(1)
    vbar = _solve_fraction([row[1:] for row in gamma], [-row[0] for row in gamma])
    if vbar is None:
        raise KernelStructureError(
            f"reduced basis system is singular at s={s}, zeta={zx}; "
            f"matrix rows {gamma}"
        )
    v = [Fraction(1)] + vbar
    pt = UniPoly([0])
    for l, vl in enumerate(v, start=1):
        pt = pt + vl * legendre(l)
    ptd = pt.derivative()
    for r in range(1, s - 1):
        ip = discrete_ip_exact(ptd, f_poly(s + r, s, zx), rule)
        if ip != 0:
            raise KernelStructureError(f"orthogonality against F_{s + r} failed: {ip}")
    if sum(v) != 0:
        raise KernelStructureError("coefficients do not sum to zero")
    return pt


def _odd_right_family(rule):
    """Right-basis polynomials for m = 2s-1, slot l holding degree-l members.

    The final slot takes the substituted polynomial; at zeta = 0 that
    polynomial has degree 2, so slot 2 is reassigned P_s to keep the family
    spanning (for s = 2 the plain pair already spans).
    """
    s = rule.s
    if rule.zeta_exact == 0:
        if s == 2:
            return [legendre(1), legendre(2)]
        fam = [legendre(l) for l in range(1, s)]
        fam[1] = legendre(s)
        fam.append(build_p_tilde(rule))
        return fam
    return [legendre(l) for l in range(1, s)] + [build_p_tilde(rule)]


class MOperator:
    """The double-bush conditions as a linear system on tableau coordinates.

    Coordinates alpha_{k,l} expand A = sum alpha_{k,l} P_{k-1}(c) b^T B_l'(C)
    over the right family B_l; rows are pairs (p, q) with 1 <= p < q <= m-1,
    columns follow (k-1)*s + (l-1).  matrix @ vec(alpha) = w characterizes
    energy preservation at this level; w is kept separate so the matrix
    itself is the homogeneous part.  Exact rational copies of both sit in
    matrix_exact / w_exact.
    """

    __slots__ = (
        "rule",
        "m",
        "basis_kind",
        "rows",
        "matrix",
        "w",
        "matrix_exact",
        "w_exact",
        "right_family",
        "_X",
        "_Yb",
    )

    def __init__(self, rule, m, basis_kind, rows, matrix, w, matrix_exact, w_exact, right_family, X, Yb):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "basis_kind", basis_kind)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "matrix_exact", tuple(tuple(r) for r in matrix_exact))
        object.__setattr__(self, "w_exact", tuple(w_exact))
        object.__setattr__(self, "right_family", tuple(right_family))
        object.__setattr__(self, "_X", X)
        object.__setattr__(self, "_Yb", Yb)

    def __setattr__(self, *a):
        raise AttributeError("MOperator is immutable")

    def __repr__(self):
        return (
            f"MOperator(s={self.rule.s}, m={self.m}, {self.basis_kind}, "
            f"{len(self.rows)}x{self.rule.s ** 2})"
        )

    @property
    def n_conditions(self) -> int:
        return len(self.rows)

    @property
    def n_coeffs(self) -> int:
        return self.rule.s**2

    def basis_matrix(self, k: int, l: int):
        """P_{k-1}(c) b^T B_l'(C) for 1-based slot indices."""
        rule = self.rule
        s = rule.s
        if not (1 <= k <= s and 1 <= l <= s):
            raise ValueError("basis indices out of range")
        U = legendre(k - 1)
        Vd = self.right_family[l - 1].derivative()
        with mp.workdps(rule.precision_digits + 15):
            N = mp.matrix(s, s)
            for i in range(s):
                ui = U(rule.c[i])
                for j in range(s):
                    N[i, j] = ui * rule.b[j] * Vd(rule.c[j])
            return N

    def coords_vec(self, alpha):
        s = self.rule.s
        if isinstance(alpha, mp.matrix) and alpha.cols == 1:
            return alpha
        vec = mp.matrix(s * s, 1)
        for k in range(s):
            for l in range(s):
                vec[k * s + l] = _to_mpf(alpha[k, l])
        return vec

    def coords_of(self, A):
        """Coefficient matrix alpha with A = sum alpha_{k,l} basis_matrix(k, l)."""
        s = self.rule.s
        with mp.workdps(self.rule.precision_digits + 15):
            A = _as_matrix(A, s)
            return (self._X**-1) * A * (self._Yb.T) ** -1

    def coeffs_to_matrix(self, alpha):
        with mp.workdps(self.rule.precision_digits + 15):
            return self._X * alpha * self._Yb.T

    def avf_coords(self):
        """Coordinates of c b^T: 1/4 in the (1,1) and (2,1) slots."""
        s = self.rule.s
        alpha = mp.matrix(s, s)
        alpha[0, 0] = mp.mpf(1) / 4
        alpha[1, 0] = mp.mpf(1) / 4
        return alpha

    def apply(self, alpha):
        """Homogeneous image matrix @ vec(alpha)."""
        with mp.workdps(self.rule.precision_digits + 15):
            return self.matrix * self.coords_vec(alpha)

    def residual_vector(self, A):
        """matrix @ coords(A) - w; zero exactly when A passes every condition."""
        with mp.workdps(self.rule.precision_digits + 15):
            return self.apply(self.coords_of(A)) - self.w


def build_M(rule: QuadRule, m: int) -> MOperator:
    """Assemble the double-bush operator for Hamiltonian degree bound m.

    m = 2s needs the zeta = 0 rule (order 2s); m = 2s-1 admits any rule in
    the family and uses the transformed conditions with the R/F polynomial
    pairs plus the substituted right family.
    """
    s = rule.s
    zx = rule.zeta_exact
    if m == 2 * s:
        if zx != 0:
            raise ValueError("m = 2s requires the zeta = 0 rule")
        kind = "even"
        left = [legendre(p - 1) for p in range(1, m)]
        integ = [g_poly(q) for q in range(1, m)]
        fam = [legendre(l) for l in range(1, s + 1)]
    elif m == 2 * s - 1:
        kind = "odd"
        left = [r_poly(p - 1, s, zx) for p in range(1, m)]
        integ = [f_poly(q, s, zx) for q in range(1, m)]
        fam = _odd_right_family(rule)
    else:
        raise ValueError(f"m must be {2 * s} or {2 * s - 1} for s = {s}")
    rows = [(p, q) for p in range(1, m - 1) for q in range(p + 1, m)]
    lip = {}
    rip = {}
    for p in range(1, m):
        for k in range(1, s + 1):
            lip[p, k] = discrete_ip_exact(left[p - 1], legendre(k - 1), rule)
        for l in range(1, s + 1):
            rip[p, l] = discrete_ip_exact(fam[l - 1].derivative(), integ[p - 1], rule)
    matrix_exact = []
    w_exact = []
    one = Fraction(1)
    for p, q in rows:
        matrix_exact.append(
            [
                lip[p, k] * rip[q, l] - lip[q, k] * rip[p, l]
                for k in range(1, s + 1)
                for l in range(1, s + 1)
            ]
        )
        Pp, Qq = integ[p - 1], integ[q - 1]
        w_exact.append(
            Pp(one) * Qq.integral()(one) - Qq(one) * Pp.integral()(one)
        )
    with mp.workdps(rule.precision_digits + 15):
        matrix = mp.matrix(len(rows), s * s)
        for i, row in enumerate(matrix_exact):
            for j, x in enumerate(row):
                matrix[i, j] = _to_mpf(x)
        w = mp.matrix([_to_mpf(x) for x in w_exact])
        X = mp.matrix(s, s)
        Yb = mp.matrix(s, s)
        for i in range(s):
            for k in range(s):
                X[i, k] = legendre(k)(rule.c[i])
            for l in range(s):
                Yb[i, l] = rule.b[i] * fam[l].derivative()(rule.c[i])
        op = MOperator(rule, m, kind, rows, matrix, w, matrix_exact, w_exact, fam, X, Yb)
        defect = _max_abs(op.residual_vector(_avf_matrix(rule)))
        if defect > mp.mpf(10) ** (-rule.precision_digits + 10):
            raise KernelStructureError(
                f"known solution violates the conditions by {mp.nstr(defect, 5)}"
            )
    return op


# ---------------------------------------------------------------------------
# rank and kernel


def _cpqr(A):
    """Householder triangularization with column pivoting.

    Returns (Qfull, R, perm, pivots) with A[:, perm] = Qfull @ R; pivots are
    the trailing column norms at selection time, the rank-revealing scale.
    """
    n, k = A.rows, A.cols
    R = A.copy()
    Qf = mp.eye(n)
    perm = list(range(k))
    pivots = []
    for t in range(min(n, k)):
        best, bidx = mp.mpf(-1), t
        for j in range(t, k):
            nrm = mp.fsum(R[i, j] ** 2 for i in range(t, n))
            if nrm > best:
                best, bidx = nrm, j
        if bidx != t:
            for i in range(n):
                R[i, t], R[i, bidx] = R[i, bidx], R[i, t]
            perm[t], perm[bidx] = perm[bidx], perm[t]
        normx = mp.sqrt(mp.fsum(R[i, t] ** 2 for i in range(t, n)))
        pivots.append(normx)
        if normx == 0:
            continue
        v = [R[i, t] for i in range(t, n)]
        v[0] += normx if v[0] >= 0 else -normx
        vnorm2 = mp.fsum(vi**2 for vi in v)
        if vnorm2 == 0:
            continue
        for j in range(t, k):
            dot = mp.fsum(v[i] * R[t + i, j] for i in range(len(v)))
            f = 2 * dot / vnorm2
            for i in range(len(v)):
                R[t + i, j] -= f * v[i]
        for row in range(n):
            dot = mp.fsum(Qf[row, t + i] * v[i] for i in range(len(v)))
            f = 2 * dot / vnorm2
            for i in range(len(v)):
                Qf[row, t + i] -= f * v[i]
    return Qf, R, perm, pivots


def _numerical_rank(pivots, tol):
    """(rank, ambiguous) from pivot ratios against the [tol/100, tol*100] band."""
    pmax = max(pivots) if pivots else mp.mpf(0)
    if pmax == 0:
        return 0, False
    rank = 0
    ambiguous = False
    for p in pivots:
        ratio = p / pmax
        if tol / 100 <= ratio <= tol * 100:
            ambiguous = True
        if ratio > tol:
            rank += 1
    return rank, ambiguous


class KernelElement:
    """A kernel direction, optionally with rank-one factor coordinates.

    u holds coefficients over P_0..P_{s-1} for the left factor and v over
    P_1'..P_s' for the right one, so the matrix is U(c) b^T V(C); v0 is the
    dependent constant-slot coefficient -sum(v).
    """

    __slots__ = ("matrix", "u", "v", "structured")

    def __init__(self, matrix, u=None, v=None, structured=False):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "u", None if u is None else tuple(u))
        object.__setattr__(self, "v", None if v is None else tuple(v))
        object.__setattr__(self, "structured", structured)

    def __setattr__(self, *a):
        raise AttributeError("KernelElement is immutable")

    @property
    def v0(self):
        if self.v is None:
            return None
        return -sum(self.v)

    def factor_polys(self):
        """(U, V) with U = sum u_k P_{k-1} and V = sum v_l P_l', or None."""
        if self.u is None or self.v is None:
            return None
        U = UniPoly([0])
        for k, uk in enumerate(self.u):
            U = U + _exact_fraction(uk) * legendre(k)
        V = UniPoly([0])
        for l, vl in enumerate(self.v, start=1):
            V = V + _exact_fraction(vl) * legendre(l).derivative()
        return U, V

    def __repr__(self):
        tag = "structured" if self.structured else "raw"
        return f"KernelElement({tag}, {self.matrix.rows}x{self.matrix.cols})"


class KernelBasis:
    """Basis of ker M: element matrices plus the raw independent set."""

    __slots__ = ("elements", "raw", "structured")

    def __init__(self, elements, raw, structured):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "raw", tuple(raw))
        object.__setattr__(self, "structured", structured)

    def __setattr__(self, *a):
        raise AttributeError("KernelBasis is immutable")

    def __len__(self):
        return len(self.elements)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def __repr__(self):
        tag = "structured" if self.structured else "raw"
        return f"KernelBasis(dim={len(self.elements)}, {tag})"


def _condforv(rule):
    """Back-substituted factor coordinates for the interior-parameter kernel.

    Starting from v_s = 1, each step r = 1..s-2 solves the (p, s+r)
    condition pair for v_{s-r}; everything stays rational.  Returns the
    (u, v) pairs for the two elements beyond (1-c) b^T.
    """
    s, zx = rule.s, rule.zeta_exact
    v = {s: Fraction(1)}
    for r in range(1, s - 1):
        Gsr = g_poly(s + r)
        Psr1 = legendre(s + r - 1)
        known = -zx * discrete_ip_exact(Psr1, legendre(s - 1), rule)
        pivot = Fraction(0)
        for l in range(s - r, s + 1):
            t = discrete_ip_exact(Gsr, legendre(l).derivative(), rule)
            if l <= s - 1:
                t += discrete_ip_exact(Psr1, legendre(l), rule)
            if l == s - r:
                pivot = t
            else:
                known += v[l] * t
        if pivot == 0:
            raise KernelStructureError(f"zero pivot while solving for v_{s - r}")
        v[s - r] = -known / pivot
    vvec = [v.get(l, Fraction(0)) for l in range(1, s + 1)]
    v2 = [Fraction(0)] + vvec[1:]
    v0 = -sum(v2)
    if v0 == 0:
        raise KernelStructureError("degenerate normalization: candidate v0 = 0")
    v3 = [v0] + vvec[1:]
    u2 = [Fraction(1), Fraction(0)]
    u3 = [Fraction(0), Fraction(1)]
    for k in range(3, s):
        u2.append(v2[k - 2] / v0)
        u3.append(v3[k - 2] / v0)
    u2.append((v2[s - 2] - zx) / v0)
    u3.append((v3[s - 2] - zx) / v0)
    return (u2, v2), (u3, v3)


def _structural_factor_table(rule, kind):
    """Closed-form (u, v) factor pairs for ker M, case by case."""
    s, zx = rule.s, rule.zeta_exact
    one, zero = Fraction(1), Fraction(0)
    n1 = ([one, -one] + [zero] * (s - 2), [one] + [zero] * (s - 1))
    if kind == "even":
        return [n1]
    if s == 2:
        return [
            n1,
            ([one, zero], [Fraction(zx), one]),
            ([zero, one], [one, -one]),
        ]
    if zx == -1:
        tail = [zero] * (s - 2) + [-one, one]
        out = [n1]
        for i in range(1, s + 1):
            u = [zero] * s
            u[i - 1] = one
            out.append((u, list(tail)))
        return out
    if zx == 0:
        u2 = [one, zero, -one] + [zero] * (s - 3)
        v2 = [zero, one] + [zero] * (s - 2)
        u3 = [zero, one, -one] + [zero] * (s - 3)
        v3 = [one, -one] + [zero] * (s - 2)
        return [n1, (u2, v2), (u3, v3)]
    p2, p3 = _condforv(rule)
    return [n1, p2, p3]


def _factor_matrix(rule, u, v):
    """U(c) b^T V(C) from factor coordinates (exact polynomials, mpf entries)."""
    s = rule.s
    U = UniPoly([0])
    for k, uk in enumerate(u):
        U = U + uk * legendre(k)
    Vd = UniPoly([0])
    for l, vl in enumerate(v, start=1):
        Vd = Vd + vl * legendre(l).derivative()
    with mp.workdps(rule.precision_digits + 15):
        N = mp.matrix(s, s)
        for i in range(s):
            ui = U(rule.c[i])
            for j in range(s):
                N[i, j] = ui * rule.b[j] * Vd(rule.c[j])
        return N


def _rank_one_factors(rule, K):
    """(u, v, relerr) of the best rank-one fit K ~ U(c) b^T V(C)."""
    s = K.rows
    with mp.workdps(rule.precision_digits + 15):
        x = mp.matrix([mp.mpf(1)] * s)
        sigma = mp.mpf(0)
        for _ in range(120):
            y = K.T * x
            ny = mp.norm(y)
            if ny == 0:
                return None, None, mp.mpf(1)
            y = y / ny
            x = K * y
            sigma = mp.norm(x)
            if sigma == 0:
                return None, None, mp.mpf(1)
            x = x / sigma
        y = K.T * x
        sigma = mp.norm(y)
        y = y / sigma
        err = mp.mpf(0)
        nrm = mp.mpf(0)
        for i in range(s):
            for j in range(s):
                err += (K[i, j] - sigma * x[i] * y[j]) ** 2
                nrm += K[i, j] ** 2
        relerr = mp.sqrt(err / nrm) if nrm > 0 else mp.mpf(1)
        Xmat = mp.matrix(s, s)
        Ymat = mp.matrix(s, s)
        for i in range(s):
            for k in range(s):
                Xmat[i, k] = legendre(k)(rule.c[i])
                Ymat[i, k] = legendre(k + 1).derivative()(rule.c[i])
        uvals = mp.matrix([sigma * x[i] for i in range(s)])
        vvals = mp.matrix([y[j] / rule.b[j] for j in range(s)])
        u = mp.lu_solve(Xmat, uvals)
        vv = mp.lu_solve(Ymat, vvals)
        return tuple(u), tuple(vv), relerr


def rank_kernel(M: MOperator, tol=None):
    """Numerical rank and kernel basis of the double-bush operator.

    Column-pivoted triangularization of matrix^T at working precision; the
    relative pivot threshold defaults to 10^(-precision/2).  A pivot inside
    [tol/100, tol*100] raises RankAmbiguityError.  The kernel is returned
    with the closed-form factored elements whenever they reproduce the
    computed null space; otherwise raw elements with attempted rank-one
    factors are flagged unstructured.
    """
    rule = M.rule
    s = rule.s
    prec = rule.precision_digits
    with mp.workdps(prec + 15):
        if tol is None:
            tol = mp.mpf(10) ** (-mp.mpf(prec) / 2)
        else:
            tol = mp.mpf(tol)
        if not tol > 0:
            raise ValueError("tol must be positive")
        Qf, R, perm, pivots = _cpqr(M.matrix.T)
        rank, ambiguous = _numerical_rank(pivots, tol)
        if ambiguous:
            pmax = max(pivots)
            band = sorted(mp.nstr(p / pmax, 5) for p in pivots if tol / 100 <= p / pmax <= tol * 100)
            raise RankAmbiguityError(
                f"pivot ratios {band} fall inside the ambiguity band around "
                f"tol = {mp.nstr(tol, 5)}; raise precision_digits"
            )
        nullity = s * s - rank
        alpha_null = [Qf[:, j] for j in range(rank, s * s)]
        scale = _max_abs(M.matrix)
        for a in alpha_null:
            resid = _max_abs(M.matrix * a)
            if resid > scale * tol * 100:
                raise KernelStructureError(
                    f"null vector residual {mp.nstr(resid, 5)} above tolerance"
                )
        raw_mats = []
        for a in alpha_null:
            alpha = mp.matrix(s, s)
            for k in range(s):
                for l in range(s):
                    alpha[k, l] = a[k * s + l]
            raw_mats.append(M.coeffs_to_matrix(alpha))
        table = _structural_factor_table(rule, M.basis_kind)
        structured_ok = len(table) == nullity
        elements = []
        if structured_ok:
            proj = mp.matrix(s * s, nullity)
            for j, a in enumerate(alpha_null):
                for i in range(s * s):
                    proj[i, j] = a[i]
            coords_in_null = []
            for u, v in table:
                Nmat = _factor_matrix(rule, u, v)
                avec = M.coords_vec(M.coords_of(Nmat))
                coeffs = proj.T * avec
                resid = avec - proj * coeffs
                if _max_abs(resid) > tol * 100 * _max_abs(avec):
                    structured_ok = False
                    break
                coords_in_null.append(coeffs)
                elements.append(KernelElement(Nmat, u, v, True))
            if structured_ok and nullity > 0:
                G = mp.matrix(nullity, nullity)
                for j, cvec in enumerate(coords_in_null):
                    for i in range(nullity):
                        G[i, j] = cvec[i]
                _, _, _, piv = _cpqr(G)
                if min(piv) <= tol * max(piv):
                    structured_ok = False
                    elements = []
        if not structured_ok:
            elements = []
            for Nmat in raw_mats:
                u, v, relerr = _rank_one_factors(rule, Nmat)
                good = u is not None and relerr < tol
                elements.append(
                    KernelElement(Nmat, u if good else None, v if good else None, False)
                )
        return rank, KernelBasis(elements, raw_mats, structured_ok)


def expected_rank(s: int, m: int, zeta):
    """Published rank of the operator, or None when (s, m) is outside the table."""
    if m == 2 * s:
        return s * s - 1
    if m == 2 * s - 1:
        if zeta == -1:
            return s * s - s - 1
        return s * s - 3
    return None


def kernel_rowsum(M: MOperator, tol=None):
    """The kernel direction with zero row sums, normalized by its largest entry.

    Returns None in the even case, where the intersection is trivial and
    uniqueness already follows from the linear stage.  A higher-dimensional
    intersection raises KernelStructureError.
    """
    rank, basis = rank_kernel(M, tol)
    rule = M.rule
    s = rule.s
    prec = rule.precision_digits
    with mp.workdps(prec + 15):
        if tol is None:
            tol = mp.mpf(10) ** (-mp.mpf(prec) / 2)
        else:
            tol = mp.mpf(tol)
        kd = len(basis.raw)
        S = mp.matrix(s, kd)
        for t, N in enumerate(basis.raw):
            for i in range(s):
                S[i, t] = mp.fsum(N[i, j] for j in range(s))
        Qs, _, _, piv = _cpqr(S.T)
        r_s, ambiguous = _numerical_rank(piv, tol)
        if ambiguous:
            raise RankAmbiguityError(
                "row-sum intersection rank is ambiguous; raise precision_digits"
            )
        null_dim = kd - r_s
        if null_dim == 0:
            return None
        if null_dim != 1:
            raise KernelStructureError(
                f"row-sum kernel intersection has dimension {null_dim}, expected 1"
            )
        gamma = Qs[:, r_s]
        N = mp.matrix(s, s)
        for t in range(kd):
            for i in range(s):
                for j in range(s):
                    N[i, j] += gamma[t] * basis.raw[t][i, j]
        top = max(((abs(N[i, j]), i, j) for i in range(s) for j in range(s)))
        if top[0] == 0:
            raise KernelStructureError("row-sum kernel element vanished")
        N = N / N[top[1], top[2]]
        defect = max(abs(mp.fsum(N[i, j] for j in range(s))) for i in range(s))
        if defect > tol * 100:
            raise KernelStructureError(
                f"row sums of the computed element do not vanish: {mp.nstr(defect, 5)}"
            )
        return N


# ---------------------------------------------------------------------------
# the uniqueness sweep


_DEFAULT_BETAS = (Fraction(1, 1000), Fraction(1, 100), Fraction(1, 10), Fraction(1))


def _s2_rowsum_matrix(rule):
    """((zeta-1) 1 - 2 zeta c) b^T (I - 2C), the two-stage row-sum direction."""
    zx = rule.zeta_exact
    with mp.workdps(rule.precision_digits + 15):
        N = mp.matrix(2, 2)
        for i in range(2):
            ui = _to_mpf(zx - 1) - 2 * _to_mpf(zx) * rule.c[i]
            for j in range(2):
                N[i, j] = ui * rule.b[j] * (1 - 2 * rule.c[j])
        return N


def _collinearity_defect(N_canon, N_entry, s):
    """Distance from N_entry to the line through N_canon, up to sign.

    Entry normalization can flip sign when two entries tie in magnitude,
    so the check accepts either orientation.
    """
    top = max(((abs(N_canon[i, j]), i, j) for i in range(s) for j in range(s)))
    lam = N_canon[top[1], top[2]]
    plus = max(abs(N_canon[i, j] / lam - N_entry[i, j]) for i in range(s) for j in range(s))
    minus = max(abs(N_canon[i, j] / lam + N_entry[i, j]) for i in range(s) for j in range(s))
    return min(plus, minus)


def uniqueness_sweep(rule: QuadRule, m: int, betas=None):
    """Numerical uniqueness certificate: nonlinear residuals along kernel rays.

    Builds A = c b^T + beta N for the zero-row-sum kernel direction N
    (normalized as in the closed forms so the fitted coefficients land on
    the published constants), evaluates the discriminating nonlinear
    residual for each beta, and fits log|residual| against log|beta|.
    Even-degree rules skip the sweep: their row-sum intersection is trivial.
    """
    s = rule.s
    zx = rule.zeta_exact
    prec = rule.precision_digits
    if betas is None:
        betas = _DEFAULT_BETAS
    betas = list(betas)
    if any(b == 0 for b in betas):
        raise ValueError("betas must be nonzero")
    M = build_M(rule, m)
    rank, basis = rank_kernel(M)
    report = {
        "s": s,
        "zeta": float(rule.zeta),
        "m": m,
        "rank": rank,
        "expected_rank": expected_rank(s, m, zx),
        "kernel_dim": len(basis),
    }
    if M.basis_kind == "even":
        if kernel_rowsum(M) is not None:
            raise KernelStructureError("even case must have a trivial row-sum intersection")
        report["residual_fit"] = None
        report["note"] = (
            "row-sum constraint eliminates the kernel; uniqueness holds at the linear stage"
        )
        return report
    with mp.workdps(prec + 15):
        tol = mp.mpf(10) ** (-mp.mpf(prec) / 2)
        N_entry = kernel_rowsum(M)
        if s == 2:
            N_sweep = _s2_rowsum_matrix(rule)
            if zx != 0:
                G2 = g_poly(2)
                cond = lambda A: triple_bush_residual(A, rule, G2, G2, _ONE)
                expected = Fraction(zx) ** 3 / 81
                name = "triple-bush P=Q=G_2, R=1"
            else:
                cond = lambda A: asym_bush_residual(A, rule, 2)
                expected = -((1 + Fraction(zx)) ** 2) / 36
                name = "asym-bush q=2"
            exp_slope = 2
        elif zx == 0:
            u = [Fraction(1), Fraction(0), Fraction(-1)] + [Fraction(0)] * (s - 3)
            v = [Fraction(0), Fraction(1)] + [Fraction(0)] * (s - 2)
            N_sweep = _factor_matrix(rule, u, v)
            cond = lambda A: asym_bush_residual(A, rule, s)
            expected = Fraction((-1) ** (s - 1) * 6**s, gamma_lead(s) ** 2)
            name = f"asym-bush q={s}"
            exp_slope = s
        elif zx == -1:
            u = [Fraction(2), Fraction(-2)] + [Fraction(0)] * (s - 2)
            v = [Fraction(0)] * s
            v[0] = Fraction((-1) ** s)
            v[s - 2] += Fraction(-1)
            v[s - 1] = Fraction(1)
            N_sweep = _factor_matrix(rule, u, v)
            P = _MONOMIAL_X * g_poly(2)
            cond = lambda A: triple_bush_residual(A, rule, P, P, _ONE)
            expected = Fraction(-4, 9)
            name = "triple-bush P=Q=x G_2, R=1"
            exp_slope = 2
        else:
            N_sweep = N_entry
            u, v, relerr = _rank_one_factors(rule, N_entry)
            if u is None or relerr > tol:
                raise KernelStructureError(
                    f"row-sum kernel element is not rank one (relative error {mp.nstr(relerr, 5)})"
                )
            p = 1 if abs(u[0]) >= abs(u[1]) else 2
            if abs(u[p - 1]) < tol:
                raise KernelStructureError("both leading factor coefficients vanish")
            Gp = g_poly(p)
            cond = lambda A: triple_bush_residual(A, rule, Gp, Gp, _MONOMIAL_X)
            expected = (u[p - 1] * v[s - 1] * _to_mpf(1 + zx)) ** 2 / (2 * p - 1) ** 2
            name = f"triple-bush P=Q=G_{p}, R=x"
            exp_slope = 2
        if s == 2 or zx in (0, -1):
            defect = _collinearity_defect(N_sweep, N_entry, s)
            if defect > tol * 100:
                raise KernelStructureError(
                    f"row-sum element deviates from the closed form by {mp.nstr(defect, 5)}"
                )
        avf = _avf_matrix(rule)
        bvals = [_to_mpf(b) for b in betas]
        residuals = []
        for bv in bvals:
            A = avf + bv * N_sweep
            residuals.append(cond(A))
        floor = mp.mpf(10) ** (-prec + 20)
        pts = [
            (mp.log10(abs(bv)), mp.log10(abs(r)), r)
            for bv, r in zip(bvals, residuals)
            if abs(r) > floor
        ]
        if len(pts) < 2:
            raise KernelStructureError(
                "nonlinear residuals vanished across the sweep; nothing to fit"
            )
        n = len(pts)
        mx = mp.fsum(p[0] for p in pts) / n
        my = mp.fsum(p[1] for p in pts) / n
        sxx = mp.fsum((p[0] - mx) ** 2 for p in pts)
        sxy = mp.fsum((p[0] - mx) * (p[1] - my) for p in pts)
        slope = sxy / sxx
        intercept = my - slope * mx
        sign = 1 if max(pts, key=lambda p: p[0])[2] > 0 else -1
        coeff = sign * mp.mpf(10) ** intercept
        report["condition"] = name
        report["betas"] = [float(bv) for bv in bvals]
        report["residuals"] = [float(r) for r in residuals]
        report["residual_fit"] = {
            "slope": float(slope),
            "coeff": float(coeff),
            "expected_coeff": float(_to_mpf(expected)),
            "expected_slope": exp_slope,
        }
    return report
