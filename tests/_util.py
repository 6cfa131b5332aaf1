"""Shared builders for the test suite."""
import math
import random
from fractions import Fraction
from operator import mul, sub

from mpmath import mp

from avfrk.conditions import _factor_polys, double_bush_residual
from avfrk.hamiltonian import HamiltonianSystem, MultiPoly
from avfrk.integrators import SolverConfig, SolverError, StepStats
from avfrk.quadrature import UniPoly, _scaled
from avfrk.trees import ButcherTableau


def rational_point(rng: random.Random, n: int, span: int = 6) -> tuple:
    return tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)
    )


def random_multipoly(rng: random.Random, num_vars: int, degree: int, n_terms: int = 5) -> MultiPoly:
    terms = {}
    for _ in range(n_terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(num_vars)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MultiPoly(num_vars, terms)


def random_unipoly(rng: random.Random, degree: int, zero_at_origin: bool = False) -> UniPoly:
    lo = 1 if zero_at_origin else 0
    coeffs = [Fraction(0)] * lo + [
        Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(lo, degree + 1)
    ]
    return UniPoly(coeffs)


def random_system(rng: random.Random, half_dim: int, degree: int) -> HamiltonianSystem:
    """Harmonic well plus a small sparse perturbation of the given top degree.

    Coefficients stay below 1/10 so low-energy orbits remain trapped near
    the origin for the step counts used in the tests.
    """
    nv = 2 * half_dim
    terms = {}
    for i in range(nv):
        e = [0] * nv
        e[i] = 2
        terms[tuple(e)] = Fraction(1, 2)
    placed_top = False
    for _ in range(2):
        deg_t = degree if not placed_top else rng.randint(3, degree)
        placed_top = True
        exps = [0] * nv
        for _ in range(deg_t):
            exps[rng.randrange(nv)] += 1
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), 40)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    H = MultiPoly(nv, terms)
    assert H.degree() == degree
    return HamiltonianSystem(half_dim, H)


def random_A_tableau(rng: random.Random, rule) -> ButcherTableau:
    """Random stage matrix over the rule's rounded nodes and weights."""
    s = rule.s
    A = [[Fraction(rng.randint(-8, 8), 4) for _ in range(s)] for _ in range(s)]
    return ButcherTableau(A, rule.b, rule.c)


def t_pq(p: int, q: int):
    from avfrk.trees import RootedTree, leaf

    return RootedTree([leaf] * p + [RootedTree([leaf] * q)])


def sigma_multiset(p: int, q: int) -> list:
    f = math.factorial
    return sorted([f(p - 1) * f(q), f(p) * f(q), f(p) * f(q), f(p) * f(q - 1)])


def annihilated(M, vec):
    """vec is a nonzero exact null vector of the operator M.

    vec scaled to integers against the operator's primitive integer rows:
    each dot product is zero exactly when the rational one is.
    """
    ints = _scaled(vec)[0]
    return any(ints) and all(sum(map(mul, row, ints)) == 0 for row, _ in M.scaled_rows)


def max_entry(M):
    return max(abs(x) for row in M for x in row)


def mat_sum(A, B, beta=1):
    """A + beta B for matrices as lists of rows."""
    return [[a + beta * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def outer_matrix(rule, U, V):
    """U(c) b^T V(C) at the rule's rounded nodes, rows of Fractions, for exact polynomials U and V."""
    uc, bv = [U(x) for x in rule.c], [b * V(x) for b, x in zip(rule.b, rule.c)]
    return [[u * w for w in bv] for u in uc]


def avf_matrix(rule):
    """c b^T, rows of Fractions."""
    return outer_matrix(rule, UniPoly([0, 1]), UniPoly([1]))


def factor_matrix(rule, u, v):
    """U(c) b^T V(C), rows of Fractions, from exact factor coordinates (u, v)."""
    return outer_matrix(rule, *_factor_polys(u, v))


def kernel_ray_residual(M, u, v):
    """Worst |double_bush_residual| of c b^T + N/max|N| over the rows (p, q) of M.

    N = U(c) b^T V(C) is built at the rule's rounded nodes from the exact
    factors (u, v) of a kernel element, independently of the operator's
    coordinates, so this checks the exact kernel through the public
    residuals at the nodes.
    """
    rule = M.rule
    N = factor_matrix(rule, u, v)
    A = mat_sum(avf_matrix(rule), N, 1 / max_entry(N))
    return max(abs(double_bush_residual(A, rule, p, q)) for p, q in M.rows)


def fraction_rref(rows, ncols):
    """(pivots, null) of a rational matrix by plain Gauss-Jordan over Fractions.

    The reference for conditions._eliminate: pivots are the pivot columns,
    null holds one vector per free column f with x_f = 1.
    """
    A = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(A)) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    null = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(A, pivots):
            x[c] = -row[f]
        null.append(x)
    return pivots, null


def memo_free_rk_weight(forest, tab):
    """rk_weight by the plain recursion over lists of Fractions, with a fresh cache per call, touching no memo of tab."""
    from avfrk.trees import Forest, RootedTree

    if isinstance(forest, RootedTree):
        forest = Forest([forest])

    def psi(t, cache):
        if t not in cache:
            if not t.children:
                cache[t] = list(tab.c)
            else:
                prod = [Fraction(1)] * tab.s
                for k in t.children:
                    prod = [a * b for a, b in zip(prod, psi(k, cache))]
                cache[t] = [sum(a * v for a, v in zip(row, prod)) for row in tab.A]
        return cache[t]

    cache = {}
    total = Fraction(1)
    for t in forest:
        prod = [Fraction(1)] * tab.s
        for k in t.children:
            prod = [a * b for a, b in zip(prod, psi(k, cache))]
        total *= sum(b * p for b, p in zip(tab.b, prod))
    return total


def memo_free_residual(ft, tab):
    """energy_condition_residual on memo_free_rk_weight, an exact Fraction."""
    from avfrk.trees import Forest

    if ft.superfluous:
        return Fraction(0)
    return sum(
        (ft.parity[u] * memo_free_rk_weight(Forest(u.children), tab) / u.sigma for u in ft.members), Fraction(0)
    )


def refuse_nodes(*args):
    """Stand-in for quadrature._rounded_rule in tests that the exact certificate never forms a node."""
    raise AssertionError("a rule's nodes were formed")


# conditions' four bush residuals, with their helpers, as separate bodies over plain
# lists of Fractions at the rule's rounded nodes: the reference for the one body over node vectors


def _to_fraction(x):
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        return (-1) ** sign * Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


def _as_matrix(A, s):
    """A as s rows of s Fractions; an mp.matrix is read entry by entry."""
    if isinstance(A, mp.matrix):
        if (A.rows, A.cols) != (s, s):
            raise ValueError(f"expected a {s}x{s} matrix, got {A.rows}x{A.cols}")
        return [[_to_fraction(A[i, j]) for j in range(s)] for i in range(s)]
    rows = [list(r) for r in A]
    if len(rows) != s or any(len(r) != s for r in rows):
        raise ValueError(f"expected a {s}x{s} matrix")
    return [[_to_fraction(x) for x in r] for r in rows]


def _times(A, v):
    """A v for a matrix and a vector of Fractions."""
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _require_zero_at_origin(P, name):
    if not P.is_zero() and P.coeffs[0] != 0:
        raise ValueError(f"{name}(0) must vanish")


def reference_double_bush_residual(A, rule, p: int, q: int):
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
    A = _as_matrix(A, s)
    b, c = rule.b, rule.c
    Acq = _times(A, [ci**q for ci in c])
    Acp = _times(A, [ci**p for ci in c])
    t1 = sum(b[i] * c[i] ** (p - 1) * Acq[i] for i in range(s))
    t2 = sum(b[i] * c[i] ** (q - 1) * Acp[i] for i in range(s))
    rhs = Fraction(1, q + 1) - Fraction(1, p + 1)
    return p * t1 - q * t2 - rhs


def reference_double_bush_poly_residual(A, rule, P: UniPoly, Q: UniPoly):
    """b^T P'(C) A Q(c) - b^T Q'(C) A P(c) - (P(1) int Q - Q(1) int P).

    Bilinear and antisymmetric in (P, Q); P(0) = Q(0) = 0 required.  The
    vanishing guarantee covers degrees up to order-1.
    """
    _require_zero_at_origin(P, "P")
    _require_zero_at_origin(Q, "Q")
    s = rule.s
    A = _as_matrix(A, s)
    b, c = rule.b, rule.c
    Pd, Qd = P.derivative(), Q.derivative()
    AQ = _times(A, [Q(ci) for ci in c])
    AP = _times(A, [P(ci) for ci in c])
    t1 = sum(b[i] * Pd(c[i]) * AQ[i] for i in range(s))
    t2 = sum(b[i] * Qd(c[i]) * AP[i] for i in range(s))
    rhs = P(Fraction(1)) * Q.integral()(Fraction(1)) - Q(Fraction(1)) * P.integral()(Fraction(1))
    return t1 - t2 - rhs


def reference_triple_bush_residual(A, rule, P: UniPoly, Q: UniPoly, R: UniPoly):
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
    A = _as_matrix(A, s)
    b, c = rule.b, rule.c
    Pd, Qd, Rd = P.derivative(), Q.derivative(), R.derivative()
    AQ = _times(A, [Q(ci) for ci in c])
    AP = _times(A, [P(ci) for ci in c])
    ARAQ = _times(A, [R(c[i]) * AQ[i] for i in range(s)])
    ARAP = _times(A, [R(c[i]) * AP[i] for i in range(s)])
    t1 = sum(b[i] * Pd(c[i]) * ARAQ[i] for i in range(s))
    t2 = sum(b[i] * Qd(c[i]) * ARAP[i] for i in range(s))
    t3 = P(Fraction(1)) * sum(b[i] * R(c[i]) * AQ[i] for i in range(s))
    t4 = Q(Fraction(1)) * sum(b[i] * R(c[i]) * AP[i] for i in range(s))
    t5 = sum(b[i] * Rd(c[i]) * AQ[i] * AP[i] for i in range(s))
    t6 = R(Fraction(1)) * P.integral()(Fraction(1)) * Q.integral()(Fraction(1))
    return t1 + t2 - t3 - t4 - t5 + t6


def reference_asym_bush_residual(A, rule, q: int):
    """b^T (Ac)^q - q b^T A C (Ac)^{q-1} + q b^T C (Ac)^{q-1} - 2^{-q}.

    Degree-q-in-A residual of the one-long-leg cluster; vanishes for
    q <= order-1.  Vector powers are componentwise.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    s = rule.s
    A = _as_matrix(A, s)
    b, c = rule.b, rule.c
    Ac = _times(A, list(c))
    wq1 = [Ac[i] ** (q - 1) for i in range(s)]
    inner = _times(A, [c[i] * wq1[i] for i in range(s)])
    t1 = sum(b[i] * Ac[i] * wq1[i] for i in range(s))
    t2 = sum(b[i] * inner[i] for i in range(s))
    t3 = sum(b[i] * c[i] * wq1[i] for i in range(s))
    return t1 - q * t2 + q * t3 - Fraction(1, 2**q)


def reference_newton_step(matrix, x, fx, res) -> list:
    """x - dx with matrix @ dx = fx - x, in the float operations integrators._factor_lines and _solve_lines document.

    Gaussian elimination with partial pivoting on r = fx - x: the pivot of
    column k is the first row with the largest |a_ik| at or below k, swapped
    into row k; each row i below takes l = a_ik / a_kk, a_ij - l * a_kj for
    j > k and r_i - l * r_k.  Back-substitution from the last row subtracts
    a_kj * r_j left to right and divides by a_kk.  An exactly zero pivot
    raises SolverError at iterate x.
    """
    n = len(x)
    a = [list(row) for row in matrix]
    r = list(map(sub, fx, x))
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        a[k], a[p], r[k], r[p] = a[p], a[k], r[p], r[k]
        if not a[k][k]:
            raise SolverError(f"Newton matrix is singular: zero pivot in column {k}", iterate=tuple(x), residual=res)
        for i in range(k + 1, n):
            l = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - l * a[k][j]
            r[i] = r[i] - l * r[k]
    for k in reversed(range(n)):
        t = r[k]
        for j in range(k + 1, n):
            t = t - a[k][j] * r[j]
        r[k] = t / a[k][k]
    return list(map(sub, x, r))


def reference_implicit_solve(x, phi, newton, start, cfg: SolverConfig, scale: float = 1.0):
    """The solve of one step, in the float operations of the generated run loop.

    Solve x = phi(x) until scale * max|phi(x) - x| <= cfg.tolerance.

    x is the start of the step for every unknown; phi(x) is then the Euler
    predictor.  The default strategy moves x by the simplified Newton step
    on the step-start matrix start, W (x) J_f(y) - I as rows, the predictor
    first, while two more moves at the observed rate theta = res / prev_res
    would reach the tolerance, res * theta * theta <= cfg.tolerance;
    "fixed-point" moves x to phi(x).  Otherwise, and from the start for
    "newton", Newton on F(x) = phi(x) - x, where newton(x) is its matrix
    Jphi(x) - I with the identity already subtracted.  A non-finite value
    of phi, the predictor included, ends the solve with SolverError, naming
    a non-finite field value at a finite x and a non-finite iterate
    otherwise; so does a singular matrix, the step-start one at the
    predictor with residual inf.  Returns (x, phi(x), StepStats) at the
    iterate x that passed the stop.
    """
    use_newton = cfg.strategy == "newton"
    simplified = cfg.strategy == "fixed-point+newton"
    prev_res = res = math.inf
    newton_iters = 0
    for it in range(cfg.max_iterations + 1):
        fx = phi(x)
        if not all(map(math.isfinite, fx)):
            what = "field value" if all(map(math.isfinite, x)) else "iterate"
            raise SolverError(f"non-finite {what} at iteration {it}", iterate=tuple(x), residual=math.inf)
        if it:
            res = scale * max(map(abs, map(sub, fx, x)))
            if res <= cfg.tolerance:
                return x, fx, StepStats(it, newton_iters, res)
        if use_newton and it:
            x = reference_newton_step(newton(x), x, fx, res)
            newton_iters += 1
        else:
            x = reference_newton_step(start, x, fx, res) if simplified else fx
            theta = res / prev_res
            if simplified and res * theta * theta > cfg.tolerance:
                use_newton = True
        prev_res = res
    raise SolverError(
        f"no convergence after {cfg.max_iterations} iterations "
        f"(residual {res:.3e}, tolerance {cfg.tolerance:.3e})",
        iterate=tuple(x),
        residual=res,
    )


def reference_update(state, solution, stats: StepStats) -> tuple:
    """(state, stats) of a step whose solve converged; a non-finite state raises SolverError.

    state is y + h sum_j b_j f(Y_j) at the stages of the iterate that passed
    the stop; on the chord that is the solution phi(x) itself, finite
    already.  The error carries the solution and its residual, as the
    generated run loop's does.
    """
    if not all(map(math.isfinite, state)):
        raise SolverError("non-finite state after the update", iterate=tuple(solution), residual=stats.residual)
    return tuple(state), stats


# QuadRule.moments, discrete_ip_table and build_M (with build_p_tilde and
# _odd_right_family) as they were before the moments and the operator's moment
# rows ran on integers: the Fraction remainder recurrence, polynomial end values
# and per-call F_q polynomials, the reference for those integer paths


def reference_moments(rule, n: int) -> tuple:
    """Exact discrete moments mu_k = sum_i b_i c_i^k for k < n.

    With rho the monic node polynomial, x^(k+1) mod rho =
    x (x^k mod rho) - lead * rho, and the rule integrates that remainder
    of degree < s exactly: mu_k = int_0^1 (x^k mod rho).
    """
    x0 = [Fraction(1)] + [Fraction(0)] * (rule.s - 1)  # x^0 mod rho
    rho, rem = rule.node_poly().coeffs, x0
    mu = []
    while len(mu) < n:
        mu.append(sum(c / (j + 1) for j, c in enumerate(rem)))
        lead = rem[-1]
        rem = [-lead * rho[0]] + [rem[j - 1] - lead * rho[j] for j in range(1, rule.s)]
    return tuple(mu)


def reference_discrete_ip_table(us, vs, rule) -> list:
    """[[<u, v>_D for v in vs] for u in us] as exact rationals, over reference_moments."""
    n = max((len(v.coeffs) for v in vs), default=0)
    mu, dm = _scaled(reference_moments(rule, max((len(u.coeffs) for u in us), default=0) + n - 1))
    vs = [_scaled(v.coeffs) for v in vs]
    out = []
    for u in us:
        uc, du = _scaled(u.coeffs)
        h = [sum(a * mu[i + j] for i, a in enumerate(uc) if a) for j in range(n)]
        out.append([Fraction(sum(x * y for x, y in zip(h, vc)), dm * du * dv) for vc, dv in vs])
    return out


def reference_build_p_tilde(rule) -> UniPoly:
    """Degree-s substitute for the final right-basis slot."""
    from avfrk.conditions import KernelStructureError, _solve_fraction
    from avfrk.quadrature import f_poly, legendre

    s, zx = rule.s, rule.zeta_exact
    if s < 2:
        raise ValueError("need s >= 2")
    if zx == -1:
        return legendre(s) - legendre(s - 1)
    high = [f_poly(s + i, s, zx) for i in range(1, s - 1)]
    gamma = reference_discrete_ip_table(high, [legendre(j).derivative() for j in range(1, s + 1)], rule)
    gamma.append([Fraction(1)] * s)
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
    for r, ip in enumerate(reference_discrete_ip_table([pt.derivative()], high, rule)[0], start=1):
        if ip != 0:
            raise KernelStructureError(f"orthogonality against F_{s + r} failed: {ip}")
    if sum(v) != 0:
        raise KernelStructureError("coefficients do not sum to zero")
    return pt


def reference_odd_right_family(rule):
    """Right-basis polynomials for m = 2s-1, slot l holding degree-l members."""
    from avfrk.quadrature import legendre

    s = rule.s
    if rule.zeta_exact == 0:
        if s == 2:
            return [legendre(1), legendre(2)]
        fam = [legendre(l) for l in range(1, s)]
        fam[1] = legendre(s)
        fam.append(reference_build_p_tilde(rule))
        return fam
    return [legendre(l) for l in range(1, s)] + [reference_build_p_tilde(rule)]


def _over_common_den(table):
    """(integer rows, d) with table = integer rows / d, for rows of Fractions."""
    d = math.lcm(*[x.denominator for row in table for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in table], d


def reference_build_M(rule, m: int) -> dict:
    """The double-bush operator's fields rows, scaled_rows, w_exact, right_family and ip_tables."""
    from avfrk.conditions import KernelStructureError
    from avfrk.quadrature import f_poly, g_poly, legendre

    s = rule.s
    zx = rule.zeta_exact
    if m == 2 * s - 1 and s < 2:
        raise ValueError("m = 2s-1 needs s >= 2: a one-stage rule has no odd-degree conditions")
    if m == 2 * s:
        if zx != 0:
            raise ValueError("m = 2s requires the zeta = 0 rule")
        kind = "even"
        n_left = m - 1
        integ = [g_poly(q) for q in range(1, m)]
        fam = [legendre(l) for l in range(1, s + 1)]
    elif m == 2 * s - 1:
        kind = "odd"
        n_left = s
        integ = [f_poly(q, s, zx) for q in range(1, m)]
        fam = reference_odd_right_family(rule)
    else:
        raise ValueError(f"m must be {2 * s} or {2 * s - 1} for s = {s}")
    rows = [(p, q) for p in range(1, m - 1) for q in range(p + 1, m)]
    left = [legendre(l) for l in range(n_left)]
    lip, dl = _over_common_den(reference_discrete_ip_table(left, [legendre(k) for k in range(s)], rule))
    lip += [[0] * s for _ in range(n_left, m - 1)]
    rip, dr = _over_common_den(reference_discrete_ip_table(integ, [B.derivative() for B in fam], rule))
    one = Fraction(1)
    ends = [(P(one), P.integral()(one)) for P in integ]  # P(1) and int_0^1 P
    scaled_rows = []
    w_exact = []
    for p, q in rows:
        lp, lq, rp, rq = lip[p - 1], lip[q - 1], rip[p - 1], rip[q - 1]
        row = [a * y - b * x for a, b in zip(lp, lq) for x, y in zip(rp, rq)]
        g = math.gcd(dl * dr, *row)
        (p1, pint), (q1, qint) = ends[p - 1], ends[q - 1]
        wv = p1 * qint - q1 * pint
        if Fraction(row[0] + row[s], 4 * dl * dr) != wv:
            raise KernelStructureError(f"c b^T violates the ({p}, {q}) condition exactly")
        scaled_rows.append(([x // g for x in row], dl * dr // g))
        w_exact.append(wv)
    return {
        "basis_kind": kind,
        "rows": tuple(rows),
        "scaled_rows": tuple((tuple(r), d) for r, d in scaled_rows),
        "w_exact": tuple(w_exact),
        "right_family": tuple(fam),
        "ip_tables": tuple(tuple(map(tuple, t)) for t in (lip, rip)),
    }


# conditions._ray_residual and conditions._rowsum_element as they were before the
# uniqueness sweep ran in one integer pass: k + 1 evaluations of the bush body in
# Fraction UniPoly arithmetic with a Vandermonde solve, and the row-sum system on
# the basis' Fraction coordinates, with the Fraction-returning _eliminate they
# called; the reference for the one-pass residual and the integer row-sum path


def _eliminate(rows, ncols):
    """Exact rank, pivot columns and null space of an integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination: every entry of the
    reduced form is a minor of the matrix, so each division by the previous
    pivot is exact, and all pivots end equal to the last one, d.  Only live
    columns are carried: once column c has pivoted, it and the earlier pivot
    columns hold d on the diagonal and 0 elsewhere, so each row keeps the
    columns not yet reached followed by the free columns met so far, which
    the pivot rows carry into the null vectors.  Returns (pivots, null)
    where null holds one Fraction vector per free column f, with x_f = 1.
    Rational rows are scaled to integers first (_int_rows).
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
    null = []
    for j, f in enumerate(free):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(A, pivots):
            x[c] = Fraction(-row[j], prev)
        null.append(x)
    return pivots, null


def reference_rowsum_element(M, basis):
    """Exact coordinates vec(alpha) of the zero-row-sum direction of ker M, or None.

    The direction is X alpha Yb^T with X_ik = P_{k-1}(c_i) and
    Yb_jl = b_j B_l'(c_j).  Its row sums are X (alpha r) with
    r_l = B_l(1) - B_l(0), since the rule integrates the degree < s
    derivatives B_l' exactly, and X is invertible; the intersection is
    therefore the exact null space of the s x dim(ker) system alpha_t r over
    the basis' coordinate vectors, and its element has alpha r = 0 over Q.
    A higher-dimensional intersection raises KernelStructureError.
    """
    from avfrk.conditions import KernelStructureError, _int_rows

    s = M.rule.s
    r = [B(Fraction(1)) - B(Fraction(0)) for B in M.right_family]
    S = [[sum(a[k * s + l] * r[l] for l in range(s)) for a in basis.coords] for k in range(s)]
    _, null = _eliminate(_int_rows(S), len(basis.coords))
    if not null:
        return None
    if len(null) != 1:
        raise KernelStructureError(
            f"row-sum kernel intersection has dimension {len(null)}, expected 1"
        )
    return [sum(g * a[i] for g, a in zip(null[0], basis.coords)) for i in range(s * s)]


def reference_ray_residual(rule, cond, degree, U, Vd):
    """The residual cond along A = c b^T + beta U(c) b^T Vd(C) as an exact polynomial in beta.

    cond is (body, *args) for a bush body in the exact representation:
    A g = c <1, g>_D + beta U <Vd, g>_D over the rule's exact moments.  The
    residual has degree <= degree in beta; its values at beta = 0..degree
    give the coefficients.
    """
    from avfrk.conditions import _MONOMIAL_X, _ONE, _solve_fraction
    from avfrk.quadrature import discrete_ip_exact

    body, *args = cond
    ip = lambda f, g: discrete_ip_exact(f, g, rule)
    at = lambda beta: body(lambda g: _MONOMIAL_X * ip(_ONE, g) + U * (beta * ip(Vd, g)), ip, *args)
    nodes = [Fraction(k) for k in range(degree + 1)]
    vandermonde = [[x**k for k in range(degree + 1)] for x in nodes]
    return UniPoly(_solve_fraction(vandermonde, [at(x) for x in nodes]))


# conditions._right_inverse and quadrature._isolate_roots as they were before C^-1 had
# its closed form and the bisection ran on integers: one Bareiss elimination of [C | -I],
# and the bisection on Fractions, with quad_rule's checks around it; the references for
# both


def reference_right_inverse(C):
    """(T, dt) with T / dt = C^-1 for the columns C, reduced over their content, or None if C is singular.

    Column j of T is the null vector of free column s + j of [C | -I]; dt,
    the last Bareiss pivot over the content, may be negative.
    """
    from avfrk.conditions import _eliminate, _int_rows, _reduced

    s = len(C)
    CI = [[*row, *(-int(i == j) for j in range(s))] for i, row in enumerate(zip(*C))]
    pivots, null, d = _eliminate(_int_rows(CI), 2 * s)
    if pivots != list(range(s)):
        return None
    return _reduced([[x[l] for x in null] for l in range(s)], d)


def reference_rule_core(s, z):
    """(brackets, in_unit_interval) of quad_rule(s, z) from the Fraction bisection; its QuadratureError where it raises."""
    from avfrk.quadrature import _WINDOW, QuadratureError, _sign_changes, _sturm_values

    lo, hi = _WINDOW
    va, vb = (_sign_changes(_sturm_values(s, z, x)) for x in (lo, hi))
    brackets, stack = [], [(lo, va, hi, vb)]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            brackets.append((a, b))
        elif va - vb > 1:
            mid = (a + b) / 2
            while (values := _sturm_values(s, z, mid))[0] == 0:
                mid = (a + 2 * mid) / 3
            vm = _sign_changes(values)
            stack += [(a, va, mid, vm), (mid, vm, b, vb)]
    if len(brackets) != s:
        raise QuadratureError(
            f"P_{s} - zeta*P_{s-1} with zeta={z} has {len(brackets)} real roots "
            f"in {float(lo), float(hi)}; need {s} distinct real roots"
        )
    at0, at1 = _sturm_values(s, z, Fraction(0)), _sturm_values(s, z, Fraction(1))
    return sorted(brackets), _sign_changes(at0) - _sign_changes(at1) + (at0[0] == 0) == s
