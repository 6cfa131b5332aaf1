"""Shared builders for the test suite."""
import math
import random
from fractions import Fraction
from math import ulp
from operator import mul, sub

from mpmath import mp

from avfrk.conditions import _factor_polys, double_bush_residual
from avfrk.hamiltonian import HamiltonianSystem, MultiPoly
from avfrk.integrators import _STALL_FACTOR, SolverConfig, SolverError, StepStats, _newton_update
from avfrk.quadrature import QuadratureError, UniPoly, _exact_fraction, _horner, _scaled
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
    """Random stage matrix over the rule's exact nodes and weights."""
    s = rule.s
    A = [
        [mp.mpf(rng.randint(-8, 8)) / 4 for _ in range(s)]
        for _ in range(s)
    ]
    return ButcherTableau(A, rule.b, rule.c, rule.precision_digits)


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
    return max(abs(M[i, j]) for i in range(M.rows) for j in range(M.cols))


def outer_matrix(rule, U, V):
    """U(c) b^T V(C) in mpf at the rule's working precision, for exact polynomials U and V."""
    s = rule.s
    with mp.workdps(rule.precision_digits + 15):
        uc, vc = [U(x) for x in rule.c], [V(x) for x in rule.c]
        return mp.matrix([[uc[i] * rule.b[j] * vc[j] for j in range(s)] for i in range(s)])


def avf_matrix(rule):
    """c b^T in mpf."""
    return outer_matrix(rule, UniPoly([0, 1]), UniPoly([1]))


def factor_matrix(rule, u, v):
    """U(c) b^T V(C) in mpf from exact factor coordinates (u, v)."""
    return outer_matrix(rule, *_factor_polys(u, v))


def kernel_ray_residual(M, u, v):
    """Worst |double_bush_residual| of c b^T + N/max|N| over the rows (p, q) of M.

    N = U(c) b^T V(C) is built in mpf from the exact factors (u, v) of a
    kernel element, independently of the operator's coordinates, so this
    checks the exact kernel through the public floating-point residuals.
    """
    rule = M.rule
    with mp.workdps(rule.precision_digits + 15):
        N = factor_matrix(rule, u, v)
        A = avf_matrix(rule) + N / max_entry(N)
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
    """rk_weight by the plain recursion with a fresh cache per call, touching no memo of tab."""
    from avfrk.trees import Forest, RootedTree

    if isinstance(forest, RootedTree):
        forest = Forest([forest])

    def psi(t, cache):
        if t not in cache:
            if not t.children:
                cache[t] = list(tab.c)
            else:
                prod = [mp.mpf(1)] * tab.s
                for k in t.children:
                    prod = [a * b for a, b in zip(prod, psi(k, cache))]
                cache[t] = [mp.fsum(a * v for a, v in zip(row, prod)) for row in tab.A]
        return cache[t]

    with mp.workdps(tab.precision_digits + 10):
        cache = {}
        total = mp.mpf(1)
        for t in forest:
            prod = [mp.mpf(1)] * tab.s
            for k in t.children:
                prod = [a * b for a, b in zip(prod, psi(k, cache))]
            total *= mp.fsum(b * p for b, p in zip(tab.b, prod))
        return total


def memo_free_residual(ft, tab):
    """energy_condition_residual on memo_free_rk_weight."""
    from avfrk.trees import Forest

    if ft.superfluous:
        return mp.mpf(0)
    with mp.workdps(tab.precision_digits + 10):
        total = mp.mpf(0)
        for u in ft.members:
            total += ft.parity[u] * memo_free_rk_weight(Forest(u.children), tab) / u.sigma
        return total


def refuse_polish(*args):
    """Stand-in for quadrature._polish_root in tests that the exact certificate never polishes."""
    raise AssertionError("a rule's nodes were polished")


# conditions' four mpf bush residuals, with their helpers, as they were before each
# identity had one body over exact or mpf node vectors: the reference for that body


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


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
    with mp.workdps(rule.precision_digits + 15):
        A = _as_matrix(A, s)
        b, c = rule.b, rule.c
        Acq = A * mp.matrix([ci**q for ci in c])
        Acp = A * mp.matrix([ci**p for ci in c])
        t1 = mp.fsum(b[i] * c[i] ** (p - 1) * Acq[i] for i in range(s))
        t2 = mp.fsum(b[i] * c[i] ** (q - 1) * Acp[i] for i in range(s))
        rhs = mp.mpf(1) / (q + 1) - mp.mpf(1) / (p + 1)
        return p * t1 - q * t2 - rhs


def reference_double_bush_poly_residual(A, rule, P: UniPoly, Q: UniPoly):
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


def reference_asym_bush_residual(A, rule, q: int):
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


def reference_implicit_solve(x, phi, newton, cfg: SolverConfig, scale: float = 1.0):
    """integrators._implicit_solve as it was before the chord sweeps were generated.

    Solve x = phi(x) until scale * max|phi(x) - x| <= cfg.tolerance.

    x is the start of the step for every unknown; phi(x) is then the Euler
    predictor.  Fixed-point sweeps run while the residual shrinks by
    _STALL_FACTOR per iteration; otherwise Newton on F(x) = phi(x) - x,
    where newton(x) is its matrix Jphi(x) - I with the identity already
    subtracted.  An overflowing field, a non-finite iterate and a singular
    Newton matrix end the solve with SolverError.  Returns (solution,
    StepStats).
    """
    use_newton = cfg.strategy == "newton"
    allow_newton = cfg.strategy != "fixed-point"
    prev_res = res = math.inf
    newton_iters = 0
    try:
        x = phi(x)
        for it in range(1, cfg.max_iterations + 1):
            fx = phi(x)
            if not all(map(math.isfinite, fx)):
                raise SolverError(
                    f"non-finite iterate at iteration {it}", iterate=tuple(x), residual=math.inf
                )
            res = scale * max(map(abs, map(sub, fx, x)))
            if res <= cfg.tolerance:
                return fx, StepStats(it, newton_iters, res)
            if use_newton:
                x = _newton_update(newton(x), x, fx, res)
                newton_iters += 1
            else:
                x = fx
                if allow_newton and res > _STALL_FACTOR * prev_res:
                    use_newton = True
            prev_res = res
    except OverflowError as e:
        raise SolverError(f"field evaluation overflowed: {e}", iterate=tuple(x), residual=res) from e
    raise SolverError(
        f"no convergence after {cfg.max_iterations} iterations "
        f"(residual {res:.3e}, tolerance {cfg.tolerance:.3e})",
        iterate=tuple(x),
        residual=res,
    )


def reference_polish_root(p: UniPoly, lo: Fraction, hi: Fraction, dps: int):
    """quadrature._polish_root as it was before its mpf Newton was safeguarded.

    The root of p in the isolating bracket [lo, hi], to 10^(-dps+2).

    A safeguarded Newton iteration in floats runs first: the bracket shrinks
    by the sign of p, and a step leaving it is replaced by bisection.  Its
    result seeds Newton at dps + 15 digits.  A polished root outside
    [lo, hi] raises QuadratureError.
    """
    rising = p(lo) < 0
    fcs = [float(c) for c in p.coeffs]
    a, b = float(lo), float(hi)
    x = (a + b) / 2
    for _ in range(100):
        f, df = _horner(fcs, x)
        if f == 0:
            break
        if (f > 0) == rising:
            b = x
        else:
            a = x
        last = x
        x = x - f / df if df else a  # a zero slope falls back to bisection
        if not a < x < b:
            x = (a + b) / 2
        if abs(x - last) <= ulp(last):
            break
    with mp.workdps(dps + 15):
        cs = [mp.mpf(c.numerator) / c.denominator for c in p.coeffs]
        x = mp.mpf(x)
        tol = mp.mpf(10) ** (-dps + 2)
        where = f"the isolating bracket [{float(lo)}, {float(hi)}]"
        for _ in range(50):
            f, df = _horner(cs, x)
            if f == 0:
                break
            if df == 0:
                raise QuadratureError(f"Newton met a critical point in {where}")
            step = f / df
            x = x - step
            if abs(step) < tol * max(1, abs(x)):
                break
        else:
            raise QuadratureError(f"Newton did not converge in {where}")
        if not lo <= _exact_fraction(x) <= hi:
            raise QuadratureError(f"Newton left {where}")
        return +x


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


def reference_build_M(rule, m: int) -> dict:
    """The double-bush operator's fields rows, scaled_rows, w_exact, right_family and ip_tables."""
    from avfrk.conditions import KernelStructureError, _over_common_den
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
