"""Shared builders for the test suite."""
import math
import random
from fractions import Fraction

from mpmath import mp

from avfrk.conditions import _factor_polys, double_bush_residual
from avfrk.hamiltonian import HamiltonianSystem, MultiPoly
from avfrk.quadrature import UniPoly
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
    """vec is a nonzero exact null vector of the operator M."""
    return any(vec) and all(sum(a * x for a, x in zip(row, vec)) == 0 for row in M.matrix_exact)


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
