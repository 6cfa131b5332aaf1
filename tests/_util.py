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
