import json
import logging
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from avfrk import conditions, quadrature
from avfrk.conditions import (
    KernelBasis,
    KernelElement,
    KernelStructureError,
    _eliminate,
    _exact_factors,
    _right_inverse,
    _structured_basis,
    asym_bush_residual,
    build_M,
    build_p_tilde,
    bush_residuals,
    double_bush_poly_residual,
    double_bush_residual,
    expected_rank,
    kernel_rowsum,
    rank_kernel,
    triple_bush_residual,
    uniqueness_sweep,
)
from avfrk.quadrature import (
    QuadratureError,
    UniPoly,
    _scaled,
    discrete_ip_exact,
    discrete_ip_table,
    f_poly,
    g_poly,
    legendre,
    quad_rule,
    r_poly,
)
from _util import (
    annihilated,
    avf_matrix,
    factor_matrix,
    fraction_rref,
    int_rows,
    kernel_ray_residual,
    mat_sum,
    max_entry,
    outer_matrix,
    random_unipoly,
    reference_asym_bush_residual,
    reference_build_M,
    reference_build_p_tilde,
    reference_double_bush_poly_residual,
    reference_double_bush_residual,
    reference_factor_polys,
    reference_factors,
    reference_ray_residual,
    reference_right_inverse,
    reference_rowsum_element,
    reference_triple_bush_residual,
    refuse_nodes,
)

ONE = UniPoly([1])
X = UniPoly([0, 1])
TINY = Fraction(1, 10**40)
ZETAS7 = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3), Fraction(1), Fraction(-1, 2), Fraction(2)]


def eliminated(rows, ncols):
    """_eliminate's pivots and null vectors, the integer vectors over its denominator as Fractions."""
    pivots, null, d = _eliminate(rows, ncols)
    return pivots, [[Fraction(x, d) for x in vec] for vec in null]


def kernel_key(rank, basis):
    """Everything rank_kernel certifies, as one comparable value."""
    elements = tuple((el.coords, el.u, el.v, el.structured) for el in basis.elements)
    return rank, basis.structured, basis.coords, elements


def mpf_of(fr):
    fr = Fraction(fr)
    return mp.mpf(fr.numerator) / fr.denominator


def _s2_rowsum_matrix(rule):
    """((zeta-1) 1 - 2 zeta c) b^T (I - 2C), the two-stage row-sum direction."""
    zx = rule.zeta_exact
    return outer_matrix(rule, UniPoly([zx - 1, -2 * zx]), UniPoly([1, -2]))


def parallel(P, Q):
    """Whether the nonzero polynomials P and Q are exact rational multiples of each other."""
    return len(P.coeffs) == len(Q.coeffs) and (Q.coeffs[-1] * P).coeffs == (P.coeffs[-1] * Q).coeffs


def slot_vector(s, slots):
    """Coordinate vector vec(alpha) with alpha_{k,l} = x for ((k, l), x) in slots, 1-based."""
    vec = [Fraction(0)] * (s * s)
    for (k, l), x in slots.items():
        vec[(k - 1) * s + (l - 1)] = Fraction(x)
    return vec


# c b^T and (1 - c) b^T in slot coordinates: c = (P_0 + P_1)/2 and B_1' = P_1' = 2
AVF_SLOTS = {(1, 1): Fraction(1, 4), (2, 1): Fraction(1, 4)}
SHIFTED_SLOTS = {(1, 1): Fraction(1, 4), (2, 1): Fraction(-1, 4)}


class TestBushResidualsOnAvf:
    """A = c b^T satisfies every condition the rule's order covers."""

    @pytest.mark.parametrize("s,zeta", [(2, Fraction(0)), (2, Fraction(1, 2)), (3, Fraction(0))])
    def test_double_bush(self, s, zeta):
        rule = quad_rule(s, zeta)
        A = avf_matrix(rule)
        for p in range(1, rule.order):
            for q in range(p + 1, rule.order):
                assert abs(double_bush_residual(A, rule, p, q)) < TINY

    @pytest.mark.parametrize("s,zeta", [(2, Fraction(0)), (3, Fraction(1, 2))])
    def test_poly_form_on_g_pairs(self, s, zeta):
        rule = quad_rule(s, zeta)
        A = avf_matrix(rule)
        for p in range(1, rule.order):
            for q in range(p + 1, rule.order):
                r = double_bush_poly_residual(A, rule, g_poly(p), g_poly(q))
                assert abs(r) < TINY

    def test_triple_bush(self):
        rule = quad_rule(2, 0)
        A = avf_matrix(rule)
        for P, Q, R in [
            (g_poly(1), g_poly(2), ONE),
            (g_poly(1), g_poly(2), g_poly(1)),
            (g_poly(2), g_poly(2), ONE),
        ]:
            assert abs(triple_bush_residual(A, rule, P, Q, R)) < TINY

    def test_asym_bush(self):
        for s, zeta in [(2, Fraction(0)), (2, Fraction(1)), (3, Fraction(0))]:
            rule = quad_rule(s, zeta)
            A = avf_matrix(rule)
            for q in range(1, rule.order):
                assert abs(asym_bush_residual(A, rule, q)) < TINY


class TestBushRows:
    """bush_residuals: rows from the moments for the rule's own c b^T, rows at the rounded nodes for a given A."""

    @pytest.mark.parametrize(
        "s,zeta", [(2, Fraction(0)), (3, Fraction(-1)), (3, Fraction(1, 2)), (4, Fraction(2))]
    )
    def test_exact_rows_match_mpf_rows(self, s, zeta):
        rule = quad_rule(s, zeta)
        exact = bush_residuals(rule, rule.order + 1)  # the last degree reports the rule's defect
        approx = bush_residuals(rule, rule.order + 1, avf_matrix(rule))
        assert [i for i, _ in exact] == [i for i, _ in approx]
        assert all(isinstance(r, Fraction) for _, r in exact)
        assert any(r != 0 for _, r in exact)
        assert all(isinstance(a, Fraction) for _, a in approx)
        for (i, r), (_, a) in zip(exact, approx):
            assert abs(a - r) < TINY, i

    @pytest.mark.parametrize(
        "s,zeta", [(1, Fraction(0)), (2, Fraction(1)), (3, Fraction(-1)), (4, Fraction(1, 3))]
    )
    def test_rows_below_the_order_vanish_exactly(self, s, zeta):
        rule = quad_rule(s, zeta)
        rows = bush_residuals(rule, rule.order)
        m = rule.order
        assert len(rows) == (m - 1) * (m - 2) // 2 + m * (m - 1) // 2 + (m - 1)
        assert all(r == 0 for _, r in rows)

    def test_exact_rows_never_polish(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_rounded_rule", refuse_nodes)
        assert all(r == 0 for _, r in bush_residuals(quad_rule(3, Fraction(1, 2)), 5))


class TestBushValidation:
    def setup_method(self):
        self.rule = quad_rule(2, 0)
        self.A = avf_matrix(self.rule)

    def test_double_bush_index_order(self):
        with pytest.raises(ValueError):
            double_bush_residual(self.A, self.rule, 2, 2)
        with pytest.raises(ValueError):
            double_bush_residual(self.A, self.rule, 3, 1)
        with pytest.raises(ValueError):
            double_bush_residual(self.A, self.rule, 0, 1)

    def test_poly_forms_require_zero_at_origin(self):
        bad = UniPoly([1, 1])
        with pytest.raises(ValueError):
            double_bush_poly_residual(self.A, self.rule, bad, g_poly(2))
        with pytest.raises(ValueError):
            triple_bush_residual(self.A, self.rule, g_poly(1), bad, ONE)

    def test_asym_bush_range(self):
        with pytest.raises(ValueError):
            asym_bush_residual(self.A, self.rule, 0)

    def test_matrix_shape(self):
        for bad in ([[1, 2]], [[1, 2], [3]], mp.matrix(3, 3)):
            with pytest.raises(ValueError, match="2x2"):
                asym_bush_residual(bad, self.rule, 1)
            with pytest.raises(ValueError, match="2x2"):
                bush_residuals(self.rule, 3, bad)

    def test_beyond_order_still_evaluates(self):
        # degrees past order-1 report the quadrature defect instead of zero
        r = double_bush_residual(self.A, self.rule, 1, 4)
        assert abs(r - Fraction(1, 120)) < TINY


class TestPolyResidualStructure:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_antisymmetry_and_bilinearity(self, seed):
        rng = random.Random(seed)
        rule = quad_rule(2, Fraction(1, 2))
        A = [[mp.mpf(rng.randint(-4, 4)) / 4 for _ in range(2)] for _ in range(2)]
        P = random_unipoly(rng, 3, zero_at_origin=True)
        Q = random_unipoly(rng, 3, zero_at_origin=True)
        R = random_unipoly(rng, 2, zero_at_origin=True)
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rPQ = double_bush_poly_residual(A, rule, P, Q)
        rQP = double_bush_poly_residual(A, rule, Q, P)
        assert rPQ + rQP == 0
        lhs = double_bush_poly_residual(A, rule, P + lam * R, Q)
        rhs = rPQ + lam * double_bush_poly_residual(A, rule, R, Q)
        assert lhs == rhs

    def test_zero_polynomial(self):
        # P + lam R can cancel to the zero polynomial, which vanishes at 0
        rule = quad_rule(2, Fraction(1, 2))
        A = [[mp.mpf(1) / 4] * 2] * 2
        Q = UniPoly([0, 1, 2])
        assert double_bush_poly_residual(A, rule, UniPoly([]), Q) == 0
        assert triple_bush_residual(A, rule, UniPoly([]), Q, Q) == 0

    def test_diagonal_vanishes(self):
        rng = random.Random(55)
        rule = quad_rule(2, 0)
        A = [[mp.mpf(rng.randint(-4, 4)) / 4 for _ in range(2)] for _ in range(2)]
        P = random_unipoly(rng, 3, zero_at_origin=True)
        assert double_bush_poly_residual(A, rule, P, P) == 0

    def test_monomial_specialization(self):
        rng = random.Random(56)
        rule = quad_rule(3, Fraction(1, 2))
        A = [[mp.mpf(rng.randint(-4, 4)) / 4 for _ in range(3)] for _ in range(3)]
        for p, q in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            xp = UniPoly([0] * p + [1])
            xq = UniPoly([0] * q + [1])
            poly = double_bush_poly_residual(A, rule, xp, xq)
            mono = double_bush_residual(A, rule, p, q)
            assert poly == mono


ORACLE_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2, 3)]
ORACLE_RULES = {(s, z): quad_rule(s, z) for s in (2, 3, 4) for z in ORACLE_ZETAS}


class TestMpfOracle:
    """The public residuals against separate bodies over lists of Fractions at the rounded nodes."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.sampled_from([2, 3, 4]),
        zeta=st.sampled_from(ORACLE_ZETAS),
        as_matrix=st.booleans(),
    )
    def test_agrees_with_reference(self, seed, s, zeta, as_matrix):
        rng = random.Random(seed)
        rule = ORACLE_RULES[s, zeta]
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(s)] for _ in range(s)]
        if as_matrix:
            with mp.workdps(rule.precision_digits + 15):
                A = mp.matrix([[mpf_of(x) for x in row] for row in A])
        P = random_unipoly(rng, rng.randint(1, 4), zero_at_origin=True)
        Q = random_unipoly(rng, rng.randint(1, 4), zero_at_origin=True)
        R = random_unipoly(rng, rng.randint(0, 3))
        p = rng.randint(1, 5)
        q = rng.randint(p + 1, 7)
        pairs = [
            (double_bush_residual(A, rule, p, q), reference_double_bush_residual(A, rule, p, q)),
            (double_bush_poly_residual(A, rule, P, Q), reference_double_bush_poly_residual(A, rule, P, Q)),
            (triple_bush_residual(A, rule, P, Q, R), reference_triple_bush_residual(A, rule, P, Q, R)),
            (asym_bush_residual(A, rule, q), reference_asym_bush_residual(A, rule, q)),
            (asym_bush_residual(A, rule, p), reference_asym_bush_residual(A, rule, p)),
        ]
        for new, ref in pairs:
            assert new == ref


class TestS2BasisExpansion:
    """The (1,2) condition as an affine form in the rank-one basis slots.

    For A = P_{k-1}(c) b^T V(C) the residual splits into products of
    discrete inner products, so each slot coefficient is an exact rational:

        gamma_{k,l} = <1, P_{k-1}>_D <x^2, V>_D - 2 <x, P_{k-1}>_D <x, V>_D

    with V = B_l'.  The constant term is 1/2 - 1/3 = 1/6.
    """

    X = UniPoly([0, 1])

    def exact_gamma(self, rule, u, V):
        x = self.X
        return discrete_ip_exact(ONE, u, rule) * discrete_ip_exact(
            x * x, V, rule
        ) - 2 * discrete_ip_exact(x, u, rule) * discrete_ip_exact(x, V, rule)

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1, 3)])
    def test_exact_slot_coefficients(self, zeta):
        rule = quad_rule(2, zeta)
        M = build_M(rule, 3)
        g = {
            (k, l): self.exact_gamma(rule, legendre(k), M.right_family[l].derivative())
            for k in range(2)
            for l in range(2)
        }
        assert g[0, 0] == Fraction(-1, 3)
        assert g[1, 0] == Fraction(-1, 3)
        if zeta == 0:
            # second right slot holds P_2 itself
            assert g[0, 1] == 0
            assert g[1, 1] == Fraction(-1, 3)
        else:
            assert g[0, 1] == Fraction(-1, 3) * (1 + zeta)
            assert g[1, 1] == 0

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1, 3)])
    def test_probe_matches_exact_form(self, zeta):
        rule = quad_rule(2, zeta)
        M = build_M(rule, 3)
        r0 = double_bush_residual(mp.matrix(2, 2), rule, 1, 2)
        assert r0 == Fraction(1, 6)
        for k in range(2):
            for l in range(2):
                V = M.right_family[l].derivative()
                A = outer_matrix(rule, legendre(k), V)  # the (k+1, l+1) basis slot
                probed = double_bush_residual(A, rule, 1, 2) - r0
                want = self.exact_gamma(rule, legendre(k), V)
                assert abs(probed - want) < Fraction(1, 10**42)
        # c b^T through its slot coordinates
        A = outer_matrix(rule, (legendre(0) + legendre(1)) * Fraction(1, 4), legendre(1).derivative())
        assert abs(double_bush_residual(A, rule, 1, 2)) < TINY


class TestPTilde:
    def test_right_endpoint_family(self):
        for s in (3, 4, 5):
            pt = build_p_tilde(quad_rule(s, 1))
            assert -2 * pt == legendre(s) + legendre(s - 1) - 2 * legendre(1)

    def test_gauss_family(self):
        for s in (3, 4, 5):
            pt = build_p_tilde(quad_rule(s, 0))
            assert -1 * pt == legendre(2) - legendre(1)

    def test_left_endpoint_fallback(self):
        for s in (3, 4):
            rule = quad_rule(s, -1)
            pt = build_p_tilde(rule)
            assert pt == legendre(s) - legendre(s - 1)
            # the defining nondegeneracy fails here: G_2 pairing vanishes
            assert discrete_ip_exact(pt.derivative(), g_poly(2), rule) == 0

    def test_orthogonality_properties(self):
        for s, zeta in [(4, Fraction(1, 2)), (5, Fraction(2))]:
            rule = quad_rule(s, zeta)
            pt = build_p_tilde(rule)
            ptd = pt.derivative()
            for r in range(1, s - 1):
                assert discrete_ip_exact(ptd, f_poly(s + r, s, zeta), rule) == 0
            assert pt.degree == s
            assert discrete_ip_exact(ptd, g_poly(2), rule) != 0

    def test_small_s_rejected(self):
        with pytest.raises(ValueError):
            build_p_tilde(quad_rule(1, 0))

    @pytest.mark.parametrize(
        "s,zeta,shift,match",
        [
            (4, Fraction(1, 2), None, "singular"),
            (4, Fraction(1, 2), 1, "orthogonality against F_5 failed"),
            (2, Fraction(1, 2), 1, "do not sum to zero"),
        ],
    )
    def test_checks_fire(self, monkeypatch, s, zeta, shift, match):
        # a singular Gamma system, and a solution off the orthogonality or the zero sum
        # (s = 2 has no F rows to be orthogonal to), are refused in build_p_tilde and build_M
        real = conditions._solve

        def solve(rows, rhs):  # each unknown x / d moved by shift
            if shift is None:
                return None
            x, d = real(rows, rhs)
            return [v + shift * d for v in x], d

        rule = quad_rule(s, zeta)
        monkeypatch.setattr(conditions, "_solve", solve)
        with pytest.raises(KernelStructureError, match=match):
            build_p_tilde(rule)
        with pytest.raises(KernelStructureError, match=match):
            build_M(rule, 2 * s - 1)


OPERATOR_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2, 3), Fraction(-1, 2), Fraction(1, 3)]


@lru_cache(maxsize=None)
def operator_rule(s, zeta):
    try:
        return quad_rule(s, zeta)
    except QuadratureError:
        return None


class TestOperatorOracle:
    """build_M on integer moment rows against its Fraction form (_util.reference_build_M)."""

    @pytest.mark.parametrize("s,zeta", [(s, z) for s in range(2, 13) for z in OPERATOR_ZETAS])
    def test_equal_to_reference(self, s, zeta):
        rule = operator_rule(s, zeta)
        if rule is None:
            pytest.skip("no real rule")
        for m in (2 * s, 2 * s - 1):
            if m == 2 * s and zeta != 0:
                continue
            M = build_M(rule, m)
            want = reference_build_M(rule, m)
            got = {name: getattr(M, name) for name in want}
            assert got == want
            assert all(type(w) is Fraction for w in M.w_exact)
            if m == 2 * s - 1:
                assert build_p_tilde(rule) == reference_build_p_tilde(rule)

    def test_closed_form_right_hand_side(self):
        # w_exact = P(1) int Q - Q(1) int P over the polynomial pairs (G_p, G_q) or (F_p, F_q)
        for s in range(1, 13):
            for zeta, m in [(Fraction(0), 2 * s), (Fraction(0), 2 * s - 1), (Fraction(1, 2), 2 * s - 1)]:
                if m < 2 * s and s < 2:
                    continue
                M = build_M(operator_rule(s, zeta), m)
                P = [g_poly(q) if m == 2 * s else f_poly(q, s, zeta) for q in range(1, m)]
                ends = [(p(1), p.integral()(1)) for p in P]
                want = tuple(ends[p - 1][0] * ends[q - 1][1] - ends[q - 1][0] * ends[p - 1][1] for p, q in M.rows)
                assert M.w_exact == want
                assert want[:1] == (() if s == 1 else (Fraction(-1, 6),)) and not any(want[1:])


class TestBuildM:
    def test_shapes_and_rows(self):
        rule = quad_rule(3, 0)
        M = build_M(rule, 6)
        assert M.basis_kind == "even"
        assert M.n_conditions == 10  # (m-1)(m-2)/2
        assert M.n_coeffs == 9
        assert M.rows[0] == (1, 2)
        assert M.rows[-1] == (4, 5)
        assert len(M.matrix_exact) == len(M.w_exact) == 10
        assert all(len(row) == 9 for row in M.matrix_exact)

    def test_inhomogeneous_side(self):
        assert build_M(quad_rule(2, Fraction(1, 2)), 3).w_exact == (Fraction(-1, 6),)
        assert build_M(quad_rule(2, 0), 4).w_exact == (
            Fraction(-1, 6),
            Fraction(0),
            Fraction(0),
        )

    def test_avf_solves_system(self):
        for s, m, zeta in [(2, 4, 0), (3, 6, 0), (3, 5, Fraction(1, 2)), (4, 7, Fraction(-1))]:
            M = build_M(quad_rule(s, zeta), m)
            x = slot_vector(s, AVF_SLOTS)
            assert [sum(a * b for a, b in zip(row, x)) for row in M.matrix_exact] == list(M.w_exact)
            assert any(M.w_exact)

    def test_shifted_weight_matrix_in_kernel(self):
        # (1 - c) b^T is annihilated by the homogeneous part
        for s, m, zeta in [(2, 4, 0), (3, 6, 0), (3, 5, Fraction(1))]:
            M = build_M(quad_rule(s, zeta), m)
            assert (legendre(0) - legendre(1)) * Fraction(1, 4) * M.right_family[0].derivative() == ONE - X
            assert annihilated(M, slot_vector(s, SHIFTED_SLOTS))

    @pytest.mark.parametrize(
        "s,m,zeta", [(2, 4, 0), (3, 6, 0), (3, 5, Fraction(1, 2)), (4, 7, Fraction(-1)), (5, 9, Fraction(2, 3))]
    )
    def test_rows_from_ip_tables(self, s, m, zeta):
        # the kernel check works on these integer tables, so they must give every row
        M = build_M(quad_rule(s, zeta), m)
        lip, rip = M.ip_tables
        ints = [
            [lip[p - 1][k] * rip[q - 1][l] - lip[q - 1][k] * rip[p - 1][l] for k in range(s) for l in range(s)]
            for p, q in M.rows
        ]
        assert all(isinstance(x, int) for row in ints for x in row)
        i, j = next((i, j) for i, row in enumerate(ints) for j, x in enumerate(row) if x)
        d = Fraction(ints[i][j]) / M.matrix_exact[i][j]
        assert d > 0
        assert [[Fraction(x) / d for x in row] for row in ints] == [list(r) for r in M.matrix_exact]

    @pytest.mark.parametrize(
        "s,m,zeta",
        [(2, 4, 0), (2, 3, Fraction(1, 2)), (3, 6, 0), (3, 5, Fraction(-1)), (4, 7, 0), (5, 9, Fraction(2, 3))],
    )
    def test_matrix_exact_is_the_fraction_formula(self, s, m, zeta):
        # row (p, q) is L_p (x) R_q - L_q (x) R_p over the Fraction inner-product
        # tables, and ip_tables are those tables over common denominators
        rule = quad_rule(s, zeta)
        M = build_M(rule, m)
        if M.basis_kind == "even":
            left, integ = [legendre(p) for p in range(m - 1)], [g_poly(q) for q in range(1, m)]
        else:
            left = [r_poly(p, s, rule.zeta_exact) for p in range(m - 1)]
            integ = [f_poly(q, s, rule.zeta_exact) for q in range(1, m)]
        L = discrete_ip_table(left, [legendre(k) for k in range(s)], rule)
        R = discrete_ip_table(integ, [B.derivative() for B in M.right_family], rule)
        want = tuple(
            tuple(L[p - 1][k] * R[q - 1][l] - L[q - 1][k] * R[p - 1][l] for k in range(s) for l in range(s))
            for p, q in M.rows
        )
        assert M.matrix_exact == want
        assert M.scaled_rows == tuple((tuple(r), d) for r, d in map(_scaled, want))
        for ints, table in zip(M.ip_tables, (L, R)):
            d = _scaled([x for row in table for x in row])[1]
            assert [list(r) for r in ints] == [[x * d for x in row] for row in table]

    def test_odd_high_index_rows_vanish(self):
        # for p >= s+1 both polynomial factors are multiples of the node
        # polynomial, so the transformed conditions are identically zero
        rule = quad_rule(4, Fraction(1, 2))
        M = build_M(rule, 7)
        found = 0
        for i, (p, q) in enumerate(M.rows):
            if p >= rule.s + 1:
                found += 1
                assert all(x == 0 for x in M.matrix_exact[i])
                assert M.w_exact[i] == 0
        assert found >= 1

    @pytest.mark.parametrize(
        "s,zeta",
        [(s, z) for s in range(2, 9) for z in (Fraction(1, 2), Fraction(-1), Fraction(1, 3), Fraction(1))],
    )
    def test_vanishing_left_rows_equal_the_unskipped_construction(self, s, zeta):
        # build_M sets the lip rows of R_l, l >= s, to zero without forming them;
        # the construction from every R_l gives the same operator, bit for bit
        rule = quad_rule(s, zeta)
        m = 2 * s - 1
        M = build_M(rule, m)
        left = [r_poly(p, s, zeta) for p in range(m - 1)]
        integ = [f_poly(q, s, zeta) for q in range(1, m)]
        L = discrete_ip_table(left, [legendre(k) for k in range(s)], rule)
        R = discrete_ip_table(integ, [B.derivative() for B in M.right_family], rule)
        assert all(x == 0 for row in L[s:] for x in row)
        rows = [
            [L[p - 1][k] * R[q - 1][l] - L[q - 1][k] * R[p - 1][l] for k in range(s) for l in range(s)]
            for p, q in M.rows
        ]
        assert M.scaled_rows == tuple((tuple(r), d) for r, d in map(_scaled, rows))
        ends = [(P(1), P.integral()(1)) for P in integ]
        assert M.w_exact == tuple(ends[p - 1][0] * ends[q - 1][1] - ends[q - 1][0] * ends[p - 1][1] for p, q in M.rows)
        tables = []
        for table in (L, R):
            d = _scaled([x for row in table for x in row])[1]
            tables.append(tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in table))
        assert M.ip_tables == tuple(tables)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            build_M(quad_rule(2, Fraction(1, 2)), 4)  # even mode needs zeta = 0
        with pytest.raises(ValueError):
            build_M(quad_rule(2, 0), 6)  # m must be 2s or 2s-1

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2)])
    def test_one_stage_odd_degree_rejected(self, zeta):
        # m = 2s - 1 = 1 has no conditions and no substituted right slot
        rule = quad_rule(1, zeta)
        with pytest.raises(ValueError, match="s >= 2"):
            build_M(rule, 1)
        with pytest.raises(ValueError, match="s >= 2"):
            uniqueness_sweep(rule, 1)

    def test_coordinate_roundtrip(self):
        # coordinates and tableaux correspond one to one: P_0..P_{s-1} and the
        # right family's derivatives B_l' are both bases of degree < s (for
        # m = 2s-1 at zeta = 0 only because slot 2 holds P_s in place of P_2)
        for s, zeta, m in [(3, 0, 6), (3, 0, 5), (4, 0, 7), (4, Fraction(1, 2), 7), (4, -1, 7)]:
            M = build_M(quad_rule(s, zeta), m)
            derivs = [B.derivative().coeffs for B in M.right_family]
            cols = [[d[i] if i < len(d) else 0 for d in derivs] for i in range(s)]
            assert len(_eliminate(int_rows(cols), s)[0]) == s

    @pytest.mark.parametrize("s, zeta", [(3, Fraction(0)), (5, Fraction(-1)), (16, Fraction(1, 2))])
    def test_rows_independent_of_held_moments(self, s, zeta):
        # the moments, their rows, and so build_M's cost do not grow with the moments a rule holds
        def tables(rule):
            left = [[c.numerator for c in legendre(l).coeffs] for l in range(2 * s)]
            integrated = [conditions._integrated_rows(rule, range(1, 2 * s - 1), odd) for odd in (True, False)]
            return quadrature._moment_rows(left, rule, s), integrated

        def operator(M):
            return M.rows, M.scaled_rows, M.w_exact, M.right_family, M.ip_tables

        warm = quad_rule(s, zeta)
        warm.moments(200)
        assert warm._moment_ints(2 * s) == quad_rule(s, zeta)._moment_ints(2 * s)
        assert tables(warm) == tables(quad_rule(s, zeta))
        for m in [2 * s - 1] + [2 * s] * (zeta == 0):
            assert operator(build_M(warm, m)) == operator(build_M(quad_rule(s, zeta), m))

    @pytest.mark.parametrize(
        "s,zeta,m",
        [(3, Fraction(0), 6), (3, Fraction(1, 2), 5), (4, Fraction(0), 7), (4, Fraction(-1), 7)],
    )
    def test_avf_coords_match_float_basis(self, s, zeta, m):
        # the slots build_M checks exactly, mapped through the float basis matrices, are c b^T
        M = build_M(quad_rule(s, zeta), m)
        A = [[0] * s for _ in range(s)]
        for (k, l), x in AVF_SLOTS.items():
            A = mat_sum(A, outer_matrix(M.rule, legendre(k - 1), M.right_family[l - 1].derivative()), x)
        assert max_entry(mat_sum(A, avf_matrix(M.rule), -1)) < Fraction(1, 10**40)

    def test_exact_avf_check(self, monkeypatch):
        # an operator that c b^T does not solve exactly is refused: every moment row
        # the operator is formed from, left and right, skewed by 1001/1000
        real = conditions._moment_rows

        def skewed(polys, rule, n):
            rows, d = real(polys, rule, n)
            return [[1001 * x for x in row] for row in rows], 1000 * d

        rules = [(quad_rule(2, 0), 4), (quad_rule(3, Fraction(1, 2)), 5)]
        monkeypatch.setattr(conditions, "_moment_rows", skewed)
        for rule, m in rules:
            with pytest.raises(KernelStructureError, match="exactly"):
                build_M(rule, m)
        monkeypatch.undo()
        for rule, m in rules:
            build_M(rule, m)

    def test_logged(self, caplog):
        # one DEBUG record per call, like rank_kernel's
        rules = [quad_rule(3, Fraction(1, 2)), quad_rule(2, 0)]
        with caplog.at_level(logging.DEBUG, logger="avfrk"):
            build_M(rules[0], 5)
            build_M(rules[1], 4)
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.conditions"]
        assert len(got) == 2
        assert got[0].startswith("build_M: s 3, m 5, odd, 6 rows, ")
        assert got[1].startswith("build_M: s 2, m 4, even, 3 rows, ")
        assert all(m.endswith(" ms") and float(m.split(", ")[-1][:-3]) >= 0 for m in got)

    def test_avf_coords_slots(self):
        # c b^T = (P_0 + P_1)/4 b^T B_1'(C): B_1 = P_1 in every right family
        for s, zeta, m in [(2, 0, 4), (2, 0, 3), (3, Fraction(1, 2), 5), (4, -1, 7)]:
            B1 = build_M(quad_rule(s, zeta), m).right_family[0]
            assert B1 == legendre(1)
            assert (legendre(0) + legendre(1)) * Fraction(1, 4) * B1.derivative() == X

    def test_immutable(self):
        M = build_M(quad_rule(2, 0), 4)
        with pytest.raises(AttributeError):
            M.m = 5


def _rational_matrix(draw, nrows, ncols):
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))


@st.composite
def degenerate_matrices(draw):
    """(rows, ncols): a random rational matrix with zero rows, zero columns and repeated rows spliced in."""
    ncols = draw(st.integers(1, 7))
    rows = _rational_matrix(draw, draw(st.integers(0, 7)), ncols)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows, ncols


@st.composite
def full_rank_matrices(draw):
    """(rows, ncols): a lower-unitriangular matrix times a random one with nonzero diagonal, rows permuted."""
    n = draw(st.integers(1, 6))
    ncols = n + draw(st.integers(0, 2))
    U = _rational_matrix(draw, n, ncols)
    for i in range(n):
        U[i] = [Fraction(0)] * i + [draw(st.sampled_from([Fraction(-2), Fraction(1), Fraction(3, 2)]))] + U[i][i + 1 :]
    L = _rational_matrix(draw, n, n)
    rows = [[sum(L[i][k] * U[k][j] for k in range(i)) + U[i][j] for j in range(ncols)] for i in range(n)]
    return draw(st.permutations(rows)), ncols


class TestEliminate:
    @given(degenerate_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_rref(self, case):
        rows, ncols = case
        assert eliminated(int_rows(rows), ncols) == fraction_rref(rows, ncols)

    @given(full_rank_matrices())
    @settings(max_examples=100, deadline=None)
    def test_full_rank(self, case):
        rows, ncols = case
        pivots, null = eliminated(int_rows(rows), ncols)
        assert len(pivots) == len(rows)
        assert (pivots, null) == fraction_rref(rows, ncols)

    @pytest.mark.parametrize("s,zeta,m", [(4, 0, 8), (5, Fraction(1, 2), 9), (6, Fraction(-1), 11)])
    def test_operator_rows(self, s, zeta, m):
        # the operator's own integer rows: the same pivots and kernel as the Fraction reference
        M = build_M(quad_rule(s, zeta), m)
        assert eliminated([r for r, _ in M.scaled_rows], s * s) == fraction_rref(M.matrix_exact, s * s)


def right_columns(M):
    """The right family's Legendre coordinates C, the operator's integer columns over dc, as Fractions."""
    cols, dc = M._C
    return [[Fraction(x, dc) for x in col] for col in cols]


class TestRightInverse:
    """C^-1 in closed form against one elimination of [C | -I]."""

    @pytest.mark.parametrize("s", range(2, 25))
    def test_equal_to_elimination(self, s):
        for zeta in ZETAS7:
            for m in [2 * s - 1] + [2 * s] * (zeta == 0):
                M = build_M(quad_rule(s, zeta, 15), m)
                C = right_columns(M)
                T, dt = _right_inverse(M._C)
                assert dt > 0
                # C T = dt I exactly, with C's columns as Fractions
                for i in range(s):
                    assert [sum(C[k][i] * T[k][j] for k in range(s)) for j in range(s)] == [dt * (i == j) for j in range(s)]
                T0, d0 = reference_right_inverse(C)
                assert [[Fraction(x, dt) for x in row] for row in T] == [[Fraction(x, d0) for x in row] for row in T0]

    def test_columns_filled(self):
        # p~ in slot s, and P_s in slot 2 at zeta = 0 (s > 2): at most two columns differ from I
        for s in (2, 3, 5):
            for zeta in ZETAS7:
                C = right_columns(build_M(quad_rule(s, zeta), 2 * s - 1))
                J = [l for l in range(s) if list(C[l]) != [int(k == l) for k in range(s)]]
                assert J == ([] if s == 2 and zeta == 0 else [1, s - 1] if zeta == 0 else [s - 1]), (s, zeta)

    def test_singular_block(self):
        one, zero = Fraction(1), Fraction(0)
        unit = lambda s, k: [one if i == k else zero for i in range(s)]
        # _right_inverse takes the columns as integers over one denominator
        ints = lambda C: (lambda flat, d: ([flat[i : i + len(C)] for i in range(0, len(flat), len(C))], d))(
            *_scaled([x for col in C for x in col])
        )
        # one column whose diagonal entry vanishes: D = [[0]]
        C = [unit(4, l) for l in range(4)]
        C[3] = [one, Fraction(2), Fraction(-3), zero]
        assert _right_inverse(ints(C)) is None and reference_right_inverse(C) is None
        # two columns: D = [[0, 0], [1, 1]] in slots 2 and s
        C = [unit(4, l) for l in range(4)]
        C[1], C[3] = unit(4, 3), [Fraction(1, 2), zero, Fraction(5), one]
        assert _right_inverse(ints(C)) is None and reference_right_inverse(C) is None
        # and the same two columns with D = [[0, 3], [1, 1]] invertible
        C[3] = [Fraction(1, 2), Fraction(3), Fraction(5), one]
        T, dt = _right_inverse(ints(C))
        assert [[Fraction(x, dt) for x in row] for row in T] == [
            [Fraction(x, d0) for x in row] for T0, d0 in [reference_right_inverse(C)] for row in T0
        ]
        assert _right_inverse(ints([unit(3, l) for l in range(3)])) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)


class TestExpectedRank:
    def test_table(self):
        assert expected_rank(3, 6, 0) == 8
        assert expected_rank(3, 5, Fraction(1, 2)) == 6
        assert expected_rank(3, 5, Fraction(-1)) == 5
        assert expected_rank(5, 9, Fraction(2)) == 22
        assert expected_rank(5, 9, Fraction(-1)) == 19
        assert expected_rank(2, 4, 0) == 3

    def test_outside_table(self):
        assert expected_rank(3, 4, 0) is None
        assert expected_rank(2, 7, 0) is None


class TestRankKernel:
    def test_even_two_stage(self):
        rule = quad_rule(2, 0)
        M = build_M(rule, 4)
        rank, basis = rank_kernel(M)
        assert rank == 3
        assert basis.dim == 1
        el = basis.elements[0]
        assert el.structured
        assert el.u == (1, -1) and el.v == (1, 0)
        # a nonzero multiple of (1 - c) b^T
        x = slot_vector(2, SHIFTED_SLOTS)
        assert el.coords[0] and [a * x[0] for a in el.coords] == [el.coords[0] * a for a in x]

    def test_odd_two_stage(self):
        rank, basis = rank_kernel(build_M(quad_rule(2, Fraction(1, 2)), 3))
        assert rank == 1
        assert basis.dim == 3
        assert basis.structured

    def test_odd_generic_structure(self):
        rule = quad_rule(3, Fraction(1, 2))
        M = build_M(rule, 5)
        rank, basis = rank_kernel(M)
        assert rank == 6
        assert basis.dim == 3
        assert basis.structured
        n1, n2, n3 = basis.elements
        assert n1.u == (1, -1, 0) and n1.v == (1, 0, 0)
        # pinned slots of the interior elements
        assert n2.u[0] == 1 and n2.u[1] == 0 and n2.v[0] == 0
        assert n3.u[0] == 0 and n3.u[1] == 1
        # U^3 = U^2 - U^1 and V^3 = V^2 + v_1^(3) V^1
        u_rel = [a - b + c for a, b, c in zip(n3.u, n2.u, n1.u)]
        assert all(x == 0 for x in u_rel)
        v_rel = [a - b - n3.v[0] * c for a, b, c in zip(n3.v, n2.v, n1.v)]
        assert all(x == 0 for x in v_rel)

    def test_odd_gauss_structure(self):
        rank, basis = rank_kernel(build_M(quad_rule(3, 0), 5))
        assert rank == 6
        assert basis.dim == 3
        us = {el.u for el in basis.elements}
        assert (1, 0, -1) in us
        assert (0, 1, -1) in us
        vs = {el.v for el in basis.elements}
        assert (0, 1, 0) in vs
        assert (1, -1, 0) in vs

    def test_left_endpoint_basis(self):
        rule = quad_rule(3, -1)
        M = build_M(rule, 5)
        rank, basis = rank_kernel(M)
        assert rank == 5  # s^2 - s - 1
        assert basis.dim == 4
        assert basis.structured
        # one element per P_{i-1}(c) b^T (P_s' - P_{s-1}')(C), plus 4(1-c)b^T
        tails = [el.v for el in basis.elements[1:]]
        assert all(v == (0, -1, 1) for v in tails)
        assert sorted(el.u for el in basis.elements[1:]) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_kernel_elements_annihilated(self):
        # independent of the operator's coordinates: c b^T + N/|N|, with N in
        # mpf from each element's exact factors, passes every double-bush condition
        zetas = (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(1, 3))
        cases = [(s, z, 2 * s - 1) for s in range(2, 7) for z in zetas]
        for s, zeta, m in cases + [(s, Fraction(0), 2 * s) for s in range(2, 7)]:
            M = build_M(quad_rule(s, zeta), m)
            for el in rank_kernel(M)[1].elements:
                assert annihilated(M, el.coords)
                assert kernel_ray_residual(M, el.u, el.v) < Fraction(1, 10**35), (s, zeta, m)

    def test_kernel_matrix_rank_at_most_two(self):
        s = 4
        M = build_M(quad_rule(s, Fraction(1)), 7)
        _, basis = rank_kernel(M)
        for el in basis.elements:
            alpha = [el.coords[k * s : (k + 1) * s] for k in range(s)]
            assert len(_eliminate(int_rows(alpha), s)[0]) == 1

    def test_factor_polys_reproduce_matrix(self):
        # coords = u (x) w with V = sum w_l B_l', for the V of factor_polys
        s = 3
        M = build_M(quad_rule(s, Fraction(1, 2)), 5)
        _, basis = rank_kernel(M)
        for el in basis.elements:
            U, V = el.factor_polys()
            assert U == sum((uk * legendre(k) for k, uk in enumerate(el.u)), UniPoly([]))
            k0 = next(k for k, uk in enumerate(el.u) if uk)
            w = [x / el.u[k0] for x in el.coords[k0 * s : (k0 + 1) * s]]
            assert list(el.coords) == [uk * wl for uk in el.u for wl in w]
            assert sum((wl * B.derivative() for wl, B in zip(w, M.right_family)), UniPoly([])) == V

    @pytest.mark.parametrize(
        "s,zeta,m",
        [(s, z, 2 * s - 1) for s in range(2, 9) for z in (Fraction(0), Fraction(1, 2), Fraction(-1))]
        + [(s, Fraction(0), 2 * s) for s in range(2, 9)]
        + [(s, Fraction(z), 2 * s - 1) for s in range(2, 9) for z in ("2/3", 1, "-1/2", 2)],
    )
    def test_exact_kernel(self, s, zeta, m):
        rule = quad_rule(s, zeta)
        M = build_M(rule, m)
        rank, basis = rank_kernel(M)
        assert rank == expected_rank(s, m, zeta)
        assert basis.structured
        assert basis.dim == len(basis.coords) == s * s - rank
        for vec in basis.coords + tuple(el.coords for el in basis.elements):
            assert annihilated(M, vec)
        # the certified path gives exactly what Bareiss elimination and the table give
        pivots, null = eliminated([r for r, _ in M.scaled_rows], s * s)
        assert rank == len(pivots)
        assert kernel_key(rank, basis) == kernel_key(rank, _structured_basis(M, len(null)))
        assert basis.coords == tuple(map(tuple, null))

    @pytest.mark.parametrize(
        "wrong",
        [
            # independent pairs outside the kernel
            [([1, 0, 0], [0, 0, 1]), ([0, 1, 0], [0, 0, 1]), ([0, 0, 1], [0, 0, 1])],
            # a kernel element three times: annihilated but of rank one
            [([1, -1, 0], [1, 0, 0])] * 3,
        ],
    )
    def test_unstructured_fallback(self, monkeypatch, caplog, wrong):
        # a factor table that is no basis of the kernel leaves Bareiss' raw null space
        # the table holds each factor as integers over a denominator
        monkeypatch.setattr(conditions, "_structural_factor_table", lambda rule, kind: [((u, 1), (v, 1)) for u, v in wrong])
        M = build_M(quad_rule(3, Fraction(1, 2)), 5)
        with caplog.at_level(logging.DEBUG, logger="avfrk.conditions"):
            rank, basis = rank_kernel(M)
        assert caplog.records[-1].getMessage().startswith(
            "rank_kernel: s 3, m 5, rank 6, nullity 3, k 2, r 2, structured False, "
        )
        assert rank == 6 and basis.dim == 3
        assert not basis.structured
        assert all(not el.structured for el in basis.elements)
        assert tuple(el.coords for el in basis.elements) == basis.coords
        pivots, null, d = _eliminate([r for r, _ in M.scaled_rows], 9)
        raw = [KernelElement((vec, d), _exact_factors(M, (vec, d))) for vec in null]
        assert kernel_key(rank, basis) == kernel_key(len(pivots), KernelBasis(raw, null, d, False))
        assert kernel_rowsum(M) is not None

    @pytest.mark.parametrize("s,zeta,m", [(3, Fraction(1, 2), 5), (4, Fraction(-1), 7), (4, Fraction(0), 8)])
    def test_structured_path_reads_no_operator_row(self, monkeypatch, s, zeta, m):
        # the rank and the closed-form kernel come from the s-column tables alone
        want = kernel_key(*rank_kernel(build_M(quad_rule(s, zeta), m)))

        def refuse(self):
            raise AssertionError("an operator row was formed")

        monkeypatch.setattr(conditions.MOperator, "scaled_rows", property(refuse))
        M = build_M(quad_rule(s, zeta), m)
        with pytest.raises(AssertionError, match="operator row"):
            M.matrix_exact
        assert kernel_key(*rank_kernel(M)) == want

    @pytest.mark.parametrize("s", range(2, 9))
    def test_no_path_forms_the_family_polynomials(self, monkeypatch, s):
        # the operator, kernel, row-sum direction and sweep read the family's Legendre coordinates alone
        zetas = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3), Fraction(1), Fraction(-1, 2), Fraction(2)]
        cases = [(z, m) for z in zetas for m in [2 * s - 1] + [2 * s] * (z == 0)]

        def certify(zeta, m):
            rule = quad_rule(s, zeta)
            M = build_M(rule, m)
            N = kernel_rowsum(M)
            row_sum = None if N is None else (N.coords, N.u, N.v, N.structured)
            return kernel_key(*rank_kernel(M)), row_sum, uniqueness_sweep(rule, m)

        want = [certify(*case) for case in cases]

        def refuse(self):
            raise AssertionError("the right family's polynomials were formed")

        monkeypatch.setattr(conditions.MOperator, "right_family", property(refuse))
        with pytest.raises(AssertionError, match="polynomials were formed"):
            build_M(quad_rule(s, Fraction(1, 2)), 2 * s - 1).right_family
        assert [certify(*case) for case in cases] == want

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (0, 2), (2, 1)])
    def test_left_table_not_diagonal(self, i, j):
        # the first s rows of lip must be diag(1/(2k+1)) over the tables' denominator
        M = build_M(quad_rule(3, Fraction(1, 2)), 5)
        lip, rip = M.ip_tables
        lip = [list(row) for row in lip]
        lip[i][j] += 1
        bad = conditions.MOperator(M.rule, M.m, M.basis_kind, M.rows, M.w_exact, M._C, (lip, rip), M._den)
        with pytest.raises(KernelStructureError, match=r"diag\(1/\(2k\+1\)\)"):
            rank_kernel(bad)

    def test_one_stage_kernel(self):
        # (1 - c) b^T has one left coordinate at s = 1, like every vector of the one-column operator
        rank, basis = rank_kernel(build_M(quad_rule(1, 0), 2))
        assert rank == 0 and basis.structured
        (el,) = basis.elements
        assert len(basis.coords[0]) == len(el.coords) == len(el.u) == len(el.v) == 1

    @pytest.mark.parametrize(
        "s,zeta",
        [(s, z) for s in range(2, 7) for z in (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3))],
    )
    def test_exact_factors_of_structured_elements(self, s, zeta):
        # the factors read off the exact coordinates reproduce each closed-form pair
        M = build_M(quad_rule(s, zeta), 2 * s - 1)
        _, basis = rank_kernel(M)
        assert basis.structured
        for el in basis.elements:
            (uz, du), (vz, dv) = _exact_factors(M, _scaled(el.coords))
            assert du > 0 and dv > 0
            assert [Fraction(a * b, du * dv) for a in uz for b in vz] == [a * b for a in el.u for b in el.v]
            assert (tuple(Fraction(x, du) for x in uz), tuple(Fraction(x, dv) for x in vz)) == reference_factors(M, el.coords)
        two = [a + b for a, b in zip(basis.elements[0].coords, basis.elements[1].coords)]
        assert reference_factors(M, two) is None
        assert _exact_factors(M, _scaled(two)) is None  # a sum of two independent rank-one elements
        assert _exact_factors(M, ([0] * (s * s), 1)) is None


    @pytest.mark.parametrize("wrong", [False, True])
    def test_logged_parts(self, monkeypatch, caplog, wrong):
        # the time of _kernel_ranks, the factor table, the annihilation check and the _null_form, then the call's
        if wrong:  # a table that fails the check: its parts read 0
            monkeypatch.setattr(conditions, "_structural_factor_table", lambda rule, kind: [(([1, 0, 0], 1), ([0, 0, 1], 1))] * 3)
        M = build_M(quad_rule(3, Fraction(1, 2)), 5)
        with caplog.at_level(logging.DEBUG, logger="avfrk.conditions"):
            rank_kernel(M)
        (msg,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rank_kernel")]
        fields = msg[len("rank_kernel: ") :].split(", ")
        assert fields[:7] == ["s 3", "m 5", "rank 6", "nullity 3", "k 2", "r 2", f"structured {not wrong}"]
        names = [f.rsplit(" ", 2)[0] for f in fields[7:-1]]
        assert names == ["ranks", "table", "check", "null form"]
        assert all(f.endswith(" ms") for f in fields[7:])
        parts = [float(f.rsplit(" ", 2)[-2]) for f in fields[7:]]
        assert all(x >= 0 for x in parts) and sum(parts[:-1]) <= parts[-1] + 0.004
        assert not wrong or parts[2] == parts[3] == 0

    def test_logged(self, caplog):
        # build_M logs on the same logger, so the operators are built first
        ops = [build_M(quad_rule(3, Fraction(1, 2)), 5), build_M(quad_rule(2, 0), 4)]
        with caplog.at_level(logging.DEBUG, logger="avfrk"):
            rank_kernel(ops[0])
            rank_kernel(ops[1])
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.conditions"]
        assert len(got) == 2
        assert got[0].startswith("rank_kernel: s 3, m 5, rank 6, nullity 3, k 2, r 2, structured True, ")
        assert got[1].startswith("rank_kernel: s 2, m 4, rank 3, nullity 1, k 1, r 1, structured True, ")
        assert all(m.endswith(" ms") and float(m.split(", ")[-1][:-3]) >= 0 for m in got)


class TestKernelElement:
    """Elements hold integers over positive denominators and form their Fractions on access."""

    def test_coords_formed_once_on_access(self):
        _, basis = rank_kernel(build_M(quad_rule(4, Fraction(1, 2)), 7))
        for el in basis.elements:
            ints, den = el._ints
            assert el._coords is None
            coords = el.coords
            assert coords is el.coords
            assert coords == tuple(Fraction(x, den) for x in ints)
            (uz, du), (vz, dv) = el._factors
            assert (el.u, el.v) == (tuple(Fraction(x, du) for x in uz), tuple(Fraction(x, dv) for x in vz))

    def test_immutable(self):
        _, basis = rank_kernel(build_M(quad_rule(3, Fraction(1, 2)), 5))
        for el in (basis.elements[0], KernelElement(([1], 1))):
            for name in ("coords", "_coords", "_ints", "u", "structured"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(el, name, None)

    def test_repr(self):
        _, basis = rank_kernel(build_M(quad_rule(3, Fraction(1, 2)), 5))
        el = basis.elements[1]
        assert repr(el) == "KernelElement(structured, s=3)" and el._coords is None
        assert repr(KernelElement(([0] * 9, 1))) == "KernelElement(raw, s=3)"

    @staticmethod
    def integers(el):
        """el holds its coordinates and factors as integers over positive denominators."""
        for ints, d in [el._ints, *(el._factors or ())]:
            assert d > 0 and all(type(x) is int for x in ints)

    def check(self, M, el, coords):
        """el holds integers, and its accessors equal the Fraction references for the direction coords."""
        self.integers(el)
        assert el.coords == tuple(coords)
        ref = reference_factors(M, coords)
        if ref is None:
            assert el._factors is None and el.u is el.v is el.v0 is el.factor_polys() is None
            return
        u, v = ref
        assert (el.u, el.v, el.v0) == (u, v, -sum(v))
        assert el.factor_polys() == reference_factor_polys(u, v)

    @pytest.mark.parametrize("s", range(2, 7))
    @pytest.mark.parametrize("fallback", [False, True])
    def test_integer_path(self, monkeypatch, s, fallback):
        # the closed-form basis, the unstructured fallback and kernel_rowsum all hold integer elements
        if fallback:
            monkeypatch.setattr(conditions, "_structured_basis", lambda *a: None)
        for zeta in ZETAS7:
            for m in [2 * s - 1] + [2 * s] * (zeta == 0):
                M = build_M(quad_rule(s, zeta), m)
                _, basis = rank_kernel(M)
                assert basis.structured is not fallback
                null = fraction_rref(M.matrix_exact, s * s)[1]
                assert len(null) == len(basis.elements)
                for el, vec in zip(basis.elements, null):
                    # a fallback element is a raw null vector, by plain Gauss-Jordan over Fractions;
                    # a closed-form one holds its table's factors, not those read off its coords
                    if fallback:
                        self.check(M, el, vec)
                    else:
                        self.integers(el)
                N = kernel_rowsum(M)
                alpha = reference_rowsum_element(M, basis)
                assert (N is None) is (alpha is None) is (m == 2 * s)
                if N is not None:
                    self.check(M, N, alpha)


class TestKernelRowsum:
    def test_even_case_trivial(self):
        assert kernel_rowsum(build_M(quad_rule(2, 0), 4)) is None
        assert kernel_rowsum(build_M(quad_rule(3, 0), 6)) is None

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 2)])
    def test_two_stage_closed_form(self, zeta):
        # ((zeta-1) - 2 zeta c) b^T (I - 2C)
        M = build_M(quad_rule(2, zeta), 3)
        N = kernel_rowsum(M)
        U, V = N.factor_polys()
        assert parallel(U, UniPoly([zeta - 1, -2 * zeta])) and parallel(V, UniPoly([1, -2]))
        assert annihilated(M, N.coords)

    def test_gauss_three_stage_closed_form(self):
        # (P_0 - P_2)(c) b^T P_2'(C)
        M = build_M(quad_rule(3, 0), 5)
        U, V = kernel_rowsum(M).factor_polys()
        assert parallel(U, legendre(0) - legendre(2)) and parallel(V, legendre(2).derivative())

    def test_row_sums_vanish(self):
        # the row sums of U(c) b^T V(C) are U(c) <1, V>_D
        for s, zeta in [(2, Fraction(1, 2)), (3, Fraction(1)), (3, Fraction(-1)), (4, Fraction(2, 3))]:
            rule = quad_rule(s, zeta)
            M = build_M(rule, 2 * s - 1)
            N = kernel_rowsum(M)
            assert not N.structured
            U, V = N.factor_polys()
            assert not U.is_zero() and discrete_ip_exact(ONE, V, rule) == 0
            assert annihilated(M, N.coords)
            assert kernel_ray_residual(M, N.u, N.v) < Fraction(1, 10**35)
            A = factor_matrix(rule, N.u, N.v)
            for row in A:
                assert abs(sum(row)) < Fraction(1, 10**38) * max_entry(A)

    @pytest.mark.parametrize("s", range(2, 9))
    def test_equal_to_reference(self, s):
        # the integer row-sum system gives the Fraction path's direction and factors
        for zeta in [Fraction(1, 2), Fraction(-1), Fraction(2, 3), Fraction(1), Fraction(-1, 2), Fraction(2)]:
            M = build_M(quad_rule(s, zeta), 2 * s - 1)
            alpha = reference_rowsum_element(M, rank_kernel(M)[1])
            N = kernel_rowsum(M)
            assert N.coords == tuple(alpha)
            assert (N.u, N.v) == reference_factors(M, alpha)


class TestPerturbedResiduals:
    """Quadratic blow-up of the nonlinear conditions along the kernel ray."""

    @pytest.mark.parametrize("zeta", [Fraction(1, 2), Fraction(1), Fraction(-1, 2)])
    def test_two_stage_triple_bush(self, zeta):
        rule = quad_rule(2, zeta)
        N = _s2_rowsum_matrix(rule)
        A0 = avf_matrix(rule)
        G2 = g_poly(2)
        for beta in (Fraction(1, 1000), Fraction(1, 10), Fraction(1)):
            r = triple_bush_residual(mat_sum(A0, N, beta), rule, G2, G2, ONE)
            want = beta**2 * zeta**3 / 81
            assert abs(r - want) < Fraction(1, 10**20) * abs(want)

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1, 2)])
    def test_two_stage_asym_bush(self, zeta):
        rule = quad_rule(2, zeta)
        N = _s2_rowsum_matrix(rule)
        A0 = avf_matrix(rule)
        for beta in (Fraction(1, 100), Fraction(1)):
            r = asym_bush_residual(mat_sum(A0, N, beta), rule, 2)
            want = -(beta**2) * (1 + zeta) ** 2 / 36
            assert abs(r - want) < Fraction(1, 10**20) * abs(want)

    def test_gauss_asym_bush_cubic_growth(self):
        rule = quad_rule(3, 0)
        N = factor_matrix(
            rule,
            [Fraction(1), Fraction(0), Fraction(-1)],
            [Fraction(0), Fraction(1), Fraction(0)],
        )
        A0 = avf_matrix(rule)
        for beta in (Fraction(1, 10), Fraction(1)):
            r = asym_bush_residual(mat_sum(A0, N, beta), rule, 3)
            want = (6 * beta) ** 3 / 400  # (-1)^(s-1) 6^s / gamma_s^2
            assert abs(r - want) < Fraction(1, 10**20) * abs(want)


G2 = g_poly(2)


def _gauss_ray(rule):
    s = rule.s
    return factor_matrix(rule, [1, 0, -1] + [0] * (s - 3), [0, 1] + [0] * (s - 2))


def _left_ray(rule):
    s = rule.s
    v = [0] * s
    v[0] = (-1) ** s
    v[s - 2] -= 1
    v[s - 1] = 1
    return factor_matrix(rule, [2, -2] + [0] * (s - 2), v)


def _factored_rowsum_ray(rule):
    N = kernel_rowsum(build_M(rule, 2 * rule.s - 1))
    return factor_matrix(rule, N.u, N.v)


# one case per sweep branch: (s, zeta, the ray's direction, the residual)
SWEEP_BRANCHES = [
    (2, Fraction(1, 2), _s2_rowsum_matrix, lambda A, r: triple_bush_residual(A, r, G2, G2, ONE)),
    (2, Fraction(0), _s2_rowsum_matrix, lambda A, r: asym_bush_residual(A, r, 2)),
    (4, Fraction(0), _gauss_ray, lambda A, r: asym_bush_residual(A, r, 4)),
    (3, Fraction(-1), _left_ray, lambda A, r: triple_bush_residual(A, r, X * G2, X * G2, ONE)),
    (
        4,
        Fraction(2, 3),
        _factored_rowsum_ray,
        lambda A, r: triple_bush_residual(A, r, g_poly(1), g_poly(1), X),
    ),
]


@st.composite
def ray_cases(draw):
    """(rule, cond, degree, U, Vd): a bush body on a random rational ray, with its degree in beta."""
    s = draw(st.integers(2, 6))
    rule = operator_rule(s, draw(st.sampled_from(OPERATOR_ZETAS)))
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=9), min_size=1, max_size=s)
    U, Vd = UniPoly(draw(coeffs)), UniPoly(draw(coeffs))
    kind = draw(st.sampled_from(["double", "triple", "asym"]))
    if kind == "double":
        p, q = sorted(draw(st.lists(st.integers(1, s), min_size=2, max_size=2, unique=True)))
        return rule, (conditions._double_bush, g_poly(p), g_poly(q)), 1, U, Vd
    if kind == "triple":
        PQ = st.sampled_from([g_poly(p) for p in range(1, s + 1)] + [X * G2])
        return rule, (conditions._triple_bush, draw(PQ), draw(PQ), draw(st.sampled_from([ONE, X]))), 2, U, Vd
    q = draw(st.integers(1, s))
    return rule, (conditions._asym_bush, q), q, U, Vd


def sweep_rays(monkeypatch, rule, m):
    """The (rule, cond, degree, U, Vd) each _ray_residual call of uniqueness_sweep(rule, m) receives."""
    calls, real = [], conditions._ray_residual
    monkeypatch.setattr(conditions, "_ray_residual", lambda *a: calls.append(a) or real(*a))
    uniqueness_sweep(rule, m)
    monkeypatch.setattr(conditions, "_ray_residual", real)
    return calls


class TestRayResidual:
    """The one-pass residual on Z[x, beta] node vectors against k + 1 evaluations and a Vandermonde solve."""

    @given(ray_cases())
    @settings(max_examples=120, deadline=None)
    def test_equal_to_reference(self, case):
        assert conditions._ray_residual(*case) == reference_ray_residual(*case)

    @pytest.mark.parametrize("s", range(2, 9))
    def test_sweep_rays_equal_to_reference(self, monkeypatch, s):
        for zeta in OPERATOR_ZETAS:
            (case,) = sweep_rays(monkeypatch, quad_rule(s, zeta), 2 * s - 1)
            assert conditions._ray_residual(*case) == reference_ray_residual(*case)

    @pytest.mark.parametrize("s,zeta", [(2, Fraction(1, 2)), (3, Fraction(0)), (4, Fraction(-1)), (4, Fraction(2, 3))])
    def test_degree_above_k_raised(self, monkeypatch, s, zeta):
        # k one below the residual's true degree: an interpolant through k points would be wrong
        (case,) = sweep_rays(monkeypatch, quad_rule(s, zeta), 2 * s - 1)
        rule, cond, k, U, Vd = case
        with pytest.raises(KernelStructureError, match=f"degree {k} in beta, above {k - 1}"):
            conditions._ray_residual(rule, cond, k - 1, U, Vd)

    @pytest.mark.parametrize("s,zeta", [(5, Fraction(0)), (5, Fraction(2, 3))])
    def test_one_body_run_and_no_solve(self, monkeypatch, s, zeta):
        (case,) = sweep_rays(monkeypatch, quad_rule(s, zeta), 2 * s - 1)
        want = reference_ray_residual(*case)
        runs = []
        body, *args = case[1]
        counted = lambda *a: runs.append(a) or body(*a)

        def refuse(*a):
            raise AssertionError("a linear system was solved")

        monkeypatch.setattr(conditions, "_solve", refuse)
        assert conditions._ray_residual(case[0], (counted, *args), *case[2:]) == want
        assert len(runs) == 1

    def test_moment_reads_at_s8(self, monkeypatch):
        # the ray residual reads at most 2s + 1 moments: at zeta = 0, Ac has degree 2 in x and
        # <Ac, (Ac)^(s-1)>_D degree 2s; elsewhere <Vd, x A(G_p)>_D has degree at most 2s - 1.
        # build_M's integrated rows read 3s - 2, so a sweep reads no more than its operator needs
        s, reads, phase = 8, {"ray": [], "operator": []}, ["operator"]
        real_ints, real_ray = quadrature.QuadRule._moment_ints, conditions._ray_residual

        def moment_ints(rule, n):
            reads[phase[0]].append(n)
            return real_ints(rule, n)

        def ray(*a):
            phase[0] = "ray"
            try:
                return real_ray(*a)
            finally:
                phase[0] = "operator"

        monkeypatch.setattr(quadrature.QuadRule, "_moment_ints", moment_ints)
        monkeypatch.setattr(conditions, "_ray_residual", ray)
        for zeta in OPERATOR_ZETAS:
            uniqueness_sweep(quad_rule(s, zeta), 2 * s - 1)
        assert max(reads["ray"]) == 2 * s + 1
        assert max(reads["operator"]) == 3 * s - 2

    @pytest.mark.parametrize("s", [3, 8])
    def test_one_moment_read(self, monkeypatch, s):
        # the sweep's ray residual and bush_residuals(rule, 2s - 1) each read the rule's moments
        # once, however many inner products their bodies take
        for zeta in OPERATOR_ZETAS:
            rule = quad_rule(s, zeta)
            (case,) = sweep_rays(monkeypatch, rule, 2 * s - 1)
            reads, real = [], quadrature.QuadRule._moment_ints
            monkeypatch.setattr(quadrature.QuadRule, "_moment_ints", lambda r, n: reads.append(n) or real(r, n))
            conditions._ray_residual(*case)
            assert reads == [2 * s + 1], zeta
            reads.clear()
            rows = bush_residuals(rule, 2 * s - 1)
            assert reads == [2 * s - 1] and all(r == 0 for _, r in rows), zeta
            monkeypatch.setattr(quadrature.QuadRule, "_moment_ints", real)


class TestUniquenessSweep:
    def test_two_stage_generic(self):
        report = uniqueness_sweep(quad_rule(2, Fraction(1, 2)), 3)
        assert report["rank"] == 1
        assert report["kernel_dim"] == 3
        fit = report["residual_fit"]
        assert fit["expected_slope"] == fit["slope"] == 2
        assert fit["polynomial"] == ["0", "0", "1/648"]
        assert fit["kappa"] == fit["expected_kappa"] == "1/648"
        assert fit["match"]
        want = (1 / 2) ** 3 / 81
        assert abs(fit["expected_coeff"] - want) < 1e-15
        assert abs(fit["coeff"] - want) <= 1e-12 * abs(want)
        assert "triple-bush" in report["condition"]

    def test_two_stage_gauss_uses_asym(self):
        report = uniqueness_sweep(quad_rule(2, 0), 3)
        fit = report["residual_fit"]
        assert abs(fit["expected_coeff"] + 1 / 36) < 1e-15
        assert fit["slope"] == 2
        assert fit["polynomial"] == ["0", "0", "-1/36"] and fit["match"]
        assert "asym-bush" in report["condition"]

    def test_even_case_degenerates(self):
        report = uniqueness_sweep(quad_rule(3, 0), 6)
        assert report["residual_fit"] is None
        assert "linear stage" in report["note"]
        assert report["kernel_dim"] == 1

    def test_report_is_json_safe(self):
        report = uniqueness_sweep(quad_rule(2, 1), 3)
        parsed = json.loads(json.dumps(report))
        assert parsed["s"] == 2
        assert parsed["residual_fit"]["expected_slope"] == 2

    def test_custom_betas(self):
        betas = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]
        report = uniqueness_sweep(quad_rule(2, Fraction(1, 2)), 3, betas=betas)
        assert report["betas"] == [0.125, 0.25, 0.5]
        # the residuals are the exact polynomial's values
        assert report["residuals"] == [float(b**2 / 648) for b in betas]

    @pytest.mark.parametrize(
        "s,zeta",
        [
            (3, Fraction(1, 2)),
            (4, Fraction(2, 3)),
            (4, Fraction(-1, 3)),
            (5, Fraction(1, 3)),
            (5, Fraction(2)),
        ],
    )
    def test_generic_zeta_fit(self, s, zeta):
        # the residual along the exactly factored ray is kappa beta^2, with
        # kappa from the exact rank-one factors
        fit = uniqueness_sweep(quad_rule(s, zeta), 2 * s - 1)["residual_fit"]
        assert fit["expected_slope"] == fit["slope"] == 2
        kappa = Fraction(fit["expected_kappa"])
        assert [Fraction(x) for x in fit["polynomial"]] == [0, 0, kappa] and kappa != 0
        assert fit["match"] and fit["coeff"] == fit["expected_coeff"] == float(kappa)

    @pytest.mark.parametrize(
        "s,zeta,direction,residual",
        SWEEP_BRANCHES,
        ids=["s2", "s2-gauss", "gauss", "left", "generic"],
    )
    def test_exact_polynomial_is_the_mpf_residual(self, s, zeta, direction, residual):
        rule = quad_rule(s, zeta)
        fit = uniqueness_sweep(rule, 2 * s - 1)["residual_fit"]
        assert fit["match"]
        poly = UniPoly([Fraction(x) for x in fit["polynomial"]])
        N = direction(rule)
        A0 = avf_matrix(rule)
        for beta in (Fraction(1, 10), Fraction(1)):
            r = residual(mat_sum(A0, N, beta), rule)
            assert abs(r - poly(beta)) < TINY

    @pytest.mark.parametrize("s,zeta", [(2, Fraction(1, 2)), (3, Fraction(0)), (4, Fraction(-1))])
    def test_closed_form_checked_against_the_kernel(self, monkeypatch, s, zeta):
        real = conditions._exact_factors

        def scaled(M, alpha):
            (uz, du), (vz, dv) = real(M, alpha)
            return ([-3 * x for x in uz], du), (vz, 7 * dv)

        # a rational multiple of the computed direction passes ...
        monkeypatch.setattr(conditions, "_exact_factors", scaled)
        assert uniqueness_sweep(quad_rule(s, zeta), 2 * s - 1)["residual_fit"]["match"]
        # ... another rank-one direction does not
        other = lambda M, alpha: (([1] + [0] * (s - 1), 1), ([0] * (s - 1) + [1], 1))
        monkeypatch.setattr(conditions, "_exact_factors", other)
        with pytest.raises(KernelStructureError, match="closed form"):
            uniqueness_sweep(quad_rule(s, zeta), 2 * s - 1)

    def test_mismatch_is_reported(self, monkeypatch):
        # a ray twice as long multiplies the cubic's kappa by 8
        real = conditions._factor_polys

        def doubled(u, v):
            U, V = real(u, v)
            return 2 * U, V

        monkeypatch.setattr(conditions, "_factor_polys", doubled)
        fit = uniqueness_sweep(quad_rule(3, 0), 5)["residual_fit"]
        assert fit["polynomial"] == ["0", "0", "0", "108/25"] and fit["expected_kappa"] == "27/50"
        assert not fit["match"]

    @pytest.mark.parametrize(
        "s,zeta,m",
        [(2, Fraction(0), 3), (3, Fraction(1, 2), 5), (3, Fraction(-1), 5), (3, Fraction(0), 6)],
    )
    def test_one_factorization_per_sweep(self, monkeypatch, s, zeta, m):
        calls = []
        real = conditions.rank_kernel

        def counted(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(conditions, "rank_kernel", counted)
        uniqueness_sweep(quad_rule(s, zeta), m)
        assert len(calls) == 1

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            uniqueness_sweep(quad_rule(2, 0), 3, betas=[0, Fraction(1, 2)])

    def test_logged(self, caplog):
        # one record per call: the phase times, k and the residual's degree (none in the even case)
        rules = [quad_rule(3, Fraction(1, 2)), quad_rule(4, 0), quad_rule(3, 0)]
        with caplog.at_level(logging.DEBUG, logger="avfrk.conditions"):
            for rule, m in zip(rules, (5, 7, 6)):
                uniqueness_sweep(rule, m)
        got = [r.getMessage() for r in caplog.records if r.getMessage().startswith("uniqueness_sweep")]
        assert [m.split(", ")[:2] + m.split(", ")[-2:] for m in got] == [
            ["uniqueness_sweep: s 3", "m 5", "k 2", "degree 2"],
            ["uniqueness_sweep: s 4", "m 7", "k 4", "degree 4"],
            ["uniqueness_sweep: s 3", "m 6", "k None", "degree None"],
        ]
        for m in got:
            phases = m.split(", ")[2:6]
            assert [p.rsplit(" ", 2)[0] for p in phases] == ["build_M", "rank_kernel", "row-sum", "residual"]
            assert all(p.endswith(" ms") and float(p.split()[-2]) >= 0 for p in phases)
        assert got[2].split(", ")[5] == "residual 0.000 ms"

    @pytest.mark.parametrize("exp, named", [(400, "1.0e-400"), (200, "1.0e-200")])
    def test_beta_underflow_rejected(self, exp, named):
        # beta = 1e-400 rounds to float 0.0; at 1e-200 the residual kappa beta^2 does
        with pytest.raises(ValueError, match=f"beta = {named}: it or its residual underflows"):
            uniqueness_sweep(quad_rule(3, Fraction(1, 2)), 5, betas=[Fraction(1, 3), Fraction(1, 10**exp)])


def test_error_types_are_distinct():
    # the CLI maps KernelStructureError to exit 4 and input errors to exit 2
    assert issubclass(KernelStructureError, RuntimeError)
    assert not issubclass(KernelStructureError, ValueError)
    assert not issubclass(QuadratureError, KernelStructureError)


class TestExactCore:
    """The certificate reads a rule's exact core only: its nodes are never formed."""

    @staticmethod
    def _certify(s, zeta):
        rule = quad_rule(s, zeta)
        M = build_M(rule, 2 * s if zeta == 0 else 2 * s - 1)
        return M.scaled_rows, kernel_key(*rank_kernel(M)), uniqueness_sweep(rule, 2 * s - 1)

    @pytest.mark.parametrize("s,zeta", [(s, z) for s in range(2, 9) for z in (Fraction(0), Fraction(1, 2), Fraction(-1))])
    def test_certificate_never_polishes(self, monkeypatch, s, zeta):
        want = self._certify(s, zeta)
        monkeypatch.setattr(quadrature, "_rounded_rule", refuse_nodes)
        assert self._certify(s, zeta) == want
        with pytest.raises(AssertionError, match="formed"):
            quad_rule(s, zeta).c
