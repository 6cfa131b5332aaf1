import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from avfrk.conditions import (
    KernelStructureError,
    RankAmbiguityError,
    _avf_matrix,
    _factor_matrix,
    _numerical_rank,
    _s2_rowsum_matrix,
    asym_bush_residual,
    build_M,
    build_p_tilde,
    double_bush_poly_residual,
    double_bush_residual,
    expected_rank,
    kernel_rowsum,
    rank_kernel,
    triple_bush_residual,
    uniqueness_sweep,
)
from avfrk.quadrature import (
    UniPoly,
    discrete_ip_exact,
    f_poly,
    g_poly,
    legendre,
    quad_rule,
)
from _util import random_unipoly

ONE = UniPoly([1])
TINY = mp.mpf("1e-40")


def mpf_of(fr):
    fr = Fraction(fr)
    return mp.mpf(fr.numerator) / fr.denominator


def max_entry(M):
    return max(abs(M[i, j]) for i in range(M.rows) for j in range(M.cols))


def collinear_defect(A, B):
    """Distance between the lines spanned by two matrices, sign-agnostic."""
    s = A.rows
    na = max_entry(A)
    nb = max_entry(B)
    d1 = max(abs(A[i, j] / na - B[i, j] / nb) for i in range(s) for j in range(s))
    d2 = max(abs(A[i, j] / na + B[i, j] / nb) for i in range(s) for j in range(s))
    return min(d1, d2)


class TestBushResidualsOnAvf:
    """A = c b^T satisfies every condition the rule's order covers."""

    @pytest.mark.parametrize("s,zeta", [(2, Fraction(0)), (2, Fraction(1, 2)), (3, Fraction(0))])
    def test_double_bush(self, s, zeta):
        rule = quad_rule(s, zeta)
        A = _avf_matrix(rule)
        for p in range(1, rule.order):
            for q in range(p + 1, rule.order):
                assert abs(double_bush_residual(A, rule, p, q)) < TINY

    @pytest.mark.parametrize("s,zeta", [(2, Fraction(0)), (3, Fraction(1, 2))])
    def test_poly_form_on_g_pairs(self, s, zeta):
        rule = quad_rule(s, zeta)
        A = _avf_matrix(rule)
        for p in range(1, rule.order):
            for q in range(p + 1, rule.order):
                r = double_bush_poly_residual(A, rule, g_poly(p), g_poly(q))
                assert abs(r) < TINY

    def test_triple_bush(self):
        rule = quad_rule(2, 0)
        A = _avf_matrix(rule)
        for P, Q, R in [
            (g_poly(1), g_poly(2), ONE),
            (g_poly(1), g_poly(2), g_poly(1)),
            (g_poly(2), g_poly(2), ONE),
        ]:
            assert abs(triple_bush_residual(A, rule, P, Q, R)) < TINY

    def test_asym_bush(self):
        for s, zeta in [(2, Fraction(0)), (2, Fraction(1)), (3, Fraction(0))]:
            rule = quad_rule(s, zeta)
            A = _avf_matrix(rule)
            for q in range(1, rule.order):
                assert abs(asym_bush_residual(A, rule, q)) < TINY


class TestBushValidation:
    def setup_method(self):
        self.rule = quad_rule(2, 0)
        self.A = _avf_matrix(self.rule)

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

    def test_beyond_order_still_evaluates(self):
        # degrees past order-1 report the quadrature defect instead of zero
        r = double_bush_residual(self.A, self.rule, 1, 4)
        with mp.workdps(60):
            assert abs(r - mp.mpf(1) / 120) < TINY


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
        with mp.workdps(60):
            rPQ = double_bush_poly_residual(A, rule, P, Q)
            rQP = double_bush_poly_residual(A, rule, Q, P)
            assert abs(rPQ + rQP) < mp.mpf("1e-42")
            lhs = double_bush_poly_residual(A, rule, P + lam * R, Q)
            rhs = rPQ + mpf_of(lam) * double_bush_poly_residual(A, rule, R, Q)
            assert abs(lhs - rhs) < mp.mpf("1e-42")

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
        assert abs(double_bush_poly_residual(A, rule, P, P)) < TINY

    def test_monomial_specialization(self):
        rng = random.Random(56)
        rule = quad_rule(3, Fraction(1, 2))
        A = [[mp.mpf(rng.randint(-4, 4)) / 4 for _ in range(3)] for _ in range(3)]
        with mp.workdps(60):
            for p, q in [(1, 2), (1, 3), (2, 4), (3, 4)]:
                xp = UniPoly([0] * p + [1])
                xq = UniPoly([0] * q + [1])
                poly = double_bush_poly_residual(A, rule, xp, xq)
                mono = double_bush_residual(A, rule, p, q)
                assert abs(poly - mono) < mp.mpf("1e-42")


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
        with mp.workdps(60):
            r0 = double_bush_residual(mp.matrix(2, 2), rule, 1, 2)
            assert abs(r0 - mp.mpf(1) / 6) < mp.mpf("1e-42")
            for k in range(2):
                for l in range(2):
                    alpha = mp.matrix(2, 2)
                    alpha[k, l] = 1
                    A = M.coeffs_to_matrix(alpha)
                    probed = double_bush_residual(A, rule, 1, 2) - r0
                    want = self.exact_gamma(
                        rule, legendre(k), M.right_family[l].derivative()
                    )
                    assert abs(probed - mpf_of(want)) < mp.mpf("1e-42")
            A = M.coeffs_to_matrix(M.avf_coords())
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


class TestBuildM:
    def test_shapes_and_rows(self):
        rule = quad_rule(3, 0)
        M = build_M(rule, 6)
        assert M.basis_kind == "even"
        assert M.n_conditions == 10  # (m-1)(m-2)/2
        assert M.n_coeffs == 9
        assert M.rows[0] == (1, 2)
        assert M.rows[-1] == (4, 5)
        assert M.matrix.rows == 10 and M.matrix.cols == 9

    def test_inhomogeneous_side(self):
        assert build_M(quad_rule(2, Fraction(1, 2)), 3).w_exact == (Fraction(-1, 6),)
        assert build_M(quad_rule(2, 0), 4).w_exact == (
            Fraction(-1, 6),
            Fraction(0),
            Fraction(0),
        )

    def test_avf_solves_system(self):
        for s, m, zeta in [(2, 4, 0), (3, 6, 0), (3, 5, Fraction(1, 2)), (4, 7, Fraction(-1))]:
            rule = quad_rule(s, zeta)
            M = build_M(rule, m)
            assert max_entry(M.residual_vector(_avf_matrix(rule))) < mp.mpf("1e-38")

    def test_shifted_weight_matrix_in_kernel(self):
        # (1 - c) b^T is annihilated by the homogeneous part
        for s, m, zeta in [(2, 4, 0), (3, 6, 0), (3, 5, Fraction(1))]:
            rule = quad_rule(s, zeta)
            M = build_M(rule, m)
            with mp.workdps(60):
                N1 = mp.matrix(s, s)
                for i in range(s):
                    for j in range(s):
                        N1[i, j] = (1 - rule.c[i]) * rule.b[j]
                assert max_entry(M.apply(M.coords_of(N1))) < mp.mpf("1e-38")

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

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            build_M(quad_rule(2, Fraction(1, 2)), 4)  # even mode needs zeta = 0
        with pytest.raises(ValueError):
            build_M(quad_rule(2, 0), 6)  # m must be 2s or 2s-1

    def test_coordinate_roundtrip(self):
        rng = random.Random(57)
        rule = quad_rule(3, 0)
        M = build_M(rule, 6)
        with mp.workdps(60):
            A = mp.matrix(3, 3)
            for i in range(3):
                for j in range(3):
                    A[i, j] = mp.mpf(rng.randint(-8, 8)) / 4
            back = M.coeffs_to_matrix(M.coords_of(A))
            assert max_entry(back - A) < mp.mpf("1e-42")

    def test_avf_coords_slots(self):
        M = build_M(quad_rule(2, 0), 4)
        alpha = M.avf_coords()
        assert abs(alpha[0, 0] - mp.mpf(1) / 4) < TINY
        assert abs(alpha[1, 0] - mp.mpf(1) / 4) < TINY
        assert abs(alpha[0, 1]) < TINY and abs(alpha[1, 1]) < TINY
        with mp.workdps(60):
            A = M.coeffs_to_matrix(alpha)
            assert max_entry(A - _avf_matrix(M.rule)) < mp.mpf("1e-42")

    def test_basis_matrix_bounds(self):
        M = build_M(quad_rule(2, 0), 4)
        with pytest.raises(ValueError):
            M.basis_matrix(0, 1)
        with pytest.raises(ValueError):
            M.basis_matrix(1, 3)

    def test_immutable(self):
        M = build_M(quad_rule(2, 0), 4)
        with pytest.raises(AttributeError):
            M.m = 5


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
        with mp.workdps(60):
            N1 = mp.matrix(2, 2)
            for i in range(2):
                for j in range(2):
                    N1[i, j] = (1 - rule.c[i]) * rule.b[j]
            assert collinear_defect(el.matrix, N1) < mp.mpf("1e-38")

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
        for s, m, zeta in [(2, 4, 0), (3, 5, Fraction(1, 2)), (3, 5, Fraction(-1))]:
            rule = quad_rule(s, zeta)
            M = build_M(rule, m)
            _, basis = rank_kernel(M)
            scale = max_entry(M.matrix)
            for el in basis.elements:
                resid = max_entry(M.apply(M.coords_of(el.matrix)))
                assert resid < scale * mp.mpf("1e-35")

    def test_kernel_matrix_rank_at_most_two(self):
        rule = quad_rule(4, Fraction(1))
        M = build_M(rule, 7)
        _, basis = rank_kernel(M)
        with mp.workdps(60):
            for el in basis.elements:
                sv = mp.svd_r(mp.matrix(el.matrix), compute_uv=False)
                assert sv[2] < mp.mpf("1e-35") * sv[0]

    def test_factor_polys_reproduce_matrix(self):
        rule = quad_rule(3, Fraction(1, 2))
        M = build_M(rule, 5)
        _, basis = rank_kernel(M)
        with mp.workdps(60):
            for el in basis.elements:
                U, V = el.factor_polys()
                Vd = V
                for i in range(3):
                    for j in range(3):
                        want = U(rule.c[i]) * rule.b[j] * Vd(rule.c[j])
                        assert abs(el.matrix[i, j] - want) < mp.mpf("1e-40")

    def test_tol_validation(self):
        M = build_M(quad_rule(2, 0), 4)
        with pytest.raises(ValueError):
            rank_kernel(M, tol=0)

    def test_ambiguity_detection(self):
        pivots = [mp.mpf(1), mp.mpf("1e-25")]
        rank, ambiguous = _numerical_rank(pivots, mp.mpf("1e-24"))
        assert ambiguous
        rank, ambiguous = _numerical_rank(pivots, mp.mpf("1e-10"))
        assert not ambiguous and rank == 1
        assert _numerical_rank([], mp.mpf("1e-10")) == (0, False)


class TestKernelRowsum:
    def test_even_case_trivial(self):
        assert kernel_rowsum(build_M(quad_rule(2, 0), 4)) is None
        assert kernel_rowsum(build_M(quad_rule(3, 0), 6)) is None

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 2)])
    def test_two_stage_closed_form(self, zeta):
        rule = quad_rule(2, zeta)
        N = kernel_rowsum(build_M(rule, 3))
        with mp.workdps(60):
            assert collinear_defect(N, _s2_rowsum_matrix(rule)) < mp.mpf("1e-38")

    def test_gauss_three_stage_closed_form(self):
        rule = quad_rule(3, 0)
        N = kernel_rowsum(build_M(rule, 5))
        E = _factor_matrix(
            rule,
            [Fraction(1), Fraction(0), Fraction(-1)],
            [Fraction(0), Fraction(1), Fraction(0)],
        )
        with mp.workdps(60):
            assert collinear_defect(N, E) < mp.mpf("1e-38")

    def test_row_sums_vanish(self):
        for s, zeta in [(2, Fraction(1, 2)), (3, Fraction(1)), (3, Fraction(-1))]:
            rule = quad_rule(s, zeta)
            M = build_M(rule, 2 * s - 1)
            N = kernel_rowsum(M)
            with mp.workdps(60):
                for i in range(s):
                    assert abs(mp.fsum(N[i, j] for j in range(s))) < mp.mpf("1e-38")
                assert max_entry(M.apply(M.coords_of(N))) < mp.mpf("1e-35") * max_entry(M.matrix)
            assert max_entry(N) == 1  # normalized by the largest entry


class TestPerturbedResiduals:
    """Quadratic blow-up of the nonlinear conditions along the kernel ray."""

    @pytest.mark.parametrize("zeta", [Fraction(1, 2), Fraction(1), Fraction(-1, 2)])
    def test_two_stage_triple_bush(self, zeta):
        rule = quad_rule(2, zeta)
        N = _s2_rowsum_matrix(rule)
        A0 = _avf_matrix(rule)
        G2 = g_poly(2)
        with mp.workdps(60):
            for beta in (mp.mpf(1) / 1000, mp.mpf(1) / 10, mp.mpf(1)):
                r = triple_bush_residual(A0 + beta * N, rule, G2, G2, ONE)
                want = beta**2 * mpf_of(zeta) ** 3 / 81
                assert abs(r - want) < mp.mpf("1e-20") * abs(want)

    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1, 2)])
    def test_two_stage_asym_bush(self, zeta):
        rule = quad_rule(2, zeta)
        N = _s2_rowsum_matrix(rule)
        A0 = _avf_matrix(rule)
        with mp.workdps(60):
            for beta in (mp.mpf(1) / 100, mp.mpf(1)):
                r = asym_bush_residual(A0 + beta * N, rule, 2)
                want = -(beta**2) * (1 + mpf_of(zeta)) ** 2 / 36
                assert abs(r - want) < mp.mpf("1e-20") * abs(want)

    def test_gauss_asym_bush_cubic_growth(self):
        rule = quad_rule(3, 0)
        N = _factor_matrix(
            rule,
            [Fraction(1), Fraction(0), Fraction(-1)],
            [Fraction(0), Fraction(1), Fraction(0)],
        )
        A0 = _avf_matrix(rule)
        with mp.workdps(60):
            for beta in (mp.mpf(1) / 10, mp.mpf(1)):
                r = asym_bush_residual(A0 + beta * N, rule, 3)
                want = (6 * beta) ** 3 / 400  # (-1)^(s-1) 6^s / gamma_s^2
                assert abs(r - want) < mp.mpf("1e-20") * abs(want)


class TestUniquenessSweep:
    def test_two_stage_generic(self):
        report = uniqueness_sweep(quad_rule(2, Fraction(1, 2)), 3)
        assert report["rank"] == 1
        assert report["kernel_dim"] == 3
        fit = report["residual_fit"]
        assert fit["expected_slope"] == 2
        assert abs(fit["slope"] - 2) < 1e-6
        want = (1 / 2) ** 3 / 81
        assert abs(fit["expected_coeff"] - want) < 1e-15
        assert abs(fit["coeff"] - want) <= 1e-12 * abs(want)
        assert "triple-bush" in report["condition"]

    def test_two_stage_gauss_uses_asym(self):
        report = uniqueness_sweep(quad_rule(2, 0), 3)
        fit = report["residual_fit"]
        assert abs(fit["expected_coeff"] + 1 / 36) < 1e-15
        assert abs(fit["slope"] - 2) < 1e-6
        assert abs(fit["coeff"] - fit["expected_coeff"]) <= 1e-12 / 36
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
        assert len(report["residuals"]) == 3

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            uniqueness_sweep(quad_rule(2, 0), 3, betas=[0, Fraction(1, 2)])


def test_error_types_are_distinct():
    assert issubclass(RankAmbiguityError, RuntimeError)
    assert issubclass(KernelStructureError, RuntimeError)
    assert not issubclass(RankAmbiguityError, KernelStructureError)
