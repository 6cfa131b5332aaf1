import json
import logging
import math
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from avfrk.quadrature import (
    _WINDOW,
    QuadratureError,
    QuadRule,
    UniPoly,
    _RayPoly,
    _moment_form,
    _exact_fraction,
    _isolate_roots,
    _rounded_node,
    _sign_changes,
    _sturm_values,
    check_discip_lemma,
    continuous_ip,
    discrete_ip,
    discrete_ip_exact,
    discrete_ip_table,
    f_poly,
    g_poly,
    gamma_lead,
    legendre,
    quad_rule,
    r_poly,
)
from avfrk import quadrature
from avfrk.conditions import build_M, bush_residuals, rank_kernel, uniqueness_sweep
from avfrk.integrators import avf_tableau
from avfrk.trees import conditions_up_to, energy_condition_residual
from _util import (
    ReferenceRayPoly,
    random_unipoly,
    ray_terms,
    reference_moment_sum,
    reference_moments,
    reference_ray_poly,
    reference_rule_core,
    refuse_nodes,
)

ZETA_GRID = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
MOMENT_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 3)]
POLISH_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2)]
# 7 puts a node outside [0, 1], 40 a root outside _WINDOW
STURM_ZETAS = POLISH_ZETAS + [Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(7), Fraction(40)]
OPERATOR_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2, 3), Fraction(-1, 2), Fraction(1, 3)]
# 3/2, 7 and -3/2 put a node outside [0, 1]; -1 and 1 put one on an end point
UNIT_ZETAS = [Fraction(2), Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(7), Fraction(-3, 2)]
X = UniPoly([0, 1])


def mpf_of(fr):
    return mp.mpf(fr.numerator) / fr.denominator


def rounded_of(fr):
    """fr rounded to the current mpf precision, as an exact Fraction."""
    return _exact_fraction(mpf_of(fr))


@lru_cache(maxsize=None)
def cached_rule(s, zeta):
    return quad_rule(s, zeta)


def remainder_ip(u, v, rule):
    """Reference <u, v>_D: integrate u v reduced modulo the monic node polynomial."""
    rho = rule.node_poly().coeffs
    n = len(rho) - 1
    rem = list((u * v).coeffs)
    for k in range(len(rem) - 1, n - 1, -1):
        f = rem[k]
        rem[k] = Fraction(0)
        for i in range(n):
            rem[k - n + i] -= f * rho[i]
    return sum((c / (k + 1) for k, c in enumerate(rem[:n])), Fraction(0))


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        p = UniPoly([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_zero_polynomial(self):
        z = UniPoly([])
        assert z.is_zero()
        assert z.degree == -1
        assert UniPoly([0, 0]).is_zero()

    def test_non_rational_factor(self):
        # a factor that is not rational is left to form the product itself, never rounded
        # into the exact coefficients; a plain mpf or list cannot, so the product fails
        for factor in (mp.mpf("0.5"), [1, 2]):
            with pytest.raises(TypeError):
                UniPoly([1, 2]) * factor
            with pytest.raises(TypeError):
                factor * UniPoly([1, 2])
        assert UniPoly([1, 2]) * "1/2" == UniPoly([Fraction(1, 2), 1])

    def test_arithmetic(self):
        p = UniPoly([1, 1])  # 1 + x
        q = UniPoly([-1, 1])  # x - 1
        assert p * q == UniPoly([-1, 0, 1])
        assert p + q == UniPoly([0, 2])
        assert p - p == UniPoly([])
        assert 3 * p == UniPoly([3, 3])

    def test_calculus_roundtrip(self):
        p = UniPoly([Fraction(1, 3), 0, 2, -5])
        assert p.integral().derivative() == p
        assert p.integral()(Fraction(0)) == 0

    def test_exact_and_float_evaluation(self):
        p = UniPoly([1, -3, 2])
        assert p(Fraction(1, 2)) == 0
        assert abs(p(0.5)) < 1e-45

    def test_monic_flag(self):
        assert UniPoly([5, 0, 1]).is_monic()
        assert not UniPoly([1, 2]).is_monic()
        assert not UniPoly([]).is_monic()


class TestLegendreFamily:
    def test_small_cases(self):
        assert legendre(0) == UniPoly([1])
        assert legendre(1) == UniPoly([-1, 2])
        assert legendre(2) == UniPoly([1, -6, 6])

    def test_normalization_and_leading_coefficient(self):
        for q in range(21):
            P = legendre(q)
            assert P(Fraction(1)) == 1
            assert P.coeffs[-1] == gamma_lead(q)

    def test_gamma_values(self):
        assert [gamma_lead(q) for q in (1, 2, 3)] == [2, 6, 20]
        import math

        for q in range(9):
            assert gamma_lead(q) == math.factorial(2 * q) // math.factorial(q) ** 2

    def test_orthogonality(self):
        for k in range(21):
            for l in range(21):
                want = Fraction(1, 2 * k + 1) if k == l else Fraction(0)
                assert continuous_ip(legendre(k), legendre(l)) == want

    def test_g_poly(self):
        assert g_poly(1) == X
        assert g_poly(2) == UniPoly([0, -1, 1])
        # G_q = (P_q - P_{q-2}) / (2(2q-1)), exact polynomial identity
        for q in range(2, 9):
            rhs = (legendre(q) - legendre(q - 2)) * Fraction(1, 2 * (2 * q - 1))
            assert g_poly(q) == rhs

    def test_biorthogonality(self):
        for l in range(1, 7):
            assert continuous_ip(g_poly(1), legendre(l).derivative()) == 1
        for q in range(1, 7):
            for l in range(1, 7):
                got = continuous_ip(g_poly(q + 1), legendre(l).derivative())
                want = Fraction(-1, 2 * q + 1) if l == q else Fraction(0)
                assert got == want


class TestRFamilies:
    def test_below_s(self):
        for s in (2, 3, 4):
            for l in range(s):
                assert r_poly(l, s, Fraction(1, 2)) == legendre(l)

    def test_at_s(self):
        for s in (2, 3):
            for z in ZETA_GRID:
                assert r_poly(s, s, z) == legendre(s) - z * legendre(s - 1)
        assert r_poly(3, 3, Fraction(0)) == legendre(3)

    def test_above_s(self):
        s, z = 3, Fraction(1, 2)
        Rs = r_poly(s, s, z)
        for l in range(s + 1, s + 4):
            assert r_poly(l, s, z) == Rs * legendre(l - s)

    def test_f_equals_g_up_to_s(self):
        for s in (2, 3, 4):
            for z in (Fraction(0), Fraction(1), Fraction(-1, 2)):
                for q in range(1, s + 1):
                    assert f_poly(q, s, z) == g_poly(q)

    def test_f_is_integral_of_r(self):
        for q in range(1, 7):
            assert f_poly(q, 3, Fraction(1)) == r_poly(q - 1, 3, Fraction(1)).integral()


class TestQuadRule:
    def test_one_stage_gauss(self):
        rule = quad_rule(1, 0)
        assert rule.order == 2
        assert rule.c == (Fraction(1, 2),) and rule.b == (1,)

    def test_two_stage_gauss(self):
        rule = quad_rule(2, 0)
        assert rule.order == 4
        with mp.workdps(60):
            r3 = mp.sqrt(3) / 6
            assert abs(mpf_of(rule.c[0]) - (mp.mpf(1) / 2 - r3)) < mp.mpf("1e-45")
            assert abs(mpf_of(rule.c[1]) - (mp.mpf(1) / 2 + r3)) < mp.mpf("1e-45")
            assert abs(rule.b[0] - Fraction(1, 2)) < Fraction(1, 10**45)
            assert abs(rule.b[1] - Fraction(1, 2)) < Fraction(1, 10**45)

    def test_endpoint_nodes(self):
        # zeta = -1 pins the left endpoint, zeta = 1 the right one
        for s in (2, 3, 4):
            assert quad_rule(s, -1).c[0] == 0
            assert quad_rule(s, 1).c[-1] == 1

    def test_quadrature_conditions(self):
        for s in range(1, 6):
            for z in ZETA_GRID:
                rule = quad_rule(s, z)
                assert rule.order == (2 * s if z == 0 else 2 * s - 1)
                for k in range(1, rule.order + 1):
                    lhs = sum(b * c ** (k - 1) for b, c in zip(rule.b, rule.c))
                    assert abs(lhs - Fraction(1, k)) < Fraction(1, 10**44)

    def test_moment_identity_s2(self):
        # b^T c^3 = 1/4 + zeta/36 across the family
        for z in ZETA_GRID + [Fraction(2)]:
            rule = quad_rule(2, z)
            got = sum(b * c**3 for b, c in zip(rule.b, rule.c))
            want = Fraction(1, 4) + Fraction(z) / 36
            assert abs(got - want) < Fraction(1, 10**44)

    def test_degenerate_zeta_rejected(self):
        with pytest.raises(QuadratureError):
            quad_rule(2, 5e9)
        # a zeta or coefficient that is no finite rational is an input error, as in every layer
        for x in (math.inf, -math.inf, math.nan):
            for build in (lambda: quad_rule(2, x), lambda: r_poly(3, 2, x), lambda: UniPoly([1, x])):
                with pytest.raises(ValueError, match="not a finite rational"):
                    build()

    def test_invalid_stage_count(self):
        with pytest.raises((QuadratureError, ValueError)):
            quad_rule(0, 0)

    @pytest.mark.parametrize("precision", [9, 12, 14])
    def test_precision_bound_named(self, precision):
        with pytest.raises(ValueError, match=f"precision_digits must be at least 15, got {precision}"):
            quad_rule(3, 0, precision)
        assert quad_rule(3, 0, 15).precision_digits == 15

    def test_node_poly_vanishes_on_nodes(self):
        rule = quad_rule(3, Fraction(1, 2))
        rho = rule.node_poly()
        assert rho.is_monic()
        assert rho.degree == 3
        for c in rule.c:
            assert abs(rho(c)) < Fraction(1, 10**44)

    def test_json_serialization(self):
        parsed = json.loads(quad_rule(2, Fraction(1, 2)).to_json())
        assert parsed["s"] == 2
        assert parsed["order"] == 3
        assert len(parsed["c"]) == len(parsed["b"]) == 2
        # decimals parse back to the right values
        assert abs(float(parsed["c"][0]) - float(quad_rule(2, 0.5).c[0])) < 1e-12

    def test_immutable(self):
        rule = quad_rule(2, 0)
        with pytest.raises(AttributeError):
            rule.order = 7


class TestLazyNodes:
    """A rule is built on its exact core; c and b are formed on first access."""

    @pytest.mark.parametrize("dps", [15, 50])
    @pytest.mark.parametrize("s", range(1, 11))
    def test_in_unit_interval_matches_polished_nodes(self, s, dps):
        # the exact Sturm count agrees with the rounded nodes: a root on an end point is
        # exact (zeta = -1 or 1), and every other root stays clear of 0 and 1
        for zeta in UNIT_ZETAS:
            rule = quad_rule(s, zeta, dps)
            exact_ends = {0} if zeta == -1 else {1} if zeta == 1 else set()
            assert {int(x) for x in rule.c if x in (0, 1)} == exact_ends, (s, zeta, dps)
            assert rule.in_unit_interval == all(0 <= x <= 1 for x in rule.c), (s, zeta, dps)
            if zeta in (-1, 0, 1, Fraction(1, 2)):
                assert rule.in_unit_interval

    def test_polish_logged_once_on_first_access(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="avfrk.quadrature"):
            rule = quad_rule(3, Fraction(1, 2))
            rank_kernel(build_M(rule, 5))
            uniqueness_sweep(rule, 5)
            uniqueness_sweep(quad_rule(4, Fraction(-1)), 7)
            tab = avf_tableau(rule)
            # neither the exact certificate nor a rank-one tableau before its entries are read logs
            assert not [r for r in caplog.records if r.name == "avfrk.quadrature"]
            assert rule.float_nodes and rule.float_nodes
            tab.A
            avf_tableau(rule).c
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.quadrature"]
        # the first float_nodes read isolates the roots and rounds at 53 bits, the first c
        # rounds at 219 bits on the same brackets; each record gives the isolation on its own
        assert len(got) == 2
        assert got[0].startswith("rounded nodes: s 3, zeta 1/2, 53 bits, isolation ")
        assert got[1].startswith("rounded nodes: s 3, zeta 1/2, 219 bits, isolation ")
        for message in got:
            isolation, total = (float(part.split()[-2]) for part in message.split(", ")[-2:])
            assert message.endswith(" ms") and 0 <= isolation <= total

    @pytest.mark.parametrize("s,zeta", [(3, Fraction(1, 2)), (4, Fraction(-1)), (4, Fraction(0)), (5, Fraction(2, 3))])
    def test_certificate_isolates_no_root(self, s, zeta):
        # the operator, its kernel, the sweep, the bush rows and the tree-class residuals of the
        # rule's own tableau read the exact core only: no root is isolated and no node formed
        rule = quad_rule(s, zeta)
        for m in [2 * s - 1] + [2 * s] * (zeta == 0):
            rank_kernel(build_M(rule, m))
            uniqueness_sweep(rule, m)
            bush_residuals(rule, m)
        tab = avf_tableau(rule)
        for ft in conditions_up_to(rule.order, rule.order):
            energy_condition_residual(ft, tab)
        assert (rule._isolated, rule._nodes, rule._floats) == (None, None, None)
        # and what is read afterwards is a fresh rule's
        fresh = quad_rule(s, zeta)
        assert rule._brackets == fresh._brackets == tuple(_isolate_roots(s, zeta, *_WINDOW))
        assert (rule.c, rule.b, rule.float_nodes) == (fresh.c, fresh.b, fresh.float_nodes)

    def test_nodes_are_read_only(self):
        rule = quad_rule(2, 0)
        for name in ("c", "b"):
            with pytest.raises(AttributeError):
                setattr(rule, name, ())
        assert rule.c is rule.c and rule.b is rule.b


def vandermonde_weights(c):
    """Reference weights: solve sum_i b_i c_i^(k-1) = 1/k, k = 1..s, at the current precision."""
    s = len(c)
    V = mp.matrix([[x ** k for x in c] for k in range(s)])
    return mp.lu_solve(V, mp.matrix([mp.mpf(1) / (k + 1) for k in range(s)]))


@lru_cache(maxsize=None)
def reference_roots(s, zeta):
    """All s roots of P_s - zeta P_(s-1), sorted, at 120 digits."""
    rho = legendre(s) - zeta * legendre(s - 1)
    with mp.workdps(120):
        coeffs = [mpf_of(c) for c in reversed(rho.coeffs)]
        return tuple(sorted(mp.re(r) for r in mp.polyroots(coeffs, maxsteps=200, extraprec=300)))


def legendre_values(s, z, x):
    """(rho(x), rho'(x), P_(s-1)(x)) for rho = P_s - z P_(s-1), by the Legendre recurrence in mpf."""
    t = 2 * x - 1
    p, q, dp, dq = mp.mpf(1), t, mp.mpf(0), mp.mpf(2)  # P_(k-1), P_k and their derivatives
    for k in range(1, s):
        p, q, dp, dq = q, ((2 * k + 1) * t * q - k * p) / (k + 1), dq, ((2 * k + 1) * (2 * q + t * dq) - k * dp) / (k + 1)
    return q - z * p, dq - z * dp, p


@lru_cache(maxsize=None)
def reference_rule(s, zeta):
    """(nodes, weights) of the rule to 118 digits: each node by Newton's iteration and its Christoffel weight.

    Newton runs on the mpf Legendre recurrence at 150 digits, so that a node
    of size 10^-31 still has 118, from the rule's float node until its step
    is below 10^-118 of the node, and the node it reaches must lie in its own
    Sturm bracket, which holds exactly one root.
    """
    rule = quad_rule(s, zeta)
    nodes, weights = [], []
    with mp.workdps(150):
        z = mpf_of(zeta)
        for (x, _), (lo, hi) in zip(rule.float_nodes, rule._brackets):
            x = mp.mpf(x)
            for _ in range(30):
                v, dv, _ = legendre_values(s, z, x)
                step = v / dv
                x -= step
                if abs(step) <= abs(x) * mp.mpf(10) ** -118:
                    break
            else:
                raise AssertionError(f"the reference Newton did not converge: s {s}, zeta {zeta}")
            assert lo < _exact_fraction(x) <= hi, (s, zeta)
            _, dv, p = legendre_values(s, z, x)
            nodes.append(x)
            weights.append(2 / (s * dv * p))
    return tuple(nodes), tuple(weights)


def rounded_reference(s, zeta, dps):
    """reference_rule rounded to the bits of dps + 15 digits, the working precision of c and b, as Fractions."""
    with mp.workdps(dps + 15):
        return tuple(tuple(_exact_fraction(+x) for x in xs) for xs in reference_rule(s, zeta))


class TestNodePolish:
    """c and b are the exact nodes and weights correctly rounded to the working precision."""

    @pytest.mark.parametrize("dps", [20, 50, 80])
    def test_nodes_in_brackets_and_match_polyroots(self, dps):
        for s in range(1, 11):
            for zeta in POLISH_ZETAS:
                rule = quad_rule(s, zeta, dps)
                brackets = _isolate_roots(s, zeta, *_WINDOW)
                nodes, weights = reference_rule(s, zeta)
                assert len(rule.c) == len(brackets) == s
                assert all(lo <= _exact_fraction(c) <= hi for c, (lo, hi) in zip(rule.c, brackets)), (s, zeta)
                assert (rule.c, rule.b) == rounded_reference(s, zeta, dps), (s, zeta, dps)
                # the reference against polyroots and a Vandermonde solve on its nodes
                with mp.workdps(120):
                    tol = mp.mpf(10) ** -100
                    assert all(abs(c - r) < tol for c, r in zip(nodes, reference_roots(s, zeta))), (s, zeta)
                    assert all(abs(b - r) < tol for b, r in zip(weights, vandermonde_weights(nodes))), (s, zeta)

    @pytest.mark.parametrize("dps", [15, 50])
    def test_equal_to_rounded_reference(self, dps):
        # every node and weight, b_24 of s = 24, zeta = -1 at 15 digits among them
        for zeta in OPERATOR_ZETAS:
            for s in range(1, 25):
                rule = quad_rule(s, zeta, dps)
                assert (rule.c, rule.b) == rounded_reference(s, zeta, dps), (s, zeta, dps)
        assert quad_rule(24, -1, 15).b[-1] == rounded_reference(24, Fraction(-1), 15)[1][-1]

    @pytest.mark.parametrize("dps", [15, 20, 50, 80])
    def test_radau_endpoint_nodes(self, dps):
        # a rational root and a rational weight are the exact value rounded to the working bits
        with mp.workdps(dps + 15):
            for s in range(1, 11):
                left, right = quad_rule(s, -1, dps), quad_rule(s, 1, dps)
                weight = rounded_of(Fraction(1, s * s))
                assert (left.c[0], left.b[0]) == (0, weight), (s, dps)
                assert (right.c[-1], right.b[-1]) == (1, weight), (s, dps)
                if s % 2:
                    gauss = quad_rule(s, 0, dps)
                    half = Fraction(1, 2)
                    assert (gauss.c[s // 2], gauss.b[s // 2]) == (half, rounded_of(exact_weight(s, Fraction(0), half)))
            assert quad_rule(1, Fraction(2, 3), dps).c == (rounded_of(Fraction(5, 6)),)

    @settings(max_examples=150, deadline=None)
    @example(s=3, zeta=Fraction(0), ends=[1024, 2048])  # the node 1/2 at b counts
    @example(s=3, zeta=Fraction(0), ends=[2048, 3000])  # and at a does not
    @given(
        s=st.integers(1, 10),
        zeta=st.sampled_from(STURM_ZETAS),
        ends=st.lists(st.integers(0, 2**12), min_size=2, max_size=2, unique=True),
    )
    def test_sturm_count_matches_polyroots(self, s, zeta, ends):
        # V(a) - V(b) counts the roots in (a, b] for dyadic a < b inside the window
        lo, hi = _WINDOW
        a, b = (lo + (hi - lo) * Fraction(i, 2**12) for i in sorted(ends))
        got = _sign_changes(_sturm_values(s, zeta, a)) - _sign_changes(_sturm_values(s, zeta, b))
        rho = legendre(s) - zeta * legendre(s - 1)
        tol = mp.mpf(10) ** -60  # roots on a dyadic end point are decided exactly below
        with mp.workdps(120):
            want = sum(1 for r in reference_roots(s, zeta) if mpf_of(a) + tol < r < mpf_of(b) - tol)
        assert got == want + (rho(b) == 0)

    def test_sturm_values_are_scaled_members(self):
        # with x = n/d, P_k(x) is scaled by k! d^k and rho by s! d^s zeta_den
        for s in (1, 4, 9):
            for zeta in STURM_ZETAS:
                members = [legendre(s) - zeta * legendre(s - 1)] + [legendre(k) for k in range(s)][::-1]
                for x in (Fraction(-7, 2), Fraction(1, 3), Fraction(1, 2), Fraction(9, 7)):
                    d = x.denominator
                    scales = [factorial(s) * d**s * zeta.denominator]
                    scales += [factorial(k) * d**k for k in range(s)][::-1]
                    assert _sturm_values(s, zeta, x) == [f * P(x) for f, P in zip(scales, members)]

    @pytest.mark.parametrize(
        "s, zeta, dps",
        [(30, Fraction(0), 15), (29, Fraction(1), 15), (30, Fraction(1, 2), 50), (40, Fraction(0), 30)],
    )
    def test_guard_digits_polish_large_rules(self, s, zeta, dps):
        # large rules, where the coefficients of rho cancel most digits in the monomial basis
        rule = quad_rule(s, zeta, dps)
        assert (rule.c, rule.b) == rounded_reference(s, zeta, dps)
        assert all(lo <= _exact_fraction(c) <= hi for c, (lo, hi) in zip(rule.c, rule._brackets))
        if zeta == 1:
            assert rule.c[-1] == 1

    @pytest.mark.parametrize("zeta", [Fraction(-1) + Fraction(1, 10**30), Fraction(-1) - Fraction(1, 10**30)])
    @pytest.mark.parametrize("dps", [15, 50])
    def test_node_near_zero(self, zeta, dps):
        # a node of size 10^-31 is rounded to the working bits relative to its own size
        for s in (2, 3):
            rule = quad_rule(s, zeta, dps)
            assert 0 < abs(rule.c[0]) < 1e-30
            assert (rule.c, rule.b) == rounded_reference(s, zeta, dps), (s, dps)

    @pytest.mark.parametrize("dps", [15, 50])
    def test_one_stage_node_far_below_the_newton_grid(self, dps):
        # (1 + zeta) / 2 = 5 10^-201 lies far below the grid Newton's float seed sets: the
        # search halves down to its size from a bracket through 0
        node = Fraction(1, 2 * 10**200)
        rule = quad_rule(1, node * 2 - 1, dps)
        assert rule.float_nodes == ((float(node), 1.0),)
        with mp.workdps(dps + 15):
            assert rule.c == (rounded_of(node),) and rule.b == (1,)

    @pytest.mark.parametrize("zeta", [Fraction(-3, 2), Fraction(3, 2), Fraction(7)])
    def test_nodes_outside_the_unit_interval(self, zeta):
        # a negative node, and nodes above 1, against the reference
        for s in range(1, 7):
            for dps in (15, 50):
                rule = quad_rule(s, zeta, dps)
                assert not rule.in_unit_interval
                assert (rule.c, rule.b) == rounded_reference(s, zeta, dps), (s, dps)

    @pytest.mark.parametrize("bits", [53, 103])
    def test_rounding_ties_half_even(self, bits):
        # s = 1 puts the node at (1 + zeta) / 2, here 1 + k 2^-bits: half an ulp above 1 and
        # one and a half and two and a half ulps, each met exactly and rounded to the even one
        for k, want in ((1, 1), (3, 1 + Fraction(4, 2**bits)), (5, 1 + Fraction(4, 2**bits))):
            rule = quad_rule(1, 1 + Fraction(k, 2 ** (bits - 1)), 15)  # 103 bits at 15 + 15 digits
            node = rule.float_nodes[0][0] if bits == 53 else rule.c[0]
            assert _exact_fraction(node) == want, (bits, k)

    @pytest.mark.parametrize("guard", [0, -40])
    def test_rounding_from_a_coarse_bracket(self, monkeypatch, guard):
        # with fewer guard bits than the target the Newton bracket holds rounding boundaries,
        # and narrowing it past them gives the same values
        want = {(s, z): (quad_rule(s, z, 15).c, quad_rule(s, z, 15).float_nodes) for s in range(1, 9) for z in OPERATOR_ZETAS}
        monkeypatch.setattr(quadrature, "_GUARD_BITS", guard)
        for (s, z), (c, floats) in want.items():
            rule = quad_rule(s, z, 15)
            assert (rule.c, rule.float_nodes) == (c, floats), (s, z)

    @pytest.mark.parametrize("zeta", OPERATOR_ZETAS + [Fraction(-1) + Fraction(1, 10**30), Fraction(-1) - Fraction(1, 10**200), Fraction(2)])
    def test_search_from_the_sturm_bracket(self, zeta):
        # the narrowing alone, from a dyadic bracket around the whole isolating bracket: through 0
        # where the bracket holds 0, and meeting a root at 0 exactly
        for s in range(1, 7):
            rule = quad_rule(s, zeta)
            weight = quadrature._weight_form(s, zeta)
            for (c, w), (lo, hi) in zip(rule.float_nodes, rule._brackets):
                side = quadrature._root_side(s, zeta, lo, hi, _sturm_values(s, zeta, lo)[0] < 0)
                a, b = Fraction(math.floor(lo * 64), 64), Fraction(math.floor(hi * 64) + 1, 64)
                x, wx = _rounded_node(side, a, b, weight, 53)
                assert (float(x), float(wx)) == (c, w), (s, zeta)

    @pytest.mark.parametrize("zeta, root", [(Fraction(0), 0.5), (Fraction(-1), 0.0), (Fraction(1), 1.0)])
    def test_newton_from_a_wrong_seed(self, zeta, root):
        # started at another bracket's exact root, Newton stops at once; the two side tests
        # do not confirm it, and the whole isolating bracket, on the Newton grid, is searched
        for s in (3, 5, 7):
            rule = quad_rule(s, zeta)
            rho = quadrature._rho_ints(s, zeta)
            slope = [k * c for k, c in enumerate(rho)][1:]
            weight = quadrature._weight_form(s, zeta)
            for (c, w), (lo, hi) in zip(rule.float_nodes, rule._brackets):
                if c == root:
                    continue
                rising = _sturm_values(s, zeta, lo)[0] < 0
                side = quadrature._root_side(s, zeta, lo, hi, rising)
                a, b = quadrature._newton_bracket(side, rho, slope, lo, hi, Fraction(root), rising, 53)
                assert a <= lo < hi < b, (s, zeta, c)
                x, wx = _rounded_node(side, a, b, weight, 53)
                assert (float(x), float(wx)) == (c, w), (s, zeta, c)


def exact_weight(s, zeta, x):
    """2 / (s rho'(x) P_(s-1)(x)) at a rational x, exactly."""
    rho = legendre(s) - zeta * legendre(s - 1)
    return 2 / (s * rho.derivative()(x) * legendre(s - 1)(x))


class TestRootIsolation:
    """The integer bisection gives the brackets of the Fraction bisection, end for end."""

    @pytest.mark.parametrize("s", range(1, 31))
    def test_equal_to_fraction_bisection(self, s):
        for zeta in OPERATOR_ZETAS[:6] + [Fraction(2)]:
            rule = quad_rule(s, zeta)
            assert (list(rule._brackets), rule.in_unit_interval) == reference_rule_core(s, zeta), (s, zeta)
            assert rule._brackets == tuple(_isolate_roots(s, zeta, *_WINDOW))

    @pytest.mark.parametrize("s", range(1, 31, 2))
    def test_nudge_off_the_first_midpoint(self, s):
        # at zeta = 0 and odd s the root 1/2 is the window's first midpoint, so the bisection nudges off it
        lo, hi = _WINDOW
        assert (lo + hi) / 2 == Fraction(1, 2) and _sturm_values(s, Fraction(0), Fraction(1, 2))[0] == 0
        brackets = _isolate_roots(s, Fraction(0), lo, hi)
        assert sum(a < Fraction(1, 2) <= b for a, b in brackets) == 1
        assert (brackets, True) == reference_rule_core(s, Fraction(0))

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8, 13])
    def test_errors_unchanged(self, s):
        # a zeta that drives roots out of the window fails with the same message
        for zeta in [Fraction(7), Fraction(40), Fraction(-40), Fraction(5 * 10**9), Fraction(-5 * 10**9, 3)]:
            try:
                want = reference_rule_core(s, zeta)
            except QuadratureError as e:
                with pytest.raises(QuadratureError) as got:
                    quad_rule(s, zeta)
                assert str(got.value) == str(e)
            else:
                rule = quad_rule(s, zeta)
                assert (list(rule._brackets), rule.in_unit_interval) == want


_ray_terms = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 3)), st.integers(-60, 60), max_size=8)
_ray_dens = st.integers(1, 40)


@st.composite
def _ray_operands(draw):
    """(new, reference): one operand of the ray algebra in each representation: a ray polynomial, a UniPoly or a scalar."""
    kind = draw(st.sampled_from(["ray", "unipoly", "int", "fraction"]))
    if kind == "ray":
        d, terms = draw(_ray_dens), draw(_ray_terms)
        return _RayPoly(d, terms), ReferenceRayPoly(d, terms)
    if kind == "unipoly":
        coeffs = draw(st.lists(st.fractions(max_denominator=30).filter(lambda x: abs(x) < 100), max_size=5))
        return UniPoly(coeffs), UniPoly(coeffs)
    x = draw(st.integers(-50, 50)) if kind == "int" else draw(st.fractions(max_denominator=30))
    return x, x


class TestRayPoly:
    """The plain-dict ray algebra against the defaultdict one it replaced (ReferenceRayPoly)."""

    @given(_ray_dens, _ray_terms, _ray_operands(), st.sampled_from(["+", "-", "*", "r*"]))
    @settings(max_examples=300, deadline=None)
    def test_operations_match_reference(self, d, terms, other, op):
        new, ref = _RayPoly(d, terms), ReferenceRayPoly(d, terms)
        apply = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "r*": lambda a, b: b * a,  # a scalar or UniPoly on the left
        }[op]
        got, want = apply(new, other[0]), apply(ref, other[1])
        assert type(got) is _RayPoly and type(got.d) is int and got.d > 0
        assert all(type(n) is int for n in got.values())
        assert ray_terms(got) == ray_terms(want)

    @given(st.sampled_from([(2, Fraction(0)), (3, Fraction(1, 2)), (4, Fraction(-1)), (5, Fraction(2, 3))]),
           _ray_dens, _ray_terms, _ray_dens, _ray_terms, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_moment_sum_matches_reference(self, case, df, f, dg, g, ray):
        # A(g) = x <1, g>_D and ip(f, g) = <f, g>_D, on and off a kernel ray, over the
        # moments of the Fraction remainder recurrence
        rule = quad_rule(*case)
        U, V = (UniPoly([1, -2]), UniPoly([Fraction(1, 3), 2])) if ray else (None, None)
        A, ip = _moment_form(rule, 2 * rule.s + 1, (U, V) if ray else None)
        f, g = _RayPoly(df, f), _RayPoly(dg, g)
        fr, gr = ReferenceRayPoly(df, f), ReferenceRayPoly(dg, g)
        want_ip = {k: x for k, x in reference_moment_sum(rule, fr * gr).items() if x}
        assert ray_terms(ip(f, g)) == want_ip
        want_A = ReferenceRayPoly(1)
        for key, x in reference_moment_sum(rule, gr, 1).items():
            want_A += ReferenceRayPoly(x.denominator, {key: x.numerator})
        if ray:
            beta_U = ReferenceRayPoly(1, {(0, 1): 1}) * U
            for key, x in reference_moment_sum(rule, reference_ray_poly(V) * gr).items():
                want_A += beta_U * ReferenceRayPoly(x.denominator, {key: x.numerator})
        assert ray_terms(A(g)) == ray_terms(want_A)


class TestFloatNodes:
    """QuadRule.float_nodes rounds each node and weight correctly from exact
    sign tests, by the routine that rounds c and b, at 53 bits; it forms no mpf."""

    @pytest.mark.parametrize("zeta", OPERATOR_ZETAS)
    def test_equal_to_polished_floats(self, zeta):
        # c and b are correctly rounded at 103 and 219 bits, so float() of them is the
        # correctly rounded float too, bit for bit
        for dps in (15, 50):
            for s in range(1, 25):
                rule = quad_rule(s, zeta, dps)
                got = rule.float_nodes
                assert got == tuple((float(c), float(b)) for c, b in zip(rule.c, rule.b)), (s, dps)

    @pytest.mark.parametrize("s", range(1, 25))
    def test_rational_roots_exact(self, s):
        # a rational root and its rational weight round exactly: c_1 = 0 at zeta = -1,
        # c_s = 1 at zeta = 1 (both with weight 1/s^2), and the middle Gauss node 1/2 at odd s
        assert quad_rule(s, -1).float_nodes[0] == (0.0, float(Fraction(1, s * s)))
        assert quad_rule(s, 1).float_nodes[-1] == (1.0, float(Fraction(1, s * s)))
        if s % 2:
            half = Fraction(1, 2)
            assert quad_rule(s, 0).float_nodes[s // 2] == (0.5, float(exact_weight(s, Fraction(0), half)))

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(1, 8), zeta=st.fractions(-2, 2, max_denominator=20))
    def test_correctly_rounded(self, s, zeta):
        # each float lies within half an ulp of the value at 60 digits, up to their error
        rule = quad_rule(s, zeta, 60)
        for (c, b), mc, mb in zip(rule.float_nodes, rule.c, rule.b):
            for x, m in ((c, mc), (b, mb)):
                assert abs(Fraction(x) - m) <= Fraction(math.ulp(x)) / 2 + Fraction(1, 10**57), (s, zeta)

    def test_no_polish(self, monkeypatch):
        def refuse(rule):
            raise AssertionError("a rule's mpf nodes or weights were read")

        def floats_only(s, zeta, brackets, bits):
            assert bits == 53
            return rounded_rule(s, zeta, brackets, bits)

        rounded_rule = quadrature._rounded_rule
        monkeypatch.setattr(QuadRule, "c", property(refuse))
        monkeypatch.setattr(QuadRule, "b", property(refuse))
        monkeypatch.setattr(quadrature, "_rounded_rule", floats_only)
        for s in (1, 4, 24):
            assert len(quad_rule(s, Fraction(1, 3), 15).float_nodes) == s


class TestMoments:
    def test_exact_below_order(self):
        for s, zeta in [(1, Fraction(0)), (3, Fraction(1, 2)), (4, Fraction(-1)), (5, Fraction(0))]:
            rule = quad_rule(s, zeta)
            assert rule.moments(rule.order) == tuple(Fraction(1, k + 1) for k in range(rule.order))

    def test_extension_matches_fresh_rule(self):
        rule = quad_rule(4, Fraction(2, 3))
        short = rule.moments(3)
        long = rule.moments(20)
        assert long[:3] == short and len(long) == 20
        assert quad_rule(4, Fraction(2, 3)).moments(20) == long
        # a shorter request after a longer one gives exactly n moments
        assert rule.moments(3) == short and rule.moments(0) == ()

    @pytest.mark.parametrize("s", range(1, 13))
    def test_equal_to_remainder_recurrence(self, s):
        # the integer recurrence over rho against the Fraction remainder recurrence
        for zeta in [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2, 3), Fraction(-1, 2), Fraction(1, 3)]:
            try:
                rule = quad_rule(s, zeta)
            except QuadratureError:
                continue
            assert rule.moments(3 * s + 2) == reference_moments(rule, 3 * s + 2)
            ints, d = rule._moment_ints(3 * s + 2)
            assert len(ints) == 3 * s + 2 and math.gcd(d, *ints) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(1, 8),
        num=st.integers(-12, 12),
        den=st.integers(1, 12),
        n=st.integers(0, 30),
        first=st.integers(0, 30),
    )
    def test_random_zeta_against_remainder_recurrence(self, s, num, den, n, first):
        # extended in two steps (first, then n) or one, with a common denominator either way
        try:
            rule = quad_rule(s, Fraction(num, den))
        except QuadratureError:
            assume(False)
        assert rule.moments(first) == reference_moments(rule, first)
        assert rule.moments(n) == reference_moments(rule, n)
        ints, d = rule._moment_ints(n)
        assert math.gcd(d, *ints) == 1
        assert tuple(Fraction(x, d) for x in ints) == reference_moments(rule, len(ints))

    def test_match_weighted_node_powers(self):
        rule = quad_rule(5, Fraction(-1, 3))
        for k, m in enumerate(rule.moments(16)):
            num = sum(b * c**k for b, c in zip(rule.b, rule.c))
            assert abs(num - m) < Fraction(1, 10**45)


class TestDiscreteInnerProduct:
    @settings(max_examples=80, deadline=None)
    @given(
        s=st.integers(1, 8),
        zeta=st.sampled_from(MOMENT_ZETAS),
        seed=st.integers(0, 2**16),
    )
    def test_moments_match_remainder_definition(self, s, zeta, seed):
        rng = random.Random(seed)
        rule = cached_rule(s, zeta)
        u = random_unipoly(rng, rng.randint(0, 2 * s + 3))
        v = random_unipoly(rng, rng.randint(0, 2 * s + 3))
        want = remainder_ip(u, v, rule)
        assert discrete_ip_exact(u, v, rule) == want
        one = UniPoly([1])
        assert discrete_ip_table([u, v], [v, one], rule) == [
            [want, remainder_ip(u, one, rule)],
            [remainder_ip(v, v, rule), remainder_ip(v, one, rule)],
        ]

    def test_zero_polynomials(self):
        rule = quad_rule(3, Fraction(1, 2))
        zero = UniPoly([])
        assert discrete_ip_exact(zero, legendre(4), rule) == 0
        assert discrete_ip_exact(zero, zero, rule) == 0
        assert discrete_ip_table([], [legendre(2)], rule) == []
        assert discrete_ip_table([legendre(2)], [], rule) == [[]]

    def test_matches_continuous_below_order(self):
        rng = random.Random(77)
        for s, z in [(2, Fraction(0)), (3, Fraction(1)), (4, Fraction(-1, 2))]:
            rule = quad_rule(s, z)
            for _ in range(10):
                du = rng.randint(0, rule.order - 1)
                u = random_unipoly(rng, du)
                v = random_unipoly(rng, rule.order - 1 - du)
                assert discrete_ip_exact(u, v, rule) == continuous_ip(u, v)

    def test_numeric_matches_exact(self):
        rng = random.Random(78)
        rule = quad_rule(3, Fraction(1, 2))
        for _ in range(10):
            u = random_unipoly(rng, 5)
            v = random_unipoly(rng, 4)
            num = discrete_ip(u, v, rule)
            exa = discrete_ip_exact(u, v, rule)
            assert num == sum(b * u(c) * v(c) for b, c in zip(rule.b, rule.c))
            assert abs(num - exa) < Fraction(1, 10**42)

    def test_gauss_overflow_products(self):
        # <P_{2s-r}, P_r>_D for the order-2s rule, r = 1..s-1
        for s in range(2, 6):
            rule = quad_rule(s, 0)
            for r in range(1, s):
                got = discrete_ip_exact(legendre(2 * s - r), legendre(r), rule)
                want = Fraction(
                    -gamma_lead(2 * s - r) * gamma_lead(r),
                    gamma_lead(s) ** 2 * (2 * s + 1),
                )
                assert got == want

    def test_gauss_overflow_g_products(self):
        # <G_{2s-r+1}, P_r'>_D = r/(2s-r+1) <P_{2s-r}, P_r>_D
        for s in range(2, 6):
            rule = quad_rule(s, 0)
            for r in range(1, s):
                lhs = discrete_ip_exact(
                    g_poly(2 * s - r + 1), legendre(r).derivative(), rule
                )
                ref = discrete_ip_exact(legendre(2 * s - r), legendre(r), rule)
                assert lhs == Fraction(r, 2 * s - r + 1) * ref

    def test_r_family_annihilated(self):
        # <P, R_r>_D = 0 for r >= s: every node is a root of R_r
        for s, z in [(2, Fraction(1, 2)), (3, Fraction(-1))]:
            rule = quad_rule(s, z)
            rng = random.Random(79)
            for r in range(s, 2 * s):
                Rr = r_poly(r, s, z)
                for P in [legendre(0), legendre(s), random_unipoly(rng, 2 * s - r)]:
                    assert discrete_ip_exact(P, Rr, rule) == 0

    def test_adjacent_index_products(self):
        # <P_{s+r-1}, P_{s-r}>_D and the paired G-product, exact in zeta
        for s in range(2, 6):
            for z in [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]:
                rule = quad_rule(s, z)
                for r in range(1, s + 1):
                    got = discrete_ip_exact(
                        legendre(s + r - 1), legendre(s - r), rule
                    )
                    want = (
                        Fraction(
                            gamma_lead(s + r - 1) * gamma_lead(s - r),
                            gamma_lead(s) * gamma_lead(s - 1),
                        )
                        * z
                        / (2 * s - 1)
                    )
                    assert got == want
                    if r < s:
                        lhs = discrete_ip_exact(
                            g_poly(s + r), legendre(s - r).derivative(), rule
                        )
                        assert lhs == Fraction(s - r, s + r) * want

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bilinearity(self, seed):
        rng = random.Random(seed)
        rule = quad_rule(2, Fraction(1, 2))
        u1 = random_unipoly(rng, 3)
        u2 = random_unipoly(rng, 4)
        v = random_unipoly(rng, 3)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert discrete_ip_exact(u1 + lam * u2, v, rule) == discrete_ip_exact(
            u1, v, rule
        ) + lam * discrete_ip_exact(u2, v, rule)


class TestMixedFFormulas:
    """Discrete products of the F family against Legendre derivatives."""

    CASES = [
        (s, z)
        for s in (3, 4, 5)
        for z in (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2))
    ]

    def test_derivative_against_high_f(self):
        for s, z in self.CASES:
            rule = quad_rule(s, z)
            for r in range(1, s):
                got = discrete_ip_exact(
                    legendre(s - r).derivative(), f_poly(s + r, s, z), rule
                )
                want = (
                    z
                    * Fraction(2 * s, (2 * s - 1) * (s + r))
                    * Fraction(gamma_lead(r - 1) * gamma_lead(s - r), gamma_lead(s - 1))
                )
                assert got == want

    def test_high_f_against_derivative(self):
        for s, z in self.CASES:
            rule = quad_rule(s, z)
            for r in range(1, s):
                got = discrete_ip_exact(
                    f_poly(s + r, s, z), legendre(s + 1 - r).derivative(), rule
                )
                want = -Fraction(
                    gamma_lead(r - 1) * gamma_lead(s + 1 - r), gamma_lead(s) * (s + r)
                ) * (1 + z * z * Fraction(s + 1 - r, (s + r - 1) * (2 * s - 1)))
                assert got == want

    def test_fs2_special_case(self):
        for s, z in self.CASES:
            rule = quad_rule(s, z)
            got = discrete_ip_exact(
                legendre(s).derivative(), f_poly(s + 2, s, z), rule
            )
            want = (
                -z
                * Fraction(s, (2 * s - 1) * (s + 1))
                * (z * z * Fraction(s, (2 * s - 1) * (s + 2)) - 1)
            )
            assert got == want


class TestExactnessLemma:
    def test_s2_gauss_quartic(self):
        rule = quad_rule(2, 0)
        res = check_discip_lemma(rule, UniPoly([0, 0, 0, 0, 1]), UniPoly([0, 0, 1]))
        assert res == 0 and type(res) is Fraction

    def test_theta_independence(self):
        rule = quad_rule(3, Fraction(1, 2))  # order 5
        rng = random.Random(80)
        for _ in range(5):
            theta = random_unipoly(rng, rule.order - rule.s - 1) + UniPoly(
                [0] * (rule.order - rule.s) + [1]
            )
            pi = random_unipoly(rng, rule.order - 1) + UniPoly(
                [0] * rule.order + [1]
            )
            assert check_discip_lemma(rule, pi, theta) == 0

    def test_divisible_case(self):
        rule = quad_rule(2, 0)
        rho = rule.node_poly()
        theta = rho  # monic, degree order - s = s
        pi = rho * theta
        disc = discrete_ip(pi, UniPoly([1]), rule)
        assert abs(disc) < Fraction(1, 10**44)
        assert check_discip_lemma(rule, pi, theta) == 0

    @pytest.mark.parametrize("s", range(2, 7))
    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)])
    def test_never_polishes(self, monkeypatch, s, zeta):
        monkeypatch.setattr(quadrature, "_rounded_rule", refuse_nodes)
        rule = quad_rule(s, zeta)
        rng = random.Random(10 * s)
        theta = random_unipoly(rng, rule.order - s - 1) + UniPoly([0] * (rule.order - s) + [1])
        pi = random_unipoly(rng, rule.order - 1) + UniPoly([0] * rule.order + [1])
        assert check_discip_lemma(rule, pi, theta) == 0
        assert check_discip_lemma(rule, rule.node_poly() * theta, theta) == 0

    def test_rejects_bad_inputs(self):
        rule = quad_rule(2, 0)
        with pytest.raises(ValueError):
            check_discip_lemma(rule, UniPoly([0, 0, 0, 0, 2]), UniPoly([0, 0, 1]))
        with pytest.raises(ValueError):
            check_discip_lemma(rule, UniPoly([0, 0, 0, 1]), UniPoly([0, 0, 1]))
