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
    _exact_fraction,
    _isolate_roots,
    _polish_root,
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
from avfrk.conditions import build_M, rank_kernel, uniqueness_sweep
from avfrk.integrators import avf_tableau
from _util import random_unipoly, reference_moments, reference_polish_root, refuse_polish

ZETA_GRID = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
MOMENT_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 3)]
POLISH_ZETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1), Fraction(2)]
# 7 puts a node outside [0, 1], 40 a root outside _WINDOW
STURM_ZETAS = POLISH_ZETAS + [Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(7), Fraction(40)]
# 3/2, 7 and -3/2 put a node outside [0, 1]; -1 and 1 put one on an end point
UNIT_ZETAS = [Fraction(2), Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(7), Fraction(-3, 2)]
X = UniPoly([0, 1])


def mpf_of(fr):
    return mp.mpf(fr.numerator) / fr.denominator


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
        assert abs(p(mp.mpf("0.5"))) < mp.mpf("1e-45")

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
        assert abs(rule.c[0] - mp.mpf(1) / 2) < mp.mpf("1e-45")
        assert abs(rule.b[0] - 1) < mp.mpf("1e-45")

    def test_two_stage_gauss(self):
        rule = quad_rule(2, 0)
        assert rule.order == 4
        with mp.workdps(60):
            r3 = mp.sqrt(3) / 6
            assert abs(rule.c[0] - (mp.mpf(1) / 2 - r3)) < mp.mpf("1e-45")
            assert abs(rule.c[1] - (mp.mpf(1) / 2 + r3)) < mp.mpf("1e-45")
            assert abs(rule.b[0] - mp.mpf(1) / 2) < mp.mpf("1e-45")
            assert abs(rule.b[1] - mp.mpf(1) / 2) < mp.mpf("1e-45")

    def test_endpoint_nodes(self):
        # zeta = -1 pins the left endpoint, zeta = 1 the right one
        for s in (2, 3, 4):
            assert abs(quad_rule(s, -1).c[0]) < mp.mpf("1e-45")
            assert abs(quad_rule(s, 1).c[-1] - 1) < mp.mpf("1e-45")

    def test_quadrature_conditions(self):
        for s in range(1, 6):
            for z in ZETA_GRID:
                rule = quad_rule(s, z)
                assert rule.order == (2 * s if z == 0 else 2 * s - 1)
                with mp.workdps(60):
                    for k in range(1, rule.order + 1):
                        lhs = mp.fsum(
                            b * c ** (k - 1) for b, c in zip(rule.b, rule.c)
                        )
                        assert abs(lhs - mp.mpf(1) / k) < mp.mpf("1e-44")

    def test_moment_identity_s2(self):
        # b^T c^3 = 1/4 + zeta/36 across the family
        for z in ZETA_GRID + [Fraction(2)]:
            rule = quad_rule(2, z)
            with mp.workdps(60):
                got = mp.fsum(b * c**3 for b, c in zip(rule.b, rule.c))
                want = mp.mpf(1) / 4 + mpf_of(Fraction(z)) / 36
                assert abs(got - want) < mp.mpf("1e-44")

    def test_degenerate_zeta_rejected(self):
        with pytest.raises(QuadratureError):
            quad_rule(2, 5e9)

    def test_invalid_stage_count(self):
        with pytest.raises((QuadratureError, ValueError)):
            quad_rule(0, 0)

    def test_node_poly_vanishes_on_nodes(self):
        rule = quad_rule(3, Fraction(1, 2))
        rho = rule.node_poly()
        assert rho.is_monic()
        assert rho.degree == 3
        with mp.workdps(60):
            for c in rule.c:
                assert abs(rho(c)) < mp.mpf("1e-44")

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
    """A rule is built on its exact core; c and b are polished on first access."""

    @pytest.mark.parametrize("dps", [15, 50])
    @pytest.mark.parametrize("s", range(1, 11))
    def test_in_unit_interval_matches_polished_nodes(self, s, dps):
        # the exact Sturm count agrees with the polished nodes up to the validation
        # tolerance, which decides every node: a root on an end point is exact
        # (zeta = -1 or 1), and every other root stays clear of 0 and 1
        for zeta in UNIT_ZETAS:
            rule = quad_rule(s, zeta, dps)
            exact_ends = {0} if zeta == -1 else {1} if zeta == 1 else set()
            with mp.workdps(dps + 15):
                tol = mp.mpf(10) ** (-dps + 5)
                for x in rule.c:
                    near = {e for e in (0, 1) if abs(x - e) <= tol}
                    assert near <= exact_ends, (s, zeta, dps)
                assert rule.in_unit_interval == all(-tol <= x <= 1 + tol for x in rule.c), (s, zeta, dps)
            if zeta in (-1, 0, 1, Fraction(1, 2)):
                assert rule.in_unit_interval

    def test_polish_logged_once_on_first_access(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="avfrk.quadrature"):
            rule = quad_rule(3, Fraction(1, 2))
            rank_kernel(build_M(rule, 5))
            uniqueness_sweep(rule, 5)
            uniqueness_sweep(quad_rule(4, Fraction(-1)), 7)
            assert not [r for r in caplog.records if r.name == "avfrk.quadrature"]
            avf_tableau(rule)
            avf_tableau(rule)
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.quadrature"]
        assert len(got) == 1
        assert got[0].startswith("polish nodes: s 3, zeta 1/2, precision 50, ")
        assert got[0].endswith(" ms") and float(got[0].split(", ")[-1][:-3]) >= 0

    def test_polish_failure_raised_on_access(self, monkeypatch):
        # construction needs no polish; a failing polish raises at each access and is not cached
        def fail(*args):
            raise QuadratureError("Newton did not converge")

        monkeypatch.setattr(quadrature, "_polish_root", fail)
        rule = quad_rule(4, Fraction(1, 3))
        assert rule.moments(rule.order) == tuple(Fraction(1, k + 1) for k in range(rule.order))
        for _ in range(2):
            with pytest.raises(QuadratureError, match="did not converge"):
                rule.b
        monkeypatch.undo()
        assert rule.c == quad_rule(4, Fraction(1, 3)).c

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


class TestNodePolish:
    @pytest.mark.parametrize("dps", [20, 50, 80])
    def test_nodes_in_brackets_and_match_polyroots(self, dps):
        for s in range(1, 11):
            for zeta in POLISH_ZETAS:
                rule = quad_rule(s, zeta, dps)
                brackets = _isolate_roots(s, zeta, *_WINDOW)
                ref = reference_roots(s, zeta)
                with mp.workdps(dps + 30):
                    assert len(rule.c) == len(brackets) == len(ref) == s
                    for c, (lo, hi), r in zip(rule.c, brackets, ref):
                        assert lo <= _exact_fraction(c) <= hi, (s, zeta, dps)
                        assert abs(c - r) < mp.mpf(10) ** -(dps + 5), (s, zeta, dps)
                    # the Christoffel weights against a Vandermonde solve on the reference nodes
                    for b, r in zip(rule.b, vandermonde_weights(ref)):
                        assert abs(b - r) < mp.mpf(10) ** -(dps + 5), (s, zeta, dps)

    @pytest.mark.parametrize("dps", [20, 50, 80])
    def test_radau_endpoint_nodes(self, dps):
        tol = mp.mpf(10) ** (-dps + 5)  # the tolerance _validate_rule applies
        for s in range(1, 11):
            assert abs(quad_rule(s, -1, dps).c[0]) <= tol
            assert abs(quad_rule(s, 1, dps).c[-1] - 1) <= tol

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

    @pytest.mark.parametrize("dps", [15, 50])
    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)])
    def test_safeguard_keeps_every_polished_bit(self, monkeypatch, zeta, dps):
        # only a step that would leave the bracket bisects; no rule up to s = 22 takes one
        def bits(rule):
            return [x._mpf_ for x in rule.c + rule.b]

        got = [bits(quad_rule(s, zeta, dps)) for s in range(1, 23)]
        monkeypatch.setattr(quadrature, "_polish_root", reference_polish_root)
        assert got == [bits(quad_rule(s, zeta, dps)) for s in range(1, 23)]

    @pytest.mark.parametrize("s", [24, 25, 28, 30])
    def test_large_rules_polish_inside_their_brackets(self, s):
        # the float seed is rounding noise here: unguarded, Newton left the bracket
        def refused(lo, hi):
            try:
                reference_polish_root(legendre(s), lo, hi, 50)
            except QuadratureError:
                return True
            return False

        rule = quad_rule(s, 0)
        assert any(refused(lo, hi) for lo, hi in rule._brackets)
        # reading c polishes and validates all 2s quadrature conditions to 10^-45
        assert all(lo <= _exact_fraction(c) <= hi for c, (lo, hi) in zip(rule.c, rule._brackets))

    @pytest.mark.parametrize(
        "s, zeta, dps",
        [(30, Fraction(0), 15), (29, Fraction(1), 15), (30, Fraction(1, 2), 50), (40, Fraction(0), 30)],
    )
    def test_guard_digits_polish_large_rules(self, s, zeta, dps):
        # without guard digits Horner's cancellation left these Newton iterations short of the stop
        rule = quad_rule(s, zeta, dps)
        rho = legendre(s) - zeta * legendre(s - 1)
        assert quadrature._guard_digits(rho) > 0
        # reading c polishes and validates all quadrature conditions to 10^-(dps-5)
        assert all(lo <= _exact_fraction(c) <= hi for c, (lo, hi) in zip(rule.c, rule._brackets))
        with mp.workdps(dps + 15):
            assert all(+x == x for x in rule.c + rule.b)  # rounded back to the working precision
        if zeta == 1:
            assert abs(rule.c[-1] - 1) <= mp.mpf(10) ** (-dps + 5)

    def test_no_guard_digits_up_to_s_22(self):
        # so the polished bits of those rules are those of the safeguarded Newton alone
        for s in range(1, 23):
            for zeta in (0, Fraction(1, 2), -1, Fraction(2, 3), 1, Fraction(-1, 2), 2):
                assert quadrature._guard_digits(legendre(s) - zeta * legendre(s - 1)) == 0, (s, zeta)

    def test_root_outside_bracket_is_refused(self):
        p = UniPoly([3, -4, 1])  # (x - 1)(x - 3): Newton from [0, 1/2] converges to 1
        with pytest.raises(QuadratureError, match="left the isolating bracket"):
            _polish_root(p, Fraction(0), Fraction(1, 2), 30)
        with pytest.raises(QuadratureError, match="bracket"):
            _polish_root(p, Fraction(3, 2), Fraction(2), 30)  # no root, p' = 0 at 2


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
        with mp.workdps(70):
            for k, m in enumerate(rule.moments(16)):
                num = mp.fsum(b * c**k for b, c in zip(rule.b, rule.c))
                assert abs(num - mpf_of(m)) < mp.mpf("1e-45")


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
        with mp.workdps(60):
            for _ in range(10):
                u = random_unipoly(rng, 5)
                v = random_unipoly(rng, 4)
                num = discrete_ip(u, v, rule)
                exa = discrete_ip_exact(u, v, rule)
                assert abs(num - mpf_of(exa)) < mp.mpf("1e-42")

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
        with mp.workdps(60):
            disc = discrete_ip(pi, UniPoly([1]), rule)
            assert abs(disc) < mp.mpf("1e-44")
        assert check_discip_lemma(rule, pi, theta) == 0

    @pytest.mark.parametrize("s", range(2, 7))
    @pytest.mark.parametrize("zeta", [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)])
    def test_never_polishes(self, monkeypatch, s, zeta):
        monkeypatch.setattr(quadrature, "_polish_root", refuse_polish)
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
