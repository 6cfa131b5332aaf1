import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from avfrk.hamiltonian import HamiltonianSystem, MultiPoly
from avfrk.integrators import (
    IntegrationRun,
    SolverConfig,
    SolverError,
    StepStats,
    _resolve_stepper,
    avf_step,
    avf_tableau,
    convergence_errors,
    convergence_order,
    integrate,
    midpoint_tableau,
    rk_step,
    write_run_csv,
)
from avfrk.quadrature import quad_rule
from avfrk.trees import ButcherTableau
from _util import random_system

F = Fraction


def sys1(terms):
    return HamiltonianSystem(1, MultiPoly(2, terms))


def float_H(sys, y):
    return sum(float(c) * y[0] ** a * y[1] ** b for (a, b), c in sys.H.terms.items())


HARMONIC = sys1({(0, 2): F(1, 2), (2, 0): F(1, 2)})
CUBIC = sys1({(0, 2): F(1, 2), (3, 0): 1})
# cubic with a confining quadratic well so long runs stay bounded
BOUNDED_CUBIC = sys1({(0, 2): F(1, 2), (2, 0): F(1, 2), (3, 0): F(1, 3)})
QUARTIC = sys1({(0, 2): F(1, 2), (4, 0): F(1, 4)})
DOUBLE_WELL = sys1({(0, 2): F(1, 2), (4, 0): F(1, 4), (2, 0): F(-1, 2)})
QUINTIC = sys1({(0, 2): F(1, 2), (5, 0): F(1, 5)})


class TestTableaux:
    def test_one_stage_is_implicit_midpoint(self):
        tab = avf_tableau(quad_rule(1, 0))
        with mp.workdps(60):
            assert abs(tab.A[0][0] - mp.mpf(1) / 2) < mp.mpf("1e-45")
            assert abs(tab.b[0] - 1) < mp.mpf("1e-45")
            assert abs(tab.c[0] - mp.mpf(1) / 2) < mp.mpf("1e-45")

    def test_midpoint_tableau_matches(self):
        ref = avf_tableau(quad_rule(1, 0))
        tab = midpoint_tableau()
        with mp.workdps(60):
            assert abs(tab.A[0][0] - ref.A[0][0]) < mp.mpf("1e-45")

    def test_rank_one_structure(self):
        for s, zeta in [(2, 0), (3, F(1, 2)), (4, F(-1))]:
            rule = quad_rule(s, zeta)
            tab = avf_tableau(rule)
            with mp.workdps(60):
                for i in range(s):
                    for j in range(s):
                        assert abs(tab.A[i][j] - rule.c[i] * rule.b[j]) < mp.mpf("1e-44")
                assert tab.row_sum_defect() < mp.mpf("1e-44")

    def test_left_endpoint_nodes(self):
        tab = avf_tableau(quad_rule(2, -1))
        with mp.workdps(60):
            assert abs(tab.c[0]) < mp.mpf("1e-45")
            assert abs(tab.c[1] - mp.mpf(2) / 3) < mp.mpf("1e-44")
            assert abs(tab.b[0] - mp.mpf(1) / 4) < mp.mpf("1e-44")
            assert abs(tab.b[1] - mp.mpf(3) / 4) < mp.mpf("1e-44")


class TestSingleSteps:
    def test_quadratic_reduces_to_midpoint(self):
        y0 = np.array([0.7, -0.3])
        ya = avf_step(HARMONIC, y0, 0.05)
        ym = rk_step(HARMONIC, midpoint_tableau(), y0, 0.05)
        mid = midpoint_tableau()
        ys = rk_step(HARMONIC, ButcherTableau(mid.A, mid.b, mid.c), y0, 0.05)
        assert np.max(np.abs(ya - ym)) < 1e-13
        assert np.max(np.abs(ya - ys)) < 1e-13

    def test_explicit_euler_tableau(self):
        euler = ButcherTableau(((mp.mpf(0),),), (mp.mpf(1),), (mp.mpf(0),))
        y0 = np.array([0.7, -0.3])
        y1 = rk_step(CUBIC, euler, y0, 0.05)
        fy = np.array([y0[1], -3 * y0[0] ** 2])
        assert np.max(np.abs(y1 - (y0 + 0.05 * fy))) < 1e-14

    def test_energy_preserved_in_one_step(self):
        y0 = np.array([1.0, 0.0])
        y1 = avf_step(CUBIC, y0, 0.01)
        assert abs(float_H(CUBIC, y1) - float_H(CUBIC, y0)) < 1e-12

    def test_reversibility(self):
        # the chord-average map is self-adjoint, so h then -h returns home
        y = np.array([0.8, 0.2])
        for _ in range(10):
            y = avf_step(CUBIC, y, 0.01)
        for _ in range(10):
            y = avf_step(CUBIC, y, -0.01)
        assert np.max(np.abs(y - [0.8, 0.2])) < 1e-10

    def test_matches_rank_one_tableau_below_degree_bound(self):
        tab = avf_tableau(quad_rule(2, 0))  # order 4
        y0 = np.array([1.1, -0.4])
        ya = avf_step(QUARTIC, y0, 0.1)
        yr = rk_step(QUARTIC, tab, y0, 0.1)
        assert np.max(np.abs(ya - yr)) < 1e-13

    def test_separates_above_degree_bound(self):
        tab = avf_tableau(quad_rule(2, 0))
        y0 = np.array([2.0, 0.5])
        ya = avf_step(QUINTIC, y0, 0.2)
        yr = rk_step(QUINTIC, tab, y0, 0.2)
        assert np.max(np.abs(ya - yr)) > 1e-8

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            avf_step(CUBIC, [1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            rk_step(CUBIC, midpoint_tableau(), [1.0, 0.0], 0.0)

    def test_state_length_checked(self):
        with pytest.raises(ValueError):
            avf_step(CUBIC, [1.0, 0.0, 0.0], 0.1)


class TestIntegrate:
    def test_harmonic_long_run_drift(self):
        run = integrate(HARMONIC, "avf", [1.0, 0.0], 0.1, 1000)
        assert run.max_energy_drift() < 1e-12

    def test_run_record(self):
        run = integrate(HARMONIC, "avf", [1.0, 0.0], 0.1, 3)
        assert len(run.times) == 4
        assert len(run.states) == 4
        assert len(run.solver_stats) == 3
        assert run.times[0] == 0.0
        assert abs(run.times[-1] - 0.3) < 1e-15
        e = run.energies
        assert len(e) == 4
        assert abs(e[0] - 0.5) < 1e-15
        st = run.solver_stats[0]
        assert isinstance(st, StepStats)
        assert st.iterations >= 1
        assert st.residual <= 1e-14

    def test_drift_separation_from_symplectic_midpoint(self):
        # both conserve quadratic invariants; on the cubic well only the
        # chord average holds H to solver tolerance
        runa = integrate(BOUNDED_CUBIC, "avf", [0.4, 0.0], 0.05, 2000)
        runm = integrate(BOUNDED_CUBIC, "midpoint", [0.4, 0.0], 0.05, 2000)
        assert runa.max_energy_drift() < 1e-12
        assert runm.max_energy_drift() > 1e-7

    def test_midpoint_drift_scales_quadratically(self):
        d1 = integrate(BOUNDED_CUBIC, "midpoint", [0.4, 0.0], 0.02, 1000).max_energy_drift()
        d2 = integrate(BOUNDED_CUBIC, "midpoint", [0.4, 0.0], 0.01, 2000).max_energy_drift()
        assert 3.5 < d1 / d2 < 4.5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            integrate(HARMONIC, "avf", [1.0, 0.0], 0.1, 0)
        with pytest.raises(ValueError):
            integrate(HARMONIC, "avf", [1.0, 0.0], 0.0, 10)

    def test_strategies_agree(self):
        y0 = [1.0, 0.5]
        runs = {
            strat: integrate(QUARTIC, "avf", y0, 0.05, 20, SolverConfig(strategy=strat))
            for strat in ("fixed-point+newton", "fixed-point", "newton")
        }
        base = runs["fixed-point+newton"].states[-1]
        for strat, run in runs.items():
            assert np.max(np.abs(run.states[-1] - base)) < 1e-12, strat

    def test_newton_counted(self):
        run = integrate(
            QUARTIC, "avf", [1.0, 0.5], 0.05, 5, SolverConfig(strategy="newton")
        )
        assert all(st.newton_iterations >= 1 for st in run.solver_stats)


class TestChordMatchesStages:
    """Rank-one tableaux solve on the chord; the same A, b, c without the
    rule take the full stage system, which is the reference here."""

    @pytest.mark.parametrize("strategy", ["fixed-point+newton", "newton"])
    def test_random_systems(self, strategy):
        rng = random.Random(3252)
        cfg = SolverConfig(strategy=strategy)
        for case, zeta in enumerate([0, 0, F(1, 2), -1, 0, F(1, 2), -1, 0]):
            degree = 3 + case % 4
            sys_ = random_system(rng, 1 + case // 4, degree)
            y0 = [rng.randint(10, 45) / 100 for _ in range(sys_.dim)]
            tab = avf_tableau(quad_rule(math.ceil(degree / 2), zeta))
            stages = ButcherTableau(tab.A, tab.b, tab.c, tab.precision_digits)
            chord = integrate(sys_, tab, y0, 0.05, 60, cfg)
            full = integrate(sys_, stages, y0, 0.05, 60, cfg)
            assert np.max(np.abs(chord.states[-1] - full.states[-1])) < 1e-13, case
            assert [st.iterations for st in chord.solver_stats] == [
                st.iterations for st in full.solver_stats
            ], case


class TestSolverFailure:
    def test_error_carries_context(self):
        with pytest.raises(SolverError) as exc_info:
            integrate(QUARTIC, "avf", [1.0, 0.5], 50.0, 5, SolverConfig(max_iterations=1))
        err = exc_info.value
        assert err.step_index == 0
        assert err.iterate is not None and len(err.iterate) == 2
        assert err.residual > 0
        assert "1 iteration" in str(err)

    @pytest.mark.parametrize(
        "sys_, y0, reason",
        [
            (QUARTIC, [1e120, 0.0], "overflow"),  # q**3 raises OverflowError
            (sys1({(2, 2): F(1, 2)}), [1e150, 1e150], "non-finite"),  # q**2 * p is inf
        ],
    )
    def test_overflow_is_solver_error(self, sys_, y0, reason):
        with pytest.raises(SolverError) as exc_info:
            integrate(sys_, "avf", y0, 0.1, 5)
        assert exc_info.value.step_index == 0
        assert reason in str(exc_info.value)

    @pytest.mark.parametrize("method", ["avf", "stages"])
    def test_singular_newton_is_solver_error(self, method):
        # f = (p, q) and h = 2 make h/2 J_f - I exactly singular
        saddle = sys1({(0, 2): F(1, 2), (2, 0): F(-1, 2)})
        if method == "stages":
            mid = midpoint_tableau()
            method = ButcherTableau(mid.A, mid.b, mid.c)
        with pytest.raises(SolverError) as exc_info:
            integrate(saddle, method, [1.0, 0.0], 2.0, 3, SolverConfig(strategy="newton"))
        assert exc_info.value.step_index == 0
        assert "singular" in str(exc_info.value)

    @pytest.mark.parametrize(
        "y0, h", [([float("nan"), 0.0], 0.1), ([1.0, float("inf")], 0.1), ([1.0, 0.0], float("nan"))]
    )
    def test_non_finite_input_rejected(self, y0, h):
        with pytest.raises(ValueError, match="finite"):
            integrate(QUARTIC, "avf", y0, h, 5)
        with pytest.raises(ValueError, match="finite"):
            avf_step(QUARTIC, y0, h)
        with pytest.raises(ValueError, match="finite"):
            rk_step(QUARTIC, midpoint_tableau(), y0, h)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(strategy="bisection")

    def test_config_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.tolerance = 1e-10


class TestMethodResolution:
    def test_rule_not_accepted_directly(self):
        with pytest.raises(TypeError):
            _resolve_stepper(HARMONIC, quad_rule(2, 0))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            _resolve_stepper(HARMONIC, "leapfrog")

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            _resolve_stepper(HARMONIC, 42)

    def test_tableau_accepted(self):
        stepper = _resolve_stepper(HARMONIC, avf_tableau(quad_rule(2, 0)))
        assert callable(stepper)


class TestIntegrationRunValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            IntegrationRun(HARMONIC, [0.0, 0.1], [np.zeros(2)], [])
        with pytest.raises(ValueError):
            IntegrationRun(
                HARMONIC,
                [0.0, 0.1],
                [np.zeros(2), np.zeros(2)],
                [StepStats(1, 0, 0.0), StepStats(1, 0, 0.0)],
            )


class TestCsvOutput:
    def test_header_and_rows(self):
        run = integrate(HARMONIC, "avf", [1.0, 0.0], 0.1, 3)
        buf = io.StringIO()
        write_run_csv(run, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,y_1,y_2,H,newton_iters"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert abs(float(first[3]) - 0.5) < 1e-15


class TestConvergence:
    def test_second_order_on_double_well(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        p_avf = convergence_order(DOUBLE_WELL, "avf", [1.5, 0.0], 2.0, hs)
        p_mid = convergence_order(DOUBLE_WELL, "midpoint", [1.5, 0.0], 2.0, hs)
        assert abs(p_avf - 2.0) < 0.1
        assert abs(p_mid - 2.0) < 0.1

    def test_error_halving_ratio(self):
        errs = convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [0.1, 0.05, 0.025])
        assert len(errs) == 3
        for (h1, e1), (h2, e2) in zip(errs, errs[1:]):
            assert h1 > h2
            assert 3.5 < e1 / e2 < 4.5

    def test_needs_three_step_sizes(self):
        with pytest.raises(ValueError):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [0.1, 0.05])
        with pytest.raises(ValueError):
            convergence_order(QUARTIC, "avf", [1.0, 0.5], 0.0, [0.1, 0.05, 0.025])
