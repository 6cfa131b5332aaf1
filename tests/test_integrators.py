import io
import logging
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from avfrk import integrators
from avfrk.hamiltonian import HamiltonianSystem, MultiPoly
from avfrk.integrators import (
    IntegrationRun,
    SolverConfig,
    SolverError,
    StepStats,
    _chord_run,
    _float_nodes,
    _newton_matrix,
    _resolve_stepper,
    _scalar_field,
    avf_step,
    avf_tableau,
    convergence_errors,
    convergence_order,
    integrate,
    log_log_slope,
    midpoint_tableau,
    rk_step,
    write_run_csv,
)
from avfrk.quadrature import quad_rule
from avfrk.trees import ButcherTableau
from _util import random_A_tableau, random_system, reference_implicit_solve

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
        assert all(type(y) is tuple and all(type(v) is float for v in y) for y in (ya, ym, ys))
        assert np.max(np.abs(np.subtract(ya, ym))) < 1e-13
        assert np.max(np.abs(np.subtract(ya, ys))) < 1e-13

    def test_explicit_euler_tableau(self):
        euler = ButcherTableau(((mp.mpf(0),),), (mp.mpf(1),), (mp.mpf(0),))
        y0 = np.array([0.7, -0.3])
        y1 = rk_step(CUBIC, euler, y0, 0.05)
        fy = np.array([y0[1], -3 * y0[0] ** 2])
        assert np.max(np.abs(np.subtract(y1, y0 + 0.05 * fy))) < 1e-14

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
        assert np.max(np.abs(np.subtract(y, [0.8, 0.2]))) < 1e-10

    def test_matches_rank_one_tableau_below_degree_bound(self):
        tab = avf_tableau(quad_rule(2, 0))  # order 4
        y0 = np.array([1.1, -0.4])
        ya = avf_step(QUARTIC, y0, 0.1)
        yr = rk_step(QUARTIC, tab, y0, 0.1)
        assert np.max(np.abs(np.subtract(ya, yr))) < 1e-13

    def test_separates_above_degree_bound(self):
        tab = avf_tableau(quad_rule(2, 0))
        y0 = np.array([2.0, 0.5])
        ya = avf_step(QUINTIC, y0, 0.2)
        yr = rk_step(QUINTIC, tab, y0, 0.2)
        assert np.max(np.abs(np.subtract(ya, yr))) > 1e-8

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
        assert all(type(y) is tuple and all(type(v) is float for v in y) for y in run.states)
        e = run.energies
        assert isinstance(e, np.ndarray) and e.dtype == np.float64
        assert len(e) == 4
        assert abs(e[0] - 0.5) < 1e-15
        st = run.solver_stats[0]
        assert isinstance(st, StepStats)
        assert st.iterations >= 1
        assert st.residual <= 1e-14

    def test_overflowing_energy_reads_inf(self):
        # the states are finite but H = q^4 / 4 at q = 1e80 is not
        run = integrate(QUARTIC, "avf", [1e80, 0.0], 1e-200, 2)
        assert list(run.energies) == [math.inf] * 3

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
            assert np.max(np.abs(np.subtract(run.states[-1], base))) < 1e-12, strat

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
            assert np.max(np.abs(np.subtract(chord.states[-1], full.states[-1]))) < 1e-13, case
            assert [st.iterations for st in chord.solver_stats] == [
                st.iterations for st in full.solver_stats
            ], case


@lru_cache(maxsize=None)
def _rule(s, zeta):
    return quad_rule(s, zeta)


def _node_loop(sys_, rule, y, h):
    """The per-node loops the generated maps replace: (phi, Newton matrix)."""
    nodes = _float_nodes(rule)
    f, jac = _scalar_field(sys_)
    n = sys_.dim
    weighted = [(cj, h * bj) for cj, bj in nodes]

    def phi(z):
        d = [zk - yk for zk, yk in zip(z, y)]
        acc = [0.0] * n
        for cj, hbj in weighted:
            F = f(*[yk + cj * dk for yk, dk in zip(y, d)])
            acc = [a + hbj * v for a, v in zip(acc, F)]
        return [yk + a for yk, a in zip(y, acc)]

    def newton(z):
        d = [zk - yk for zk, yk in zip(z, y)]
        acc = [0.0] * (n * n)
        for cj, hbj in weighted:
            Jf = jac(*[yk + cj * dk for yk, dk in zip(y, d)])
            acc = [a + hbj * cj * v for a, v in zip(acc, Jf)]
        return np.reshape(acc, (n, n)) - np.eye(n)

    return phi, newton


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _perturbed_well(rng, half_dim, degree):
    """Criterion-7 style: harmonic well plus two terms of degree <= degree, +-k/40."""
    nv = 2 * half_dim
    terms = {tuple(2 * (i == k) for i in range(nv)): F(1, 2) for k in range(nv)}
    for deg_t in (degree, rng.randint(2, degree)):
        exps = [0] * nv
        for _ in range(deg_t):
            exps[rng.randrange(nv)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), F(0)) + F(rng.choice([-1, 1]) * rng.randint(1, 4), 40)
    return HamiltonianSystem(half_dim, MultiPoly(nv, terms))


def _fresh_system(seed, half_dim=1, degree=4):
    return _perturbed_well(random.Random(seed), half_dim, degree)


class TestGeneratedChord:
    """The chord map and Newton matrix are generated per system and float
    node set; they must do the float operations of the per-node loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        half_dim=st.integers(1, 2),
        degree=st.integers(2, 6),
        s=st.integers(1, 4),
        zeta=st.sampled_from([F(0), F(1, 2), F(-1)]),
        size=st.sampled_from([1e-2, 1.0, 1e2]),
        h=st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3),
    )
    def test_bit_identical_to_node_loop(self, seed, half_dim, degree, s, zeta, size, h):
        rng = random.Random(seed)
        sys_ = _perturbed_well(rng, half_dim, degree)
        rule = _rule(s, zeta)
        y = [size * rng.uniform(-1, 1) for _ in range(sys_.dim)]
        z = [yk + size * rng.uniform(-0.1, 0.1) for yk in y]
        phi, newton = _node_loop(sys_, rule, y, h)
        nodes = _float_nodes(rule)
        # one sweep after the predictor ends at phi(phi(y)); the new state would be phi of it
        cfg = SolverConfig(tolerance=5e-324, max_iterations=1, strategy="fixed-point")
        states, stats = [tuple(y)], []
        failure = _chord_run(sys_, nodes)(tuple(y), h, 1, cfg, states, stats)
        x = phi(phi(y))
        if failure is None:
            assert _bits(states[-1]) == _bits(phi(x))
        else:
            assert failure[0] == "exhausted" and _bits(failure[3]) == _bits(x)
        assert _bits(_newton_matrix(sys_, nodes)(y, h, z)) == _bits(newton(z))

    def test_avf_and_tableau_share_one_chord_map(self):
        sys_ = _fresh_system(11)
        before = _chord_run.cache_info().misses
        integrate(sys_, "avf", [0.3, 0.2], 0.05, 5)
        integrate(sys_, avf_tableau(quad_rule(2, 0)), [0.3, 0.2], 0.05, 5)
        assert _chord_run.cache_info().misses == before + 1

    def test_newton_matrix_generated_only_for_newton(self):
        sys_ = _fresh_system(12)
        before = _newton_matrix.cache_info()
        run = integrate(sys_, "avf", [0.3, 0.2], 0.05, 20, SolverConfig(strategy="fixed-point"))
        assert sum(st.newton_iterations for st in run.solver_stats) == 0
        assert _newton_matrix.cache_info() == before
        integrate(sys_, "avf", [0.3, 0.2], 0.05, 20, SolverConfig(strategy="newton"))
        assert _newton_matrix.cache_info().misses == before.misses + 1

    def test_results_survive_eviction(self):
        size = _chord_run.cache_info().maxsize
        systems = [_fresh_system(100 + k, 1 + k % 2, 3 + k % 4) for k in range(size + 6)]
        y0s = [[0.1 + 0.01 * j for j in range(sys_.dim)] for sys_ in systems]
        cfg = SolverConfig(strategy="newton")
        first = [integrate(sys_, "avf", y0, 0.05, 4, cfg).states for sys_, y0 in zip(systems, y0s)]
        assert _chord_run.cache_info().currsize == size
        misses = _chord_run.cache_info().misses
        again = [integrate(sys_, "avf", y0, 0.05, 4, cfg).states for sys_, y0 in zip(systems, y0s)]
        assert _chord_run.cache_info().misses > misses  # the early systems were evicted
        for a, b in zip(first, again):
            assert _bits(a) == _bits(b)

    def test_generation_logged(self, caplog):
        sys_ = _fresh_system(13, half_dim=2, degree=5)
        with caplog.at_level(logging.DEBUG, logger="avfrk"):
            integrate(sys_, "avf", [0.2, 0.1, 0.3, 0.1], 0.05, 2, SolverConfig(strategy="newton"))
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.integrators"]
        assert len(got) == 2
        assert got[0].startswith("generated chord: dim 4, 3 nodes, ")
        assert got[1].startswith("generated newton: dim 4, 3 nodes, ")
        assert all(m.endswith(" source lines") for m in got)
        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("avfrk").handlers)


def _outcome(sys_, method, y0, h, n, cfg):
    """Everything integrate returns or raises, floats as float.hex."""
    try:
        run = integrate(sys_, method, y0, h, n, cfg)
    except SolverError as e:
        return str(e), e.step_index, float.hex(e.residual), tuple(map(float.hex, e.iterate))
    states = [tuple(map(float.hex, y)) for y in run.states]
    return states, [(st.iterations, st.newton_iterations, float.hex(st.residual)) for st in run.solver_stats]


def _interpreted_stage_step(sys_, tab, y, h, cfg):
    """One step of the s*d stage system by the interpreted solve: (state, StepStats)."""
    n, s = sys_.dim, tab.s
    A = [[float(x) for x in row] for row in tab.A]
    b = [float(x) for x in tab.b]
    f, jac = _scalar_field(sys_)

    def at_stages(g, x):
        return [g(*x[j * n : (j + 1) * n]) for j in range(s)]

    def update(w, vals):
        return [yk + h * sum(wj * v[k] for wj, v in zip(w, vals)) for k, yk in enumerate(y)]

    def phi(x):
        fs = at_stages(f, x)
        return [z for row in A for z in update(row, fs)]

    def newton(x):
        js = at_stages(jac, x)
        return [
            [h * A[i][j] * js[j][a * n + c] - (i == j and a == c) for j in range(s) for c in range(n)]
            for i in range(s)
            for a in range(n)
        ]

    sol, stats = reference_implicit_solve(y * s, phi, newton, cfg)
    return tuple(update(b, at_stages(f, sol))), stats


def _interpreted_step(sys_, method, y, h, cfg):
    """One step by the interpreted solve on the interpreted maps: (state, StepStats).

    Rank-one methods solve on the chord with the per-node loops of
    _node_loop, the residual scaled by max|c_j| for a tableau.
    """
    if method == "midpoint":
        method = midpoint_tableau()
    if method == "avf":
        rule, scale = _rule(max(1, math.ceil(sys_.H.degree() / 2)), F(0)), 1.0
    elif method.rule is not None:
        rule, scale = method.rule, max(abs(float(c)) for c in method.c)
    else:
        return _interpreted_stage_step(sys_, method, y, h, cfg)
    phi, newton = _node_loop(sys_, rule, y, h)
    z, stats = reference_implicit_solve(y, phi, newton, cfg, scale)
    return tuple(phi(z)), stats


def _reference_outcome(sys_, method, y0, h, n, cfg):
    """_outcome of n steps, each taken by _interpreted_step."""
    y = tuple(map(float, y0))
    states, stats = [y], []
    for k in range(n):
        try:
            y, st = _interpreted_step(sys_, method, y, h, cfg)
        except SolverError as e:
            return f"step {k}: {e}", k, float.hex(e.residual), tuple(map(float.hex, e.iterate))
        states.append(y)
        stats.append(st)
    return [tuple(map(float.hex, y)) for y in states], [
        (st.iterations, st.newton_iterations, float.hex(st.residual)) for st in stats
    ]


# step sizes and whether the harmonic oscillator's solve switches to Newton at them
STALL_CASES = [(1.1, True), (-1.1, True), (0.9, False), (-0.9, False)]
SADDLE_40 = sys1({(0, 2): F(1, 2), (2, 0): F(-1, 2), (40, 0): F(1, 10**6)})


class TestGeneratedSweeps:
    """The generated solve loop, Newton included, on the chord and on the
    stage path, against the interpreted solve it replaces: bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        half_dim=st.integers(1, 2),
        degree=st.integers(2, 6),
        method=st.sampled_from(["avf", (2, F(0)), (3, F(1, 2)), (3, F(-1)), "stages"]),
        size=st.sampled_from([1e-2, 1e-1, 1.0, 1e1, 1e2]),
        h=st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3),
        strategy=st.sampled_from(["fixed-point+newton", "fixed-point", "newton"]),
        max_iterations=st.sampled_from([1, 2, 5, 100]),
    )
    def test_matches_interpreted_solve(self, seed, half_dim, degree, method, size, h, strategy, max_iterations):
        rng = random.Random(seed)
        sys_ = _perturbed_well(rng, half_dim, degree)
        if method == "stages":
            method = random_A_tableau(rng, _rule(2, F(0)))
        elif method != "avf":
            method = avf_tableau(_rule(*method))
        y0 = [size * rng.uniform(-1, 1) for _ in range(sys_.dim)]
        cfg = SolverConfig(strategy=strategy, max_iterations=max_iterations)
        got = _outcome(sys_, method, y0, h, 4, cfg)
        assert got == _reference_outcome(sys_, method, y0, h, 4, cfg)

    @pytest.mark.parametrize(
        "sys_, y0, h, strategy, max_iterations, reason",
        [
            (QUARTIC, [1.0, 0.5], 50.0, "fixed-point+newton", 1, "no convergence"),
            (QUARTIC, [1.0, 0.5], -50.0, "fixed-point", 5, "no convergence"),
            (QUARTIC, [0.01, 0.005], 0.01, "newton", 1, "no convergence"),  # after one Newton step
            (QUARTIC, [0.01, 0.005], 50.0, "fixed-point", 100, "overflow"),  # q**3 raises OverflowError
            (QUARTIC, [1e120, 0.0], 0.1, "newton", 100, "overflow"),  # in the predictor
            # h/2 J_f - I is nearly singular: the Newton step lands where q**39 overflows
            (SADDLE_40, [0.3781856116280262, 0.11345568348840786], 1.9999999999999991, "newton", 100, "overflow"),
            (sys1({(2, 2): F(1, 2)}), [1.0, 0.5], 5.0, "fixed-point", 100, "non-finite"),
            (sys1({(2, 2): F(1, 2)}), [1e150, 1e150], 0.1, "fixed-point+newton", 100, "non-finite"),
            # f = (1, -1e300 q^3): only the second component is inf
            (sys1({(0, 1): F(1), (4, 0): F(10**300, 4)}), [1e3, 0.0], 0.1, "fixed-point", 100, "non-finite"),
            # f = (1e300 p^3, -1): only the first component is inf
            (sys1({(1, 0): F(1), (0, 4): F(10**300, 4)}), [0.0, 1e3], 0.1, "newton", 100, "non-finite"),
        ],
    )
    @pytest.mark.parametrize("method", ["avf", "midpoint", "stages"])
    def test_failures_match_interpreted_solve(self, sys_, y0, h, strategy, max_iterations, reason, method):
        if method == "stages":
            method = ButcherTableau([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5], [0.5, 0.5], 30)
        cfg = SolverConfig(strategy=strategy, max_iterations=max_iterations)
        got = _outcome(sys_, method, y0, h, 3, cfg)
        assert got == _reference_outcome(sys_, method, y0, h, 3, cfg)
        if method == "avf":
            assert reason in got[0]

    @pytest.mark.parametrize(
        "method, h, switches",
        [pytest.param("avf", h, sw, id=f"{h}-{sw}") for h, sw in STALL_CASES]
        + [pytest.param("stages", h, sw, id=f"stages-{h}-{sw}") for h, sw in STALL_CASES],
    )
    def test_stall_switch_matches_interpreted_solve(self, method, h, switches):
        # the midpoint sweep on the harmonic oscillator contracts by |h|/2 per iteration, and
        # so does the stage sweep of this tableau, whose two stages stay equal
        if method == "stages":
            method = ButcherTableau([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5], [0.5, 0.5], 30)
        cfg = SolverConfig()
        got = _outcome(HARMONIC, method, [1.0, 0.5], h, 3, cfg)
        assert got == _reference_outcome(HARMONIC, method, [1.0, 0.5], h, 3, cfg)
        assert any(newton for _, newton, _ in got[1]) == switches

    def test_stage_loop_generated_once_per_unknown_count(self, caplog):
        integrators._stage_run.cache_clear()
        tableaux = [
            ButcherTableau([[0.25, -0.04], [0.54, 0.25]], [0.5, 0.5], [0.21, 0.79], 30),
            ButcherTableau([[0.2, 0.1], [0.3, 0.4]], [0.5, 0.5], [0.3, 0.7], 30),
        ]
        with caplog.at_level(logging.DEBUG, logger="avfrk"):
            for tab in tableaux:
                for strategy in ["fixed-point", "newton"]:
                    integrate(QUARTIC, tab, [0.5, 0.1], 0.05, 5, SolverConfig(strategy=strategy))
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.integrators"]
        assert len([m for m in got if m.startswith("generated stages: dim 4, ")]) == 1
        assert not any(m.startswith("generated chord") for m in got)


# H = p^2/2 - q^4 from (1, 0.5) at h = 0.1 runs away; no step after step 5 converges
RUNAWAY = sys1({(0, 2): F(1, 2), (4, 0): F(-1)})


class TestWholeRun:
    """integrate takes every step in one generated loop; it must agree with
    single steps chained through avf_step and rk_step, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        half_dim=st.integers(1, 2),
        degree=st.integers(2, 6),
        method=st.sampled_from(["avf", "midpoint", (2, F(0)), (3, F(-1)), "stages"]),
        size=st.sampled_from([1e-2, 1.0, 1e1]),
        h=st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3),
        n=st.integers(1, 6),
        strategy=st.sampled_from(["fixed-point+newton", "fixed-point", "newton"]),
    )
    def test_matches_chained_steps(self, seed, half_dim, degree, method, size, h, n, strategy):
        rng = random.Random(seed)
        sys_ = _perturbed_well(rng, half_dim, degree)
        if method == "stages":
            method = random_A_tableau(rng, _rule(2, F(0)))
        elif isinstance(method, tuple):
            method = avf_tableau(_rule(*method))
        y = tuple(size * rng.uniform(-1, 1) for _ in range(sys_.dim))
        cfg = SolverConfig(strategy=strategy, max_iterations=20)
        states = [y]
        try:
            for k in range(n):
                y = avf_step(sys_, y, h, cfg) if method == "avf" else rk_step(sys_, method, y, h, cfg)
                states.append(y)
        except SolverError as e:
            with pytest.raises(SolverError) as exc_info:
                integrate(sys_, method, states[0], h, n, cfg)
            got = exc_info.value
            assert e.step_index == 0 and got.step_index == k
            assert str(got) == f"step {k}: " + str(e).removeprefix("step 0: ")
            assert _bits(got.iterate) == _bits(e.iterate) and _bits(got.residual) == _bits(e.residual)
            return
        assert _bits(integrate(sys_, method, states[0], h, n, cfg).states) == _bits(states)

    @pytest.mark.parametrize(
        "method, k, iterate, residual",
        [
            ("avf", 6, ("-0x1.1984654a963e7p+4", "-0x1.b5ce9fec272e0p+8"), "0x1.8000000000000p-43"),
            ("midpoint", 8, ("-0x1.e8a5594fe98bcp+6", "-0x1.866fa68fa7168p+12"), "0x1.0000000000000p-41"),
            ((2, F(0)), 6, ("-0x1.1984654a963e7p+4", "-0x1.b5ce9fec272e0p+8"), "0x1.2ed9eba16132ap-43"),
        ],
    )
    def test_late_failure_carries_its_step(self, method, k, iterate, residual):
        # the values the per-step driver gave before the run loop was generated
        if isinstance(method, tuple):
            method = avf_tableau(_rule(*method))
        with pytest.raises(SolverError) as exc_info:
            integrate(RUNAWAY, method, [1.0, 0.5], 0.1, 20)
        err = exc_info.value
        assert err.step_index == k
        assert str(err).startswith(f"step {k}: no convergence after 100 iterations (residual ")
        assert tuple(map(float.hex, err.iterate)) == iterate
        assert float.hex(err.residual) == residual
        assert _outcome(RUNAWAY, method, [1.0, 0.5], 0.1, 20, SolverConfig()) == _reference_outcome(
            RUNAWAY, method, [1.0, 0.5], 0.1, 20, SolverConfig()
        )


class TestSolverFailure:
    def test_error_carries_context(self):
        with pytest.raises(SolverError) as exc_info:
            integrate(QUARTIC, "avf", [1.0, 0.5], 50.0, 5, SolverConfig(max_iterations=1))
        err = exc_info.value
        assert err.step_index == 0
        assert type(err.iterate) is tuple and len(err.iterate) == 2
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

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_impossible_step_sizes(self, bad):
        with pytest.raises(ValueError, match="step sizes must be positive and finite"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [bad, 0.05, 0.025])
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], bad, [0.1, 0.05, 0.025])

    def test_rejects_non_finite_step_counts(self):
        # 2 / 1e-320 overflows; 2 / 1e-307 is finite but 20 times it is not
        with pytest.raises(ValueError, match="step count t_end / h is not finite"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [1e-320, 0.05, 0.025])
        with pytest.raises(ValueError, match="reference step count is not finite"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [1e-307, 0.05, 0.025])

    def test_rejects_absurd_step_counts(self, monkeypatch):
        # 2 / 1e-300 steps are finite but would never finish; the bound counts
        # every run of the scan, the reference run included, before any of them
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(integrators, "integrate", no_run)
        with pytest.raises(ValueError, match="takes more than 1000000 steps"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [1e-300, 0.05, 0.025])
        # 20 + 40 + 80 steps and a reference run of 20 * 80 = 1600
        monkeypatch.setattr(integrators, "MAX_SCAN_STEPS", 1739)
        with pytest.raises(ValueError, match="takes more than 1739 steps"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [0.1, 0.05, 0.025])
        monkeypatch.undo()
        monkeypatch.setattr(integrators, "MAX_SCAN_STEPS", 1740)
        assert len(convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, [0.1, 0.05, 0.025])) == 3

    @pytest.mark.parametrize("hs", [[0.1, 0.1, 0.1], [0.1, 0.1000001, 0.05], [0.1, 0.05, 0.05, 0.1]])
    def test_needs_three_distinct_effective_step_sizes(self, hs):
        with pytest.raises(ValueError, match="at least 3 distinct step sizes"):
            convergence_errors(QUARTIC, "avf", [1.0, 0.5], 2.0, hs)

    def test_slope_matches_polyfit(self):
        rng = random.Random(5)
        for _ in range(20):
            pts = [(rng.uniform(1e-3, 1.0), rng.uniform(1e-12, 1.0)) for _ in range(rng.randint(2, 6))]
            ref = np.polyfit(np.log([h for h, _ in pts]), np.log([e for _, e in pts]), 1)[0]
            assert abs(log_log_slope(pts) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_slope_needs_distinct_step_sizes(self):
        with pytest.raises(ValueError, match="distinct"):
            log_log_slope([(0.1, 1e-3), (0.1, 1e-4)])
