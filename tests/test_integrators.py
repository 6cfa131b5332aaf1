import io
import logging
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avfrk import integrators
from avfrk.hamiltonian import HamiltonianSystem, MultiPoly
from avfrk.integrators import (
    IntegrationRun,
    SolverConfig,
    SolverError,
    StepStats,
    _factor_lines,
    _resolve_stepper,
    _rule_layout,
    _run,
    _scalar_function,
    _solve_lines,
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
from _util import random_A_tableau, random_system, reference_implicit_solve, reference_newton_step, reference_update

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
        assert (tab.A, tab.b, tab.c) == (((F(1, 2),),), (1,), (F(1, 2),))

    def test_midpoint_tableau_matches(self):
        ref = avf_tableau(quad_rule(1, 0))
        tab = midpoint_tableau()
        assert tab.A == ref.A == ((F(1, 2),),)

    def test_rank_one_structure(self):
        for s, zeta in [(2, 0), (3, F(1, 2)), (4, F(-1))]:
            rule = quad_rule(s, zeta)
            tab = avf_tableau(rule)
            for i in range(s):
                for j in range(s):
                    assert tab.A[i][j] == rule.c[i] * rule.b[j]
            assert tab.row_sum_defect() < F(1, 10**44)

    def test_left_endpoint_nodes(self):
        tab = avf_tableau(quad_rule(2, -1))
        assert tab.c[0] == 0
        assert abs(tab.c[1] - F(2, 3)) < F(1, 10**44)
        assert tab.b == (F(1, 4), F(3, 4))


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
        euler = ButcherTableau(((0,),), (1,), (0,))
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


class TestStepStartMatrix:
    """The default strategy moves every iterate by the simplified Newton step
    on W (x) J_f(y) - I, factored once at the start of the step."""

    def test_criterion_7_iterations_per_step(self):
        # the criterion-7 generator at h = 0.05: at most 5 map evaluations after the predictor,
        # where plain fixed-point sweeps take 8, and no switch to Newton
        rng = random.Random(74207)
        for case in range(20):
            degree = 3 + case % 4
            sys_ = random_system(rng, 1 + case // 10, degree)
            y0 = [rng.randint(10, 45) / 100 for _ in range(sys_.dim)]
            for method in ["avf", avf_tableau(_rule(math.ceil(degree / 2), F(0)))]:
                stats = integrate(sys_, method, y0, 0.05, 300).solver_stats
                assert max(st.iterations for st in stats) <= 5, case
                assert not any(st.newton_iterations for st in stats), case

    @pytest.mark.parametrize("h", [0.9, 1.1, 1.3])
    def test_long_solve_switches_to_newton(self, h):
        # each move of the quartic's midpoint solve at large h shrinks the residual by just under
        # half; switching once two more moves at the observed rate would not reach the tolerance
        # keeps every step within 8 map evaluations (full Newton takes 5 to 6)
        run = integrate(QUARTIC, "midpoint", [1.0, 0.5], h, 3)
        assert max(st.iterations for st in run.solver_stats) <= 8
        y = integrate(QUARTIC, "midpoint", [1.0, 0.5], h, 3, SolverConfig(strategy="newton")).states[-1]
        assert max(abs(a - b) for a, b in zip(run.states[-1], y)) <= 1e-12 * max(1.0, *map(abs, y))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        half_dim=st.integers(1, 2),
        degree=st.integers(2, 6),
        method=st.sampled_from(["avf", "midpoint", "rule", "stages"]),
        s=st.integers(1, 3),
        amplitude=st.floats(0.1, 10.0),
        h=st.floats(1e-3, 0.1) | st.floats(-0.1, -1e-3),
    )
    def test_strategies_agree_where_all_complete(self, seed, half_dim, degree, method, s, amplitude, h):
        # rank-one tableaux, on the chord and on the stage path; a random stage matrix at
        # amplitude 10 can have several solutions near the state, which the strategies pick apart
        rng = random.Random(seed)
        sys_ = _perturbed_well(rng, half_dim, degree)
        if method in ("rule", "stages"):
            tab = avf_tableau(_rule(s, F(0)))
            method = tab if method == "rule" else ButcherTableau(tab.A, tab.b, tab.c)
        y0 = [amplitude * rng.uniform(-1, 1) for _ in range(sys_.dim)]
        finals = []
        for strategy in ["fixed-point+newton", "fixed-point", "newton"]:
            try:
                finals.append(integrate(sys_, method, y0, h, 5, SolverConfig(strategy=strategy)).states[-1])
            except SolverError:
                return
        bound = 1e-12 * max(1.0, *map(abs, finals[0]))
        for y in finals[1:]:
            assert max(abs(a - b) for a, b in zip(y, finals[0])) <= bound

    @pytest.mark.parametrize("method", ["avf", "stages"])
    def test_singular_matrix_fails_at_its_step(self, method):
        # f = (p, q) and h = 2 make W J_f - I exactly singular at every state; the step-start
        # matrix is factored before the predictor moves, at the state, with no residual yet
        if method == "stages":
            mid = midpoint_tableau()
            method = ButcherTableau(mid.A, mid.b, mid.c)
        with pytest.raises(SolverError) as exc_info:
            integrate(SADDLE, method, [1.0, 0.0], 2.0, 3)
        err = exc_info.value
        assert err.step_index == 0
        assert str(err) == "step 0: Newton matrix is singular: zero pivot in column 1"
        assert err.iterate == (1.0, 0.0) and err.residual == math.inf


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
            stages = ButcherTableau(tab.A, tab.b, tab.c)
            chord = integrate(sys_, tab, y0, 0.05, 60, cfg)
            full = integrate(sys_, stages, y0, 0.05, 60, cfg)
            assert np.max(np.abs(np.subtract(chord.states[-1], full.states[-1]))) < 1e-13, case
            assert [st.iterations for st in chord.solver_stats] == [
                st.iterations for st in full.solver_stats
            ], case


@lru_cache(maxsize=None)
def _rule(s, zeta):
    return quad_rule(s, zeta)


@lru_cache(maxsize=None)
def _scalar_field(sys_):
    """(f, J_f) as plain-float functions of the state, one point per call; J_f is flat, row-major."""
    n = sys_.dim
    f = sys_.vector_field()
    return _scalar_function(f, n), _scalar_function([f[a].partial(b) for a in range(n) for b in range(n)], n)


def _node_loop(sys_, rule, y, h):
    """The per-node loops the generated maps replace: (phi, Newton matrix as rows)."""
    nodes = rule.float_nodes
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
        return (np.reshape(acc, (n, n)) - np.eye(n)).tolist()

    return phi, newton


def _start_matrix(sys_, W, y):
    """The step-start matrix W (x) J_f(y) - I as rows, entry ((l, k), (m, c)) W_lm * J_kc(y), as the run loop forms it."""
    n, r, J = sys_.dim, len(W), _scalar_field(sys_)[1](*y)
    return [
        [W[l][m] * J[k * n + c] - (l == m and k == c) for m in range(r) for c in range(n)]
        for l in range(r)
        for k in range(n)
    ]


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
    """The chord loop is generated per system and float node set; its map
    and its Newton step must do the float operations of the per-node loop,
    the Newton step with the reference elimination."""

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
        phi, newton = _node_loop(sys_, rule, y, h)
        nodes = rule.float_nodes
        # one sweep after the predictor ends at phi(phi(y)); the new state would be phi of it
        cfg = SolverConfig(tolerance=5e-324, max_iterations=1, strategy="fixed-point")
        states, stats = [tuple(y)], []
        L, R, b, _ = _rule_layout(nodes)
        failure = _run(sys_, L, R, b)(tuple(y), h, 1, cfg, states, stats)
        x = phi(phi(y))
        if failure is None:
            assert _bits(states[-1]) == _bits(phi(x))
        else:
            assert failure[0] == "exhausted" and _bits(failure[3]) == _bits(x)
        # one Newton iteration after the predictor: the loop moves from z = phi(y) by the
        # Newton step on the matrix at z, formed from the stage values of its map pass there
        cfg = SolverConfig(tolerance=5e-324, max_iterations=1, strategy="newton")
        states, stats = [tuple(y)], []
        failure = _run(sys_, L, R, b)(tuple(y), h, 1, cfg, states, stats)
        z = phi(y)
        fz = phi(z)
        res = max(abs(a - c) for a, c in zip(fz, z))
        if failure is None:
            assert res <= cfg.tolerance and _bits(states[-1]) == _bits(fz)
            return
        try:
            step = reference_newton_step(newton(z), z, fz, res)
        except SolverError as e:
            assert failure[0] == "singular" and str(failure[4]) == str(e) and _bits(failure[3]) == _bits(z)
        else:
            assert failure[0] == "exhausted" and _bits(failure[3]) == _bits(step) and failure[5] == res

    def test_avf_and_tableau_share_one_chord_map(self):
        # "avf" and the tableau of its rule are one chord layout, one loop for every strategy, its
        # Newton step included; the same A, b, c without the rule are the identity layout
        sys_ = _fresh_system(11)
        tab = avf_tableau(quad_rule(2, 0))
        runs = _run.cache_info().misses
        for strategy in ["fixed-point", "newton", "fixed-point+newton"]:
            cfg = SolverConfig(strategy=strategy)
            integrate(sys_, "avf", [0.3, 0.2], 0.05, 5, cfg)
            integrate(sys_, tab, [0.3, 0.2], 0.05, 5, cfg)
            assert _run.cache_info().misses == runs + 1
        for strategy in ["fixed-point", "newton", "fixed-point+newton"]:
            integrate(sys_, ButcherTableau(tab.A, tab.b, tab.c), [0.3, 0.2], 0.05, 5, SolverConfig(strategy=strategy))
            assert _run.cache_info().misses == runs + 2

    def test_newton_run_generates_nothing_more(self, monkeypatch):
        # the loop a fixed-point run generates takes Newton steps too: a later Newton run of the
        # same system generates nothing, and a first Newton run generates that one loop only
        _run.cache_clear()
        sys_, other = _fresh_system(12), _fresh_system(14)
        fixed, newton = SolverConfig(strategy="fixed-point"), SolverConfig(strategy="newton")
        run = lambda system, cfg: lambda: integrate(system, "avf", [0.3, 0.2], 0.05, 20, cfg).solver_stats
        assert list(_generated(monkeypatch, run(sys_, fixed))) == ["chord"]
        assert _generated(monkeypatch, run(sys_, newton)) == {}
        assert list(_generated(monkeypatch, run(other, newton))) == ["chord"]
        assert all(st.newton_iterations for st in run(sys_, newton)())

    def test_results_survive_eviction(self):
        size = _run.cache_info().maxsize
        systems = [_fresh_system(100 + k, 1 + k % 2, 3 + k % 4) for k in range(size + 6)]
        y0s = [[0.1 + 0.01 * j for j in range(sys_.dim)] for sys_ in systems]
        cfg = SolverConfig(strategy="newton")
        first = [integrate(sys_, "avf", y0, 0.05, 4, cfg).states for sys_, y0 in zip(systems, y0s)]
        assert _run.cache_info().currsize == size
        misses = _run.cache_info().misses
        again = [integrate(sys_, "avf", y0, 0.05, 4, cfg).states for sys_, y0 in zip(systems, y0s)]
        assert _run.cache_info().misses > misses  # the early systems were evicted
        for a, b in zip(first, again):
            assert _bits(a) == _bits(b)

    def test_generation_logged(self, caplog):
        sys_ = _fresh_system(13, half_dim=2, degree=5)
        with caplog.at_level(logging.DEBUG, logger="avfrk"):
            integrate(sys_, "avf", [0.2, 0.1, 0.3, 0.1], 0.05, 2, SolverConfig(strategy="newton"))
        got = [r.getMessage() for r in caplog.records if r.name == "avfrk.integrators"]
        assert len(got) == 1
        assert got[0].startswith("generated chord: dim 4, 3 nodes, ")
        assert got[0].endswith(" source lines")
        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("avfrk").handlers)


def _generated(monkeypatch, call) -> dict:
    """{name: source lines} of every function generated while call() runs."""
    out = {}
    generate = integrators._generate

    def spy(lines, name, *args):
        out[name] = lines
        return generate(lines, name, *args)

    monkeypatch.setattr(integrators, "_generate", spy)
    call()
    return out


def _chains(polys, nv, q="q") -> set:
    """The names {q}{k}_e, 2 <= e <= the largest exponent of variable k in polys, of one power chain each."""
    return {f"{q}{k}_{e}" for k in range(nv) for e in range(2, 1 + max(x[k] for p in polys for x in p.terms))}


def _exact_terms(p, x) -> list:
    """The terms c_m x^m of p at the floats x, exactly."""
    return [c * math.prod(Fraction(v) ** e for v, e in zip(x, exps)) for exps, c in p.terms.items()]


# floats that stay clear of underflow in a product of degree <= 39, with zero
_COORD = st.floats(1e-7, 1e2) | st.floats(-1e2, -1e-7) | st.just(0.0)


class TestPowerChains:
    """The generated map, update, Newton matrix and energy form every power
    by multiplication, once per stage, and call no pow."""

    @pytest.mark.parametrize("method", ["avf", "stages"])
    def test_each_power_formed_once_per_stage(self, monkeypatch, method):
        sys_ = _fresh_system(31, half_dim=2, degree=6)
        n, f = sys_.dim, sys_.vector_field()
        if method == "stages":
            method = random_A_tableau(random.Random(31), _rule(2, F(0)))
        s = 2 if method != "avf" else 3  # avf steps on the 3-node Gauss rule of a degree-6 H
        _run.cache_clear()
        integrators._energy.cache_clear()
        cfg = SolverConfig(strategy="newton")
        src = _generated(monkeypatch, lambda: integrate(sys_, method, [0.2, 0.1, 0.3, 0.1], 0.05, 2, cfg).energies)
        loop = "chord" if method == "avf" else "stages"
        assert sorted(src) == sorted([loop, "evaluate"])
        # the step start forms the powers of the state once for f and J_f there, the map those
        # of every stage once under the stage's own names, and the update and the Newton matrix
        # read them and form none
        stages = set().union(*(_chains(f, n, f"q{j}_") for j in range(s)))
        for name, chains in ((loop, _chains(f, n) | stages), ("evaluate", _chains([sys_.H], n))):
            lines = src[name]
            assert not any("**" in line for line in lines), name
            assigned = [line.split(" = ")[0].strip() for line in lines if line.lstrip().startswith("q")]
            assert {q: assigned.count(q) for q in assigned} == {q: 1 for q in chains}, name

    @pytest.mark.parametrize("method", ["avf", "stages"])
    def test_one_factor_and_one_solve_block(self, monkeypatch, method):
        # the step-start matrix and the Newton matrix share the loop's one factorization and
        # its one solve, and the loop calls no generated function of its own
        sys_ = _fresh_system(32, half_dim=2, degree=4)
        if method == "stages":
            method = random_A_tableau(random.Random(32), _rule(3, F(0)))
        _run.cache_clear()
        run = lambda: integrate(sys_, method, [0.2, 0.1, 0.3, 0.1], 0.05, 2, SolverConfig(strategy="newton"))
        (name, lines), = _generated(monkeypatch, run).items()
        assert name == ("chord" if method == "avf" else "stages")
        assert sum("zero pivot in column 0" in line for line in lines) == 1
        assert sum(line.strip() == "r0 = f0 - z0" for line in lines) == 1
        assert sum(line.lstrip().startswith("def ") for line in lines) == 1

    def test_minus_one_is_a_negation(self):
        p = MultiPoly(2, {(1, 1): F(-1), (0, 3): F(1), (0, 0): F(-1), (2, 0): F(-1, 2)})
        assert integrators._poly_source(p, ["x", "y"]) == "-1.0 + q1_3 + -x*y + q0_2*-0.5"

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * 2).filter(lambda e: 1 <= sum(e) <= 7),
            st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 3), F(3, 40), F(-4, 40)]),
            min_size=1,
            max_size=6,
        ),
        x=st.tuples(_COORD, _COORD),
    )
    def test_field_within_bound_of_exact(self, terms, x):
        self._check(HamiltonianSystem(1, MultiPoly(2, terms)), x)

    @settings(max_examples=50, deadline=None)
    @given(x=st.tuples(_COORD, _COORD))
    def test_power_39_within_bound_of_exact(self, x):
        self._check(SADDLE_40, x)

    @staticmethod
    def _check(sys_, x):
        # A monomial c x^m of degree D takes at most D + 1 roundings: c to a float, D - 1
        # products for its powers and factors, one by c.  Summing T terms left to right adds
        # T - 1 more, so |fl(p(x)) - p(x)| <= gamma_(D+T) sum_m |c_m x^m|, with
        # gamma_k = k u / (1 - k u) and u = 2^-53 (Higham, Accuracy and Stability, Lemma 3.3),
        # as long as no product underflows (_COORD) or overflows (degree <= 39 at |x| <= 1e2).
        f = sys_.vector_field()
        got = _scalar_function(f, sys_.dim)(*x)
        u = Fraction(1, 2**53)
        for p, value in zip(f, got):
            k = max((sum(e) for e in p.terms), default=0) + len(p.terms)
            gamma = k * u / (1 - k * u)
            terms = _exact_terms(p, x)
            assert abs(Fraction(value) - sum(terms)) <= gamma * sum(map(abs, terms))


@lru_cache(maxsize=None)
def _solve(n):
    """solve(rows, z, f, res) -> z - dx with rows @ dx = f - z, by the lines of _factor_lines(n) and _solve_lines(n)."""
    rows = ", ".join(f"({''.join(f'a{i}_{j}, ' for j in range(n))})" for i in range(n))
    lines = ["def solve(rows, z, f, res):", f"    {rows}, = rows"]
    lines += [f"    {', '.join(f'{a}{k}' for k in range(n))}, = {a}" for a in "zf"]
    lines += ["    " + line for line in _factor_lines(n) + _solve_lines(n)]
    lines += [f"    return ({', '.join(f'z{k} - r{k}' for k in range(n))},)"]
    return integrators._generate(lines, "solve", n, 0)


def _solved(rows, rhs):
    """dx with rows @ dx = rhs by the generated elimination, from z = 0."""
    n = len(rhs)
    return [-v for v in _solve(n)(rows, (0.0,) * n, tuple(rhs), 0.5)]


class TestElimination:
    """The generated elimination of every Newton step (_solve wraps the lines
    that every layout's Newton step inlines) against LAPACK and the reference order."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_backward_stable_against_lapack(self, n, data):
        # rows of a strictly diagonally dominant matrix, shuffled: condition number below 3n,
        # and every column's pivot is a row swap away
        unit = st.floats(-1.0, 1.0, allow_subnormal=False)
        rows = [[data.draw(unit) for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = data.draw(st.sampled_from([-1.0, 1.0])) * (n + abs(data.draw(unit)) * n)
        rows = data.draw(st.permutations(rows))
        rhs = [data.draw(st.floats(-1e3, 1e3, allow_subnormal=False)) for _ in range(n)]
        got = _solved(rows, rhs)
        assert _bits(got) == _bits([-v for v in reference_newton_step(rows, [0.0] * n, rhs, 0.5)])
        # normwise backward error, its residual in exact arithmetic
        resid = max(abs(F(b) - sum(F(a) * F(x) for a, x in zip(row, got))) for row, b in zip(rows, rhs))
        norm_a = max(sum(map(abs, row)) for row in rows)
        assert resid <= 8 * n * F(2.0**-52) * (F(norm_a) * F(max(map(abs, got))) + F(max(map(abs, rhs))))
        ref = np.linalg.solve(rows, rhs)
        cond = np.linalg.cond(rows, np.inf)
        assert np.max(np.abs(np.subtract(got, ref))) <= 2 * cond * 8 * n * 2.0**-52 * np.max(np.abs(ref)) + 1e-300

    def test_first_largest_row_pivots(self):
        # |a_00| = |a_10|: row 0 pivots, and pivoting on row 1 would round x_0 differently
        rows, rhs = [[1.0, 0.1], [-1.0, 0.3]], [0.7, 0.1]

        def pivot_on(a, b, r):
            l = b[0] / a[0]
            x1 = (r[1] - l * r[0]) / (b[1] - l * a[1])
            return [(r[0] - a[1] * x1) / a[0], x1]

        assert _solved(rows, rhs) == pivot_on(*rows, rhs) == [0.5, 1.9999999999999998]
        assert pivot_on(rows[1], rows[0], rhs[::-1]) != pivot_on(*rows, rhs)

    @pytest.mark.parametrize(
        "rows, column",
        [
            ([[0.0, 1.0], [0.0, 2.0]], 0),
            ([[-0.0, 1.0], [0.0, 2.0]], 0),
            ([[1.0, 2.0], [2.0, 4.0]], 1),  # row 1 pivots, and 2 - (1/2) * 4 leaves 0
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [2.0, 4.0, 6.0]], 2),
            ([[0.0]], 0),
        ],
    )
    def test_zero_pivot_names_its_column(self, rows, column):
        n = len(rows)
        z, f = tuple(0.25 * k for k in range(n)), (1.0,) * n
        with pytest.raises(SolverError) as exc_info:
            _solve(n)(rows, z, f, 0.5)
        err = exc_info.value
        assert str(err) == f"Newton matrix is singular: zero pivot in column {column}"
        assert err.iterate == z and err.residual == 0.5
        with pytest.raises(SolverError, match=f"zero pivot in column {column}$"):
            reference_newton_step(rows, z, f, 0.5)


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
        # left to right over the stages from 0.0, weights h * w_j, as the generated sums add:
        # sum() of floats is compensated since Python 3.12
        out = []
        for k, yk in enumerate(y):
            acc = 0.0
            for wj, v in zip(w, vals):
                acc = acc + (h * wj) * v[k]
            out.append(yk + acc)
        return out

    def phi(x):
        fs = at_stages(f, x)
        return [z for row in A for z in update(row, fs)]

    def newton(x):
        js = at_stages(jac, x)
        return [
            [0.0 + (h * A[i][j]) * js[j][a * n + c] - (i == j and a == c) for j in range(s) for c in range(n)]
            for i in range(s)
            for a in range(n)
        ]

    W = [[h * a for a in row] for row in A]
    x, sol, stats = reference_implicit_solve(y * s, phi, newton, _start_matrix(sys_, W, y), cfg)
    return reference_update(update(b, at_stages(f, x)), sol, stats)


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
    W = [[h * float(sum(F(c) * F(b) for c, b in rule.float_nodes))]]
    _, z, stats = reference_implicit_solve(y, phi, newton, _start_matrix(sys_, W, y), cfg, scale)
    return reference_update(z, z, stats)


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


# step sizes, double-well start states, and whether the midpoint solve switches to Newton there
SWITCH_CASES = [
    (1.1, [0.5, 1.0], True),
    (-1.1, [0.5, 1.0], True),
    (0.9, [1.001, 0.0], False),
    (-0.9, [1.001, 0.0], False),
]
SADDLE = sys1({(0, 2): F(1, 2), (2, 0): F(-1, 2)})  # f = (p, q)
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
        stages=st.integers(1, 3),
        size=st.sampled_from([1e-2, 1e-1, 1.0, 1e1, 1e2]),
        h=st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3),
        strategy=st.sampled_from(["fixed-point+newton", "fixed-point", "newton"]),
        max_iterations=st.sampled_from([1, 2, 5, 100]),
    )
    def test_matches_interpreted_solve(
        self, seed, half_dim, degree, method, stages, size, h, strategy, max_iterations
    ):
        rng = random.Random(seed)
        sys_ = _perturbed_well(rng, half_dim, degree)
        if method == "stages":
            method = random_A_tableau(rng, _rule(stages, F(0)))
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
            (QUARTIC, [0.01, 0.005], 50.0, "fixed-point", 100, "non-finite field value"),  # q*q*q is inf
            (QUARTIC, [1e120, 0.0], 0.1, "newton", 100, "non-finite field value"),  # in the predictor
            # h/2 J_f - I is nearly singular: the Newton step lands where q^39 overflows
            (SADDLE_40, [0.3781856116280262, 0.11345568348840786], 1.9999999999999991, "newton", 100, "non-finite field value"),
            (sys1({(2, 2): F(1, 2)}), [1.0, 0.5], 5.0, "fixed-point", 100, "non-finite field value"),
            (sys1({(2, 2): F(1, 2)}), [1e150, 1e150], 0.1, "fixed-point+newton", 100, "non-finite field value"),
            # f = (1, -1e300 q^3): only the second component is inf
            (sys1({(0, 1): F(1), (4, 0): F(10**300, 4)}), [1e3, 0.0], 0.1, "fixed-point", 100, "non-finite field value"),
            # f = (1e300 p^3, -1): only the first component is inf
            (sys1({(1, 0): F(1), (0, 4): F(10**300, 4)}), [0.0, 1e3], 0.1, "newton", 100, "non-finite field value"),
            # h/2 J_f - I is nearly singular at a state near the float limit: the Newton step is inf
            (SADDLE, [1e300, 0.0], 1.9999999999999998, "newton", 100, "non-finite iterate"),
        ],
    )
    @pytest.mark.parametrize("method", ["avf", "midpoint", "stages"])
    def test_failures_match_interpreted_solve(self, sys_, y0, h, strategy, max_iterations, reason, method):
        if method == "stages":
            method = ButcherTableau([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5], [0.5, 0.5])
        cfg = SolverConfig(strategy=strategy, max_iterations=max_iterations)
        got = _outcome(sys_, method, y0, h, 3, cfg)
        assert got == _reference_outcome(sys_, method, y0, h, 3, cfg)
        if method == "avf":
            assert reason in got[0]

    @pytest.mark.parametrize(
        "method, h, y0, switches",
        [pytest.param("midpoint", h, y0, sw, id=f"{h}-{sw}") for h, y0, sw in SWITCH_CASES]
        + [pytest.param("stages", h, y0, sw, id=f"stages-{h}-{sw}") for h, y0, sw in SWITCH_CASES],
    )
    def test_stall_switch_matches_interpreted_solve(self, method, h, y0, switches):
        # the sweep on the step-start matrix contracts by as much as J_f changes across the step,
        # and switches once two more moves at its observed rate would not reach the tolerance:
        # from (0.5, 1) on the double well some midpoint step at |h| = 1.1 switches, and near the
        # minimum at (1, 0) no step at |h| = 0.9 does; so does the stage sweep of this tableau,
        # whose two stages stay equal
        if method == "stages":
            method = ButcherTableau([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5], [0.5, 0.5])
        cfg = SolverConfig()
        got = _outcome(DOUBLE_WELL, method, y0, h, 3, cfg)
        assert got == _reference_outcome(DOUBLE_WELL, method, y0, h, 3, cfg)
        assert any(newton for _, newton, _ in got[1]) == switches

    def test_stage_loop_generated_once_per_tableau(self, caplog):
        _run.cache_clear()
        tableaux = [
            ButcherTableau([[0.25, -0.04], [0.54, 0.25]], [0.5, 0.5], [0.21, 0.79]),
            ButcherTableau([[0.2, 0.1], [0.3, 0.4]], [0.5, 0.5], [0.3, 0.7]),
        ]
        logged = []
        for tab in tableaux:
            for strategy in ["fixed-point", "fixed-point", "newton", "newton"]:
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="avfrk"):
                    integrate(QUARTIC, tab, [0.5, 0.1], 0.05, 5, SolverConfig(strategy=strategy))
                got = [r.getMessage() for r in caplog.records if r.name == "avfrk.integrators"]
                logged.append([m.rsplit(", ", 1)[0] for m in got])
        # the loop on the first run of each tableau, Newton steps included, and no chord
        assert logged == [["generated stages: dim 4, 2 nodes"], [], [], []] * 2


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
            ("avf", 6, ("-0x1.1984654a963e7p+4", "-0x1.b5ce9fec272dfp+8"), "0x1.0000000000000p-44"),
            ("midpoint", 7, ("0x1.091ecd7c71654p+6", "0x1.35c4b4df9556ap+11"), "0x1.8000000000000p-41"),
            ((2, F(0)), 6, ("-0x1.1984654a963e7p+4", "-0x1.b5ce9fec272dfp+8"), "0x1.93cd3a2c8198ep-45"),
        ],
    )
    def test_late_failure_carries_its_step(self, method, k, iterate, residual):
        # the runaway's first failed step, with its last iterate and residual bit for bit
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
        "sys_, y0, case",
        [
            (QUARTIC, [1e120, 0.0], "overflow"),  # a power overflows: q*q*q is inf
            (sys1({(2, 2): F(1, 2)}), [1e150, 1e150], "non-finite"),  # a product: q*q * p is inf
        ],
    )
    def test_overflow_is_solver_error(self, sys_, y0, case):
        # a float product does not raise: either overflow makes a field value non-finite in the
        # predictor, at the finite start state
        with pytest.raises(SolverError) as exc_info:
            integrate(sys_, "avf", y0, 0.1, 5)
        err = exc_info.value
        assert err.step_index == 0
        assert str(err) == "step 0: non-finite field value at iteration 0"
        assert err.iterate == tuple(y0) and err.residual == math.inf

    def test_non_finite_update_is_not_accepted(self):
        # a step whose solve converges, but whose update y + h b_1 f(Y_1) is inf, fails at its
        # own index with the converged iterate and its residual
        mid = midpoint_tableau()
        tab = ButcherTableau(mid.A, [10**400], mid.c)
        for n in (1, 2):
            with pytest.raises(SolverError) as exc_info:
                integrate(QUARTIC, tab, [0.5, 0.1], 0.1, n)
            err = exc_info.value
            assert err.step_index == 0
            assert str(err) == "step 0: non-finite state after the update"
            assert all(map(math.isfinite, err.iterate)) and err.residual <= SolverConfig().tolerance

    @pytest.mark.parametrize("method", ["avf", "stages"])
    def test_singular_newton_is_solver_error(self, method):
        # f = (p, q) and h = 2 make h/2 J_f - I exactly singular
        if method == "stages":
            mid = midpoint_tableau()
            method = ButcherTableau(mid.A, mid.b, mid.c)
        with pytest.raises(SolverError) as exc_info:
            integrate(SADDLE, method, [1.0, 0.0], 2.0, 3, SolverConfig(strategy="newton"))
        assert exc_info.value.step_index == 0
        assert str(exc_info.value).startswith("step 0: Newton matrix is singular: zero pivot in column ")

    # an exact coefficient beyond the float range is an infinite coefficient to the stepper
    @pytest.mark.parametrize("value", [pytest.param(10**400, id="inf"), pytest.param(-(10**400), id="-inf")])
    @pytest.mark.parametrize("where, k", [("A", 0), ("b", 0)])
    @pytest.mark.parametrize("strategy", ["fixed-point+newton", "newton"])
    def test_non_finite_coefficient_is_solver_error(self, value, where, k, strategy):
        # A enters the map, so step 0's predictor is non-finite; b enters only the update, which
        # step 0 checks before it accepts the state
        A, b = [[0.25, -0.04], [0.54, 0.25]], [0.5, 0.5]
        if where == "A":
            A[0][1] = value
        else:
            b[1] = value
        tab = ButcherTableau(A, b, [0.21, 0.79])
        with pytest.raises(SolverError) as exc_info:
            integrate(QUARTIC, tab, [0.5, 0.1], 0.05, 3, SolverConfig(strategy=strategy))
        assert exc_info.value.step_index == k
        reason = "non-finite field value at iteration 0" if where == "A" else "non-finite state after the update"
        assert str(exc_info.value) == f"step {k}: {reason}"

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

    def test_config_value_semantics(self):
        # keyword or positional, equal and hashed by its three fields, printed as it is built
        cfg = SolverConfig(max_iterations=7, strategy="newton")
        assert cfg == SolverConfig(1e-14, 7, "newton") and cfg != SolverConfig(max_iterations=7)
        assert hash(cfg) == hash((1e-14, 7, "newton")) and len({cfg, SolverConfig(1e-14, 7, "newton")}) == 1
        assert cfg != (1e-14, 7, "newton")
        assert repr(cfg) == "SolverConfig(tolerance=1e-14, max_iterations=7, strategy='newton')"
        with pytest.raises(AttributeError):
            del cfg.strategy


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

    def test_tableau_without_stages_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            integrate(QUARTIC, ButcherTableau([], [], []), [0.5, 0.1], 0.05, 5)

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
