"""Seeded inputs, operations and output checks for the four workloads.

A workload is a fixed list of operations (ops) built from the seed.  An op
calls the package once through its public API, or runs one CLI command, and
is split into the timed call and an untimed check of what the call returned.
Calls look the package functions up on their modules at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from avfrk import conditions, hamiltonian, integrators, quadrature, trees

F = Fraction
CFG = integrators.SolverConfig()  # tolerance 1e-14, 100 iterations, with Newton fallback
DRIFT_BOUND = 1e-10  # criterion 7, times max(1, |H(y0)|)
SLOPE_BOUND = 1e-15  # criterion 7, energy change per step
PRECISION = 50  # working digits of every rule (the package default)

# generic family parameters: every one gives a valid rule for s = 2..6
GENERIC_ZETAS = (F(1, 2), F(1, 3), F(2, 3), F(-1, 2), F(-1, 3), F(1), F(2), F(3, 2), F(-2, 3))

# criterion 6: (s, zeta, slope, leading coefficient) of the kernel-ray sweeps
CRITERION_6 = (
    (2, F(1, 2), 2, F(1, 648)),
    (2, F(1), 2, F(1, 81)),
    (2, F(-1, 2), 2, F(-1, 648)),
    (2, F(0), 2, F(-1, 36)),
    (3, F(-1), 2, F(-4, 9)),
    (3, F(0), 3, F(216, 400)),
    (4, F(0), 4, F(-1296, 4900)),
)


@dataclass(frozen=True)
class Sizes:
    drift_systems: int  # criterion-7 systems
    drift_steps: int
    large_amplitudes: tuple
    large_hA: tuple  # h * amplitude
    large_phases: int  # seeded initial phases per (system, amplitude, h * amplitude)
    large_steps: int
    rank_stages: tuple
    sweep_extra_stages: tuple  # one seeded generic zeta per entry
    condition_rules: tuple  # (s, zeta or None for a seeded generic zeta)
    cli_steps: int
    cli_rank_s: int
    setup_probes: int


FULL = Sizes(
    drift_systems=60,  # under the package's 64-entry compile caches
    drift_steps=50,
    large_amplitudes=(1, 2, 5, 10, 20, 50, 100),
    large_hA=(0.2, 0.5, 0.8),
    large_phases=2,  # where the solver fails varies with the phase; two halve the seed-to-seed spread
    large_steps=200,
    rank_stages=(2, 3, 4, 5, 6, 7),
    sweep_extra_stages=(3, 4, 4, 5, 5),
    condition_rules=((2, F(0)), (3, F(0)), (4, F(0)), (3, None), (4, None)),
    cli_steps=1000,
    cli_rank_s=6,
    setup_probes=5,
)

# the smoke test's size: same code paths, one pass in a few seconds
TINY = Sizes(
    drift_systems=4,
    drift_steps=20,
    large_amplitudes=(1, 100),
    large_hA=(0.5,),
    large_phases=1,
    large_steps=40,
    rank_stages=(2, 3),
    sweep_extra_stages=(3,),
    condition_rules=((2, F(0)), (3, None)),
    cli_steps=50,
    cli_rank_s=2,
    setup_probes=2,
)


class Outcome:
    """What a check found: ok, and work done against work requested."""

    __slots__ = ("ok", "done", "want", "detail")

    def __init__(self, ok: bool, done: float = 1.0, want: float = 1.0, detail: str = ""):
        self.ok = bool(ok)
        self.done = done if ok else 0.0
        self.want = want
        self.detail = detail


@dataclass
class Op:
    name: str
    call: Callable  # the timed part; None for a CLI op
    check: Callable  # result of call -> Outcome
    argv: tuple = ()  # CLI ops: the command line after "avfrk"


# ---------------------------------------------------------------------------
# Hamiltonian systems


def criterion7_system(rng: random.Random, half_dim: int, degree: int):
    """Harmonic well plus a sparse perturbation of the given top degree.

    The criterion-7 generator: two perturbation terms with coefficients
    +-k/40, k = 1..4, the first of the full degree.  A draw whose second
    term cancels the first is drawn again.
    """
    nv = 2 * half_dim
    while True:
        terms = {}
        for i in range(nv):
            e = [0] * nv
            e[i] = 2
            terms[tuple(e)] = F(1, 2)
        for t in range(2):
            deg_t = degree if t == 0 else rng.randint(3, degree)
            exps = [0] * nv
            for _ in range(deg_t):
                exps[rng.randrange(nv)] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, F(0)) + F(rng.choice([-1, 1]) * rng.randint(1, 4), 40)
        H = hamiltonian.MultiPoly(nv, terms)
        if H.degree() == degree:
            return hamiltonian.HamiltonianSystem(half_dim, H)


def bounded_systems():
    """Quartic oscillator, double well, and a coupled two-degree-of-freedom quartic."""
    MP, HS = hamiltonian.MultiPoly, hamiltonian.HamiltonianSystem
    quartic = HS(1, MP(2, {(0, 2): F(1, 2), (4, 0): F(1, 4)}))
    double_well = HS(1, MP(2, {(0, 2): F(1, 2), (4, 0): F(1, 4), (2, 0): F(-1, 2)}))
    coupled = HS(
        2,
        MP(
            4,
            {
                (0, 0, 2, 0): F(1, 2),
                (0, 0, 0, 2): F(1, 2),
                (4, 0, 0, 0): F(1, 4),
                (0, 4, 0, 0): F(1, 4),
                (2, 2, 0, 0): F(1, 2),
            },
        ),
    )
    return (("quartic", quartic), ("double_well", double_well), ("coupled", coupled))


def system_json(sys_) -> dict:
    return {
        "half_dim": sys_.half_dim,
        "terms": [
            {"exponents": list(e), "coeff": f"{c.numerator}/{c.denominator}"}
            for e, c in sorted(sys_.H.terms.items())
        ],
    }


# ---------------------------------------------------------------------------
# trajectory checks


def _integrate_call(sys_, method, y0, h, n):
    def call():
        try:
            return integrators.integrate(sys_, method, y0, h, n, CFG)
        except integrators.SolverError as e:
            return e

    return call


def _trajectory_check(n: int, secular: bool, solver_failure_allowed: bool):
    """Energy drift within 1e-10 max(1, |H(y0)|), every step converged.

    On `large_step` a SolverError is the program's documented answer for a
    step it cannot converge; the check then asks that the error carries a
    step index inside the run and a residual above the tolerance, and the
    steps before it count as completed work.
    """

    def check(res):
        if isinstance(res, integrators.SolverError):
            k = res.step_index
            ok = (
                solver_failure_allowed
                and k is not None
                and 0 <= k < n
                and res.residual is not None
                and not res.residual <= CFG.tolerance
            )
            return Outcome(ok, k, n, f"solver failure at step {k}")
        e = res.energies
        drift = float(np.max(np.abs(e - e[0])))
        ok = len(res.states) == n + 1 and drift <= DRIFT_BOUND * max(1.0, abs(float(e[0])))
        ok = ok and all(st.residual <= CFG.tolerance for st in res.solver_stats)
        detail = f"drift {drift:.2e}"
        if secular:
            slope = abs(np.polyfit(np.arange(e.size), e - e[0], 1)[0])
            ok = ok and slope <= SLOPE_BOUND
            detail += f", slope {slope:.2e}/step"
        return Outcome(ok, n, n, detail)

    return check


def drift_ops(seed: int, sizes: Sizes, build_span) -> list:
    """Criterion-7 traffic: each system with `avf` and with its rank-one tableau."""
    rng = random.Random(seed)
    cases = []
    with build_span():
        for case in range(sizes.drift_systems):
            half_dim = 1 if case < sizes.drift_systems // 2 else 2
            degree = 3 + case % 4
            sys_ = criterion7_system(rng, half_dim, degree)
            y0 = np.array([rng.randint(10, 45) / 100 for _ in range(sys_.dim)])
            cases.append((case, degree, sys_, y0))
    ops = []
    check = _trajectory_check(sizes.drift_steps, secular=True, solver_failure_allowed=False)
    tableaux = {
        s: integrators.avf_tableau(quadrature.quad_rule(s, 0))
        for s in sorted({math.ceil(degree / 2) for _, degree, _, _ in cases})
    }
    for case, degree, sys_, y0 in cases:
        tab = tableaux[math.ceil(degree / 2)]
        for label, method in (("avf", "avf"), ("rk", tab)):
            ops.append(
                Op(
                    f"{label} system{case} deg{degree} dim{sys_.dim}",
                    _integrate_call(sys_, method, y0, 0.05, sizes.drift_steps),
                    check,
                )
            )
    return ops


def large_step_ops(seed: int, sizes: Sizes, build_span) -> list:
    """Bounded quartic systems at amplitudes 1..100 with h * amplitude in [0.2, 0.8].

    The amplitude and h * amplitude grids are fixed; the seed draws the
    initial phase of every case.  Cases the solver cannot finish stay in.
    """
    rng = random.Random(seed)
    tab = integrators.avf_tableau(quadrature.quad_rule(2, 0))  # order 4 covers quartic H
    with build_span():
        systems = bounded_systems()
    ops = []
    check = _trajectory_check(sizes.large_steps, secular=False, solver_failure_allowed=True)
    for name, sys_ in systems:
        for amp in sizes.large_amplitudes:
            for hA in sizes.large_hA:
                for _ in range(sizes.large_phases):
                    th = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(sys_.half_dim)]
                    # q = A cos(theta); p on the quartic scale A^2/sqrt(2)
                    q = [amp * math.cos(t) for t in th]
                    p = [amp * amp / math.sqrt(2 * sys_.half_dim) * math.sin(t) for t in th]
                    y0 = np.array(q + p)
                    for label, method in (("avf", "avf"), ("rk", tab)):
                        ops.append(
                            Op(
                                f"{label} {name} A={amp} hA={hA} phase {th[0]:.3f}",
                                _integrate_call(sys_, method, y0, hA / amp, sizes.large_steps),
                                check,
                            )
                        )
    return ops


# ---------------------------------------------------------------------------
# certificate


def published_rank(s: int, m: int, zeta: Fraction) -> int:
    """The rank table: s^2-1 at m = 2s; s^2-3, or s^2-s-1 at zeta = -1, at m = 2s-1."""
    if m == 2 * s:
        return s * s - 1
    return s * s - s - 1 if zeta == -1 else s * s - 3


def _rank_op(s: int, zeta: Fraction) -> Op:
    m = 2 * s if zeta == 0 else 2 * s - 1

    def call():
        rule = quadrature.quad_rule(s, zeta, PRECISION)
        return conditions.rank_kernel(conditions.build_M(rule, m))

    def check(res):
        rank, basis = res
        want = published_rank(s, m, zeta)
        ok = rank == want and basis.dim == s * s - rank and basis.structured
        return Outcome(ok, detail=f"rank {rank} (published {want}), kernel {basis.dim}")

    return Op(f"rank s={s} zeta={zeta}", call, check)


def _sweep_op(s: int, zeta: Fraction, published=None) -> Op:
    """published = (slope, coefficient) for a criterion-6 case; else the CLI verdict rule."""

    def call():
        return conditions.uniqueness_sweep(quadrature.quad_rule(s, zeta, PRECISION), 2 * s - 1)

    def check(rep):
        fit = rep["residual_fit"]
        ok = rep["rank"] == published_rank(s, 2 * s - 1, zeta) and fit is not None
        if not ok:
            return Outcome(False, detail="rank mismatch or no fit")
        if published is not None:
            slope, coeff = published
            cf = float(coeff)
            rel = abs(fit["coeff"] - cf) / abs(cf)
            ds = abs(fit["slope"] - slope)
            ok = rel <= 1e-12 and ds <= 1e-6 and abs(fit["expected_coeff"] - cf) <= 1e-15 * abs(cf)
        else:
            rel = abs(fit["coeff"] - fit["expected_coeff"]) / abs(fit["expected_coeff"])
            ds = abs(fit["slope"] - fit["expected_slope"])
            ok = rel <= 1e-6 and ds <= 1e-3
        return Outcome(ok, detail=f"coefficient within {rel:.1e}, slope within {ds:.1e}")

    return Op(f"sweep s={s} zeta={zeta}", call, check)


def _conditions_op(s: int, zeta: Fraction) -> Op:
    def call():
        rule = quadrature.quad_rule(s, zeta, PRECISION)
        tab = integrators.avf_tableau(rule)
        classes = trees.conditions_up_to(rule.order, rule.order)
        return [trees.energy_condition_residual(ft, tab) for ft in classes]

    def check(residuals):
        worst = max(abs(float(r)) for r in residuals)
        ok = bool(residuals) and worst <= 10.0 ** -(PRECISION - 10)
        return Outcome(ok, detail=f"{len(residuals)} classes, worst {worst:.1e}")

    return Op(f"conditions s={s} zeta={zeta}", call, check)


def certify_ops(seed: int, sizes: Sizes, build_span) -> list:
    """Rank table, uniqueness sweeps and tree-class residual tables; no time stepping."""
    rng = random.Random(seed)
    rank = [_rank_op(s, z) for s in sizes.rank_stages for z in (F(0), F(1, 2), F(-1))]
    rng.shuffle(rank)
    sweeps = [_sweep_op(s, z, (slope, c)) for s, z, slope, c in CRITERION_6]
    seen = {(s, z) for s, z, _, _ in CRITERION_6}
    for s in sizes.sweep_extra_stages:
        z = rng.choice([z for z in GENERIC_ZETAS if (s, z) not in seen])
        seen.add((s, z))
        sweeps.append(_sweep_op(s, z))
    conds = [
        _conditions_op(s, z if z is not None else rng.choice(GENERIC_ZETAS))
        for s, z in sizes.condition_rules
    ]
    return rank + sweeps + conds


# ---------------------------------------------------------------------------
# command line


def _json_out(res):
    return json.loads(res.stdout)


def _cli_check(verify):
    def check(res):
        if res.returncode != 0:
            return Outcome(False, detail=f"exit {res.returncode}: {res.stderr.strip()[-200:]}")
        try:
            return verify(res)
        except (ValueError, KeyError, TypeError, OSError) as e:
            return Outcome(False, detail=f"unreadable output: {e}")

    return check


def cli_ops(seed: int, sizes: Sizes, build_span, workdir: Path) -> list:
    """One command of each kind, as a user types them; inputs written to workdir."""
    rng = random.Random(seed)
    with build_span():
        sys_ = criterion7_system(rng, 1, 4)
    y0 = [rng.randint(10, 45) / 100 for _ in range(sys_.dim)]
    h0 = abs(float(hamiltonian.evaluate(sys_.H, [F(repr(x)) for x in y0])))
    ham = workdir / "ham.json"
    ham.write_text(json.dumps(system_json(sys_)))
    csv_path = workdir / "trajectory.csv"
    y0_arg = ",".join(repr(x) for x in y0)
    n = sizes.cli_steps
    s_quad = rng.choice((3, 4, 5))
    z_quad = rng.choice(GENERIC_ZETAS)
    z_cond = rng.choice((F(0),) + GENERIC_ZETAS)
    z_uniq = rng.choice(GENERIC_ZETAS)
    tiny = 10.0 ** -(PRECISION - 10)

    def quad_ok(res):
        doc = _json_out(res)
        total = sum(float(F(x)) for x in doc["b"])  # decimal strings
        return Outcome(len(doc["c"]) == s_quad and abs(total - 1) <= 1e-15)

    def tableau_ok(res):
        doc = _json_out(res)
        return Outcome(len(doc["A"]) == s_quad and all(len(r) == s_quad for r in doc["A"]))

    def conditions_ok(res):
        doc = _json_out(res)
        worst = max(abs(float(e["residual"])) for e in doc["conditions"])
        return Outcome(worst <= tiny, detail=f"worst {worst:.1e}")

    def rank_ok(res):
        doc = _json_out(res)
        return Outcome(doc["verdict"] == "match" and doc["structured"], detail=doc["verdict"])

    def uniqueness_ok(res):
        doc = _json_out(res)
        return Outcome(doc["rank"] == doc["expected_rank"] and doc["residual_fit"] is not None)

    def integrate_ok(res):
        doc = _json_out(res)
        drift = doc["max_energy_drift"]
        ok = doc["n_steps"] == n and drift <= DRIFT_BOUND * max(1.0, h0)
        ok = ok and doc["max_step_residual"] <= CFG.tolerance
        return Outcome(ok, n, n, f"drift {drift:.2e}")

    def csv_ok(res):
        summary = integrate_ok(res)
        rows = csv_path.read_text().splitlines()
        ok = summary.ok and len(rows) == n + 2  # header, initial state, one row per step
        return Outcome(ok, n, n, f"{len(rows) - 1} rows")

    def order_ok(res):
        slope = _json_out(res)["slope"]
        return Outcome(abs(slope - 2.0) <= 0.1, detail=f"slope {slope:.4f}")

    run = ("--y0", y0_arg)
    script = (
        ("quad", ("quad", "--s", str(s_quad), f"--zeta={z_quad}"), quad_ok),
        ("tableau", ("tableau", "--s", str(s_quad), f"--zeta={z_quad}"), tableau_ok),
        ("conditions", ("conditions", "--s", "3", f"--zeta={z_cond}"), conditions_ok),
        ("rank", ("rank", "--s", str(sizes.cli_rank_s)), rank_ok),
        ("uniqueness", ("uniqueness", "--s", "3", f"--zeta={z_uniq}"), uniqueness_ok),
        (
            "integrate",
            ("integrate", str(ham), *run, "--h", "0.05", "--steps", str(n)),
            integrate_ok,
        ),
        (
            "integrate",
            ("integrate", str(ham), *run, "--h", "0.05", "--steps", str(n),
             "--method", "rk", "--format", "csv", "--output", str(csv_path)),
            csv_ok,
        ),
        (
            "order",
            ("order", str(ham), *run, "--t-end", "2", "--hs", "0.1,0.05,0.025"),
            order_ok,
        ),
    )
    # no `call`: the runner starts the command, as `python -m avfrk.cli` or traced
    return [Op(name, None, _cli_check(verify), argv) for name, argv, verify in script]


MAKE_OPS = {
    "drift": drift_ops,
    "large_step": large_step_ops,
    "certify": certify_ops,
}
