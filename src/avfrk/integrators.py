"""Time stepping for polynomial Hamiltonian systems.

The chord-averaged step

    y' = y + h * integral_0^1 f((1-xi) y + xi y') dxi

and every rank-one Runge-Kutta step A = c b^T are one computation: the
stages lie on the chord, Y_j = y + c_j (y' - y), so the s*d stage system
reduces to the d unknowns of y' = y + h sum_j b_j f(Y_j).  The averaged
step is that reduction with the Gauss rule of ceil(deg H / 2) nodes, which
integrates the chord average exactly.  A tableau without a rank-one rule
(a user tableau, explicit Euler) solves the full stage system.

Implicit solves run fixed-point sweeps first and fall back to Newton with
the exact polynomial Jacobian when the residual reduction stalls.  All
stepping is float64, in plain Python floats through code generated from
the exact polynomials, and every state is a tuple of floats.  One
generated loop takes every step of a run, for both phases: the iterate
stays in local floats, and the predictor, the finite check, the residual,
the stops, the switch to Newton, the Newton steps and the update run
inline.  For the chord the state is local floats too, and the map
z -> y + sum_j h b_j f(y + c_j (z - y)) and the update are straight-line
source per system and float node set, inlined in its loop; the Newton
matrix h sum_j b_j c_j J_f(Y_j) - I is generated the first time a run
switches to Newton.  The stage path's loop is generated once per state
and stage count and calls the tableau's map and update, which evaluate f
and J_f one point at a time.

numpy is imported only where it is used: by a Newton iteration, whose
linear solve is LAPACK's, and by IntegrationRun.energies, which returns an
array.  Importing the module, and stepping without Newton, loads none.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import sub
from typing import Callable, NamedTuple, Sequence

from mpmath import mp

from .hamiltonian import HamiltonianSystem, MultiPoly
from .quadrature import QuadRule, quad_rule
from .trees import ButcherTableau

__all__ = [
    "SolverConfig",
    "SolverError",
    "StepStats",
    "IntegrationRun",
    "avf_tableau",
    "midpoint_tableau",
    "avf_step",
    "rk_step",
    "integrate",
    "convergence_errors",
    "convergence_order",
    "log_log_slope",
    "write_run_csv",
]

logger = logging.getLogger(__name__)

_STRATEGIES = ("fixed-point+newton", "fixed-point", "newton")

# residual must shrink by at least this factor per sweep or we switch to Newton
_STALL_FACTOR = 0.5

# most steps one convergence_errors scan may take, its reference run included;
# the scans in the tests and the benchmark take a few thousand
MAX_SCAN_STEPS = 10**6


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-14
    max_iterations: int = 100
    strategy: str = "fixed-point+newton"

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")


class SolverError(RuntimeError):
    """Implicit solve failed to converge.

    Carries the index of the failed step, counted from 0 in the call that
    took it, its last iterate (a tuple of floats) and its residual.
    """

    def __init__(self, message, iterate=None, residual=None, step_index=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.step_index = step_index


class StepStats(NamedTuple):
    iterations: int
    newton_iterations: int
    residual: float


# ---------------------------------------------------------------------------
# float64 evaluation


def _poly_source(p: MultiPoly, names: Sequence[str]) -> str:
    """p as a Python expression in the variables `names`.

    The sum of its monomials x_j**e_j * ... * coeff in sorted term order;
    "0.0" for the zero polynomial.  float ** int raises OverflowError where
    numpy returns inf.
    """
    terms = []
    for exps, coeff in sorted(p.terms.items()):
        factors = [names[j] if e == 1 else f"{names[j]}**{e}" for j, e in enumerate(exps) if e]
        if coeff != 1 or not factors:
            factors.append(repr(float(coeff)))
        terms.append("*".join(factors))
    return " + ".join(terms) or "0.0"


def _generate(lines: list, name: str, dim: int, nodes: int) -> Callable:
    """Execute generated source and return its function `name`.

    The source sees math.isfinite as isfinite, math.inf as inf, and
    SolverError, StepStats and _newton_update as newton_update.
    """
    namespace: dict = {
        "isfinite": math.isfinite,
        "inf": math.inf,
        "SolverError": SolverError,
        "StepStats": StepStats,
        "newton_update": _newton_update,
    }
    exec("\n".join(lines) + "\n", namespace)
    logger.debug("generated %s: dim %d, %d nodes, %d source lines", name, dim, nodes, len(lines))
    return namespace[name]


def _scalar_function(polys: Sequence[MultiPoly], nv: int) -> Callable:
    """Plain-float evaluator of a tuple of polynomials, one point per call.

    Arrays of a few entries cost more in numpy dispatch than this does in
    arithmetic.
    """
    names = [f"x{j}" for j in range(nv)]
    comps = ", ".join(_poly_source(p, names) for p in polys)
    return _generate([f"def evaluate({', '.join(names)}):", f"    return ({comps},)"], "evaluate", nv, 1)


@lru_cache(maxsize=64)
def _scalar_field(sys: HamiltonianSystem) -> tuple:
    """(f, J_f) as plain-float functions of the state; J_f is flat, row-major."""
    n = sys.dim
    f = sys.vector_field()
    jac = [f[a].partial(b) for a in range(n) for b in range(n)]
    return _scalar_function(f, n), _scalar_function(jac, n)


def _node_sum(n: int, nodes: tuple, updates: list, pad: str) -> list:
    """Lines, indented by pad, that sum over the nodes of the chord at z.

    They set d = z - y, then per node x = y + c_j * d and, for each
    (variable, term) of updates, variable = variable + v_j * (term),
    starting from 0.0.
    """
    lines = [f"{pad}d{k} = z{k} - y{k}" for k in range(n)]
    for j, (cj, _) in enumerate(nodes):
        lines += [f"{pad}x{k} = y{k} + {cj!r} * d{k}" for k in range(n)]
        lines += [f"{pad}{a} = {a if j else '0.0'} + v{j} * ({term})" for a, term in updates]
    return lines


# the loop of a whole run: n_steps steps from the state tuple y, each solved
# on the unknowns z0..z{n-1} with f0..f{n-1} = phi(z)
_RUN_SOURCE = """\
def {name}(phi, final, jacobian):
    def run(y, h, n_steps, cfg, states, stats, scale=1.0):
        max_iterations = cfg.max_iterations
        tol = cfg.tolerance
        use_newton = cfg.strategy == "newton"
        allow_newton = cfg.strategy != "fixed-point"
        matrix = None
{setup}
        for k in range(n_steps):
{start}
            res = prev_res = inf
            it = newton_iterations = 0
            newton = use_newton
            try:
                for it in range(max_iterations + 1):
{phi}
                    if it:
                        if not ({finite}):
                            return "non-finite", k, it, ({z},), None, inf
{largest}
                        res = scale * m
                        if res <= tol:
                            break
                        if newton:
                            if matrix is None:
                                matrix = jacobian()
                            {z}, = newton_update(matrix(y, h, ({z},)), ({z},), ({f},), res)
                            newton_iterations += 1
                            continue
                        if allow_newton and res > {stall!r} * prev_res:
                            newton = True
                        prev_res = res
{advance}
                else:
                    return "exhausted", k, it, ({z},), None, res
            except OverflowError as e:
                return "overflow", k, it, ({z},), e, res
            except SolverError as e:
                return "singular", k, it, e.iterate, e, e.residual
{update}
            states.append(y)
            stats.append(StepStats(it, newton_iterations, res))
    return run"""


def _run_source(name: str, n: int, setup: list, start: list, phi: list, update: list) -> list:
    """Source of name(phi, final, jacobian) -> run, the loop of a whole run on n unknowns.

    run(y, h, n_steps, cfg, states, stats, scale) appends each new state and
    its StepStats; it returns None, or for the first failed step k
    (status, k, it, iterate, detail, residual), status "non-finite",
    "exhausted", "overflow" or "singular" with the OverflowError or the
    SolverError of _newton_update as detail.  Per step, start sets z to the
    start of the step and iteration 0 is the predictor, unchecked.
    Fixed-point sweeps z = phi(z) follow while scale * max|phi(z) - z|
    shrinks by _STALL_FACTOR, then (or from the start for "newton") Newton
    steps with the matrix jacobian()(y, h, z), looked up once per run.
    max|f - z| is spelled out as max() computes it: a later value replaces
    the first only when greater.  At convergence update sets y from
    f = phi(z).  The lines passed in come unindented.
    """
    z, f = (", ".join(f"{a}{k}" for k in range(n)) for a in "zf")
    largest = ["m = abs(f0 - z0)"]
    for k in range(1, n):
        largest += [f"t = abs(f{k} - z{k})", "if t > m:", "    m = t"]

    def block(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    return _RUN_SOURCE.format(
        name=name,
        z=z,
        f=f,
        setup=block(setup, 8),
        start=block(start, 12),
        phi=block(phi, 20),
        finite=" and ".join(f"isfinite(f{k})" for k in range(n)),
        largest=block(largest, 24),
        stall=_STALL_FACTOR,
        advance=block([f"z{k} = f{k}" for k in range(n)], 20),
        update=block(update, 12),
    ).split("\n")


@lru_cache(maxsize=64)
def _chord_run(sys: HamiltonianSystem, nodes: tuple) -> Callable:
    """The run loop (_run_source) of a rank-one step on the chord.

    Every stage is Y_j = y + c_j (z - y), so the s*d stage system collapses
    to the d unknowns of z = phi(z) = y + sum_j (h b_j) f(Y_j), with Newton
    matrix h sum_j b_j c_j J_f(Y_j) - I (_newton_matrix).  Generated once
    per system and float node set, so "avf" and avf_tableau of the same
    rule share it, with phi inlined in the float operations of a loop over
    the nodes: v_j = h * b_j, set once per run, then per node
    x = y + c_j * (z - y) and a = a + v_j * f(x) from a = 0.0; y + a.  The
    state is held in y0..y{n-1}; the new state is phi at the converged
    iterate, as on the stage path.
    """
    n = sys.dim
    x = [f"x{k}" for k in range(n)]
    f = [(f"a{k}", _poly_source(p, x)) for k, p in enumerate(sys.vector_field())]
    phi = _node_sum(n, nodes, f, "") + [f"f{k} = y{k} + a{k}" for k in range(n)]
    setup = [f"{', '.join(f'y{k}' for k in range(n))}, = y"]
    setup += [f"v{j} = h * {bj!r}" for j, (_, bj) in enumerate(nodes)]
    update = [f"z{k} = f{k}" for k in range(n)] + phi + [f"y{k} = f{k}" for k in range(n)]
    update += [f"y = ({', '.join(f'y{k}' for k in range(n))},)"]
    source = _run_source("chord", n, setup, [f"z{k} = y{k}" for k in range(n)], phi, update)
    return _generate(source, "chord", n, len(nodes))(None, None, partial(_newton_matrix, sys, nodes))


@lru_cache(maxsize=64)
def _stage_run(n: int, s: int) -> Callable:
    """stages(phi, final, jacobian) -> run, the run loop (_run_source) on the s*n stage values.

    Generated once per state and stage count; phi(y, h, x) and
    final(y, h, x) are interpreted maps, x a tuple of s*n floats, and
    jacobian() returns the Newton matrix as a function of (y, h, x).
    """
    z, f = (", ".join(f"{a}{k}" for k in range(n * s)) for a in "zf")
    source = _run_source(
        "stages", n * s, [], [f"{z}, = y * {s}"], [f"{f}, = phi(y, h, ({z},))"], [f"y = final(y, h, ({f},))"]
    )
    return _generate(source, "stages", n * s, s)


@lru_cache(maxsize=64)
def _newton_matrix(sys: HamiltonianSystem, nodes: tuple) -> Callable:
    """newton(y, h, z) -> sum_j (h b_j c_j) J_f(y + c_j (z - y)) - I as rows.

    Generated on the first switch to Newton for the system and node set, in
    the operations of a loop over the nodes accumulating (h * b_j * c_j) * J_f
    from 0.0, minus 1.0 on the diagonal.
    """
    n = sys.dim
    x = [f"x{k}" for k in range(n)]
    f = sys.vector_field()
    jac = [(f"m{a}_{b}", _poly_source(f[a].partial(b), x)) for a in range(n) for b in range(n)]
    lines = ["def newton(y, h, z):"] + [f"    {', '.join(f'{a}{k}' for k in range(n))}, = {a}" for a in "yz"]
    lines += [f"    v{j} = h * {bj!r} * {cj!r}" for j, (cj, bj) in enumerate(nodes)]
    lines += _node_sum(n, nodes, jac, "    ")
    rows = (", ".join(f"m{a}_{b}" + " - 1.0" * (a == b) for b in range(n)) for a in range(n))
    lines += [f"    return [{', '.join(f'[{r}]' for r in rows)}]"]
    return _generate(lines, "newton", n, len(nodes))


@lru_cache(maxsize=64)
def _energy(sys: HamiltonianSystem) -> Callable:
    """H as a plain-float function of the state, returning a 1-tuple."""
    return _scalar_function([sys.H], sys.dim)


# ---------------------------------------------------------------------------
# tableaux


@lru_cache(maxsize=64)
def _gauss_rule(s: int) -> QuadRule:
    return quad_rule(s, 0)


@lru_cache(maxsize=64)
def _float_nodes(rule: QuadRule) -> tuple:
    """((c_j, b_j), ...) as floats, converted once per rule."""
    return tuple((float(cj), float(bj)) for cj, bj in zip(rule.c, rule.b))


def avf_tableau(rule: QuadRule) -> ButcherTableau:
    """Rank-one tableau A = c b^T for the given quadrature rule.

    Row sums equal c_i exactly because the weights sum to one.
    """
    with mp.workdps(rule.precision_digits + 10):
        A = [[ci * bj for bj in rule.b] for ci in rule.c]
        return ButcherTableau(A, rule.b, rule.c, rule.precision_digits, rule=rule)


def midpoint_tableau(precision_digits: int = 50) -> ButcherTableau:
    """Implicit midpoint: the one-stage Gauss tableau, used as a control."""
    half = mp.mpf(1) / 2
    return ButcherTableau(
        [[half]], [mp.mpf(1)], [half], precision_digits, rule=_gauss_rule(1)
    )


# ---------------------------------------------------------------------------
# steps


def _newton_update(matrix, x, fx, res) -> list:
    """x - dx with matrix @ dx = fx - x, the Newton iterate, solved by LAPACK.

    numpy is imported here, on the first Newton iteration of the process.
    A singular matrix ends the solve with SolverError at iterate x.
    """
    import numpy as np

    try:
        dx = np.linalg.solve(matrix, list(map(sub, fx, x))).tolist()
    except np.linalg.LinAlgError as e:
        raise SolverError(f"Newton matrix is singular: {e}", iterate=tuple(x), residual=res) from e
    return list(map(sub, x, dx))


def _stage_stepper(sys: HamiltonianSystem, tab: ButcherTableau) -> Callable:
    """Any other tableau: the s*d stage system, stages solved simultaneously."""
    n, s = sys.dim, tab.s
    A = [[float(x) for x in row] for row in tab.A]
    b = [float(x) for x in tab.b]
    f, jac = _scalar_field(sys)

    def at_stages(g, x):
        return [g(*x[j * n : (j + 1) * n]) for j in range(s)]

    def update(y, h, w, vals):
        """y + h * sum_j w_j vals_j, componentwise."""
        return [yk + h * sum(wj * v[k] for wj, v in zip(w, vals)) for k, yk in enumerate(y)]

    def phi(y, h, x):
        fs = at_stages(f, x)
        return [z for row in A for z in update(y, h, row, fs)]

    def newton(y, h, x):
        # row (i, a), column (j, c): h A_ij J_f(Y_j)_ac - delta
        js = at_stages(jac, x)
        return [
            [h * A[i][j] * js[j][a * n + c] - (i == j and a == c) for j in range(s) for c in range(n)]
            for i in range(s)
            for a in range(n)
        ]

    def final(y, h, x):
        return tuple(update(y, h, b, at_stages(f, x)))

    return _stage_run(n, s)(phi, final, lambda: newton)


def _resolve_stepper(sys, method) -> Callable:
    """run(y, h, n_steps, cfg, states, stats) for a method, the loop of _run_source."""
    if isinstance(method, str):
        if method == "avf":
            # Gauss with s nodes integrates the degree deg H - 1 chord exactly
            return _chord_run(sys, _float_nodes(_gauss_rule(max(1, math.ceil(sys.H.degree() / 2)))))
        if method == "midpoint":
            return _resolve_stepper(sys, midpoint_tableau())
        raise ValueError(f"unknown method {method!r}; use 'avf', 'midpoint', or a tableau")
    if isinstance(method, ButcherTableau):
        if method.rule is not None:
            # scale = max|c_j| makes the residual the stage system's max over stages
            scale = max(abs(float(ci)) for ci in method.c)
            return partial(_chord_run(sys, _float_nodes(method.rule)), scale=scale)
        return _stage_stepper(sys, method)
    if isinstance(method, QuadRule):
        raise TypeError("pass avf_tableau(rule), not the rule itself")
    raise TypeError(f"cannot interpret {type(method).__name__} as a method")


def _checked_start(sys: HamiltonianSystem, y, h) -> tuple:
    """(state as a tuple of floats, h as a float), rejecting bad input."""
    if h == 0:
        raise ValueError("step size must be nonzero")
    if not math.isfinite(h):
        raise ValueError("step size must be finite")
    try:
        y = tuple(map(float, y))
    except TypeError:
        raise ValueError(f"state must be a sequence of {sys.dim} numbers") from None
    if len(y) != sys.dim:
        raise ValueError(f"state must have length {sys.dim}")
    if not all(map(math.isfinite, y)):
        raise ValueError("state must be finite")
    return y, float(h)


def _steps(sys, method, y0, h, n_steps, cfg) -> tuple:
    """(h, states, stats) of n_steps steps from y0, h as a float.

    A step k that fails raises SolverError with step_index k and a message
    that starts with "step k: ": an overflowing field, a non-finite
    iterate, a singular Newton matrix or no convergence in
    cfg.max_iterations iterations.
    """
    y, h = _checked_start(sys, y0, h)
    cfg = cfg or SolverConfig()
    states, stats = [y], []
    failure = _resolve_stepper(sys, method)(y, h, n_steps, cfg, states, stats)
    if failure is None:
        return h, states, stats
    status, k, it, x, detail, res = failure
    if status == "overflow":
        message = f"field evaluation overflowed: {detail}"
    elif status == "singular":
        message = str(detail)
    elif status == "non-finite":
        message = f"non-finite iterate at iteration {it}"
    else:
        message = (
            f"no convergence after {cfg.max_iterations} iterations "
            f"(residual {res:.3e}, tolerance {cfg.tolerance:.3e})"
        )
    raise SolverError(f"step {k}: {message}", iterate=x, residual=res, step_index=k) from detail


def avf_step(sys: HamiltonianSystem, y, h: float, cfg: SolverConfig | None = None):
    """One chord-averaged step; exact energy preservation up to solver tolerance.

    Returns the new state as a tuple of floats.  The chord average is taken
    by the Gauss rule of ceil(deg H / 2) nodes, which is exact for it.  For
    quadratic H that is the one-node rule, so this coincides with the
    implicit midpoint step.
    """
    return _steps(sys, "avf", y, h, 1, cfg)[1][-1]


def rk_step(
    sys: HamiltonianSystem,
    tab: ButcherTableau,
    y,
    h: float,
    cfg: SolverConfig | None = None,
):
    """One implicit Runge-Kutta step, as a tuple of floats; rank-one tableaux solve on the chord."""
    return _steps(sys, tab, y, h, 1, cfg)[1][-1]


# ---------------------------------------------------------------------------
# runs


class IntegrationRun:
    """Trajectory record: times, states, per-step solver stats.

    Each state is a tuple of floats, stored as given.  Energies are
    recomputed from the stored states on access, never carried through the
    solve; an H that overflows a float reads inf.
    """

    __slots__ = ("system", "times", "states", "solver_stats")

    def __init__(self, system, times, states, solver_stats):
        if not (len(times) == len(states) == len(solver_stats) + 1):
            raise ValueError("inconsistent run lengths")
        self.system = system
        self.times = tuple(times)
        self.states = tuple(states)
        self.solver_stats = tuple(solver_stats)

    def _energy_list(self) -> list:
        H = _energy(self.system)
        out = []
        for y in self.states:
            try:
                out.append(H(*y)[0])
            except OverflowError:
                out.append(math.inf)
        return out

    @property
    def energies(self):
        """H at every state as a float64 numpy.ndarray; numpy is imported here."""
        import numpy as np

        return np.array(self._energy_list())

    def max_energy_drift(self) -> float:
        e = self._energy_list()
        return max(abs(x - e[0]) for x in e)


def integrate(
    sys: HamiltonianSystem,
    method,
    y0,
    h: float,
    n_steps: int,
    cfg: SolverConfig | None = None,
) -> IntegrationRun:
    """Repeated stepping from y0; method is 'avf', 'midpoint', or a tableau.

    One generated loop takes every step; a failed step k raises SolverError
    with step_index k and a message that starts with "step k: ".
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    h, states, stats = _steps(sys, method, y0, h, n_steps, cfg)
    return IntegrationRun(sys, [0.0] + [(k + 1) * h for k in range(n_steps)], states, stats)


def write_run_csv(run: IntegrationRun, fileobj) -> None:
    """Columns t, y_1..y_2d, H, newton_iters; the initial row has no solve."""
    n = run.system.dim
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"y_{i + 1}" for i in range(n)] + ["H", "newton_iters"])
    energies = run._energy_list()
    for k, (t, y) in enumerate(zip(run.times, run.states)):
        iters = run.solver_stats[k - 1].newton_iterations if k else 0
        writer.writerow([repr(t)] + [repr(v) for v in y] + [repr(energies[k]), iters])


# ---------------------------------------------------------------------------
# convergence measurement


def convergence_errors(
    sys,
    method,
    y0,
    t_end: float,
    h_list: Sequence[float],
    cfg: SolverConfig | None = None,
    ref_factor: int = 20,
):
    """Final-time max-norm errors against a reference run at much smaller h.

    Step counts are rounded so every run lands exactly on t_end; returns a
    list of (effective h, error) pairs.  Every h and t_end must be positive
    and finite, every step count t_end / h and the reference count finite,
    at least 3 effective step sizes distinct, and the scan's total step
    count, reference run included, at most MAX_SCAN_STEPS (ValueError); all
    of this is checked before the first run.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    counts = []
    for h in h_list:
        if not 0 < h < math.inf:
            raise ValueError(f"step sizes must be positive and finite, got {h}")
        q = t_end / h
        if not math.isfinite(q):
            raise ValueError(f"step count t_end / h is not finite for h = {h!r}")
        counts.append(max(1, round(q)))
    pairs = [t_end / n for n in counts]
    if len(set(pairs)) < 3:
        raise ValueError(
            f"need at least 3 distinct step sizes for a slope fit, got {len(set(pairs))}"
        )
    q_ref = t_end / min(pairs)
    if not math.isfinite(ref_factor * q_ref):
        raise ValueError(f"reference step count is not finite for h = {min(pairs)!r}")
    n_ref = ref_factor * max(1, round(q_ref))
    if sum(counts) + n_ref > MAX_SCAN_STEPS:
        raise ValueError(f"the scan, reference run included, takes more than {MAX_SCAN_STEPS} steps")
    cfg = cfg or SolverConfig()
    finals = [integrate(sys, method, y0, h_eff, n, cfg).states[-1] for h_eff, n in zip(pairs, counts)]
    ref = integrate(sys, method, y0, t_end / n_ref, n_ref, cfg).states[-1]
    return [
        (h_eff, max(abs(a - r) for a, r in zip(yf, ref)))
        for h_eff, yf in zip(pairs, finals)
    ]


def convergence_order(
    sys,
    method,
    y0,
    t_end: float,
    h_list: Sequence[float],
    cfg: SolverConfig | None = None,
    ref_factor: int = 20,
) -> float:
    """Least-squares slope of log error versus log h."""
    return log_log_slope(convergence_errors(sys, method, y0, t_end, h_list, cfg, ref_factor))


def log_log_slope(pts) -> float:
    """Least-squares slope of log error versus log h over (h, error) pairs.

    The closed form sum (x - mean x)(y - mean y) / sum (x - mean x)^2; the
    log h must not all be equal (ValueError).
    """
    xs = [math.log(h) for h, _ in pts]
    ys = [math.log(max(err, 1e-300)) for _, err in pts]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least 2 distinct step sizes for a slope")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
