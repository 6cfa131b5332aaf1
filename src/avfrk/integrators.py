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
generated loop takes every step of a run, for both phases and both paths:
the iterate and the state stay in local floats, and the predictor, the
finite check, the residual, the stops, the switch to Newton, the Newton
steps and the update run inline.  The map and the update are straight-line
source, per system and float node set on the chord (z -> y + sum_j h b_j
f(y + c_j (z - y))), per system and float tableau on the stage path
(stage i -> y + h sum_j A_ij f(stage j)).  The Newton step, its matrix and
its solve, is generated the first time a run switches to Newton.

Every Newton step solves its linear system by Gaussian elimination with
partial pivoting, straight-line source per unknown count from one
generator (_elimination_lines).  Stepping imports no array library:
IntegrationRun.energies, which returns an array, is the one place that
does.  Nor does it import the tree module: a rank-one method steps on
its rule's correctly rounded QuadRule.float_nodes, and avf_tableau and
midpoint_tableau return tableaux whose exact entries are formed only when
read.  Any other tableau steps on its exact entries rounded to floats; an
entry beyond the float range is an infinite coefficient.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .hamiltonian import HamiltonianSystem, MultiPoly
from .quadrature import QuadRule, quad_rule

if TYPE_CHECKING:
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

# the reference run of a convergence scan takes REF_FACTOR times the steps of its finest h
REF_FACTOR = 20


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
    an array power returns inf.
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

    The source sees math.isfinite as isfinite, math.inf as inf and math.nan
    as nan (the reprs of non-finite literals), SolverError and StepStats.
    """
    namespace = dict(isfinite=math.isfinite, inf=math.inf, nan=math.nan)
    namespace.update(SolverError=SolverError, StepStats=StepStats)
    exec("\n".join(lines) + "\n", namespace)
    logger.debug("generated %s: dim %d, %d nodes, %d source lines", name, dim, nodes, len(lines))
    return namespace[name]


def _scalar_function(polys: Sequence[MultiPoly], nv: int) -> Callable:
    """Plain-float evaluator of a tuple of polynomials, one point per call.

    Arrays of a few entries cost more in dispatch than this does in
    arithmetic.
    """
    names = [f"x{j}" for j in range(nv)]
    comps = ", ".join(_poly_source(p, names) for p in polys)
    return _generate([f"def evaluate({', '.join(names)}):", f"    return ({comps},)"], "evaluate", nv, 1)


def _node_sum(n: int, nodes: tuple, updates: list) -> list:
    """Lines that sum over the nodes of the chord at z.

    They set d = z - y, then per node x = y + c_j * d and, for each
    (variable, term) of updates, variable = variable + v_j * (term),
    starting from 0.0.
    """
    lines = [f"d{k} = z{k} - y{k}" for k in range(n)]
    for j, (cj, _) in enumerate(nodes):
        lines += [f"x{k} = y{k} + {cj!r} * d{k}" for k in range(n)]
        lines += [f"{a} = {a if j else '0.0'} + v{j} * ({term})" for a, term in updates]
    return lines


# the loop of a whole run: n_steps steps from the state tuple y, each solved
# on the unknowns z0..z{n-1} with f0..f{n-1} the inlined map at z
_RUN_SOURCE = """\
def {name}(newton_step):
    def run(y, h, n_steps, cfg, states, stats, scale=1.0):
        max_iterations = cfg.max_iterations
        tol = cfg.tolerance
        use_newton = cfg.strategy == "newton"
        allow_newton = cfg.strategy != "fixed-point"
        step = None
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
                            if step is None:
                                step = newton_step()
                            {z}, = step(y, h, ({z},), ({f},), res)
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


def _run_source(name: str, n: int, d: int, setup: list, phi: list, update: list) -> list:
    """Source of name(newton_step) -> run, the loop of a whole run on n unknowns.

    run(y, h, n_steps, cfg, states, stats, scale) appends each new state and
    its StepStats; it returns None, or for the first failed step k
    (status, k, it, iterate, detail, residual), status "non-finite",
    "exhausted", "overflow" or "singular" with the OverflowError or the
    SolverError of a singular Newton matrix as detail.  The state is held
    in y0..y{d-1}, unpacked from y before setup, which runs once per run.
    Each step sets z{j*d+k} = y{k} for the n / d copies of the state;
    phi sets f to the map at z, and iteration 0 is the predictor, unchecked.
    Fixed-point sweeps z = phi(z) follow while scale * max|phi(z) - z|
    shrinks by _STALL_FACTOR, then (or from the start for "newton") Newton
    steps z = newton_step()(y, h, z, f, res), the step looked up once per
    run.
    max|f - z| is spelled out as max() computes it: a later value replaces
    the first only when greater.  At convergence update sets y0..y{d-1}
    from f = phi(z), and y is packed from them.  The lines passed in come
    unindented.
    """
    z, f = (", ".join(f"{a}{k}" for k in range(n)) for a in "zf")
    ys = ", ".join(f"y{k}" for k in range(d))
    largest = ["m = abs(f0 - z0)"]
    for k in range(1, n):
        largest += [f"t = abs(f{k} - z{k})", "if t > m:", "    m = t"]

    def block(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    return _RUN_SOURCE.format(
        name=name,
        z=z,
        f=f,
        setup=block([f"{ys}, = y"] + setup, 8),
        start=block([f"z{j * d + k} = y{k}" for j in range(n // d) for k in range(d)], 12),
        phi=block(phi, 20),
        finite=" and ".join(f"isfinite(f{k})" for k in range(n)),
        largest=block(largest, 24),
        stall=_STALL_FACTOR,
        advance=block([f"z{k} = f{k}" for k in range(n)], 20),
        update=block(update + [f"y = ({ys},)"], 12),
    ).split("\n")


@lru_cache(maxsize=64)
def _chord_run(sys: HamiltonianSystem, nodes: tuple) -> Callable:
    """The run loop (_run_source) of a rank-one step on the chord.

    Every stage is Y_j = y + c_j (z - y), so the s*d stage system collapses
    to the d unknowns of z = phi(z) = y + sum_j (h b_j) f(Y_j), with Newton
    matrix h sum_j b_j c_j J_f(Y_j) - I (_chord_newton).  Generated once
    per system and float node set, so "avf" and avf_tableau of the same
    rule share it, with phi inlined in the float operations of a loop over
    the nodes: v_j = h * b_j, set once per run, then per node
    x = y + c_j * (z - y) and a = a + v_j * f(x) from a = 0.0; y + a.  The
    new state is phi at the converged iterate, as on the stage path.
    """
    n = sys.dim
    x = [f"x{k}" for k in range(n)]
    f = [(f"a{k}", _poly_source(p, x)) for k, p in enumerate(sys.vector_field())]
    phi = _node_sum(n, nodes, f) + [f"f{k} = y{k} + a{k}" for k in range(n)]
    setup = [f"v{j} = h * {bj!r}" for j, (_, bj) in enumerate(nodes)]
    update = [f"z{k} = f{k}" for k in range(n)] + phi + [f"y{k} = f{k}" for k in range(n)]
    source = _run_source("chord", n, n, setup, phi, update)
    return _generate(source, "chord", n, len(nodes))(partial(_chord_newton, sys, nodes))


def _at_stages(polys: Sequence[MultiPoly], n: int, s: int, src: str) -> list:
    """Lines g{j}_{k} = polys[k](stage j) for j < s, stage j being src{j*n}..src{j*n+n-1}."""
    names = lambda j: [f"{src}{j * n + c}" for c in range(n)]
    return [f"g{j}_{k} = {_poly_source(p, names(j))}" for j in range(s) for k, p in enumerate(polys)]


def _stage_sum(f: Sequence[MultiPoly], rows: Sequence[tuple], src: str, dst: str) -> list:
    """Lines that set dst{i*n+k} = y_k + h * (0 + w_i0 * f_k(stage 0) + w_i1 * f_k(stage 1) + ...).

    f is evaluated at every stage (_at_stages) before the sums, one per row
    w_i of rows and component k.  Each sum starts from the integer 0, as
    sum() does, so a first term -0.0 adds up to 0.0.
    """
    n = len(f)
    lines = _at_stages(f, n, len(rows[0]), src)
    for i, row in enumerate(rows):
        for k in range(n):
            terms = "".join(f" + {w!r} * g{j}_{k}" for j, w in enumerate(row))
            lines.append(f"{dst}{i * n + k} = y{k} + h * (0{terms})")
    return lines


def _hex(values) -> tuple:
    """The exact values rounded to floats, as float.hex strings (the stage loop's cache key)."""
    return tuple(_float(x).hex() for x in values)


def _float(x) -> float:
    """x rounded to a float; beyond the float range, the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _floats(hexes) -> list:
    return [float.fromhex(x) for x in hexes]


@lru_cache(maxsize=64)
def _stage_run(sys: HamiltonianSystem, A: tuple, b: tuple) -> Callable:
    """The run loop (_run_source) of any other tableau, on its s*n stage values.

    Stage j is z{j*n}..z{j*n+n-1}, started at y; the map sets stage i to
    y + h sum_j A_ij f(stage j) and the update sets y to y + h sum_j b_j
    f(stage j) at the converged stages (_stage_sum).  The rows of A and b
    come as float.hex strings (_hex): generated once per system and
    coefficient bits, with the Newton step of _stage_newton.
    """
    n, s, f = sys.dim, len(b), sys.vector_field()
    rows = [_floats(row) for row in A]
    source = _run_source("stages", n * s, n, [], _stage_sum(f, rows, "z", "f"), _stage_sum(f, [_floats(b)], "f", "y"))
    return _generate(source, "stages", n * s, s)(partial(_stage_newton, sys, A))


def _elimination_lines(n: int) -> list:
    """Lines that return z - dx, with a @ dx = f - z, from the locals a{i}_{j}, z{k}, f{k}, res.

    Straight-line Gaussian elimination with partial pivoting on r = f - z:
    column k pivots on the first row i >= k with the largest |a_ik|
    (LAPACK's tie rule), swapped into row k; each row i below it takes
    l = a_ik / a_kk, a_ij = a_ij - l * a_kj for j > k and r_i = r_i - l * r_k.
    Back-substitution sets r_k = (r_k - a_k,k+1 * r_k+1 - ...) / a_kk from the
    last row up, and dx = r.  An exactly zero pivot raises SolverError
    "Newton matrix is singular: zero pivot in column k" at iterate z.
    """
    z = ", ".join(f"z{k}" for k in range(n))
    lines = [f"r{k} = f{k} - z{k}" for k in range(n)]
    for k in range(n):
        row = lambda i: ", ".join([f"a{i}_{j}" for j in range(k, n)] + [f"r{i}"])
        lines += [f"m = abs(a{k}_{k})", f"p = {k}"] if k < n - 1 else []
        for i in range(k + 1, n):
            lines += [f"t = abs(a{i}_{k})", "if t > m:", "    m = t", f"    p = {i}"]
        for i in range(k + 1, n):
            swap = f"{row(k)}, {row(i)} = {row(i)}, {row(k)}"
            lines += [f"{'el' * (i > k + 1)}if p == {i}:", f"    {swap}"]
        message = f"Newton matrix is singular: zero pivot in column {k}"
        lines += [f"if not a{k}_{k}:", f"    raise SolverError({message!r}, iterate=({z},), residual=res)"]
        for i in range(k + 1, n):
            lines += [f"l = a{i}_{k} / a{k}_{k}", f"r{i} = r{i} - l * r{k}"]
            lines += [f"a{i}_{j} = a{i}_{j} - l * a{k}_{j}" for j in range(k + 1, n)]
    for k in reversed(range(n)):
        terms = "".join(f" - a{k}_{j} * r{j}" for j in range(k + 1, n))
        lines += [f"r{k} = (r{k}{terms}) / a{k}_{k}"]
    return lines + [f"return ({', '.join(f'z{k} - r{k}' for k in range(n))},)"]


@lru_cache(maxsize=64)
def _chord_newton(sys: HamiltonianSystem, nodes: tuple) -> Callable:
    """newton(y, h, z, f, res) -> z - dx, (sum_j (h b_j c_j) J_f(y + c_j (z - y)) - I) dx = f - z.

    Generated on the first switch to Newton for the system and node set: the
    matrix in the operations of a loop over the nodes accumulating
    (h * b_j * c_j) * J_f from 0.0, minus 1.0 on the diagonal, then the
    elimination of _elimination_lines.
    """
    n = sys.dim
    x = [f"x{k}" for k in range(n)]
    f = sys.vector_field()
    jac = [(f"a{a}_{b}", _poly_source(f[a].partial(b), x)) for a in range(n) for b in range(n)]
    lines = [f"{', '.join(f'{a}{k}' for k in range(n))}, = {a}" for a in "yzf"]
    lines += [f"v{j} = h * {bj!r} * {cj!r}" for j, (cj, bj) in enumerate(nodes)]
    lines += _node_sum(n, nodes, jac) + [f"a{k}_{k} = a{k}_{k} - 1.0" for k in range(n)]
    lines = ["def newton(y, h, z, f, res):"] + ["    " + line for line in lines + _elimination_lines(n)]
    return _generate(lines, "newton", n, len(nodes))


@lru_cache(maxsize=64)
def _stage_newton(sys: HamiltonianSystem, A: tuple) -> Callable:
    """newton(y, h, z, f, res) -> z - dx, with M dx = f - z on the stage values.

    Entry (i*n + a, j*n + c) of M is (h * A_ij) * J_f(stage j)_ac, minus 1.0
    on the diagonal.  Generated on the first switch to Newton for the system
    and stage matrix, its rows as float.hex strings (_hex): J_f at every
    stage (_at_stages), the entries, then the elimination of _elimination_lines.
    """
    n, s, f, A = sys.dim, len(A), sys.vector_field(), [_floats(row) for row in A]
    lines = [f"{', '.join(f'{a}{k}' for k in range(n * s))}, = {a}" for a in "zf"]
    lines += _at_stages([f[a].partial(c) for a in range(n) for c in range(n)], n, s, "z")
    lines += [
        f"a{i * n + a}_{j * n + c} = h * {w!r} * g{j}_{a * n + c}" + " - 1.0" * ((i, a) == (j, c))
        for i, row in enumerate(A)
        for a in range(n)
        for j, w in enumerate(row)
        for c in range(n)
    ]
    lines = ["def newton(y, h, z, f, res):"] + ["    " + line for line in lines + _elimination_lines(n * s)]
    return _generate(lines, "newton", n * s, s)


@lru_cache(maxsize=64)
def _energy(sys: HamiltonianSystem) -> Callable:
    """H as a plain-float function of the state, returning a 1-tuple."""
    return _scalar_function([sys.H], sys.dim)


# ---------------------------------------------------------------------------
# tableaux


@lru_cache(maxsize=64)
def _gauss_rule(s: int) -> QuadRule:
    return quad_rule(s, 0)


def avf_tableau(rule: QuadRule) -> ButcherTableau:
    """Rank-one tableau A = c b^T for the given quadrature rule.

    Row i sums to c_i times the sum of the weights, which is 1 up to their
    rounding.  The exact entries are formed on first access
    (ButcherTableau.rank_one).
    """
    from .trees import ButcherTableau

    return ButcherTableau.rank_one(rule)


def midpoint_tableau() -> ButcherTableau:
    """Implicit midpoint: the one-stage Gauss tableau (c = 1/2, b = 1), used as a control."""
    from .trees import ButcherTableau

    return ButcherTableau.rank_one(_gauss_rule(1))


# ---------------------------------------------------------------------------
# steps


def _resolve_stepper(sys, method) -> Callable:
    """run(y, h, n_steps, cfg, states, stats) for a method, the loop of _run_source."""
    if isinstance(method, str):
        if method == "avf":
            # Gauss with s nodes integrates the degree deg H - 1 chord exactly
            return _chord_run(sys, _gauss_rule(max(1, math.ceil(sys.H.degree() / 2))).float_nodes)
        if method == "midpoint":
            return _resolve_stepper(sys, midpoint_tableau())
        raise ValueError(f"unknown method {method!r}; use 'avf', 'midpoint', or a tableau")
    from .trees import ButcherTableau

    if isinstance(method, ButcherTableau):
        if method.rule is not None:
            nodes = method.rule.float_nodes
            # scale = max|c_j| makes the residual the stage system's max over stages
            return partial(_chord_run(sys, nodes), scale=max(abs(cj) for cj, _ in nodes))
        return _stage_run(sys, tuple(map(_hex, method.A)), _hex(method.b))
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
):
    """Final-time max-norm errors against a reference run at REF_FACTOR times smaller h.

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
    if not math.isfinite(REF_FACTOR * q_ref):
        raise ValueError(f"reference step count is not finite for h = {min(pairs)!r}")
    n_ref = REF_FACTOR * max(1, round(q_ref))
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
) -> float:
    """Least-squares slope of log error versus log h."""
    return log_log_slope(convergence_errors(sys, method, y0, t_end, h_list, cfg))


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
