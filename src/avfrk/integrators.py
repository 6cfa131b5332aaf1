"""Time stepping for polynomial Hamiltonian systems.

The chord-averaged step

    y' = y + h * integral_0^1 f((1-xi) y + xi y') dxi

and every rank-one Runge-Kutta step A = c b^T are one computation: the
stages lie on the chord, Y_j = y + c_j (y' - y), so the s*d stage system
reduces to the d unknowns of y' = y + h sum_j b_j f(Y_j).  The averaged
step is that reduction with the Gauss rule of ceil(deg H / 2) nodes, which
integrates the chord average exactly.

One generator steps every tableau, written as a layout A = L R^T on r
blocks of d unknowns z_l = y + h sum_j R_jl f(Y_j), stage j being
Y_j = y + sum_l L_jl (z_l - y).  A rule's tableau is L = c, R = b: r = 1,
the chord.  A tableau without a rank-one rule (a user tableau, explicit
Euler) is L = I, R = A^T: r = s, stage j is block j, the full stage
system.  Every sum over the stages runs left to right from 0.0, its
weights h R_jl and h b_j set once per run.

Implicit solves run fixed-point sweeps first and fall back to Newton with
the exact polynomial Jacobian when the residual reduction stalls.  All
stepping is float64, in plain Python floats through code generated from
the exact polynomials, and every state is a tuple of floats.  One
generated loop takes every step of a run, for both phases and every
layout: the iterate and the state stay in local floats, and the
predictor, the finite check, the residual, the stops, the switch to
Newton, the Newton steps and the update run inline.  The map and the
update are straight-line source, per system and float layout.  The Newton
step, its matrix and its solve, is generated the first time a run
switches to Newton.

Every generated polynomial forms its powers by multiplication: each stage
sets q{k}_2 = x_k * x_k, q{k}_e = q{k}_(e-1) * x_k once, for every power
its polynomials need, and no source calls pow.  Float products never
raise; they overflow to inf.  So the loop checks every map value, the
predictor's included, and fails with a non-finite field value where the
iterate is finite and a non-finite iterate where it is not; a converged
step whose updated state is not finite fails too, at its own index.

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
    """p as a Python expression in the variables `names` and their powers.

    The sum of its monomials x_j * q{j}_e * ... * coeff in sorted term order,
    a power e >= 2 of names[j] read from q{j}_e (_power_lines) and a
    coefficient -1 written as a negation, which rounds the same;
    "0.0" for the zero polynomial.
    """
    terms = []
    for exps, coeff in sorted(p.terms.items()):
        factors = [names[j] if e == 1 else f"q{j}_{e}" for j, e in enumerate(exps) if e]
        if coeff == -1 and factors:
            factors[0] = "-" + factors[0]
        elif coeff != 1 or not factors:
            factors.append(repr(float(coeff)))
        terms.append("*".join(factors))
    return " + ".join(terms) or "0.0"


def _power_lines(polys: Sequence[MultiPoly], names: Sequence[str]) -> list:
    """Lines that set q{j}_e to names[j]**e for every power e >= 2 that polys need, by multiplication.

    One chain per variable, q{j}_2 = x * x and q{j}_e = q{j}_(e-1) * x up to
    its largest exponent in polys: every power is formed once.
    """
    lines = []
    for j, x in enumerate(names):
        top = max((exps[j] for p in polys for exps in p.terms), default=0)
        lines += [f"q{j}_{e} = {f'q{j}_{e - 1}' if e > 2 else x} * {x}" for e in range(2, top + 1)]
    return lines


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
    body = _power_lines(polys, names) + [f"return ({', '.join(_poly_source(p, names) for p in polys)},)"]
    return _generate([f"def evaluate({', '.join(names)}):"] + ["    " + line for line in body], "evaluate", nv, 1)


def _stage_sums(polys: Sequence[MultiPoly], L, n: int, s: int, src: str, targets: Callable) -> list:
    """Lines that add up weighted values of polys at the s stages, stage by stage.

    Stage j is block j of src{..} for the identity layout (L None), else
    x = y + L_j0 * d_0 + L_j1 * d_1 + ... with the blocks d_l = src_l - y set
    first; the powers of stage j are formed once (_power_lines) before its
    values.  targets(j) lists the (weight, accumulators) stage j adds to:
    accumulators[p] = accumulators[p] + weight * polys[p](stage j), the first
    term added to 0.0.  A value that more than one target adds is evaluated
    once, into g{p}.
    """
    r = len(L[0]) if L else 0
    lines, started = [f"d{l * n + k} = {src}{l * n + k} - y{k}" for l in range(r) for k in range(n)], set()
    for j in range(s):
        if L:
            lines += [f"x{k} = y{k}" + "".join(f" + {w!r} * d{l * n + k}" for l, w in enumerate(L[j])) for k in range(n)]
        names = [f"x{k}" if L else f"{src}{j * n + k}" for k in range(n)]
        lines += _power_lines(polys, names)
        values, adds = [f"({_poly_source(p, names)})" for p in polys], targets(j)
        if len(adds) > 1:
            lines += [f"g{p} = {v}" for p, v in enumerate(values)]
            values = [f"g{p}" for p in range(len(polys))]
        for w, accumulators in adds:
            for a, v in zip(accumulators, values):
                lines.append(f"{a} = {a if a in started else '0.0'} + {w} * {v}")
                started.add(a)
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
                    if not ({finite}):
                        return "non-finite", k, it, ({z},), None, inf
                    if it:
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
            except SolverError as e:
                return "singular", k, it, e.iterate, e, e.residual
{update}
            if not ({state_finite}):
                return "non-finite state", k, it, ({f},), None, res
            y = ({ys},)
            states.append(y)
            stats.append(StepStats(it, newton_iterations, res))
    return run"""


def _run_source(name: str, n: int, d: int, setup: list, phi: list, update: list) -> list:
    """Source of name(newton_step) -> run, the loop of a whole run on n unknowns.

    run(y, h, n_steps, cfg, states, stats, scale) appends each new state and
    its StepStats; it returns None, or for the first failed step k
    (status, k, it, iterate, detail, residual), status "non-finite" (a map
    value at the iterate), "exhausted", "singular" with the SolverError of
    a singular Newton matrix as detail, or "non-finite state" (the update,
    with the converged iterate f).  The state is held in y0..y{d-1},
    unpacked from y before setup, which runs once per run.  Each step sets
    z{j*d+k} = y{k} for the n / d copies of the state; phi sets f to the
    map at z, every value of which must be finite, and iteration 0 is the
    predictor.  Fixed-point sweeps z = phi(z) follow while scale * max|phi(z) - z|
    shrinks by _STALL_FACTOR, then (or from the start for "newton") Newton
    steps z = newton_step()(y, h, z, f, res), the step looked up once per
    run.
    max|f - z| is spelled out as max() computes it: a later value replaces
    the first only when greater.  At convergence update sets y0..y{d-1}
    from f = phi(z), and y is packed from them once they are all finite.
    The lines passed in come unindented.
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
        update=block(update, 12),
        state_finite=" and ".join(f"isfinite(y{k})" for k in range(d)),
        ys=ys,
    ).split("\n")


def _hex(values) -> tuple:
    """The exact values rounded to floats, as float.hex strings (the run loop's cache key)."""
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
def _run(sys: HamiltonianSystem, L, R: tuple, b: tuple) -> Callable:
    """The run loop (_run_source) of the layout A = L R^T, on r blocks of d unknowns.

    Block l is z_l = y + h sum_j R_jl f(Y_j), with stage j
    Y_j = y + sum_l L_jl (z_l - y).  A rule's rank-one tableau is L = c,
    R = b: the chord, one block of d unknowns for the endpoint.  Any other
    tableau is the identity layout, L None and R = A^T: stage j is block j
    itself, not y + 1.0 * (z_j - y), which rounds; the one-node rule at
    c = 1 has L = I and steps on the chord.  L, R (s rows of r entries) and b come as float.hex strings (_hex), so the
    loop is generated once per system and coefficient bits, and "avf" and
    avf_tableau of one rule share it.  The weights v_jl = h * R_jl and
    w_j = h * b_j are set once per run; the map sums v_jl * f(Y_j) over the
    stages from 0.0 into block l and adds y (_stage_sums).  The new state is
    y plus the same sum with the w_j at f = phi(z) of the converged iterate.
    Newton steps are those of _newton.
    """
    n, s, r, f = sys.dim, len(R), len(R[0]), sys.vector_field()
    Lf = L and [_floats(row) for row in L]
    setup = [f"v{j}_{l} = h * {w!r}" for j, row in enumerate(R) for l, w in enumerate(_floats(row))]
    setup += [f"w{j} = h * {w!r}" for j, w in enumerate(_floats(b))]
    blocks = lambda l: [f"a{l * n + k}" for k in range(n)]
    phi = _stage_sums(f, Lf, n, s, "z", lambda j: [(f"v{j}_{l}", blocks(l)) for l in range(r)])
    phi += [f"f{l * n + k} = y{k} + a{l * n + k}" for l in range(r) for k in range(n)]
    update = _stage_sums(f, Lf, n, s, "f", lambda j: [(f"w{j}", blocks(0))])
    update += [f"y{k} = y{k} + a{k}" for k in range(n)]
    name = "chord" if L else "stages"
    source = _run_source(name, r * n, n, setup, phi, update)
    return _generate(source, name, r * n, s)(partial(_newton, sys, L, R))


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
def _newton(sys: HamiltonianSystem, L, R: tuple) -> Callable:
    """newton(y, h, z, f, res) -> z - dx, with (M - I) dx = f - z on the unknowns of _run's layout.

    Entry ((l, k), (m, c)) of M is sum_j (h R_jl L_jm) J_f(Y_j)_kc over the
    stages, from 0.0; in the identity layout only stage j = m adds to it.
    Generated on the first switch to Newton for the system and layout: the
    weights, J_f at the stages (_stage_sums), minus 1.0 on the diagonal, then
    the elimination of _elimination_lines.
    """
    n, s, r, f = sys.dim, len(R), len(R[0]), sys.vector_field()
    L, R = L and [_floats(row) for row in L], [_floats(row) for row in R]
    jac = [f[k].partial(c) for k in range(n) for c in range(n)]
    terms = lambda j: [(l, m) for l in range(r) for m in (range(r) if L else (j,))]  # the (l, m) stage j adds to
    lines = [f"{', '.join(f'{a}{k}' for k in range(m))}, = {a}" for a, m in (("y", n), ("z", r * n), ("f", r * n))]
    for j in range(s):
        lines += [f"u{j}_{l}_{m} = h * {R[j][l]!r}" + (f" * {L[j][m]!r}" if L else "") for l, m in terms(j)]
    entries = lambda l, m: [f"a{l * n + k}_{m * n + c}" for k in range(n) for c in range(n)]
    lines += _stage_sums(jac, L, n, s, "z", lambda j: [(f"u{j}_{l}_{m}", entries(l, m)) for l, m in terms(j)])
    lines += [f"a{i}_{i} = a{i}_{i} - 1.0" for i in range(r * n)]
    lines = ["def newton(y, h, z, f, res):"] + ["    " + line for line in lines + _elimination_lines(r * n)]
    return _generate(lines, "newton", r * n, s)


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


def _rule_layout(nodes) -> tuple:
    """(L, R, b) for _run of a rule's float nodes: the chord, L = c and R = b."""
    c, b = _hex(c for c, _ in nodes), _hex(b for _, b in nodes)
    return tuple((x,) for x in c), tuple((x,) for x in b), b


def _resolve_stepper(sys, method) -> Callable:
    """run(y, h, n_steps, cfg, states, stats) for a method, the loop of _run_source."""
    if isinstance(method, str):
        if method == "avf":
            # Gauss with s nodes integrates the degree deg H - 1 chord exactly
            return _run(sys, *_rule_layout(_gauss_rule(max(1, math.ceil(sys.H.degree() / 2))).float_nodes))
        if method == "midpoint":
            return _resolve_stepper(sys, midpoint_tableau())
        raise ValueError(f"unknown method {method!r}; use 'avf', 'midpoint', or a tableau")
    from .trees import ButcherTableau

    if isinstance(method, ButcherTableau):
        if method.rule is not None:
            nodes = method.rule.float_nodes
            # scale = max|c_j| makes the residual the stage system's max over stages
            return partial(_run(sys, *_rule_layout(nodes)), scale=max(abs(cj) for cj, _ in nodes))
        return _run(sys, None, tuple(zip(*map(_hex, method.A))), _hex(method.b))
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
    that starts with "step k: ": a non-finite field value at a finite
    iterate, a non-finite iterate, a singular Newton matrix, no convergence
    in cfg.max_iterations iterations, or a non-finite state after the
    update of a converged step.
    """
    y, h = _checked_start(sys, y0, h)
    cfg = cfg or SolverConfig()
    states, stats = [y], []
    failure = _resolve_stepper(sys, method)(y, h, n_steps, cfg, states, stats)
    if failure is None:
        return h, states, stats
    status, k, it, x, detail, res = failure
    if status == "singular":
        message = str(detail)
    elif status == "non-finite":
        message = f"non-finite {'field value' if all(map(math.isfinite, x)) else 'iterate'} at iteration {it}"
    elif status == "non-finite state":
        message = "non-finite state after the update"
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
    solve; an H that is not finite in float64 reads inf.
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
        return [e if math.isfinite(e) else math.inf for e in (H(*y)[0] for y in self.states)]

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
