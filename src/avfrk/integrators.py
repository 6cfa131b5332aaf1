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

The default strategy solves each step by simplified Newton (Hairer and
Wanner, Solving ODEs II, IV.8): z <- z + M^-1 (phi(z) - z) with the
step-start matrix M = I - W (x) J_f(y), W_lm = h sum_j R_jl L_jm set once
per run (h sum_j b_j c_j on the chord).  At the state y every stage sits
at the predictor, so f and J_f are evaluated there once; M is formed and
factored once per step, and the predictor is its first move.  A move
contracts the residual by about as much as J_f changes across the step,
not by h |J_f| as a plain sweep z <- phi(z) does.  Each move is judged
by its observed rate theta = res / prev_res of the residual
res = scale * max|phi(z) - z|: unless two more moves at that rate would
reach the tolerance, res * theta * theta <= tol, the step switches to
full Newton, which re-forms the matrix at each iterate from the exact
polynomial Jacobian at the stages.  The "fixed-point" strategy moves by
plain sweeps and never switches; "newton" takes full Newton steps from
the first iteration after the predictor.  StepStats.iterations counts the
map evaluations after the predictor, StepStats.newton_iterations the
iterations that re-formed the matrix at the iterate.

A Newton or fixed-point move depends on the iterate alone, so an iterate
that repeats exactly repeats for good, and every residual after it was
already above the tolerance.  Each step keeps one checkpoint iterate,
saved on Brent's schedule (at the first such move and whenever the
iteration count reaches twice the one it was saved at), and fails at the
first iterate equal to it: SolverError reason "cycle", with the period.
A step that neither converges nor repeats runs cfg.max_iterations
iterations, reason "max-iterations".  A converging step never repeats,
so the checkpoint changes no state and no StepStats.

The new state is y + h sum_j b_j f(Y_j) at the stages of the iterate that
passed the stop, so a converged step evaluates nothing more: on the chord
that sum is phi(z) itself, the map value the stop just read, and with
L = I the map's stage pass adds it beside the blocks.

All stepping is float64, in plain Python floats through code generated
from the exact polynomials, and every state is a tuple of floats.  One
generated loop takes every step of a run, for every strategy and layout:
the iterate and the state stay in local floats, and the predictor, both
matrices, their one factorization and solve, the finite check, the
residual, the stops, the switch to Newton, the moves and the update run
inline, as straight-line source per system and float layout.  A Newton
matrix reads the stage coordinates and powers of the map's pass at its
iterate, each stage under its own names: nothing is evaluated twice.

Every generated polynomial forms its powers by multiplication: stage j
sets q{j}_k_2 = x_k * x_k, q{j}_k_e = q{j}_k_(e-1) * x_k once, for every
power its polynomials need, and no source calls pow.  Float products never
raise; they overflow to inf.  So the loop checks every map value, the
predictor's included, and fails with a non-finite field value where the
iterate is finite and a non-finite iterate where it is not.  With L = I a
converged step whose updated state is not finite fails too, at its own
index; on the chord the state is a map value, finite already.

Every matrix is factored by Gaussian elimination with partial pivoting,
and every solve reuses its factors: straight-line source per unknown
count from two generators (_factor_lines, _solve_lines).  A zero pivot fails the step as a singular Newton matrix, in the
step-start matrix before the predictor moves.  Stepping imports no array
library: IntegrationRun.energies, which returns an array, is the one place
that does.  Nor does it import the tree module: a rank-one method steps
on its rule's correctly rounded QuadRule.float_nodes, and avf_tableau and
midpoint_tableau return tableaux whose exact entries are formed only when
read.  Any other tableau steps on its exact entries rounded to floats; an
entry beyond the float range is an infinite coefficient.
"""

from __future__ import annotations

import csv
import logging
import math
from fractions import Fraction
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

# most steps one convergence_errors scan may take, its reference run included;
# the scans in the tests and the benchmark take a few thousand
MAX_SCAN_STEPS = 10**6

# the reference run of a convergence scan takes REF_FACTOR times the steps of its finest h
REF_FACTOR = 20


class SolverConfig:
    """Immutable solver settings, equal and hashed by (tolerance, max_iterations, strategy)."""

    __slots__ = ("tolerance", "max_iterations", "strategy")

    def __init__(self, tolerance: float = 1e-14, max_iterations: int = 100, strategy: str = "fixed-point+newton"):
        if not tolerance > 0:
            raise ValueError("tolerance must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        for name, value in zip(self.__slots__, (tolerance, max_iterations, strategy)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("SolverConfig is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.tolerance, self.max_iterations, self.strategy

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is SolverConfig else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SolverConfig(tolerance={!r}, max_iterations={!r}, strategy={!r})".format(*self._key())


class SolverError(RuntimeError):
    """Implicit solve failed to converge.

    Carries the index of the failed step, counted from 0 in the call that
    took it, its last iterate (a tuple of floats), its residual, the reason
    ("cycle", "max-iterations", "singular", "non-finite value", "non-finite
    iterate" or "non-finite state") and, for a cycle, the period with which
    the iterate repeats (None otherwise).
    """

    def __init__(self, message, iterate=None, residual=None, step_index=None, reason=None, period=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.step_index = step_index
        self.reason = reason
        self.period = period


class StepStats(NamedTuple):
    iterations: int
    newton_iterations: int
    residual: float


# ---------------------------------------------------------------------------
# float64 evaluation


def _poly_source(p: MultiPoly, names: Sequence[str], q: str = "q") -> str:
    """p as a Python expression in the variables `names` and their powers.

    The sum of its monomials x_j * q{j}_e * ... * coeff in sorted term order,
    a power e >= 2 of names[j] read from {q}{j}_e (_power_lines) and a
    coefficient -1 written as a negation, which rounds the same;
    "0.0" for the zero polynomial.
    """
    terms = []
    for exps, coeff in sorted(p.terms.items()):
        factors = [names[j] if e == 1 else f"{q}{j}_{e}" for j, e in enumerate(exps) if e]
        if coeff == -1 and factors:
            factors[0] = "-" + factors[0]
        elif coeff != 1 or not factors:
            factors.append(repr(float(coeff)))
        terms.append("*".join(factors))
    return " + ".join(terms) or "0.0"


def _power_lines(polys: Sequence[MultiPoly], names: Sequence[str], q: str = "q") -> list:
    """Lines that set {q}{j}_e to names[j]**e for every power e >= 2 that polys need, by multiplication.

    One chain per variable, q{j}_2 = x * x and q{j}_e = q{j}_(e-1) * x up to
    its largest exponent in polys: every power is formed once.
    """
    lines = []
    for j, x in enumerate(names):
        top = max((exps[j] for p in polys for exps in p.terms), default=0)
        lines += [f"{q}{j}_{e} = {f'{q}{j}_{e - 1}' if e > 2 else x} * {x}" for e in range(2, top + 1)]
    return lines


def _generate(lines: list, name: str, dim: int, nodes: int) -> Callable:
    """Execute generated source and return its function `name`.

    The source sees math.isfinite as isfinite, math.inf as inf and math.nan
    as nan (the reprs of non-finite literals), SolverError, StepStats and
    tuple.__new__ as _new, which builds a StepStats without the NamedTuple's
    Python-level __new__.
    """
    namespace = dict(isfinite=math.isfinite, inf=math.inf, nan=math.nan)
    namespace.update(SolverError=SolverError, StepStats=StepStats, _new=tuple.__new__)
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


def _reads(p: MultiPoly) -> set:
    """The indices of the variables that p reads."""
    return {j for exps in p.terms for j, e in enumerate(exps) if e}


def _stage_sums(polys: Sequence[MultiPoly], L, n: int, s: int, src: str, targets: Callable, form: bool = True) -> list:
    """Lines that add up weighted values of polys at the s stages, stage by stage.

    Stage j is block j of src{..} for the identity layout (L None), else
    x{j}_k = y_k + L_j0 * d_0k + L_j1 * d_1k + ... with the blocks
    d_l = src_l - y set first, both only for the coordinates that polys
    read; its powers q{j}_k_e are formed once (_power_lines) before its
    values.  With form False the lines form none of them and read those
    an earlier pass over no fewer powers left at the same src.  targets(j)
    lists the (weight, accumulators) stage j adds to:
    accumulators[p] = accumulators[p] + weight * polys[p](stage j), the first
    term added to 0.0.  A value that more than one target adds is evaluated
    once, into g{p}.
    """
    r = len(L[0]) if L else 0
    read = sorted(set().union(*map(_reads, polys)))
    lines, started = [f"d{l * n + k} = {src}{l * n + k} - y{k}" for l in range(r) for k in read if form], set()
    for j in range(s):
        names, q = [f"x{j}_{k}" if L else f"{src}{j * n + k}" for k in range(n)], f"q{j}_"
        if form and L:
            lines += [f"{names[k]} = y{k}" + "".join(f" + {w!r} * d{l * n + k}" for l, w in enumerate(L[j])) for k in read]
        lines += _power_lines(polys, names, q) if form else []
        values, adds = [f"({_poly_source(p, names, q)})" for p in polys], targets(j)
        if len(adds) > 1:
            lines += [f"g{p} = {v}" for p, v in enumerate(values)]
            values = [f"g{p}" for p in range(len(polys))]
        for w, accumulators in adds:
            for a, v in zip(accumulators, values):
                lines.append(f"{a} = {a if a in started else '0.0'} + {w} * {v}")
                started.add(a)
    return lines


def _jacobian(sys: HamiltonianSystem) -> tuple:
    """(J_f entries row-major, the indices of those that depend on the state, the others)."""
    n, f = sys.dim, sys.vector_field()
    jac = [f[k].partial(c) for k in range(n) for c in range(n)]
    varying = [p for p, q in enumerate(jac) if _reads(q)]
    return jac, varying, [p for p in range(n * n) if p not in varying]


def _entry(n: int, l: int, m: int, p: int) -> str:
    """The suffix i_j of the matrix entry ((l, k), (m, c)) on r blocks of n unknowns, p = k * n + c."""
    return f"{l * n + p // n}_{m * n + p % n}"


def _minus_identity(n: int, r: int, ps, a: str) -> list:
    """Lines that subtract 1.0 from the diagonal entries {a}i_i among the J_f entries ps of every block."""
    return [f"{a}{_entry(n, l, l, p)} = {a}{_entry(n, l, l, p)} - 1.0" for l in range(r) for p in ps if p % (n + 1) == 0]


# the loop of a whole run: n_steps steps from the state tuple y, each solved
# on the unknowns z0..z{n-1} with f0..f{n-1} the inlined map at z
_RUN_SOURCE = """\
def {name}(y, h, n_steps, cfg, states, stats, scale=1.0):
    max_iterations = cfg.max_iterations
    tol = cfg.tolerance
    use_newton = cfg.strategy == "newton"
    simplified = cfg.strategy == "fixed-point+newton"
{setup}
    for k in range(n_steps):
{start}
        if not ({finite}):
            return "non-finite", k, 0, ({z},), None, inf
        res = prev_res = inf
        newton_iterations = mark = 0
        newton = use_newton
        try:
            for it in range(max_iterations + 1):
                if it:
{phi}
                    if not ({finite}):
                        return "non-finite", k, it, ({z},), None, inf
{largest}
                    res = scale * m
                    if res <= tol:
                        break
                    if newton:
{cycle}
{newton}
                        newton_iterations += 1
                    elif not simplified:
{cycle}
{advance}
                        continue
                elif simplified:
{step_start}
                else:
{advance_at_start}
                    continue
                if newton or not it:
{factor}
                else:
                    theta = res / prev_res
                    if res * theta * theta > tol:
                        newton = True
                    prev_res = res
{solve}
            else:
                return "max-iterations", k, it, ({z},), None, res
        except SolverError as e:
            return "singular", k, it, e.iterate, e, e.residual
{update}
        y = ({ys},)
        states.append(y)
        stats.append(_new(StepStats, (it, newton_iterations, res)))"""


def _run_source(name: str, n: int, d: int, setup: list, start: list, step_start: list, newton: list, phi: list, update) -> list:
    """Source of name(y, h, n_steps, cfg, states, stats, scale), the loop of a whole run on n unknowns.

    The loop appends each new state and its StepStats; it returns None, or
    for the first failed step k (status, k, it, iterate, detail, residual),
    status "non-finite" (a map value at the iterate), "cycle" with the
    period as detail, "max-iterations", "singular" with the SolverError of
    a singular matrix as detail, or "non-finite state" (the update, with
    the converged map value f).  The state is held in y0..y{d-1}, unpacked
    from y before setup, which runs once per run.  Each step sets
    z{j*d+k} = y{k} for the n / d copies of the state, then start sets f to
    the map at z, the predictor, every value of which must be finite.  Iteration it >= 1 sets f to the map at z by
    phi, and res = scale * max|f - z|, spelled out as max() computes it: a
    later value replaces the first only when greater.  Every iteration that
    does not stop ends in a move, so a step that runs out of iterations
    returns the iterate after its last one.  A move is z = f, or
    z = z - dx with a dx = f - z (_solve_lines, inlined once) on the
    factors of the locals a{i}_{j}, factored (_factor_lines, inlined once)
    right after step_start forms the step-start matrix for the default
    strategy's first move, or newton the Newton matrix at z from phi's
    stage values.  That strategy's later moves reuse the step-start factors
    while two more at the observed rate theta = res / prev_res would reach
    the tolerance, res * theta * theta <= tol (theta is 0 after the first);
    every move after the one that sees it fail, and from the first
    iteration for "newton", is a Newton step.  Before each Newton or
    fixed-point move, a function of z alone, the iterate is compared with
    the checkpoint c0..c{n-1}, saved at the first such iteration and again
    at each iteration that reaches twice the one it was saved at, mark
    (Brent's cycle detection); an equal iterate repeats
    with period it - mark, as every iterate and residual after it would, so
    the step fails at once as a cycle, with that iterate and residual.  A
    converging step never repeats an iterate, and a simplified move needs
    no check: repeating residuals give theta >= 1, and the switch follows.
    At convergence update, lines that read phi's pass at the iterate z that
    passed the stop, sets y0..y{d-1}, and y is packed from them once they
    are all finite; update None takes the state from f itself, finite
    already.  The lines passed in come unindented.
    """
    z, f = (", ".join(f"{a}{k}" for k in range(n)) for a in "zf")
    ys = ", ".join(f"y{k}" for k in range(d))
    if update is None:
        update = [f"y{k} = f{k}" for k in range(d)]
    else:
        update = update + [f"if not ({' and '.join(f'isfinite(y{k})' for k in range(d))}):"]
        update += [f'    return "non-finite state", k, it, ({f},), None, res']
    largest = ["m = abs(f0 - z0)"]
    for k in range(1, n):
        largest += [f"t = abs(f{k} - z{k})", "if t > m:", "    m = t"]
    advance = [f"z{k} = f{k}" for k in range(n)]
    cycle = [f"if mark and {' and '.join(f'z{k} == c{k}' for k in range(n))}:"]
    cycle += [f'    return "cycle", k, it, ({z},), it - mark, res', "if it >= mark + mark:"]
    cycle += [f"    {', '.join(f'c{k}' for k in range(n))} = {z}", "    mark = it"]

    def block(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    return _RUN_SOURCE.format(
        name=name,
        z=z,
        f=f,
        setup=block([f"{ys}, = y"] + setup, 4),
        start=block([f"z{j * d + k} = y{k}" for j in range(n // d) for k in range(d)] + start, 8),
        phi=block(phi, 20),
        finite=" and ".join(f"isfinite(f{k})" for k in range(n)),
        largest=block(largest, 20),
        cycle=block(cycle, 24),
        newton=block(newton, 24),
        step_start=block(step_start, 20),
        factor=block(_factor_lines(n), 20),
        solve=block(_solve_lines(n) + [f"z{k} = z{k} - r{k}" for k in range(n)], 16),
        advance=block(advance, 24),
        advance_at_start=block(advance, 20),
        update=block(update, 8),
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


def _step_start_weights(L, R) -> list:
    """W_lm / h = sum_j R_jl L_jm as floats, from the float coefficients: the sum exact, rounded once.

    The identity layout (L None) reads R_ml itself, which may be infinite.
    """
    r = len(R[0])
    if L is None:
        return [[R[m][l] for m in range(r)] for l in range(r)]
    exact = lambda l, m: sum(Fraction(Rj[l]) * Fraction(Lj[m]) for Rj, Lj in zip(R, L))
    return [[float(exact(l, m)) for m in range(r)] for l in range(r)]


@lru_cache(maxsize=64)
def _run(sys: HamiltonianSystem, L, R: tuple, b: tuple) -> Callable:
    """The run loop (_run_source) of the layout A = L R^T, on r blocks of d unknowns.

    Block l is z_l = y + h sum_j R_jl f(Y_j), with stage j
    Y_j = y + sum_l L_jl (z_l - y).  A rule's rank-one tableau is L = c,
    R = b: the chord, one block of d unknowns for the endpoint.  Any other
    tableau is the identity layout, L None and R = A^T: stage j is block j
    itself, not y + 1.0 * (z_j - y), which rounds; the one-node rule at
    c = 1 has L = I and steps on the chord.  L, R (s rows of r entries) and
    b come as float.hex strings (_hex), so the loop is generated once per
    system and coefficient bits, and "avf" and avf_tableau of one rule share
    it.  The weights v_jl = h * R_jl, W_lm = h * (sum_j R_jl L_jm)
    (_step_start_weights) and, with L None, w_j = h * b_j are set once per run;
    the map sums v_jl * f(Y_j) over the stages from 0.0 into block l and adds
    y (_stage_sums).  At the predictor every stage is y, so f is evaluated
    there once: block l is y + (0.0 + v_0l * f(y) + v_1l * f(y) + ...), the
    bits the stage sums give.  The step-start matrix W (x) J_f(y) - I has
    entry ((l, k), (m, c)) W_lm * J_kc(y), minus 1.0 on the diagonal; an
    entry whose J_f entry does not depend on the state is set once per run.
    The new state is y plus the sum of the w_j * f(Y_j) at the stages of the
    iterate z that passed the stop.  On the chord w_j = v_j0, so that is
    f = phi(z) itself, the same sum in the same order: the state is f and
    nothing is evaluated.  The identity layout adds w_j * f(Y_j) into b in
    phi's stage pass, its values shared with the blocks (_stage_sums), and
    y + b is checked finite.  A Newton step forms M - I, entry
    ((l, k), (m, c)) sum_j u_jlm J_kc(Y_j) from 0.0 with u_jlm = h R_jl L_jm
    set once per run (with L None only stage m adds, u_jlm = h R_jl), at the
    coordinates and powers phi's pass just formed at z (_stage_sums with
    form False), minus 1.0 on the diagonal; its entries c{..} that do not
    depend on the state are set once per run.  "avf" and avf_tableau share
    the loop but not the stop: _resolve_stepper runs a rule's tableau (and
    "midpoint") with scale = max|c_j|, the stage residual, and "avf" with
    scale 1, the endpoint residual, so their iterations, and their states
    within the tolerance, can differ.
    """
    n, s, r, f = sys.dim, len(R), len(R[0]), sys.vector_field()
    Lf, Rf = L and [_floats(row) for row in L], [_floats(row) for row in R]
    jac, varying, fixed = _jacobian(sys)
    W = _step_start_weights(Lf, Rf)
    blocks, ys = [(l, m) for l in range(r) for m in range(r)], [f"y{k}" for k in range(n)]
    terms = lambda j: [(l, m) for l in range(r) for m in (range(r) if L else (j,))]  # the blocks stage j adds to

    def newton_sums(ps, a):
        at = lambda j: [(f"u{j}_{l}_{m}", [a + _entry(n, l, m, p) for p in ps]) for l, m in terms(j)]
        return _stage_sums([jac[p] for p in ps], Lf, n, s, "z", at, form=False) + _minus_identity(n, r, ps, a)

    setup = [f"v{j}_{l} = h * {w!r}" for j, row in enumerate(Rf) for l, w in enumerate(row)]
    setup += [] if L else [f"w{j} = h * {w!r}" for j, w in enumerate(_floats(b))]
    setup += [f"W{l}_{m} = h * {W[l][m]!r}" for l, m in blocks]
    setup += [f"e{_entry(n, l, m, p)} = W{l}_{m} * ({_poly_source(jac[p], ys)})" for l, m in blocks for p in fixed]
    setup += _minus_identity(n, r, fixed, "e")
    setup += [f"u{j}_{l}_{m} = h * {Rf[j][l]!r}" + (f" * {Lf[j][m]!r}" if L else "") for j in range(s) for l, m in terms(j)]
    setup += newton_sums(fixed, "c")
    start = _power_lines(f, ys) + [f"g{k} = {_poly_source(p, ys)}" for k, p in enumerate(f)]
    at_y = lambda l, k: "".join(f" + v{j}_{l} * g{k}" for j in range(s))
    start += [f"f{l * n + k} = y{k} + (0.0{at_y(l, k)})" for l in range(r) for k in range(n)]
    step_start = [f"j{p} = {_poly_source(jac[p], ys)}" for p in varying]
    step_start += [f"a{_entry(n, l, m, p)} = W{l}_{m} * j{p}" for l, m in blocks for p in varying]
    step_start += _minus_identity(n, r, varying, "a")
    step_start += [f"a{_entry(n, l, m, p)} = e{_entry(n, l, m, p)}" for l, m in blocks for p in fixed]
    newton = [f"a{_entry(n, l, m, p)} = c{_entry(n, l, m, p)}" for l, m in blocks for p in fixed]
    newton += newton_sums(varying, "a")
    entries = lambda l: [f"a{l * n + k}" for k in range(n)]
    into_b = lambda j: [] if L else [(f"w{j}", [f"b{k}" for k in range(n)])]
    phi = _stage_sums(f, Lf, n, s, "z", lambda j: [(f"v{j}_{l}", entries(l)) for l in range(r)] + into_b(j))
    phi += [f"f{l * n + k} = y{k} + a{l * n + k}" for l in range(r) for k in range(n)]
    update = None if L else [f"y{k} = y{k} + b{k}" for k in range(n)]
    name = "chord" if L else "stages"
    return _generate(_run_source(name, r * n, n, setup, start, step_start, newton, phi, update), name, r * n, s)


def _factor_lines(n: int) -> list:
    """Lines that factor the locals a{i}_{j} in place by Gaussian elimination with partial pivoting.

    Column k pivots on the first row i >= k with the largest |a_ik|
    (LAPACK's tie rule), p{k} = i, swapped into row k in columns k..n-1; each
    row i below it takes the multiplier a_ik = a_ik / a_kk, stored in place,
    and a_ij = a_ij - a_ik * a_kj for j > k.  An exactly zero pivot raises
    SolverError "Newton matrix is singular: zero pivot in column k" at
    iterate z{..} with residual res.
    """
    z = ", ".join(f"z{k}" for k in range(n))
    lines = []
    for k in range(n):
        row = lambda i: ", ".join(f"a{i}_{j}" for j in range(k, n))
        lines += [f"m = abs(a{k}_{k})", f"p{k} = {k}"] if k < n - 1 else []
        for i in range(k + 1, n):
            lines += [f"t = abs(a{i}_{k})", "if t > m:", "    m = t", f"    p{k} = {i}"]
        for i in range(k + 1, n):
            lines += [f"{'el' * (i > k + 1)}if p{k} == {i}:", f"    {row(k)}, {row(i)} = {row(i)}, {row(k)}"]
        message = f"Newton matrix is singular: zero pivot in column {k}"
        lines += [f"if not a{k}_{k}:", f"    raise SolverError({message!r}, iterate=({z},), residual=res)"]
        for i in range(k + 1, n):
            lines += [f"a{i}_{k} = a{i}_{k} / a{k}_{k}"]
            lines += [f"a{i}_{j} = a{i}_{j} - a{i}_{k} * a{k}_{j}" for j in range(k + 1, n)]
    return lines


def _solve_lines(n: int) -> list:
    """Lines that set r{k} to dx, with a @ dx = f - z, from the factors and pivots of _factor_lines.

    r = f - z takes the row swaps and the multipliers column by column,
    r_k and r_p{k} swapped before r_i = r_i - a_ik * r_k for each row i > k:
    the operations of elimination on the augmented matrix.
    Back-substitution sets r_k = (r_k - a_k,k+1 * r_k+1 - ...) / a_kk from the
    last row up.
    """
    lines = [f"r{k} = f{k} - z{k}" for k in range(n)]
    for k in range(n - 1):
        for i in range(k + 1, n):
            lines += [f"{'el' * (i > k + 1)}if p{k} == {i}:", f"    r{k}, r{i} = r{i}, r{k}"]
        lines += [f"r{i} = r{i} - a{i}_{k} * r{k}" for i in range(k + 1, n)]
    for k in reversed(range(n)):
        terms = "".join(f" - a{k}_{j} * r{j}" for j in range(k + 1, n))
        lines += [f"r{k} = (r{k}{terms}) / a{k}_{k}"]
    return lines


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


@lru_cache(maxsize=64)
def _rule_layout(nodes) -> tuple:
    """(L, R, b, max|c_j|) of a rule's float nodes, once per nodes: _run's chord, L = c and R = b."""
    c, b = _hex(c for c, _ in nodes), _hex(b for _, b in nodes)
    return tuple((x,) for x in c), tuple((x,) for x in b), b, max(abs(cj) for cj, _ in nodes)


def _resolve_stepper(sys, method) -> Callable:
    """run(y, h, n_steps, cfg, states, stats) for a method, the loop of _run_source."""
    if isinstance(method, str):
        if method == "avf":
            # Gauss with s nodes integrates the degree deg H - 1 chord exactly
            return _run(sys, *_rule_layout(_gauss_rule(max(1, math.ceil(sys.H.degree() / 2))).float_nodes)[:3])
        if method == "midpoint":
            return _resolve_stepper(sys, midpoint_tableau())
        raise ValueError(f"unknown method {method!r}; use 'avf', 'midpoint', or a tableau")
    from .trees import ButcherTableau

    if isinstance(method, ButcherTableau):
        if method.rule is not None:
            L, R, b, scale = _rule_layout(method.rule.float_nodes)
            # scale = max|c_j| makes the residual the stage system's max over stages
            return partial(_run(sys, L, R, b), scale=scale)
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

    A step k that fails raises SolverError with step_index k, its reason
    and a message that starts with "step k: ": a non-finite field value at
    a finite iterate, a non-finite iterate, a singular Newton matrix, an
    iterate that repeats, no convergence in cfg.max_iterations iterations,
    or a non-finite state after the update of a converged step.
    """
    y, h = _checked_start(sys, y0, h)
    cfg = cfg or SolverConfig()
    states, stats = [y], []
    failure = _resolve_stepper(sys, method)(y, h, n_steps, cfg, states, stats)
    if failure is None:
        return h, states, stats
    status, k, it, x, detail, res = failure
    numbers = f"residual {res:.3e}, tolerance {cfg.tolerance:.3e}"
    period = cause = None
    if status == "singular":
        message, cause = str(detail), detail
    elif status == "non-finite":
        finite = all(map(math.isfinite, x))
        status = "non-finite value" if finite else "non-finite iterate"
        message = f"non-finite {'field value' if finite else 'iterate'} at iteration {it}"
    elif status == "non-finite state":
        message = "non-finite state after the update"
    elif status == "cycle":
        period, ulp = detail, math.ulp(max(map(abs, x)))
        message = (
            f"no convergence: the iterate repeats with period {period} at iteration {it} "
            f"({numbers}, ulp of the iterate {ulp:.3e})"
        )
    else:
        message = f"no convergence after {cfg.max_iterations} iterations ({numbers})"
    raise SolverError(
        f"step {k}: {message}", iterate=x, residual=res, step_index=k, reason=status, period=period
    ) from cause


def avf_step(sys: HamiltonianSystem, y, h: float, cfg: SolverConfig | None = None):
    """One chord-averaged step; exact energy preservation up to solver tolerance.

    Returns the new state as a tuple of floats.  The chord average is taken
    by the Gauss rule of ceil(deg H / 2) nodes, which is exact for it.  For
    quadratic H that is the one-node rule, so this is the implicit midpoint
    method, but not bit for bit "midpoint"'s step: the stop reads the
    endpoint residual here and the stage residual there (_resolve_stepper),
    so the two can stop after different iterations.
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
    computed from the stored states on first access, once, never carried
    through the solve; an H that is not finite in float64 reads inf.
    """

    __slots__ = ("system", "times", "states", "solver_stats", "_energies")

    def __init__(self, system, times, states, solver_stats):
        if not (len(times) == len(states) == len(solver_stats) + 1):
            raise ValueError("inconsistent run lengths")
        self.system = system
        self.times = tuple(times)
        self.states = tuple(states)
        self.solver_stats = tuple(solver_stats)
        self._energies = None

    def _energy_list(self) -> list:
        """H at every state as floats, evaluated on the first call and kept; callers do not modify it."""
        if self._energies is None:
            H = _energy(self.system)
            self._energies = [e if math.isfinite(e) else math.inf for e in (H(*y)[0] for y in self.states)]
        return self._energies

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
