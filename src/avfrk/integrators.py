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
stepping is float64, in plain Python floats through evaluators generated
once per system from the exact polynomials.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
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
    "write_run_csv",
]

_STRATEGIES = ("fixed-point+newton", "fixed-point", "newton")

# residual must shrink by at least this factor per sweep or we switch to Newton
_STALL_FACTOR = 0.5


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

    Carries the last iterate and residual; integrate() adds the step index.
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


def _scalar_function(polys: Sequence[MultiPoly], nv: int) -> Callable:
    """Plain-float evaluator of a tuple of polynomials, one point per call.

    Generated as Python source once: component k of evaluate(x0, x1, ...)
    is the sum of its monomials x_j**e_j * ... * coeff in sorted term order.
    Arrays of a few entries cost more in numpy dispatch than this does in
    arithmetic.  float ** int raises OverflowError where numpy returns inf.
    """
    names = [f"x{j}" for j in range(nv)]
    comps = []
    for p in polys:
        terms = []
        for exps, coeff in sorted(p.terms.items()):
            factors = [names[j] if e == 1 else f"{names[j]}**{e}" for j, e in enumerate(exps) if e]
            if coeff != 1 or not factors:
                factors.append(repr(float(coeff)))
            terms.append("*".join(factors))
        comps.append(" + ".join(terms) or "0.0")
    src = f"def evaluate({', '.join(names)}):\n    return ({', '.join(comps)},)\n"
    namespace: dict = {}
    exec(src, namespace)
    return namespace["evaluate"]


@lru_cache(maxsize=64)
def _scalar_field(sys: HamiltonianSystem) -> tuple:
    """(f, J_f) as plain-float functions of the state; J_f is flat, row-major."""
    n = sys.dim
    f = sys.vector_field()
    jac = [f[a].partial(b) for a in range(n) for b in range(n)]
    return _scalar_function(f, n), _scalar_function(jac, n)


@lru_cache(maxsize=64)
def _energy_terms(sys: HamiltonianSystem) -> tuple:
    """Exponent matrix and float coefficients of H, for batches of states."""
    items = sorted(sys.H.terms.items()) or [((0,) * sys.dim, Fraction(0))]
    E = np.array([exps for exps, _ in items], dtype=np.float64)
    return E, np.array([float(c) for _, c in items])


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
# implicit solve driver


def _implicit_solve(x, phi, phi_jac, cfg: SolverConfig, scale: float = 1.0):
    """Solve x = phi(x) until scale * max|phi(x) - x| <= cfg.tolerance.

    x is the start of the step for every unknown; phi(x) is then the Euler
    predictor.  Fixed-point sweeps run while the residual shrinks by
    _STALL_FACTOR per iteration; otherwise Newton on F(x) = phi(x) - x with
    J_F = Jphi - I.  An overflowing field, a non-finite iterate and a
    singular Newton matrix end the solve with SolverError.
    Returns (solution, StepStats).
    """
    use_newton = cfg.strategy == "newton"
    allow_newton = cfg.strategy != "fixed-point"
    prev_res = res = math.inf
    newton_iters = 0
    try:
        x = phi(x)
        for it in range(1, cfg.max_iterations + 1):
            fx = phi(x)
            if not all(map(math.isfinite, fx)):
                raise SolverError(
                    f"non-finite iterate at iteration {it}", iterate=np.array(x), residual=math.inf
                )
            res = scale * max(abs(a - b) for a, b in zip(fx, x))
            if res <= cfg.tolerance:
                return fx, StepStats(it, newton_iters, res)
            if use_newton:
                m = len(x)
                J = np.reshape(phi_jac(x), (m, m)) - np.eye(m)
                x = (np.asarray(x) - np.linalg.solve(J, np.subtract(fx, x))).tolist()
                newton_iters += 1
            else:
                x = fx
                if allow_newton and res > _STALL_FACTOR * prev_res:
                    use_newton = True
            prev_res = res
    except OverflowError as e:
        raise SolverError(f"field evaluation overflowed: {e}", iterate=np.array(x), residual=res) from e
    except np.linalg.LinAlgError as e:
        raise SolverError(f"Newton matrix is singular: {e}", iterate=np.array(x), residual=res) from e
    raise SolverError(
        f"no convergence after {cfg.max_iterations} iterations "
        f"(residual {res:.3e}, tolerance {cfg.tolerance:.3e})",
        iterate=np.array(x),
        residual=res,
    )


# ---------------------------------------------------------------------------
# steps


def _chord_stepper(sys: HamiltonianSystem, rule: QuadRule, scale: float) -> Callable:
    """Rank-one step on the chord: every stage is Y_j = y + c_j (z - y).

    The s*d stage system collapses to the d unknowns of the endpoint
    z = y + h sum_j b_j f(Y_j); its Newton matrix is h sum_j b_j c_j J_f(Y_j).
    scale = max|c_j| makes the residual the stage system's max over stages.
    """
    nodes = _float_nodes(rule)
    f, jac = _scalar_field(sys)
    n = sys.dim

    def step(y, h, cfg):
        weighted = [(cj, h * bj) for cj, bj in nodes]

        def phi(z):
            d = [zk - yk for zk, yk in zip(z, y)]
            acc = [0.0] * n
            for cj, hbj in weighted:
                F = f(*[yk + cj * dk for yk, dk in zip(y, d)])
                acc = [a + hbj * v for a, v in zip(acc, F)]
            return [yk + a for yk, a in zip(y, acc)]

        def phi_jac(z):
            d = [zk - yk for zk, yk in zip(z, y)]
            acc = [0.0] * (n * n)
            for cj, hbj in weighted:
                Jf = jac(*[yk + cj * dk for yk, dk in zip(y, d)])
                acc = [a + hbj * cj * v for a, v in zip(acc, Jf)]
            return acc

        z, stats = _implicit_solve(y, phi, phi_jac, cfg, scale)
        # the update y + h b^T f(Y) at the converged stages, as the stage path
        return phi(z), stats

    return step


def _stage_stepper(sys: HamiltonianSystem, tab: ButcherTableau) -> Callable:
    """Any other tableau: the s*d stage system, stages solved simultaneously."""
    n, s = sys.dim, tab.s
    A = np.array([[float(x) for x in row] for row in tab.A])
    b = np.array([float(x) for x in tab.b])
    f, jac = _scalar_field(sys)

    def at_stages(g, x):
        return np.array([g(*x[j * n : (j + 1) * n]) for j in range(s)])

    def step(y, h, cfg):
        y = np.asarray(y)

        def phi(x):
            return (y + h * (A @ at_stages(f, x))).ravel().tolist()

        def phi_jac(x):
            big = h * A[:, :, None, None] * at_stages(jac, x).reshape(1, s, n, n)
            return big.transpose(0, 2, 1, 3).reshape(s * n, s * n)

        sol, stats = _implicit_solve(np.tile(y, s).tolist(), phi, phi_jac, cfg)
        return (y + h * (b @ at_stages(f, sol))).tolist(), stats

    return step


def _resolve_stepper(sys, method) -> Callable:
    """stepper(y, h, cfg) -> (state list, StepStats) for a method."""
    if isinstance(method, str):
        if method == "avf":
            # Gauss with s nodes integrates the degree deg H - 1 chord exactly
            s = max(1, math.ceil(sys.H.degree() / 2))
            return _chord_stepper(sys, _gauss_rule(s), 1.0)
        if method == "midpoint":
            return _resolve_stepper(sys, midpoint_tableau())
        raise ValueError(f"unknown method {method!r}; use 'avf', 'midpoint', or a tableau")
    if isinstance(method, ButcherTableau):
        if method.rule is not None:
            return _chord_stepper(sys, method.rule, max(abs(float(ci)) for ci in method.c))
        return _stage_stepper(sys, method)
    if isinstance(method, QuadRule):
        raise TypeError("pass avf_tableau(rule), not the rule itself")
    raise TypeError(f"cannot interpret {type(method).__name__} as a method")


def _checked_start(sys: HamiltonianSystem, y, h) -> tuple:
    """(state as a list of floats, h as a float), rejecting bad input."""
    if h == 0:
        raise ValueError("step size must be nonzero")
    if not math.isfinite(h):
        raise ValueError("step size must be finite")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sys.dim,):
        raise ValueError(f"state must have length {sys.dim}")
    if not np.all(np.isfinite(y)):
        raise ValueError("state must be finite")
    return y.tolist(), float(h)


def _single_step(sys, method, y, h, cfg):
    y, h = _checked_start(sys, y, h)
    state, _ = _resolve_stepper(sys, method)(y, h, cfg or SolverConfig())
    return np.array(state)


def avf_step(sys: HamiltonianSystem, y, h: float, cfg: SolverConfig | None = None):
    """One chord-averaged step; exact energy preservation up to solver tolerance.

    The chord average is taken by the Gauss rule of ceil(deg H / 2) nodes,
    which is exact for it.  For quadratic H that is the one-node rule, so
    this coincides with the implicit midpoint step.
    """
    return _single_step(sys, "avf", y, h, cfg)


def rk_step(
    sys: HamiltonianSystem,
    tab: ButcherTableau,
    y,
    h: float,
    cfg: SolverConfig | None = None,
):
    """One implicit Runge-Kutta step; rank-one tableaux solve on the chord."""
    return _single_step(sys, tab, y, h, cfg)


# ---------------------------------------------------------------------------
# runs


class IntegrationRun:
    """Trajectory record: times, states, per-step solver stats.

    energies is recomputed from the stored states on access, never carried
    through the solve.
    """

    __slots__ = ("system", "times", "states", "solver_stats")

    def __init__(self, system, times, states, solver_stats):
        if not (len(times) == len(states) == len(solver_stats) + 1):
            raise ValueError("inconsistent run lengths")
        self.system = system
        self.times = tuple(times)
        self.states = tuple(np.array(s, dtype=np.float64) for s in states)
        self.solver_stats = tuple(solver_stats)

    @property
    def energies(self) -> np.ndarray:
        E, coeffs = _energy_terms(self.system)
        X = np.stack(self.states)
        return np.prod(X[:, None, :] ** E[None, :, :], axis=2) @ coeffs

    def max_energy_drift(self) -> float:
        e = self.energies
        return float(np.max(np.abs(e - e[0])))


def integrate(
    sys: HamiltonianSystem,
    method,
    y0,
    h: float,
    n_steps: int,
    cfg: SolverConfig | None = None,
) -> IntegrationRun:
    """Repeated stepping from y0; method is 'avf', 'midpoint', or a tableau."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    y, h = _checked_start(sys, y0, h)
    cfg = cfg or SolverConfig()
    stepper = _resolve_stepper(sys, method)
    times = [0.0]
    states = [y]
    stats = []
    for k in range(n_steps):
        try:
            y, st = stepper(y, h, cfg)
        except SolverError as e:
            raise SolverError(
                f"step {k}: {e}", iterate=e.iterate, residual=e.residual, step_index=k
            ) from e
        times.append((k + 1) * h)
        states.append(y)
        stats.append(st)
    return IntegrationRun(sys, times, states, stats)


def write_run_csv(run: IntegrationRun, fileobj) -> None:
    """Columns t, y_1..y_2d, H, newton_iters; the initial row has no solve."""
    n = run.system.dim
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"y_{i + 1}" for i in range(n)] + ["H", "newton_iters"])
    energies = run.energies
    for k, (t, y) in enumerate(zip(run.times, run.states)):
        iters = run.solver_stats[k - 1].newton_iterations if k else 0
        writer.writerow(
            [repr(t)] + [repr(float(v)) for v in y] + [repr(float(energies[k])), iters]
        )


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
    list of (effective h, error) pairs.
    """
    if len(h_list) < 3:
        raise ValueError("need at least 3 step sizes for a slope fit")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    cfg = cfg or SolverConfig()
    pairs = []
    finals = []
    for h in h_list:
        n = max(1, round(t_end / h))
        h_eff = t_end / n
        run = integrate(sys, method, y0, h_eff, n, cfg)
        pairs.append(h_eff)
        finals.append(run.states[-1])
    n_ref = ref_factor * max(1, round(t_end / min(pairs)))
    ref = integrate(sys, method, y0, t_end / n_ref, n_ref, cfg).states[-1]
    return [
        (h_eff, float(np.max(np.abs(yf - ref))))
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
    pts = convergence_errors(sys, method, y0, t_end, h_list, cfg, ref_factor)
    xs = np.log([h for h, _ in pts])
    ys = np.log([max(err, 1e-300) for _, err in pts])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
