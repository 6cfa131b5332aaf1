"""Command-line surface for rule construction, verification, and integration.

Subcommands: quad, tableau, conditions, rank, uniqueness, integrate, order.
Exit codes are stable across commands: 0 success or match, 2 input error,
3 expectation mismatch, 4 precision insufficient, 5 solver failure.
Printed decimals are truncated to precision-5 significant digits so noise
digits are never advertised.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import mp

from .conditions import (
    KernelStructureError,
    RankAmbiguityError,
    asym_bush_residual,
    build_M,
    double_bush_residual,
    expected_rank,
    rank_kernel,
    triple_bush_residual,
    uniqueness_sweep,
)
from .hamiltonian import hamiltonian_from_json
from .integrators import (
    SolverConfig,
    SolverError,
    avf_tableau,
    convergence_errors,
    integrate,
    midpoint_tableau,
    write_run_csv,
)
from .quadrature import QuadratureError, UniPoly, g_poly, quad_rule
from .trees import ButcherTableau, conditions_up_to, energy_condition_residual

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_PRECISION = 4
EXIT_SOLVER = 5

_RANK_COMMANDS = ("rank", "uniqueness")

# verdict thresholds for the uniqueness fit
_COEFF_RTOL = 1e-6
_SLOPE_ATOL = 1e-3


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_zeta(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise QuadratureError(f"cannot parse zeta {text!r}: {e}") from e


def _dec(x, args) -> str:
    digits = max(args.precision - 5, 5)
    with mp.workdps(args.precision + 10):
        if isinstance(x, Fraction):
            x = mp.mpf(x.numerator) / x.denominator
        return mp.nstr(mp.mpf(x), digits)


def _emit(args, doc: dict, rows: list) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        import csv as _csv

        w = _csv.writer(buf)
        w.writerows(rows)
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _rule_from_args(args):
    return quad_rule(args.s, zeta=_parse_zeta(args.zeta), precision_digits=args.precision)


def _mpf_entry(x, dps):
    # tableau files may hold ints, floats, decimal strings, or "num/den"
    with mp.workdps(dps):
        if isinstance(x, str) and "/" in x:
            f = Fraction(x)
            return mp.mpf(f.numerator) / f.denominator
        return mp.mpf(x)


# ---------------------------------------------------------------------------
# commands


def cmd_quad(args) -> int:
    rule = _rule_from_args(args)
    doc = {
        "s": rule.s,
        "zeta": _dec(rule.zeta, args),
        "c": [_dec(x, args) for x in rule.c],
        "b": [_dec(x, args) for x in rule.b],
        "order": rule.order,
    }
    rows = [["i", "c", "b"]] + [
        [i + 1, _dec(rule.c[i], args), _dec(rule.b[i], args)] for i in range(rule.s)
    ]
    _emit(args, doc, rows)
    return EXIT_OK


def cmd_tableau(args) -> int:
    rule = _rule_from_args(args)
    tab = avf_tableau(rule)
    doc = {
        "s": rule.s,
        "zeta": _dec(rule.zeta, args),
        "order": rule.order,
        "c": [_dec(x, args) for x in tab.c],
        "b": [_dec(x, args) for x in tab.b],
        "A": [[_dec(x, args) for x in row] for row in tab.A],
    }
    rows = [["i", "c", "b"] + [f"a_{j + 1}" for j in range(rule.s)]]
    for i in range(rule.s):
        rows.append(
            [i + 1, _dec(tab.c[i], args), _dec(tab.b[i], args)]
            + [_dec(x, args) for x in tab.A[i]]
        )
    _emit(args, doc, rows)
    return EXIT_OK


def _load_tableau(path: str, rule, precision: int):
    """Tableau JSON {"A": [[..]], "b"?: [..], "c"?: [..]}; A must be s x s."""
    doc = json.loads(Path(path).read_text())
    A = doc["A"]
    s = rule.s
    if len(A) != s or any(len(row) != s for row in A):
        raise ValueError(f"tableau A must be {s}x{s} to match the rule")
    dps = precision + 10
    Arows = [[_mpf_entry(x, dps) for x in row] for row in A]
    custom_nodes = "b" in doc or "c" in doc
    b = [_mpf_entry(x, dps) for x in doc["b"]] if "b" in doc else rule.b
    c = [_mpf_entry(x, dps) for x in doc["c"]] if "c" in doc else rule.c
    if len(b) != s or len(c) != s:
        raise ValueError("tableau b and c must have length s")
    return ButcherTableau(Arows, b, c, precision), custom_nodes


def cmd_conditions(args) -> int:
    rule = _rule_from_args(args)
    m = args.m if args.m is not None else rule.order
    if m < 2:
        return _fail("m must be at least 2", EXIT_INPUT)
    if args.tableau:
        tab, custom_nodes = _load_tableau(args.tableau, rule, args.precision)
        source = args.tableau
    else:
        tab, custom_nodes = avf_tableau(rule), False
        source = "avf"
    entries = []
    for ft in conditions_up_to(m, m):
        r = energy_condition_residual(ft, tab)
        entries.append(
            {
                "id": ft.representative.bracket(),
                "order": ft.order,
                "branching": ft.max_branching,
                "residual": _dec(r, args),
            }
        )
    # bush identities are stated against the rule nodes, so they are only
    # meaningful while the tableau shares them; beyond the rule order the
    # rows report the quadrature defect rather than an exact-zero condition
    bushes = []
    if not custom_nodes:
        bm = m
        for p in range(1, bm):
            for q in range(p + 1, bm):
                r = double_bush_residual(tab.A, rule, p, q)
                bushes.append({"id": f"double_bush({p},{q})", "residual": _dec(r, args)})
        one = UniPoly([1])
        for p in range(1, bm):
            for q in range(p, bm):
                r = triple_bush_residual(tab.A, rule, g_poly(p), g_poly(q), one)
                bushes.append(
                    {"id": f"triple_bush(G_{p},G_{q},1)", "residual": _dec(r, args)}
                )
        for q in range(1, bm):
            r = asym_bush_residual(tab.A, rule, q)
            bushes.append({"id": f"asym_bush({q})", "residual": _dec(r, args)})
    doc = {
        "s": rule.s,
        "zeta": _dec(rule.zeta, args),
        "m": m,
        "tableau": source,
        "conditions": entries,
        "bushes": bushes,
    }
    rows = [["id", "order", "branching", "residual"]]
    for e in entries:
        rows.append([e["id"], e["order"], e["branching"], e["residual"]])
    for e in bushes:
        rows.append([e["id"], "", "", e["residual"]])
    _emit(args, doc, rows)
    return EXIT_OK


def _format_factor(vec, args):
    if vec is None:
        return None
    out = []
    for x in vec:
        out.append(str(x) if isinstance(x, (int, Fraction)) else _dec(x, args))
    return out


def cmd_rank(args) -> int:
    rule = _rule_from_args(args)
    s = rule.s
    m = args.m if args.m is not None else (2 * s if rule.zeta_exact == 0 else 2 * s - 1)
    if m not in (2 * s, 2 * s - 1):
        return _fail(f"m must be {2 * s} or {2 * s - 1} for s={s}", EXIT_INPUT)
    M = build_M(rule, m)
    rank, basis = rank_kernel(M)
    exp = expected_rank(s, m, rule.zeta_exact)
    if exp is None:
        verdict = "no expectation"
    elif rank == exp:
        verdict = "match"
    else:
        verdict = "mismatch"
    factors = []
    for el in basis.elements:
        factors.append(
            {
                "structured": el.structured,
                "u": _format_factor(el.u, args),
                "v": _format_factor(el.v, args),
            }
        )
    doc = {
        "s": s,
        "zeta": _dec(rule.zeta, args),
        "m": m,
        "rank": rank,
        "expected_rank": exp,
        "kernel_dim": len(basis),
        "structured": basis.structured,
        "kernel": factors,
        "verdict": verdict,
    }
    rows = [["key", "value"]]
    for key in ("s", "zeta", "m", "rank", "expected_rank", "kernel_dim", "structured", "verdict"):
        rows.append([key, doc[key]])
    for i, f in enumerate(factors):
        rows.append([f"kernel_{i}_structured", f["structured"]])
        rows.append([f"kernel_{i}_u", " ".join(f["u"]) if f["u"] else ""])
        rows.append([f"kernel_{i}_v", " ".join(f["v"]) if f["v"] else ""])
    _emit(args, doc, rows)
    return EXIT_OK if verdict != "mismatch" else EXIT_MISMATCH


def cmd_uniqueness(args) -> int:
    rule = _rule_from_args(args)
    m = args.m if args.m is not None else 2 * rule.s - 1
    betas = None
    if args.betas:
        betas = [float(x) for x in args.betas.split(",")]
    report = uniqueness_sweep(rule, m, betas)
    fit = report["residual_fit"]
    code = EXIT_OK
    if report["expected_rank"] is not None and report["rank"] != report["expected_rank"]:
        code = EXIT_MISMATCH
    if fit is not None:
        rel = abs(fit["coeff"] - fit["expected_coeff"]) / abs(fit["expected_coeff"])
        fit["coeff_relative_error"] = rel
        if rel > _COEFF_RTOL or abs(fit["slope"] - fit["expected_slope"]) > _SLOPE_ATOL:
            code = EXIT_MISMATCH
    rows = [["key", "value"]]
    for key in ("s", "zeta", "m", "rank", "expected_rank", "kernel_dim"):
        rows.append([key, report[key]])
    if fit is None:
        rows.append(["note", report["note"]])
    else:
        rows.append(["condition", report["condition"]])
        for b, r in zip(report["betas"], report["residuals"]):
            rows.append([f"residual(beta={b})", repr(r)])
        for key in ("slope", "expected_slope", "coeff", "expected_coeff", "coeff_relative_error"):
            rows.append([key, repr(float(fit[key]))])
    _emit(args, report, rows)
    return code


def _load_system(path: str):
    doc = json.loads(Path(path).read_text())
    return hamiltonian_from_json(doc)


def _parse_state(text: str, dim: int):
    vals = [float(x) for x in text.split(",")]
    if len(vals) != dim:
        raise ValueError(f"initial state needs {dim} components, got {len(vals)}")
    return vals


def _resolve_cli_method(args):
    if args.method == "avf":
        return "avf"
    if args.method == "midpoint":
        return midpoint_tableau(args.precision)
    # quadrature discretization of the averaged step
    rule = _rule_from_args(args)
    return avf_tableau(rule)


def cmd_integrate(args) -> int:
    sys_ = _load_system(args.hamiltonian)
    y0 = _parse_state(args.y0, sys_.dim)
    method = _resolve_cli_method(args)
    cfg = SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iterations)
    try:
        run = integrate(sys_, method, y0, args.h, args.steps, cfg)
    except SolverError as e:
        # integrate() starts the message with "step k: "
        return _fail(f"solver failed at {e}", EXIT_SOLVER)
    stats = run.solver_stats
    summary = {
        "method": args.method,
        "h": args.h,
        "n_steps": args.steps,
        "final_time": run.times[-1],
        "final_state": [float(v) for v in run.states[-1]],
        "max_energy_drift": run.max_energy_drift(),
        "iterations_total": sum(s.iterations for s in stats),
        "newton_iterations_total": sum(s.newton_iterations for s in stats),
        "max_step_residual": max(s.residual for s in stats),
    }
    if args.output:
        with open(args.output, "w", newline="") as fh:
            write_run_csv(run, fh)
        summary["csv"] = str(args.output)
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    elif args.format == "csv":
        write_run_csv(run, sys.stdout)
    else:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_order(args) -> int:
    sys_ = _load_system(args.hamiltonian)
    y0 = _parse_state(args.y0, sys_.dim)
    method = _resolve_cli_method(args)
    hs = [float(x) for x in args.hs.split(",")]
    cfg = SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iterations)
    try:
        pts = convergence_errors(sys_, method, y0, args.t_end, hs, cfg)
    except SolverError as e:
        return _fail(f"solver failed at {e}", EXIT_SOLVER)
    xs = np.log([h for h, _ in pts])
    ys = np.log([max(err, 1e-300) for _, err in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    doc = {
        "method": args.method,
        "t_end": args.t_end,
        "h": [h for h, _ in pts],
        "errors": [e for _, e in pts],
        "slope": slope,
    }
    rows = [["h", "error"]] + [[repr(h), repr(e)] for h, e in pts] + [["slope", repr(slope)]]
    _emit(args, doc, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=50, help="working digits (default 50)")
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    p = argparse.ArgumentParser(
        prog="avfrk",
        description="Energy-preserving Runge-Kutta construction and verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def rule_args(sp):
        sp.add_argument("--s", type=int, required=True, help="stage count")
        sp.add_argument("--zeta", default="0", help="rule parameter (rational or decimal)")

    sp = sub.add_parser("quad", parents=[common], help="nodes and weights of a rule")
    rule_args(sp)
    sp.set_defaults(func=cmd_quad)

    sp = sub.add_parser("tableau", parents=[common], help="the rank-one tableau A = c b^T")
    rule_args(sp)
    sp.set_defaults(func=cmd_tableau)

    sp = sub.add_parser("conditions", parents=[common], help="energy-condition residual table")
    rule_args(sp)
    sp.add_argument("--m", type=int, default=None, help="Hamiltonian degree (default: rule order)")
    sp.add_argument("--tableau", default=None, help="JSON tableau file overriding A (and b, c)")
    sp.set_defaults(func=cmd_conditions)

    sp = sub.add_parser("rank", parents=[common], help="rank and kernel of the condition operator")
    rule_args(sp)
    sp.add_argument("--m", type=int, default=None, help="degree, 2s or 2s-1 (default by zeta)")
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("uniqueness", parents=[common], help="nonlinear residual sweep along the kernel")
    rule_args(sp)
    sp.add_argument("--m", type=int, default=None, help="degree (default 2s-1)")
    sp.add_argument("--betas", default=None, help="comma-separated perturbation sizes")
    sp.set_defaults(func=cmd_uniqueness)

    def run_args(sp):
        sp.add_argument("hamiltonian", help="Hamiltonian JSON file")
        sp.add_argument("--y0", required=True, help="comma-separated initial state")
        sp.add_argument("--method", choices=("avf", "midpoint", "rk"), default="avf")
        sp.add_argument("--s", type=int, default=2, help="stages for --method rk")
        sp.add_argument("--zeta", default="0", help="rule parameter for --method rk")
        sp.add_argument("--tolerance", type=float, default=1e-14)
        sp.add_argument("--max-iterations", type=int, default=100)

    sp = sub.add_parser("integrate", parents=[common], help="run a trajectory, report drift")
    run_args(sp)
    sp.add_argument("--h", type=float, required=True, help="step size")
    sp.add_argument("--steps", type=int, required=True, help="number of steps")
    sp.set_defaults(func=cmd_integrate)

    sp = sub.add_parser("order", parents=[common], help="convergence slope from a step-size scan")
    run_args(sp)
    sp.add_argument("--t-end", type=float, required=True)
    sp.add_argument("--hs", required=True, help="comma-separated step sizes (at least 3)")
    sp.set_defaults(func=cmd_order)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in _RANK_COMMANDS and args.precision < 30:
        return _fail(f"{args.command} requires --precision >= 30", EXIT_INPUT)
    if args.precision < 10:
        return _fail("--precision must be at least 10", EXIT_INPUT)
    try:
        return args.func(args)
    except RankAmbiguityError as e:
        return _fail(f"{e}", EXIT_PRECISION)
    except KernelStructureError as e:
        return _fail(f"{e} (try a higher --precision)", EXIT_PRECISION)
    except QuadratureError as e:
        return _fail(f"{e}", EXIT_INPUT)
    except FileNotFoundError as e:
        return _fail(f"{e}", EXIT_INPUT)
    except json.JSONDecodeError as e:
        return _fail(f"malformed JSON: {e}", EXIT_INPUT)
    except (KeyError, TypeError, ValueError) as e:
        return _fail(f"{e}", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
