"""Spans around the package's public functions, and the per-layer metrics.

A Tracer rebinds every public function of the package (the names exported
by `avfrk`) to a timing wrapper, on the module that defines it and on every
package module that imported it, `cli` included.  Calls inside the package
then nest: `uniqueness_sweep` produces child spans for `build_M`,
`rank_kernel` and `kernel_rowsum`.  Spans stay in memory until the run ends.

A span is a list [name, layer, start, end, parent, op, phase, attrs]:
`parent` is the index of the enclosing span or -1, `op` the id shared by all
spans of one operation, `phase` "setup" or "pass".
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, LAYER, START, END, PARENT, OP, PHASE, ATTRS = range(8)

LAYERS = ("quadrature", "hamiltonian", "trees", "integrators", "conditions", "cli")
STAGES = (2, 3, 4, 5, 6, 7)
METHODS = ("avf", "rk")
CLI_COMMANDS = ("quad", "tableau", "conditions", "rank", "uniqueness", "integrate", "order")
PRECISION_ERRORS = ("RankAmbiguityError", "KernelStructureError")


def _annotate_quad_rule(args, kwargs, result):
    return {"s": args[0] if args else kwargs["s"]}


def _annotate_build_M(args, kwargs, result):
    return {"s": args[0].s}


def _annotate_rank_kernel(args, kwargs, result):
    return {"s": args[0].rule.s, "structured": bool(result[1].structured)}


def _annotate_conditions_up_to(args, kwargs, result):
    return {"classes": len(result)}


def _annotate_integrate(args, kwargs, result):
    method = args[1] if len(args) > 1 else kwargs["method"]
    stats = result.solver_stats
    return {
        "method": "avf" if method == "avf" else "rk",
        "steps": len(stats),
        "iterations": sum(st.iterations for st in stats),
        "newton": sum(st.newton_iterations for st in stats),
    }


def _annotate_integrate_error(args, kwargs, exc):
    method = args[1] if len(args) > 1 else kwargs["method"]
    return {"method": "avf" if method == "avf" else "rk", "steps": exc.step_index or 0}


ANNOTATE = {
    "quad_rule": _annotate_quad_rule,
    "build_M": _annotate_build_M,
    "rank_kernel": _annotate_rank_kernel,
    "conditions_up_to": _annotate_conditions_up_to,
    "integrate": _annotate_integrate,
}
ANNOTATE_ERROR = {"integrate": _annotate_integrate_error}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op = -1
        self.phase = "setup"

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    @contextmanager
    def span(self, name, layer):
        """A span opened from the benchmark's own code; yields its index."""
        span = self._open(name, layer)
        try:
            yield self._stack[-1]
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, layer):
        annotate = ANNOTATE.get(name)
        annotate_error = ANNOTATE_ERROR.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[END] = perf_counter()
                attrs = annotate_error(args, kwargs, e) if annotate_error else {}
                attrs["error"] = type(e).__name__
                attrs["error_id"] = id(e)
                span[ATTRS] = attrs
                raise
            finally:
                tracer._stack.pop()
            span[END] = perf_counter()
            if annotate:
                span[ATTRS] = annotate(args, kwargs, result)
            return result

        return traced

    # -- rebinding -----------------------------------------------------------

    def install(self):
        """Rebind every public function of the package to a traced wrapper."""
        import avfrk
        import avfrk.cli

        modules = [avfrk] + [sys.modules[f"avfrk.{layer}"] for layer in LAYERS]
        wrappers = {}
        for name in dir(avfrk):
            fn = getattr(avfrk, name)
            if callable(fn) and not isinstance(fn, type) and fn.__module__.startswith("avfrk."):
                layer = fn.__module__.split(".")[1]
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
        wrappers[id(avfrk.cli.main)] = (avfrk.cli.main, self._wrap(avfrk.cli.main, "main", "cli"))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- merging spans from a child process ----------------------------------

    def adopt(self, child_spans, parent_index):
        """Append spans recorded by a child process under the given span."""
        base = len(self.spans)
        for sp in child_spans:
            sp = list(sp)
            sp[PARENT] = parent_index if sp[PARENT] < 0 else sp[PARENT] + base
            sp[OP] = self.op
            sp[PHASE] = self.phase
            self.spans.append(sp)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> list:
    """Duration minus the time covered by direct children (spans nest, one thread)."""
    out = [sp[END] - sp[START] for sp in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            out[sp[PARENT]] -= sp[END] - sp[START]
    return out


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def per_layer_metrics(spans, n_passes: int, overhead_pct: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.

    Totals and counts are per pass: spans of the set-up phase count once,
    spans of the traced passes are divided by their number.  Per-call
    figures pool every call.  An idle layer reads 0.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def per_pass(indices, value):
        total = 0.0
        for i in indices:
            v = value(i)
            total += v if spans[i][PHASE] == "setup" else v / n_passes
        return total

    def dur(i):
        return spans[i][END] - spans[i][START]

    def attr(i, key, default=None):
        a = spans[i][ATTRS]
        return a.get(key, default) if a else default

    m = {}
    q = idx("quad_rule")
    for s in STAGES:
        m[f"quadrature.quad_rule_ms.s{s}"] = (1e3 * _mean([dur(i) for i in q if attr(i, "s") == s]), "ms")
    m["quadrature.quad_rule_calls"] = (per_pass(q, lambda i: 1), "count")
    d = idx("discrete_ip_exact")
    m["quadrature.discrete_ip_exact_calls"] = (per_pass(d, lambda i: 1), "count")
    m["quadrature.discrete_ip_exact_us"] = (1e6 * _mean([dur(i) for i in d]), "us")

    ham = [i for i, sp in enumerate(spans) if sp[LAYER] == "hamiltonian"]
    m["hamiltonian.build_ms"] = (1e3 * per_pass(ham, lambda i: selfs[i]), "ms")

    c = idx("conditions_up_to")
    m["trees.classes"] = (per_pass(c, lambda i: attr(i, "classes", 0)), "count")
    m["trees.conditions_up_to_ms"] = (1e3 * per_pass(c, dur), "ms")
    m["trees.residual_us"] = (1e6 * _mean([dur(i) for i in idx("energy_condition_residual")]), "us")

    integ = idx("integrate")
    for meth in METHODS:
        runs = [i for i in integ if attr(i, "method") == meth]
        good = [i for i in runs if attr(i, "error") is None]
        steps = sum(attr(i, "steps", 0) for i in runs)
        good_steps = sum(attr(i, "steps", 0) for i in good)
        iters = sum(attr(i, "iterations", 0) for i in good)
        m[f"integrators.us_per_step.{meth}"] = (
            1e6 * sum(selfs[i] for i in runs) / steps if steps else 0.0, "us")
        m[f"integrators.us_per_iteration.{meth}"] = (
            1e6 * sum(selfs[i] for i in good) / iters if iters else 0.0, "us")
        m[f"integrators.iterations_per_step.{meth}"] = (iters / good_steps if good_steps else 0.0, "count")
        m[f"integrators.newton_per_step.{meth}"] = (
            sum(attr(i, "newton", 0) for i in good) / good_steps if good_steps else 0.0, "count")
        m[f"integrators.failed.{meth}"] = (
            per_pass([i for i in runs if attr(i, "error") is not None], lambda i: 1), "count")
    m["integrators.write_run_csv_ms"] = (1e3 * _mean([dur(i) for i in idx("write_run_csv")]), "ms")

    bm, rk = idx("build_M"), idx("rank_kernel")
    for s in STAGES:
        m[f"conditions.build_M_ms.s{s}"] = (1e3 * _mean([dur(i) for i in bm if attr(i, "s") == s]), "ms")
    for s in STAGES:
        m[f"conditions.rank_kernel_ms.s{s}"] = (1e3 * _mean([dur(i) for i in rk if attr(i, "s") == s]), "ms")
    sweeps = idx("uniqueness_sweep")
    in_sweep = [i for i in rk if _has_ancestor(spans, i, "uniqueness_sweep")]
    m["conditions.rank_kernel_calls_per_sweep"] = (len(in_sweep) / len(sweeps) if sweeps else 0.0, "count")
    m["conditions.kernel_rowsum_self_ms"] = (1e3 * per_pass(idx("kernel_rowsum"), lambda i: selfs[i]), "ms")
    m["conditions.uniqueness_sweep_self_ms"] = (1e3 * per_pass(sweeps, lambda i: selfs[i]), "ms")
    done = [i for i in rk if attr(i, "error") is None]
    m["conditions.structured_frac"] = (
        sum(1 for i in done if attr(i, "structured")) / len(rk) if rk else 0.0, "frac")
    # one error raised deep in the algebra passes through several spans: count it once
    errors = {}
    for i, sp in enumerate(spans):
        if sp[LAYER] == "conditions" and attr(i, "error") in PRECISION_ERRORS:
            errors[(attr(i, "error_id"), sp[OP], sp[PHASE])] = i
    m["conditions.precision_errors"] = (per_pass(list(errors.values()), lambda i: 1), "count")

    imports = [dur(i) for i in idx("cli.import")]
    m["cli.import_ms"] = (1e3 * statistics.median(imports) if imports else 0.0, "ms")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (per_pass(idx(f"cli.{cmd}"), dur), "s")

    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
