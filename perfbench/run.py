#!/usr/bin/env python3
"""Benchmark of the avfrk package: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload drift --seed 1203 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Workloads: drift, large_step, certify, cli (see perfbench/README.md), or
`all`, which runs each of them in turn in its own process.  The package is
imported from `src/` next to this directory; nothing needs building.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A run repeats whole passes over the
workload's operations until --seconds have gone by.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  The exit code is 0 when every output check
passed and 1 when one failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"  # temporary files and trace dumps

WORKLOADS = ("drift", "large_step", "certify", "cli")
DEFAULT_SEED = 1203
CHILD_TIMEOUT = 150  # seconds for one child process
CAL_EVERY_S = 0.1  # re-time the calibration loop after this much measured time

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("completed_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# child processes


class ChildResult:
    __slots__ = ("returncode", "stdout", "stderr", "maxrss_kb")

    def __init__(self, returncode, stdout, stderr, maxrss_kb):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv, env, timeout=CHILD_TIMEOUT) -> ChildResult:
    """Run argv to completion; wait4 gives the child's own peak RSS."""
    with tempfile.TemporaryFile(dir=RUN_DIR) as out, tempfile.TemporaryFile(dir=RUN_DIR) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise TimeoutError(f"{argv[1:3]} ran longer than {timeout} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# building a workload


def build_ops(workload, seed, sizes, tracer, workdir):
    import workloads as wl

    def build_span():
        return tracer.span("hamiltonian.build", "hamiltonian")

    if workload == "cli":
        return wl.cli_ops(seed, sizes, build_span, workdir)
    return wl.MAKE_OPS[workload](seed, sizes, build_span)


# ---------------------------------------------------------------------------
# measuring


class Runner:
    """Runs passes over the ops, keeps per-op times and check outcomes."""

    def __init__(self, ops, tracer, workdir):
        self.ops = ops
        self.tracer = tracer
        self.workdir = workdir
        self.env = child_env()
        # per op: raw seconds, and seconds over the calibration loop's time
        self.times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.ratios = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.cal_s = calibrate.loop_s()
        self.since_cal = 0.0
        self.pending: list = []  # (traced, op index, seconds) since the last calibration
        self.attempted = 0
        self.failed = 0
        self.done = 0.0
        self.want = 0.0
        self.child_rss_kb = 0
        self.failures: list = []

    def _cli_call(self, op, traced, span_index):
        if traced:
            spans_file = self.workdir / "spans.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *op.argv]
        else:
            argv = [sys.executable, "-m", "avfrk.cli", *op.argv]
        res = run_child(argv, self.env)
        self.child_rss_kb = max(self.child_rss_kb, res.maxrss_kb)
        if traced and res.returncode == 0:
            self.tracer.adopt(json.loads(spans_file.read_text()), span_index)
        return res

    def run_pass(self, traced: bool) -> None:
        import workloads as wl

        tracer = self.tracer
        for k, op in enumerate(self.ops):
            if self.since_cal >= CAL_EVERY_S:
                self._calibrate()
            tracer.op = k
            raised = None
            t0 = perf_counter()
            try:
                if op.argv:
                    span = tracer.span(f"cli.{op.name}", "cli") if traced else nullcontext(-1)
                    with span as span_index:
                        res = self._cli_call(op, traced, span_index)
                else:
                    res = op.call()
            except Exception as e:  # an op that raises is a failed op; keep measuring
                raised = e
            elapsed = perf_counter() - t0
            if raised is None:
                try:
                    outcome = op.check(res)
                except Exception as e:  # a check that cannot read the output fails it
                    outcome = wl.Outcome(False, detail=f"check raised {type(e).__name__}: {e}")
            else:
                outcome = wl.Outcome(False, detail=f"raised {type(raised).__name__}: {raised}")
            self.times[traced][k].append(elapsed)
            self.pending.append((traced, k, elapsed))
            self.since_cal += elapsed
            self.attempted += 1
            self.done += outcome.done
            self.want += outcome.want
            if not outcome.ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op.name}: {outcome.detail}")
        self._calibrate()

    def _calibrate(self):
        """Time the loop again; ops since the last timing divide by the mean of the two."""
        cal = calibrate.loop_s()
        norm = 0.5 * (self.cal_s + cal)
        for traced, k, elapsed in self.pending:
            self.ratios[traced][k].append(elapsed / norm)
        self.pending.clear()
        self.cal_s = cal
        self.since_cal = 0.0

    def pass_s(self, traced: bool) -> float:
        """Calibrated time of one pass: the sum over ops of each op's median."""
        return calibrate.NOMINAL_S * sum(statistics.median(r) for r in self.ratios[traced])

    def op_p50_ms(self) -> float:
        """Median over the ops of each op's calibrated median time."""
        return 1e3 * calibrate.NOMINAL_S * statistics.median(
            statistics.median(r) for r in self.ratios[False])

    def raw_pass_s(self) -> float:
        """Uncalibrated: the sum over ops of each op's median wall time."""
        return sum(statistics.median(t) for t in self.times[False])


def measure_setup(args, n: int) -> list:
    """Calibrated wall times of n fresh processes that import and build the inputs."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    out = []
    cal = calibrate.loop_s()
    for _ in range(n):
        t0 = perf_counter()
        res = run_child(argv, dict(os.environ))
        wall = perf_counter() - t0
        cal_after = calibrate.loop_s()
        out.append(calibrate.NOMINAL_S * wall / (0.5 * (cal + cal_after)))
        cal = cal_after
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-300:]}")
    return out


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from tracing import Tracer, per_layer_metrics

    sizes = wl.TINY if args.size == "tiny" else wl.FULL
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        tracer = Tracer()  # untraced runs only use it for the spans opened here
        if args.setup_only:
            build_ops(args.workload, args.seed, sizes, tracer, workdir)
            return 0
        setup = [] if args.trace else measure_setup(args, sizes.setup_probes)
        with tracer.installed() if args.trace else nullcontext():
            ops = build_ops(args.workload, args.seed, sizes, tracer, workdir)
        runner = Runner(ops, tracer, workdir)

        t_start = perf_counter()
        passes = {False: 0, True: 0}
        while True:
            # the traced run alternates untraced and traced passes, to compare them
            traced = bool(args.trace) and passes[False] > passes[True]
            if traced:
                tracer.phase = "pass"
                with tracer.installed():
                    runner.run_pass(True)
            else:
                runner.run_pass(False)
            passes[traced] += 1
            enough = passes[False] >= 1 and (passes[True] >= 1 or not args.trace)
            if enough and perf_counter() - t_start >= args.seconds:
                break
        measured_s = perf_counter() - t_start

        if args.trace:
            overhead = 100.0 * (runner.pass_s(True) / runner.pass_s(False) - 1.0)
            layer = per_layer_metrics(tracer.spans, passes[True], overhead)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            traces = RUN_DIR / "traces"
            traces.mkdir(exist_ok=True)
            tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")
        else:
            rss_kb = runner.child_rss_kb if args.workload == "cli" else (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            values = {
                "setup_s": statistics.median(setup),
                "pass_s": runner.pass_s(False),
                "op_p50_ms": runner.op_p50_ms(),
                "completed_frac": runner.done / runner.want,
                "peak_rss_mb": rss_kb / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
          f"{passes[False]} untraced and {passes[True]} traced passes in {measured_s:.1f} s, "
          f"{len(setup)} set-up probes; uncalibrated pass {runner.raw_pass_s():.4g} s, "
          f"calibration loop {runner.cal_s * 1e3:.3g} ms")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for line in runner.failures:
        print(f"  FAILED {line}")
    print(json.dumps({"stamp": machine_stamp()}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads in one command


def run_all(args) -> int:
    """Each workload in its own process: their tables, then one combined result line."""
    RUN_DIR.mkdir(exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        res = run_child(argv, dict(os.environ), timeout=180)
        sys.stdout.write(res.stdout)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            code = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return code


# ---------------------------------------------------------------------------
# machine stamp


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke test's inputs")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (a set-up probe)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "avfrk" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
