"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and twice traced, one pass each, and
checks the result lines against BENCHMARK.json, the exact repeat of the
counts, and the baseline facts the benchmark was defined with.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1203

# per-layer metrics that are counts or ratios of counts: they must repeat exactly
EXACT = (
    "quadrature.quad_rule_calls",
    "quadrature.discrete_ip_exact_calls",
    "trees.classes",
    "integrators.iterations_per_step.avf",
    "integrators.iterations_per_step.rk",
    "integrators.newton_per_step.avf",
    "integrators.newton_per_step.rk",
    "integrators.failed.avf",
    "integrators.failed.rk",
    "conditions.rank_kernel_calls_per_sweep",
    "conditions.structured_frac",
    "conditions.precision_errors",
)


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rank_kernel_calls(workload):
    spans = json.loads((ROOT / ".perfbench_run" / "traces" / f"{workload}-seed{SEED}.json").read_text())
    return sum(1 for sp in spans if sp[0] == "rank_kernel")


@pytest.fixture(scope="module")
def results():
    out = {}
    for w in WORKLOADS:
        traced = []
        for _ in range(2):
            traced.append(result(run(w, 1)))
            traced[-1]["rank_kernel_calls"] = rank_kernel_calls(w)
        out[w] = {"plain": result(run(w, 0)), "traced": traced}
    return out


def test_outputs_correct(results):
    for w, r in results.items():
        for res in [r["plain"]] + r["traced"]:
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, w


def test_every_metric_with_unit(results):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w, r in results.items():
        assert {k: v["unit"] for k, v in r["plain"]["metrics"].items()} == e2e, w
        for res in r["traced"]:
            assert {k: v["unit"] for k, v in res["metrics"].items()} == layer, w
        assert all(v["value"] > 0 for v in r["plain"]["metrics"].values()), w


def test_counts_repeat_exactly(results):
    for w, r in results.items():
        a, b = r["traced"]
        assert a["attempted"] == b["attempted"] and a["failed"] == b["failed"], w
        assert a["rank_kernel_calls"] == b["rank_kernel_calls"], w
        for name in EXACT:
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"], (w, name)


def test_baseline_facts(results):
    drift = results["drift"]["traced"][0]["metrics"]
    for meth in ("avf", "rk"):
        assert drift[f"integrators.iterations_per_step.{meth}"]["value"] == 8.0
        assert drift[f"integrators.newton_per_step.{meth}"]["value"] == 0.0
    certify = results["certify"]["traced"][0]["metrics"]
    assert certify["conditions.rank_kernel_calls_per_sweep"]["value"] == 2.0
    assert results["certify"]["traced"][0]["rank_kernel_calls"] > 0
    large = results["large_step"]
    assert large["plain"]["metrics"]["completed_frac"]["value"] < 1.0
    failed = large["traced"][0]["metrics"]
    assert failed["integrators.failed.avf"]["value"] + failed["integrators.failed.rk"]["value"] > 0


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("drift", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
