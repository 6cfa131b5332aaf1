import argparse
import decimal
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import avfrk
from avfrk import conditions, quadrature
from avfrk.cli import _dec, _json, main
from avfrk.conditions import build_M, rank_kernel
from avfrk.quadrature import g_poly, quad_rule, UniPoly
from _util import (
    reference_asym_bush_residual,
    reference_double_bush_residual,
    reference_triple_bush_residual,
    refuse_nodes,
)

QUARTIC_DOC = {
    "half_dim": 1,
    "terms": [
        {"exponents": [0, 2], "coeff": "1/2"},
        {"exponents": [4, 0], "coeff": "1/4"},
    ],
}


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(QUARTIC_DOC))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestQuad:
    def test_gauss_json(self, capsys):
        code, doc = run_json(capsys, ["quad", "--s", "2", "--zeta", "0"])
        assert code == 0
        assert doc["order"] == 4
        assert doc["c"][0].startswith("0.21132486540518711774")
        assert doc["c"][1].startswith("0.78867513459481288225")
        assert doc["b"] == ["0.5", "0.5"]

    def test_large_gauss_rule(self, capsys):
        # the largest rule of the quad tests, rounded from its integer Newton brackets
        code, doc = run_json(capsys, ["quad", "--s", "24", "--zeta", "0"])
        assert code == 0
        assert len(doc["c"]) == 24 and doc["order"] == 48

    def test_left_endpoint_csv(self, capsys):
        code = main(["quad", "--s", "2", "--zeta", "-1", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "i,c,b"
        assert out[1] == "1,0.0,0.25"
        assert out[2].startswith("2,0.6666666666666666666")
        assert out[2].endswith(",0.75")

    def test_nodes_outside_unit_interval(self, capsys):
        code, doc = run_json(capsys, ["quad", "--s", "3", "--zeta", "5"])
        assert code == 0
        assert doc["in_unit_interval"] is False
        assert doc["c"][-1].startswith("2.04")
        code = main(["quad", "--s", "3", "--zeta", "5", "--format", "csv"])
        out = capsys.readouterr()
        assert code == 0
        assert out.err.startswith("warning:") and out.err.count("\n") == 1
        assert out.out.splitlines()[0] == "i,c,b" and len(out.out.splitlines()) == 4
        assert main(["quad", "--s", "3", "--zeta", "0"]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["in_unit_interval"] is True
        assert out.err == ""

    def test_degenerate_zeta(self, capsys):
        code = main(["quad", "--s", "2", "--zeta", "5e9"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rule.json"
        code = main(["quad", "--s", "2", "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["s"] == 2

    def test_precision_controls_digits(self, capsys):
        code, doc = run_json(capsys, ["quad", "--s", "2", "--precision", "30"])
        assert code == 0
        mantissa = doc["c"][0].replace("0.", "")
        assert len(mantissa) == 25  # precision - 5

    def test_zeta_beyond_the_str_digit_limit(self, capsys):
        # 10^-5000 has more digits than str() of an int may print: it is scaled exactly first
        code, doc = run_json(capsys, ["quad", "--s", "2", "--zeta", "1e-5000", "--precision", "15"])
        assert code == 0 and doc["zeta"] == "1.0e-5000"


class TestTableau:
    def test_one_stage(self, capsys):
        code, doc = run_json(capsys, ["tableau", "--s", "1"])
        assert code == 0
        assert doc["A"] == [["0.5"]]
        assert doc["b"] == ["1.0"]
        assert doc["order"] == 2


class TestConditions:
    def test_default_degree_all_vanish(self, capsys):
        code, doc = run_json(capsys, ["conditions", "--s", "2"])
        assert code == 0
        assert doc["m"] == 4
        assert doc["tableau"] == "avf"
        assert len(doc["conditions"]) > 0
        for row in doc["conditions"] + doc["bushes"]:
            assert abs(float(row["residual"])) < 1e-40

    def test_rule_bush_rows_are_exact_zeros(self, capsys):
        code, doc = run_json(capsys, ["conditions", "--s", "3", "--zeta", "-1", "--precision", "30"])
        assert code == 0
        assert len(doc["bushes"]) == 20
        assert all(float(row["residual"]) == 0 for row in doc["bushes"])

    def test_degree_past_order_reports_defect(self, capsys):
        code, doc = run_json(capsys, ["conditions", "--s", "2", "--m", "5"])
        assert code == 0
        trees = {row["id"]: row for row in doc["conditions"]}
        bushes = {row["id"]: row for row in doc["bushes"]}
        assert abs(float(bushes["double_bush(1,4)"]["residual"]) - 1 / 120) < 1e-15
        assert abs(float(bushes["asym_bush(4)"]["residual"]) + 1 / 576) < 1e-15
        assert trees["[*,*,[*]]"]["order"] == 5
        assert "triple_bush(G_2,G_2,1)" in bushes

    def test_perturbed_tableau(self, capsys, tmp_path):
        path = tmp_path / "pert.json"
        path.write_text(json.dumps({"A": [[0.3, 0.1], [0.2, 0.5]]}))
        code, doc = run_json(capsys, ["conditions", "--s", "2", "--tableau", str(path)])
        assert code == 0
        by_id = {row["id"]: row for row in doc["conditions"]}
        assert abs(float(by_id["[*,*,[*]]"]["residual"])) > 1e-4

    def test_read_back_tableau_rows_are_exact(self, capsys, tmp_path):
        # the rule's printed c b^T read back: each bush row is the exact residual of that
        # matrix at the rule's rounded nodes, printed to precision - 5 digits
        base = ["--s", "3", "--zeta", "1/2"]
        assert main(["tableau", *base]) == 0
        A = json.loads(capsys.readouterr().out)["A"]
        path = tmp_path / "avf3.json"
        path.write_text(json.dumps({"A": A}))
        code, doc = run_json(capsys, ["conditions", *base, "--tableau", str(path)])
        assert code == 0
        rule, m, args = quad_rule(3, Fraction(1, 2)), 5, argparse.Namespace(precision=50)
        A = [[Fraction(x) for x in row] for row in A]
        x = lambda k: UniPoly([0] * k + [1])
        pairs = [(p, q) for p in range(1, m) for q in range(p, m)]
        want = [(f"double_bush({p},{q})", reference_double_bush_residual(A, rule, p, q)) for p, q in pairs if p < q]
        want += [
            (f"triple_bush(G_{p},G_{q},1)", reference_triple_bush_residual(A, rule, g_poly(p), g_poly(q), UniPoly([1])))
            for p, q in pairs
        ]
        want += [(f"asym_bush({q})", reference_asym_bush_residual(A, rule, q)) for q in range(1, m)]
        assert [(row["id"], row["residual"]) for row in doc["bushes"]] == [(i, _dec(r, args)) for i, r in want]
        assert any(r != 0 for _, r in want) and all(abs(r) < Fraction(1, 10**40) for _, r in want)

    def test_malformed_tableau(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code = main(["conditions", "--s", "2", "--tableau", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed JSON" in err

    def test_wrong_tableau_shape(self, capsys, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"A": [[0.3]]}))
        code = main(["conditions", "--s", "2", "--tableau", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "2x2" in err

    @pytest.mark.parametrize("field", ["A", "b", "c"])
    @pytest.mark.parametrize(
        "entry",
        [
            "1/0", "nan", "inf", "-inf", float("nan"),
            # JSON Infinity and -Infinity, and a JSON number beyond the float range
            pytest.param(float("inf"), id="Infinity"),
            pytest.param(float("-inf"), id="-Infinity"),
            pytest.param("<1e400>", id="1e400"),
        ],
    )
    def test_undefined_or_non_finite_entry(self, capsys, tmp_path, field, entry):
        doc = {"A": [[0.3, 0.1], [0.2, 0.5]], "b": [0.5, 0.5], "c": [0.25, 0.75]}
        if field == "A":
            doc["A"][1][0] = entry
        else:
            doc[field][1] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc).replace('"<1e400>"', "1e400"))
        code = main(["conditions", "--s", "2", "--tableau", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "tableau entry" in captured.err


class TestRank:
    def test_even_two_stage(self, capsys):
        code, doc = run_json(capsys, ["rank", "--s", "2"])
        assert code == 0
        assert doc["rank"] == 3
        assert doc["expected_rank"] == 3
        assert doc["kernel_dim"] == 1
        assert doc["verdict"] == "match"
        el = doc["kernel"][0]
        assert el["u"] == ["1", "-1"]
        assert el["v"] == ["1", "0"]

    def test_odd_two_stage(self, capsys):
        code, doc = run_json(capsys, ["rank", "--s", "2", "--zeta", "1/2"])
        assert code == 0
        assert doc["rank"] == 1
        assert doc["kernel_dim"] == 3
        assert doc["kernel"][1]["v"][0] == "1/2"

    def test_report_matches_library(self, capsys):
        code, doc = run_json(capsys, ["rank", "--s", "3", "--zeta", "1/2"])
        assert code == 0
        rank, basis = rank_kernel(build_M(quad_rule(3, Fraction(1, 2)), 5))
        assert doc["rank"] == rank
        assert doc["kernel_dim"] == basis.dim
        for entry, el in zip(doc["kernel"], basis.elements):
            assert entry["u"] == [str(x) for x in el.u]
            assert entry["v"] == [str(x) for x in el.v]

    def test_bad_degree(self, capsys):
        code = main(["rank", "--s", "2", "--m", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "m must be" in err

    def test_low_precision(self, capsys):
        # rank, kernel factors and the uniqueness verdict are exact, so the
        # working precision does not change them
        rank, sweep = {}, {}
        for prec in ("15", "50"):
            argv = ["--s", "5", "--zeta", "1/3", "--precision", prec]
            code, rank[prec] = run_json(capsys, ["rank"] + argv)
            assert code == 0
            code, sweep[prec] = run_json(capsys, ["uniqueness"] + argv)
            assert code == 0
        assert rank["15"]["kernel"] == rank["50"]["kernel"]
        assert rank["15"]["verdict"] == "match"
        fit = sweep["15"]["residual_fit"]
        assert fit == sweep["50"]["residual_fit"]
        assert fit["match"] and fit["kappa"] == fit["expected_kappa"]


class TestUniqueness:
    def test_two_stage_sweep(self, capsys):
        code, doc = run_json(capsys, ["uniqueness", "--s", "2", "--zeta", "0.5"])
        assert code == 0
        fit = doc["residual_fit"]
        assert abs(fit["slope"] - 2.0) < 1e-6
        assert fit["match"]
        assert fit["polynomial"] == ["0", "0", "1/648"]
        assert fit["kappa"] == fit["expected_kappa"] == "1/648"
        assert abs(fit["expected_coeff"] - (1 / 2) ** 3 / 81) < 1e-15

    def test_even_degree_degenerates(self, capsys):
        code, doc = run_json(capsys, ["uniqueness", "--s", "3", "--zeta", "0", "--m", "6"])
        assert code == 0
        assert doc["residual_fit"] is None
        assert "linear stage" in doc["note"]

    @pytest.mark.parametrize("argv", [["uniqueness", "--s", "1"], ["rank", "--s", "1", "--m", "1"]])
    def test_one_stage_odd_degree(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "s >= 2" in err

    def test_zero_beta(self, capsys):
        code = main(["uniqueness", "--s", "2", "--zeta", "0.5", "--betas", "0,0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nonzero" in err

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta(self, capsys, beta):
        code = main(["uniqueness", "--s", "2", "--zeta", "0.5", "--betas", f"{beta},0.1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("beta, named", [("1e200", "1.0e+200"), ("1e400", "1.0e+400")])
    def test_beta_past_float_range(self, capsys, beta, named):
        # kappa beta^2 overflows a float at 1e200, beta itself at 1e400
        code = main(["uniqueness", "--s", "3", "--zeta", "1/2", "--betas", f"1/3,{beta}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"beta = {named}" in captured.err

    @pytest.mark.parametrize("beta, named", [("1e-200", "1.0e-200"), ("1e-400", "1.0e-400")])
    def test_beta_below_float_range(self, capsys, beta, named):
        # kappa beta^2 underflows to 0.0 at 1e-200, beta itself at 1e-400: no zero is printed
        code = main(["uniqueness", "--s", "3", "--zeta", "1/2", "--betas", f"1/3,{beta}", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"beta = {named}" in captured.err

    def test_exact_betas(self, capsys):
        # each beta is parsed as an exact rational, so 1/10 is not the double nearest 0.1
        code, doc = run_json(capsys, ["uniqueness", "--s", "3", "--zeta", "1/2", "--betas", "1/3,1/10"])
        assert code == 0
        kappa = Fraction(doc["residual_fit"]["kappa"])
        betas = [Fraction(1, 3), Fraction(1, 10)]
        assert doc["betas"] == [float(b) for b in betas]
        assert doc["residuals"] == [float(kappa * b**2) for b in betas]

    def test_csv_states_the_exact_polynomial(self, capsys):
        code = main(["uniqueness", "--s", "3", "--zeta", "0", "--format", "csv"])
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert rows["polynomial"] == "0 0 0 27/50"
        assert rows["kappa"] == rows["expected_kappa"] == "27/50"
        assert rows["match"] == "True"

    def test_structure_failure_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(conditions, "_exact_factors", lambda M, alpha: None)
        code = main(["uniqueness", "--s", "3", "--zeta", "1/2"])
        err = capsys.readouterr().err
        assert code == 4
        assert "not rank one" in err
        assert "--precision" not in err


class TestIntegrate:
    def test_drift_report(self, capsys, quartic_file):
        code, doc = run_json(
            capsys,
            ["integrate", quartic_file, "--y0", "1.0,0.5", "--h", "0.05", "--steps", "1000"],
        )
        assert code == 0
        assert doc["method"] == "avf"
        assert doc["final_time"] == 50.0
        assert doc["max_energy_drift"] < 1e-11
        assert doc["max_step_residual"] < 1e-13

    def test_csv_trajectory(self, capsys, quartic_file, tmp_path):
        target = tmp_path / "run.csv"
        code, doc = run_json(
            capsys,
            [
                "integrate", quartic_file,
                "--y0", "1.0,0.5", "--h", "0.05", "--steps", "1000",
                "--output", str(target), "--format", "csv",
            ],
        )
        assert code == 0
        assert doc["csv"] == str(target)
        lines = target.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2,H,newton_iters"
        assert len(lines) == 1002  # header plus initial state plus 1000 steps

    def test_energy_evaluated_once_per_state(self, capsys, quartic_file, tmp_path, monkeypatch):
        # the finite check, the drift and the CSV all read the run's one list of energies
        from avfrk import integrators

        points, energy = [], integrators._energy

        def counted(sys_):
            H = energy(sys_)
            return lambda *y: points.append(y) or H(*y)

        monkeypatch.setattr(integrators, "_energy", counted)
        argv = ["integrate", quartic_file, "--y0", "1.0,0.5", "--h", "0.05", "--steps", "50"]
        code, doc = run_json(capsys, argv + ["--output", str(tmp_path / "run.csv")])
        assert code == 0 and len(points) == 51 and len(set(points)) == 51

    @pytest.mark.parametrize("h", [0.05, 1.3])
    def test_newton_steps_counted(self, capsys, quartic_file, h):
        # newton_steps counts the steps that switched to full Newton: none at h = 0.05, some of
        # the midpoint steps at h = 1.3, where the solve's moves shrink the residual by about half
        from avfrk.integrators import integrate, midpoint_tableau
        from avfrk.cli import _load_system

        argv = ["integrate", quartic_file, "--method", "midpoint", "--y0", "1.0,0.5", "--h", str(h)]
        code, doc = run_json(capsys, argv + ["--steps", "20"])
        stats = integrate(_load_system(quartic_file), midpoint_tableau(), [1.0, 0.5], h, 20).solver_stats
        assert code == 0
        assert doc["newton_steps"] == sum(1 for st in stats if st.newton_iterations)
        assert (doc["newton_steps"] > 0) == (h > 1) and doc["newton_steps"] <= doc["newton_iterations_total"]

    def test_rank_one_tableau_method(self, capsys, quartic_file):
        code, doc = run_json(
            capsys,
            [
                "integrate", quartic_file,
                "--y0", "1.0,0.5", "--h", "0.05", "--steps", "200",
                "--method", "rk", "--s", "2", "--zeta", "0",
            ],
        )
        assert code == 0
        # order-4 rule on a quartic Hamiltonian: still energy-preserving
        assert doc["max_energy_drift"] < 1e-12

    def test_overflowing_start_energy(self, capsys, quartic_file):
        # finite states, but H(y0) = q^4 / 4 at q = 1e80 overflows a float: bad input
        code = main(["integrate", quartic_file, "--y0", "1e80,0", "--h", "1e-200", "--steps", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: H(y0) = inf is not finite")

    def test_overflowing_later_energy(self, capsys, tmp_path):
        # H = p^2/2 - q: p grows by h each step, and p^2 overflows at the first new state
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({
            "half_dim": 1,
            "terms": [{"exponents": [0, 2], "coeff": "1/2"}, {"exponents": [1, 0], "coeff": "-1"}],
        }))
        code = main(["integrate", str(path), "--y0", "0,1.3e154", "--h", "1e153", "--steps", "3"])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith("error: step 0: H = inf at the new state is not finite")

    def test_json_is_strict(self):
        # a NaN or infinity is a ValueError (exit 2), never printed as invalid JSON
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _json({"max_energy_drift": bad})

    def test_missing_file(self, capsys, tmp_path):
        code = main(
            ["integrate", str(tmp_path / "nope.json"), "--y0", "1,0", "--h", "0.1", "--steps", "2"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_solver_failure(self, capsys, quartic_file):
        code = main(
            [
                "integrate", quartic_file,
                "--y0", "1.0,0.5", "--h", "50", "--max-iterations", "1", "--steps", "5",
            ]
        )
        err = capsys.readouterr().err
        assert code == 5
        assert "solver failed at step 0: no convergence" in err

    def test_singular_newton_is_solver_failure(self, capsys, tmp_path):
        # H = (p^2 - q^2)/2 at h = 2: the sweep stalls and h/2 J_f - I is singular
        saddle = {
            "half_dim": 1,
            "terms": [
                {"exponents": [0, 2], "coeff": "1/2"},
                {"exponents": [2, 0], "coeff": "-1/2"},
            ],
        }
        path = tmp_path / "saddle.json"
        path.write_text(json.dumps(saddle))
        code = main(["integrate", str(path), "--y0", "1,0", "--h", "2", "--steps", "3"])
        err = capsys.readouterr().err
        assert code == 5
        assert "solver failed at step 0: Newton matrix is singular" in err

    def test_non_finite_state_is_input_error(self, capsys, quartic_file):
        code = main(["integrate", quartic_file, "--y0", "nan,0.5", "--h", "0.1", "--steps", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "finite" in err

    def test_y0_required(self, quartic_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["integrate", quartic_file, "--h", "0.1", "--steps", "2"])
        assert exc_info.value.code == 2


class TestOrder:
    def test_slope(self, capsys, quartic_file):
        code, doc = run_json(
            capsys,
            [
                "order", quartic_file,
                "--y0", "1.0,0.5", "--t-end", "2.0", "--hs", "0.1,0.05,0.025",
            ],
        )
        assert code == 0
        assert 1.9 < doc["slope"] < 2.1
        assert len(doc["errors"]) == 3

    def test_too_few_step_sizes(self, capsys, quartic_file):
        code = main(
            ["order", quartic_file, "--y0", "1.0,0.5", "--t-end", "2.0", "--hs", "0.1,0.05"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "3" in err

    @pytest.mark.parametrize("bad", ["0", "-0.1", "inf", "nan"])
    def test_impossible_step_sizes(self, capsys, quartic_file, bad):
        base = ["order", quartic_file, "--y0", "1.0,0.5"]
        for argv in (
            base + ["--t-end", "2.0", f"--hs={bad},0.05,0.025"],
            base + [f"--t-end={bad}", "--hs", "0.1,0.05,0.025"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error:") and "positive and finite" in captured.err

    def test_subnormal_step_size(self, capsys, quartic_file):
        # t_end / h overflows to inf: an input error before any run, not a traceback
        code = main(
            ["order", quartic_file, "--y0", "1.0,0.5", "--t-end", "2.0", "--hs", "1e-320,0.05,0.025"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_absurd_step_count(self, capsys, quartic_file):
        # 2 / 1e-300 steps is finite but unbounded work: an input error before any run
        code = main(
            ["order", quartic_file, "--y0", "1.0,0.5", "--t-end", "2.0", "--hs", "1e-300,0.05,0.025"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "takes more than 1000000 steps" in captured.err

    @pytest.mark.parametrize("hs", ["0.1,0.1,0.1", "0.1,0.1000001,0.05"])
    def test_degenerate_step_sizes(self, capsys, quartic_file, hs):
        # equal effective step sizes leave no slope to fit
        code = main(["order", quartic_file, "--y0", "1.0,0.5", "--t-end", "2.0", "--hs", hs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "distinct" in captured.err


# Runs in a fresh interpreter: numpy stays unloaded by the import and by every
# command, Newton steps and a singular Newton matrix included.
_STARTUP_SCRIPT = """
import contextlib, io, json, sys
import avfrk
assert "numpy" not in sys.modules, "import avfrk"
from avfrk.cli import main

ham, saddle = sys.argv[1], sys.argv[2]
run = ["integrate", ham, "--steps", "200"]
newton_totals = []
# from (2, 0.5) at h = 1.5 the step-start matrix's sweeps contract too slowly and switch to Newton
for argv in (
    ["quad", "--s", "3", "--zeta", "1/2"],
    ["tableau", "--s", "3"],
    ["conditions", "--s", "3"],
    ["rank", "--s", "4"],
    ["uniqueness", "--s", "3"],
    ["order", ham, "--y0", "0.3,0.2", "--t-end", "1.0", "--hs", "0.1,0.05,0.025"],
    run + ["--y0", "0.3,0.2", "--h", "0.05"],
    run + ["--y0", "2,0.5", "--h", "1.5"],
    run + ["--y0", "2,0.5", "--h", "1.5", "--method", "midpoint"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
    if argv[0] == "integrate":
        newton_totals.append(json.loads(out.getvalue())["newton_iterations_total"])
assert newton_totals[0] == 0 and all(newton_totals[1:]), newton_totals
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["integrate", saddle, "--y0", "1,0", "--h", "2", "--steps", "3"])
assert code == 5, code
assert "solver failed at step 0: Newton matrix is singular: zero pivot in column 1" in err.getvalue()
assert "numpy" not in sys.modules
"""


def test_no_command_loads_numpy(tmp_path):
    # the cli workload's kind of system: a harmonic well with a quartic perturbation
    ham = {
        "half_dim": 1,
        "terms": [
            {"exponents": [2, 0], "coeff": "1/2"},
            {"exponents": [0, 2], "coeff": "1/2"},
            {"exponents": [3, 1], "coeff": "-1/20"},
            {"exponents": [1, 1], "coeff": "3/40"},
        ],
    }
    saddle = {
        "half_dim": 1,
        "terms": [
            {"exponents": [0, 2], "coeff": "1/2"},
            {"exponents": [2, 0], "coeff": "-1/2"},
        ],
    }
    paths = []
    for name, doc in (("ham.json", ham), ("saddle.json", saddle)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, *paths],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr


# Runs in a fresh interpreter: the package import registers every layer in sys.modules and
# executes none, then one command runs.  A layer not executed yet is still LazyLoader's
# placeholder module; executing it makes it a plain module.  No command loads dataclasses, whose
# import pulls in inspect, ast and dis.
_LOADED_SCRIPT = """
import contextlib, io, json, sys, types
import avfrk

def executed():
    return sorted(m for m, mod in sys.modules.items() if m.startswith("avfrk.") and type(mod) is types.ModuleType)

registered = sorted(m for m in sys.modules if m.startswith("avfrk."))
package = executed()
from avfrk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([registered, package, code, executed(), "mpmath" in sys.modules, "numpy" in sys.modules, "dataclasses" in sys.modules]))
"""

_RUN = ["--y0", "0.5,0.1"]


@pytest.mark.parametrize(
    "argv, modules, mpmath",
    [
        # the rule's exact nodes and weights, and the exact tableau built from them
        (["quad", "--s", "3", "--zeta", "1/2"], "cli quadrature", False),
        (["tableau", "--s", "3"], "cli quadrature trees", False),
        # exact certificates: no stepping
        (["conditions", "--s", "3"], "cli conditions quadrature trees", False),
        (["rank", "--s", "4"], "cli conditions quadrature", False),
        (["uniqueness", "--s", "3", "--zeta", "1/3"], "cli conditions quadrature", False),
        # float stepping on correctly rounded float nodes: no mpf, no condition algebra
        (["integrate", "{ham}", *_RUN, "--h", "0.1", "--steps", "5"], "cli hamiltonian integrators quadrature", False),
        (
            ["integrate", "{ham}", *_RUN, "--h", "0.1", "--steps", "5", "--method", "rk", "--s", "3"],
            "cli hamiltonian integrators quadrature trees",
            False,
        ),
        (
            ["integrate", "{ham}", *_RUN, "--h", "0.1", "--steps", "5", "--method", "midpoint"],
            "cli hamiltonian integrators quadrature trees",
            False,
        ),
        (["order", "{ham}", *_RUN, "--t-end", "1", "--hs", "0.1,0.05,0.025"], "cli hamiltonian integrators quadrature", False),
        # a tableau file's exact entries and its bush rows at the rule's rounded nodes
        (["conditions", "--s", "2", "--tableau", "{tableau}"], "cli conditions quadrature trees", False),
    ],
)
def test_command_loads_only_what_it_runs(quartic_file, tmp_path, argv, modules, mpmath):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tableau = tmp_path / "tableau.json"
    tableau.write_text(json.dumps({"A": [["1/4", 0.1], [0.5, "0.25"]]}))
    res = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, *[a.format(ham=quartic_file, tableau=tableau) for a in argv]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    registered, package, code, loaded, has_mpmath, has_numpy, has_dataclasses = json.loads(res.stdout)
    assert registered == [f"avfrk.{m}" for m in sorted(avfrk._EXPORTS)]
    assert package == [] and code == 0
    assert loaded == [f"avfrk.{m}" for m in modules.split()]
    assert has_mpmath == mpmath and not has_numpy and not has_dataclasses


def test_every_public_name_resolves():
    # the lazy package hands out each name of its submodules, and lists them for dir()
    for name in avfrk.__all__:
        module = importlib.import_module(f"avfrk.{avfrk._MODULE[name]}")
        assert getattr(avfrk, name) is getattr(module, name)
    assert set(avfrk.__all__) <= set(dir(avfrk))
    with pytest.raises(AttributeError):
        avfrk.no_such_name


def _nstr(x: Fraction, precision: int) -> str:
    with mp.workdps(precision + 10):
        return mp.nstr(mp.mpf(x.numerator) / x.denominator, max(precision - 5, 5))


def _printed(x: Fraction, precision: int) -> str:
    """What _dec prints: nstr's text below 2^+-3500, beyond it the exact digits of nstr's mpf.

    Beyond 2^+-3500 nstr divides by a power of ten rounded to its working
    bits and can misprint a decimal tie; there the mpf is written exactly by
    the decimal module, truncated to one digit past max(precision - 5, 5)
    and rounded half up on that digit, in exponent form.
    """
    with mp.workdps(precision + 10):
        sign, man, exp, bc = (mp.mpf(x.numerator) / x.denominator)._mpf_
    if not man or abs(exp + bc) <= 3500:
        return _nstr(x, precision)
    digits = max(precision - 5, 5)
    v = decimal.Decimal((man << max(exp, 0)) * 5 ** max(-exp, 0))  # the mpf times 10^-min(exp, 0)
    v = decimal.Context(prec=decimal.MAX_PREC).scaleb(v, min(exp, 0))
    v = decimal.Context(prec=digits + 1, rounding=decimal.ROUND_DOWN).plus(v)
    v = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP).plus(v)
    text = "".join(map(str, v.as_tuple().digits)).rstrip("0") or "0"
    return f"{'-' * sign}{text[0]}.{text[1:] or '0'}e{v.adjusted():+d}"


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-(10**40), 10**40),
    den=st.integers(1, 10**40),
    shift=st.one_of(st.integers(-40, 40), st.integers(1000, 20000), st.integers(-20000, -1000)),
    precision=st.integers(10, 80),
)
@example(num=1, den=3, shift=0, precision=10)
@example(num=-999999999, den=1, shift=-3, precision=10)  # rounds up to the next power of ten
@example(num=1, den=8, shift=-6, precision=20)  # fixed point just above the exponent form
@example(num=0, den=1, shift=0, precision=50)
@example(num=3, den=1, shift=-1055, precision=10)  # below 2^-3500: scaled by an exact power of ten first
@example(num=1, den=1, shift=-20000, precision=15)
@example(num=-7, den=3, shift=20000, precision=80)
# the mpf is 6.38034999...e1583 at 70 bits, which nstr prints as 6.3804e+1583
@example(num=638035, den=1, shift=1578, precision=10)
# the mpf is 4.01875000...029e1284: digits truncated twice, as below 2^3500, read 4.0187
@example(num=1286, den=32, shift=1283, precision=10)
def test_exact_decimal_matches_nstr(num, den, shift, precision):
    # a Fraction prints as mp.nstr prints its mpf at precision + 10, beyond 2^+-3500 as the
    # exact digits of that mpf
    x = Fraction(num, den) * Fraction(10) ** shift
    assert _dec(x, argparse.Namespace(precision=precision)) == _printed(x, precision)


def test_exact_decimal_of_a_tie_beyond_2_3500():
    # beyond 2^3500 a decimal tie prints its mpf's own digits, on either side of the tie
    args = argparse.Namespace(precision=10)
    below, above = Fraction(638035) * 10**1578, Fraction(1286, 32) * 10**1283
    assert _dec(below, args) == _printed(below, 10) == "6.3803e+1583" != _nstr(below, 10)
    assert _dec(above, args) == _printed(above, 10) == "4.0188e+1284"


@settings(max_examples=300, deadline=None)
@given(
    lead=st.integers(1, 10**80),
    offset=st.integers(-(10**6), 10**6),
    scale=st.integers(6, 60),
    shift=st.integers(-40, 40),
    precision=st.integers(10, 80),
    negative=st.booleans(),
)
@example(lead=2345, offset=0, scale=6, shift=0, precision=10, negative=False)  # 0.123455
def test_exact_decimal_matches_nstr_near_ties(lead, offset, scale, shift, precision, negative):
    # within 10^-6 of a last-digit unit of a tie, where nstr rounds a binary value
    digits = max(precision - 5, 5)
    lead = 10 ** (digits - 1) + lead % (9 * 10 ** (digits - 1))  # digits digits, then the tie
    x = (lead + Fraction(1, 2) + Fraction(offset, 10**scale)) * Fraction(10) ** (shift - digits)
    x = -x if negative else x
    assert _dec(x, argparse.Namespace(precision=precision)) == _nstr(x, precision)


def test_exact_decimal_ties_round_as_nstr():
    args = argparse.Namespace(precision=10)
    # the mpf of 0.123455 lies below the tie; exact rounding half away from zero gave 0.12346
    assert _dec(Fraction(123455, 10**6), args) == "0.12345" == _nstr(Fraction(123455, 10**6), 10)
    assert _dec(Fraction(-123455, 10**6), args) == "-0.12345"
    # an exact binary tie rounds half up
    assert _dec(Fraction(1, 256), args) == "0.0039063" == _nstr(Fraction(1, 256), 10)
    assert _dec(Fraction(123454999, 10**9), args) == "0.12345"


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main(["nosuch"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--s", "4", "--zeta", "-1"],
        ["rank", "--s", "3"],
        ["rank", "--s", "6", "--zeta", "1/2", "--format", "csv"],
        ["uniqueness", "--s", "5", "--zeta", "1/3"],
        ["uniqueness", "--s", "3", "--zeta", "1/2", "--betas", "1/3,1/10"],
        ["conditions", "--s", "4", "--zeta", "0"],
        ["conditions", "--s", "3", "--zeta", "1/2", "--m", "6", "--format", "csv"],
        # a large rule at a low precision
        ["conditions", "--s", "29", "--zeta", "1", "--precision", "15", "--m", "2"],
    ],
)
def test_certificate_commands_never_polish(monkeypatch, capsys, argv):
    # rank, uniqueness and conditions without --tableau read the rule's exact core only;
    # their output is unchanged
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(quadrature, "_rounded_rule", refuse_nodes)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_conditions_reads_no_node(monkeypatch, capsys):
    # the rule's own tableau needs its exact core only: QuadRule.c and .b are never read
    def refuse(rule):
        raise AssertionError("a rule's nodes or weights were read")

    monkeypatch.setattr(quadrature.QuadRule, "c", property(refuse))
    monkeypatch.setattr(quadrature.QuadRule, "b", property(refuse))
    assert main(["conditions", "--s", "29", "--zeta", "1", "--precision", "15", "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["conditions"]
