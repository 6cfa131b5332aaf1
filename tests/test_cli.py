import json
from fractions import Fraction

import pytest

from avfrk.cli import main
from avfrk.conditions import build_M, rank_kernel
from avfrk.quadrature import quad_rule

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

    def test_left_endpoint_csv(self, capsys):
        code = main(["quad", "--s", "2", "--zeta", "-1", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "i,c,b"
        assert out[1] == "1,0.0,0.25"
        assert out[2].startswith("2,0.6666666666666666666")
        assert out[2].endswith(",0.75")

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

    def test_precision_floor(self, capsys):
        code = main(["rank", "--s", "2", "--precision", "20"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--precision >= 30" in err


class TestUniqueness:
    def test_two_stage_sweep(self, capsys):
        code, doc = run_json(capsys, ["uniqueness", "--s", "2", "--zeta", "0.5"])
        assert code == 0
        fit = doc["residual_fit"]
        assert abs(fit["slope"] - 2.0) < 1e-6
        assert fit["coeff_relative_error"] <= 1e-12
        assert abs(fit["expected_coeff"] - (1 / 2) ** 3 / 81) < 1e-15

    def test_even_degree_degenerates(self, capsys):
        code, doc = run_json(capsys, ["uniqueness", "--s", "3", "--zeta", "0", "--m", "6"])
        assert code == 0
        assert doc["residual_fit"] is None
        assert "linear stage" in doc["note"]

    def test_zero_beta(self, capsys):
        code = main(["uniqueness", "--s", "2", "--zeta", "0.5", "--betas", "0,0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nonzero" in err


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


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main(["nosuch"])
    assert exc_info.value.code == 2
