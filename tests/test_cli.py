"""End-to-end tests for the metrika command line."""

import argparse
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from metrika import all_configurations, cli, graph_seed
from metrika.logic import Relation, Signature
from metrika.rationals import ZERO, ONE
from metrika.structures import PresentedStructure, from_distance_matrix, save


@pytest.fixture()
def two_point(tmp_path):
    path = tmp_path / "two.json"
    m = from_distance_matrix([[ZERO, F(1, 2)], [F(1, 2), ZERO]])
    save(m, path)
    return str(path)


@pytest.fixture()
def two_point_p(tmp_path):
    """The two-point space with a unary relation P beside d."""
    path = tmp_path / "two_p.json"
    d = from_distance_matrix([[ZERO, F(1, 2)], [F(1, 2), ZERO]]).tables["d"]
    sig = Signature((Relation("d", 2, ONE), Relation("P", 1, ONE)))
    save(PresentedStructure(sig, 2, {"d": d, "P": {(0,): ZERO, (1,): F(1, 2)}}), path)
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_formula_value(self, two_point, capsys):
        code, out = run(
            ["eval", "--structure", two_point, "--formula", "d(x,y)",
             "--assign", "x=0,y=1"], capsys)
        assert code == 0
        assert out.strip() == "1/2"

    def test_bad_assignment_usage_error(self, two_point, capsys):
        code, _ = run(
            ["eval", "--structure", two_point, "--formula", "d(x,y)",
             "--assign", "nonsense"], capsys)
        assert code == 2

    def test_missing_file_is_format_error(self, tmp_path, capsys):
        code, _ = run(
            ["eval", "--structure", str(tmp_path / "nope.json"),
             "--formula", "d(x,y)", "--assign", "x=0,y=1"], capsys)
        assert code == 3


class TestCheckValidate:
    def test_condition_holds(self, two_point, capsys):
        code, out = run(
            ["check", "--structure", two_point,
             "--condition", "sup x. d(x,x) <= 0"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "holds"

    def test_condition_fails(self, two_point, capsys):
        code, out = run(
            ["check", "--structure", two_point,
             "--condition", "sup x. sup y. d(x,y) <= 1/4"], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "fails"

    def test_validate_ok(self, two_point, capsys):
        code, out = run(["validate", "--structure", two_point], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and obj["is_metric"]

    def test_validate_flags_violations(self, tmp_path, capsys):
        # corrupt a stored distance to break symmetry
        good = tmp_path / "good.json"
        save(from_distance_matrix([[ZERO, F(1, 2)], [F(1, 2), ZERO]]), good)
        data = json.loads(good.read_text())
        data["tables"]["d"][0][1] = "3/4"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = run(["validate", "--structure", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["violations"]


class TestSynthAndReport:
    def test_synth_report_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "ec.json"
        code, out = run(
            ["synth", "--theory", "empty-metric", "--budget", "10000",
             "--seed", "0", "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out)["points"] >= 2

        cfg_path = tmp_path / "configs.json"
        code, out = run(
            ["configs", "--size", "2", "--grid", "1/4", "--out",
             str(cfg_path)], capsys)
        assert code == 0
        assert json.loads(out)["count"] == len(all_configurations(2, 4))

        code, out = run(
            ["report", "--structure", str(out_path), "--configs",
             str(cfg_path), "--eps", "1/8"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["satisfied"] == obj["total"]

    def test_synth_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["synth", "--theory", "empty-metric", "--budget", "10000",
             "--seed", "5", "--out", str(a)], capsys)
        run(["synth", "--theory", "empty-metric", "--budget", "10000",
             "--seed", "5", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("METRIKA_SEED", "5")
        out_path = tmp_path / "env.json"
        code, _ = run(
            ["synth", "--theory", "empty-metric", "--budget", "10000",
             "--out", str(out_path)], capsys)
        assert code == 0
        direct = tmp_path / "direct.json"
        run(["synth", "--theory", "empty-metric", "--budget", "10000",
             "--seed", "5", "--out", str(direct)], capsys)
        assert out_path.read_bytes() == direct.read_bytes()

    def test_missing_seed_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("METRIKA_SEED", raising=False)
        code, _ = run(
            ["synth", "--theory", "empty-metric", "--budget", "10",
             "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2

    @pytest.mark.parametrize("verb", ["synth", "sample", "audit", "genericity"])
    def test_non_integer_seed_from_environment_usage_error(self, verb, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setenv("METRIKA_SEED", "abc")
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
        out = str(tmp_path / "out.json")
        argv = {
            "synth": ["synth", "--theory", "empty-metric", "--budget", "10"],
            "sample": ["sample", "--n", "2"],
            "audit": ["audit", "--kind", "sequential", "--n", "2", "--trials", "3",
                      "--formula", "d(x,y)", "--eps", "1/2"],
            "genericity": ["genericity", "--theta", str(theta_path), "--eps", "1/4",
                           "--n-values", "3", "--trials", "2"],
        }[verb]
        assert cli.main(argv + ["--out", out]) == 2
        err = assert_one_line_error(capsys, "usage error:")
        assert "METRIKA_SEED" in err and "'abc'" in err
        assert not (tmp_path / "out.json").exists()

    def test_budget_zero_writes_the_seed(self, tmp_path, capsys):
        code, out = run(
            ["synth", "--theory", "empty-metric", "--budget", "0",
             "--seed", "0", "--out", str(tmp_path / "x.json")], capsys)
        assert code == 0
        assert json.loads(out)["points"] == 1

    def test_report_fails_on_unsaturated_structure(self, two_point, tmp_path,
                                                   capsys):
        cfg_path = tmp_path / "configs.json"
        run(["configs", "--size", "2", "--grid", "1/4", "--out",
             str(cfg_path)], capsys)
        code, out = run(
            ["report", "--structure", two_point, "--configs", str(cfg_path),
             "--eps", "1/8"], capsys)
        assert code == 1
        obj = json.loads(out)
        assert obj["satisfied"] < obj["total"]


class TestSampleAuditGenericity:
    def test_sample_writes_valid_structure(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        code, out = run(
            ["sample", "--n", "5", "--kind", "sequential", "--grid", "1/8",
             "--seed", "1", "--out", str(out_path)], capsys)
        assert code == 0
        code, _ = run(["validate", "--structure", str(out_path)], capsys)
        assert code == 0

    def test_audit_report_fields(self, capsys):
        code, out = run(
            ["audit", "--kind", "rejection", "--n", "3", "--trials", "200",
             "--formula", "d(x,y)", "--eps", "1/2", "--grid", "1/4",
             "--seed", "0"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert {"max_gap", "sigma_bound", "flagged", "trials"} <= set(obj)

    def test_genericity_curve_and_csv(self, tmp_path, capsys):
        theta_path = tmp_path / "theta.json"
        theta = all_configurations(2, 2)[1]  # r12 = 1/2
        theta_path.write_text(json.dumps(theta.to_json()))
        out_path = tmp_path / "curve.json"
        csv_path = tmp_path / "curve.csv"
        code, _ = run(
            ["genericity", "--theta", str(theta_path), "--eps", "1/4",
             "--n-values", "3,5", "--trials", "50", "--grid", "1/8",
             "--seed", "0", "--out", str(out_path), "--csv",
             str(csv_path)], capsys)
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert [pt["n"] for pt in obj["curve"]] == [3, 5]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,frequency" and len(lines) == 3


    @pytest.mark.parametrize("verb", ["audit", "genericity"])
    def test_zero_trials_usage_error(self, verb, tmp_path, capsys):
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
        args = {
            "audit": ["audit", "--kind", "rejection", "--n", "3",
                      "--formula", "d(x,y)"],
            "genericity": ["genericity", "--theta", str(theta_path),
                           "--n-values", "3"],
        }[verb]
        code = cli.main(args + ["--trials", "0", "--eps", "1/2", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    def test_rejection_budget_is_one_line_domain_error(self, tmp_path, capsys):
        # 2000 proposals of 28 distances each on the 2^-16 grid: none is a
        # metric, and the run ends well within a second
        start = time.perf_counter()
        code = cli.main(
            ["sample", "--n", "8", "--kind", "rejection", "--max-tries", "2000",
             "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "2000 proposals" in err and "8-point" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_sigma_not_finite_and_non_negative_usage_error(self, sigma, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = cli.main(
            ["audit", "--kind", "sequential", "--n", "2", "--trials", "3", "--formula",
             "d(x,y)", "--eps", "1/2", "--sigma", sigma, "--seed", "0", "--out", str(out)])
        assert code == 2
        assert_one_line_error(capsys, "usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["sample", "audit", "genericity"])
    def test_max_tries_below_one_usage_error(self, verb, tmp_path, capsys):
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
        args = {
            "sample": ["sample", "--n", "3", "--out", str(tmp_path / "m.json")],
            "audit": ["audit", "--n", "3", "--trials", "5", "--formula",
                      "d(x,y)", "--eps", "1/2"],
            "genericity": ["genericity", "--theta", str(theta_path),
                           "--n-values", "3", "--trials", "5", "--eps", "1/2"],
        }[verb]
        code = cli.main(args + ["--kind", "rejection", "--max-tries", "0",
                                "--seed", "0"])
        assert code == 2
        assert_one_line_error(capsys, "usage error:")
        assert not (tmp_path / "m.json").exists()


BAD_TRIANGLE = [["0", "1", "1/4"], ["1", "0", "1/4"], ["1/4", "1/4", "0"]]


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    return err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--structure", "{s}", "--formula", "d(x,y)",
         "--assign", "x=a"],
        ["report", "--structure", "{s}", "--configs", "{c}"],
        ["report", "--structure", "{s}", "--configs", "{c}", "--eps", "0"],
        ["synth", "--theory", "empty-metric", "--eps", "0", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["sample", "--n", "0", "--seed", "0", "--out", "{o}"],
        ["encode", "--structure", "{s}", "--k", "-1"],
        ["configs", "--size", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--config-sizes", "0",
         "--budget", "5", "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--config-sizes", "x",
         "--budget", "5", "--seed", "0", "--out", "{o}"],
        ["genericity", "--theta", "{t}", "--eps", "1/4", "--n-values", "abc",
         "--trials", "2", "--seed", "0", "--out", "{o}"],
        ["genericity", "--theta", "{t}", "--eps", "1/4", "--n-values", "1",
         "--trials", "2", "--seed", "0", "--out", "{o}"],
        ["audit", "--kind", "sequential", "--n", "1", "--trials", "2",
         "--formula", "d(x,y)", "--eps", "1/2", "--seed", "0", "--out", "{o}"],
        ["compare", "--a", "{s}", "--b", "{s}", "--eps", "0", "--depth", "0",
         "--out", "{o}"],
        ["sample", "--n", "3", "--grid", "0", "--seed", "0", "--out", "{o}"],
        ["sample", "--n", "3", "--grid", "2", "--seed", "0", "--out", "{o}"],
        ["eval", "--structure", "{s}", "--formula", "d(x,y)",
         "--assign", "x=99,y=0"],
        ["report", "--structure", "{s}", "--eps", "1/8", "--out", "{o}"],
        ["report", "--configs", "{c}", "--eps", "1/8", "--out", "{o}"],
        ["report", "--eps", "1/8", "--out", "{o}"],
        ["sample", "--n", "3", "--grid", "abc", "--seed", "1", "--out", "{o}"],
        ["compare", "--a", "{s}", "--b", "{s}", "--eps", "abc", "--depth", "1",
         "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--eps", "abc", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["configs", "--size", "2", "--grid", "1/0", "--out", "{o}"],
        ["configs", "--size", "2", "--grid", "2/7", "--out", "{o}"],
        ["configs", "--size", "2", "--grid", "3/2", "--out", "{o}"],
        ["configs", "--size", "2", "--grid", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--config-grid", "0",
         "--budget", "5", "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--config-grid", "2/7",
         "--budget", "5", "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--grid", "0", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--grid", "3/2", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--budget", "-1", "--seed", "0",
         "--out", "{o}"],
        ["synth", "--theory", "graph", "--max-size", "0", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["compare", "--a", "{s}", "--b", "{s}", "--eps", "1/4", "--depth", "1",
         "--node-budget", "-1", "--out", "{o}"],
        ["compare", "--a", "{s}", "--b", "{s}", "--eps", "1/4", "--depth", "1",
         "--node-budget", "0", "--out", "{o}"],
        ["compare", "--a", "{s}", "--b", "{s}", "--eps", "-1", "--depth", "1",
         "--out", "{o}"],
        ["synth", "--theory", "graph", "--grid", "1/8", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "graph", "--eps", "1/8", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "graph", "--config-grid", "1/4", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "graph", "--config-sizes", "2", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["synth", "--theory", "empty-metric", "--max-size", "3", "--budget", "5",
         "--seed", "0", "--out", "{o}"],
        ["report", "--structure", "{s}", "--configs", "{c}", "--eps", "1/8",
         "--csv", "{v}", "--out", "{o}"],
        ["report", "--structure", "{s}", "--configs", "{c}", "--eps", "1/8",
         "--artifacts", "{a}", "--out", "{o}"],
        ["report", "--artifacts", "{a}", "--eps", "1/8", "--out", "{o}"],
    ], ids=["assign", "report-no-eps", "report-eps-0", "synth-eps-0",
            "sample-n-0", "encode-k-negative", "configs-size-0",
            "synth-config-sizes-0", "synth-config-sizes-x",
            "genericity-n-values-abc", "genericity-n-below-theta",
            "audit-n-below-arity", "compare-depth-0", "sample-grid-0",
            "sample-grid-2", "assign-out-of-range", "report-no-configs",
            "report-no-structure", "report-no-inputs", "sample-grid-abc",
            "compare-eps-abc", "synth-eps-abc", "configs-grid-1-over-0",
            "configs-grid-2-over-7", "configs-grid-3-over-2", "configs-grid-0",
            "synth-config-grid-0", "synth-config-grid-2-over-7", "synth-grid-0",
            "synth-grid-3-over-2", "synth-budget-negative", "synth-max-size-0",
            "compare-node-budget-negative", "compare-node-budget-0",
            "compare-eps-negative", "synth-graph-grid", "synth-graph-eps",
            "synth-graph-config-grid", "synth-graph-config-sizes",
            "synth-metric-max-size", "report-structure-csv",
            "report-structure-artifacts", "report-artifacts-eps"])
    def test_misuse_is_usage_error(self, argv, two_point, tmp_path, capsys):
        cfg_path = tmp_path / "configs.json"
        cfg_path.write_text(json.dumps([[["0", "1/2"], ["1/2", "0"]]]))
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
        artifact_path = tmp_path / "artifact.json"
        artifact_path.write_text(json.dumps({"verb": "compare",
                                             "version": cli.REPORT_VERSION}))
        paths = {"s": two_point, "c": str(cfg_path), "t": str(theta_path),
                 "a": str(artifact_path), "o": str(tmp_path / "out.json"),
                 "v": str(tmp_path / "out.csv")}
        code = cli.main([a.format(**paths) for a in argv])
        assert code == 2
        assert_one_line_error(capsys, "usage error:")
        assert not (tmp_path / "out.json").exists()
        assert not (tmp_path / "out.csv").exists()


class TestConfigurationFiles:
    def test_theta_breaking_triangle_is_format_error(self, tmp_path, capsys):
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps(BAD_TRIANGLE))
        code = cli.main(
            ["genericity", "--theta", str(theta_path), "--eps", "1/4",
             "--n-values", "3", "--trials", "2", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("file/format error:") and len(err.splitlines()) == 1

    def test_configs_breaking_triangle_is_format_error(self, two_point, tmp_path,
                                                      capsys):
        cfg_path = tmp_path / "configs.json"
        cfg_path.write_text(json.dumps([BAD_TRIANGLE]))
        code = cli.main(
            ["report", "--structure", two_point, "--configs", str(cfg_path),
             "--eps", "1/8"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("file/format error:") and len(err.splitlines()) == 1

    def test_numeric_theta_entries_are_format_error(self, tmp_path, capsys):
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps([[0, 1], [1, 0]]))
        code = cli.main(
            ["genericity", "--theta", str(theta_path), "--eps", "1/4",
             "--n-values", "3", "--trials", "2", "--seed", "0"])
        assert code == 3
        assert_one_line_error(capsys, "file/format error:")

    def test_configs_holding_one_matrix_is_format_error(self, two_point,
                                                       tmp_path, capsys):
        cfg_path = tmp_path / "configs.json"
        cfg_path.write_text(json.dumps([[0, 1], [1, 0]]))
        code = cli.main(
            ["report", "--structure", two_point, "--configs", str(cfg_path),
             "--eps", "1/8"])
        assert code == 3
        assert_one_line_error(capsys, "file/format error:")

    @pytest.mark.parametrize("verb", ["report", "genericity"])
    def test_matrix_of_strings_is_format_error(self, verb, two_point, tmp_path,
                                               capsys):
        # one level of nesting short: each row is a string, not a list
        path = tmp_path / "cfg.json"
        if verb == "report":
            path.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
            argv = ["report", "--structure", two_point, "--configs", str(path),
                    "--eps", "1/8"]
        else:
            path.write_text(json.dumps(["0", "1/2"]))
            argv = ["genericity", "--theta", str(path), "--eps", "1/4",
                    "--n-values", "3", "--trials", "2", "--seed", "0"]
        assert cli.main(argv) == 3
        assert_one_line_error(capsys, "file/format error:")

    @pytest.mark.parametrize("corrupt", [
        "points", "numeric-entry", "negative-points", "ragged-table", "fractional-points",
        "bool-points", "wrong-version", "no-version", "fractional-arity", "string-arity",
        "no-points", "no-signature", "no-tables", "no-table", "spaced-name",
        "keyword-name", "numeric-name", "extra-table"])
    def test_bad_structure_file_is_format_error(self, corrupt, two_point,
                                                two_point_p, tmp_path, capsys):
        # names no formula can call, on the variant whose second relation is P
        renamed = {"spaced-name": "d x", "keyword-name": "inf", "numeric-name": 5}
        with_p = corrupt in renamed or corrupt == "extra-table"
        data = json.loads(Path(two_point_p if with_p else two_point).read_text())
        if corrupt in renamed:
            data["signature"]["relations"][1]["name"] = renamed[corrupt]
            data["tables"][str(renamed[corrupt])] = data["tables"].pop("P")
        elif corrupt == "extra-table":
            del data["signature"]["relations"][1]
        elif corrupt == "points":
            data["points"] = 3
        elif corrupt == "numeric-entry":
            data["tables"]["d"][0][1] = 0.5
        elif corrupt in ("negative-points", "bool-points"):
            # the one-entry table of a one-point structure
            data["points"] = -1 if corrupt == "negative-points" else True
            data["tables"]["d"] = [["0"]]
        elif corrupt == "ragged-table":
            # four entries, as many as a total table on two points
            data["tables"]["d"] = [["0", "1", "1"], ["1"]]
        elif corrupt == "fractional-points":
            data["points"] = 2.7
        elif corrupt == "wrong-version":
            data["version"] = "metrika-structure-0"
        elif corrupt in ("fractional-arity", "string-arity"):
            data["signature"]["relations"][0]["arity"] = (
                2.7 if corrupt == "fractional-arity" else "2")
        elif corrupt == "no-table":
            del data["tables"]["d"]
        else:  # no-version, no-points, no-signature, no-tables
            del data[corrupt[3:]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = cli.main(["validate", "--structure", str(path)])
        assert code == 3
        err = assert_one_line_error(capsys, "file/format error:")
        assert str(path) in err
        if corrupt == "numeric-name":
            assert "relation name 5" in err

    @pytest.mark.parametrize("entry", ["3/2", "-1/4", "abc"])
    @pytest.mark.parametrize("verb", ["validate", "eval"])
    def test_bad_table_entry_is_format_error(self, verb, entry, two_point,
                                             tmp_path, capsys):
        data = json.loads(Path(two_point).read_text())
        data["tables"]["d"][0][1] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = {"validate": ["validate", "--structure", str(path)],
                "eval": ["eval", "--structure", str(path), "--formula",
                         "d(x,y)", "--assign", "x=0,y=1"]}[verb]
        assert cli.main(argv) == 3
        assert_one_line_error(capsys, "file/format error:")

    @pytest.mark.parametrize("verb", ["report", "genericity"])
    def test_non_rational_entry_is_format_error(self, verb, two_point,
                                                tmp_path, capsys):
        matrix = [["0", "abc"], ["abc", "0"]]
        path = tmp_path / "cfg.json"
        if verb == "report":
            path.write_text(json.dumps([matrix]))
            argv = ["report", "--structure", two_point, "--configs", str(path),
                    "--eps", "1/8"]
        else:
            path.write_text(json.dumps(matrix))
            argv = ["genericity", "--theta", str(path), "--eps", "1/4",
                    "--n-values", "3", "--trials", "2", "--seed", "0"]
        assert cli.main(argv) == 3
        assert_one_line_error(capsys, "file/format error:")


class TestCompareEncode:
    def test_compare_identity_success(self, two_point, capsys):
        code, out = run(
            ["compare", "--a", two_point, "--b", two_point, "--eps", "0",
             "--depth", "2"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "success"

    def test_compare_failure_exit_code(self, two_point, tmp_path, capsys):
        other = tmp_path / "far.json"
        save(from_distance_matrix([[ZERO, ONE], [ONE, ZERO]]), other)
        code, out = run(
            ["compare", "--a", two_point, "--b", str(other), "--eps", "1/4",
             "--depth", "2"], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "failure"

    def test_compare_across_signatures_is_format_error(self, two_point, tmp_path,
                                                       capsys):
        graph = tmp_path / "graph.json"
        save(graph_seed(2), graph)
        code = cli.main(["compare", "--a", two_point, "--b", str(graph),
                         "--eps", "1/4", "--depth", "1", "--out",
                         str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("file/format error:") and len(err.splitlines()) == 1
        assert two_point in err and str(graph) in err
        assert not (tmp_path / "out.json").exists()

    def test_encode_values(self, two_point, capsys):
        code, out = run(
            ["encode", "--structure", two_point, "--k", "4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["values"] == ["0", "1/2", "1/2", "0"]

    def test_encode_beyond_prefix_domain_error(self, two_point, capsys):
        code, _ = run(
            ["encode", "--structure", two_point, "--k", "5"], capsys)
        assert code == 4


class TestReportMerge:
    def test_merge_artifacts(self, two_point, tmp_path, capsys):
        a1 = tmp_path / "a1.json"
        run(["compare", "--a", two_point, "--b", two_point, "--eps", "0",
             "--depth", "2", "--out", str(a1)], capsys)
        a2 = tmp_path / "a2.json"
        run(["encode", "--structure", two_point, "--k", "4", "--out",
             str(a2)], capsys)
        code, out = run(
            ["report", "--artifacts", str(a1), str(a2)], capsys)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["artifacts"]) == 2

    def test_version_mismatch_rejected(self, tmp_path, capsys):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"version": "metrika-report-0"}))
        code, _ = run(["report", "--artifacts", str(stale)], capsys)
        assert code == 4

    @pytest.mark.parametrize("artifact", [
        [1], None, {"curve": 5}, {"curve": ["x"]}, {"curve": [{"n": 3}]},
    ], ids=["list", "null", "curve-number", "curve-row-string", "row-without-frequency"])
    def test_malformed_artifact_is_format_error(self, artifact, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"version": cli.REPORT_VERSION, "curve": [{"n": 3, "frequency": 0.5}]}))
        bad = tmp_path / "bad.json"
        if isinstance(artifact, dict):
            artifact = {"version": cli.REPORT_VERSION, **artifact}
        bad.write_text(json.dumps(artifact))
        out, csv_path = tmp_path / "out.json", tmp_path / "curve.csv"
        code = cli.main(["report", "--artifacts", str(good), str(bad), "--out", str(out),
                         "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("file/format error:") and str(bad) in captured.err
        assert len(captured.err.splitlines()) == 1 and not captured.out
        assert not out.exists() and not csv_path.exists()

    def test_merged_curves_to_csv(self, tmp_path, capsys):
        paths = []
        for k, curve in enumerate([[{"n": 3, "frequency": 0.5}], [],
                                   [{"n": 5, "frequency": 1.0, "extra": 1}]]):
            paths.append(tmp_path / f"a{k}.json")
            paths[-1].write_text(json.dumps({"version": cli.REPORT_VERSION, "curve": curve}))
        csv_path = tmp_path / "curve.csv"
        code, out = run(["report", "--artifacts", *map(str, paths), "--csv", str(csv_path)],
                        capsys)
        assert code == 0 and len(json.loads(out)["artifacts"]) == 3
        assert csv_path.read_text().splitlines() == ["n,frequency", "3,0.5", "5,1.0"]


# the extension report on structures MetricBuilder refuses: a graph-signature
# file and a metric file whose d table is asymmetric (d(0,1) = 3/4, d(1,0) = 1/2)
REPORT_PINS = {
    "graph": (1, {"satisfied": 9, "total": 12, "failures": [
        {"theta_id": 0, "tuple": [0]}, {"theta_id": 0, "tuple": [1]},
        {"theta_id": 0, "tuple": [2]}]}),
    "asym": (1, {"satisfied": 1, "total": 5, "failures": [
        {"theta_id": 0, "tuple": [0]}, {"theta_id": 1, "tuple": [0]},
        {"theta_id": 1, "tuple": [1]}, {"theta_id": 2, "tuple": [1, 0]}]}),
}


@pytest.mark.parametrize("kind", sorted(REPORT_PINS))
def test_report_on_non_metric_builder_structures(kind, two_point, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    if kind == "graph":
        save(graph_seed(3), path)
    else:
        data = json.loads(Path(two_point).read_text())
        data["tables"]["d"][0][1] = "3/4"
        path.write_text(json.dumps(data))
    cfg_path = tmp_path / "configs.json"
    cfg_path.write_text(json.dumps([
        [["0", "1/2"], ["1/2", "0"]], [["0", "1"], ["1", "0"]],
        [["0", "1/2", "1/4"], ["1/2", "0", "1/4"], ["1/4", "1/4", "0"]],
        [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]]))
    code, out = run(["report", "--structure", str(path), "--configs", str(cfg_path),
                     "--eps", "1/8"], capsys)
    obj = json.loads(out)
    assert list(obj) == ["verb", "version", "inputs", "satisfied", "total", "failures"]
    assert (code, {k: obj[k] for k in ("satisfied", "total", "failures")}) == REPORT_PINS[kind]


class TestEntryPoint:
    def test_every_verb_has_one_handler(self):
        (verbs,) = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
        assert set(verbs.choices) == set(cli.HANDLERS)
        assert len(set(cli.HANDLERS.values())) == len(cli.HANDLERS)

    def test_console_script_installed(self, two_point):
        proc = subprocess.run(
            [sys.executable, "-m", "metrika.cli", "eval", "--structure",
             two_point, "--formula", "d(x,y)", "--assign", "x=0,y=1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1/2"

    def test_no_verb_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "metrika.cli"], capture_output=True,
            text=True)
        assert proc.returncode == 2


# ---------------------------------------------------------------- argv fuzz

VALUES = ["0", "-1", "1", "1/0", "3/2", "2/7", "abc", "1/8", "1/4", "1/16"]


def option(name, values, required=False):
    """The option with a value drawn from `values`; or, unless it is
    required, nothing."""
    given_ = st.sampled_from(values).map(lambda v: [name, v])
    return given_ if required else st.one_of(st.just([]), given_)


def fuzz_argv(verb, *options):
    return st.tuples(*options).map(lambda opts: [verb] + [a for o in opts for a in o])


SYNTH_ARGV = fuzz_argv(
    "synth",
    option("--theory", ["empty-metric", "graph", "abc"], True),
    option("--budget", ["0", "-1", "1", "20", "1/8", "abc"], True),
    option("--grid", VALUES),
    option("--eps", VALUES),
    option("--config-grid", VALUES),
    option("--config-sizes", ["1", "2", "2,3", "3,2", "0", "-1", "abc", ""]),
    option("--max-size", ["0", "-1", "1", "3", "abc"]),
    option("--seed", ["0", "1", "-1", "abc"], True),
    option("--out", ["{dir}/synth.json", "{dir}/missing/synth.json"], True),
)
CONFIGS_ARGV = fuzz_argv(
    "configs",
    option("--size", ["0", "-1", "1", "2", "3", "abc"], True),
    option("--grid", VALUES),
    option("--out", ["{dir}/configs.json", "{dir}/missing/configs.json"], True),
)
REPORT_ARGV = fuzz_argv(
    "report",
    option("--structure", ["{dir}/two.json", "{dir}/bad.json", "{dir}/none.json"], True),
    option("--configs", ["{dir}/c2.json", "{dir}/c3.json", "{dir}/empty.json",
                         "{dir}/bad.json", "{dir}/none.json"], True),
    option("--eps", VALUES, True),
    option("--out", ["{dir}/report.json"]),
)
STRUCTURES = ["{dir}/two.json", "{dir}/graph.json", "{dir}/asym.json",
              "{dir}/point.json", "{dir}/bad.json", "{dir}/none.json"]
COMPARE_ARGV = fuzz_argv(
    "compare",
    option("--a", STRUCTURES, True),
    option("--b", STRUCTURES, True),
    option("--eps", VALUES, True),
    option("--depth", ["0", "-1", "1", "2", "3", "abc"], True),
    option("--node-budget", ["0", "-1", "1", "10", "abc"]),
    option("--out", ["{dir}/compare.json", "{dir}/missing/compare.json"]),
)
ENCODE_ARGV = fuzz_argv(
    "encode",
    option("--structure", STRUCTURES, True),
    option("--k", ["0", "-1", "1", "4", "8", "9", "abc"], True),
    option("--out", ["{dir}/encode.json", "{dir}/missing/encode.json"]),
)
EVAL_ARGV = fuzz_argv(
    "eval",
    option("--structure", STRUCTURES, True),
    option("--formula", ["d(x,y)", "R(x,y)", "sup x. d(x,y)", "inf x. sup y. d(x,y)",
                         "max(d(x,y), 3/2)", "d(x,x,y)", "d(x", "abc", ""], True),
    option("--assign", ["x=0,y=1", "x=0", "y=1,x=1,z=0", "x=a", "x=-1,y=0",
                        "x=9,y=0", "nonsense", ""]),
)
CHECK_ARGV = fuzz_argv(
    "check",
    option("--structure", STRUCTURES, True),
    option("--condition", ["sup x. d(x,x) <= 0", "sup x. sup y. R(x,y) < 1/2",
                           "inf x. d(x,x) = 0", "sup x. d(x,y) <= 0",
                           "sup x. d(x,x) <= 3/2", "sup x. d(x,x) >= 0", "abc", ""], True),
    option("--mode", ["finite", "prefix", "abc"]),
)
VALIDATE_ARGV = fuzz_argv("validate", option("--structure", STRUCTURES, True))
# sizes stay small (--n <= 4, --trials <= 3, --max-tries <= 50) so that every
# command line, the rejection sampler's included, ends within a second
SAMPLER_OPTIONS = (
    option("--kind", ["sequential", "rejection", "abc"]),
    option("--grid", VALUES),
    option("--max-tries", ["0", "-1", "1", "50", "abc"], True),
    option("--seed", ["0", "1", "-1", "abc"], True),
)
SAMPLE_ARGV = fuzz_argv(
    "sample",
    option("--n", ["0", "-1", "1", "2", "4", "abc"], True),
    *SAMPLER_OPTIONS,
    option("--out", ["{dir}/sample.json", "{dir}/missing/sample.json"], True),
)
AUDIT_ARGV = fuzz_argv(
    "audit",
    option("--n", ["0", "-1", "1", "2", "4", "abc"], True),
    option("--trials", ["0", "-1", "1", "3", "abc"], True),
    option("--formula", ["d(x,y)", "d(x,x)", "sup x. d(x,y)", "R(x,y)", "d(x", ""], True),
    option("--eps", VALUES, True),
    option("--sigma", ["0", "3", "-1", "abc"]),
    *SAMPLER_OPTIONS,
    option("--out", ["{dir}/audit.json", "{dir}/missing/audit.json"]),
)
GENERICITY_ARGV = fuzz_argv(
    "genericity",
    option("--theta", ["{dir}/theta.json", "{dir}/c2.json", "{dir}/bad.json",
                       "{dir}/none.json", "{dir}/empty.json"], True),
    option("--eps", VALUES, True),
    option("--n-values", ["1", "2", "2,4", "4,2", "0", "abc", ""], True),
    option("--trials", ["0", "-1", "1", "3", "abc"], True),
    *SAMPLER_OPTIONS,
    option("--out", ["{dir}/genericity.json", "{dir}/missing/genericity.json"]),
    option("--csv", ["{dir}/genericity.csv", "{dir}/missing/genericity.csv"]),
)
ARTIFACTS = ["{dir}/art-compare.json", "{dir}/art-curve.json", "{dir}/art-stale.json",
             "{dir}/art-list.json", "{dir}/art-null.json", "{dir}/art-curve-number.json",
             "{dir}/art-row-string.json", "{dir}/art-row-no-frequency.json",
             "{dir}/bad.json", "{dir}/none.json"]
ARTIFACTS_ARGV = st.tuples(
    st.lists(st.sampled_from(ARTIFACTS), max_size=3),
    option("--out", ["{dir}/merged.json", "{dir}/missing/merged.json"]),
    option("--csv", ["{dir}/merged.csv", "{dir}/missing/merged.csv"]),
).map(lambda t: ["report", "--artifacts", *t[0], *t[1], *t[2]])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save(from_distance_matrix([[ZERO, F(1, 2)], [F(1, 2), ZERO]]), d / "two.json")
    save(graph_seed(3), d / "graph.json")
    save(from_distance_matrix([[ZERO]]), d / "point.json")
    asym = json.loads((d / "two.json").read_text())
    asym["tables"]["d"][0][1] = "3/4"
    (d / "asym.json").write_text(json.dumps(asym))
    (d / "c2.json").write_text(json.dumps([[["0", "1/2"], ["1/2", "0"]]]))
    (d / "c3.json").write_text(json.dumps(
        [[["0", "1/2", "1/4"], ["1/2", "0", "1/4"], ["1/4", "1/4", "0"]]]))
    (d / "empty.json").write_text("[[]]")
    (d / "bad.json").write_text("{")
    (d / "theta.json").write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
    version = cli.REPORT_VERSION
    artifacts = {
        "compare": {"verb": "compare", "version": version, "status": "success"},
        "curve": {"verb": "genericity", "version": version,
                  "curve": [{"n": 2, "frequency": 0.5}, {"n": 4, "frequency": 1.0}]},
        "stale": {"version": "metrika-report-0"},
        "list": [1],
        "null": None,
        "curve-number": {"version": version, "curve": 5},
        "row-string": {"version": version, "curve": ["x"]},
        "row-no-frequency": {"version": version, "curve": [{"n": 2}]},
    }
    for name, artifact in artifacts.items():
        (d / f"art-{name}.json").write_text(json.dumps(artifact))
    return str(d)


@given(st.one_of(SYNTH_ARGV, CONFIGS_ARGV, REPORT_ARGV, COMPARE_ARGV, ENCODE_ARGV,
                 EVAL_ARGV, CHECK_ARGV, VALIDATE_ARGV, SAMPLE_ARGV, AUDIT_ARGV,
                 GENERICITY_ARGV, ARTIFACTS_ARGV))
@example(["synth", "--theory", "empty-metric", "--budget", "5", "--config-grid", "0",
          "--seed", "0", "--out", "{dir}/synth.json"])
@example(["report", "--artifacts", "{dir}/art-curve.json", "{dir}/art-row-string.json",
          "--csv", "{dir}/merged.csv"])
@settings(max_examples=300)
def test_argv_fuzz_exits_with_a_documented_code(fuzz_dir, argv):
    argv = [a.replace("{dir}", fuzz_dir) for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert code != 1 or argv[0] in ("check", "validate", "report", "compare"), argv
    assert "Traceback" not in err.getvalue(), argv
