"""End-to-end tests for the metrika command line."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from metrika import all_configurations, cli
from metrika.rationals import ZERO, ONE
from metrika.structures import from_distance_matrix, save


@pytest.fixture()
def two_point(tmp_path):
    path = tmp_path / "two.json"
    m = from_distance_matrix([[ZERO, F(1, 2)], [F(1, 2), ZERO]])
    save(m, path)
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


BAD_TRIANGLE = [["0", "1", "1/4"], ["1", "0", "1/4"], ["1/4", "1/4", "0"]]


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1


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
    ], ids=["assign", "report-no-eps", "report-eps-0", "synth-eps-0",
            "sample-n-0", "encode-k-negative", "configs-size-0",
            "synth-config-sizes-0", "synth-config-sizes-x",
            "genericity-n-values-abc", "genericity-n-below-theta",
            "audit-n-below-arity", "compare-depth-0", "sample-grid-0",
            "sample-grid-2", "assign-out-of-range", "report-no-configs",
            "report-no-structure"])
    def test_misuse_is_usage_error(self, argv, two_point, tmp_path, capsys):
        cfg_path = tmp_path / "configs.json"
        cfg_path.write_text(json.dumps([[["0", "1/2"], ["1/2", "0"]]]))
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
        paths = {"s": two_point, "c": str(cfg_path), "t": str(theta_path),
                 "o": str(tmp_path / "out.json")}
        code = cli.main([a.format(**paths) for a in argv])
        assert code == 2
        assert_one_line_error(capsys, "usage error:")
        assert not (tmp_path / "out.json").exists()


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

    @pytest.mark.parametrize("corrupt", ["points", "numeric-entry"])
    def test_bad_structure_file_is_format_error(self, corrupt, two_point,
                                                tmp_path, capsys):
        data = json.loads(open(two_point).read())
        if corrupt == "points":
            data["points"] = 3
        else:
            data["tables"]["d"][0][1] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = cli.main(["validate", "--structure", str(path)])
        assert code == 3
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


class TestEntryPoint:
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
