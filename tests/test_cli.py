import csv
import io
import json
import shutil
import subprocess

import pytest

from distnull.cli import main
from distnull.criterion import Criteria, q_interval, r_crit
from distnull.distributional import DistributionalNull, replication_probability
from distnull.errors import SolverFailure

DATA_CSV = """\
site,measure,value
lab1,anchoring,1.5
lab1,anchoring,2.5
lab2,anchoring,2.0
lab2,anchoring,4.0
lab1,gains,0.0
lab1,gains,2.0
lab2,gains,1.0
lab2,gains,3.0
"""

GROUPS_INI = """\
[first]
set = 1
measures = anchoring

[second]
set = 1
measures = gains
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out), out


TEST_ARGV = [
    "test",
    "--design", "one-sample",
    "--n", "20",
    "--mean", "1.2",
    "--sd", "2.0",
    "--q", "0.05",
]


def test_test_human_output(capsys):
    code, out, err = run(capsys, TEST_ARGV)
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.splitlines())
    assert fields["t"].strip() == "2.68328"
    assert fields["nu"].strip() == "19"
    assert fields["dist_significant"].strip() in {"yes", "no"}


def test_json_round_trips_byte_identical(capsys):
    doc, raw = run_json(capsys, TEST_ARGV)
    assert doc["schema_version"] == 1
    assert doc["command"] == "test"
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_human_and_json_expose_the_same_values(capsys):
    doc, _ = run_json(capsys, TEST_ARGV)
    code, out, _ = run(capsys, TEST_ARGV)
    assert code == 0
    human = dict(line.split(None, 1) for line in out.splitlines())
    result = doc["result"]
    assert set(human) == set(result)
    for key, shown in human.items():
        value = result[key]
        if isinstance(value, bool):
            expected = "yes" if value else "no"
        elif isinstance(value, float):
            expected = f"{value:.6g}"
        else:
            expected = str(value)
        assert shown.strip() == expected, key


def test_q_zero_reduces_to_the_point_test(capsys):
    argv = [a if a != "0.05" else "0" for a in TEST_ARGV]
    doc, _ = run_json(capsys, argv)
    result = doc["result"]
    assert result["dist_p_value"] == pytest.approx(result["point_p_value"], abs=1e-13)
    assert result["dist_t_crit"] == pytest.approx(result["point_t_crit"], rel=1e-13)
    assert result["asymptotic_z_bound"] == 0.0


def test_precomputed_t_input(capsys):
    doc, _ = run_json(capsys, ["test", "--t", "2.5", "--nu", "19", "--n", "20", "--q", "0.05"])
    assert doc["result"]["t"] == 2.5


def test_two_sample_group_inputs(capsys):
    argv = [
        "test", "--design", "two-sample", "--n", "8",
        "--mean", "3.0", "--mean2", "2.0", "--sd", "2.0", "--sd2", "2.0",
        "--q", "0",
    ]
    doc, _ = run_json(capsys, argv)
    assert doc["result"]["t"] == pytest.approx(1.0, rel=1e-12)
    assert doc["result"]["nu"] == 14.0


def test_replicate_reports_both_estimates(capsys):
    argv = ["replicate", "--t", "2.5", "--nu", "19", "--n", "20", "--q", "0"]
    doc, _ = run_json(capsys, argv)
    result = doc["result"]
    assert result["replication_probability"] == pytest.approx(0.05, abs=1e-13)
    assert result["power_replication_estimate"] > 0.9


def test_range_solvable_csv_matches_library(capsys):
    code, out, _ = run(
        capsys, ["range", "--t", "5", "--nu", "19", "--n", "20", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "ok"
    outcome = q_interval(5.0, Criteria(alpha=0.05, beta=0.5), 19, 20)
    assert float(row["q1"]) == outcome.q1
    assert float(row["q2"]) == outcome.q2
    assert float(row["gamma"]) == outcome.q2
    assert row["q2_censored"] == "false"
    check = r_crit(Criteria(alpha=0.05, beta=0.5), 19, 20, float(row["q1"]))
    assert check.r_q == pytest.approx(5.0, rel=1e-8)


def test_range_no_solution_is_success(capsys):
    doc, _ = run_json(capsys, ["range", "--t", "2", "--nu", "19", "--n", "20"])
    result = doc["result"]
    assert result["status"] == "no_solution"
    assert result["r_min"] > 4.0
    assert 0.0 < result["thumb_p_threshold"] < 0.001
    assert "q1" not in result


def test_thumb_values(capsys):
    doc, _ = run_json(capsys, ["thumb", "--nu", "10"])
    result = doc["result"]
    assert 4e-4 < result["p_threshold"] < 6e-4
    assert result["bound_over_quantile"] == pytest.approx(2.598076211353316)


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[defaults]\nalpha = 0.01\nformat = json\n")
        code, out, _ = run(capsys, ["thumb", "--nu", "10", "--config", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["alpha"] == 0.01

    def test_flags_beat_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[defaults]\nalpha = 0.01\nformat = json\n")
        code, out, _ = run(
            capsys,
            ["thumb", "--nu", "10", "--alpha", "0.2", "--config", str(path), "--format", "human"],
        )
        assert code == 0
        assert '"schema_version"' not in out  # human format won
        assert "0.2" in out

    def test_config_without_defaults_section_is_ignored(self, capsys, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[other]\nalpha = 0.01\n")
        doc, _ = run_json(capsys, ["thumb", "--nu", "10", "--config", str(path)])
        assert doc["result"]["alpha"] == 0.05

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["thumb", "--nu", "10", "--config", str(tmp_path / "nope.ini")]
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_config_value(self, capsys, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[defaults]\nalpha = lots\n")
        code, _, err = run(capsys, ["thumb", "--nu", "10", "--config", str(path)])
        assert code == 2
        assert "alpha" in err


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert main(["test", "--n", "20"]) == 2
        # --seed is a simulate flag; other subcommands reject it
        assert main(["test", "--seed", "9", "--n", "20", "--t", "2", "--nu", "19", "--q", "0"]) == 2
        capsys.readouterr()

    def test_bad_n(self, capsys):
        code, _, err = run(
            capsys,
            ["test", "--design", "one-sample", "--n", "1", "--mean", "1", "--sd", "1", "--q", "0"],
        )
        assert code == 2
        assert "error:" in err
        # finite --q-true whose product with n overflows
        code, _, err = run(
            capsys, ["simulate", "--n", "20", "--q-true", "1e307", "--trials", "20000"]
        )
        assert code == 2
        assert "q_true * n" in err

    def test_t_without_nu(self, capsys):
        code, _, err = run(capsys, ["test", "--t", "2", "--n", "20", "--q", "0"])
        assert code == 2

    def test_mixed_stat_inputs(self, capsys):
        code, _, err = run(
            capsys,
            ["test", "--t", "2", "--nu", "19", "--mean", "1", "--n", "20", "--q", "0"],
        )
        assert code == 2
        code, _, err = run(
            capsys,
            ["test", "--t", "2", "--nu", "19", "--n", "20", "--q", "0.1",
             "--mean2", "3", "--sd2", "1"],
        )
        assert code == 2

    def test_mean2_outside_two_sample(self, capsys):
        code, _, err = run(
            capsys,
            ["test", "--design", "paired", "--n", "8", "--mean", "1", "--sd", "1",
             "--mean2", "0.5", "--q", "0"],
        )
        assert code == 2

    def test_unknown_format(self, capsys):
        assert main(["thumb", "--nu", "10", "--format", "xml"]) == 2
        capsys.readouterr()

    def test_non_utf8_input(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes(b"site,measure,value\n\xff,m,1\n")
        good = tmp_path / "good.csv"
        good.write_text(DATA_CSV, encoding="utf-8")
        ini = tmp_path / "latin1.ini"
        ini.write_bytes(b"[defaults]\nalpha = 0.05\n[g]\nmeasures = caf\xe9\n")
        for argv, bad in (
            (["qest", "--data", str(data)], data),
            (["qest", "--data", str(good), "--groups", str(ini)], ini),
            (["thumb", "--nu", "10", "--config", str(ini)], ini),
        ):
            code, _, err = run(capsys, argv)
            assert code == 2
            assert err.startswith("error:")
            assert str(bad) in err

    def test_beta_at_or_below_alpha(self, capsys):
        code, _, err = run(
            capsys, ["range", "--t", "5", "--nu", "19", "--n", "20", "--beta", "0.02"]
        )
        assert code == 2

    def test_solver_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailure("stalled")

        monkeypatch.setattr("distnull.cli.q_interval", boom)
        code, _, err = run(capsys, ["range", "--t", "5", "--nu", "19", "--n", "20"])
        assert code == 3
        assert "solver failure" in err


class TestQest:
    @pytest.fixture
    def data_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(DATA_CSV, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def groups_path(self, tmp_path):
        path = tmp_path / "groups.ini"
        path.write_text(GROUPS_INI, encoding="utf-8")
        return str(path)

    def test_grouped_summary(self, capsys, data_path, groups_path):
        code, out, err = run(
            capsys, ["qest", "--data", data_path, "--groups", groups_path, "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["group"] for r in rows] == ["first", "second", "all 1", "all"]
        assert [r["datapoints"] for r in rows] == ["2", "2", "4", "4"]
        # anchoring: site means 2, 3 -> between 0.5; within 0.5 and 2.0
        first = rows[0]
        assert float(first["mean_q"]) == pytest.approx((1.0 + 0.25) / 2.0, rel=1e-12)

    def test_default_groups(self, capsys, data_path):
        code, out, _ = run(capsys, ["qest", "--data", data_path, "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["group"] for r in rows] == ["anchoring", "gains", "all"]

    def test_site_filter_empties_the_table(self, capsys, data_path):
        code, out, _ = run(
            capsys, ["qest", "--data", data_path, "--sites", "lab1", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["group,datapoints,mean_q,q025,q975"]

    def test_site_filter_keeps_qualifying_sites(self, capsys, data_path):
        code, out, _ = run(
            capsys, ["qest", "--data", data_path, "--sites", "lab1,lab2", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["group"] for r in rows] == ["anchoring", "gains", "all"]

    def test_output_files(self, capsys, tmp_path, data_path):
        cells = tmp_path / "cells.csv"
        hist = tmp_path / "hist.csv"
        code, _, _ = run(
            capsys,
            ["qest", "--data", data_path, "--cells-out", str(cells), "--hist-out", str(hist)],
        )
        assert code == 0
        cell_lines = cells.read_text().splitlines()
        assert cell_lines[0] == "measure,site,within_var,between_var,q"
        assert len(cell_lines) == 5
        assert hist.read_text().splitlines()[0] == "bin_lo,bin_hi,count"

    def test_diagnostics_go_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(
            "site,measure,value\n"
            "a,m,1\na,m,2\nb,m,3\nb,m,4\n"
            "c,m,oops\n"
            "only,solo,1\nonly,solo,2\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["qest", "--data", str(path), "--format", "csv"])
        assert code == 0
        assert "line 6" in err
        assert "solo" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["group"] for r in rows] == ["m"]

    def test_dropped_measure_and_library_warnings(self, capsys, tmp_path, groups_path):
        path = tmp_path / "solo.csv"
        path.write_text(
            DATA_CSV + "lab3,anchoring,7\nlab3,anchoring,7\nonly,solo,1\nonly,solo,2\n",
            encoding="utf-8",
        )
        argv = ["qest", "--data", str(path), "--groups", groups_path, "--cells-out",
                str(tmp_path / "cells.csv"), "--format", "csv"]
        code, _, err = run(capsys, argv)
        assert code == 0
        assert "measure solo dropped" in err
        # the solo cell has 2 observations; only its measure was dropped
        assert "< 2" not in err
        assert "warning: skipping degenerate cell: cell ('anchoring', 'lab3')" in err
        assert "UserWarning" not in err and ".py:" not in err

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["qest", "--data", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_bad_header(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        code, _, err = run(capsys, ["qest", "--data", str(path)])
        assert code == 2


class TestSimulate:
    def test_fpr_sweep_rows(self, capsys):
        argv = [
            "simulate", "--n", "10,20", "--q-true", "0.05",
            "--trials", "4000", "--seed", "3", "--format", "csv",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["10", "20"]
        for row in rows:
            assert row["q_test"] == "0.05"  # defaults to q_true
            assert row["two_sided"] == "true"
            assert 0.0 <= float(row["rate"]) <= 1.0
        code2, out2, _ = run(capsys, argv)
        assert out2 == out  # seeded end to end

    def test_one_sided_flag(self, capsys):
        argv = [
            "simulate", "--n", "10", "--q-true", "0.05", "--trials", "2000",
            "--no-two-sided", "--format", "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["two_sided"] is False

    def test_replication_row_carries_the_formula(self, capsys):
        argv = [
            "simulate", "--mode", "replication", "--t", "2", "--n", "20",
            "--q-true", "0.05", "--trials", "20000", "--format", "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        row = json.loads(out)["rows"][0]
        formula = replication_probability(2.0, 0.05, 19, 20, DistributionalNull(0.05))
        assert row["p_r_formula"] == pytest.approx(formula, rel=1e-12)
        assert abs(row["rate"] - formula) <= 4.0 * row["mc_se"]

    def test_replication_variant_flag(self, capsys):
        argv = [
            "simulate", "--mode", "replication", "--t", "2", "--n", "20",
            "--q-true", "0.05", "--trials", "2000", "--variant", "independent-s",
            "--format", "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["rows"][0]["variant"] == "independent-s"

    def test_replication_usage_errors(self, capsys):
        base = ["simulate", "--mode", "replication", "--q-true", "0.05", "--trials", "100"]
        assert main(base + ["--n", "20"]) == 2  # no --t
        capsys.readouterr()
        assert main(base + ["--n", "10,20", "--t", "2"]) == 2  # one n only
        capsys.readouterr()

    def test_bad_n_list(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--n", "10,abc", "--q-true", "0.05", "--trials", "100"]
        )
        assert code == 2


@pytest.mark.skipif(shutil.which("distnull") is None, reason="entry point not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["distnull", "thumb", "--nu", "10", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "thumb"
