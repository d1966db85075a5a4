import csv
import io
import json
import math
import shutil
import subprocess

import pytest

import distnull
from distnull.cli import main
from distnull.criterion import Criteria, q_interval, r_crit
from distnull.distributional import DistributionalNull, replication_probability
from distnull.errors import SolverFailure
from distnull.special import t_quantile
from distnull.varratio import MultiSiteDataset

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
    # The point columns are the distributional test at q = 0, from t itself,
    # not from t divided by sqrt(N) and multiplied back.
    doc, _ = run_json(capsys, ["test", "--t=2.5", "--nu=19", "--n=20", "--q=0"])
    assert doc["result"]["point_t_crit"] == doc["result"]["dist_t_crit"]
    assert doc["result"]["point_p_value"] == doc["result"]["dist_p_value"]


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


RANGE_ARGV = ["range", "--t", "8", "--nu", "19", "--n", "20"]
SIMULATE_ARGV = ["simulate", "--n", "20", "--q-true", "0"]


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        # Every key the subcommand takes reaches it; the rest are ignored,
        # even when malformed.
        cases = [
            (["thumb", "--nu", "10"], "", {"alpha": 0.01}),
            (["thumb", "--nu", "10"], "trials = abc\nseed = x\n", {"alpha": 0.01}),
            (
                RANGE_ARGV,
                "beta = 0.6\nq_ceiling = 0.2\ntrials = abc\nseed = x\n",
                {"alpha": 0.01, "beta": 0.6, "q2": 0.2, "q2_censored": True},
            ),
            (
                SIMULATE_ARGV,
                "seed = 7\ntrials = 50\nbeta = x\n",
                {"alpha": 0.01, "seed": 7, "trials": 50},
            ),
        ]
        path = tmp_path / "cfg.ini"
        for argv, config, expected in cases:
            path.write_text("[defaults]\nalpha = 0.01\nformat = json\n" + config)
            code, out, err = run(capsys, argv + ["--config", str(path)])
            assert code == 0, (argv, config, err)
            doc = json.loads(out)
            result = doc["rows"][0] if "rows" in doc else doc["result"]
            assert {key: result[key] for key in expected} == expected, (argv, config)

    def test_flags_beat_config(self, capsys, tmp_path):
        cases = [
            (["thumb", "--nu", "10"], ["--alpha", "0.2"], {"alpha": "0.2"}),
            (
                RANGE_ARGV,
                ["--alpha", "0.2", "--beta", "0.7", "--q-ceiling", "0.1"],
                {"alpha": "0.2", "beta": "0.7", "q2": "0.1"},
            ),
            (
                SIMULATE_ARGV,
                ["--alpha", "0.2", "--seed", "3", "--trials", "40"],
                {"alpha": "0.2", "seed": "3", "trials": "40"},
            ),
        ]
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[defaults]\nalpha = 0.01\nbeta = 0.6\nq_ceiling = 0.2\nseed = 7\n"
            "trials = 50\nformat = json\n"
        )
        for argv, flags, expected in cases:
            code, out, err = run(capsys, argv + flags + ["--config", str(path), "--format", "csv"])
            assert code == 0, (argv, err)
            row = next(csv.DictReader(io.StringIO(out)))  # csv format won
            assert {key: row[key] for key in expected} == expected, argv

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
        # Format is checked before any other key; a "%" is read as written.
        cases = [
            (["thumb", "--nu", "10"], "alpha = lots", "error: config key 'alpha':"),
            (
                ["thumb", "--nu", "10"],
                "alpha = 5%",
                "error: config key 'alpha': could not convert string to float: '5%'",
            ),
            (
                RANGE_ARGV,
                "q_ceiling = %(x)s",
                "error: config key 'q_ceiling': could not convert string to float: '%(x)s'",
            ),
            (["thumb", "--nu", "10"], "format = xml\nalpha = lots", "error: unknown format 'xml'"),
            (RANGE_ARGV, "beta = x\nq_ceiling = y", "error: config key 'beta':"),
            (SIMULATE_ARGV, "trials = abc", "error: config key 'trials':"),
        ]
        path = tmp_path / "cfg.ini"
        for argv, config, message in cases:
            path.write_text(f"[defaults]\n{config}\n")
            code, out, err = run(capsys, argv + ["--config", str(path)])
            assert (code, out) == (2, ""), (argv, config)
            assert err.startswith(message), (argv, config, err)


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
        code, out, err = run(
            capsys,
            ["test", "--design", "two-sample", "--n", "8", "--mean", "1", "--sd", "1",
             "--mean2", "0.5", "--q", "0"],
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: two-sample input needs both --mean2 and --sd2")

    def test_unknown_format(self, capsys, tmp_path):
        assert main(["thumb", "--nu", "10", "--format", "xml"]) == 2
        capsys.readouterr()
        # argparse checks the flag; the config value is checked after it
        path = tmp_path / "cfg.ini"
        path.write_text("[defaults]\nformat = xml\n")
        code, out, err = run(capsys, ["thumb", "--nu", "10", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown format 'xml'")

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

    @pytest.mark.parametrize("t", ["1e300", "1.7e308"])
    def test_huge_t_has_a_left_root(self, capsys, t):
        doc, _ = run_json(capsys, ["range", "--t", t, "--nu", "19", "--n", "20"])
        # at beta = 0.5, T^-1(beta) = 0 and q1 ~ (a + b) / (|t| n) = a / (|t| n)
        expected = t_quantile(0.95, 19) / (float(t) * 20)
        assert doc["result"]["q1"] == pytest.approx(expected, rel=1e-9)

    def test_ceiling_near_float_limit_is_censored(self, capsys):
        # u = q_ceiling * n = 1.6e308: R there is finite, and below |t|
        code, out, err = run(capsys, [
            "range", "--t", "1e200", "--nu", "19", "--n", "2", "--q-ceiling", "8e307",
        ])
        assert code == 0, err
        rows = dict(line.split(maxsplit=1) for line in out.splitlines())
        assert rows["q2_censored"] == "yes"
        assert rows["q2"] == "8e+307"
        assert rows["q1"] == "8.64566e-201"

    def test_kink_minimum_below_u_1e_minus_6(self, capsys):
        # R's minimum, 1.72913336 at qN ~ 6.3e-7, lies below |t|
        doc, _ = run_json(capsys, [
            "range", "--t", "1.72913355", "--nu", "19", "--n", "20", "--beta", "0.0500001",
        ])
        assert doc["result"]["status"] == "ok"
        assert doc["result"]["r_min"] <= 1.72913355

    def test_stationary_minimum_above_u_1e6(self, capsys):
        doc, _ = run_json(capsys, [
            "range", "--t", "1.46e23", "--nu", "0.5", "--n", "2",
            "--beta", "0.999999999999", "--q-ceiling", "1e300",
        ])
        assert doc["result"]["q_at_min"] == pytest.approx(1.52069e14, rel=1e-5)

    def test_left_root_below_float_range_exits_3(self, capsys):
        # a + b is about 2.3e-15 here, so the left bracket (a + b) / (2|t|)
        # is clamped to 5e-324 (stderr names it), and no float u has R(u) = |t|
        code, out, err = run(capsys, [
            "range", "--t", "1.7e308", "--nu", "19", "--n", "20",
            "--alpha", "0.3", "--beta", "0.3000000000000008",
        ])
        assert (code, out) == (3, "")
        assert err.startswith("solver failure:")
        assert "bracket [" in err and "residual" in err

    def test_subnormal_left_root(self, capsys):
        # a + b is about 2.3e-15, so the left root u ~ (a + b) / |t| is
        # about 2.3e-315, where 1 + 1/u would overflow
        beta = 0.3000000000000008
        doc, _ = run_json(capsys, [
            "range", "--t", "1e300", "--nu", "19", "--n", "20",
            "--alpha", "0.3", "--beta", repr(beta),
        ])
        assert doc["result"]["status"] == "ok"
        expected = (t_quantile(1.0 - 0.3, 19) + t_quantile(beta, 19)) / (1e300 * 20)
        assert doc["result"]["q1"] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["range", "--t", "5", "--nu", "19", "--n", "0"],
            ["range", "--t", "5", "--nu", "19", "--n", "-5"],
            ["range", "--t", "5", "--nu", "19", "--n", "1"],
            ["range", "--t", "5", "--nu", "19", "--n", str(10**400)],
            # q_ceiling * n overflows
            ["range", "--t", "5", "--nu", "19", "--n", str(2**1020)],
            ["range", "--t", "5", "--nu", "19", "--n", "20",
             "--alpha", "0.05", "--beta", "0.05000000000000001"],
            ["test", "--t", "5", "--nu", "19", "--q", "0.1", "--n", str(10**400)],
            ["replicate", "--t", "5", "--nu", "19", "--q", "0.1", "--n", str(10**400)],
            ["test", "--design", "two-sample", "--n", str(2**1023), "--mean", "1",
             "--sd", "1", "--q", "0.1"],
            ["simulate", "--n", str(10**400), "--q-true", "0.1"],
            # q_ceiling lies below q1 = 0.0905
            ["range", "--t", "4.5", "--nu", "19", "--n", "20", "--q-ceiling", "0.01"],
        ],
    )
    def test_bad_n_or_criteria_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_solver_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailure("stalled")

        monkeypatch.setattr("distnull.criterion.q_interval", boom)
        code, _, err = run(capsys, ["range", "--t", "5", "--nu", "19", "--n", "20"])
        assert code == 3
        assert "solver failure" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["range", "--t", "3", "--nu", "1e308", "--n", "20"],
            ["thumb", "--nu", "1e308"],
            ["test", "--t", "3", "--nu", "1e308", "--n", "20", "--q", "0.1"],
            ["replicate", "--t", "3", "--nu", "1e308", "--n", "20", "--q", "0.1"],
        ],
    )
    def test_overflowing_nu(self, capsys, argv):
        # lgamma(nu / 2) overflows here, but the t is at its normal limit:
        # scipy.special.ndtr of the normal-theory argument, frozen.
        expected = {
            "range": {"thumb_p_threshold": 9.623353687224727e-06},
            "thumb": {"p_threshold": 9.623353687224727e-06},
            "test": {"point_p_value": 0.0013498980316300933,
                     "dist_p_value": 0.0416322583317752},
            "replicate": {"replication_probability": 0.25539458434879814},
        }[argv[0]]
        doc, _ = run_json(capsys, argv)
        for key, value in expected.items():
            assert doc["result"][key] == pytest.approx(value, rel=1e-12), key

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["test", "--design", "two-sample", "--n", "20", "--mean", "2", "--sd", "-1",
              "--mean2", "0", "--sd2", "1.7e308", "--q", "0.1"], "must be positive"),
            (["test", "--design", "two-sample", "--n", "20", "--mean", "2", "--sd", "-1",
              "--mean2", "0", "--sd2", "1", "--q", "0.1"], "must be positive"),
            (["test", "--design", "paired", "--n", "20", "--mean", "1e300", "--sd", "5e-324",
              "--q", "1e5"], "t overflows"),
            (["test", "--t", "0.5", "--nu", "19", "--n", str(2**1022), "--q", "1e20"],
             "q * n must be finite"),
        ],
    )
    def test_inputs_beyond_float_range_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

    def test_two_sample_pooling_does_not_square_the_sds(self, capsys):
        argv = ["test", "--design", "two-sample", "--n", "20", "--mean", "1.5e308",
                "--sd", "1e308", "--mean2", "0.5e308", "--sd2", "1e308", "--q", "0"]
        doc, _ = run_json(capsys, argv)
        assert doc["result"]["t"] == pytest.approx(math.sqrt(10), rel=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [
            ["replicate", "--t", "3", "--nu", "5e-324", "--n", "2", "--q", "2", "--alpha", "1e-9"],
            ["thumb", "--nu", "5e-324"],
        ],
    )
    def test_nu_whose_half_underflows(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "underflowed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--t=inf", "--nu", "19", "--n", "20", "--q", "0.1"],
            ["replicate", "--t=-inf", "--nu", "19", "--n", "20", "--q", "0.1"],
            ["range", "--t=nan", "--nu", "19", "--n", "20"],
            ["simulate", "--mode", "replication", "--t=inf", "--n", "20", "--q-true", "0.1"],
        ],
    )
    def test_non_finite_t_names_the_flag(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --t must be finite")

    def test_alpha_below_float_spacing_at_one(self, capsys):
        # -scipy.special.stdtrit(19, 1e-17), frozen; 1 - 1e-17 rounds to 1
        argv = ["test", "--t", "2.5", "--nu", "19", "--n", "20", "--q", "0", "--alpha=1e-17"]
        doc, _ = run_json(capsys, argv)
        for key in ("point_t_crit", "dist_t_crit"):
            assert doc["result"][key] == pytest.approx(29.83939865840545, rel=1e-12), key

    def test_version(self, capsys):
        code, out, err = run(capsys, ["--version"])
        assert (code, out, err) == (0, f"distnull {distnull.__version__}\n", "")


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

    def test_percent_in_group_measures_is_literal(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(DATA_CSV.replace("gains", "a%b"), encoding="utf-8")
        groups = tmp_path / "groups.ini"
        groups.write_text(GROUPS_INI.replace("gains", "a%b"), encoding="utf-8")
        code, out, err = run(
            capsys, ["qest", "--data", str(data), "--groups", str(groups), "--format", "csv"]
        )
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["group"], r["datapoints"]) for r in rows] == [
            ("first", "2"), ("second", "2"), ("all 1", "4"), ("all", "4")
        ]

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
        # a filter that names no site at all is a usage error
        code, out, err = run(capsys, ["qest", "--data", data_path, "--sites", ","])
        assert (code, out) == (2, "")
        assert err.startswith("error: --sites lists no site identifiers")

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
        assert err.count("skipping degenerate cell") == 1
        assert "warning: skipping degenerate cell: cell ('anchoring', 'lab3')" in err
        assert "UserWarning" not in err and ".py:" not in err

    def test_each_cell_is_computed_once(self, capsys, tmp_path, data_path, monkeypatch):
        calls = []
        site_means = MultiSiteDataset.site_means

        def counted(self, measure):
            calls.append(measure)
            return site_means(self, measure)

        monkeypatch.setattr(MultiSiteDataset, "site_means", counted)
        argv = ["qest", "--data", data_path, "--cells-out", str(tmp_path / "cells.csv"),
                "--hist-out", str(tmp_path / "hist.csv")]
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert calls == ["anchoring", "gains"]

    def test_ungrouped_degenerate_cell_reported_once(self, capsys, tmp_path, groups_path):
        path = tmp_path / "other.csv"
        path.write_text(
            DATA_CSV + "lab1,other,1\nlab1,other,2\nlab2,other,5\nlab2,other,5\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["qest", "--data", str(path), "--groups", groups_path])
        assert code == 0
        assert err.count("skipping degenerate cell") == 1
        assert "warning: skipping degenerate cell: cell ('other', 'lab2')" in err

    def test_constant_cell_that_is_not_dyadic_is_skipped(self, capsys, tmp_path):
        # 0.1 + 0.1 + 0.1 rounds above 0.3, so a mean taken as sum / n is not 0.1 and
        # would leave a within-site variance near 1e-34 (q near 1e33)
        path = tmp_path / "constant.csv"
        path.write_text(
            "site,measure,value\nA,m,0.1\nA,m,0.1\nA,m,0.1\nB,m,1\nB,m,2\nC,m,3\nC,m,5\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["qest", "--data", str(path), "--format", "csv"])
        assert code == 0
        assert err == (
            "warning: skipping degenerate cell: cell ('m', 'A') has zero within-site variance\n"
        )
        assert out.splitlines() == [
            "group,datapoints,mean_q,q025,q975",
            "m,2,4.879166666666666,2.0980416666666666,7.660291666666667",
        ]

    def test_whole_stderr_in_order(self, capsys, tmp_path):
        data = tmp_path / "messy.csv"
        data.write_text(
            DATA_CSV.replace("lab2,gains,1.0", "lab2,gains,oops\nlab2,gains,1.0")
            + "lab3,anchoring,7\nlab3,anchoring,7\nlab4,anchoring,3\n"
            + "lab1,other,1\nlab1,other,2\nlab2,other,5\nlab2,other,5\n"
            + "only,solo,1\nonly,solo,2\n",
            encoding="utf-8",
        )
        groups = tmp_path / "groups.ini"
        groups.write_text(
            GROUPS_INI.replace("= anchoring", "= anchoring ghost")
            + "\n[void]\nmeasures = absent\n",
            encoding="utf-8",
        )
        argv = ["qest", "--data", str(data), "--groups", str(groups), "--format", "csv"]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == [
            "group", "first", "second", "all 1", "all",
        ]
        assert err.splitlines() == [
            f"warning: {data} line 8: could not convert string to float: 'oops'",
            "warning: cell (anchoring, lab4) dropped: 1 observation(s) < 2",
            "warning: measure solo dropped: fewer than 2 sites",
            "warning: skipping degenerate cell: cell ('anchoring', 'lab3') has zero "
            "within-site variance",
            "warning: skipping degenerate cell: cell ('other', 'lab2') has zero "
            "within-site variance",
            "warning: group 'first': measure 'ghost' not in dataset",
            "warning: group 'void': measure 'absent' not in dataset",
            "warning: group 'void' is empty; row omitted",
        ]

    @pytest.fixture
    def overflow_run(self, capsys, tmp_path):
        """qest over the given (site, value) rows of measure x, with both output files."""

        def go(rows, *extra):
            path = tmp_path / "huge.csv"
            lines = [f"{site},x,{value}" for site, value in rows]
            path.write_text("site,measure,value\n" + "\n".join(lines) + "\n", encoding="utf-8")
            argv = ["qest", "--data", str(path), "--format", "csv", *extra]
            code, out, err = run(capsys, argv)
            assert "nan" not in out.lower() and "inf" not in out.lower()
            assert "encountered" not in err  # no float RuntimeWarning leaks
            return code, list(csv.DictReader(io.StringIO(out))), err

        return go

    def test_overflowed_within_variance_is_not_a_q_of_0(self, overflow_run, tmp_path):
        code, rows, err = overflow_run(
            [("a", "1e308"), ("a", "-1e308"), ("b", "1"), ("b", "2")],
            "--hist-out", str(tmp_path / "hist.csv"),
        )
        assert code == 0
        assert "skipping degenerate cell: cell ('x', 'a') is beyond float range" in err
        assert [(r["datapoints"], r["mean_q"]) for r in rows] == [("1", "2.25")]

    def test_overflowed_between_variance_skips_every_cell(self, overflow_run, tmp_path):
        hist = tmp_path / "hist.csv"
        code, rows, err = overflow_run(
            [("a", "1"), ("a", "1.0000000000000002"), ("b", "1e300"), ("b", "2e300")],
            "--hist-out", str(hist), "--cells-out", str(tmp_path / "cells.csv"),
        )
        assert code == 0
        assert rows == []
        assert err.count("beyond float range") == 2
        assert hist.read_text().splitlines() == ["bin_lo,bin_hi,count"]

    def test_histogram_too_wide_exits_2(self, overflow_run, tmp_path):
        # q is about 2.3e43: finite and printed, but 2.3e45 bins of width 0.01
        data = [("a", "1"), ("a", "1.0000000000000002"), ("b", "1e6"), ("b", "2e6")]
        code, rows, _ = overflow_run(data)
        assert code == 0
        assert float(rows[0]["q975"]) == pytest.approx(2.2247238370991267e43, rel=1e-12)
        cells = tmp_path / "cells.csv"
        code, rows, err = overflow_run(
            data, "--hist-out", str(tmp_path / "hist.csv"), "--cells-out", str(cells)
        )
        assert code == 2
        assert rows == [] and not cells.exists()  # nothing written before the refusal
        assert err.startswith("error: q up to 2.28") and "histogram bins" in err

    def test_mean_of_huge_ratios_is_finite(self, overflow_run):
        rows = [(s, v) for s in "acd" for v in ("0", "1e-4")] + [("b", "1e150"), ("b", "2e150")]
        code, out_rows, _ = overflow_run(rows)
        assert code == 0
        assert float(out_rows[0]["mean_q"]) == pytest.approx(8.4375e307, rel=1e-12)

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
