"""The README's command transcripts, run through ``cli.main``.

Every ```text block that opens with a ``$ distnull ...`` line and reads no
data file is run.  Human output must match the block byte for byte; JSON
and CSV output must match it field by field, with numbers to rel 1e-12.
The ``qest`` block runs on the ```csv block just before it, written to a
temporary ``measurements.csv``, and must match byte for byte.
"""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from distnull.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"```text\n\$ distnull ([^\n]*)\n(.*?)```", re.S)
TRANSCRIPTS = [
    (shlex.split(command), shown)
    for command, shown in BLOCK.findall(README.read_text(encoding="utf-8"))
    if "--data" not in command
]
QEST = re.compile(
    r"```csv\n(.*?)```\n\n```text\n\$ distnull (qest --data measurements\.csv)\n(.*?)```", re.S
)


def output_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "human"


def assert_same(got, shown, where="output"):
    """Equal structure and text, numbers to rel 1e-12."""
    if isinstance(shown, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(shown), where
        for key in shown:
            assert_same(got[key], shown[key], f"{where}.{key}")
    elif isinstance(shown, list):
        assert isinstance(got, list) and len(got) == len(shown), where
        for i, (g, s) in enumerate(zip(got, shown)):
            assert_same(g, s, f"{where}[{i}]")
    elif isinstance(shown, (int, float)) and not isinstance(shown, bool):
        assert got == pytest.approx(shown, rel=1e-12, abs=0.0), where
    else:
        assert got == shown, where


def csv_cells(text):
    def cell(field):
        try:
            return float(field)
        except ValueError:
            return field

    return [[cell(field) for field in row] for row in csv.reader(io.StringIO(text))]


def test_every_data_free_subcommand_has_a_transcript():
    assert sorted(argv[0] for argv, _ in TRANSCRIPTS) == [
        "range", "replicate", "simulate", "test", "thumb",
    ]


@pytest.mark.parametrize(
    "argv, shown", TRANSCRIPTS, ids=[f"{a[0]}-{output_format(a)}" for a, _ in TRANSCRIPTS]
)
def test_transcript_matches_the_cli(capsys, argv, shown):
    assert main(argv) == 0
    out = capsys.readouterr().out
    fmt = output_format(argv)
    if fmt == "json":
        assert_same(json.loads(out), json.loads(shown))
    elif fmt == "csv":
        assert "\r\n" in out
        assert_same(csv_cells(out), csv_cells(shown))
    else:
        assert out == shown


def test_qest_transcript_runs_on_the_csv_shown(capsys, tmp_path, monkeypatch):
    ((data, command, shown),) = QEST.findall(README.read_text(encoding="utf-8"))
    (tmp_path / "measurements.csv").write_text(data, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr() == (shown, "")
