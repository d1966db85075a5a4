"""Start-up cost: each import and subcommand loads only the layers it uses,
and numpy only for ``simulate`` (``mc``).

Each case runs in a fresh interpreter, since an import made by any other
test would otherwise already sit in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distnull

SRC = str(Path(distnull.__file__).resolve().parent.parent)

# What the lines before it loaded: numpy, and distnull's submodules.
REPORT = """
import json, sys
layers = sorted(name.split(".")[1] for name in sys.modules if name.startswith("distnull."))
print(json.dumps({"numpy": "numpy" in sys.modules, "layers": layers}))
"""

# Runs the CLI the way the console script does, then reports on a last line.
CLI_CHILD = """\
import json, sys
import distnull.cli
code = distnull.cli.main(sys.argv[1:])
print(json.dumps({"code": code}))
""" + REPORT


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _report(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(argv: list[str]) -> dict:
    lines = _python(CLI_CHILD, *argv).stdout.splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


BARE = ["cli", "errors"]
CLOSED_FORM = ["cli", "distributional", "errors", "point", "special"]
CRITERION = ["cli", "criterion", "errors", "point", "special"]


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        (["test", "--t", "2.5", "--nu", "19", "--n", "20", "--q", "0.1"], 0, CLOSED_FORM),
        (["replicate", "--t", "2.5", "--nu", "19", "--n", "20", "--q", "0.1",
          "--format", "json"], 0, CLOSED_FORM),
        (["range", "--t", "5.2", "--nu", "19", "--n", "20", "--format", "csv"], 0, CRITERION),
        (["thumb", "--nu", "19"], 0, CRITERION),
        (["test", "--n", "20"], 2, BARE),
        (["thumb", "--nu", "0"], 2, CRITERION),
        (["--help"], 0, BARE),
        (["--version"], 0, BARE),
    ],
    ids=["test", "replicate", "range", "thumb", "usage-error", "domain-error", "help", "version"],
)
def test_closed_form_subcommands_skip_numpy(argv, code, layers):
    assert _cli(argv) == {"code": code, "numpy": False, "layers": layers}


def test_qest_skips_numpy_and_simulate_loads_it(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("site,measure,value\na,m,1\na,m,2\nb,m,2\nb,m,5\n", encoding="utf-8")
    groups = tmp_path / "groups.ini"
    groups.write_text("[g]\nmeasures = m\n", encoding="utf-8")
    # every qest path: groups, a site filter and both output files
    qest = _cli(["qest", "--data", str(data), "--groups", str(groups), "--sites", "a,b",
                 "--cells-out", str(tmp_path / "cells.csv"),
                 "--hist-out", str(tmp_path / "hist.csv")])
    assert qest == {"code": 0, "numpy": False, "layers": ["cli", "errors", "varratio"]}
    assert (tmp_path / "cells.csv").exists() and (tmp_path / "hist.csv").exists()
    simulate = ["simulate", "--n", "20", "--q-true", "0", "--trials", "2000"]
    assert _cli(simulate) == {"code": 0, "numpy": True, "layers": sorted([*CLOSED_FORM, "mc"])}


def test_package_import_skips_numpy():
    assert _report(_python("import distnull" + REPORT)) == {"numpy": False, "layers": []}


# A name loads the layers up to its own, in dependency order.
@pytest.mark.parametrize(
    "statement, numpy, layers",
    [
        ("from distnull import t_cdf", False, ["errors", "special"]),
        ("from distnull import DistributionalNull", False,
         ["distributional", "errors", "point", "special"]),
        ("from distnull import cli", False, ["cli", "errors"]),
        ("from distnull import summarize", False,
         ["criterion", "distributional", "errors", "point", "special", "varratio"]),
    ],
    ids=["special", "distributional", "cli", "varratio"],
)
def test_import_loads_only_the_layers_it_needs(statement, numpy, layers):
    assert _report(_python(statement + REPORT)) == {"numpy": numpy, "layers": layers}


# Each check starts from a bare ``import distnull``, with nothing else loaded.
LAZY_CHECKS = {
    "modules": """
import sys
assert distnull.varratio is sys.modules["distnull.varratio"]
assert distnull.mc is sys.modules["distnull.mc"]
""",
    "names": """
assert distnull.summarize is distnull.varratio.summarize
assert distnull.SimConfig is distnull.mc.SimConfig
""",
    "dir": """
listed = set(dir(distnull))
layers = ["errors", "special", "point", "distributional", "criterion", "varratio", "mc"]
names = [name for layer in layers for name in getattr(distnull, layer).__all__]
missing = {*layers, "cli", *names} - listed
assert not missing, missing
""",
    "star": """
namespace = {}
exec("from distnull import *", namespace)
missing = [name for name in distnull.__all__ if name not in namespace]
assert not missing, missing
assert "SimConfig" in namespace and "summarize" in namespace
""",
}


@pytest.mark.parametrize("check", sorted(LAZY_CHECKS))
def test_lazy_names_behave_like_eager_ones(check):
    _python("import distnull\n" + LAZY_CHECKS[check])


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        distnull.no_such_name
