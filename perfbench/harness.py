"""Shared pieces of the benchmark: where the code under test lives, the
closed loop, percentiles, set-up and memory measurements, output
checks and the result line.

Every workload is one caller in one process with no threads: it takes
the next operation only when the previous one has returned.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One scratch directory per run, so runs sharing a checkout do not collide.
WORKDIR = ROOT / ".perfbench_work" / str(os.getpid())


def require_sources() -> None:
    """Stop with a nonzero exit when the package sources are not present."""
    if not (SRC / "distnull" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package importable from src."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(argv: list[str], timeout: float = 60.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child interpreter to completion; returns (wall seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def median_child_wall(argv: list[str], reps: int) -> float:
    """Median wall seconds of ``reps`` runs, after one untimed warm-up run
    (the warm-up writes bytecode caches that users do not pay for twice)."""
    run_child(argv)
    walls = []
    for _ in range(reps):
        wall, proc = run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"child {argv} failed: {proc.stderr.strip()}")
        walls.append(wall)
    return statistics.median(walls)


def measure_setup_s(reps: int = 7) -> float:
    """Set-up time: a fresh interpreter importing distnull, median of runs."""
    return median_child_wall(["-c", "import distnull"], reps)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def src_lines() -> int:
    """Line count of the package sources, recorded beside every run."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "distnull").glob("*.py"))
    )


@dataclass
class Op:
    """One operation of a workload: what it is, how much work it carries
    (results, calls, rows or trials), and the call that performs it."""

    kind: str
    units: float
    call: Callable[[], object]
    info: dict = field(default_factory=dict)


@dataclass(slots=True)
class Record:
    """One timed operation and what came of it."""

    kind: str
    units: float
    seconds: float
    info: dict | None = None
    output: object = None
    error: BaseException | None = None
    cycle: int = 0


def drive(
    ops: Iterator[Op | None],
    seconds: float,
    limit: int | None = None,
    check: Callable[[Record], None] | None = None,
) -> list[Record]:
    """Closed loop: run operations back to back until ``seconds`` have
    passed or ``limit`` operations are done.

    A ``None`` in the stream marks the end of a cycle of the workload's
    mix; the loop only stops at such a mark (or at ``limit``), so every
    run measures whole cycles and the mix stays the same from run to run.

    ``check``, when given, sees each record as soon as its operation is
    timed, outside the timed call; the record then drops the operation's
    inputs and output, so memory does not grow with the number of
    operations and the peak RSS measures the code under test.
    """
    records: list[Record] = []
    start = time.perf_counter()
    cycle = 0
    for op in ops:
        if op is None:
            if time.perf_counter() - start >= seconds:
                break
            cycle += 1
            continue
        if limit is not None and len(records) >= limit:
            break
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, exc
        rec = Record(op.kind, op.units, time.perf_counter() - t0, op.info, out, err, cycle)
        if check is not None:
            check(rec)
            rec.info = rec.output = rec.error = None
        records.append(rec)
    return records


class Tally:
    """Outcome of the output checks.

    An operation *misses* when it raises or misses the accuracy target
    the workload states; misses are counted, never hidden, and give
    ``ops_ok_share``.  An operation *fails* when it raises or an output
    is wrong beyond the looser correctness tolerance, which the code
    under test is expected to always meet; a wrong output also makes the
    run incorrect.  Checks report a wrong output (``incorrect``) before
    closing its operation (``op``).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.missed = 0
        self.failed = 0
        self.misses: dict[str, int] = {}
        self.checked: dict[str, int] = {}
        self.wrong: list[str] = []
        self._wrong_seen = 0

    def op(self, ok: bool, raised: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.missed += 1
        if raised or len(self.wrong) > self._wrong_seen:
            self.failed += 1
        self._wrong_seen = len(self.wrong)

    def count(self, check: str, ok: bool) -> bool:
        self.checked[check] = self.checked.get(check, 0) + 1
        if not ok:
            self.misses[check] = self.misses.get(check, 0) + 1
        return ok

    def incorrect(self, message: str) -> None:
        self.wrong.append(message)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def miss_shares(self) -> dict[str, float]:
        return {k: self.misses.get(k, 0) / n for k, n in sorted(self.checked.items())}


def rel_err(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    if ref == 0.0:
        return math.inf
    return abs(got - ref) / abs(ref)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(tally: Tally, metrics: dict[str, dict], report: dict) -> None:
    """Print the human report, then the result object as the last line."""
    for message in tally.wrong[:20]:
        print(f"incorrect: {message}")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
