"""distnull benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: analysis-stream, cli-session,
qest-wide, mc-calibration (see BENCHMARK.json and each module's
docstring).  With ``--trace 0`` the workload runs untraced for the given
seconds and the last line of output holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run over a fixed
number of operations.  Every output is checked; the result line reports
the operations attempted and failed and whether the outputs were
correct.  Inputs depend only on the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys

import harness


def _workloads() -> dict:
    import analysis_stream
    import cli_session
    import mc_calibration
    import qest_wide

    return {
        "analysis-stream": analysis_stream,
        "cli-session": cli_session,
        "qest-wide": qest_wide,
        "mc-calibration": mc_calibration,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    harness.require_sources()

    import measure

    harness.WORKDIR.mkdir(parents=True)
    try:
        if args.trace:
            measure.traced(args.workload, workloads[args.workload], args.seed)
        else:
            measure.untraced(args.workload, workloads[args.workload], args.seed, args.seconds)
    finally:
        shutil.rmtree(harness.WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            harness.WORKDIR.parent.rmdir()  # only when no other run uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
