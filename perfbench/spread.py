"""Run one or more workloads over several seeds and report, for each
metric, the median, the quartiles and the spread (interquartile range as
a share of the median, from ``statistics.quantiles(values, n=4)``).

    python3 perfbench/spread.py --workloads analysis-stream,qest-wide \\
        --seeds 1-10 --seconds 20 [--trace 1] [--out runs.json]

Runs are sequential, one at a time.  With ``--out`` every result line and
the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    doc: dict = {"runs": [], "summary": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(first, last + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            doc["runs"].append({"workload": workload, "seed": seed, "report": json.loads(lines[-2]), "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        doc["summary"][workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in doc["summary"][workload].items():
            print(f"  {workload} {name}: median {s['median']:.6g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
