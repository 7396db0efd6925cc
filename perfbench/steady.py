"""Run the benchmark repeatedly and report each end-to-end metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload mixed2d ...] [--out FILE]

Each run uses another seed.  For every metric the spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median; it is compared with a third of the metric's bound in
``BENCHMARK.json``.  Runs are serial, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spreads(results: list[dict], bench: dict) -> dict:
    out = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": m["bound"], "steady": spread < m["bound"] / 3,
                          "values": values}
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        report[workload] = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": spreads(results, bench),
        }
        print(f"{workload}: correct={report[workload]['correct']}")
        for name, s in report[workload]["metrics"].items():
            flag = "ok" if s["steady"] else "WIDE"
            print(f"  {name:<14} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound/3 {s['bound'] / 3:.4f}) {flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
