#!/usr/bin/env python3
"""Repeat run.py over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 10 [--trace 1]
        [--workloads radio_grid ops_grid] [--json OUT]

For every workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, i.e. the distance
between the quartiles as a share of the median: the figures the
benchmark's bounds are checked against. Runs are sequential; any run
that exits non-zero or reports `correct: false` is listed and makes the
script exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("radio_grid", "ops_grid", "fleet_regrid")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every value and summary here")
    args = parser.parse_args()

    report = {}
    bad = []
    for workload in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, str(RUN), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                bad.append((workload, seed, proc.returncode))
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                file=sys.stderr, flush=True)
        report[workload] = {
            name: {"values": vals, **summarize(vals)}
            for name, vals in values.items()
        }

    print(f"{'workload':<14} {'metric':<34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}")
    for workload, metrics in report.items():
        for name, s in metrics.items():
            print(f"{workload:<14} {name:<34} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    for workload, seed, code in bad:
        print(f"FAILED: {workload} seed {seed} (exit {code})", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
