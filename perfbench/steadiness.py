"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/steadiness.py --workload enum --seeds 1-10 --seconds 30

Runs are made one after another.  The spread of a metric is the distance
between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
the figure to hold against the metric's ``bound`` in BENCHMARK.json.  With
``--out`` the values, medians and spreads are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values, runs = {}, []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        stamp = json.loads(lines[-2])["stamp"]
        runs.append({"seed": seed, "failed": result["failed"], "passes": stamp["passes"],
                     "loadavg_start": stamp["loadavg_start"][0]})
        print(f"seed {seed}: failed {result['failed']}, passes {stamp['passes']}, "
              f"load {stamp['loadavg_start'][0]:.2f}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else None, "values": vals}
        spread = summary[name]["spread"]
        print(f"{name:42s} median {med:14.6g}  spread {'-' if spread is None else f'{spread:.4f}'}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "runs": runs, "metrics": summary},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
