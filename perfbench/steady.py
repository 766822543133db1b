"""Steadiness: run one workload N times, each with another seed, and print
each metric's median, quartiles, min/max and spread.

    python3 perfbench/steady.py --workload linear_risk --runs 10

Seeds 1 .. --runs, each run as long as BENCHMARK.json's run_seconds.
The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4);
BENCHMARK.json bounds are set from it.  Also prints the share of failed
operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    values, shares = {}, set()
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        wall = time.perf_counter() - t0
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            print(out, file=sys.stderr)
            return 1
        shares.add((res["failed"], res["attempted"], res["failed"] / res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: attempted={res['attempted']} failed={res['failed']} "
              f"run wall {wall:.1f} s", flush=True)

    print(f"\n{args.workload}: {args.runs} runs, --seconds {RUN_SECONDS}")
    print(f"{'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>8s}")
    for name, (unit, xs) in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:32s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(xs):12.6g} {max(xs):12.6g} {spread:8.4f}")
    print("failed shares: " + ", ".join(f"{f}/{a}" for f, a, _ in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
