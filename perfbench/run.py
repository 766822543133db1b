"""Pricing benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload option_book --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from src/).
Each workload runs in a fresh single-threaded process (BLAS and OpenMP
pinned to one thread).  With --trace 0 the last line is a JSON object with
every end-to-end metric; with --trace 1 it holds the per-layer metrics of a
separate traced run.  The exit code is non-zero, and no result is printed,
when the workload cannot be set up or run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})  # for this process and its workers

import refspeed  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("linear_risk", "linear_calibration", "option_book", "cli_validation")
E2E_UNITS = {
    "setup_s": "s", "peak_rss_mib": "MiB", "prices_per_s": "1/s", "price_p50_ms": "ms",
    "swap_ms": "ms", "caplet_ms": "ms", "swaption_ms": "ms", "mc_s_at_se_1e-5": "s",
}
SETUP_RUNS = 5  # set-up is timed in this many processes, the last the measuring one
TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, deadline: float, setup_only: bool):
    """Start one worker; return (seconds from spawn to READY, its stdout
    lines after READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
                break
            print(line, end="")
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or ready is None or (not setup_only and not rest):
        raise WorkerFailed(f"worker for {args.workload} exited with code {code}")
    return ready, rest


def timed_setup(args, deadline: float) -> tuple:
    """One set-up-only worker: (seconds from spawn to READY, the combined
    slowdowns timed right before the spawn and right after the worker has
    exited)."""
    before = refspeed.slowdowns()[1]
    ready, _ = spawn(args, deadline, True)
    return ready, before, refspeed.slowdowns()[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [] if args.trace else [timed_setup(args, deadline)
                                        for _ in range(SETUP_RUNS - 1)]
        # the measuring process is the last set-up sample; its slowdown is
        # timed before the spawn only, as the process goes on to its passes
        before = refspeed.slowdowns()[1]
        ready, lines = spawn(args, deadline, False)
        setups.append((ready, before))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={res['passes']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for msg in res["errors"] + res["failures"]:
        print(f"  {msg}")
    if args.trace:
        print(f"trace: untraced pass {res['untraced_s']:.4f} s, traced pass {res['traced_s']:.4f} s, "
              f"overhead {res['metrics']['trace.overhead_s']:+.4f} s; spans in {res['span_file']}")
        if res["absent"] or res["absent_names"]:
            print(f"absent: names {res['absent_names']}, metrics {res['absent']}")
        metrics = {k: {"value": res["metrics"][k], "unit": unit}
                   for k, (unit, _) in LAYER_METRICS.items()}
    else:
        # one factor for the whole set-up phase: a single set-up spans
        # several of the machine's flickers, so the median of all its timings
        slowdown = statistics.median(f for _, *fs in setups for f in fs)
        res["metrics"]["setup_s"] = statistics.median(t for t, *_ in setups) / slowdown
        print("setup_s raw samples: " + ", ".join(f"{t:.4f}" for t, *_ in setups)
              + f"; median set-up slowdown {slowdown:.3f}")
        for line in res["latency"]:
            print(f"latency {line}")
        s_lo, s_med, s_hi, c_lo, c_med, c_hi, n = res["slowdown"]
        print(f"reference kernels, {n} timings: small-kernel slowdown {s_lo:.3f}/{s_med:.3f}/{s_hi:.3f}, "
              f"combined {c_lo:.3f}/{c_med:.3f}/{c_hi:.3f} (min/median/max)")
        metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": not res["failures"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
