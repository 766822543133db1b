"""One workload in one process: set up, run the timed passes, check, report.

Started by run.py, never by hand.  Prints READY once set-up (imports, input
generation, one untimed warm-up call per product type) is done, and a JSON
result as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 2


def e2e_metrics(name, clock):
    """Medians of the run's calls of one kind, at reference speed."""
    def ms(kind):
        return 1e3 * statistics.median(clock.scaled(kind))

    return {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "prices_per_s": W.prices_per_s(name, clock),
        "price_p50_ms": ms("price"),
        "swap_ms": ms("swap"),
        "caplet_ms": ms("caplet"),
        "swaption_ms": ms("swaption"),
        "mc_s_at_se_1e-5": statistics.median(clock.scaled("mc")),
    }


def latency_summary(clock) -> list:
    """Per kind: call count, median and, from 100 calls on, the highest
    percentile with ten calls beyond it."""
    out = []
    for kind in ("price", "swap", "caplet", "swaption"):
        xs = sorted(clock.scaled(kind))
        line = f"{kind}: n={len(xs)} p50={1e3 * statistics.median(xs):.4g} ms"
        if len(xs) >= 100:
            q = 1.0 - 10.0 / len(xs)
            line += f" p{100 * q:.4g}={1e3 * xs[len(xs) - 11]:.4g} ms"
        out.append(line)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cls = W.WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    wl = cls(args.seed, work_dir) if cls is W.CliValidation else cls(args.seed)
    strip = W.Strip(cls.strip, args.seed)
    try:
        wl.warm_up()
        if not args.trace:
            strip.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = run_trace(wl, args) if args.trace else run_timed(wl, strip, args)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(result))
    return 0


def run_timed(wl, strip, args) -> dict:
    clock = W.Clock()
    walls, failures, rounds = [], [], 0
    t_start = time.perf_counter()
    # a pass starts only while at least half of it fits into --seconds, but
    # every run makes MIN_PASSES, so that no median rests on one pass of a
    # long book; the strip rounds are spread over the run and count towards it
    while (len(walls) < MIN_PASSES
           or time.perf_counter() - t_start + 0.5 * walls[-1] < args.seconds):
        t0 = time.perf_counter()
        rec = wl.run_pass(clock)
        walls.append(time.perf_counter() - t0)
        failures += wl.check(rec)
        while (rounds < strip.ROUNDS - 1
               and time.perf_counter() - t_start >= args.seconds * (rounds + 1) / strip.ROUNDS):
            failures += strip.run_round(clock)
            rounds += 1
    for _ in range(rounds, strip.ROUNDS):
        failures += strip.run_round(clock)
    if hasattr(wl, "check_once"):
        failures += wl.check_once()
    return {"attempted": clock.attempted, "failed": clock.failed, "passes": len(walls),
            "failures": failures, "errors": clock.errors, "latency": latency_summary(clock),
            "slowdown": [f(r for _, r, _ in clock.refs) for f in (min, statistics.median, max)]
            + [f(c for _, _, c in clock.refs) for f in (min, statistics.median, max)]
            + [len(clock.refs)],
            "metrics": e2e_metrics(wl.name, clock)}


def run_trace(wl, args) -> dict:
    """Alternate an untraced and a traced pass over the same seed's inputs;
    the per-layer metrics come from the traced passes only."""
    tracer = tracing.Tracer()
    tracer.install()
    clock = W.Clock(tracer, normalise=False)
    untraced, traced, spans, failures = [], [], [], []
    try:
        t_start = time.perf_counter()
        while not traced or time.perf_counter() - t_start + traced[-1]["wall"] < args.seconds:
            t0 = time.perf_counter()
            rec = wl.run_pass(clock)
            untraced.append(time.perf_counter() - t0)
            failures += wl.check(rec)
            tracer.start_pass()
            t0 = time.perf_counter()
            rec = wl.run_pass(clock)
            traced.append(tracer.end_pass(time.perf_counter() - t0))
            spans.append(tracer.last_spans)
            failures += wl.check(rec)
    finally:
        tracer.uninstall()
    metrics, absent = tracing.layer_metrics(traced, untraced, tracer)
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
    tracing.write_spans(span_file, spans)
    return {"attempted": clock.attempted, "failed": clock.failed, "passes": len(traced),
            "failures": failures, "errors": clock.errors, "absent": absent,
            "absent_names": tracer.absent, "span_file": str(span_file.relative_to(ROOT)),
            "untraced_s": statistics.median(untraced),
            "traced_s": statistics.median(p["wall"] for p in traced), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
