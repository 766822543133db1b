"""Reference figures: the ROADMAP baseline rows, each time stored next to the
price it produced.

    python3 perfbench/reference.py

Best of REPEAT calls per row, in one single-threaded process, on the README
parameter set.  A speed-up that moves a price shows up next to its time.
"""

from __future__ import annotations

import datetime
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from twocurve import linear, optional, oracle  # noqa: E402
from twocurve.linear import SwapSpec  # noqa: E402
from twocurve.optional import CapletSpec, SwaptionSpec  # noqa: E402
from workloads import PARAMS, STATE0  # noqa: E402

REPEAT = 3


def rows():
    swap4, swap40 = SwapSpec(0.5, 4, 0.25, 0.01), SwapSpec(0.5, 40, 0.25, 0.01)
    cap = CapletSpec(1.0, 0.5, 0.012)
    return [
        ("swap_price n=4", lambda: linear.swap_price(STATE0, swap4, PARAMS)),
        ("swap_price n=40", lambda: linear.swap_price(STATE0, swap40, PARAMS)),
        ("swap_price_via_fras n=4", lambda: linear.swap_price_via_fras(STATE0, swap4, PARAMS)),
        ("swap_price_via_fras n=40", lambda: linear.swap_price_via_fras(STATE0, swap40, PARAMS)),
        ("caplet_price T=1", lambda: optional.caplet_price(cap, PARAMS)),
        ("caplet_price T=5", lambda: optional.caplet_price(CapletSpec(5.0, 0.5, 0.012), PARAMS)),
        ("swaption_price 0.5y 4x0.25", lambda: optional.swaption_price(SwaptionSpec(swap4), PARAMS)),
        ("swaption_price 2y 20x0.25",
         lambda: optional.swaption_price(SwaptionSpec(SwapSpec(2.0, 20, 0.25, 0.01)), PARAMS)),
        ("mc_price caplet T=1 100k paths 64 steps/yr",
         lambda: oracle.mc_price(PARAMS, cap, oracle.McConfig(100_000, 64, 1)).mean),
    ]


def main() -> int:
    print(f"# {datetime.date.today()} nproc={os.cpu_count()} best of {REPEAT}")
    print(f"{'quantity':44s} {'best_s':>10s} {'worst_s':>10s}  price")
    for name, fn in rows():
        times = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            price = float(fn())
            times.append(time.perf_counter() - t0)
        print(f"{name:44s} {min(times):10.4f} {max(times):10.4f}  {price!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
