"""The four workloads: inputs made from the seed, timed passes, and checks.

Every workload is a closed loop from one client: the next library call is
sent only when the last one has returned.  A pass is one whole round of the
same operations, so the share of failed operations never depends on how many
passes fit into a run.  Checks compare against independent computations
(indep.py, or a second library route) or required properties, never against
stored output.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import json
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import indep
import refspeed
from twocurve import cli, curves, linear, optional, oracle
from twocurve.errors import TwoCurveError
from twocurve.linear import FraSpec, SwapSpec
from twocurve.model import FactorState, ModelParams
from twocurve.optional import CapletSpec, SwaptionSpec

# The parameter set of the README, used by every workload with one set.
PARAMS = ModelParams(b1=0.5, b2=0.3, b3=0.4, sigma1=0.01, sigma2=0.02, sigma3=0.015,
                     kappa=0.3, psi0=(0.01, 0.05, 0.05))
STATE0 = FactorState(0.0, PARAMS.psi0)

MC_PATHS = 16384  # reference-strip Monte Carlo; the CLI scenario sets its own
MC_STEPS = 64
Z_BOUND = 4.0


def rel_close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def random_params(rng: np.random.Generator) -> ModelParams:
    """A draw from the box of the test suite's random_params: b in [0.05, 1],
    sigma in [0.001, 0.05], kappa in [-0.5, 1], psi0 in [-0.02, 0.06]."""
    b = rng.uniform(0.05, 1.0, size=3)
    s = rng.uniform(0.001, 0.05, size=3)
    return ModelParams(b1=b[0], b2=b[1], b3=b[2], sigma1=s[0], sigma2=s[1], sigma3=s[2],
                       kappa=rng.uniform(-0.5, 1.0),
                       psi0=tuple(rng.uniform(-0.02, 0.06, size=3)))


# Calls are scaled to reference speed (refspeed.py); the kernels are re-timed
# around a call when their last timing is older than this.
REF_STALE_S = 0.2


class Clock:
    """Times single library calls and counts the operations attempted/failed.

    Each sample is one or more (start, end) spans with a weight, filed under
    one or more kinds: "price" (every pricing call of the workload's own
    book), "swap", "caplet", "swaption", "cli" (one CLI run) and "mc" (the
    Monte Carlo calls of one validation, weighted by (std_error / 1e-5)^2).
    With `normalise` the reference kernels are re-timed whenever their last
    timing is older than REF_STALE_S, before a call and after it, and
    `scaled` returns the samples at reference speed; otherwise it returns
    raw seconds.
    """

    def __init__(self, tracer=None, normalise=True):
        self.samples = defaultdict(list)  # kind -> [([(start, end), ...], weight)]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracer = tracer
        self.normalise = normalise
        self.refs = []  # [(time, small slowdown, combined slowdown)]
        if normalise:
            self._ref()

    def _ref(self):
        if not self.refs or time.perf_counter() - self.refs[-1][0] > REF_STALE_S:
            small, combined = refspeed.slowdowns()
            self.refs.append((time.perf_counter(), small, combined))

    def timed(self, fn, *args):
        """(fn(*args), (start, end)) of one call."""
        if self.normalise:
            self._ref()
        t0 = time.perf_counter()
        value = fn(*args)
        t1 = time.perf_counter()
        if self.normalise:
            self._ref()
        return value, (t0, t1)

    def add(self, kinds, spans, weight=1.0):
        for kind in kinds:
            self.samples[kind].append((spans, weight))

    def call(self, kinds, label, fn, *args, weight=None):
        """Time fn(*args) as one operation; a TwoCurveError counts it as
        failed and returns None.  `weight(value)` scales the sample."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.product = label
        try:
            value, span = self.timed(fn, *args)
        except TwoCurveError as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.add(kinds, [span], 1.0 if weight is None else weight(value))
        return value

    def _slowdown(self, times: list, t0: float, t1: float) -> float:
        i = max(bisect.bisect_right(times, t0) - 1, 0)
        j = min(bisect.bisect_left(times, t1), len(times) - 1)
        return math.sqrt(self.refs[i][2] * self.refs[j][2])

    def scaled(self, kind) -> list:
        if not self.normalise:
            return [w * sum(t1 - t0 for t0, t1 in spans) for spans, w in self.samples[kind]]
        times = [t for t, _, _ in self.refs]
        return [w * sum((t1 - t0) / self._slowdown(times, t0, t1) for t0, t1 in spans)
                for spans, w in self.samples[kind]]


def _caplet_bound(spec: CapletSpec, params: ModelParams, state: FactorState) -> float:
    """p(0, T+delta) * vbar: the caplet pays less than 1/pbar(T, T+delta)."""
    p = curves.ois_bond(state, spec.T + spec.delta, params).value
    return p * linear.v_multi(state, spec.T, spec.delta, params)


def check_caplet(spec, price, params=PARAMS, state=STATE0):
    if price is None:
        return []
    upper = _caplet_bound(spec, params, state)
    if not 0.0 <= price <= upper:
        return [f"caplet T={spec.T} R={spec.R}: {price} outside [0, {upper}]"]
    return []


def check_mc(label, price, est):
    z = (price - est.mean) / est.std_error
    if not abs(z) <= Z_BOUND:
        return [f"{label}: |z| = {abs(z):.2f} > {Z_BOUND} (price {price}, mc {est.mean})"]
    return []


# ---------------------------------------------------------------------------
# reference strip: the product kinds a workload's own book does not hold


class Strip:
    """Fixed calls of each product kind the workload's book lacks, so that
    every run reports every end-to-end metric from real calls.  A run makes
    ROUNDS rounds, spread over its timed passes so that they meet the same
    machine conditions as the book.  Strip calls enter only their own kind's
    metric, never prices_per_s or price_p50_ms."""

    CAPLET = CapletSpec(1.0, 0.5, 0.012)
    SWAP = SwapSpec(0.5, 4, 0.25, 0.01)
    SWAPTION = SwaptionSpec(SwapSpec(0.5, 1, 0.25, 0.01))
    ROUNDS = 5
    CHEAP_CALLS = 3

    def __init__(self, kinds, seed: int):
        self.kinds = kinds
        self.mc_seed = int(seeded_rng(seed, 99).integers(2 ** 31))

    def warm_up(self):
        """One call per kind; also fixes the references the strip is checked
        against (the swap by the FRA route, the 1-period swaption and the
        Monte Carlo estimate by the caplet)."""
        if "swap" in self.kinds:
            linear.swap_price(STATE0, SwapSpec(0.5, 1, 0.25, 0.01), PARAMS)
            self.swap_ref = linear.swap_price_via_fras(STATE0, self.SWAP, PARAMS)
        if "caplet" in self.kinds or "mc" in self.kinds:
            self.caplet_ref = optional.caplet_price(self.CAPLET, PARAMS)
        if "swaption" in self.kinds:
            optional.swaption_price(self.SWAPTION, PARAMS)
            s = self.SWAPTION.swap
            self.swaption_ref = optional.caplet_price(CapletSpec(s.T0, s.gamma, s.R), PARAMS)
        if "mc" in self.kinds:
            oracle.mc_price(PARAMS, self.CAPLET, oracle.McConfig(1000, MC_STEPS, 0))

    def run_round(self, clock: Clock) -> list:
        """CHEAP_CALLS calls of the swap and the caplet, one of the swaption
        and the Monte Carlo validation, each checked."""
        failures = []
        for _ in range(self.CHEAP_CALLS if "swap" in self.kinds else 0):
            v = clock.call(("swap",), "strip swap", linear.swap_price, STATE0, self.SWAP, PARAMS)
            if v is not None and not rel_close(v, self.swap_ref, 1e-8, 1e-12):
                failures.append(f"strip swap {v} != FRA route {self.swap_ref}")
        for _ in range(self.CHEAP_CALLS if "caplet" in self.kinds else 0):
            v = clock.call(("caplet",), "strip caplet", optional.caplet_price, self.CAPLET, PARAMS)
            failures += check_caplet(self.CAPLET, v)
        if "swaption" in self.kinds:
            v = clock.call(("swaption",), "strip swaption", optional.swaption_price,
                           self.SWAPTION, PARAMS)
            if v is not None and not rel_close(v, self.swaption_ref, 1e-6):
                failures.append(f"strip 1-period swaption {v} != caplet {self.swaption_ref}")
        if "mc" in self.kinds:
            failures += mc_call(clock, "strip mc caplet", self.CAPLET,
                                oracle.McConfig(MC_PATHS, MC_STEPS, self.mc_seed), self.caplet_ref)
        return failures


def mc_call(clock, label, spec, config, price):
    """One timed Monte Carlo validation, filed under "mc" with weight
    (se / 1e-5)^2, and checked against the analytic price."""
    est = clock.call(("mc",), label, oracle.mc_price, PARAMS, spec, config,
                     weight=lambda e: (e.std_error / 1e-5) ** 2)
    return [] if est is None else check_mc(label, price, est)


# ---------------------------------------------------------------------------
# linear_risk


class LinearRisk:
    """A desk re-prices one book under many bumped factor states with the
    README parameter set.  One pass is the whole book under one state."""

    name = "linear_risk"
    strip = ("caplet", "swaption", "mc")
    BOND_T = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
    FRA_T = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    BUMP = (0.005, 0.01, 0.01)

    def __init__(self, seed: int):
        rng = seeded_rng(seed, 1)
        self.fras = [FraSpec(T, 0.5, 0.01 + rng.uniform(-0.005, 0.005)) for T in self.FRA_T]
        self.swaps = [SwapSpec(0.5, n, 0.25, 0.01 + rng.uniform(-0.005, 0.005)) for n in (4, 10, 40)]
        self.fair_swaps = [SwapSpec(0.5, n, 0.25, 0.0) for n in (4, 10)]
        self.state_rng = seeded_rng(seed, 1, 1)

    def warm_up(self):
        curves.ois_bond(STATE0, 1.0, PARAMS)
        curves.libor_bond(STATE0, 1.0, PARAMS)
        linear.fra_price(STATE0, self.fras[0], PARAMS)
        linear.fair_fra_rate(STATE0, 1.0, 0.5, PARAMS)
        linear.fair_swap_rate(STATE0, SwapSpec(0.5, 1, 0.25, 0.0), PARAMS)

    def run_pass(self, clock: Clock) -> dict:
        psi = np.asarray(PARAMS.psi0) + self.state_rng.normal(0.0, self.BUMP)
        st = FactorState(0.0, tuple(psi))
        rec = {"state": st, "bonds": [], "fras": [], "fair_fras": [], "swaps": [], "fair_swaps": []}
        for T in self.BOND_T:
            for curve, fn in (("OIS", curves.ois_bond), ("LIBOR", curves.libor_bond)):
                q = clock.call(("price",), f"{curve} bond {T}", fn, st, T, PARAMS)
                rec["bonds"].append((curve, T, q and q.value))
        for spec in self.fras:
            rec["fras"].append((spec, clock.call(("price",), f"fra {spec.T}", linear.fra_price,
                                                 st, spec, PARAMS)))
        for T in self.FRA_T:
            rec["fair_fras"].append((T, clock.call(("price",), f"fair fra {T}", linear.fair_fra_rate,
                                                   st, T, 0.5, PARAMS)))
        for spec in self.swaps:
            rec["swaps"].append((spec, clock.call(("price", "swap"), f"swap n={spec.n}",
                                                  linear.swap_price, st, spec, PARAMS)))
        for spec in self.fair_swaps:
            rec["fair_swaps"].append((spec, clock.call(("price",), f"fair swap n={spec.n}",
                                                       linear.fair_swap_rate, st, spec, PARAMS)))
        return rec

    @staticmethod
    def check(rec: dict) -> list:
        st, out = rec["state"], []
        for curve, T, v in rec["bonds"]:
            if v is None:
                continue
            ref = indep.bond_from_forwards(curves.inst_forward, st, T, PARAMS, curve)
            if not rel_close(v, ref, 1e-8):
                out.append(f"{curve} bond {T}: {v} != exp(-int f) {ref}")
            if curve == "LIBOR":
                via = curves.libor_bond_via_ois(st, T, PARAMS).value
                if not rel_close(v, via, 1e-12):
                    out.append(f"LIBOR bond {T}: {v} != via OIS {via}")
        fair = dict(rec["fair_fras"])
        for spec, v in rec["fras"]:
            f = fair.get(spec.T)
            if v is None or f is None:
                continue
            # the FRA price is affine in R with slope -p(t, T+delta) * delta
            p = curves.ois_bond(st, spec.T + spec.delta, PARAMS).value
            ref = spec.notional * p * spec.delta * (f - spec.R)
            if not rel_close(v, ref, 1e-9, 1e-15):
                out.append(f"fra {spec.T}: {v} != p*delta*(fair - R) {ref}")
        for T, f in rec["fair_fras"]:
            if f is not None:
                z = linear.fra_price(st, FraSpec(T, 0.5, f), PARAMS)
                if not abs(z) < 1e-12:
                    out.append(f"fra {T} at its fair rate prices to {z}")
        for spec, v in rec["swaps"]:
            if v is not None:
                ref = linear.swap_price_via_fras(st, spec, PARAMS)
                if not rel_close(v, ref, 1e-8, 1e-12):
                    out.append(f"swap n={spec.n}: {v} != FRA route {ref}")
        for spec, r in rec["fair_swaps"]:
            if r is not None:
                ref = linear.swap_price_via_fras(st, spec, PARAMS) / linear.swap_annuity(st, spec, PARAMS)
                if not rel_close(r, ref, 1e-8, 1e-14):
                    out.append(f"fair swap n={spec.n}: {r} != FRA route {ref}")
        return out


# ---------------------------------------------------------------------------
# linear_calibration


class LinearCalibration:
    """A curve-calibration loop: fair FRA and swap rates under a fresh
    parameter draw at every step, then the swaps re-priced at the solved
    rates.  No draw repeats, so the coefficient memo never carries over."""

    name = "linear_calibration"
    strip = ("caplet", "swaption", "mc")
    FRA_T = (0.5, 1.0, 1.5)
    SWAP_N = (2, 4, 8)

    def __init__(self, seed: int):
        self.rng = seeded_rng(seed, 2)

    def warm_up(self):
        linear.fair_fra_rate(STATE0, 1.0, 0.5, PARAMS)
        spec = SwapSpec(0.5, 1, 0.25, 0.0)
        linear.swap_price(STATE0, spec, PARAMS)
        linear.fair_swap_rate(STATE0, spec, PARAMS)

    def run_pass(self, clock: Clock) -> dict:
        """One calibration step."""
        p = random_params(self.rng)
        st = FactorState(0.0, p.psi0)
        rec = {"params": p, "fair_fras": [], "swaps": []}
        for T in self.FRA_T:
            rec["fair_fras"].append((T, clock.call(("price",), f"fair fra {T}",
                                                   linear.fair_fra_rate, st, T, 0.5, p)))
        for n in self.SWAP_N:
            spec = SwapSpec(0.5, n, 0.25, 0.0)
            r = clock.call(("price", "swap"), f"fair swap n={n}", linear.fair_swap_rate, st, spec, p)
            v = None
            if r is not None:
                v = clock.call(("price",), f"swap n={n} at fair", linear.swap_price, st,
                               SwapSpec(0.5, n, 0.25, r), p)
            rec["swaps"].append((spec, r, v))
        return rec

    @staticmethod
    def check(rec: dict) -> list:
        p, out = rec["params"], []
        st = FactorState(0.0, p.psi0)
        for T, f in rec["fair_fras"]:
            if f is not None:
                z = linear.fra_price(st, FraSpec(T, 0.5, f), p)
                if not abs(z) < 1e-12:
                    out.append(f"fra {T} at its fair rate prices to {z} ({p})")
        for spec, r, v in rec["swaps"]:
            if v is not None and not abs(v) < 1e-10:
                out.append(f"swap n={spec.n} at its fair rate prices to {v} ({p})")
            if r is not None:
                ref = linear.swap_price_via_fras(st, spec, p) / linear.swap_annuity(st, spec, p)
                if not rel_close(r, ref, 1e-8, 1e-14):
                    out.append(f"fair swap n={spec.n}: {r} != FRA route {ref} ({p})")
        return out


# ---------------------------------------------------------------------------
# option_book


class OptionBook:
    """Caplet strike ladders at maturities from 0.5 to 5 y and payer
    swaptions of 1, 4 and 20 quarterly periods, each with the caplets on its
    own schedule, all on the README parameter set."""

    name = "option_book"
    strip = ("swap", "mc")
    # (maturity or period count, strike near the forward rate)
    LADDER = ((0.5, 0.012), (1.0, 0.0095), (2.0, 0.006), (3.0, 0.004), (5.0, 0.002))
    LADDER_OFFSETS = (-0.0025, 0.0, 0.0025)
    SWAPTIONS = ((1, 0.01), (4, 0.0085), (20, 0.0043))
    T0, GAMMA = 1.0, 0.25

    def __init__(self, seed: int):
        rng = seeded_rng(seed, 3)
        self.ladders = []
        for T, atm in self.LADDER:
            atm += rng.uniform(-0.0005, 0.0005)
            self.ladders.append([CapletSpec(T, 0.5, atm + off) for off in self.LADDER_OFFSETS])
        self.swaptions = [SwaptionSpec(SwapSpec(self.T0, n, self.GAMMA,
                                                atm + rng.uniform(-0.0005, 0.0005)))
                          for n, atm in self.SWAPTIONS]
        ladder = self.ladders[int(rng.integers(len(self.ladders)))]
        self.probe = ladder[int(rng.integers(len(ladder)))]

    @staticmethod
    def schedule(spec: SwaptionSpec) -> list:
        s = spec.swap
        return [CapletSpec(s.fix_date(k), s.gamma, s.R) for k in range(1, s.n + 1)]

    def warm_up(self):
        optional.caplet_price(CapletSpec(1.0, 0.5, 0.012), PARAMS)
        optional.swaption_price(SwaptionSpec(SwapSpec(0.5, 1, 0.25, 0.01)), PARAMS)

    def run_pass(self, clock: Clock) -> dict:
        rec = {"ladders": [], "swaptions": []}
        for ladder in self.ladders:
            rec["ladders"].append([(c, clock.call(("price", "caplet"), f"caplet T={c.T} R={c.R:.4f}",
                                                  optional.caplet_price, c, PARAMS)) for c in ladder])
        for spec in self.swaptions:
            n = spec.swap.n
            v = clock.call(("price", "swaption"), f"swaption n={n}", optional.swaption_price, spec, PARAMS)
            sched = [(c, clock.call(("price", "caplet"), f"caplet n={n} T={c.T}",
                                    optional.caplet_price, c, PARAMS)) for c in self.schedule(spec)]
            rec["swaptions"].append((spec, v, sched))
        return rec

    @staticmethod
    def check(rec: dict) -> list:
        out = []
        for ladder in rec["ladders"]:
            for c, v in ladder:
                out += check_caplet(c, v)
            vals = [v for _, v in ladder]
            if None not in vals and not all(a > b for a, b in zip(vals, vals[1:])):
                out.append(f"caplet ladder T={ladder[0][0].T} does not decrease in strike: {vals}")
        for spec, v, sched in rec["swaptions"]:
            for c, cv in sched:
                out += check_caplet(c, cv)
            if v is None or any(cv is None for _, cv in sched):
                continue
            total = sum(cv for _, cv in sched)
            swap = linear.swap_price_via_fras(STATE0, spec.swap, PARAMS)
            slack = 1e-6 * abs(v) + 1e-12
            n = spec.swap.n
            if n == 1 and not rel_close(v, sched[0][1], 1e-6):
                out.append(f"1-period swaption {v} != caplet {sched[0][1]}")
            if not max(0.0, swap) - slack <= v <= total + slack:
                out.append(f"swaption n={n}: {v} outside [max(0, swap {swap}), sum caplets {total}]")
        return out

    def check_once(self) -> list:
        """The probe caplet, priced outside the timed passes, against the
        benchmark's own 3-D quadrature."""
        return self.check_probe(self.probe, optional.caplet_price(self.probe, PARAMS))

    @staticmethod
    def check_probe(c: CapletSpec, price: float) -> list:
        ref = indep.caplet_3d(c.T, c.delta, c.R, PARAMS)
        if not rel_close(price, ref, 1e-6, 1e-12):
            return [f"caplet T={c.T} R={c.R}: {price} != 3-D quadrature {ref}"]
        return []


# ---------------------------------------------------------------------------
# cli_validation

# The Monte Carlo entry points of the CLI: `cli` binds them with
# `from .oracle import ...`.
MC_ENTRY_POINTS = ((cli, "mc_price"), (cli, "mc_bond"))


@contextlib.contextmanager
def record_calls(sites, spans: list):
    """While active, append the (start, end) of every call of the functions
    at `sites` ((module, name) pairs) to `spans`.  A name that no longer
    exists is skipped; CliValidation.check then reports that no Monte Carlo
    call was seen."""
    def wrap(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((t0, time.perf_counter()))
        return timed

    originals = [(mod, name, getattr(mod, name)) for mod, name in sites if hasattr(mod, name)]
    for mod, name, fn in originals:
        setattr(mod, name, wrap(fn))
    try:
        yield spans
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)


class CliValidation:
    """The README scenario through twocurve.cli.run with Monte Carlo on.

    Strikes and the Monte Carlo seed come from the benchmark seed.  After
    each CLI run the scenario's analytic products, and the Libor bond at the
    curve dump's last grid point, are priced by direct library calls, all
    but the swaption and that bond DIRECT_ROUNDS times; those calls give the
    per-product latencies and must reproduce the CLI's output.  The Monte Carlo calls inside the CLI run
    are timed on their own for mc_s_at_se_1e-5, so that the analytic
    pricing of the run is not scaled up with them.
    """

    name = "cli_validation"
    strip = ()
    N_PATHS = 10_000
    DIRECT_ROUNDS = 3
    # the README scenario; each fixed rate is moved by up to 10 bp per seed
    PRODUCTS = (
        {"type": "bond", "T": 2.0, "curve": "OIS"},
        {"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01},
        {"type": "swap", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
        {"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012},
        {"type": "swaption", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
        {"type": "cap", "T0": 0.5, "n": 3, "delta": 0.5, "R": 0.012},
    )

    def __init__(self, seed: int, work_dir: Path):
        rng = seeded_rng(seed, 4)

        def r(base):
            return round(base + rng.uniform(-0.001, 0.001), 6)

        self.doc = {
            "schema_version": 1,
            "params": {"b1": PARAMS.b1, "b2": PARAMS.b2, "b3": PARAMS.b3,
                       "sigma1": PARAMS.sigma1, "sigma2": PARAMS.sigma2,
                       "sigma3": PARAMS.sigma3, "kappa": PARAMS.kappa,
                       "psi0": list(PARAMS.psi0)},
            "products": [dict(p, R=r(p["R"])) if "R" in p else dict(p) for p in self.PRODUCTS],
            "mc": {"n_paths": self.N_PATHS, "steps_per_year": MC_STEPS,
                   "seed": int(rng.integers(2 ** 31))},
            "outputs": ["prices", {"curve_dump": {"grid": [0.5, 1, 2, 5], "delta": 0.25}}],
        }
        self.work_dir = work_dir
        self.path = work_dir / "scenario.json"
        self.out_dir = work_dir / "out"
        work_dir.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.doc, indent=1))

    def direct_calls(self):
        """(label, kinds, fn) pricing each scenario product directly, and the
        Libor bond of the curve dump's last grid point."""
        T = self.doc["outputs"][1]["curve_dump"]["grid"][-1]
        calls = [("libor_bond", ("price",), lambda: curves.libor_bond(STATE0, T, PARAMS).value)]
        for prod in self.doc["products"]:
            kind = prod["type"]
            if kind == "bond":
                calls.append(("bond", ("price",), lambda T=prod["T"]: curves.ois_bond(STATE0, T, PARAMS).value))
            elif kind == "fra":
                spec = FraSpec(prod["T"], prod["delta"], prod["R"])
                calls.append(("fra", ("price",), lambda s=spec: linear.fra_price(STATE0, s, PARAMS)))
            elif kind == "swap":
                spec = SwapSpec(prod["T0"], prod["n"], prod["gamma"], prod["R"])
                calls.append(("swap", ("price", "swap"), lambda s=spec: linear.swap_price(STATE0, s, PARAMS)))
            elif kind == "caplet":
                spec = CapletSpec(prod["T"], prod["delta"], prod["R"])
                calls.append(("caplet", ("price", "caplet"), lambda s=spec: optional.caplet_price(s, PARAMS)))
            elif kind == "swaption":
                spec = SwaptionSpec(SwapSpec(prod["T0"], prod["n"], prod["gamma"], prod["R"]))
                calls.append(("swaption", ("price", "swaption"),
                              lambda s=spec: optional.swaption_price(s, PARAMS)))
            elif kind == "cap":
                caps = [CapletSpec(prod["T0"] + k * prod["delta"], prod["delta"], prod["R"])
                        for k in range(prod["n"])]
                calls.append(("cap", ("price",),
                              lambda cs=caps: sum(optional.caplet_price(c, PARAMS) for c in cs)))
        return calls

    def warm_up(self):
        cli.parse_scenario(self.doc)
        for label, kinds, fn in self.direct_calls():
            if label != "swaption":
                fn()
        optional.swaption_price(SwaptionSpec(SwapSpec(0.5, 1, 0.25, 0.01)), PARAMS)
        oracle.mc_price(PARAMS, CapletSpec(1.0, 0.5, 0.012), oracle.McConfig(1000, MC_STEPS, 0))

    def run_pass(self, clock: Clock) -> dict:
        clock.attempted += 1
        if clock.tracer is not None:
            clock.tracer.product = "cli scenario"
        mc_spans = []
        with contextlib.redirect_stdout(io.StringIO()), record_calls(MC_ENTRY_POINTS, mc_spans):
            rc, span = clock.timed(cli.run, str(self.path), str(self.out_dir))
        rows, curve = [], None
        if rc == 0:
            with open(self.out_dir / "prices.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(self.out_dir / "curves.csv", newline="") as fh:
                curve = float(list(csv.DictReader(fh))[-1]["p_libor"])
            max_se = max(float(r["mc_std_error"]) for r in rows)
            clock.add(("mc",), mc_spans, (max_se / 1e-5) ** 2)
            clock.add(("cli",), [span])
        else:
            clock.failed += 1
            clock.errors.append(f"cli.run exit code {rc}")
        # the products but the swaption (about a second) are priced in every
        # round, so that their medians rest on more calls than the run's few
        # passes; the swaption and the curve dump's bond in the first only
        direct = defaultdict(list)
        for r in range(self.DIRECT_ROUNDS):
            for label, kinds, fn in self.direct_calls():
                if r == 0 or label not in ("swaption", "libor_bond"):
                    direct[label].append(clock.call(kinds, label, fn))
        return {"rc": rc, "rows": rows, "curve": curve, "direct": direct, "mc_calls": len(mc_spans)}

    @staticmethod
    def check(rec: dict) -> list:
        if rec["rc"] != 0:
            return [f"cli.run exit code {rec['rc']}"]
        out = [] if rec["mc_calls"] else ["cli.run made no call of mc_price or mc_bond"]
        for row in rec["rows"]:
            z = float(row["z_score"])
            if not abs(z) <= Z_BOUND:
                out.append(f"cli {row['type']}: |z| = {abs(z):.2f} > {Z_BOUND}")
            for direct in rec["direct"].get(row["type"], []):
                if direct is not None and not rel_close(float(row["analytic_price"]), direct, 1e-12):
                    out.append(f"cli {row['type']}: {row['analytic_price']} != library {direct}")
        for direct in rec["direct"].get("libor_bond", []):
            if direct is not None and not rel_close(rec["curve"], direct, 1e-12):
                out.append(f"cli curve dump Libor bond {rec['curve']} != library {direct}")
        return out

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {
    "linear_risk": LinearRisk,
    "linear_calibration": LinearCalibration,
    "option_book": OptionBook,
    "cli_validation": CliValidation,
}


def prices_per_s(name: str, clock: Clock) -> float:
    """Instruments valued per second of the timed passes.  The CLI values its
    scenario's products, each Monte Carlo validated one counting once;
    elsewhere every book call values one instrument."""
    kind, per_call = ("cli", len(CliValidation.PRODUCTS)) if name == "cli_validation" else ("price", 1)
    times = clock.scaled(kind)
    return per_call * len(times) / sum(times)
