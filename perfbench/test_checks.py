"""Self-tests of the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py

Each workload's checker accepts an unperturbed pass and rejects a price
moved beyond its tolerance; the Monte Carlo check rejects |z| past its bound.
Books are cut down to keep the tests to a few seconds.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from twocurve.linear import SwapSpec  # noqa: E402
from twocurve.oracle import McEstimate  # noqa: E402
from twocurve.optional import CapletSpec, SwaptionSpec  # noqa: E402


def bump(x, rel):
    return x * (1.0 + rel) if x else rel


@pytest.fixture(scope="module")
def risk_pass():
    wl = W.LinearRisk(seed=1)
    wl.swaps = [SwapSpec(0.5, n, 0.25, 0.012) for n in (1, 4)]
    wl.fair_swaps = [SwapSpec(0.5, 4, 0.25, 0.0)]
    return wl.run_pass(W.Clock())


@pytest.fixture(scope="module")
def calibration_pass():
    wl = W.LinearCalibration(seed=1)
    wl.SWAP_N = (2,)
    return wl.run_pass(W.Clock())


@pytest.fixture(scope="module")
def option_pass():
    wl = W.OptionBook(seed=1)
    wl.ladders = wl.ladders[1:2]
    wl.swaptions = [SwaptionSpec(SwapSpec(1.0, n, 0.25, 0.009)) for n in (1, 2)]
    return wl.run_pass(W.Clock())


def perturbed(rec, path, rel):
    """A deep copy of rec with the number at path (keys/indices; a tuple
    element is replaced) scaled by 1 + rel."""
    out = copy.deepcopy(rec)
    *head, last = path
    parent = out
    for key in head[:-1]:
        parent = parent[key]
    holder = parent[head[-1]]
    if isinstance(holder, tuple):
        items = list(holder)
        items[last] = bump(items[last], rel)
        parent[head[-1]] = tuple(items)
    else:
        holder[last] = bump(holder[last], rel)
    return out


def test_linear_risk_accepts_and_rejects(risk_pass):
    assert W.LinearRisk.check(risk_pass) == []
    for path, rel in [
        (("bonds", 0, 2), 1e-6),       # OIS bond vs exp(-integral of forwards)
        (("bonds", 1, 2), 1e-10),      # Libor bond vs the route via OIS (1e-12)
        (("fras", 2, 1), 1e-6),        # FRA vs p * delta * (fair - R)
        (("fair_fras", 3, 1), 1e-6),   # FRA at its fair rate no longer zero
        (("swaps", 1, 1), 1e-6),       # swap vs FRA route (1e-8)
        (("fair_swaps", 0, 1), 1e-6),  # fair swap rate vs FRA route
    ]:
        assert W.LinearRisk.check(perturbed(risk_pass, path, rel)), path


def test_linear_calibration_accepts_and_rejects(calibration_pass):
    assert W.LinearCalibration.check(calibration_pass) == []
    for path, rel in [
        (("fair_fras", 0, 1), 1e-6),
        (("swaps", 0, 1), 1e-6),   # fair swap rate vs FRA route
    ]:
        assert W.LinearCalibration.check(perturbed(calibration_pass, path, rel)), path
    bad = copy.deepcopy(calibration_pass)
    spec, r, v = bad["swaps"][0]
    bad["swaps"][0] = (spec, r, 1e-9)  # swap at its fair rate must price below 1e-10
    assert W.LinearCalibration.check(bad)


def test_option_book_accepts_and_rejects(option_pass):
    assert W.OptionBook.check(option_pass) == []
    # caplet above p(0, T+delta) * vbar, and below zero
    for rel in (1e3, -2.0):
        assert W.OptionBook.check(perturbed(option_pass, ("ladders", 0, 0, 1), rel))
    # ladder no longer decreasing in strike
    bad = copy.deepcopy(option_pass)
    ladder = bad["ladders"][0]
    ladder[1], ladder[2] = (ladder[1][0], ladder[2][1]), (ladder[2][0], ladder[1][1])
    assert W.OptionBook.check(bad)
    # 1-period swaption vs its caplet (rel 1e-6)
    assert W.OptionBook.check(perturbed(option_pass, ("swaptions", 0, 1), 1e-5))
    # 2-period swaption above the sum of its caplets, and below the swap
    assert W.OptionBook.check(perturbed(option_pass, ("swaptions", 1, 1), 1.0))
    assert W.OptionBook.check(perturbed(option_pass, ("swaptions", 1, 1), -1.0))


def test_option_probe_against_3d_quadrature():
    c = CapletSpec(1.0, 0.5, 0.011)
    price = W.optional.caplet_price(c, W.PARAMS)
    assert W.OptionBook.check_probe(c, price) == []
    assert W.OptionBook.check_probe(c, price * (1.0 + 1e-5))


def test_mc_z_bound():
    est = McEstimate(mean=1.0, std_error=0.01, n_paths=1000, bias_proxy=0.0)
    assert W.check_mc("ok", 1.0 + 3.9 * 0.01, est) == []
    assert W.check_mc("far", 1.0 + 4.1 * 0.01, est)


def test_cli_check():
    rows = [{"type": "bond", "analytic_price": "0.98", "z_score": "1.5"},
            {"type": "swaption", "analytic_price": "0.003", "z_score": "-3.9"}]
    good = {"rc": 0, "rows": rows, "curve": 0.9,
            "direct": {"bond": [0.98, 0.98], "swaption": [0.003], "libor_bond": [0.9]}, "mc_calls": 8}
    assert W.CliValidation.check(good) == []
    far = copy.deepcopy(good)
    far["rows"][1]["z_score"] = "4.2"
    assert W.CliValidation.check(far)
    moved = copy.deepcopy(good)
    moved["direct"]["bond"][1] = 0.98 * (1.0 + 1e-9)
    assert W.CliValidation.check(moved)
    curve = copy.deepcopy(good)
    curve["curve"] = 0.9 * (1.0 + 1e-9)
    assert W.CliValidation.check(curve)
    assert W.CliValidation.check({"rc": 4, "rows": [], "direct": {}})
    assert W.CliValidation.check(dict(good, mc_calls=0))


def test_benchmark_json_matches_the_reported_metrics():
    import json

    import run
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(W.WORKLOADS)
