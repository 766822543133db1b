"""Batch command-line front end.

Reads a JSON scenario (schema version 1), prices every product
analytically, optionally validates each price against the Monte Carlo
engine, and writes CSV reports plus a human-readable summary to stdout.

Scenario layout::

    {
      "schema_version": 1,
      "params": {"b1": .., "b2": .., "b3": .., "sigma1": .., "sigma2": ..,
                 "sigma3": .., "kappa": .., "psi0": [.., .., ..]},
      "state": {"t": 0.0, "psi": [.., .., ..]},          # optional
      "products": [ {"type": "bond", "T": 1.0, "curve": "OIS"}, ... ],
      "mc":   {"n_paths": .., "steps_per_year": .., "seed": .., "antithetic": ..},
      "quad": {"n_nodes_per_axis": .., "truncation": .., "rel_tol": ..,
               "max_refinements": ..},
      "outputs": ["prices", {"curve_dump": {"grid": [..], "delta": 0.25}}]
    }

Product types: bond{T, curve}, fra{T, delta, R, notional},
swap{T0, n, gamma, R, notional}, caplet/floorlet{T, delta, R, notional},
swaption{T0, n, gamma, R, notional}, cap{T0, n, delta, R, notional}.
Caplets, floorlets, caps and swaptions are priced from t = 0 and psi0, so a
scenario holding one must leave "state" at that default.

Unknown keys anywhere are an error.  Exit codes: 0 success, 2
parse/validation error, 3 pricing error, 4 Monte Carlo bias failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import linear, optional
from .curves import libor_bond, ois_bond
from .errors import BiasDominates, TwoCurveError
from .linear import FraSpec, SwapSpec
from .model import FactorState, ModelParams, validate
from .optional import CapletSpec, QuadratureConfig, SwaptionSpec
from .oracle import McConfig, mc_bond, mc_price

__all__ = ["Scenario", "parse_scenario", "scenario_to_dict", "run", "main"]


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message names the field."""


@dataclass(frozen=True)
class BondProduct:
    T: float
    curve: str


@dataclass(frozen=True)
class CapProduct:
    T0: float
    n: int
    delta: float
    R: float
    notional: float = 1.0

    def caplets(self):
        return [
            CapletSpec(self.T0 + k * self.delta, self.delta, self.R, self.notional)
            for k in range(self.n)
        ]


@dataclass(frozen=True)
class CurveDump:
    grid: tuple
    delta: float


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    state: FactorState
    products: tuple
    mc: McConfig | None = None
    quad: QuadratureConfig = QuadratureConfig()
    want_prices: bool = True
    curve_dump: CurveDump | None = None
    warnings: tuple = field(default=())


def _require_keys(obj: Any, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing key {key!r}")


def _number(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _num(obj: dict, key: str, where: str) -> float:
    return _number(obj[key], f"{where}.{key}")


def _int(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _bool(obj: dict, key: str, where: str) -> bool:
    v = obj[key]
    if not isinstance(v, bool):
        raise ScenarioError(f"{where}.{key}: expected true or false, got {v!r}")
    return v


def _vec3(obj: dict, key: str, where: str) -> tuple:
    v = obj[key]
    if not isinstance(v, list) or len(v) != 3:
        raise ScenarioError(f"{where}.{key}: expected a list of 3 numbers")
    return tuple(_number(x, f"{where}.{key}[{j}]") for j, x in enumerate(v))


def _parse_product(obj: Any, idx: int):
    where = f"products[{idx}]"
    if not isinstance(obj, dict) or "type" not in obj:
        raise ScenarioError(f"{where}: expected an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "bond":
            _require_keys(obj, {"type", "T", "curve"}, {"T", "curve"}, where)
            curve = obj["curve"]
            if curve not in ("OIS", "LIBOR"):
                raise ScenarioError(f"{where}.curve: must be 'OIS' or 'LIBOR'")
            return BondProduct(_num(obj, "T", where), curve)
        if kind == "fra":
            _require_keys(obj, {"type", "T", "delta", "R", "notional"},
                          {"T", "delta", "R"}, where)
            return FraSpec(_num(obj, "T", where), _num(obj, "delta", where),
                           _num(obj, "R", where),
                           _num(obj, "notional", where) if "notional" in obj else 1.0)
        if kind in ("swap", "swaption"):
            _require_keys(obj, {"type", "T0", "n", "gamma", "R", "notional"},
                          {"T0", "n", "gamma", "R"}, where)
            swap = SwapSpec(_num(obj, "T0", where), _int(obj, "n", where),
                            _num(obj, "gamma", where), _num(obj, "R", where),
                            _num(obj, "notional", where) if "notional" in obj else 1.0)
            return swap if kind == "swap" else SwaptionSpec(swap)
        if kind in ("caplet", "floorlet"):
            _require_keys(obj, {"type", "T", "delta", "R", "notional"},
                          {"T", "delta", "R"}, where)
            spec = CapletSpec(_num(obj, "T", where), _num(obj, "delta", where),
                              _num(obj, "R", where),
                              _num(obj, "notional", where) if "notional" in obj else 1.0)
            return spec if kind == "caplet" else ("floorlet", spec)
        if kind == "cap":
            _require_keys(obj, {"type", "T0", "n", "delta", "R", "notional"},
                          {"T0", "n", "delta", "R"}, where)
            return CapProduct(_num(obj, "T0", where), _int(obj, "n", where),
                              _num(obj, "delta", where), _num(obj, "R", where),
                              _num(obj, "notional", where) if "notional" in obj else 1.0)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}.type: unknown product type {kind!r}")


def parse_scenario(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    _require_keys(doc, {"schema_version", "params", "state", "products", "mc",
                        "quad", "outputs"}, {"schema_version", "params"}, "scenario")
    if doc["schema_version"] != 1:
        raise ScenarioError("scenario.schema_version: only version 1 is supported")

    p = doc["params"]
    _require_keys(p, {"b1", "b2", "b3", "sigma1", "sigma2", "sigma3", "kappa", "psi0"},
                  {"b1", "b2", "b3", "sigma1", "sigma2", "sigma3"}, "params")
    fields = {name: _num(p, name, "params")
              for name in ("b1", "b2", "b3", "sigma1", "sigma2", "sigma3")}
    fields["kappa"] = _num(p, "kappa", "params") if "kappa" in p else 0.0
    fields["psi0"] = _vec3(p, "psi0", "params") if "psi0" in p else (0.0, 0.0, 0.0)
    try:
        params = ModelParams(**fields)
        report = validate(params)
    except (TwoCurveError, ValueError) as exc:
        raise ScenarioError(f"params: {exc}") from exc

    if "state" in doc:
        s = doc["state"]
        _require_keys(s, {"t", "psi"}, set(), "state")
        t = _num(s, "t", "state") if "t" in s else 0.0
        psi = _vec3(s, "psi", "state") if "psi" in s else params.psi0
        try:
            state = FactorState(t, psi)
        except ValueError as exc:
            raise ScenarioError(f"state: {exc}") from exc
    else:
        state = FactorState(0.0, params.psi0)

    raw_products = doc.get("products", [])
    if not isinstance(raw_products, list):
        raise ScenarioError(f"products: expected a list, got {raw_products!r}")
    products = tuple(_parse_product(o, i) for i, o in enumerate(raw_products))
    # the option pricers value from t = 0 and params.psi0 only
    if state != FactorState(0.0, params.psi0):
        for i, prod in enumerate(products):
            if isinstance(prod, (CapletSpec, SwaptionSpec, CapProduct, tuple)):
                name = "state.t" if state.t != 0.0 else "state.psi"
                raise ScenarioError(
                    f"{name}: products[{i}] is a {_product_label(prod)}, which is priced "
                    "from t = 0 and params.psi0; drop the state or set it to that")

    mc = None
    if "mc" in doc:
        m = doc["mc"]
        _require_keys(m, {"n_paths", "steps_per_year", "seed", "antithetic"},
                      set(), "mc")
        try:
            mc = McConfig(
                n_paths=_int(m, "n_paths", "mc") if "n_paths" in m else 100_000,
                steps_per_year=_int(m, "steps_per_year", "mc") if "steps_per_year" in m else 512,
                seed=_int(m, "seed", "mc") if "seed" in m else 0,
                antithetic=_bool(m, "antithetic", "mc") if "antithetic" in m else True,
            )
        except ValueError as exc:
            raise ScenarioError(f"mc: {exc}") from exc

    quad = QuadratureConfig()
    if "quad" in doc:
        q = doc["quad"]
        _require_keys(q, {"n_nodes_per_axis", "truncation", "rel_tol",
                          "max_refinements"}, set(), "quad")
        try:
            quad = QuadratureConfig(
                n_nodes_per_axis=_int(q, "n_nodes_per_axis", "quad") if "n_nodes_per_axis" in q else 128,
                truncation=_num(q, "truncation", "quad") if "truncation" in q else 8.0,
                rel_tol=_num(q, "rel_tol", "quad") if "rel_tol" in q else 1e-7,
                max_refinements=_int(q, "max_refinements", "quad") if "max_refinements" in q else 3,
            )
        except ValueError as exc:
            raise ScenarioError(f"quad: {exc}") from exc

    want_prices = False
    curve_dump = None
    outputs = doc.get("outputs", ["prices"])
    if not isinstance(outputs, list):
        raise ScenarioError("outputs: expected a list")
    for i, out in enumerate(outputs):
        if out == "prices":
            want_prices = True
        elif isinstance(out, dict) and set(out) == {"curve_dump"}:
            cd = out["curve_dump"]
            _require_keys(cd, {"grid", "delta"}, {"grid", "delta"},
                          f"outputs[{i}].curve_dump")
            grid = cd["grid"]
            if not isinstance(grid, list) or not grid:
                raise ScenarioError(f"outputs[{i}].curve_dump.grid: expected a non-empty list")
            curve_dump = CurveDump(tuple(_number(x, f"outputs[{i}].curve_dump.grid[{j}]")
                                         for j, x in enumerate(grid)),
                                   _num(cd, "delta", f"outputs[{i}].curve_dump"))
        else:
            raise ScenarioError(f"outputs[{i}]: unknown output request {out!r}")

    if not products and curve_dump is None:
        raise ScenarioError("scenario: need at least one product or a curve_dump output")

    return Scenario(params=params, state=state, products=products, mc=mc,
                    quad=quad, want_prices=want_prices, curve_dump=curve_dump,
                    warnings=report.warnings)


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialize back to the schema; parse_scenario(scenario_to_dict(sc))
    reproduces an identical Scenario."""
    doc: dict = {
        "schema_version": 1,
        "params": {
            "b1": sc.params.b1, "b2": sc.params.b2, "b3": sc.params.b3,
            "sigma1": sc.params.sigma1, "sigma2": sc.params.sigma2,
            "sigma3": sc.params.sigma3, "kappa": sc.params.kappa,
            "psi0": list(sc.params.psi0),
        },
        "state": {"t": sc.state.t, "psi": list(sc.state.psi)},
        "products": [],
    }
    for prod in sc.products:
        if isinstance(prod, BondProduct):
            doc["products"].append({"type": "bond", "T": prod.T, "curve": prod.curve})
        elif isinstance(prod, FraSpec):
            doc["products"].append({"type": "fra", "T": prod.T, "delta": prod.delta,
                                    "R": prod.R, "notional": prod.notional})
        elif isinstance(prod, SwapSpec):
            doc["products"].append({"type": "swap", "T0": prod.T0, "n": prod.n,
                                    "gamma": prod.gamma, "R": prod.R,
                                    "notional": prod.notional})
        elif isinstance(prod, SwaptionSpec):
            sw = prod.swap
            doc["products"].append({"type": "swaption", "T0": sw.T0, "n": sw.n,
                                    "gamma": sw.gamma, "R": sw.R,
                                    "notional": sw.notional})
        elif isinstance(prod, CapletSpec):
            doc["products"].append({"type": "caplet", "T": prod.T, "delta": prod.delta,
                                    "R": prod.R, "notional": prod.notional})
        elif isinstance(prod, tuple) and prod[0] == "floorlet":
            c = prod[1]
            doc["products"].append({"type": "floorlet", "T": c.T, "delta": c.delta,
                                    "R": c.R, "notional": c.notional})
        elif isinstance(prod, CapProduct):
            doc["products"].append({"type": "cap", "T0": prod.T0, "n": prod.n,
                                    "delta": prod.delta, "R": prod.R,
                                    "notional": prod.notional})
    if sc.mc is not None:
        doc["mc"] = {"n_paths": sc.mc.n_paths, "steps_per_year": sc.mc.steps_per_year,
                     "seed": sc.mc.seed, "antithetic": sc.mc.antithetic}
    doc["quad"] = {"n_nodes_per_axis": sc.quad.n_nodes_per_axis,
                   "truncation": sc.quad.truncation, "rel_tol": sc.quad.rel_tol,
                   "max_refinements": sc.quad.max_refinements}
    outputs: list = []
    if sc.want_prices:
        outputs.append("prices")
    if sc.curve_dump is not None:
        outputs.append({"curve_dump": {"grid": list(sc.curve_dump.grid),
                                       "delta": sc.curve_dump.delta}})
    doc["outputs"] = outputs
    return doc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _solve_fair(prod, state, params):
    """Replace the fixed rate of a product by its model-implied fair rate."""
    if isinstance(prod, FraSpec):
        r = linear.fair_fra_rate(state, prod.T, prod.delta, params)
        return FraSpec(prod.T, prod.delta, r, prod.notional)
    if isinstance(prod, SwapSpec):
        r = linear.fair_swap_rate(state, prod, params)
        return SwapSpec(prod.T0, prod.n, prod.gamma, r, prod.notional)
    if isinstance(prod, SwaptionSpec):
        sw = prod.swap
        r = linear.fair_swap_rate(state, sw, params)
        return SwaptionSpec(SwapSpec(sw.T0, sw.n, sw.gamma, r, sw.notional))
    if isinstance(prod, CapletSpec):
        r = linear.fair_fra_rate(state, prod.T, prod.delta, params)
        return CapletSpec(prod.T, prod.delta, r, prod.notional)
    if isinstance(prod, tuple) and prod[0] == "floorlet":
        return ("floorlet", _solve_fair(prod[1], state, params))
    if isinstance(prod, CapProduct):
        r = linear.fair_fra_rate(state, prod.T0, prod.delta, params)
        return CapProduct(prod.T0, prod.n, prod.delta, r, prod.notional)
    return prod


def _price_product(prod, sc: Scenario):
    state, params, quad = sc.state, sc.params, sc.quad
    if isinstance(prod, BondProduct):
        fn = ois_bond if prod.curve == "OIS" else libor_bond
        return fn(state, prod.T, params).value
    if isinstance(prod, FraSpec):
        return linear.fra_price(state, prod, params)
    if isinstance(prod, SwapSpec):
        return linear.swap_price(state, prod, params)
    if isinstance(prod, CapletSpec):
        return optional.caplet_price(prod, params, quad)
    if isinstance(prod, tuple) and prod[0] == "floorlet":
        return optional.floorlet_price(prod[1], params, quad)
    if isinstance(prod, SwaptionSpec):
        return optional.swaption_price(prod, params, quad)
    if isinstance(prod, CapProduct):
        return sum(optional.caplet_price(c, params, quad) for c in prod.caplets())
    raise TypeError(f"unsupported product {prod!r}")


def _mc_product(prod, sc: Scenario):
    params, mc = sc.params, sc.mc
    if isinstance(prod, BondProduct):
        return mc_bond(params, prod.T, prod.curve, mc)
    if isinstance(prod, tuple) and prod[0] == "floorlet":
        return mc_price(params, prod[1], mc, floorlet=True)
    if isinstance(prod, CapProduct):
        # price each caplet with an independent substream and combine
        mean = var = 0.0
        bias = 0.0
        n_min = None
        for k, c in enumerate(prod.caplets()):
            cfg = McConfig(mc.n_paths, mc.steps_per_year, mc.seed + k + 1,
                           mc.antithetic)
            e = mc_price(params, c, cfg)
            mean += e.mean
            var += e.std_error ** 2
            bias += e.bias_proxy
            n_min = e.n_paths if n_min is None else min(n_min, e.n_paths)
        from .oracle import McEstimate

        return McEstimate(mean, math.sqrt(var), n_min, bias)
    return mc_price(params, prod, mc)


def _product_label(prod) -> str:
    if isinstance(prod, BondProduct):
        return "bond"
    if isinstance(prod, FraSpec):
        return "fra"
    if isinstance(prod, SwapSpec):
        return "swap"
    if isinstance(prod, CapletSpec):
        return "caplet"
    if isinstance(prod, tuple):
        return "floorlet"
    if isinstance(prod, SwaptionSpec):
        return "swaption"
    if isinstance(prod, CapProduct):
        return "cap"
    return type(prod).__name__


def run(scenario_path: str, out_dir: str = ".", force_mc: bool = False,
        seed: int | None = None, solve_fair_rate: bool = False) -> int:
    """Execute one scenario file; returns the process exit code."""
    try:
        with open(scenario_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(doc)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if seed is not None or (force_mc and sc.mc is None):
        base = sc.mc or McConfig()
        sc = Scenario(sc.params, sc.state, sc.products,
                      McConfig(base.n_paths, base.steps_per_year,
                               seed if seed is not None else base.seed,
                               base.antithetic),
                      sc.quad, sc.want_prices, sc.curve_dump, sc.warnings)
    use_mc = force_mc or sc.mc is not None

    for w in sc.warnings:
        print(f"warning: {w}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, raw in enumerate(sc.products):
        prod = _solve_fair(raw, sc.state, sc.params) if solve_fair_rate else raw
        try:
            price = _price_product(prod, sc)
            est = _mc_product(prod, sc) if use_mc else None
        except BiasDominates as exc:
            print(f"error: product {idx} ({_product_label(prod)}): {exc}",
                  file=sys.stderr)
            return 4
        except TwoCurveError as exc:
            print(f"error: product {idx} ({_product_label(prod)}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        z = None
        if est is not None:
            z = (price - est.mean) / est.std_error if est.std_error > 0 else 0.0
        rows.append((idx, _product_label(prod), price,
                     est.mean if est else None,
                     est.std_error if est else None, z))

    if sc.want_prices and rows:
        with open(out / "prices.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["product_index", "type", "analytic_price",
                        "mc_mean", "mc_std_error", "z_score"])
            for row in rows:
                w.writerow([_fmt(v) for v in row])

    if sc.curve_dump is not None:
        cd = sc.curve_dump
        state = sc.state
        with open(out / "curves.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "p_ois", "p_libor", "fra_rate_single",
                        "fra_rate_multi", "adjustment", "residual"])
            for T in cd.grid:
                p = ois_bond(state, T, sc.params).value
                pb = libor_bond(state, T, sc.params).value
                v = linear.v_single(state, T, cd.delta, sc.params)
                vb = linear.v_multi(state, T, cd.delta, sc.params)
                w.writerow([_fmt(x) for x in (
                    T, p, pb, (v - 1.0) / cd.delta, (vb - 1.0) / cd.delta,
                    linear.adjustment(state, T, cd.delta, sc.params),
                    linear.residual(state.t, T, cd.delta, sc.params))])

    for idx, label, price, mc_mean, mc_se, z in rows:
        line = f"[{idx}] {label}: price={price:.10g}"
        if mc_mean is not None:
            line += f"  mc={mc_mean:.10g} se={mc_se:.3g} z={z:+.2f}"
        print(line)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="twocurve",
        description="Two-curve Gaussian exponentially quadratic pricing engine",
    )
    ap.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    ap.add_argument("--out-dir", default=".", help="directory for CSV reports")
    ap.add_argument("--mc", action="store_true",
                    help="run Monte Carlo validation even if the scenario omits it")
    ap.add_argument("--seed", type=int, default=None, help="override the MC seed")
    ap.add_argument("--solve-fair-rate", action="store_true",
                    help="replace fixed rates/strikes with model fair rates")
    args = ap.parse_args(argv)
    return run(args.scenario, args.out_dir, args.mc, args.seed,
               args.solve_fair_rate)


if __name__ == "__main__":
    sys.exit(main())
