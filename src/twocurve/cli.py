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
      "quad": {"n_nodes_per_axis": .., "rel_tol": .., "max_refinements": ..},
      "outputs": ["prices", {"curve_dump": {"grid": [..], "delta": 0.25}}]
    }

Product types (PRODUCTS): bond{T, curve}, fra{T, delta, R, notional},
swap{T0, n, gamma, R, notional}, caplet/floorlet{T, delta, R, notional},
swaption{T0, n, gamma, R, notional}, cap{T0, n, delta, R, notional};
notional defaults to 1.  Caplets, floorlets, caps and swaptions are priced
from t = 0 and psi0, so a scenario holding one must leave "state" at that
default.

Input rules: unknown keys anywhere are an error; every number must be finite
(JSON NaN and Infinity are refused); schema_version is the integer 1; a
swap, swaption or cap needs n in [1, 4096], and a caplet, floorlet or cap
delta > 0 and 1 + delta*R > 0; mc needs n_paths in [1000, 10^8] and
steps_per_year a power of two <= 65536; the mc seed (and --seed) must be
>= 0, and --seed needs an mc section or --mc; quad needs rel_tol >= 0,
max_refinements >= 0 and n_nodes_per_axis * 2**max_refinements <= 2048; a
curve_dump needs delta > 0 and grid points at or after state.t.  Exit
codes: 0 success, 2 parse/validation error, 3 pricing error (including a
Monte Carlo grid too large to simulate), 4 Monte Carlo bias failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

from . import linear, optional
from .curves import libor_bond, ois_bond
from .errors import BiasDominates, TwoCurveError
from .linear import _MAX_PERIODS, FraSpec, SwapSpec
from .model import FactorState, ModelParams, validate
from .optional import CapletSpec, QuadratureConfig, SwaptionSpec
from .oracle import McConfig, McEstimate, mc_bond, mc_price

__all__ = ["Scenario", "parse_scenario", "run", "main"]


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message names the field."""


@dataclass(frozen=True)
class BondProduct:
    T: float
    curve: str

    def __post_init__(self):
        if self.curve not in ("OIS", "LIBOR"):
            raise ValueError(f"curve must be 'OIS' or 'LIBOR', got {self.curve!r}")


@dataclass(frozen=True)
class CapProduct:
    T0: float
    n: int
    delta: float
    R: float
    notional: float = 1.0

    def __post_init__(self):
        if not 1 <= self.n <= _MAX_PERIODS:
            raise ValueError(f"n must be in [1, {_MAX_PERIODS}], got {self.n}")
        # the first caplet's checks hold for all: they share delta, R and notional
        CapletSpec(self.T0, self.delta, self.R, self.notional)

    def caplets(self):
        return [
            CapletSpec(self.T0 + k * self.delta, self.delta, self.R, self.notional)
            for k in range(self.n)
        ]


@dataclass(frozen=True)
class CurveDump:
    grid: tuple[float, ...]
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be > 0 and finite, got {self.delta}")


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    state: FactorState
    products: tuple  # ((type, spec), ...), type a key of PRODUCTS
    mc: McConfig | None = None
    quad: QuadratureConfig = QuadratureConfig()
    want_prices: bool = True
    curve_dump: CurveDump | None = None
    warnings: tuple = field(default=())


@dataclass(frozen=True)
class ProductType:
    """One row of PRODUCTS.  The fields of the `spec` dataclass are the
    product's JSON keys, both ways.  price(spec, sc) and mc(spec, sc) value
    it against Scenario sc; fair(spec, sc) is the spec at its model-implied
    fair rate (None: there is no rate to solve); an option is priced from
    t = 0 and params.psi0 only.  The pricers look up mc_price, mc_bond,
    ois_bond and libor_bond in this module when they are called.
    """

    spec: type
    price: Callable
    mc: Callable
    fair: Callable | None = None
    option: bool = False


def _at_fra_rate(spec, T: float, sc: Scenario):
    return replace(spec, R=linear.fair_fra_rate(sc.state, T, spec.delta, sc.params))


def _at_swap_rate(spec: SwapSpec, sc: Scenario) -> SwapSpec:
    return replace(spec, R=linear.fair_swap_rate(sc.state, spec, sc.params))


def _mc_cap(cap: CapProduct, sc: Scenario) -> McEstimate:
    """Each caplet on its own substream, seed + k + 1; the means, variances
    and bias proxies add."""
    ests = [mc_price(sc.params, c, replace(sc.mc, seed=sc.mc.seed + k + 1))
            for k, c in enumerate(cap.caplets())]
    return McEstimate(sum(e.mean for e in ests),
                      math.sqrt(sum(e.std_error ** 2 for e in ests)),
                      min(e.n_paths for e in ests), sum(e.bias_proxy for e in ests))


PRODUCTS = {
    "bond": ProductType(
        BondProduct,
        price=lambda s, sc: (ois_bond if s.curve == "OIS" else libor_bond)(
            sc.state, s.T, sc.params).value,
        mc=lambda s, sc: mc_bond(sc.params, s.T, s.curve, sc.mc)),
    "fra": ProductType(
        FraSpec,
        price=lambda s, sc: linear.fra_price(sc.state, s, sc.params),
        mc=lambda s, sc: mc_price(sc.params, s, sc.mc),
        fair=lambda s, sc: _at_fra_rate(s, s.T, sc)),
    "swap": ProductType(
        SwapSpec,
        price=lambda s, sc: linear.swap_price(sc.state, s, sc.params),
        mc=lambda s, sc: mc_price(sc.params, s, sc.mc),
        fair=_at_swap_rate),
    "caplet": ProductType(
        CapletSpec,
        price=lambda s, sc: optional.caplet_price(s, sc.params, sc.quad),
        mc=lambda s, sc: mc_price(sc.params, s, sc.mc),
        fair=lambda s, sc: _at_fra_rate(s, s.T, sc), option=True),
    "floorlet": ProductType(
        CapletSpec,
        price=lambda s, sc: optional.floorlet_price(s, sc.params, sc.quad),
        mc=lambda s, sc: mc_price(sc.params, s, sc.mc, floorlet=True),
        fair=lambda s, sc: _at_fra_rate(s, s.T, sc), option=True),
    # held as its underlying swap, whose fields it has
    "swaption": ProductType(
        SwapSpec,
        price=lambda s, sc: optional.swaption_price(SwaptionSpec(s), sc.params, sc.quad),
        mc=lambda s, sc: mc_price(sc.params, SwaptionSpec(s), sc.mc),
        fair=_at_swap_rate, option=True),
    "cap": ProductType(
        CapProduct,
        price=lambda s, sc: sum(optional.caplet_price(c, sc.params, sc.quad)
                                for c in s.caplets()),
        mc=_mc_cap,
        fair=lambda s, sc: _at_fra_rate(s, s.T0, sc), option=True),
}


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
    try:
        if not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ScenarioError(f"{where}: expected a finite number, got {v!r}")


def _integer(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{where}: expected an integer, got {v!r}")
    return v


def _boolean(v: Any, where: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioError(f"{where}: expected true or false, got {v!r}")
    return v


def _text(v: Any, where: str) -> str:
    if not isinstance(v, str):
        raise ScenarioError(f"{where}: expected a string, got {v!r}")
    return v


def _numbers(v: Any, where: str, size: int | None = None) -> tuple:
    if not isinstance(v, list) or not v or (size is not None and len(v) != size):
        raise ScenarioError(f"{where}: expected a list of {size or 'one or more'} numbers")
    return tuple(_number(x, f"{where}[{j}]") for j, x in enumerate(v))


# value parser by field annotation; the dataclasses a scenario fills are
# declared under postponed evaluation, so their annotations are strings
_PARSE = {
    "float": _number,
    "int": _integer,
    "bool": _boolean,
    "str": _text,
    "tuple[float, float, float]": partial(_numbers, size=3),
    "tuple[float, ...]": _numbers,
}


def _build(cls, obj: Any, where: str, **defaults):
    """Dataclass cls from the JSON object obj.  The keys are cls's fields,
    each value parsed by its annotation; a field is required unless cls or
    `defaults` gives it a default.  Errors name where.field, or where when
    cls itself rejects the values."""
    types = {f.name: f.type for f in fields(cls)}
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.name not in defaults}
    _require_keys(obj, set(types), required, where)
    values = {k: _PARSE[types[k]](v, f"{where}.{k}") for k, v in obj.items()}
    try:
        return cls(**{**defaults, **values})
    except (TwoCurveError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_product(obj: Any, idx: int):
    where = f"products[{idx}]"
    if not isinstance(obj, dict) or "type" not in obj:
        raise ScenarioError(f"{where}: expected an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in PRODUCTS:
        raise ScenarioError(f"{where}.type: unknown product type {kind!r}")
    body = {k: v for k, v in obj.items() if k != "type"}
    return kind, _build(PRODUCTS[kind].spec, body, where)


def parse_scenario(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    _require_keys(doc, {"schema_version", "params", "state", "products", "mc",
                        "quad", "outputs"}, {"schema_version", "params"}, "scenario")
    version = doc["schema_version"]
    if type(version) is not int or version != 1:
        raise ScenarioError(
            f"scenario.schema_version: only the integer 1 is supported, got {version!r}")

    params = _build(ModelParams, doc["params"], "params")
    try:
        warnings = validate(params)
    except TwoCurveError as exc:
        raise ScenarioError(f"params: {exc}") from exc
    state = _build(FactorState, doc.get("state", {}), "state", t=0.0, psi=params.psi0)

    raw_products = doc.get("products", [])
    if not isinstance(raw_products, list):
        raise ScenarioError(f"products: expected a list, got {raw_products!r}")
    products = tuple(_parse_product(o, i) for i, o in enumerate(raw_products))
    if state != FactorState(0.0, params.psi0):
        for i, (kind, _) in enumerate(products):
            if PRODUCTS[kind].option:
                name = "state.t" if state.t != 0.0 else "state.psi"
                raise ScenarioError(
                    f"{name}: products[{i}] is a {kind}, which is priced "
                    "from t = 0 and params.psi0; drop the state or set it to that")

    mc = _build(McConfig, doc["mc"], "mc") if "mc" in doc else None
    quad = _build(QuadratureConfig, doc.get("quad", {}), "quad")

    want_prices = False
    curve_dump = None
    outputs = doc.get("outputs", ["prices"])
    if not isinstance(outputs, list):
        raise ScenarioError("outputs: expected a list")
    for i, out in enumerate(outputs):
        if out == "prices":
            want_prices = True
        elif isinstance(out, dict) and set(out) == {"curve_dump"}:
            where = f"outputs[{i}].curve_dump"
            curve_dump = _build(CurveDump, out["curve_dump"], where)
            for j, T in enumerate(curve_dump.grid):
                if T < state.t:
                    raise ScenarioError(f"{where}.grid[{j}]: {T} is before state.t = {state.t}")
        else:
            raise ScenarioError(f"outputs[{i}]: unknown output request {out!r}")

    if not products and curve_dump is None:
        raise ScenarioError("scenario: need at least one product or a curve_dump output")

    return Scenario(params=params, state=state, products=products, mc=mc,
                    quad=quad, want_prices=want_prices, curve_dump=curve_dump,
                    warnings=warnings)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _price_product(prod, sc: Scenario) -> float:
    kind, spec = prod
    return PRODUCTS[kind].price(spec, sc)


def _mc_product(prod, sc: Scenario) -> McEstimate:
    kind, spec = prod
    return PRODUCTS[kind].mc(spec, sc)


def run(scenario_path: str, out_dir: str = ".", force_mc: bool = False,
        seed: int | None = None, solve_fair_rate: bool = False) -> int:
    """Execute one scenario file; returns the process exit code."""
    try:
        with open(scenario_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad JSON or bad UTF-8
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(doc)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if seed is not None and sc.mc is None and not force_mc:
        print("error: --seed needs an mc section in the scenario or --mc", file=sys.stderr)
        return 2
    if seed is not None or (force_mc and sc.mc is None):
        base = sc.mc or McConfig()
        try:
            sc = replace(sc, mc=replace(base, seed=base.seed if seed is None else seed))
        except ValueError as exc:
            print(f"error: --seed: {exc}", file=sys.stderr)
            return 2

    for w in sc.warnings:
        print(f"warning: {w}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, (kind, spec) in enumerate(sc.products):
        try:
            if solve_fair_rate and PRODUCTS[kind].fair is not None:
                spec = PRODUCTS[kind].fair(spec, sc)
            price = _price_product((kind, spec), sc)
            est = _mc_product((kind, spec), sc) if sc.mc is not None else None
        except BiasDominates as exc:
            print(f"error: product {idx} ({kind}): {exc}", file=sys.stderr)
            return 4
        except (TwoCurveError, ArithmeticError) as exc:
            print(f"error: product {idx} ({kind}): {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 3
        z = None
        if est is not None:
            z = (price - est.mean) / est.std_error if est.std_error > 0 else 0.0
        rows.append((idx, kind, price,
                     est.mean if est else None,
                     est.std_error if est else None, z))

    curve_rows = []
    if sc.curve_dump is not None:
        cd, state = sc.curve_dump, sc.state
        try:
            for T in cd.grid:
                p = ois_bond(state, T, sc.params).value
                pb = libor_bond(state, T, sc.params).value
                v = linear.v_single(state, T, cd.delta, sc.params)
                ad = linear.adjustment(state, T, cd.delta, sc.params)
                res = linear.residual(state.t, T, cd.delta, sc.params)
                # v_multi's own product, v * Ad * Res
                curve_rows.append((T, p, pb, (v - 1.0) / cd.delta,
                                   (v * ad * res - 1.0) / cd.delta, ad, res))
        except (TwoCurveError, ArithmeticError) as exc:
            print(f"error: curve_dump at T={T}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 3

    if sc.want_prices and rows:
        with open(out / "prices.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["product_index", "type", "analytic_price",
                        "mc_mean", "mc_std_error", "z_score"])
            for row in rows:
                w.writerow([_fmt(v) for v in row])

    if sc.curve_dump is not None:
        with open(out / "curves.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "p_ois", "p_libor", "fra_rate_single",
                        "fra_rate_multi", "adjustment", "residual"])
            for row in curve_rows:
                w.writerow([_fmt(x) for x in row])

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
    ap.add_argument("--seed", type=int, default=None,
                    help="override the MC seed; needs an mc section in the scenario or --mc")
    ap.add_argument("--solve-fair-rate", action="store_true",
                    help="replace fixed rates/strikes with model fair rates")
    args = ap.parse_args(argv)
    return run(args.scenario, args.out_dir, args.mc, args.seed,
               args.solve_fair_rate)


if __name__ == "__main__":
    sys.exit(main())
