import copy
import csv
import json
import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocurve import cli, linear, optional
from twocurve.cli import (CapProduct, ScenarioError, main, parse_scenario, run,
                          scenario_to_dict)
from twocurve.curves import libor_bond, ois_bond
from twocurve.linear import FraSpec, SwapSpec
from twocurve.model import FactorState, ModelParams
from twocurve.optional import CapletSpec, QuadratureConfig, SwaptionSpec
from twocurve.oracle import McConfig, mc_price

PARAMS = {
    "b1": 0.5, "b2": 0.3, "b3": 0.4,
    "sigma1": 0.01, "sigma2": 0.02, "sigma3": 0.015,
    "kappa": 0.3, "psi0": [0.01, 0.05, 0.05],
}


def _scenario(products, **extra):
    doc = {"schema_version": 1, "params": dict(PARAMS), "products": products}
    doc.update(extra)
    return doc


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_round_trip_identity():
    doc = _scenario(
        [
            {"type": "bond", "T": 1.0, "curve": "OIS"},
            {"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01},
            {"type": "swap", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
            {"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012},
            {"type": "floorlet", "T": 1.0, "delta": 0.5, "R": 0.012},
            {"type": "swaption", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
            {"type": "cap", "T0": 0.5, "n": 3, "delta": 0.5, "R": 0.012},
        ],
        mc={"n_paths": 4096, "steps_per_year": 32, "seed": 9},
        outputs=["prices", {"curve_dump": {"grid": [0.5, 1.0], "delta": 0.25}}],
    )
    sc = parse_scenario(doc)
    assert parse_scenario(scenario_to_dict(sc)) == sc


def test_bond_at_valuation_date_is_par(tmp_path, capsys):
    path = _write(tmp_path, _scenario([{"type": "bond", "T": 0.0, "curve": "OIS"}]))
    assert run(path, str(tmp_path)) == 0
    with open(tmp_path / "prices.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["type"] == "bond"
    assert float(rows[0]["analytic_price"]) == 1.0


def test_solve_fair_rate_zeroes_fra(tmp_path):
    path = _write(tmp_path, _scenario([{"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.9}]))
    assert run(path, str(tmp_path), solve_fair_rate=True) == 0
    with open(tmp_path / "prices.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert abs(float(rows[0]["analytic_price"])) < 1e-10


def test_unknown_key_rejected_naming_field(tmp_path, capsys):
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS", "frobnicate": 1}])
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "frobnicate" in capsys.readouterr().err
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}])
    doc["params"]["bogus"] = 2.0
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_schema_version(tmp_path):
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}])
    doc["schema_version"] = 2
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2


def test_invalid_json_and_missing_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(str(path), str(tmp_path)) == 2
    assert run(str(tmp_path / "nope.json"), str(tmp_path)) == 2


def test_pricing_error_exit_code(tmp_path, capsys):
    # spread volatility so large the caplet moment condition fails
    doc = _scenario([{"type": "caplet", "T": 3.0, "delta": 1.0, "R": 0.01}])
    doc["params"]["b3"] = 0.05
    doc["params"]["sigma3"] = 0.6
    assert run(_write(tmp_path, doc), str(tmp_path)) == 3
    assert "caplet" in capsys.readouterr().err


def test_csv_has_17_significant_digits(tmp_path):
    path = _write(tmp_path, _scenario([{"type": "bond", "T": 2.0, "curve": "LIBOR"}]))
    assert run(path, str(tmp_path)) == 0
    with open(tmp_path / "prices.csv") as fh:
        rows = list(csv.DictReader(fh))
    text = rows[0]["analytic_price"]
    value = float(text)
    assert format(value, ".17g") == text  # round-trips exactly


def test_full_scenario_with_mc_and_curves(tmp_path):
    doc = _scenario(
        [
            {"type": "bond", "T": 1.0, "curve": "OIS"},
            {"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01},
            {"type": "swap", "T0": 0.5, "n": 2, "gamma": 0.25, "R": 0.01},
        ],
        mc={"n_paths": 4096, "steps_per_year": 32, "seed": 11},
        quad={"n_nodes_per_axis": 64},
        outputs=["prices", {"curve_dump": {"grid": [0.5, 1.0, 2.0], "delta": 0.25}}],
    )
    assert main(["--scenario", _write(tmp_path, doc), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "prices.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["type"] for r in rows] == ["bond", "fra", "swap"]
    for r in rows:
        assert abs(float(r["z_score"])) < 5.0
    with open(tmp_path / "curves.csv") as fh:
        crows = list(csv.DictReader(fh))
    assert len(crows) == 3
    for r in crows:
        assert 0.0 < float(r["p_libor"]) < float(r["p_ois"]) <= 1.0
        assert float(r["fra_rate_multi"]) >= float(r["fra_rate_single"])
        assert float(r["adjustment"]) >= 1.0
        assert 0.0 < float(r["residual"]) <= 1.0


def test_seed_override_changes_mc_stream(tmp_path):
    doc = _scenario(
        [{"type": "bond", "T": 1.0, "curve": "OIS"}],
        mc={"n_paths": 4096, "steps_per_year": 32, "seed": 1},
    )
    path = _write(tmp_path, doc)
    run(path, str(tmp_path / "a"))
    run(path, str(tmp_path / "b"), seed=2)
    run(path, str(tmp_path / "c"))
    with open(tmp_path / "a" / "prices.csv") as fh:
        a = list(csv.DictReader(fh))[0]["mc_mean"]
    with open(tmp_path / "b" / "prices.csv") as fh:
        b = list(csv.DictReader(fh))[0]["mc_mean"]
    with open(tmp_path / "c" / "prices.csv") as fh:
        c = list(csv.DictReader(fh))[0]["mc_mean"]
    assert a == c and a != b


def test_empty_scenario_rejected(tmp_path):
    doc = {"schema_version": 1, "params": dict(PARAMS)}
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_antithetic_must_be_a_json_boolean(tmp_path, capsys):
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}],
                    mc={"n_paths": 4096, "steps_per_year": 32, "antithetic": "false"})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "mc.antithetic" in capsys.readouterr().err
    doc["mc"]["antithetic"] = False
    assert parse_scenario(doc).mc.antithetic is False


def test_products_must_be_a_list(tmp_path, capsys):
    assert run(_write(tmp_path, _scenario(5)), str(tmp_path)) == 2
    assert "products" in capsys.readouterr().err


BOND = {"type": "bond", "T": 1.0, "curve": "OIS"}


@pytest.mark.parametrize("doc, message", [
    ([_scenario([BOND])], "scenario: expected a JSON object"),
    (_scenario([BOND], outputs="prices"), "outputs: expected a list"),
    (_scenario([BOND], outputs=["plots"]), "outputs[0]: unknown output request 'plots'"),
    (_scenario([{**BOND, "curve": "libor"}]),
     "products[0]: curve must be 'OIS' or 'LIBOR', got 'libor'"),
    (_scenario([{**BOND, "curve": 1}]), "products[0].curve: expected a string, got 1"),
    (_scenario([{"type": "swap", "T0": 0.5, "n": 2.5, "gamma": 0.25, "R": 0.01}]),
     "products[0].n: expected an integer, got 2.5"),
    (_scenario([BOND], state={"psi": [0.01, 0.05]}), "state.psi: expected a list of 3 numbers"),
    ({**_scenario([BOND]), "params": {**PARAMS, "sigma1": 0.0}},
     "params: coefficient 'sigma1' must be strictly positive"),
], ids=["not-an-object", "outputs-not-a-list", "unknown-output", "bond-curve",
        "not-a-string", "not-an-integer", "short-list", "zero-sigma"])
def test_malformed_scenario_exits_2_naming_the_field(tmp_path, capsys, doc, message):
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "prices.csv").exists()


def test_curve_dump_grid_entries_must_be_numbers(tmp_path, capsys):
    doc = _scenario([], outputs=[{"curve_dump": {"grid": ["a"], "delta": 0.25}}])
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "outputs[0].curve_dump.grid[0]" in capsys.readouterr().err


def test_non_finite_params_rejected(tmp_path, capsys):
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}])
    doc["params"]["sigma1"] = float("nan")
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "sigma1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["caplet", "floorlet", "cap", "swaption"])
def test_option_products_reject_a_non_default_state(tmp_path, capsys, kind):
    # the option pricers value from t = 0 and psi0; a scenario state that
    # differs is refused, naming the field, instead of being ignored
    prod = {"caplet": {"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012},
            "floorlet": {"type": "floorlet", "T": 1.0, "delta": 0.5, "R": 0.012},
            "cap": {"type": "cap", "T0": 0.5, "n": 2, "delta": 0.5, "R": 0.012},
            "swaption": {"type": "swaption", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
            }[kind]
    fra = {"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01}
    doc = _scenario([fra, prod], state={"psi": [0.02, 0.05, 0.05]})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "state.psi" in err and "products[1]" in err and kind in err
    doc["state"] = {"t": 0.25}
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "state.t" in capsys.readouterr().err
    # the default state written out in full, and any state for the FRA alone, pass
    doc["state"] = {"t": 0.0, "psi": PARAMS["psi0"]}
    assert parse_scenario(doc).state.psi == tuple(PARAMS["psi0"])
    assert run(_write(tmp_path, _scenario([fra], state={"psi": [0.02, 0.05, 0.05]})),
               str(tmp_path)) == 0


MODEL = ModelParams(**{k: v for k, v in PARAMS.items() if k != "psi0"},
                    psi0=tuple(PARAMS["psi0"]))
STATE0 = FactorState(0.0, MODEL.psi0)

# (scenario product, its price at fixed rate R by a direct library call, its
# fair rate by a direct library call or None)
LIBRARY_CASES = [
    pytest.param({"type": "bond", "T": 2.0, "curve": "OIS"},
                 lambda R: ois_bond(STATE0, 2.0, MODEL).value, None, id="bond-OIS"),
    pytest.param({"type": "bond", "T": 3.0, "curve": "LIBOR"},
                 lambda R: libor_bond(STATE0, 3.0, MODEL).value, None, id="bond-LIBOR"),
    pytest.param({"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01, "notional": 2.5},
                 lambda R: linear.fra_price(STATE0, FraSpec(1.0, 0.5, R, 2.5), MODEL),
                 lambda: linear.fair_fra_rate(STATE0, 1.0, 0.5, MODEL), id="fra"),
    pytest.param({"type": "swap", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
                 lambda R: linear.swap_price(STATE0, SwapSpec(0.5, 4, 0.25, R), MODEL),
                 lambda: linear.fair_swap_rate(STATE0, SwapSpec(0.5, 4, 0.25, 0.01), MODEL),
                 id="swap"),
    pytest.param({"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012},
                 lambda R: optional.caplet_price(CapletSpec(1.0, 0.5, R), MODEL),
                 lambda: linear.fair_fra_rate(STATE0, 1.0, 0.5, MODEL), id="caplet"),
    pytest.param({"type": "floorlet", "T": 1.5, "delta": 0.5, "R": 0.03, "notional": 3},
                 lambda R: optional.floorlet_price(CapletSpec(1.5, 0.5, R, 3.0), MODEL),
                 lambda: linear.fair_fra_rate(STATE0, 1.5, 0.5, MODEL), id="floorlet"),
    pytest.param({"type": "swaption", "T0": 0.5, "n": 4, "gamma": 0.25, "R": 0.01},
                 lambda R: optional.swaption_price(SwaptionSpec(SwapSpec(0.5, 4, 0.25, R)), MODEL),
                 lambda: linear.fair_swap_rate(STATE0, SwapSpec(0.5, 4, 0.25, 0.01), MODEL),
                 id="swaption"),
    pytest.param({"type": "cap", "T0": 0.5, "n": 3, "delta": 0.5, "R": 0.012},
                 lambda R: sum(optional.caplet_price(CapletSpec(0.5 + 0.5 * k, 0.5, R), MODEL)
                               for k in range(3)),
                 lambda: linear.fair_fra_rate(STATE0, 0.5, 0.5, MODEL), id="cap"),
]


@pytest.mark.parametrize("solve", [False, True], ids=["fixed-rate", "fair-rate"])
@pytest.mark.parametrize("prod, direct, fair", LIBRARY_CASES)
def test_every_product_type_prices_as_the_library(tmp_path, prod, direct, fair, solve):
    assert run(_write(tmp_path, _scenario([prod])), str(tmp_path), solve_fair_rate=solve) == 0
    with open(tmp_path / "prices.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["type"] == prod["type"]
    rate = fair() if solve and fair is not None else prod.get("R")
    assert float(row["analytic_price"]) == direct(rate)


@pytest.mark.parametrize("field, value", [("R", math.nan), ("notional", math.inf),
                                          ("T", -math.inf), ("delta", 10 ** 400)])
def test_non_finite_numbers_rejected(tmp_path, capsys, field, value):
    prod = {"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01, field: value}
    assert run(_write(tmp_path, _scenario([prod])), str(tmp_path)) == 2
    assert f"products[0].{field}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_must_be_the_integer_one(tmp_path, capsys, version):
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}])
    doc["schema_version"] = version
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "schema_version" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("delta", -0.5), ("delta", 0.0), ("n", 0), ("n", -2)])
def test_cap_needs_a_caplet_and_a_positive_accrual(tmp_path, capsys, field, value):
    fields = {"T0": 0.5, "n": 3, "delta": 0.5, "R": 0.012, field: value}
    assert run(_write(tmp_path, _scenario([{"type": "cap", **fields}])), str(tmp_path)) == 2
    assert f"products[0]: {field} must be" in capsys.readouterr().err
    with pytest.raises(ValueError):
        CapProduct(**fields)


def test_negative_seed_rejected(tmp_path, capsys):
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}],
                    mc={"n_paths": 1000, "steps_per_year": 32, "seed": -1})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "mc: seed must be >= 0" in capsys.readouterr().err
    doc["mc"]["seed"] = 1
    path = _write(tmp_path, doc)
    assert run(path, str(tmp_path), seed=-1) == 2
    assert "--seed" in capsys.readouterr().err
    del doc["mc"]
    path = _write(tmp_path, doc)
    assert main(["--scenario", path, "--out-dir", str(tmp_path), "--mc", "--seed", "-1"]) == 2
    assert not (tmp_path / "prices.csv").exists()
    with pytest.raises(ValueError):
        McConfig(seed=-1)


@pytest.mark.parametrize("dump, field", [
    ({"grid": [1.0], "delta": 0.0}, "outputs[0].curve_dump: delta"),
    ({"grid": [1.0], "delta": -0.25}, "outputs[0].curve_dump: delta"),
    ({"grid": [0.5, 0.1], "delta": 0.25}, "outputs[0].curve_dump.grid[1]"),
    ({"grid": [math.nan], "delta": 0.25}, "outputs[0].curve_dump.grid[0]"),
    ({"grid": [1.0], "delta": math.inf}, "outputs[0].curve_dump.delta"),
])
def test_curve_dump_inputs_validated(tmp_path, capsys, dump, field):
    # state.t = 0.25, so grid point 0.1 lies before the valuation time
    doc = _scenario([], state={"t": 0.25}, outputs=[{"curve_dump": dump}])
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert field in capsys.readouterr().err


def test_curve_dump_pricing_error_exit_code(tmp_path, capsys):
    # the spread-factor expectation of the Libor FRA rate diverges at T = 5
    doc = _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}],
                    outputs=["prices", {"curve_dump": {"grid": [0.5, 5.0], "delta": 1.0}}])
    doc["params"].update(b3=0.05, sigma3=0.6)
    assert run(_write(tmp_path, doc), str(tmp_path)) == 3
    assert "curve_dump at T=5.0: MomentExplosion" in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("truncation", 0.0), ("truncation", -1.0), ("truncation", math.nan),
    ("truncation", math.inf), ("rel_tol", -1e-7), ("rel_tol", math.nan),
    ("max_refinements", -1),
])
def test_quadrature_config_rejects_values_that_misprice(tmp_path, capsys, field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureConfig(**{field: value})
    doc = _scenario([{"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012}],
                    quad={field: value})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "quad" in err and field in err


def test_quadrature_size_bound_exits_2(tmp_path, capsys):
    # refused at validation: the 100 000-node rule is never built
    doc = _scenario([{"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012}],
                    quad={"n_nodes_per_axis": 100000})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "quad" in err and "2048" in err


@pytest.mark.parametrize("product", [
    {"type": "swap", "T0": 0.5, "n": 10**9, "gamma": 0.25, "R": 0.01},
    {"type": "swaption", "T0": 0.5, "n": 10**9, "gamma": 0.25, "R": 0.01},
    {"type": "cap", "T0": 0.5, "n": 10**9, "delta": 0.5, "R": 0.012},
], ids=["swap", "swaption", "cap"])
def test_period_count_bound_exits_2(tmp_path, capsys, monkeypatch, product):
    # refused at validation: a billion periods are never priced
    def price(*args, **kwargs):
        raise AssertionError("a product was priced")

    monkeypatch.setattr(cli, "_price_product", price)
    assert run(_write(tmp_path, _scenario([product])), str(tmp_path)) == 2
    assert "products[0]: n must be in [1, 4096]" in capsys.readouterr().err
    assert not (tmp_path / "prices.csv").exists()


def test_long_horizon_bonds_exit_0(tmp_path):
    doc = _scenario([{"type": "bond", "T": 80.0, "curve": "OIS"},
                     {"type": "bond", "T": 80.0, "curve": "LIBOR"},
                     {"type": "bond", "T": 1e300, "curve": "LIBOR"}])
    doc["params"]["b3"] = 5.0
    assert run(_write(tmp_path, doc), str(tmp_path)) == 0
    with open(tmp_path / "prices.csv") as fh:
        assert all(math.isfinite(float(r["analytic_price"])) for r in csv.DictReader(fh))


@pytest.mark.parametrize("product, dump, solve", [
    ({"type": "fra", "T": 1e300, "delta": 0.25, "R": 0.01}, None, False),
    ({"type": "swap", "T0": 1e300, "n": 2, "gamma": 0.25, "R": 0.01}, None, True),
    (None, {"grid": [1.0, 1e300], "delta": 0.25}, False),
], ids=["fra", "fair-swap-rate", "curve-dump"])
def test_bond_ratios_past_bond_underflow_exit_3(tmp_path, capsys, product, dump, solve):
    doc = _scenario([product] if product else [],
                    outputs=[{"curve_dump": dump}] if dump else ["prices"])
    assert run(_write(tmp_path, doc), str(tmp_path), solve_fair_rate=solve) == 3
    assert "TwoCurveError" in capsys.readouterr().err


@pytest.mark.parametrize("product", [
    {"type": "caplet", "T": 1.0, "delta": 1e300, "R": 0.01},
    {"type": "cap", "T0": 0.5, "n": 2, "delta": 1e300, "R": 0.01},
], ids=["caplet", "cap"])
def test_caplet_accrual_past_bond_underflow_exit_3(tmp_path, capsys, product):
    assert run(_write(tmp_path, _scenario([product])), str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "TwoCurveError" in err and "accrual delta = 1e+300" in err


@pytest.mark.parametrize("b1", [1e-300, 1e300])
def test_mean_reversion_at_the_float_range_prices(tmp_path, b1):
    # b1 -> 0 and b1 -> inf are smooth limits of the closed-form
    # coefficients: the curves at 1e-300 and 1e300 agree with 1e-12 and 1e12
    near = 1e-12 if b1 < 1.0 else 1e12

    def curves(b):
        doc = _scenario([], outputs=[{"curve_dump": {"grid": [0.5, 2.0], "delta": 0.25}}])
        doc["params"]["b1"] = b
        out = tmp_path / str(b)
        out.mkdir()
        assert run(_write(out, doc), str(out)) == 0
        with open(out / "curves.csv") as fh:
            return list(csv.DictReader(fh))

    rows, ref = curves(b1), curves(near)
    assert len(rows) == len(ref) == 2
    for row, row_ref in zip(rows, ref):
        for key, value in row.items():
            assert float(value) == pytest.approx(float(row_ref[key]), abs=1e-12)


def test_subnormal_mean_reversion_exit_2(tmp_path, capsys):
    doc = _scenario([{"type": "bond", "T": 1.5, "curve": "OIS"}])
    doc["params"]["b1"] = 5e-324
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "params: b1 = 5e-324 is subnormal" in capsys.readouterr().err
    assert not (tmp_path / "prices.csv").exists()


def test_simulated_payoff_overflow_exits_3(tmp_path, capsys):
    doc = _scenario([{"type": "swap", "T0": 0.5, "n": 2, "gamma": 0.25, "R": 0.01}],
                    mc={"n_paths": 1000, "steps_per_year": 8, "seed": 3})
    doc["params"]["sigma2"] = 1000.0
    assert run(_write(tmp_path, doc), str(tmp_path)) == 3
    assert "passes the float range" in capsys.readouterr().err


def test_cap_monte_carlo_adds_its_caplets(tmp_path):
    # caplet k on seed + k + 1: the means add, and so do the variances
    doc = _scenario([{"type": "cap", "T0": 0.5, "n": 3, "delta": 0.5, "R": 0.012}],
                    mc={"n_paths": 1000, "steps_per_year": 16, "seed": 5})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 0
    with open(tmp_path / "prices.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    ests = [mc_price(MODEL, CapletSpec(0.5 + 0.5 * k, 0.5, 0.012), McConfig(1000, 16, 6 + k))
            for k in range(3)]
    assert float(row["mc_mean"]) == sum(e.mean for e in ests)
    assert float(row["mc_std_error"]) == math.sqrt(sum(e.std_error ** 2 for e in ests))


def test_time_integral_bias_exits_4(tmp_path, capsys):
    # one fine step a half year: the trapezoid bias of the bank account is
    # 19 standard errors
    doc = _scenario([BOND], mc={"n_paths": 1000, "steps_per_year": 1, "seed": 3})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 4
    assert "error: product 0 (bond): time-integral bias" in capsys.readouterr().err
    assert not (tmp_path / "prices.csv").exists()


@pytest.mark.parametrize("field, value", [("n_paths", 100_000_001),
                                          ("steps_per_year", 1 << 17)])
def test_mc_size_caps_exit_2(tmp_path, capsys, monkeypatch, field, value):
    # refused at validation: no path is simulated
    def simulate(*args, **kwargs):
        raise AssertionError("Monte Carlo was started")

    monkeypatch.setattr(cli, "mc_price", simulate)
    doc = _scenario([{"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01}],
                    mc={"n_paths": 1000, "steps_per_year": 8, field: value})
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert f"mc: {field} must be" in capsys.readouterr().err


def test_seed_without_mc_section_refused(tmp_path, capsys, monkeypatch):
    # --seed alone must not turn on the default 100 000-path simulation
    def simulate(*args, **kwargs):
        raise AssertionError("Monte Carlo was started")

    monkeypatch.setattr(cli, "mc_price", simulate)
    monkeypatch.setattr(cli, "mc_bond", simulate)
    path = _write(tmp_path, _scenario([{"type": "bond", "T": 1.0, "curve": "OIS"}]))
    assert run(path, str(tmp_path), seed=7) == 2
    assert "--seed needs an mc section in the scenario or --mc" in capsys.readouterr().err
    assert main(["--scenario", path, "--out-dir", str(tmp_path), "--seed", "7"]) == 2
    assert not (tmp_path / "prices.csv").exists()


def test_solve_fair_rate_pricing_error_exit_code(tmp_path, capsys):
    # the fair rate of a FRA fixing before the scenario's valuation time
    doc = _scenario([{"type": "fra", "T": 0.5, "delta": 0.5, "R": 0.01}], state={"t": 1.0})
    assert run(_write(tmp_path, doc), str(tmp_path), solve_fair_rate=True) == 3
    assert "product 0 (fra): InvalidTimeOrder" in capsys.readouterr().err


def test_unhashable_type_and_undecodable_file_rejected(tmp_path, capsys):
    doc = _scenario([{"type": ["bond"], "T": 1.0, "curve": "OIS"}])
    assert run(_write(tmp_path, doc), str(tmp_path)) == 2
    assert "products[0].type" in capsys.readouterr().err
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema_version": 1, "x": "\xff"}')
    assert run(str(path), str(tmp_path)) == 2


# Values a mutated field takes: non-finite, negative, zero, small, large or
# tiny but finite, wrongly typed.  Integers stay small, so no example prices
# with many periods, nodes or paths.
BAD_VALUES = [math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0, 2, 1e3, 1e300, 1e-300,
              True, False, "x", [], [1.0], {}, None]
FUZZ_PRODUCTS = [
    {"type": "bond", "T": 1.0, "curve": "LIBOR"},
    {"type": "fra", "T": 1.0, "delta": 0.5, "R": 0.01, "notional": 2.0},
    {"type": "swap", "T0": 0.5, "n": 2, "gamma": 0.25, "R": 0.01},
    {"type": "caplet", "T": 1.0, "delta": 0.5, "R": 0.012},
    {"type": "floorlet", "T": 1.0, "delta": 0.5, "R": 0.012},
    {"type": "swaption", "T0": 0.5, "n": 2, "gamma": 0.25, "R": 0.01},
    {"type": "cap", "T0": 0.5, "n": 2, "delta": 0.5, "R": 0.012},
]


def _key_paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    doc = _scenario([dict(p) for p in draw(st.lists(st.sampled_from(FUZZ_PRODUCTS), max_size=3))],
                    quad={"n_nodes_per_axis": 16, "rel_tol": 1e-3, "max_refinements": 1})
    doc["params"]["psi0"] = list(PARAMS["psi0"])
    if draw(st.booleans()):
        doc["mc"] = {"n_paths": 1000, "steps_per_year": 8, "seed": 3}
    if draw(st.booleans()):
        doc["state"] = {"t": 0.0, "psi": list(PARAMS["psi0"])}
    if draw(st.booleans()):
        doc["outputs"] = ["prices", {"curve_dump": {"grid": [0.5, 2.0], "delta": 0.25}}]
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_key_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent["extra"] = 1
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    if isinstance(doc.get("mc"), dict):
        # not the default 100 000 paths at 512 steps a year
        doc["mc"].setdefault("n_paths", 1000)
        doc["mc"].setdefault("steps_per_year", 8)
    return doc


# a valid seed override without an mc section would simulate the default
# 100 000 paths at 512 steps a year
@settings(max_examples=200, deadline=None)
@given(doc=mutated_scenarios(), solve=st.booleans(), seed=st.sampled_from([None, -1]))
def test_any_scenario_document_ends_in_an_exit_code(doc, solve, seed):
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/scenario.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert run(path, out, seed=seed, solve_fair_rate=solve) in (0, 2, 3, 4)
