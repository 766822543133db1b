import csv
import json
import math

import pytest

from twocurve.cli import ScenarioError, main, parse_scenario, run, scenario_to_dict

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
