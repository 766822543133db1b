"""The public API and the README agree: every exported name resolves, the
quick start imports only exported names and runs, and the scenario example
parses and keeps its analytic outputs; and importing the library does not
import scipy."""

import ast
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twocurve
from twocurve.cli import parse_scenario, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", README, re.S).group(1)


def test_public_api_matches_the_readme():
    assert [name for name in twocurve.__all__ if not hasattr(twocurve, name)] == []
    imports = [node for node in ast.walk(ast.parse(_block("python")))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and node.module == "twocurve"
                           for node in imports)
    assert {a.name for node in imports for a in node.names} <= set(twocurve.__all__)
    sc = parse_scenario(json.loads(_block("json")))
    assert [kind for kind, _ in sc.products] == ["bond", "fra", "swap", "caplet",
                                                 "swaption", "cap"]


def test_readme_quick_start_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


# the README scenario's prices without its mc section: linear rows to 1e-12
# relative, option rows to 1e-9
README_PRICES = [
    ("bond", 0.9840861362144756, 1e-12),
    ("fra", -0.00020505866397710386, 1e-12),
    ("swap", 0.00092879583396965337, 1e-12),
    ("caplet", 0.0012955705229864543, 1e-9),
    ("swaption", 0.0030643228532972124, 1e-9),
    ("cap", 0.0039312983710343549, 1e-9),
]
# T, p_ois, p_libor, fra_rate_single, fra_rate_multi, adjustment, residual
README_CURVES = [
    (0.5, 0.99446789458778873, 0.99210294451647318, 0.0092444756178000631,
     0.013077679484070792, 1.0009567819040992, 0.99999931008183218),
    (1.0, 0.99014622301198874, 0.98603468412752271, 0.0072709769138183944,
     0.010163867645808011, 1.0007240950058425, 0.99999781700932178),
    (2.0, 0.9840861362144756, 0.97768921127573671, 0.0045525343372343485,
     0.0062572558898761343, 1.0004313324794676, 0.99999436584010082),
    (5.0, 0.97616654112296009, 0.96711701605924494, 0.0013508097688843534,
     0.0018534071799196639, 1.0001374890191139, 0.99998811954930766),
]


def test_readme_scenario_keeps_its_analytic_outputs(tmp_path):
    doc = json.loads(_block("json"))
    del doc["mc"]
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    assert run(str(tmp_path / "scenario.json"), str(tmp_path)) == 0
    with open(tmp_path / "prices.csv") as fh:
        prices = list(csv.DictReader(fh))
    assert [(r["type"], float(r["analytic_price"])) for r in prices] == [
        (kind, pytest.approx(price, rel=rel, abs=0.0)) for kind, price, rel in README_PRICES]
    assert all(r["mc_mean"] == "" for r in prices)
    with open(tmp_path / "curves.csv") as fh:
        curves = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
    assert curves == [pytest.approx(row, rel=1e-12, abs=0.0) for row in README_CURVES]


def test_library_does_not_import_scipy():
    # optional._ndtr exists so that the library need not import scipy; the
    # suite itself imports it (tests/oracles.py), so the check runs in a
    # fresh interpreter
    src = str(Path(twocurve.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import twocurve, twocurve.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
