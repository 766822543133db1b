"""The public API and the README agree: every exported name resolves, the
quick start imports only exported names, and the scenario example parses."""

import ast
import json
import re
from pathlib import Path

import twocurve
from twocurve.cli import parse_scenario

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
