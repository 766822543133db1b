"""The public API and the README agree: every exported name resolves, the
quick start imports only exported names, and the scenario example parses;
and importing the library does not import scipy."""

import ast
import json
import re
import subprocess
import sys
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
