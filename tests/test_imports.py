import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import radnls

SOURCES = sorted(Path(radnls.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references (star and __future__ imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: math", "line 2: path"]


def test_no_unused_imports():
    found = {p.name: unused_imports(p.read_text()) for p in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_cli_import_leaves_the_shooting_solvers_unloaded():
    # only ground-state and selftest shoot; every other command starts without
    # the ODE and root solvers and the scipy packages they pull in
    src = str(Path(radnls.__file__).resolve().parents[1])
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse"]
    code = ("import json, sys, radnls.cli; "
            f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(run.stdout) == []
