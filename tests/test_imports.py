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


# defaulted parameters that no call in the package sets, each with why it stays
UNSET_DEFAULTS_ALLOWED = {
    "main(argv)": "the console entry point, which reads sys.argv when argv is None",
    "mismatch_real(with_gradient)": "selects the quantity measured; oracle tests measure both",
    "dual_nonlinearity_norm(interval)": "selects the window measured; oracle tests measure both",
}


def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None, ast.expr]]:
    """(name, call position, default) per defaulted parameter; position None if keyword-only."""
    a = fn.args
    pos = a.posonlyargs + a.args
    skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i - skip, d) for i, (p, d) in enumerate(zip(pos[first:], a.defaults), first)]
    return out + [(p.arg, None, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def unset_defaults(sources: list[str]) -> list[str]:
    """Defaulted parameters, as "function(param)", that no call in the sources sets.

    A call sets a parameter when it passes it, by keyword or by position, as
    anything but the default's own literal.  Calls are matched to functions
    by name, so a parameter counts as set when any function of its name gets it.
    """
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    calls: dict[str, list[ast.Call]] = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, name: str, position: int | None, default: ast.expr) -> bool:
        passed = [kw.value for kw in call.keywords if kw.arg == name]
        if position is not None and position < len(call.args):
            passed.append(call.args[position])
        return any(not (isinstance(v, ast.Constant) and isinstance(default, ast.Constant)
                        and v.value == default.value) for v in passed)

    return [f"{fn.name}({name})" for fn in nodes if isinstance(fn, ast.FunctionDef)
            for name, position, default in _defaulted(fn)
            if not any(sets(c, name, position, default) for c in calls.get(fn.name, ()))]


def test_guard_flags_a_parameter_no_call_sets():
    source = ("def f(a, b=1, *, c=None, d=2.0):\n    return a\n"
              "class K:\n    def m(self, x=0, y=0):\n        return x\n"
              "f(0, 1)\nf(0, c=None)\nf(0, d=3.0)\nK().m(1)\n")
    assert unset_defaults([source]) == ["f(b)", "f(c)", "m(y)"]


def test_every_defaulted_parameter_is_set_by_the_package():
    found = unset_defaults([p.read_text() for p in SOURCES])
    assert sorted(found) == sorted(UNSET_DEFAULTS_ALLOWED)


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
