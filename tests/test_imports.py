import ast
import json
import os
import subprocess
import sys
from collections import Counter
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
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _defaulted(node) -> list[tuple[str, int | None, ast.expr]]:
    """(name, call position, default) per defaulted parameter; position None if keyword-only.

    A dataclass's parameters are its fields, in field order.
    """
    if isinstance(node, ast.ClassDef):
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
        return [(f.target.id, i, f.value) for i, f in enumerate(fields) if f.value is not None]
    a = node.args
    pos = a.posonlyargs + a.args
    skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i - skip, d) for i, (p, d) in enumerate(zip(pos[first:], a.defaults), first)]
    return out + [(p.arg, None, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _defaults_and_calls(sources: list[str]):
    """Each defaulted parameter as (function, name, position, default), and the
    calls of each function name; a dataclass counts as a function of its fields."""
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    calls: dict[str, list[ast.Call]] = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append(node)
    defaults = [(fn.name, *entry) for fn in nodes
                if isinstance(fn, ast.FunctionDef)
                or isinstance(fn, ast.ClassDef) and _is_dataclass(fn)
                for entry in _defaulted(fn)]
    return defaults, calls


def _passed(call: ast.Call, name: str, position: int | None) -> list[ast.expr]:
    """What call passes for the parameter, by keyword or by position."""
    passed = [kw.value for kw in call.keywords if kw.arg == name]
    if position is not None and position < len(call.args):
        passed.append(call.args[position])
    return passed


def unset_defaults(sources: list[str]) -> list[str]:
    """Defaulted parameters, as "function(param)", that no call in the sources sets.

    A call sets a parameter when it passes it, by keyword or by position, as
    anything but the default's own literal.  Calls are matched to functions
    by name, so a parameter counts as set when any function of its name gets it.
    """
    defaults, calls = _defaults_and_calls(sources)

    def sets(call: ast.Call, name: str, position: int | None, default: ast.expr) -> bool:
        return any(not (isinstance(v, ast.Constant) and isinstance(default, ast.Constant)
                        and v.value == default.value) for v in _passed(call, name, position))

    return [f"{fn}({name})" for fn, name, position, default in defaults
            if not any(sets(c, name, position, default) for c in calls.get(fn, ()))]


def overridden_defaults(sources: list[str]) -> list[str]:
    """Defaulted parameters, as "function(param)", that every call in the sources passes.

    Such a default is never used.  Only functions called at least once count,
    and a call that unpacks ** is left out, since what it passes is unknown.
    """
    defaults, calls = _defaults_and_calls(sources)
    out = []
    for fn, name, position, _ in defaults:
        known = [c for c in calls.get(fn, ()) if all(kw.arg is not None for kw in c.keywords)]
        if known and all(_passed(c, name, position) for c in known):
            out.append(f"{fn}({name})")
    return out


def test_guard_flags_a_parameter_no_call_sets():
    source = ("def f(a, b=1, *, c=None, d=2.0):\n    return a\n"
              "class K:\n    def m(self, x=0, y=0):\n        return x\n"
              "f(0, 1)\nf(0, c=None)\nf(0, d=3.0)\nK().m(1)\n")
    assert unset_defaults([source]) == ["f(b)", "f(c)", "m(y)"]


def test_guard_reads_dataclass_fields_in_order():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 1\n    c: str = ''\n"
              "@dataclass\nclass Q:\n    z: int = 0\n"
              "class R:\n    w: int = 0\n"
              "P(0, 2)\nP(0, c='')\n")
    assert unset_defaults([source]) == ["P(c)", "Q(z)"]


def test_guard_flags_a_default_every_call_overrides():
    source = ("def f(a, b=1, c=2, *, d=3):\n    return a\n"
              "def g(x=0):\n    return x\n"
              "def h(y=0):\n    return y\n"
              "from dataclasses import dataclass\n"
              "@dataclass\nclass P:\n    a: int = 0\n    b: int = 1\n"
              "f(0, 1, d=4)\nf(0, 1, c=2, d=3)\nh(**{'y': 1})\n"
              "P(1, 2)\nP(1, b=0)\n")
    # b and d are passed by both calls of f, even where the value equals the
    # default; g is never called; h's only call unpacks **
    assert overridden_defaults([source]) == ["f(b)", "f(d)", "P(a)", "P(b)"]


def test_every_defaulted_parameter_is_set_by_the_package():
    found = unset_defaults([p.read_text() for p in SOURCES])
    assert sorted(found) == sorted(UNSET_DEFAULTS_ALLOWED)


def test_no_default_is_overridden_by_every_call_in_the_package():
    assert overridden_defaults([p.read_text() for p in SOURCES]) == []


# public module-level functions and classes, and public methods and properties of those
# classes, that nothing in the package names, each with why it stays: the paper's lemmas
# and identities, which the acceptance suite measures, the reference
# test_runners_match_single_field_loop holds extract_A_sequence to, and the single-field
# products that perfbench/trace.py times (SpectralField, which transform_forward builds,
# goes with them)
HELD_FOR_TRACE = "perfbench/trace.py times it; goes with the benchmark revision (ROADMAP item 25)"
UNREFERENCED_ALLOWED = {
    "pointwise_band_norm": "Bernstein and radial Sobolev constants, judged by criterion 8",
    "fractional_chain_ratio": "the fractional chain rule, judged by criterion 8",
    "strichartz_norm": "the S-norm of the Strichartz estimate, extract_A_sequence's reference",
    "duhamel_residual": "the Duhamel formula's defect, judged by criterion 9",
    "transform_forward": HELD_FOR_TRACE,
    "transform_inverse": HELD_FOR_TRACE,
    "apply_multiplier": HELD_FOR_TRACE,
}


def _referenced(node: ast.AST) -> Counter:
    """How often each name is used inside node, as a bare name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class, and of each
    method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef))


def unreferenced_public(sources: list[str]) -> list[str]:
    """Public module-level functions and classes, and public methods and properties of
    those classes, that no code in the sources names apart from their own definitions.
    Names are matched across modules, and methods across classes, by name alone."""
    trees = [ast.parse(source) for source in sources]
    used = sum((_referenced(tree) for tree in trees), Counter())
    return sorted(qualified for tree in trees for qualified, node in _public_definitions(tree)
                  if not node.name.startswith("_")
                  and used[node.name] == _referenced(node)[node.name])


def test_guard_flags_a_public_name_nothing_references():
    module = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def _private():\n    return 0\n"
              "class Lone:\n    def used(self):\n        return Lone\n"
              "class Kept:\n    pass\n"
              "def helper():\n    return used() + Kept\n")
    caller = "import m\nm.helper()\n"
    # recursion and a class naming itself do not count; an attribute in another module does
    assert unreferenced_public([module, caller]) == ["Lone", "recursive"]
    assert unreferenced_public([module]) == ["Lone", "helper", "recursive"]


def test_guard_flags_a_public_method_nothing_references():
    module = ("class Box:\n"
              "    def used(self):\n        return 1\n"
              "    @property\n    def size(self):\n        return 0\n"
              "    @property\n    def width(self):\n        return 0\n"
              "    def lone(self):\n        return self.lone()\n"
              "    def _private(self):\n        return 0\n"
              "    def __len__(self):\n        return 0\n"
              "def helper(box):\n    return box.used() + box.size\n")
    caller = "import m\nm.helper(m.Box())\n"
    # a method or property is used through an attribute of its name, in any module;
    # a method calling itself does not count, and private and dunder methods are not public
    assert unreferenced_public([module, caller]) == ["Box.lone", "Box.width"]
    assert unreferenced_public([module]) == ["Box", "Box.lone", "Box.width", "helper"]


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_public([p.read_text() for p in SOURCES]) == sorted(UNREFERENCED_ALLOWED)


# modules whose private names no other module may use: each quantity they compute has one
# public function.  core is exempt, its private array primitives are shared by design
GUARDED = {p.stem for p in SOURCES} - {"core"}


def private_reaches(module: str, source: str) -> list[str]:
    """The private names of GUARDED modules other than module that its source uses, as
    an attribute (`diagnostics._x`) or by `from .diagnostics import _x`, each given as
    "line k: diagnostics._x"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom):
            uses = [((node.module or "").rpartition(".")[2], alias.name) for alias in node.names]
        else:
            continue
        found += [(node.lineno, f"{owner}.{name}") for owner, name in uses
                  if owner in GUARDED - {module}
                  and name.startswith("_") and not name.startswith("__")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_guard_flags_a_private_name_reached_from_outside():
    source = ("from . import bands, core, diagnostics\n"
              "from .recurrence import ASequence, _s_norm\n"
              "x = diagnostics._virial(g, v, 1.0) + core._power_sum(g, v, 2)\n"
              "y = bands.phi_le(r, 1.0), diagnostics.__name__, fieldio._x, grid._kernel\n")
    # core and a name that is no module, such as grid, are not guarded
    assert private_reaches("cli", source) == ["line 2: recurrence._s_norm",
                                              "line 3: diagnostics._virial",
                                              "line 4: fieldio._x"]
    assert private_reaches("fieldio", source) == ["line 2: recurrence._s_norm",
                                                  "line 3: diagnostics._virial"]


def test_no_module_uses_another_modules_private_names():
    found = {p.stem: private_reaches(p.stem, p.read_text()) for p in SOURCES}
    assert {module: names for module, names in found.items() if names} == {}


# one short sw session: every command, every diagnose kind, and lemma's extraction
# from the stored trajectory
SESSION_CONFIG = {
    "grid": {"r_max": 15.0, "n": 640},
    "time": {"dt": 1e-3, "T": 0.25, "cadence": 1},
    "initial": {"kind": "sw", "params": {"t": 0.0}},
    "diagnostics": [{"kind": "virial", "R": 8.0},
                    {"kind": "kinetic_localization", "eta_fraction": 1e-2},
                    {"kind": "concentration", "eta_fraction": 1e-2},
                    {"kind": "frequency_decay", "shell_cut": 1.0, "Ns": [4, 8, 16, 32]},
                    {"kind": "spatial_decay", "N_range": [4, 16], "Rs": [2.0, 3.0, 4.5]}],
    "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 8.0,
                         "beta_prime": 1e-16, "a_bound": 1.0},
              "sequence": {"kind": "from_trajectory", "path": "run/trajectory",
                           "Ns": [16.0, 32.0]}},
    "output_dir": "run",
}


# the radnls modules each command loads, and numpy: a command imports the modules it
# runs when it runs, so a synthetic lemma loads the verifier alone of the numerics and
# no numpy, ground-state judges Q by groundstate's certificate without selftest, and
# diagnose and a lemma extracted from a trajectory load no groundstate
EVERY_MODULE = {"radnls", "radnls.bands", "radnls.cli", "radnls.core", "radnls.diagnostics",
                "radnls.errors", "radnls.evolution", "radnls.fieldio", "radnls.groundstate",
                "radnls.recurrence", "radnls.selftest", "numpy"}
CLI = {"radnls", "radnls.cli", "radnls.errors"}
GROUND_STATE = CLI | {"radnls.core", "radnls.groundstate", "radnls.fieldio", "numpy"}
TRAJECTORY = CLI | {"radnls.core", "radnls.evolution", "radnls.fieldio", "radnls.bands", "numpy"}
LOADED = {
    "ground-state": GROUND_STATE,
    "evolve": GROUND_STATE | {"radnls.evolution"},
    "diagnose": TRAJECTORY | {"radnls.diagnostics"},
    "lemma": TRAJECTORY | {"radnls.recurrence"},
    "lemma synthetic_power": CLI | {"radnls.recurrence"},
    "selftest": EVERY_MODULE - {"radnls.fieldio"},
}


def loaded_after(code: str, *args: str, cwd=None) -> list:
    """The last line that code prints, as JSON, after it ran in a fresh process with args."""
    env = dict(os.environ, PYTHONPATH=str(Path(radnls.__file__).resolve().parents[1]))
    env.pop("RADNLS_OUTPUT_ROOT", None)     # outputs go under cwd
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


# the modules of scipy and radnls, and numpy itself, that the process has loaded
MODULES = ("sorted(m for m in sys.modules if m == 'numpy' "
           "or m.partition('.')[0] in ('scipy', 'radnls'))")


def test_importing_the_cli_loads_no_numpy():
    code = f"import json, sys\nimport radnls.cli\nprint(json.dumps({MODULES}))\n"
    assert loaded_after(code) == sorted(CLI)


def _package_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The radnls modules an import statement imports, without the package prefix."""
    if isinstance(node, ast.Import):
        return [a.name.removeprefix("radnls.") for a in node.names if a.name.startswith("radnls.")]
    if node.level == 0 and (node.module or "").partition(".")[0] != "radnls":
        return []
    module = (node.module or "").removeprefix("radnls").lstrip(".")
    return [module] if module else [alias.name for alias in node.names]


def imports_of(module: str, source: str, target: str) -> list[str]:
    """Where source, the package module of that name, imports the package module target,
    as the dotted names of the classes and functions around each import (the module's
    own name outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, (ast.Import, ast.ImportFrom))
                    and target in _package_modules(child)):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_guard_finds_each_import_of_a_module():
    source = ("from . import core, selftest\n"
              "def f():\n    from .selftest import run_all\n    return run_all\n"
              "class K:\n    def m(self):\n        import radnls.selftest\n"
              "        from radnls import selftest\n        from .selftests import x\n"
              "        from . import groundstate\n")
    assert imports_of("m", source, "selftest") == ["m", "m.f", "m.K.m", "m.K.m"]
    assert imports_of("m", source, "groundstate") == ["m.K.m"]


def test_only_the_selftest_command_imports_selftest():
    # Q's certificate and the solitary-wave check live in groundstate, so no command
    # but selftest, and no module, loads selftest and the modules it pulls in
    found = [where for p in SOURCES for where in imports_of(p.stem, p.read_text(), "selftest")]
    assert found == ["cli.cmd_selftest"]


def test_no_command_loads_scipy(tmp_path):
    # each command in a fresh process, as the CLI runs it; after the command, no
    # module of scipy may be loaded, and the radnls modules and numpy are those of LOADED
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps(SESSION_CONFIG))
    synthetic = tmp_path / "synthetic.json"
    synthetic.write_text(json.dumps(SESSION_CONFIG | {"lemma": {
        "params": SESSION_CONFIG["lemma"]["params"] | {"m0": 1.0},
        "sequence": {"kind": "synthetic_power", "ladder": 600}}}))
    code = ("import json, sys\nfrom radnls import cli\nrc = cli.main(sys.argv[1:])\n"
            f"print(json.dumps([rc, {MODULES}]))\n")
    found = {}
    for name, config, command in (
            ("ground-state", cfg, ["ground-state"]), ("evolve", cfg, ["evolve"]),
            ("diagnose", cfg, ["diagnose", "run/trajectory"]), ("lemma", cfg, ["lemma"]),
            ("lemma synthetic_power", synthetic, ["lemma"]), ("selftest", cfg, ["selftest"])):
        rc, modules = loaded_after(code, "--config", str(config), *command, cwd=tmp_path)
        found[name] = [rc, set(modules)]
    assert found == {name: [0, modules] for name, modules in LOADED.items()}


# perfbench/trace.py loaded by path (its name shadows the standard library's trace), its
# wrappers installed, then a small session and selftest run through them, and the two
# kernel timings it takes on the session's stored Q.  The traced benchmark wraps package
# functions by name and calls the single-field products, which no command reaches
TRACED_SESSION = """
import importlib.util, json, sys
from pathlib import Path
perfbench, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(perfbench))
spec = importlib.util.spec_from_file_location("perfbench_trace", perfbench / "trace.py")
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
tracer = trace.Tracer()
trace.instrument(tracer)
codes = [trace.cli.main(["--config", str(out / "session.json"), *command])
         for command in (["ground-state"], ["evolve"], ["selftest"])]
kernel_us = trace.kernels(out)
names = sorted({s["name"] for s in tracer.spans if not s["name"].startswith("cli.")})
print(json.dumps([codes, sorted(kernel_us), min(kernel_us.values()) > 0, names]))
"""


def test_traced_benchmark_binds_the_package(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "session.json").write_text(json.dumps({
        "grid": {"r_max": 15.0, "n": 128}, "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
        "initial": {"kind": "sw", "params": {"t": 0.0}}, "output_dir": str(out)}))
    perfbench = Path(radnls.__file__).resolve().parents[2] / "perfbench"
    codes, kernels, positive, names = loaded_after(TRACED_SESSION, str(perfbench), str(out))
    assert codes == [0, 0, 0]
    assert kernels == ["core.apply_multiplier_us", "core.transform_pair_us"] and positive
    assert names == ["bands.in_out", "core.grid_build", "evolution.evolve", "evolution.step",
                     "fieldio.load_trajectory", "fieldio.save_trajectory",
                     "groundstate.shooting", "groundstate.solve", "recurrence.verify"]


# core's own J_nu evaluator, and scipy.special's Bessel and modified Bessel functions
# (jn_zeros is a zero finder, not one)
BESSEL = {"_bessel_j", "jv", "jve", "jn", "j0", "j1", "yv", "yve", "yn", "y0", "y1",
          "iv", "ive", "i0", "i0e", "i1", "i1e", "kv", "kve", "kn", "k0", "k0e", "k1", "k1e",
          "hankel1", "hankel1e", "hankel2", "hankel2e",
          "spherical_jn", "spherical_yn", "spherical_in", "spherical_kn"}
BESSEL_BUILDERS = {"RadialGrid.__init__", "RadialGrid._symmetric_kernel"}


def bessel_calls(source: str) -> list[str]:
    """Each call of a function in BESSEL, as "where: name", where being the dotted names
    of the classes and functions around the call ("<module>" outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in BESSEL:
                    found.append(f"{where or '<module>'}: {name}")
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_guard_flags_a_bessel_call():
    source = ("from scipy import special\nfrom scipy.special import jv\n"
              "class G:\n    def build(self):\n"
              "        return special.jv(0, special.jn_zeros(0, 3))\n"
              "def helper(x):\n    return jv(1, x) + special.kve(0, x)\n"
              "X = special.j1(2.0) + core._bessel_j(0, 2.0)\n")
    assert bessel_calls(source) == ["G.build: jv", "helper: jv", "helper: kve", "<module>: j1",
                                    "<module>: _bessel_j"]


def test_one_bessel_builder():
    # the grid's constructor evaluates the zeros j_k and J_{nu+1}(j_k), and
    # _symmetric_kernel every kernel, rescaling's included; nothing else evaluates
    # a Bessel function
    calls = [c for p in SOURCES for c in bessel_calls(p.read_text())]
    assert calls and {c.split(":")[0] for c in calls} <= BESSEL_BUILDERS, calls


# the functions that may read the grid's kernel, as "module.where": its two products,
# the forward and the (span) inverse transform, and the view of its rows that
# mismatch_norm and pointwise_band_norm take; the constructor builds it
KERNEL_READERS = {"core.RadialGrid.__init__", "core.RadialGrid._forward_values",
                  "core.RadialGrid._inverse_values", "core.RadialGrid._kernel_rows"}


def attribute_loads(source: str, attr: str = "_kernel") -> list[str]:
    """Each load of an attribute named attr, as "where", the dotted names of the
    classes and functions around it ("<module>" outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                found.append(where or "<module>")
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_guard_flags_a_kernel_load():
    source = ("class G:\n    def __init__(self):\n        self._kernel = k\n"
              "    def apply(self, v):\n        return self._kernel @ v\n"
              "def helper(g, span):\n    return g._kernel[:, span], g._deriv_kernel\n"
              "X = grid._kernel\n")
    assert attribute_loads(source) == ["G.apply", "helper", "<module>"]
    assert attribute_loads(source, "_deriv_kernel") == ["helper"]


def test_two_kernel_products():
    # every product with the grid's kernel goes through _forward_values or
    # _inverse_values; _kernel_rows hands bands the kernel's rows with no product
    loads = {f"{p.stem}.{where}" for p in SOURCES for where in attribute_loads(p.read_text())}
    assert loads and loads <= KERNEL_READERS, loads


def test_kernel_store_is_read_through_its_certificate():
    # the kernel sits in its store while its certificate runs; _certified_kernel, which
    # runs it, is the store's one reader, and every product reads the _kernel property
    loads = {f"{p.stem}.{where}" for p in SOURCES
             for where in attribute_loads(p.read_text(), "_kernel_store")}
    assert loads == {"core.RadialGrid._certified_kernel"}, loads


def test_kernel_normalisation_stays_in_the_grid():
    # the kernel is J_nu(j_m j_k / S) itself; J_{nu+1}(j_k)^-2 lives in the grid's
    # weights and transform scalars, so no code reads the values J_{nu+1}(j_k)
    loads = [f"{p.stem}.{where}" for p in SOURCES
             for where in attribute_loads(p.read_text(), "_jnext")]
    assert loads == [], loads


# numpy.linalg calls the package may make, as "module.where: name": the 2-column
# least-squares fit of the decay slopes, and mismatch_norm's thin QR factors and K x K
# SVD, whose bits test_bands.py::TestMismatchNorm::test_independent_of_blas_threads
# holds under one and two threads.  numpy.linalg runs on OpenBLAS, whose bits can
# depend on its thread count, so no other solve or factorisation is allowed
LINALG_ALLOWED = {"diagnostics._fit_loglog: lstsq", "bands.mismatch_norm: qr",
                  "bands.mismatch_norm: svd"}


def linalg_calls(source: str) -> list[str]:
    """Each call of a numpy.linalg function, as "where: name", where being the innermost
    function around the call ("<module>" outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = child.func.value
                if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                        and isinstance(owner.value, ast.Name)
                        and owner.value.id in ("np", "numpy")):
                    found.append(f"{where}: {child.func.attr}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_guard_flags_a_linalg_call():
    source = ("import numpy as np\nimport numpy\n"
              "def fit(a, y):\n    return np.linalg.lstsq(a, y)\n"
              "class K:\n    def solve(self, a):\n"
              "        return numpy.linalg.eigh(np.linalg.cholesky(a))\n"
              "X = np.linalg.norm([1.0]) + np.sum([np.linalg])\n")
    assert linalg_calls(source) == ["fit: lstsq", "solve: eigh", "solve: cholesky",
                                    "<module>: norm"]


def test_no_linalg_beyond_the_loglog_fit():
    calls = {f"{p.stem}.{c}" for p in SOURCES for c in linalg_calls(p.read_text())}
    assert calls == LINALG_ALLOWED
