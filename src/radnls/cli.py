"""Command-line entry points: ground-state, evolve, diagnose, lemma, selftest.

Configuration is JSON with the keys of DEFAULTS and PARAMS and no others (lemma
checks lemma.params itself); flags override config fields.  Exit codes (ERRORS):
0 ok, 1 a diagnostic check failed, 2 invalid input, 3 I/O error, 4 numerical
guard tripped or numerical failure (an iteration or root-finder that did not
converge).

Outputs are deterministic for a fixed (config, seed): every JSON/CSV file
embeds the config hash, the artifact version, and the seed, and contains no
timestamps.  JSON is written compact with sorted keys.  The environment
variable RADNLS_OUTPUT_ROOT prefixes relative output directories.

Each command imports the modules it runs when it runs, so lemma on a
synthetic or file sequence loads recurrence alone of the numerics, and no numpy;
ground-state loads core, groundstate and fieldio, evolve adds evolution, and
diagnose loads neither groundstate, recurrence nor selftest.  Only the selftest
command loads selftest: Q's certificate (groundstate.check_ground_state) is
what ground-state and evolve judge Q by.

diagnose and a from_trajectory lemma read the spectra evolve stored with the
trajectory, and build the grid's kernel only for a product they make: virial,
concentration and kinetic_localization make none with it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, config_hash
from .errors import (
    CheckFailed,
    ConfigError,
    GroundStateError,
    NumericalFailure,
    ResolutionLossError,
)

if TYPE_CHECKING:
    from . import core, diagnostics, groundstate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

REQUIRED = object()  # the default of a Param the config must give


class Param(NamedTuple):
    """A parameter whose type its default does not show: the type a config value must
    have, and the default, which may be None (worked out from the data) or REQUIRED."""
    type: object  # a type, or a list[...] or tuple[...] of types
    default: object = None


# section -> kind -> {parameter: default}.  A None default is worked out from
# the data: Ns and N_range from the grid's dyadic scales, exponent from lemma s.
PARAMS = {
    "initial": {"gaussian": {"amplitude": 1.0, "width": 1.0}, "ground_state": {},
                "sw": {"t": 0.0}, "pc_ground_state": {"t": -1.0},
                "file": {"path": Param(str, REQUIRED)}},
    "diagnostics": {"virial": {"R": math.inf}, "kinetic_localization": {"eta_fraction": 1e-2},
                    "concentration": {"eta_fraction": 1e-2},
                    "frequency_decay": {"shell_cut": 1.0, "Ns": Param(list[float])},
                    "spatial_decay": {"N_range": Param(tuple[float, float]),
                                      "Rs": Param(list[float], [1.0, 2.0, 4.0])}},
    "lemma.sequence": {"synthetic_power": {"exponent": Param(float), "ladder": 12},
                       "from_trajectory": {"path": Param(str, REQUIRED),
                                           "Ns": Param(list[float], REQUIRED)},
                       "file": {"path": Param(str, REQUIRED)}},
}

# Every top-level key and its default; an object section takes its default's keys only.
DEFAULTS = {
    "dimension": 4,
    "mu": -1,
    "grid": {"r_max": 15.0, "n": 640},
    "time": {"dt": 1e-3, "T": 1.0, "cadence": 10},
    "initial": {"kind": "gaussian", "params": PARAMS["initial"]["gaussian"]},
    "diagnostics": [],
    "lemma": {"params": {}, "sequence": {"kind": "synthetic_power"}},
    "tol": 1e-8,
    "output_dir": "out",
    "seed": 0,
    "format": "json",
}


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _has_type(value, kind) -> bool:
    """Whether value has type kind.  A float takes an int too, an int takes no bool,
    and a tuple[...] is a JSON list of that many values."""
    args = getattr(kind, "__args__", ())
    if kind is float:
        return type(value) in (int, float)
    if getattr(kind, "__origin__", None) is tuple:
        return type(value) is list and len(value) == len(args) and all(map(_has_type, value, args))
    if args:
        return type(value) is list and all(_has_type(v, args[0]) for v in value)
    return type(value) is kind


def _object(where: str, value, known: dict | None = None) -> dict:
    """value, after checking that it is an object whose keys are all in known (if given),
    each of its Param's type or else its default's.  None defaults take anything."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(value if known is None else known))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown} (known: {sorted(known)})")
    for key, default in (known or {}).items():
        if key not in value or default is None or type(default) is dict:
            continue  # absent, unchecked, or an object that is checked as one
        kind = default.type if isinstance(default, Param) else type(default)
        if not _has_type(value[key], kind):
            name = kind.__name__ if type(kind) is type else kind
            raise ConfigError(f"{where}: {key} must be of type {name}, got {value[key]!r}")
    return value


def kind_params(section: str, spec, where: str | None = None) -> tuple[str, dict]:
    """spec's kind and its parameters, PARAMS' defaults overridden by spec's, which stand
    next to the kind or, for initial, under "params" and may be any initial kind's."""
    where, kinds = where or section, PARAMS[section]
    kind = _object(where, spec).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}: unknown kind {kind!r} (have {sorted(kinds)})")
    params = kinds[kind]
    given = (_object("initial.params", spec["params"], {p: v for ps in kinds.values()
                                                         for p, v in ps.items()})
             if section == "initial" else _object(where, spec, {"kind": kind, **params}))
    defaults = {k: v.default if isinstance(v, Param) else v for k, v in params.items()}
    missing = [k for k, v in defaults.items() if v is REQUIRED and k not in given]
    if missing:
        raise ConfigError(f"{where}: kind {kind!r} needs key(s) {missing}")
    return kind, defaults | {k: given[k] for k in params if k in given}


def diagnostic_params(cfg: dict) -> list[tuple[str, dict]]:
    """Kind and parameters of each diagnostic diagnose runs (virial alone if none)."""
    if not isinstance(cfg["diagnostics"], list):
        raise ConfigError(f"diagnostics must be a list, got {cfg['diagnostics']!r}")
    return [kind_params("diagnostics", spec, f"diagnostics[{i}]")
            for i, spec in enumerate(cfg["diagnostics"] or [{"kind": "virial"}])]


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = DEFAULTS
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = _merge(cfg, _object("config", raw, DEFAULTS))
        kind_params("initial", cfg["initial"])  # before its section, so a bad kind is unknown
        for key, default in DEFAULTS.items():
            if isinstance(default, dict):
                _object(key, cfg[key], default)
        diagnostic_params(cfg)
        kind_params("lemma.sequence", cfg["lemma"]["sequence"])
    cfg = _merge(cfg, overrides)
    d = cfg["dimension"]
    if not (isinstance(d, int) and d >= 2 and d % 2 == 0):
        raise ConfigError(f"dimension out of range: {d} (need even integer >= 2)")
    if cfg["mu"] not in (-1, 0, 1):
        raise ConfigError(f"mu must be -1, 0 or 1, got {cfg['mu']}")
    if cfg["format"] not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {cfg['format']}")
    return cfg


def output_dir(cfg: dict) -> Path:
    root = os.environ.get("RADNLS_OUTPUT_ROOT", "")
    out = Path(cfg["output_dir"])
    if root and not out.is_absolute():
        out = Path(root) / out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output dir {out}: {exc}") from exc
    return out


def _stamp(cfg: dict, payload: dict) -> dict:
    return {"artifact_version": __version__, "config_hash": config_hash(cfg),
            "seed": cfg["seed"], **payload}


def write_json(cfg: dict, path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_stamp(cfg, payload), sort_keys=True, default=float) + "\n")


def write_csv(cfg: dict, path: Path, header: list[str], rows) -> None:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in _stamp(cfg, {}).items()), ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _ground_state(cfg: dict, grid: core.RadialGrid, cache: Path):
    """Q from the cache, or solved and cached once it passes its certificate."""
    from . import fieldio, groundstate

    gs = fieldio.load_ground_state(cache, grid, cfg["tol"])
    if gs is None:
        gs = groundstate.solve_ground_state(grid, tol=cfg["tol"])
        groundstate.require_certified(groundstate.check_ground_state(gs))
        fieldio.save_ground_state(gs, cache, cfg["tol"])
    return gs


def _initial_field(cfg: dict, kind: str, params: dict, grid: core.RadialGrid,
                   cache: Path) -> tuple[core.RadialField, groundstate.GroundState | None]:
    """The initial field, and the ground state it is built from (None for gaussian and file)."""
    import numpy as np

    from . import core, fieldio, groundstate

    if kind == "gaussian":
        a, w = params["amplitude"], params["width"]
        return core.field_from_function(grid, lambda r: a * np.exp(-((r / w) ** 2))), None
    if kind == "file":
        return fieldio.load_field_binary(params["path"], grid), None
    gs = _ground_state(cfg, grid, cache)
    if kind == "sw":
        return groundstate.make_sw(gs, params["t"]), gs
    if kind == "pc_ground_state":
        return groundstate.make_pc(gs, params["t"]), gs
    return gs.profile, gs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ground_state(cfg: dict) -> int:
    from . import core, fieldio, groundstate

    out = output_dir(cfg)
    grid = core.make_radial_grid(cfg["dimension"], cfg["grid"]["r_max"], cfg["grid"]["n"])
    gs = groundstate.solve_ground_state(grid, tol=cfg["tol"])
    fieldio.save_field_binary(gs.profile, out / "ground_state.rfb")
    checks = groundstate.check_ground_state(gs)
    value = {key: v for key, (_, v) in checks.items()}
    cert = {
        "dimension": grid.d,
        "mass": gs.mass,
        "mass_shooting": gs.mass_shooting,
        "mass_agreement": value["shooting"],
        "kinetic": gs.kinetic,
        "residual": gs.residual,
        "energy_over_kinetic": value["energy"],
        "gn_ratio": value["sharp_ratio"],
        "pohozaev_kinetic_ratio": value["pohozaev"],
        "min_over_max": value["positivity"],
        "max_rise_over_q0": value["monotonicity"],
        "iterations": gs.iterations,
        "grid_roundtrip_error": grid.roundtrip_error,
        "grid_quadrature_error": grid.quadrature_error,
    }
    write_json(cfg, out / "ground_state_certification.json", cert)
    groundstate.require_certified(checks)
    fieldio.save_ground_state(gs, out / "ground_state_cache", cfg["tol"])
    print(f"ground state: M={gs.mass:.9g} residual={gs.residual:.3e} "
          f"shooting agreement={cert['mass_agreement']:.3e}")
    return EXIT_OK


def cmd_evolve(cfg: dict) -> int:
    from . import evolution, fieldio

    out = output_dir(cfg)
    sim = evolution.SimulationConfig(
        dimension=cfg["dimension"], mu=cfg["mu"], r_max=cfg["grid"]["r_max"],
        n=cfg["grid"]["n"], dt=cfg["time"]["dt"], t_final=cfg["time"]["T"],
        cadence=cfg["time"]["cadence"])
    grid = sim.make_grid()
    kind, params = kind_params("initial", cfg["initial"])
    u0, gs = _initial_field(cfg, kind, params, grid, out / "ground_state_cache")
    traj = evolution.evolve(sim, u0)
    run_dir = out / "trajectory"
    fieldio.save_trajectory(traj, run_dir)
    summary = {
        "snapshots": len(traj),
        "final_time": traj.times[-1],
        "mass_drift": traj.mass_drift,
        "guard_event": traj.guard_event,
        "warnings": traj.warnings,
        # the certificate of the grid whose spectra the trajectory stores
        "grid_roundtrip_error": grid.roundtrip_error,
        "grid_quadrature_error": grid.quadrature_error,
    }
    if kind == "sw":
        from . import groundstate

        summary["sw_final_l2_error"] = groundstate.check_solitary_wave(
            traj, gs, params["t"])["solitary_wave"][1]
    write_json(cfg, out / "evolve_summary.json", summary)
    print(f"evolve: {len(traj)} snapshots to t={traj.times[-1]:g}, "
          f"mass drift {summary['mass_drift']:.3e}")
    if traj.guard_event is not None:
        print(f"guard tripped: {traj.guard_event}")
        raise ResolutionLossError(str(traj.guard_event))
    return EXIT_OK


# Each runner is a pure function of (trajectory, spec holding its kind's PARAMS) returning
# (passed, detail, JSON payload, CSV header, CSV rows); cmd_diagnose writes {kind}.json/.csv.

def _table_csv(rep: diagnostics.DecayFitReport) -> tuple[list[str], list]:
    return (["quantity", rep.scale_name, "value"],
            [(rep.quantity, s, v) for s, v in zip(rep.scales, rep.values)])


def _row_dicts(header: list[str], rows) -> list[dict]:
    return [dict(zip(header, r)) for r in rows]


def _diag_frequency_decay(traj, spec):
    from . import core, diagnostics

    ns = spec["Ns"] or core.dyadic_scales(traj.grid)[-4:]
    rep = diagnostics.frequency_decay_fit(traj, spec["shell_cut"], ns)
    detail = {"exponent": rep.exponent, "threshold": rep.threshold, "note": rep.note}
    return rep.passes, detail, rep.to_json_obj(), *_table_csv(rep)


def _diag_spatial_decay(traj, spec):
    from . import core, diagnostics

    scales = core.dyadic_scales(traj.grid)
    n_range = spec["N_range"] or [scales[0], scales[-1]]
    rep = diagnostics.spatial_decay_scan(traj, tuple(n_range), spec["Rs"])
    detail = {"delta": rep.exponent, "note": rep.note}
    return rep.passes, detail, rep.to_json_obj(), *_table_csv(rep)


def _rows(*columns) -> list[tuple]:
    """CSV rows of Python floats from equal-length array columns."""
    import numpy as np

    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def _diag_virial(traj, spec):
    from . import core, diagnostics

    if len(traj) < 5:
        raise ConfigError("trajectory too short for the virial stencil")
    times = traj.times[2:-2]
    residual = float(diagnostics.virial_residual(traj, times).max())
    header = ["t", "d2_virial", "eight_kinetic"]
    rows = _rows(times, diagnostics.virial_acceleration(traj, spec["R"], times),
                 8 * core._kinetic_sum(traj.grid, traj.coeffs[2:-2]))
    payload = {"rows": _row_dicts(header, rows), "identity_residual": residual,
               "identity_bound": diagnostics.VIRIAL_TOL}
    ok = residual <= diagnostics.VIRIAL_TOL
    return ok, {"identity_residual": residual}, payload, header, rows


def _diag_kinetic_localization(traj, spec):
    import numpy as np

    from . import core, diagnostics

    eta_frac = spec["eta_fraction"]
    grid = traj.grid
    radii = diagnostics.kinetic_localization_radius(
        grid, traj.coeffs, eta_frac * core._kinetic_sum(grid, traj.coeffs))
    spread_cells = int(np.ptp(np.searchsorted(grid.r, radii)))
    header = ["t", "radius"]
    rows = _rows(traj.times, radii)
    payload = {"rows": _row_dicts(header, rows), "spread_cells": spread_cells}
    return spread_cells <= 1, {"spread_cells": spread_cells}, payload, header, rows


def _diag_concentration(traj, spec):
    from . import core, diagnostics

    eta_frac = spec["eta_fraction"]
    grid = traj.grid
    c_x, c_xi = diagnostics.concentration_radii(
        grid, traj.values, traj.coeffs, eta_frac * core._power_sum(grid, traj.values, 2))
    header = ["t", "c_x", "c_xi"]
    rows = _rows(traj.times, c_x, c_xi)
    return True, {"snapshots": len(rows)}, {"rows": _row_dicts(header, rows)}, header, rows


DIAGNOSTIC_RUNNERS = {
    "virial": _diag_virial,
    "kinetic_localization": _diag_kinetic_localization,
    "concentration": _diag_concentration,
    "frequency_decay": _diag_frequency_decay,
    "spatial_decay": _diag_spatial_decay,
}


def cmd_diagnose(cfg: dict, trajectory_path: str) -> int:
    from . import fieldio

    out = output_dir(cfg)
    try:
        traj = fieldio.load_trajectory(trajectory_path)
    except FileNotFoundError as exc:
        raise OSError(f"trajectory not found: {exc}") from exc
    failures = []
    summary = {}
    for kind, spec in diagnostic_params(cfg):
        passed, detail, payload, header, rows = DIAGNOSTIC_RUNNERS[kind](traj, spec)
        write_json(cfg, out / f"{kind}.json", payload)
        if cfg["format"] == "csv":
            write_csv(cfg, out / f"{kind}.csv", header, rows)
        summary[kind] = {"passed": passed, **detail}
        print(f"diagnose {kind}: {'pass' if passed else 'FAIL'} {detail}")
        if not passed:
            failures.append(kind)
    write_json(cfg, out / "diagnose_summary.json", {"results": summary, "failures": failures})
    if failures:
        raise CheckFailed(f"diagnostics failed: {failures}")
    return EXIT_OK


def cmd_lemma(cfg: dict) -> int:
    from . import recurrence

    out = output_dir(cfg)
    try:
        params = recurrence.RecurrenceParams(**cfg["lemma"]["params"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lemma.params: {exc}") from exc
    kind, seq_spec = kind_params("lemma.sequence", cfg["lemma"]["sequence"])
    if kind == "synthetic_power":
        expo = float(params.s if seq_spec["exponent"] is None else seq_spec["exponent"])
        try:
            scales = tuple(params.m0 * 2.0**j for j in range(int(seq_spec["ladder"])))
            values = tuple(min(params.a_bound, N ** (-expo)) for N in scales)
        except OverflowError as exc:
            raise ConfigError(f"lemma.sequence: a synthetic_power scale 2^j or term N^-s "
                              f"overflows a float ({exc})") from exc
        seq = recurrence.ASequence(scales, values, "synthetic")
    elif kind == "from_trajectory":
        from . import fieldio

        traj = fieldio.load_trajectory(seq_spec["path"])
        seq = recurrence.extract_A_sequence(traj, seq_spec["Ns"])
    else:
        rows = []
        for lineno, ln in enumerate(Path(seq_spec["path"]).read_text().splitlines(), 1):
            if ln and not ln.startswith(("#", "N,")):
                cols = ln.split(",")
                try:
                    rows.append((float(cols[0]), float(cols[1])))
                except (IndexError, ValueError) as exc:
                    raise ConfigError(f"sequence file line {lineno}: need 'N,A_N', "
                                      f"got {ln!r}") from exc
        seq = recurrence.ASequence(tuple(r[0] for r in rows),
                                   tuple(r[1] for r in rows), "synthetic")
    ctrl = recurrence.verify_recursive_control(seq, params)
    rec = ctrl.recurrence
    write_json(cfg, out / "lemma_report.json", {
        "recurrence": rec.to_json_obj(),
        "control": ctrl.to_json_obj(),
        "sequence": {"provenance": seq.provenance,
                     "rows": [{"N": s, "A_N": v} for s, v in zip(seq.scales, seq.values)]},
    })
    if cfg["format"] == "csv":
        write_csv(cfg, out / "lemma_table.csv",
                  ["N", "A_N", "rhs", "slack"],
                  [(r[0], r[1], r[3], r[4]) for r in rec.rows])
    verdict = ("inapplicable" if not ctrl.applicable
               else "pass" if ctrl.overall_pass else "FAIL")
    vacuous = "; recurrence vacuous: every window is empty" if not rec.nonempty_windows else ""
    print(f"lemma: {verdict} (minimal C1 = {rec.minimal_c1:.6g}){vacuous}")
    if ctrl.applicable and not ctrl.overall_pass:
        raise CheckFailed("recursive-control conclusion failed on an applicable instance")
    return EXIT_OK


def cmd_selftest(cfg: dict) -> int:
    from . import selftest

    results = selftest.run_all()
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    failed = sum(not ok for _, ok, _ in results)
    print(f"selftest: {len(results) - failed}/{len(results)} suites green")
    if failed:
        raise CheckFailed(f"{failed} selftest checks failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# command -> (handler, help, positional arguments as (name, help)); the handler
# takes the merged config followed by the positional arguments
COMMANDS = {
    "ground-state": (cmd_ground_state, "solve and certify the ground state", ()),
    "evolve": (cmd_evolve, "run the split-step integrator", ()),
    "diagnose": (cmd_diagnose, "run diagnostics over a stored trajectory",
                 (("trajectory", "trajectory directory (from evolve)"),)),
    "lemma": (cmd_lemma, "recurrence and bootstrap reports", ()),
    "selftest": (cmd_selftest, "run every module's invariant suite", ()),
}

# flag -> (dotted config path it overrides, argparse keywords)
OVERRIDE_FLAGS = {
    "--output-dir": ("output_dir", {"help": "override output directory"}),
    "--seed": ("seed", {"type": int, "help": "override seed"}),
    "--format": ("format", {"choices": ("json", "csv"), "help": "report format"}),
    "--dimension": ("dimension", {"type": int}),
    "--mu": ("mu", {"type": int, "choices": (-1, 0, 1)}),
    "--r-max": ("grid.r_max", {"type": float}),
    "--n": ("grid.n", {"type": int}),
    "--dt": ("time.dt", {"type": float}),
    "--T": ("time.T", {"type": float}),
    "--cadence": ("time.cadence", {"type": int}),
    "--tol": ("tol", {"type": float}),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="radnls",
                                description="Radial mass-critical NLS simulator and "
                                            "dyadic-band diagnostics")
    p.add_argument("--config", help="JSON config file (keys: DEFAULTS and PARAMS in radnls.cli)")
    for flag, (path, kwargs) in OVERRIDE_FLAGS.items():
        p.add_argument(flag, dest=path, **kwargs)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals) in COMMANDS.items():
        cp = sub.add_parser(name, help=help_text)
        for arg, arg_help in positionals:
            cp.add_argument(arg, help=arg_help)
    return p


def _overrides(args: argparse.Namespace) -> dict:
    over: dict = {}
    for path, _ in OVERRIDE_FLAGS.values():
        val = getattr(args, path)
        if val is not None:
            *parents, leaf = path.split(".")
            node = over
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = val
    return over


ERRORS = {  # exception -> (error kind, exit code); the first class that matches wins
    ValueError: ("invalid_input", EXIT_INVALID),  # ConfigError, GridResolutionError, ...
    ResolutionLossError: ("numerical_guard", EXIT_NUMERICAL),
    NumericalFailure: ("numerical_failure", EXIT_NUMERICAL),
    CheckFailed: ("check_failed", EXIT_CHECK_FAILED),
    GroundStateError: ("certification_failed", EXIT_CHECK_FAILED),
    OSError: ("io_error", EXIT_IO),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        handler, _, positionals = COMMANDS[args.command]
        return handler(cfg, *(getattr(args, arg) for arg, _ in positionals))
    except tuple(ERRORS) as exc:
        kind, code = next(v for t, v in ERRORS.items() if isinstance(exc, t))
        print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
