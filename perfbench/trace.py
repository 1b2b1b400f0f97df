#!/usr/bin/env python3
"""Traced in-process replay of one benchmark session, for the per-layer figures.

    python3 perfbench/trace.py --workload pc_n1280 --seed 1 --out DIR --trace-file FILE

run.py starts this with src/ on PYTHONPATH.  It imports radnls.cli (timed),
wraps the public calls of each module in spans, runs the session's commands
and selftest through radnls.cli.main exactly as the CLI would, and writes
every span plus the per-layer metrics to FILE at the end.  A span records
its name, start, end and parent; its self time is its duration minus that of
its child spans.  A layer the session never reaches reads 0: pc_n1280 runs
two of the five diagnostics and no extract_A_sequence.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import radnls.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

from radnls import bands, core, evolution, fieldio, groundstate, recurrence  # noqa: E402

from workloads import WORKLOADS, Workload, session_commands  # noqa: E402


class Tracer:
    """Spans kept in memory; each knows its parent and its root command."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "root": parent["root"] if parent else name, **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if note is not None:
                rec.update(note(out))
            return out
        return traced

    def finish(self) -> None:
        for s in self.spans:
            s["duration"] = s["end"] - s["start"]
            s["self"] = s["duration"]
        for s in self.spans:
            if s["parent"] is not None:
                self.spans[s["parent"]]["self"] -= s["duration"]

    def select(self, name: str, roots) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["root"] in roots]


def instrument(tr: Tracer) -> None:
    """Replace the public calls the CLI makes with traced wrappers."""
    grid_note = lambda g: {"n": g.n}  # noqa: E731
    table = [
        (core, "make_radial_grid", "core.grid_build", grid_note),
        (evolution, "make_radial_grid", "core.grid_build", grid_note),
        (groundstate, "solve_ground_state", "groundstate.solve",
         lambda gs: {"iterations": gs.iterations}),
        (groundstate, "shooting_mass", "groundstate.shooting", None),
        (evolution, "evolve", "evolution.evolve", None),
        (evolution, "step", "evolution.step", None),
        (fieldio, "save_trajectory", "fieldio.save_trajectory",
         lambda path: {"bytes": sum(f.stat().st_size for f in Path(path).rglob("*")
                                    if f.is_file())}),
        (fieldio, "load_trajectory", "fieldio.load_trajectory", None),
        (recurrence, "extract_A_sequence", "recurrence.extract_A_sequence", None),
        (recurrence, "check_recurrence", "recurrence.verify", None),
        (recurrence, "verify_recursive_control", "recurrence.verify", None),
        (bands, "in_out", "bands.in_out", None),
    ]
    for module, attr, name, note in table:
        setattr(module, attr, tr.wrap(name, getattr(module, attr), note))
    for kind, runner in list(cli.DIAGNOSTIC_RUNNERS.items()):
        cli.DIAGNOSTIC_RUNNERS[kind] = tr.wrap(f"diagnostics.{kind}", runner)


def median_us(fn, reps: int = 60) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e6


def replay(w: Workload, seed: int, out: Path, tr: Tracer) -> int:
    """Run the session and selftest through cli.main; nonzero if any command failed."""
    out.mkdir(parents=True)
    cfg_path = out / "session.json"
    cfg_path.write_text(json.dumps(w.config(seed, str(out)), indent=1))
    worst = 0
    for name, args in session_commands(w, str(cfg_path), str(out)):
        buf = io.StringIO()
        with tr.span(f"cli.{name}"), contextlib.redirect_stdout(buf):
            rc = cli.main(args)
        (out / f"{name}.out").write_text(buf.getvalue())
        worst = max(worst, rc)
    return worst


def kernels(out: Path) -> dict:
    """Medians of the two transform kernels on the stored Q, which spans do not give."""
    cfg = cli.load_config(str(out / "session.json"), {})
    traj = fieldio.load_trajectory(out / "trajectory")
    q = fieldio.load_ground_state(out / "ground_state_cache", traj.grid, cfg["tol"]).profile
    sym = bands.high_symbol(q.grid, 8.0)
    return {
        "core.transform_pair_us": median_us(
            lambda: core.transform_inverse(core.transform_forward(q))),
        "core.apply_multiplier_us": median_us(lambda: core.apply_multiplier(q, sym)),
    }


def layer_metrics(w: Workload, tr: Tracer, kernel_us: dict) -> dict:
    session = {f"cli.{name}" for name in ("ground-state", "evolve", "diagnose", "lemma")}

    def total(name, roots=session, key="duration"):
        return sum(s[key] for s in tr.select(name, roots))

    solve = tr.select("groundstate.solve", {"cli.ground-state"})
    steps = tr.select("evolution.step", {"cli.evolve"})
    saves = tr.select("fieldio.save_trajectory", session)
    grids = [s["duration"] for s in tr.select("core.grid_build", session) if s["n"] == w.n]
    m = {
        "cli.import_s": (IMPORT_S, "s"),
        "core.grid_build_s": (statistics.median(grids), "s"),
        "core.transform_pair_us": (kernel_us["core.transform_pair_us"], "us"),
        "core.apply_multiplier_us": (kernel_us["core.apply_multiplier_us"], "us"),
        "groundstate.fixed_point_s": (sum(s["self"] for s in solve), "s"),
        "groundstate.iterations": (solve[0]["iterations"], "count"),
        "groundstate.shooting_s": (total("groundstate.shooting", {"cli.ground-state"}), "s"),
        "evolution.step_us": (statistics.median(s["duration"] for s in steps) * 1e6, "us"),
        "evolution.evolve_s": (total("evolution.evolve", {"cli.evolve"}), "s"),
        "evolution.steps": (len(steps), "count"),
        "fieldio.save_trajectory_s": (total("fieldio.save_trajectory"), "s"),
        "fieldio.trajectory_bytes": (saves[0]["bytes"], "bytes"),
        # self time: the grid a load rebuilds is core.grid_build's
        "fieldio.load_trajectory_s": (total("fieldio.load_trajectory", key="self"), "s"),
    }
    for kind in cli.DIAGNOSTIC_RUNNERS:
        m[f"diagnostics.{kind}_s"] = (total(f"diagnostics.{kind}"), "s")
    m["recurrence.extract_A_sequence_s"] = (total("recurrence.extract_A_sequence"), "s")
    m["recurrence.verify_s"] = (total("recurrence.verify", key="self"), "s")
    m["bands.in_out_s"] = (total("bands.in_out", {"cli.selftest"}), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def self_times(tr: Tracer) -> dict:
    out: dict = {}
    for s in tr.spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["duration"]
        row["self_s"] += s["self"]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-file", required=True)
    args = p.parse_args()
    w = WORKLOADS[args.workload]
    out = Path(args.out)
    tr = Tracer()
    instrument(tr)
    rc = replay(w, args.seed, out, tr)
    if rc != 0:
        print(f"a session command exited {rc}", file=sys.stderr)
        return 1
    kernel_us = kernels(out)
    tr.finish()
    commands = {s["name"]: s["duration"] for s in tr.spans if s["name"].startswith("cli.")}
    Path(args.trace_file).write_text(json.dumps({
        "workload": w.name, "seed": args.seed,
        "layers": layer_metrics(w, tr, kernel_us),
        "commands_s": commands,
        "self_times": self_times(tr),
        "spans": tr.spans,
    }, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
