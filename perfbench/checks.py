"""Output checks of one session, against the reference values in oracle.py.

Each check returns a list of failure messages for one command; an empty list
means the command's outputs are correct.  Tolerances sit one to two orders
of magnitude above the errors the program makes today (for example the final
L2 error is about 3e-6 for the solitary wave and 1.4e-6 for the pc solution),
so they catch a wrong result without tracking round-off.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import oracle
from workloads import DIAGNOSTIC_SPECS, ETA_FRACTION, LEMMA_PARAMS, Workload


class Reference:
    """Values shared by every session of one run: Q from the collocation solve and its radii."""

    def __init__(self, w: Workload):
        self.gp = oracle.GroundProfile(4)
        self.nodes = oracle.Nodes(4, w.n, 15.0)
        self.c_mass = self.gp.tail_radius(ETA_FRACTION)
        self.c_kinetic = self.gp.tail_radius(ETA_FRACTION, kinetic=True)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_ground_state(ref: Reference, w: Workload, out: Path) -> list[str]:
    bad = []
    cert = _json(out / "ground_state_certification.json")
    m_ref = ref.gp.mass
    if _rel(cert["mass"], m_ref) > 1e-7:
        bad.append(f"mass {cert['mass']!r} vs collocation {m_ref!r}")
    if _rel(cert["mass_shooting"], m_ref) > 1e-7:
        bad.append(f"shooting mass {cert['mass_shooting']!r} vs collocation {m_ref!r}")
    if _rel(cert["mass"], 0.5 * cert["kinetic"]) > 1e-7:
        bad.append(f"M = (2/d)||grad Q||^2 fails: {cert['mass']!r} vs {cert['kinetic']!r}")
    if abs(cert["energy_over_kinetic"]) > 1e-7:
        bad.append(f"E(Q)/||grad Q||^2 = {cert['energy_over_kinetic']!r}, not ~0")
    _, n, _, q = oracle.read_snapshot(out / "ground_state.rfb")
    if n != w.n:
        bad.append(f"profile has {n} nodes, expected {w.n}")
    else:
        err = oracle.rel_l2(ref.nodes, q, ref.gp.q(ref.nodes.r))
        if err > 1e-5:
            bad.append(f"profile differs from collocation Q by {err:.3e}")
    return bad


def check_evolve(ref: Reference, w: Workload, out: Path, seed: int) -> list[str]:
    bad = []
    summ = _json(out / "evolve_summary.json")
    if summ["snapshots"] != w.snapshots or summ["guard_event"] is not None:
        bad.append(f"{summ['snapshots']} snapshots, guard {summ['guard_event']}")
        return bad
    log = _json(out / "trajectory" / "manifest.json")["mass_log"]
    if len(log) != w.steps + 1:
        bad.append(f"mass log has {len(log)} entries for {w.steps} steps")
    drift = max(abs(m - log[0]) for m in log) / log[0]
    if drift > 1e-10:
        bad.append(f"mass drift {drift:.3e} above round-off")
    last = out / "trajectory" / "snapshots" / f"{w.snapshots - 1:06d}.rfb"
    _, _, _, u = oracle.read_snapshot(last)
    t0 = w.start(seed)
    if w.initial == "sw":
        exact, tol = oracle.sw_exact(ref.gp, ref.nodes, t0 + w.T), 5e-5
    else:
        exact, tol = oracle.pc_exact(ref.gp, ref.nodes, t0 + w.T), 1e-4
    err = oracle.rel_l2(ref.nodes, u, exact)
    if not err <= tol:
        bad.append(f"final snapshot L2 error {err:.3e} against the closed form (tol {tol:g})")
    if _rel(ref.nodes.mass(u), ref.gp.mass) > 1e-7:
        bad.append(f"final mass {ref.nodes.mass(u)!r} vs {ref.gp.mass!r}")
    return bad


def check_diagnose(ref: Reference, w: Workload, out: Path, seed: int) -> list[str]:
    bad = []
    summ = _json(out / "diagnose_summary.json")
    if summ["failures"] or sorted(summ["results"]) != sorted(w.diagnostics):
        bad.append(f"diagnose results {sorted(summ['results'])}, failures {summ['failures']}")
    nodes = ref.nodes
    virial = _json(out / "virial.json")["rows"]
    conc = _json(out / "concentration.json")["rows"]
    if len(virial) != w.snapshots - 4 or len(conc) != w.snapshots:
        bad.append(f"{len(virial)} virial rows, {len(conc)} concentration rows")
        return bad
    if w.initial == "sw":
        # e^{it}Q: radii constant in time, virial acceleration ~0
        worst = max(abs(r["c_x"] - ref.c_mass) for r in conc)
        if worst > nodes.cell(ref.c_mass):
            bad.append(f"c_x off the constant {ref.c_mass:.6f} by {worst:.3e}")
        c_xi = [r["c_xi"] for r in conc]
        if max(c_xi) - min(c_xi) > math.pi / nodes.r_max:
            bad.append(f"c_xi spreads over {max(c_xi) - min(c_xi):.3e}")
        kin = _json(out / "kinetic_localization.json")["rows"]
        worst = max(abs(r["radius"] - ref.c_kinetic) for r in kin)
        if len(kin) != w.snapshots or worst > nodes.cell(ref.c_kinetic):
            bad.append(f"kinetic radius off the constant {ref.c_kinetic:.6f} by {worst:.3e}")
        worst = max(abs(r["d2_virial"]) / r["eight_kinetic"] for r in virial)
        if worst > 1e-4:
            bad.append(f"virial acceleration {worst:.3e} * 8||grad u||^2, not ~0")
        if max(_rel(r["eight_kinetic"], 8.0 * ref.gp.kinetic) for r in virial) > 1e-4:
            bad.append("8||grad u||^2 differs from 8||grad Q||^2")
    else:
        # pc: c_x(t) = |t| c_x(Q) to within a cell, and V_R(t) follows from Q by scaling
        t0 = w.start(seed)
        worst = max(abs(r["c_x"] - abs(t0 + r["t"]) * ref.c_mass) / nodes.cell(r["c_x"])
                    for r in conc)
        if worst > 1.0:
            bad.append(f"c_x/|t| strays {worst:.2f} cells from c_x(Q)")
        h = w.dt * w.cadence
        v = [ref.gp.pc_virial(t0 + k * h, DIAGNOSTIC_SPECS["virial"]["R"])
             for k in range(w.snapshots)]
        worst = 0.0
        for r in virial:
            i = round(r["t"] / h)
            acc = (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / (12.0 * h * h)
            worst = max(worst, _rel(r["d2_virial"], acc))
        if worst > 1e-4:
            bad.append(f"virial acceleration off the closed form by {worst:.3e}")
    return bad


def check_lemma(ref: Reference, w: Workload, out: Path) -> list[str]:
    bad = []
    rep = _json(out / "lemma_report.json")
    rows = rep["sequence"]["rows"]
    if w.lemma_Ns is not None:
        _, _, _, q = oracle.read_snapshot(out / "ground_state.rfb")
        expect = oracle.a_sequence_from_q(q.astype(np.complex128), ref.nodes, w.lemma_Ns,
                                          w.dt, w.steps)
        if [r["N"] for r in rows] != list(w.lemma_Ns):
            bad.append(f"sequence scales {[r['N'] for r in rows]}")
        for r in rows:
            a_ref = expect.get(r["N"], math.nan)
            if not abs(r["A_N"] - a_ref) <= 1e-6 * a_ref + 1e-12:
                bad.append(f"A_{r['N']:g} = {r['A_N']!r}, from Q alone {a_ref!r}")
    else:
        minimal, verdict = oracle.synthetic_ladder(LEMMA_PARAMS, LEMMA_PARAMS["s"], w.ladder)
        got = rep["recurrence"]["minimal_c1"]
        if len(rows) != w.ladder or _rel(got, minimal) > 1e-9:
            bad.append(f"minimal C1 {got!r} vs closed form {minimal!r}")
        ctrl = rep["control"]
        if not ctrl["applicable"] or ctrl["overall_pass"] != verdict:
            bad.append(f"verdict {ctrl['overall_pass']} vs closed form {verdict}")
    return bad


def check_selftest(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    m = re.fullmatch(r"selftest: (\d+)/(\d+) suites green", lines[-1] if lines else "")
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(lines) - 1:
        return [f"selftest summary {lines[-1] if lines else '(none)'!r}"]
    return []


def check_session(ref: Reference, w: Workload, out: Path, seed: int,
                  selftest_stdout: str, names=None) -> dict[str, list[str]]:
    """Failure messages per command of one session, for the commands in names (default all)."""
    checks = {
        "ground-state": lambda: check_ground_state(ref, w, out),
        "evolve": lambda: check_evolve(ref, w, out, seed),
        "diagnose": lambda: check_diagnose(ref, w, out, seed),
        "lemma": lambda: check_lemma(ref, w, out),
        "selftest": lambda: check_selftest(selftest_stdout),
    }
    result = {}
    for name, fn in checks.items():
        if names is not None and name not in names:
            continue
        try:
            result[name] = fn()
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            result[name] = [f"output unreadable: {type(exc).__name__}: {exc}"]
    return result
