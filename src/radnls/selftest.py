"""Fast invariant suites for every module, runnable from the CLI.

Each suite returns (name, ok, detail) tuples; the CLI prints one line per
suite and exits nonzero when anything fails.  Sizes are trimmed relative to
the full pytest suite so the whole run stays around a minute.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bands, core, diagnostics, evolution, groundstate, recurrence

SEED = 20260808


@functools.cache
def _grid():
    return core.make_radial_grid(4, 15.0, 384)


@functools.cache
def _ground():
    return groundstate.solve_ground_state(_grid(), tol=1e-8)


def suite_core() -> list[tuple[str, bool, str]]:
    out = []
    g = _grid()
    f = core.field_from_function(g, lambda r: np.exp(-(r**2)))
    back = core.transform_inverse(core.transform_forward(f))
    err = math.sqrt(core.mass(back - f) / core.mass(f))
    out.append(("core.roundtrip", err < 1e-9, f"rel err {err:.2e}"))
    m = core.mass(f)
    out.append(("core.gaussian_mass", abs(m - (math.pi / 2) ** 2) < 1e-8 * m, f"{m:.12g}"))
    pl = abs(core.sobolev_norm(f, 0.0) ** 2 - m) / m
    out.append(("core.plancherel", pl < 1e-8, f"rel {pl:.2e}"))
    rng = np.random.default_rng(SEED)
    ok = True
    worst = 0.0
    for _ in range(5):
        h = core.random_smooth_field(g, rng)
        for lam in (0.5, 2.0):
            hr = core.rescale(h, lam)
            dm = abs(core.mass(hr) - core.mass(h)) / core.mass(h)
            ds = abs(core.sobolev_norm(hr, 1.0) / core.sobolev_norm(h, 1.0) - lam) / lam
            worst = max(worst, dm, ds)
            ok = ok and dm < 1e-6 and ds < 1e-6
    out.append(("core.scaling", ok, f"worst {worst:.2e}"))
    return out


def suite_groundstate() -> list[tuple[str, bool, str]]:
    out = []
    g = _grid()
    q = _ground()
    out.append(("groundstate.residual", q.residual < 1e-8, f"{q.residual:.2e}"))
    shoot = abs(q.mass_shooting - q.mass) / q.mass
    out.append(("groundstate.shooting", shoot < 1e-4, f"rel {shoot:.2e}"))
    k_ratio = groundstate.pohozaev_ratio(q)
    out.append(("groundstate.pohozaev", abs(k_ratio - 2.0 / 3.0) < 1e-4, f"{k_ratio:.8f}"))
    j = groundstate.gn_ratio(q.profile, q)
    out.append(("groundstate.sharp_ratio", abs(j - 1.0) < 1e-3, f"{j:.6f}"))
    rng = np.random.default_rng(SEED + 1)
    jmax = max(groundstate.gn_ratio(core.random_smooth_field(g, rng), q) for _ in range(25))
    out.append(("groundstate.ratio_below_one", jmax <= 1.0 + 1e-3, f"max {jmax:.6f}"))
    return out


def suite_bands() -> list[tuple[str, bool, str]]:
    out = []
    g = _grid()
    rng = np.random.default_rng(SEED + 2)
    scales = core.dyadic_scales(g)
    worst = 0.0
    for _ in range(5):
        f = core.random_smooth_field(g, rng)
        total = bands.project_low(f, scales[0])
        for N in scales[1:]:
            total = total + bands.project_band(f, N)
        worst = max(worst, math.sqrt(core.mass(total - f) / core.mass(f)))
    out.append(("bands.partition", worst < 1e-8, f"worst {worst:.2e}"))
    f = core.random_smooth_field(g, rng)
    n_mid = scales[len(scales) // 2]
    a = bands.project_band(bands.project_fat(f, n_mid), n_mid)
    b = bands.project_band(f, n_mid)
    idem = math.sqrt(core.mass(a - b) / core.mass(b))
    out.append(("bands.fat_idempotent", idem < 1e-10, f"{idem:.2e}"))
    fo, fi = bands.in_out(f, "+"), bands.in_out(f, "-")
    comp = math.sqrt(core.mass(fo + fi - f) / core.mass(f))
    out.append(("bands.in_out_complete", comp < 1e-3, f"{comp:.2e}"))
    fc = core.concentrated_field(g, 3.9, 0.0, 7.9)
    v = bands.mismatch_real(fc, 8.0, 8.0)
    out.append(("bands.mismatch_nr64", v < 1e-8, f"{v:.2e}"))
    return out


def suite_evolution() -> list[tuple[str, bool, str]]:
    out = []
    g = _grid()
    q = _ground()
    cfg = evolution.SimulationConfig(dimension=4, mu=-1, r_max=15.0, n=384,
                                     dt=1e-3, t_final=0.2, cadence=10)
    traj = evolution.evolve(cfg, q.profile)
    final = traj.field(-1)
    err = math.sqrt(core.mass(final - groundstate.make_sw(q, 0.2)) / q.mass)
    out.append(("evolution.solitary_wave", err < 1e-4, f"L2 err {err:.2e}"))
    drift = max(abs(m - traj.mass_log[0]) for m in traj.mass_log) / traj.mass_log[0]
    out.append(("evolution.mass", drift < 1e-8, f"drift {drift:.2e}"))
    f = core.field_from_function(g, lambda r: np.exp(-(r**2)))
    u = evolution.free_propagate(f, 0.3)
    exact = (1 + 4j * 0.3) ** (-2) * np.exp(-g.r**2 / (1 + 4j * 0.3))
    ferr = math.sqrt(float(np.sum(g.w * np.abs(u.values - exact) ** 2)) / core.mass(f))
    out.append(("evolution.free_gaussian", ferr < 1e-6, f"{ferr:.2e}"))
    return out


def suite_diagnostics() -> list[tuple[str, bool, str]]:
    out = []
    g = _grid()
    f = core.field_from_function(g, lambda r: np.exp(-(r**2)))
    cfg = evolution.SimulationConfig(dimension=4, mu=0, r_max=15.0, n=384,
                                     dt=1e-3, t_final=0.1, cadence=1)
    traj = evolution.evolve(cfg, f)
    acc = diagnostics.virial_acceleration(traj, math.inf, 0.05)
    k = core.gradient_norm_sq(traj.field(traj.index_at(0.05)))
    rel = abs(acc - 8 * k) / (8 * k)
    out.append(("diagnostics.free_virial", rel < 0.05, f"rel {rel:.2e}"))
    vr = diagnostics.truncated_virial(f, 4.0)
    bound = (25.0 * 4.0 / 24.0) ** 2 * core.mass(f)
    out.append(("diagnostics.virial_bound", vr <= bound, f"{vr:.4g} <= {bound:.4g}"))
    rep = diagnostics.concentration_radii(f, 0.5 * core.mass(f))
    out.append(("diagnostics.concentration", 0.5 < rep.c_x < 1.5 and 1.0 < rep.c_xi < 3.0,
                f"c_x={rep.c_x:.3f} c_xi={rep.c_xi:.3f}"))
    return out


def suite_recurrence() -> list[tuple[str, bool, str]]:
    out = []
    rng = np.random.default_rng(SEED + 3)
    agree = 0
    trials = 100
    for _ in range(trials):
        s = float(rng.uniform(1.1, 2.5))
        gam = float(rng.uniform(0.05, s - 1.02))
        a_bound = float(rng.uniform(1.0, 20.0))
        probe = recurrence.RecurrenceParams(s, gam, 1.0, 1.0, 0.5, a_bound)
        beta = recurrence.admissibility(probe)["threshold"] * float(rng.uniform(0.05, 0.9))
        ladder = tuple(2.0**k for k in range(int(rng.integers(20, 50))))
        vals = tuple(min(a_bound, a_bound * float(N) ** (-float(rng.uniform(0.0, s))))
                     for N in ladder)
        seq = recurrence.ASequence(ladder, vals, "synthetic")
        c1 = max(recurrence.check_recurrence(
            seq, recurrence.RecurrenceParams(s, gam, 1.0, 1.0, beta, a_bound)).minimal_c1, 1e-6)
        params = recurrence.RecurrenceParams(s, gam, c1, 1.0, beta, a_bound)
        report = recurrence.verify_recursive_control(seq, params)
        brute = all(a <= 2 * c1 * float(N) ** (-s + gam) * (1 + 1e-12) + 1e-12
                    for N, a in zip(ladder, vals))
        if report.applicable and report.overall_pass == brute:
            agree += 1
    out.append(("recurrence.oracle_agreement", agree == trials, f"{agree}/{trials}"))
    return out


ALL_SUITES = (
    ("core", suite_core),
    ("groundstate", suite_groundstate),
    ("bands", suite_bands),
    ("evolution", suite_evolution),
    ("diagnostics", suite_diagnostics),
    ("recurrence", suite_recurrence),
)


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for _, fn in ALL_SUITES:
        results.extend(fn())
    return results
