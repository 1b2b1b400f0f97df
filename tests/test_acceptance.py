"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from radnls import bands, core, diagnostics, evolution, groundstate, recurrence

from conftest import planted_band_field, single_snapshot_trajectory


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_ground_state_certification(grid):
    t0 = time.monotonic()
    gs = groundstate.solve_ground_state(grid, tol=1e-8)
    elapsed = time.monotonic() - t0
    pohozaev = gs.kinetic / core.lebesgue_norm(gs.profile, 3.0) ** 3
    energy_flat = abs(core.energy(gs.profile, -1)) / gs.kinetic
    ratio = groundstate.gn_ratio(gs.profile, gs)
    shooting = abs(gs.mass_shooting - gs.mass) / gs.mass
    ok = (gs.residual < 1e-8 and abs(pohozaev - 2 / 3) < 1e-4
          and energy_flat < 1e-4 and abs(ratio - 1.0) < 1e-3
          and shooting < 1e-4 and elapsed < 60.0)
    report(1, ok, f"residual={gs.residual:.2e} pohozaev={pohozaev:.6f} "
                  f"|E|/K={energy_flat:.2e} sharp_ratio={ratio:.6f} "
                  f"shooting={shooting:.2e} ({elapsed:.1f}s)")


def test_criterion_2_solitary_wave_propagation(sw_dense, ground):
    final = sw_dense.field(-1)
    err = math.sqrt(core.mass(final - groundstate.make_sw(ground, 1.0)) / ground.mass)
    m0 = sw_dense.mass_log[0]
    mass_drift = max(abs(m - m0) for m in sw_dense.mass_log) / m0
    e0 = sw_dense.energy_log[0]
    energy_drift = max(abs(e - e0) for e in sw_dense.energy_log) / ground.kinetic
    ok = err < 1e-4 and mass_drift < 1e-8 and energy_drift < 1e-5
    report(2, ok, f"L2 err={err:.2e} mass drift={mass_drift:.2e} "
                  f"energy drift={energy_drift:.2e}")


def test_criterion_3_pseudo_conformal_oracle(pc_traj, ground):
    err = math.sqrt(core.mass(pc_traj.field(-1) - groundstate.make_pc(ground, -0.5))
                    / ground.mass)
    m0 = pc_traj.mass_log[0]
    mass_drift = max(abs(m - m0) for m in pc_traj.mass_log) / m0
    g_late = math.sqrt(core.gradient_norm_sq(groundstate.make_pc(ground, -0.25)))
    g_early = math.sqrt(core.gradient_norm_sq(groundstate.make_pc(ground, -0.5)))
    ratio = g_late / g_early
    ok = err < 1e-2 and mass_drift < 1e-6 and abs(ratio - 2.0) < 0.2
    report(3, ok, f"L2 err={err:.2e} mass drift={mass_drift:.2e} "
                  f"gradient ratio={ratio:.3f}")


def test_criterion_4_virial_identity(free_dense, sw_dense):
    acc = diagnostics.virial_acceleration(free_dense, math.inf, 0.1)
    kinetic = core.gradient_norm_sq(free_dense.field(free_dense.index_at(0.1)))
    rel = abs(acc - 8 * kinetic) / (8 * kinetic)
    bound_ok = True
    for traj in (free_dense, sw_dense):
        for R in (2.0, 4.0, 8.0):
            cap = (25 * R / 24) ** 2
            for f in map(traj.field, range(0, len(traj), 100)):
                if diagnostics.truncated_virial(f, R) > cap * core.mass(f) * (1 + 1e-12):
                    bound_ok = False
    ok = rel < 0.05 and bound_ok
    report(4, ok, f"free-flow d2V vs 8||grad u||^2 rel={rel:.2e}, "
                  f"V_R <= (25R/24)^2 M on all runs: {bound_ok}")


def test_criterion_5_frequency_decay(sw_dense, grid):
    scales = (4.0, 8.0, 16.0, 32.0)
    sub = sw_dense.values[::50]
    traj = dataclasses.replace(single_snapshot_trajectory(grid, sw_dense.field(0)),
                               times=[0.05 * i for i in range(len(sub))], values=sub)
    rep = diagnostics.frequency_decay_fit(traj, 1.0, scales)
    sw_ok = rep.passes and (rep.exponent is None or rep.exponent <= -1.75)

    planted = planted_band_field(grid, scales, [N**-1.2 for N in scales])
    rep_planted = diagnostics.frequency_decay_fit(
        single_snapshot_trajectory(grid, planted), 1.0, scales)
    planted_ok = (rep_planted.exponent is not None
                  and abs(rep_planted.exponent + 1.2) < 0.05
                  and rep_planted.passes is False)
    ok = sw_ok and planted_ok
    report(5, ok, f"solitary wave: exponent={rep.exponent} ({rep.note}); "
                  f"planted -1.2 detected as {rep_planted.exponent:.3f}, flagged failing")


def test_criterion_6_kinetic_localization_uniformity(sw_dense, ground):
    eta = 1e-2 * ground.kinetic
    snapshots = list(map(sw_dense.field, range(0, len(sw_dense), 50)))
    assert len(snapshots) >= 20
    cells = [int(np.argmin(np.abs(ground.grid.r
                                  - diagnostics.kinetic_localization_radius(f, eta))))
             for f in snapshots]
    spread = max(cells) - min(cells)
    ok = spread <= 1
    report(6, ok, f"radius cell spread {spread} over {len(snapshots)} snapshots")


def test_criterion_7_recursive_control_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(987)
    agreement = 0
    trials = 100
    for _ in range(trials):
        s = float(rng.uniform(1.1, 2.5))
        gamma = float(rng.uniform(0.05, (s - 1.0) * 0.9))
        a_bound = float(rng.uniform(1.0, 20.0))
        probe = recurrence.RecurrenceParams(s, gamma, 1.0, 1.0, 0.5, a_bound)
        beta = recurrence.admissibility(probe)["threshold"] * float(rng.uniform(0.05, 0.9))
        ladder = tuple(2.0**k for k in range(int(rng.integers(20, 50))))
        vals = tuple(min(a_bound, a_bound * float(N) ** (-float(rng.uniform(0, s))))
                     for N in ladder)
        seq = recurrence.ASequence(ladder, vals, "synthetic")
        c1 = max(recurrence.check_recurrence(
            seq, recurrence.RecurrenceParams(s, gamma, 1.0, 1.0, beta, a_bound)
        ).minimal_c1, 1e-6)
        params = recurrence.RecurrenceParams(s, gamma, c1, 1.0, beta, a_bound)
        rep = recurrence.verify_recursive_control(seq, params)
        brute = all(a <= 2 * c1 * float(N) ** (-s + gamma) * (1 + 1e-12) + 1e-12
                    for N, a in zip(ladder, vals))
        if rep.applicable and rep.overall_pass == brute:
            agreement += 1

    # the two termwise cases
    ladder = tuple(2.0**k for k in range(12))
    p_term = recurrence.RecurrenceParams(1.25, 0.2, 1.0, 1.0, 1e-16, 1.0)
    seq_term = recurrence.ASequence(ladder, tuple(N**-1.25 for N in ladder), "synthetic")
    term1 = recurrence.verify_recursive_control(seq_term, p_term)
    rec = recurrence.check_recurrence(seq_term, p_term)
    termwise_ok = bool(term1.applicable and term1.overall_pass
                       and rec.holds_with_given_c1)

    p_bad = recurrence.RecurrenceParams(1.25, 0.2, 1.0, 1.0, 0.5, 10.0)
    seq_flat = recurrence.ASequence(ladder, tuple(10.0 for _ in ladder), "synthetic")
    inad = recurrence.verify_recursive_control(seq_flat, p_bad)
    inad_ok = (not inad.applicable) and inad.overall_pass is None

    elapsed = time.monotonic() - t0
    ok = agreement == trials and termwise_ok and inad_ok and elapsed < 10.0
    report(7, ok, f"{agreement}/{trials} oracle agreement, termwise={termwise_ok}, "
                  f"inadmissible->inapplicable={inad_ok} ({elapsed:.1f}s)")


def test_criterion_8_harmonic_analysis_suite(grid, grid20, corpus, corpus_double):
    t0 = time.monotonic()
    scales = core.dyadic_scales(grid)
    partition_worst = 0.0
    for f in corpus[:10]:
        total = bands.project_low(f, scales[0])
        for N in scales[1:]:
            total = total + bands.project_band(f, N)
        partition_worst = max(partition_worst,
                              math.sqrt(core.mass(total - f) / core.mass(f)))

    idem_worst = 0.0
    for f in corpus:
        a = bands.project_band(bands.project_fat(f, 8.0), 8.0)
        b = bands.project_band(f, 8.0)
        idem_worst = max(idem_worst, math.sqrt(core.mass(a - b) / core.mass(b)))

    bump = core.concentrated_field(grid20, 3.9, 0.0, 7.9)
    mismatch = bands.mismatch_real(bump, 8.0, 8.0) / math.sqrt(core.mass(bump))

    complete_worst = 0.0
    for f in corpus[:10]:
        total = bands.in_out(f, "+") + bands.in_out(f, "-")
        complete_worst = max(complete_worst, math.sqrt(core.mass(total - f) / core.mass(f)))

    def corpus_max(fields, fn):
        return max(fn(f) for f in fields)

    stability = {}
    for name, fn, band in (
        ("bernstein", lambda f: max(bands.bernstein_ratio(f, N, 2.0, math.inf)
                                    for N in (4.0, 8.0, 16.0, 32.0)), 0.2),
        ("radial_sobolev", lambda f: max(bands.radial_sobolev_ratio(f, N)
                                         for N in (4.0, 8.0, 16.0, 32.0)), 0.2),
        ("fractional_chain", lambda f: bands.fractional_chain_ratio(f, 1.5), 0.3),
    ):
        c1 = corpus_max(corpus, fn)
        c2 = corpus_max(corpus_double, fn)
        stability[name] = (c1, c2, abs(c2 / c1 - 1.0) < band and np.isfinite(c1))

    elapsed = time.monotonic() - t0
    ok = (partition_worst < 1e-8 and idem_worst < 1e-10 and mismatch < 1e-8
          and complete_worst < 1e-3 and all(v[2] for v in stability.values())
          and elapsed < 300.0)
    report(8, ok, f"partition={partition_worst:.2e} idempotence={idem_worst:.2e} "
                  f"mismatch@NR64={mismatch:.2e} in/out={complete_worst:.2e} "
                  + " ".join(f"{k}:{a:.3g}->{b:.3g}" for k, (a, b, _) in stability.items())
                  + f" ({elapsed:.0f}s)")


def test_criterion_9_duhamel_consistency(sw_dense, sw_half_dense, free_dense):
    linear = evolution.duhamel_residual(free_dense, 0.0, 0.2)
    r_coarse = evolution.duhamel_residual(sw_dense, 0.0, 0.2)
    r_fine = evolution.duhamel_residual(sw_half_dense, 0.0, 0.2)
    ratio = r_coarse / r_fine
    ok = linear < 1e-8 and ratio >= 3.0
    report(9, ok, f"linear residual={linear:.2e}, dt-halving ratio={ratio:.2f}")
