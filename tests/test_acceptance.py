"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed, here, in the check a criterion shares with
`radnls selftest` and the commands (Q's certificate and the solitary-wave check
in radnls.groundstate, the others in radnls.selftest), or in the diagnose
runner it calls; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from radnls import bands, cli, core, diagnostics, evolution, groundstate, recurrence, selftest

from conftest import (every, mass, mp_fractional_chain_ratio, mp_pointwise_band_norm,
                      planted_band_field, sampled, single_snapshot_trajectory)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_ground_state_certification(grid):
    t0 = time.monotonic()
    gs = groundstate.solve_ground_state(grid, tol=1e-8)
    elapsed = time.monotonic() - t0
    cert = groundstate.check_ground_state(gs)
    value = {key: v for key, (_, v) in cert.items()}
    ok = all(passed for passed, _ in cert.values()) and elapsed < 60.0
    report(1, ok, f"residual={value['residual']:.2e} pohozaev={value['pohozaev']:.6f} "
                  f"E/K={value['energy']:.2e} sharp_ratio={value['sharp_ratio']:.6f} "
                  f"shooting={value['shooting']:.2e} ({elapsed:.1f}s)")


def test_criterion_2_solitary_wave_propagation(sw_dense, ground):
    run = groundstate.check_solitary_wave(sw_dense, ground, 0.0)
    (err_ok, err), (mass_ok, mass_drift) = run["solitary_wave"], run["mass"]
    e0 = sw_dense.energy_log[0]
    energy_drift = max(abs(e - e0) for e in sw_dense.energy_log) / ground.kinetic
    ok = err_ok and mass_ok and energy_drift < 1e-5
    report(2, ok, f"L2 err={err:.2e} mass drift={mass_drift:.2e} "
                  f"energy drift={energy_drift:.2e}")


def test_criterion_3_pseudo_conformal_oracle(pc_traj, ground):
    gap = pc_traj.values[-1] - groundstate.make_pc(ground, -0.5)
    err = math.sqrt(mass(ground.grid, gap) / ground.mass)
    mass_drift = pc_traj.mass_drift
    # the chirp e^{i|x|^2/4t} makes ||grad u(t)||^2 = (||grad Q||^2 + t^2 ||xQ||^2 / 4) / t^2
    t = pc_traj.times - 1.0
    x_q = diagnostics.truncated_virial(ground.grid, ground.profile.values, math.inf)
    exact = (ground.kinetic + t**2 * x_q / 4) / t**2
    kinetic = core._kinetic_sum(pc_traj.grid, pc_traj.coeffs)
    worst = float(np.max(np.abs(kinetic / exact - 1.0)))
    ok = err < 1e-2 and mass_drift < 1e-6 and worst < 1e-3
    report(3, ok, f"L2 err={err:.2e} mass drift={mass_drift:.2e} ||grad u||^2 against its "
                  f"closed form: worst rel={worst:.2e} over {len(pc_traj)} snapshots")


def test_criterion_4_virial_identity(free_dense, defocusing_dense, sw_dense, sw_half_dense,
                                     pc_traj):
    runs = {"free": free_dense, "defocusing": defocusing_dense, "sw": sw_dense,
            "sw_half_dt": sw_half_dense, "pc": pc_traj}
    verdicts = {name: cli.DIAGNOSTIC_RUNNERS["virial"](traj, {"R": math.inf})[:2]
                for name, traj in runs.items()}
    ok = all(passed for passed, _ in verdicts.values())
    report(4, ok, f"|V'' - 16E| / 8||grad u||^2 <= {diagnostics.VIRIAL_TOL:g}: "
                  + " ".join(f"{name}={detail['identity_residual']:.2e}"
                             for name, (_, detail) in verdicts.items()))


def test_criterion_5_frequency_decay(sw_dense, grid):
    scales = (4.0, 8.0, 16.0, 32.0)
    rep = diagnostics.frequency_decay_fit(every(sw_dense, 50), 1.0, scales)
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


def test_criterion_6_kinetic_localization_uniformity(sw_dense):
    traj = every(sw_dense, 50)
    assert len(traj) >= 20
    ok, detail, *_ = cli.DIAGNOSTIC_RUNNERS["kinetic_localization"](traj, {"eta_fraction": 1e-2})
    report(6, ok, f"radius cell spread {detail['spread_cells']} over {len(traj)} snapshots")


def test_criterion_7_recursive_control_suite():
    t0 = time.monotonic()
    cases = selftest.check_recurrence_cases()
    cases_ok = all(ok for ok, _ in cases.values())

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
    ok = cases_ok and termwise_ok and inad_ok and elapsed < 10.0
    report(7, ok, f"known-answer cases {cases}, termwise={termwise_ok}, "
                  f"inadmissible->inapplicable={inad_ok} ({elapsed:.1f}s)")


def test_criterion_8_harmonic_analysis_suite(grid, grid_double, corpus):
    t0 = time.monotonic()
    mismatch_ok, (scaling, decay) = selftest.check_mismatch_norm(grid_double)
    # decay faster than any power of N R: the factor per doubling shrinks, here from
    # N R 64 -> 128 to 128 -> 256 and 256 -> 512 at R = 8 (0.578, 0.308, 0.165)
    chain = [bands.mismatch_norm(grid_double, 8.0, N) for N in (16.0, 32.0, 64.0)]
    decay_256, decay_512 = chain[1] / chain[0], chain[2] / chain[1]
    superpoly_ok = decay_512 < decay_256 < decay
    complete_ok, complete_worst = selftest.check_in_out_complete(grid, corpus[:10])

    # Bernstein and radial Sobolev against the continuum kernel row at the argmax node,
    # the chain rule against the 1F1 closed form of |grad|^s of a Gaussian
    N, d = 32.0, grid_double.d
    norm = bands.pointwise_band_norm(grid_double, N)
    gaps = {}   # name: (relative gap, bound)
    for name, weight in (("bernstein", 1.0),
                         ("radial_sobolev", grid_double.r ** ((d - 1) / 2))):
        m = int(np.argmax(weight * norm))
        gaps[name] = (abs(norm[m] / mp_pointwise_band_norm(d, N, grid_double.r[m]) - 1.0), 2e-4)
    for a in (1.0, 2.0):
        u = sampled(grid_double, lambda r: np.exp(-a * r**2))
        gaps[f"chain_a{a:g}"] = (abs(bands.fractional_chain_ratio(grid_double, u, 1.5)
                                     / mp_fractional_chain_ratio(d, 1.5, a) - 1.0), 1e-4)
    oracle_ok = all(gap < bound for gap, bound in gaps.values())

    elapsed = time.monotonic() - t0
    ok = mismatch_ok and superpoly_ok and complete_ok and oracle_ok and elapsed < 300.0
    report(8, ok, f"mismatch scaling={scaling:.2e} "
                  f"decay={decay:.3f}->{decay_256:.3f}->{decay_512:.3f} "
                  f"in/out={complete_worst:.2e} against mpmath: "
                  + " ".join(f"{k}={gap:.1e}" for k, (gap, _) in gaps.items())
                  + f" ({elapsed:.0f}s)")


def test_criterion_9_duhamel_consistency(sw_dense, sw_half_dense, free_dense):
    # the identity over [0, 0.2]: 200 steps of 1e-3, and 400 of 5e-4 at halved dt
    linear = evolution.duhamel_residual(free_dense, 0, 200)
    r_coarse = evolution.duhamel_residual(sw_dense, 0, 200)
    r_fine = evolution.duhamel_residual(sw_half_dense, 0, 400)
    ratio = r_coarse / r_fine
    ok = linear < 1e-8 and ratio >= 3.0
    report(9, ok, f"linear residual={linear:.2e}, dt-halving ratio={ratio:.2f}")
