import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from radnls import bands, cli, core, diagnostics, evolution, recurrence, selftest

from conftest import (every, mass, multiplied, planted_band_field, sampled,
                      single_snapshot_trajectory)

GAUSS_VIRIAL_4D = math.pi**2 / 4   # integral of |x|^2 e^{-2|x|^2} over R^4


# the stacked diagnostics applied to the samples of one field
def virial_of(grid, f, R):
    return diagnostics.truncated_virial(grid, f, R)


def kinetic_radius_of(grid, f, eta):
    return diagnostics.kinetic_localization_radius(grid, grid._forward_values(f), eta)


def radii_of(grid, f, eta):
    return diagnostics.concentration_radii(grid, f, grid._forward_values(f), eta)


def kinetic(grid, f):
    """||grad f||^2 of one field."""
    return float(core._kinetic_sum(grid, grid._forward_values(f)))


class TestTruncatedVirial:
    def test_zero_field(self, grid):
        assert virial_of(grid, np.zeros(grid.n, dtype=np.complex128), 4.0) == 0.0

    def test_gaussian_moment(self, grid20):
        f = sampled(grid20, lambda r: np.exp(-(r**2)))
        v = virial_of(grid20, f, 1e6)
        assert abs(v - GAUSS_VIRIAL_4D) < 1e-8 * GAUSS_VIRIAL_4D

    def test_monotone_in_cutoff(self, grid, corpus):
        f = corpus[0]
        assert virial_of(grid, f, 4.0) >= virial_of(grid, f, 2.0)


class TestVirialAcceleration:
    def test_truncated_matches_when_localized(self, free_dense):
        acc = diagnostics.virial_acceleration(free_dense, 12.0)[100 - 2]   # t = 0.1
        k = kinetic(free_dense.grid, free_dense.values[100])
        assert abs(acc - 8 * k) / (8 * k) < 0.05

    def test_solitary_wave_flat(self, sw_dense, ground):
        # |u(t)| = Q for the solitary wave, so the virial curve is constant
        acc = diagnostics.virial_acceleration(sw_dense, 10.0)[500 - 2]   # t = 0.5
        assert abs(acc) < 1e-2 * 8 * ground.kinetic

    def test_conserved_energy_identity_defocusing(self, defocusing_dense):
        # the residual is the gap of d2/dt2 integral |x|^2 |u|^2 to 16 E(u) over 8 ||grad u||^2
        # at every interior snapshot, here with E from the energy log evolve wrote (criterion 4
        # judges its size)
        traj = defocusing_dense
        acc = diagnostics.virial_acceleration(traj, math.inf)
        eight_k = 8 * core._kinetic_sum(traj.grid, traj.coeffs[2:-2])
        gap = np.abs(acc - 16 * np.asarray(traj.energy_log[2:-2])) / eight_k
        residual = diagnostics.virial_residual(traj)
        assert residual.shape == (len(traj) - 4,)
        assert np.max(np.abs(residual - gap)) < 1e-12     # E's round-off, relative to 8K

    def test_residual_falls_fourfold_per_dt_halving(self, sw_dense, sw_half_dense):
        # the split step is of order 2, and so is the identity's residual on the solitary wave
        # rows 2 .. 200 of sw_dense are its interior snapshots in [0, 0.2], sw_half_dense's span
        ratio = (np.max(diagnostics.virial_residual(sw_dense)[:199])
                 / np.max(diagnostics.virial_residual(sw_half_dense)))
        assert 3.5 <= ratio <= 4.5

    def test_needs_five_snapshots(self, free_dense):
        short = dataclasses.replace(free_dense, values=free_dense.values[:4])
        for virial in (lambda traj: diagnostics.virial_acceleration(traj, 4.0),
                       diagnostics.virial_residual):
            with pytest.raises(ValueError, match="too short for the virial stencil"):
                virial(short)


class TestKineticLocalization:
    def test_radius_finite_on_ground_state(self, ground):
        eta = 1e-2 * ground.kinetic
        r_star = kinetic_radius_of(ground.grid, ground.profile.values, eta)
        assert 0 < r_star < ground.grid.r_max / 2

    def test_eta_above_total_rejected(self, ground):
        with pytest.raises(ValueError):
            kinetic_radius_of(ground.grid, ground.profile.values, 2 * ground.kinetic)

    def test_eta_near_total_gives_first_node(self, ground):
        # in the limit eta -> total the radius walks down to the first node;
        # the first node's own share is tiny (the profile peak has zero
        # slope), so eta must sit inside that last gap
        dens = ground.grid.w * np.abs(core._derivative_values(ground.grid, ground.coeffs)) ** 2
        tail_past_first = float(np.sum(dens[1:]))
        eta = 0.5 * (ground.kinetic + tail_past_first)
        r = kinetic_radius_of(ground.grid, ground.profile.values, eta)
        assert r == ground.grid.r[0]

    def test_rescaling_halves_radius(self, ground):
        eta_frac = 1e-2
        grid = ground.grid
        base = kinetic_radius_of(grid, ground.profile.values, eta_frac * ground.kinetic)
        resc = core._rescaled_values(grid, ground.profile.values, 2.0)
        scaled = kinetic_radius_of(grid, resc, eta_frac * kinetic(grid, resc))
        cell = ground.grid.r[1] - ground.grid.r[0]
        assert abs(scaled - base / 2) <= 1.5 * cell


class TestConcentrationRadii:
    def test_gaussian_half_mass_quantiles(self, grid20):
        f = sampled(grid20, lambda r: np.exp(-(r**2)))
        got_x, got_xi = radii_of(grid20, f, 0.5 * mass(grid20, f))
        c_x = brentq(lambda c: math.exp(-2 * c * c) * (1 + 2 * c * c) - 0.5, 0.1, 5.0)
        c_xi = brentq(lambda c: math.exp(-c * c / 2) * (1 + c * c / 2) - 0.5, 0.1, 10.0)
        cell_x = grid20.r[1] - grid20.r[0]
        cell_k = grid20.rho[1] - grid20.rho[0]
        assert abs(got_x - c_x) <= 1.5 * cell_x
        assert abs(got_xi - c_xi) <= 1.5 * cell_k

    def test_selftest_half_mass_radius_against_mpmath(self):
        y = mpmath.findroot(lambda y: (1 + y) * mpmath.exp(-y) - 0.5, 1.7)
        assert selftest.GAUSS_HALF_MASS_RADIUS == pytest.approx(float(mpmath.sqrt(y / 2)),
                                                                 rel=1e-15)

    def test_selftest_line_fails_a_shifted_radius(self, monkeypatch):
        # 0.1 is 2.5 cells of selftest's grid in r; the window 0.5 < c_x < 1.5 passed it
        radii = diagnostics.concentration_radii
        monkeypatch.setattr(diagnostics, "concentration_radii",
                            lambda *args: (radii(*args)[0] + 0.1, radii(*args)[1]))
        verdicts = {name: ok for name, ok, _ in selftest.suite_diagnostics()}
        assert verdicts["diagnostics.concentration"] is False

    def test_monotone_in_eta(self, ground):
        m = ground.mass
        (x0, k0), (x1, k1), (x2, k2) = [radii_of(ground.grid, ground.profile.values, frac * m)
                                        for frac in (1e-3, 1e-2, 1e-1)]
        assert x0 >= x1 >= x2
        assert k0 >= k1 >= k2

    def test_uniform_along_solitary_wave(self, sw_dense, ground):
        m = ground.mass
        grid = ground.grid
        ix, ik = [], []
        for f in sw_dense.values[::100]:
            c_x, c_xi = radii_of(grid, f, 1e-2 * m)
            ix.append(int(np.argmin(np.abs(grid.r - c_x))))
            ik.append(int(np.argmin(np.abs(grid.rho - c_xi))))
        assert max(ix) - min(ix) <= 1
        assert max(ik) - min(ik) <= 1

    def test_rescaling_maps_radii(self, ground):
        grid = ground.grid
        base_x, base_xi = radii_of(grid, ground.profile.values, 1e-2 * ground.mass)
        resc = core._rescaled_values(grid, ground.profile.values, 2.0)
        scaled_x, scaled_xi = radii_of(grid, resc, 1e-2 * mass(grid, resc))
        assert abs(scaled_x - base_x / 2) <= 1.5 * (grid.r[1] - grid.r[0])
        assert abs(scaled_xi - 2 * base_xi) <= 3.0 * (grid.rho[1] - grid.rho[0])

    def test_eta_out_of_range(self, ground):
        with pytest.raises(ValueError):
            radii_of(ground.grid, ground.profile.values, 2 * ground.mass)


class TestFrequencyDecayFit:
    SCALES = (4.0, 8.0, 16.0, 32.0)

    def test_planted_slope_recovered_and_flagged(self, grid):
        f = planted_band_field(grid, self.SCALES, [N**-1.2 for N in self.SCALES])
        traj = single_snapshot_trajectory(grid, f)
        rep = diagnostics.frequency_decay_fit(traj, 1.0, self.SCALES)
        assert rep.exponent == pytest.approx(-1.2, abs=0.05)
        assert rep.passes is False

    def test_planted_steep_slope_passes(self, grid):
        f = planted_band_field(grid, self.SCALES, [N**-3.0 for N in self.SCALES])
        traj = single_snapshot_trajectory(grid, f)
        rep = diagnostics.frequency_decay_fit(traj, 1.0, self.SCALES)
        assert rep.exponent == pytest.approx(-3.0, abs=0.05)
        assert rep.passes is True

    def test_solitary_wave_passes(self, sw_dense):
        rep = diagnostics.frequency_decay_fit(every(sw_dense, 100), 1.0, self.SCALES)
        assert rep.passes is True

    def test_noise_floor_reported_as_pass(self, grid):
        f = sampled(grid, lambda r: 1e-14 * np.exp(-(r**2)))
        rep = diagnostics.frequency_decay_fit(single_snapshot_trajectory(grid, f),
                                              1.0, self.SCALES)
        assert rep.passes is True
        assert rep.exponent is None
        assert "unresolvable" in rep.note

    def test_needs_four_scales(self, grid, corpus):
        traj = single_snapshot_trajectory(grid, corpus[0])
        with pytest.raises(ValueError):
            diagnostics.frequency_decay_fit(traj, 1.0, [4.0, 8.0])


class TestSpatialDecayScan:
    def test_fit_recovers_exact_power_table(self):
        scales = np.array([2.0, 4.0, 8.0, 16.0])
        slope, resid, kept = diagnostics._fit_loglog(scales, scales**-0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert kept == 4

    def test_field_level_power_plant(self, grid45):
        # band field with an r^{-5/2} envelope: shell mass beyond R falls
        # like 1/R, so the fitted delta sits near 1/2 (finite-window bias
        # keeps this a sanity check; the exact recovery is tested above)
        raw = np.where((grid45.r > 2.0) & (grid45.r < 28.0),
                       grid45.r**-2.5, 0.0) * np.cos(3.0 * grid45.r)
        window = bands.phi_le(grid45.r, 26.0) * bands.phi_gt(grid45.r, 1.0)
        f = multiplied(grid45, (raw * window).astype(np.complex128), bands.band_symbol(grid45, 4.0))
        traj = single_snapshot_trajectory(grid45, f)
        rep = diagnostics.spatial_decay_scan(traj, (4.0, 4.0), [1.5, 2.1, 3.0, 4.2, 6.0])
        assert rep.exponent == pytest.approx(0.5, abs=0.15)
        assert rep.passes

    def test_solitary_wave_rapid_decay(self, sw_dense):
        # the profile itself decays exponentially; what survives at these
        # radii is the band kernels' slow tails, so the fitted power is a
        # finite positive delta rather than a noise-floor report
        rep = diagnostics.spatial_decay_scan(every(sw_dense, 200), (4.0, 16.0),
                                             [2.0, 3.0, 4.5, 6.5])
        assert rep.passes
        assert rep.exponent is None or rep.exponent > 0.3

    def test_empty_radius_list_rejected(self, sw_dense):
        with pytest.raises(ValueError):
            diagnostics.spatial_decay_scan(sw_dense, (4.0, 8.0), [])

    def test_disordered_radii_rejected(self, sw_dense):
        with pytest.raises(ValueError):
            diagnostics.spatial_decay_scan(sw_dense, (4.0, 8.0), [4.0, 2.0])


class TestReports:
    def test_decay_report_json_shape(self, grid):
        scales = (4.0, 8.0, 16.0, 32.0)
        f = planted_band_field(grid, scales, [N**-2.0 for N in scales])
        rep = diagnostics.frequency_decay_fit(single_snapshot_trajectory(grid, f),
                                              1.0, scales)
        obj = rep.to_json_obj()
        assert set(obj) == {"table", "exponent", "residual", "threshold",
                            "passes", "note"}
        assert obj["table"]["rows"][1] == {"N": 8.0, "value": rep.values[1]}


def test_transform_count_independent_of_snapshot_count(sw_dense, monkeypatch):
    # the diagnostic runners and extract_A_sequence transform a trajectory's
    # snapshots as one stack, so doubling the snapshots adds no kernel products
    real_matvec = core._real_matvec
    calls = []
    monkeypatch.setattr(core, "_real_matvec",
                        lambda mat, vec, *scale: calls.append(vec.shape)
                        or real_matvec(mat, vec, *scale))

    def count(snapshots):
        traj = dataclasses.replace(sw_dense, values=sw_dense.values[:snapshots])
        calls.clear()
        for kind, runner in cli.DIAGNOSTIC_RUNNERS.items():
            runner(traj, cli.kind_params("diagnostics", {"kind": kind})[1])
        recurrence.extract_A_sequence(traj, [16.0, 32.0])
        return len(calls)

    assert count(300) == count(600)


def test_runners_match_single_field_loop(sw_dense):
    # reference: the stacked functions applied one snapshot at a time; the
    # stacked transforms round differently, so values agree to round-off of the
    # field norm and the grid radii exactly
    traj = dataclasses.replace(sw_dense, values=sw_dense.values[:300])
    fields = traj.values
    grid = traj.grid
    tol = 1e-12 * math.sqrt(mass(grid, fields[0]))

    *_, rows = cli.DIAGNOSTIC_RUNNERS["kinetic_localization"](traj, {"eta_fraction": 1e-2})
    assert [r for _, r in rows] == [kinetic_radius_of(
        grid, f, 1e-2 * kinetic(grid, f)) for f in fields]

    *_, rows = cli.DIAGNOSTIC_RUNNERS["concentration"](traj, {"eta_fraction": 1e-2})
    assert [(c_x, c_xi) for _, c_x, c_xi in rows] == [
        radii_of(grid, f, 1e-2 * mass(grid, f)) for f in fields]

    *_, rows = cli.DIAGNOSTIC_RUNNERS["virial"](traj, {"R": 8.0})
    v = [virial_of(grid, f, 8.0) for f in fields]
    h = traj.times[1] - traj.times[0]
    for i, (t, acc, eight_k) in enumerate(rows, start=2):
        ref = (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / (12 * h * h)
        assert acc == pytest.approx(ref, rel=1e-12, abs=1e-9)
        assert eight_k == pytest.approx(8 * kinetic(grid, fields[i]), rel=1e-12)

    shell = bands.phi_gt(grid.r, 1.0)
    rep = diagnostics.frequency_decay_fit(traj, 1.0, [4.0, 8.0, 16.0, 32.0])
    for N, value in zip(rep.scales, rep.values):
        ref = max(math.sqrt(float(np.sum(grid.w * shell**2 * np.abs(
            multiplied(grid, f, bands.band_symbol(grid, N))) ** 2))) for f in fields)
        assert abs(value - ref) <= tol

    seq = recurrence.extract_A_sequence(traj, [16.0, 32.0])
    for N, value in zip(seq.scales, seq.values):
        high = dataclasses.replace(traj, values=[multiplied(
            grid, f, bands.high_symbol(grid, N)) for f in fields])
        ref = recurrence.strichartz_norm(high, (0.0, N ** -0.5))
        assert abs(value - ref) <= tol
