import math

import numpy as np
import pytest

from radnls import core, evolution

from conftest import mass, sampled


def relative_l2(grid, a, b):
    """||a - b|| / ||b|| for two sample arrays on grid."""
    return math.sqrt(mass(grid, a - b) / mass(grid, b))


class TestFreePropagate:
    # the free flow over time t is one step of length t at mu = 0: the exact multiplier
    # exp(-i t rho^2) between the forward and the inverse transform
    def test_identity_at_time_zero(self, grid, corpus):
        f = corpus[0]
        assert relative_l2(grid, evolution.step(grid, f, 0.0, 0), f) < 1e-12

    @pytest.mark.parametrize("t", [0.1, 0.5, -0.3])
    def test_gaussian_closed_form(self, grid, t):
        f = sampled(grid, lambda r: np.exp(-(r**2)))
        u = evolution.step(grid, f, t, 0)
        exact = (1 + 4j * t) ** (-2) * np.exp(-grid.r**2 / (1 + 4j * t))
        err = math.sqrt(float(np.sum(grid.w * np.abs(u - exact) ** 2)) / mass(grid, f))
        assert err < 1e-6

    def test_unitarity(self, grid, corpus):
        f = corpus[1]
        m = mass(grid, f)
        assert abs(mass(grid, evolution.step(grid, f, 1.7, 0)) - m) < 1e-10 * m


class TestStep:
    def test_zero_field_fixed(self, grid):
        for mu in (-1, 0, 1):
            out = evolution.step(grid, np.zeros(grid.n, dtype=complex), 1e-3, mu)
            assert mass(grid, out) == 0.0

    def test_solitary_wave_single_step(self, ground):
        u1 = evolution.step(ground.grid, ground.profile.values, 1e-3, -1)
        exact = np.exp(1j * 1e-3) * ground.profile.values
        err = math.sqrt(float(np.sum(ground.grid.w * np.abs(u1 - exact) ** 2))
                        / ground.mass)
        assert err < 1e-6

    def test_third_order_local_defect(self, ground):
        # single-step defect against a quarter-step reference of the same
        # interval shrinks ~8x when dt is halved
        grid = ground.grid
        u0 = ground.profile.values + 0.05 * np.exp(-grid.r**2)

        def defect(dt):
            one = evolution.step(grid, u0, dt, -1)
            ref = u0
            for _ in range(4):
                ref = evolution.step(grid, ref, dt / 4, -1)
            return math.sqrt(float(core._power_sum(grid, one - ref, 2)))

        ratio = defect(4e-3) / defect(2e-3)
        assert 6.5 < ratio < 9.5

    def test_resolution_loss_raises(self, grid):
        coeffs = np.zeros(grid.n, dtype=complex)
        coeffs[int(0.6 * grid.n):] = 1.0
        rough = grid._inverse_values(coeffs)
        with pytest.raises(evolution.ResolutionLossError):
            evolution.step(grid, rough, 1e-3, -1)

    @pytest.mark.parametrize("mu", [-1, 0])
    def test_non_finite_samples_lose_resolution(self, grid, mu):
        # no field checks the samples a step takes, so the guard stops a NaN
        values = np.exp(-grid.r**2).astype(complex)
        values[grid.n // 2] = np.nan
        with pytest.raises(evolution.ResolutionLossError):
            evolution.step(grid, values, 1e-3, mu)


# a valid run config; each TestConfig case breaks one field of it
CONFIG = {"dimension": 4, "mu": -1, "r_max": 15.0, "n": 640, "dt": 1e-3, "t_final": 1.0,
          "cadence": 10}


class TestConfig:
    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            evolution.SimulationConfig(**dict(CONFIG, mu=2))

    def test_rejects_noninteger_steps(self):
        with pytest.raises(ValueError):
            evolution.SimulationConfig(**dict(CONFIG, dt=3e-4, t_final=1.0))

    def test_rejects_cadence_not_dividing(self):
        with pytest.raises(ValueError):
            evolution.SimulationConfig(**dict(CONFIG, dt=1e-3, t_final=1.0, cadence=7))

    @pytest.mark.parametrize("key", ["dimension", "n", "cadence"])
    @pytest.mark.parametrize("wrong", [float, bool])
    def test_rejects_counts_that_are_not_ints(self, key, wrong):
        # a float or a bool, as a JSON manifest may hold, for a count the run uses as an int
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            evolution.SimulationConfig(**dict(CONFIG, **{key: wrong(CONFIG[key])}))


class TestEvolve:
    def test_energy_log_matches_core_energy(self, defocusing_dense):
        for i in range(0, len(defocusing_dense), 50):
            v = defocusing_dense.values[i]
            grid = defocusing_dense.grid
            e = float(core._energy_sum(grid, v, grid._forward_values(v), 1))
            assert abs(defocusing_dense.energy_log[i] - e) <= 1e-12 * e

    def test_small_data_runs_clean(self, grid):
        small = sampled(grid, lambda r: 0.05 * np.exp(-(r**2)))
        cfg = evolution.SimulationConfig(dimension=4, mu=-1, r_max=grid.r_max,
                                         n=grid.n, dt=1e-3, t_final=2.0, cadence=100)
        traj = evolution.evolve(cfg, grid, small)
        assert traj.guard_event is None
        assert traj.mass_drift < 1e-8

    def test_concentration_ends_in_resolution_loss(self, grid):
        # supercritical mass concentrates until step 233 loses resolution; the partial
        # trajectory is returned with the event, not an exception
        big = sampled(grid, lambda r: 20.0 * np.exp(-(r**2)))
        cfg = evolution.SimulationConfig(dimension=4, mu=-1, r_max=grid.r_max,
                                         n=grid.n, dt=1e-3, t_final=1.0, cadence=10)
        traj = evolution.evolve(cfg, grid, big)
        assert traj.guard_event["kind"] == "resolution_loss"
        assert traj.guard_event["time"] == pytest.approx(0.232, rel=1e-12)
        assert len(traj) == 24 and len(traj.mass_log) == 233

    def test_grid_mismatch_rejected(self, grid20):
        f = sampled(grid20, lambda r: np.exp(-(r**2)))
        cfg = evolution.SimulationConfig(dimension=4, mu=0, r_max=15.0, n=640,
                                         dt=1e-3, t_final=0.01, cadence=1)
        with pytest.raises(ValueError):
            evolution.evolve(cfg, grid20, f)

    def test_initial_samples_checked_and_copied(self, grid):
        # evolve checks u0 as the samples of one finite field on grid, and keeps a copy
        cfg = evolution.SimulationConfig(dimension=4, mu=0, r_max=grid.r_max, n=grid.n,
                                         dt=1e-3, t_final=0.002, cadence=1)
        f = sampled(grid, lambda r: np.exp(-(r**2)))
        with pytest.raises(ValueError, match="sample count"):
            evolution.evolve(cfg, grid, f[:-1])
        bad = f.copy()
        bad[7] = np.nan
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            evolution.evolve(cfg, grid, bad)
        traj = evolution.evolve(cfg, grid, f)
        f[:] = 0.0
        assert np.array_equal(traj.values[0], sampled(grid, lambda r: np.exp(-(r**2))))

    def test_time_reversal_via_conjugation(self, grid):
        f = sampled(grid, lambda r: np.exp(-(r**2)))
        cfg = evolution.SimulationConfig(dimension=4, mu=-1, r_max=grid.r_max,
                                         n=grid.n, dt=1e-3, t_final=0.3, cadence=300)
        fwd = evolution.evolve(cfg, grid, f)
        back = evolution.evolve(cfg, grid, np.conj(fwd.values[-1]))
        assert relative_l2(grid, np.conj(back.values[-1]), f) < 1e-6

    def test_scaling_covariance(self, grid):
        # lam^{d/2} u(lam^2 t, lam x) solves the same equation
        lam = 2.0
        u0 = sampled(grid, lambda r: 0.5 * np.exp(-((r / 2) ** 2)))
        cfg_long = evolution.SimulationConfig(dimension=4, mu=-1, r_max=grid.r_max,
                                              n=grid.n, dt=1e-3, t_final=0.4, cadence=400)
        cfg_short = evolution.SimulationConfig(dimension=4, mu=-1, r_max=grid.r_max,
                                               n=grid.n, dt=1e-3, t_final=0.1, cadence=100)
        long_run = evolution.evolve(cfg_long, grid, u0)
        short_run = evolution.evolve(cfg_short, grid, core._rescaled_values(grid, u0, lam))
        rescaled_final = core._rescaled_values(grid, long_run.values[-1], lam)
        assert relative_l2(grid, short_run.values[-1], rescaled_final) < 1e-4


def per_snapshot_evolve(cfg, grid, u0):
    """evolve as one loop that transforms each snapshot when it is stored: the
    reference for the stacked energy log."""
    values, t = u0, 0.0
    times, rows, mass_log = [t], [values], [mass(grid, u0)]
    energy_log = [float(core._energy_sum(grid, values, grid._forward_values(values), cfg.mu))]
    guard_event = None
    for k in range(1, cfg.n_steps + 1):
        try:
            values = evolution.step(grid, values, cfg.dt, cfg.mu)
        except evolution.ResolutionLossError as exc:
            guard_event = {"kind": "resolution_loss", "time": t, "detail": str(exc)}
            break
        t = k * cfg.dt
        mass_log.append(mass(grid, values))
        if k % cfg.cadence == 0:
            times.append(t)
            rows.append(values)
            coeffs = grid._forward_values(values)
            energy_log.append(float(core._energy_sum(grid, values, coeffs, cfg.mu)))
    return times, np.array(rows), mass_log, energy_log, guard_event


def run_config(grid, t_final, cadence):
    return evolution.SimulationConfig(dimension=4, mu=-1, r_max=grid.r_max, n=grid.n,
                                      dt=1e-3, t_final=t_final, cadence=cadence)


class TestStackedEnergyLog:
    # 20 e^{-r^2} loses resolution at step 233, with 24 snapshots stored at cadence 10
    # and 233 at cadence 1
    @pytest.mark.parametrize("cadence", [10, 1])
    def test_matches_per_snapshot_loop(self, grid, cadence):
        big = sampled(grid, lambda r: 20.0 * np.exp(-(r**2)))
        cfg = run_config(grid, 0.3, cadence)
        times, values, mass_log, energy_log, event = per_snapshot_evolve(cfg, grid, big)
        traj = evolution.evolve(cfg, grid, big)
        assert event["kind"] == "resolution_loss"
        assert traj.guard_event == event
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.values, values)
        assert traj.mass_log == mass_log
        kinetic = core._kinetic_sum(grid, grid._forward_values(values))
        assert np.all(np.abs(np.array(traj.energy_log) - energy_log) <= 1e-12 * kinetic)

    def test_products_per_run(self, grid, monkeypatch):
        # 2 products per step, 1 for the initial condition and 1 for the stack of the
        # other stored snapshots, whatever the cadence
        real_matvec = core._real_matvec
        calls = []
        monkeypatch.setattr(core, "_real_matvec",
                            lambda mat, vec, *scale: calls.append(vec.shape)
                            or real_matvec(mat, vec, *scale))
        u0 = sampled(grid, lambda r: np.exp(-(r**2)))

        def count(cadence):
            calls.clear()
            cfg = run_config(grid, 0.192, cadence)
            assert evolution.evolve(cfg, grid, u0).guard_event is None
            return len(calls)

        assert count(1) == count(2) == count(3) == 2 * 192 + 2

    def test_calls_step_once_per_step(self, grid, monkeypatch):
        # the benchmark's traced replay and the mutated-step virial test wrap the
        # module's step; evolve must call it through the module, once per step
        step = evolution.step
        calls = []
        monkeypatch.setattr(evolution, "step",
                            lambda grid, values, dt, mu: calls.append(dt)
                            or step(grid, values, dt, mu))
        u0 = sampled(grid, lambda r: np.exp(-(r**2)))
        cfg = run_config(grid, 0.07, 1)
        assert len(evolution.evolve(cfg, grid, u0)) == 71
        assert calls == [cfg.dt] * cfg.n_steps

    def test_no_field_per_step(self, grid, monkeypatch):
        # the step loop carries sample arrays: a run of 40 steps checks and copies no
        # more of them than one of 10
        frozen = evolution._frozen_values
        built = []
        monkeypatch.setattr(evolution, "_frozen_values",
                            lambda *args: built.append(1) or frozen(*args))
        u0 = sampled(grid, lambda r: np.exp(-(r**2)))

        def count(t_final):
            built.clear()
            assert evolution.evolve(run_config(grid, t_final, 10), grid, u0).guard_event is None
            return len(built)

        assert count(0.01) == count(0.04)


def lens_error(grid, mu, u0, dt, b=-0.5, t=0.5):
    """Relative L^2 gap at time t between the run v from the lens image of u0 and the lens
    image of the run u from u0 at tau = t / (1 + bt), both in t / dt steps.

    The lens map v(t, x) = (1 + bt)^(-d/2) e^{ib|x|^2 / (4(1 + bt))} u(t / (1 + bt),
    x / (1 + bt)) sends a solution of the mass-critical equation to another, for every
    mu (Tao, Nonlinear Dispersive Equations, 2006); at t = 0 it is the chirp alone.
    """
    s, steps = 1.0 + b * t, round(t / dt)

    def run(f, t_final):
        return evolution.evolve(evolution.SimulationConfig(
            grid.d, mu, grid.r_max, grid.n, t_final / steps, t_final, steps), grid, f)

    v = run(u0 * np.exp(1j * b * grid.r**2 / 4.0), t)
    u = run(u0, t / s)
    assert v.guard_event is None and u.guard_event is None
    image = (core._rescaled_values(grid, u.values[-1], 1.0 / s)
             * np.exp(1j * b * grid.r**2 / (4.0 * s)))
    gap = core._power_sum(grid, v.values[-1] - image, 2)
    return math.sqrt(float(gap / core._power_sum(grid, v.values[-1], 2)))


class TestLensTransform:
    # measured at dt = 4e-3 and 2e-3: focusing 3.85e-6 and 9.62e-7, defocusing 7.44e-6 and
    # 1.87e-6, ratios 4.00 and 3.98; the bounds are twice the dt = 2e-3 errors, and the
    # ratio within 10% of the order-2 value 4
    @pytest.mark.parametrize("mu, amplitude, bound", [(-1, 1.5, 2e-6), (1, 3.0, 4e-6)])
    def test_second_order_to_the_lens_image(self, grid, mu, amplitude, bound):
        u0 = sampled(grid, lambda r: amplitude * np.exp(-(r**2)))
        coarse, fine = (lens_error(grid, mu, u0, dt) for dt in (4e-3, 2e-3))
        assert fine <= bound
        assert 3.6 <= coarse / fine <= 4.4

    def test_free_pair_to_round_off(self, grid):
        # the free steps are exact, so the gap is the map's own round-off: 9.5e-12
        u0 = sampled(grid, lambda r: 1.5 * np.exp(-(r**2)))
        assert lens_error(grid, 0, u0, 4e-3) <= 1e-10


class TestDuhamel:
    def test_solitary_wave_residual_scale(self, sw_dense, ground):
        res = evolution.duhamel_residual(sw_dense, 0.0, 0.2)
        assert res < 1e-3 * math.sqrt(ground.mass)

    def test_insufficient_snapshots_rejected(self, sw_dense):
        with pytest.raises(ValueError):
            evolution.duhamel_residual(sw_dense, 0.0, 0.001)

    def test_requires_snapshot_times(self, sw_dense):
        with pytest.raises(ValueError):
            evolution.duhamel_residual(sw_dense, 0.00037, 0.2)
