import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.special import iv, kv

from radnls import core, evolution, groundstate


def sharp_ratio(f, ground):
    """gn_ratio of one field."""
    return float(groundstate.gn_ratio(f.grid, f.values, f.grid._forward_values(f.values),
                                      ground.mass))


class TestSolve:
    def test_pohozaev_mass_identity(self, ground):
        l3 = core.lebesgue_norm(ground.profile, 3.0) ** 3
        assert abs(ground.mass - l3 / 3.0) < 1e-4 * ground.mass

    def test_profile_positive_and_decreasing(self, ground):
        q = ground.profile.values.real
        assert np.all(q > 0)
        assert np.all(np.diff(q) <= 1e-10 * q[0])

    def test_grid_doubling_stability(self, ground, ground_double):
        assert abs(ground_double.mass - ground.mass) < 1e-6 * ground.mass


class TestStoredFields:
    def test_stores_only_what_the_solve_knows(self):
        fields = [f.name for f in dataclasses.fields(groundstate.GroundState)]
        assert fields == ["profile", "residual", "iterations"]

    def test_invariants_follow_a_replaced_profile(self, ground):
        doubled = dataclasses.replace(ground, profile=core.RadialField(ground.grid, 2.0 * ground.profile.values))
        assert doubled.mass == pytest.approx(4.0 * ground.mass, rel=1e-14)
        assert doubled.kinetic == pytest.approx(4.0 * ground.kinetic, rel=1e-14)

    def test_certificate_makes_no_transform(self, grid, monkeypatch):
        # the solve judged Q's resolvedness on its spectrum; the certificate reads it again
        gs = groundstate.solve_ground_state(grid, tol=1e-8)
        calls = []
        forward = core.RadialGrid._forward_values
        monkeypatch.setattr(core.RadialGrid, "_forward_values",
                            lambda grid, values: calls.append(values.shape)
                            or forward(grid, values))
        assert all(ok for ok, _ in groundstate.check_ground_state(gs).values())
        assert calls == []

    def test_solve_and_certificate_call_shooting_once(self, grid, monkeypatch):
        calls = []
        shooting = groundstate.shooting_mass
        monkeypatch.setattr(groundstate, "shooting_mass", lambda d: calls.append(d) or shooting(d))
        gs = groundstate.solve_ground_state(grid, tol=1e-8)
        assert calls == []
        # the certificate reads mass_shooting, and ground-state reads it again for its JSON
        checks = groundstate.check_ground_state(gs)
        assert checks["shooting"][1] == abs(gs.mass_shooting - gs.mass) / gs.mass
        assert calls == [grid.d]


class TestCertificate:
    @pytest.mark.parametrize("floors, ok", [(0.5, True), (2.0, False)])
    def test_positivity_holds_to_the_round_off_floor(self, ground, floors, ok):
        # a last node below 0 by half the floor n eps max Q is round-off; by twice, not
        q = ground.profile.values.real.copy()
        q[-1] = -floors * ground.grid.n * groundstate.EPS * q.max()
        dipped = dataclasses.replace(ground, profile=core.RadialField(ground.grid, q))
        checks = groundstate.check_ground_state(dipped)
        assert checks["positivity"] == (ok, q[-1] / q.max())
        assert [key for key, (passed, _) in checks.items() if not passed] == (
            [] if ok else ["positivity"])


def collocation_mass(d: int, r_end: float = 30.0) -> float:
    """M(Q) from a solve_bvp collocation of Q'' + (d-1)/r Q' = Q - Q^(1+4/d).

    The mass integral is a third component m' = |S^{d-1}| r^{d-1} Q^2 with
    m(0) = 0; decay is imposed as Q' = -(1 + (d-1)/(2r)) Q at r_end.
    """
    p = 1.0 + 4.0 / d
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    k = 1.0 + (d - 1.0) / (2.0 * r_end)
    r = np.linspace(0.0, r_end, 300)
    guess = np.vstack([1.5 * d / np.cosh(r) ** 2,
                       -3.0 * d * np.tanh(r) / np.cosh(r) ** 2, np.zeros_like(r)])
    sol = solve_bvp(
        lambda x, y: np.vstack([y[1], y[0] - np.abs(y[0]) ** p, area * x ** (d - 1) * y[0] ** 2]),
        lambda ya, yb: np.array([ya[1], ya[2], yb[1] + k * yb[0]]),
        r, guess, S=np.diag([0.0, -(d - 1.0), 0.0]), tol=1e-9, max_nodes=100000)
    assert sol.status == 0 and np.all(sol.y[0] > 0) and sol.y[0, 0] > 1.0, sol.message
    return float(sol.y[2, -1])


class TestShooting:
    @pytest.mark.parametrize("d", [2, 4])
    def test_matches_collocation(self, d):
        ref = collocation_mass(d)
        assert abs(groundstate.shooting_mass(d) - ref) <= 1e-8 * ref

    def test_townes_mass(self):
        # d=2: the Townes soliton's critical mass 11.70089652...
        assert abs(groundstate.shooting_mass(2) - 11.70089652) < 1e-8

    def test_shooting_mass_pinned(self):
        ref = 408.856886662
        assert abs(groundstate.shooting_mass(4) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("d, ref", [(6, 23721.953700304894), (8, 1925607.8911578788)])
    def test_higher_dimensions_pinned(self, d, ref):
        # collocation_mass fails its own check at d = 6, 8; these are DOP853 shooting masses
        assert abs(groundstate.shooting_mass(d) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("d", [2, 4])
    def test_inverse_matches_linalg(self, monkeypatch, d):
        # on the collocation matrix itself, whose condition number is about 4e6
        seen = []
        invert = groundstate._inverse
        monkeypatch.setattr(groundstate, "_inverse", lambda a: seen.append(a.copy()) or invert(a))
        groundstate.shooting_mass(d)
        (a,) = seen
        ref = np.linalg.inv(a)
        assert np.max(np.abs(invert(a) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_unconverged_collocation_raises(self, monkeypatch):
        # an iteration cut short is an error, not a mass
        monkeypatch.setattr(groundstate, "MAX_ITER", 5)
        with pytest.raises(groundstate.NumericalFailure, match="did not converge"):
            groundstate.shooting_mass(4)


class TestCoarseStart:
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_fine_grid_takes_at_most_two_steps(self, grid, d):
        fine = grid if d == 4 else core.make_radial_grid(d, 15.0, 640)
        assert groundstate.solve_ground_state(fine, tol=1e-8).iterations <= 2

    def test_at_most_two_steps_at_n1280_and_r_max_45(self, ground_double, grid45):
        assert ground_double.iterations <= 2
        # Q's tail at r_max 45 falls below the round-off floor n EPS max |Q|; the
        # certificate judges positivity above the floor only, so Q is certified
        gs = groundstate.solve_ground_state(grid45, tol=1e-8)
        assert gs.iterations <= 2
        checks = groundstate.check_ground_state(gs)
        q = gs.profile.values.real
        assert 0.0 <= np.min(q) < grid45.n * groundstate.EPS * np.max(np.abs(q))
        assert all(ok for ok, _ in checks.values()), checks

    def test_matches_the_direct_start(self, ground, ground_double):
        for gs in (ground, ground_double):
            g = gs.grid
            direct, _, steps = groundstate._fixed_point(g, 2.0 * np.exp(-g.r**2), 1e-8)
            assert steps > 50
            gap = core._power_sum(g, gs.profile.values.real - direct, 2)
            assert math.sqrt(gap / core._power_sum(g, direct, 2)) < 1e-8

    def test_coarse_grid_only_above_the_cutoff(self, monkeypatch):
        assert (groundstate._coarse_nodes(15.0), groundstate._coarse_nodes(45.0)) == (128, 384)
        built = []
        monkeypatch.setattr(groundstate, "RadialGrid",
                            lambda *args: built.append(args) or core.RadialGrid(*args))
        for n in (128 + groundstate.COARSE_MARGIN, 320):
            groundstate.solve_ground_state(core.make_radial_grid(4, 15.0, n), tol=1e-8)
        assert built == [(4, 15.0, 128)]


class TestRoundOffFloor:
    @pytest.mark.parametrize("r_max, n, stall", [(30.0, 1280, 1.21e-10), (45.0, 768, 8.4e-12)])
    def test_twice_the_stall_certifies(self, r_max, n, stall):
        # the residual held past convergence stalls at 0.22 and 0.24 times EPS rho_max^3
        # on these grids, and at 0.024 and 0.017 times n EPS rho_max^2
        gs = groundstate.solve_ground_state(core.make_radial_grid(4, r_max, n), tol=2 * stall)
        checks = groundstate.check_ground_state(gs)
        assert gs.residual < 2 * stall
        assert all(ok for ok, _ in checks.values()), checks


def tail_gap(gs, lo: float, hi: float, wall: bool = True) -> float:
    """max |Q / law - 1| on the nodes in [lo, hi], law being Q's tail past its core,
    C r^-nu [K_nu(r) - K_nu(r_max) I_nu(r) / I_nu(r_max)] (the Dirichlet Green's
    function of Delta - 1 on the ball), with C fitted at the first node; without the
    I_nu term if not wall."""
    g = gs.grid
    band = (g.r >= lo) & (g.r <= hi)
    r, q = g.r[band], gs.profile.values.real[band]
    law = kv(g.nu, r)
    if wall:
        law -= kv(g.nu, g.r_max) * iv(g.nu, r) / iv(g.nu, g.r_max)
    law /= r**g.nu
    ratio = q / law
    return float(np.max(np.abs(ratio / ratio[0] - 1.0)))


class TestTail:
    # measured 7.0e-6 at r_max 15, n = 640 and 1.3e-6 at r_max 45, n = 768 (C = 13.9991)
    def test_matches_the_dirichlet_green_function(self, ground, grid45):
        assert tail_gap(ground, 10.0, 14.0) <= 2e-5
        assert tail_gap(groundstate.solve_ground_state(grid45, tol=1e-8), 12.0, 22.0) <= 2e-5

    def test_needs_the_dirichlet_wall(self, ground):
        # at r_max 15 the free-space tail K_nu alone misses Q by 1.3e-1 near the wall
        assert tail_gap(ground, 10.0, 14.0, wall=False) > 2e-5


class TestSharpRatio:
    def test_symmetry_family_attains_one(self, ground):
        fam = core.rescale(ground.profile, 2.0)
        fam = core.RadialField(fam.grid, 0.7 * np.exp(0.3j) * fam.values)
        assert abs(sharp_ratio(fam, ground) - 1.0) < 1e-3

    def test_gaussian_strictly_below_one(self, grid, ground):
        f = core.field_from_function(grid, lambda r: np.exp(-(r**2)))
        j = sharp_ratio(f, ground)
        assert 0.0 < j < 1.0 - 1e-2

    def test_zero_field_rejected(self, grid, ground):
        with pytest.raises(ValueError):
            sharp_ratio(core.RadialField(grid, np.zeros(grid.n)), ground)

    def test_unresolved_field_rejected(self, grid, ground):
        coeffs = np.zeros(grid.n, dtype=complex)
        coeffs[-grid.n // 10:] = 1.0
        rough = core.transform_inverse(core.SpectralField(grid, coeffs))
        with pytest.raises(core.UnresolvedFieldError):
            sharp_ratio(rough, ground)

    def test_corpus_never_exceeds_one(self, ground, grid):
        rng = np.random.default_rng(77)
        fields = np.array([core.random_smooth_field(grid, rng).values for _ in range(100)])
        worst = np.max(groundstate.gn_ratio(grid, fields, grid._forward_values(fields),
                                            ground.mass))
        assert worst <= 1.0 + 1e-3


class TestExplicitSolutions:
    def test_sw_at_time_zero_is_profile(self, ground):
        sw = groundstate.make_sw(ground, 0.0)
        assert np.array_equal(sw.values, ground.profile.values)

    def test_sw_modulus_static(self, ground):
        sw = groundstate.make_sw(ground, 0.7)
        assert np.max(np.abs(np.abs(sw.values) - ground.profile.values.real)) < 1e-12

    def test_pc_mass_invariance(self, ground):
        for t in (-0.7, -1.3, 0.6):
            pc = groundstate.make_pc(ground, t)
            assert abs(core.mass(pc) - ground.mass) < 1e-6 * ground.mass

    def test_pc_gradient_blowup_rate(self, ground):
        grid = ground.grid
        g1, g2 = (math.sqrt(core._kinetic_sum(grid, grid._forward_values(
            groundstate.make_pc(ground, t).values))) for t in (-0.25, -0.5))
        assert abs(g1 / g2 - 2.0) < 0.2

    def test_pc_rejects_time_zero(self, ground):
        with pytest.raises(ValueError):
            groundstate.make_pc(ground, 0.0)

    def test_pc_rejects_unresolvable_time(self, ground):
        with pytest.raises(core.UnresolvedFieldError):
            groundstate.make_pc(ground, -0.01)


def lambda_q_run(ground, lam, t_final):
    """The focusing run from lam Q at n = 640, dt 1e-3 and cadence 10."""
    grid = ground.grid
    cfg = evolution.SimulationConfig(dimension=grid.d, mu=-1, r_max=grid.r_max, n=grid.n,
                                     dt=1e-3, t_final=t_final, cadence=10)
    return evolution.evolve(cfg, core.RadialField(grid, lam * ground.profile.values))


class TestMassThreshold:
    # M(Q) is the threshold between global runs and blowup; both sides have a sharp
    # bound from the initial data alone, and both hold on the ball (H^1_0 extends by 0)

    def test_gradient_bounded_below_the_threshold(self, ground):
        # Weinstein's sharp Gagliardo-Nirenberg inequality (CMP 87 (1983) 567) with
        # E = K/2 - d/(2(d+2)) ||u||_p^p gives K(t) <= 2E / (1 - (M/M(Q))^{2/d}), which
        # lam Q with lam < 1 attains at t = 0.  Tolerance: the energy drift of the split
        # step, gated at 1e-5 (7.2e-6 measured over T = 2), plus the grid's sharp-ratio
        # error |gn_ratio(Q) - 1| (1.3e-9) amplified by m / (1 - m) = 9, m = (M/M(Q))^{1/2}
        traj = lambda_q_run(ground, 0.9, 2.0)
        assert traj.guard_event is None
        energy, m = traj.energy_log[0], math.sqrt(traj.mass_log[0] / ground.mass)
        drift = max(abs(e - energy) for e in traj.energy_log) / energy
        assert drift < 1e-5
        sharp = abs(sharp_ratio(ground.profile, ground) - 1.0)
        tau = 1e-5 + m / (1.0 - m) * sharp
        kinetic = core._kinetic_sum(ground.grid, traj.coeffs)
        assert kinetic.max() <= 2.0 * energy / (1.0 - m) * (1.0 + tau)

    def test_blowup_before_glassey_time_above_the_threshold(self, ground):
        # E < 0 and real data: V(t) <= V(0) + 8 E t^2 (Glassey, J. Math. Phys. 18 (1977)
        # 1794; the Dirichlet wall keeps V'' <= 16E, Kavian, Trans. AMS 302 (1987) 489), so
        # the run cannot outlive T_G = (V(0) / (8|E|))^{1/2}: 1.685 here; it loses
        # resolution at 1.539
        grid = ground.grid
        traj = lambda_q_run(ground, 1.1, 2.0)
        energy = traj.energy_log[0]
        assert traj.mass_log[0] > ground.mass and energy < 0
        variance = float(np.sum(grid.w * grid.r**2 * np.abs(traj.values[0]) ** 2))
        assert traj.guard_event["kind"] == "resolution_loss"
        assert traj.guard_event["time"] < math.sqrt(variance / (8.0 * abs(energy)))
