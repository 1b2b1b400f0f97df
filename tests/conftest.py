import math

import numpy as np
import pytest

from radnls import core, evolution, groundstate


@pytest.fixture(scope="session")
def grid():
    """Default desk-scale grid (the one the CLI defaults to)."""
    return core.make_radial_grid(4, 15.0, 640)


@pytest.fixture(scope="session")
def grid_double(grid):
    return core.make_radial_grid(4, 15.0, 1280)


@pytest.fixture(scope="session")
def grid20():
    return core.make_radial_grid(4, 20.0, 512)


@pytest.fixture(scope="session")
def grid45():
    return core.make_radial_grid(4, 45.0, 768)


@pytest.fixture(scope="session")
def ground(grid):
    return groundstate.solve_ground_state(grid, tol=1e-8)


@pytest.fixture(scope="session")
def ground_double(grid_double):
    return groundstate.solve_ground_state(grid_double, tol=1e-8)


def _run(grid, u0, mu, dt, T, cadence):
    cfg = evolution.SimulationConfig(dimension=grid.d, mu=mu, r_max=grid.r_max,
                                     n=grid.n, dt=dt, t_final=T, cadence=cadence)
    return evolution.evolve(cfg, u0)


@pytest.fixture(scope="session")
def sw_dense(grid, ground):
    """Solitary-wave run over a unit time at dense cadence."""
    return _run(grid, ground.profile, -1, 1e-3, 1.0, 1)


@pytest.fixture(scope="session")
def sw_half_dense(grid, ground):
    """Short solitary-wave run at halved dt (for refinement ratios)."""
    return _run(grid, ground.profile, -1, 5e-4, 0.2, 1)


@pytest.fixture(scope="session")
def free_dense(grid):
    f = core.field_from_function(grid, lambda r: np.exp(-(r**2)))
    return _run(grid, f, 0, 1e-3, 0.2, 1)


@pytest.fixture(scope="session")
def defocusing_dense(grid):
    f = core.field_from_function(grid, lambda r: np.exp(-(r**2)))
    return _run(grid, f, 1, 1e-3, 0.2, 1)


@pytest.fixture(scope="session")
def pc_traj(grid, ground):
    """Pseudo-conformal profile evolved from t = -1 toward the blowup time."""
    u0 = groundstate.make_pc(ground, -1.0)
    return _run(grid, u0, -1, 1e-3, 0.5, 25)


@pytest.fixture(scope="session")
def corpus(grid):
    rng = np.random.default_rng(123)
    return [core.random_smooth_field(grid, rng) for _ in range(50)]


@pytest.fixture(scope="session")
def corpus_double(grid_double):
    rng = np.random.default_rng(123)
    return [core.random_smooth_field(grid_double, rng) for _ in range(50)]


def single_snapshot_trajectory(grid, field):
    """Wrap one field as a minimal trajectory for the fit/scan diagnostics."""
    cfg = evolution.SimulationConfig(dimension=grid.d, mu=0, r_max=grid.r_max,
                                     n=grid.n, dt=1e-3, t_final=1e-3, cadence=1)
    return evolution.Trajectory(cfg, grid, [0.0], [field.values], [core.mass(field)], [0.0],
                                None, ())


def planted_band_field(grid, scales, shell_values, shell_cut=1.0, seed=5):
    """Field whose shell band norms || phi_>shell P_N u ||_2 are exactly planted.

    Each component has spectrum inside [0.6 N, N], where the band symbol is
    identically 1 and neighboring band symbols vanish, so the planted values
    survive projection exactly.
    """
    from radnls import bands

    rng = np.random.default_rng(seed)
    shell = bands.phi_gt(grid.r, shell_cut)
    total = np.zeros(grid.n, dtype=np.complex128)
    for N, target in zip(scales, shell_values):
        sym = ((grid.rho >= 0.6 * N) & (grid.rho <= N)).astype(float)
        coeffs = sym * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        f = core.transform_inverse(core.SpectralField(grid, coeffs))
        norm = math.sqrt(float(np.sum(grid.w * shell**2 * np.abs(f.values) ** 2)))
        total += (target / norm) * f.values
    return core.RadialField(grid, total)
