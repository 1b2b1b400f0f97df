import dataclasses
import functools
import math

import mpmath as mp
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
def grid60():
    return core.make_radial_grid(4, 60.0, 1280)


@pytest.fixture(scope="session")
def grid45():
    return core.make_radial_grid(4, 45.0, 768)


@pytest.fixture(scope="session")
def ground(grid):
    return groundstate.solve_ground_state(grid, tol=1e-8)


@pytest.fixture(scope="session")
def ground_double(grid_double):
    return groundstate.solve_ground_state(grid_double, tol=1e-8)


def sampled(grid, fn):
    """fn of the radius at the grid's nodes, as complex samples."""
    return np.asarray(fn(grid.r), dtype=np.complex128)


def mass(grid, values):
    """The L^2 mass of the samples values on grid."""
    return float(core._power_sum(grid, values, 2))


def multiplied(grid, f, symbol):
    """The samples whose spectrum is symbol times that of the samples f."""
    return core._multiplier_inverse(grid, symbol, grid._forward_values(f))


def _run(grid, u0, mu, dt, T, cadence):
    cfg = evolution.SimulationConfig(dimension=grid.d, mu=mu, r_max=grid.r_max,
                                     n=grid.n, dt=dt, t_final=T, cadence=cadence)
    return evolution.evolve(cfg, grid, u0)


@pytest.fixture(scope="session")
def sw_dense(grid, ground):
    """Solitary-wave run over a unit time at dense cadence."""
    return _run(grid, ground.profile.values, -1, 1e-3, 1.0, 1)


@pytest.fixture(scope="session")
def sw_half_dense(grid, ground):
    """Short solitary-wave run at halved dt (for refinement ratios)."""
    return _run(grid, ground.profile.values, -1, 5e-4, 0.2, 1)


@pytest.fixture(scope="session")
def free_dense(grid):
    return _run(grid, sampled(grid, lambda r: np.exp(-(r**2))), 0, 1e-3, 0.2, 1)


@pytest.fixture(scope="session")
def defocusing_dense(grid):
    return _run(grid, sampled(grid, lambda r: np.exp(-(r**2))), 1, 1e-3, 0.2, 1)


@pytest.fixture(scope="session")
def pc_traj(grid, ground):
    """Pseudo-conformal profile evolved from t = -1 toward the blowup time."""
    u0 = groundstate.make_pc(ground, -1.0)
    return _run(grid, u0, -1, 1e-3, 0.5, 25)


@pytest.fixture(scope="session")
def corpus(grid):
    """50 random smooth fields on grid, a read-only (50, n) stack of samples."""
    rng = np.random.default_rng(123)
    fields = np.array([core.random_smooth_field(grid, rng) for _ in range(50)])
    fields.setflags(write=False)
    return fields


def single_snapshot_trajectory(grid, values):
    """Wrap the samples of one field as a minimal trajectory for the fit/scan diagnostics."""
    cfg = evolution.SimulationConfig(dimension=grid.d, mu=0, r_max=grid.r_max,
                                     n=grid.n, dt=1e-3, t_final=1e-3, cadence=1)
    return evolution.Trajectory(cfg, grid, [values], [mass(grid, values)], [0.0], None, ())


def every(traj, k):
    """Every k-th snapshot of traj, as the trajectory of the same run at k times its cadence."""
    cfg = dataclasses.replace(traj.config, cadence=k * traj.config.cadence)
    return dataclasses.replace(traj, config=cfg, values=traj.values[::k])


def planted_band_field(grid, scales, shell_values, shell_cut=1.0, seed=5):
    """Samples of a field whose shell band norms || phi_>shell P_N u ||_2 are exactly planted.

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
        f = grid._inverse_values(coeffs)
        norm = math.sqrt(float(np.sum(grid.w * shell**2 * np.abs(f) ** 2)))
        total += (target / norm) * f
    return total


# ---------------------------------------------------------------------------
# mpmath oracles for the harmonic-analysis constants; they share no transform,
# kernel, quadrature or bump code with radnls
# ---------------------------------------------------------------------------

def _mp_sphere_area(d):
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)


def _mp_bump(x):
    """The frozen bump of radnls.bands' docstring: 1 on [0, 1], 0 beyond 25/24."""
    support = mp.mpf(25) / 24
    if x <= 1:
        return mp.mpf(1)
    if x >= support:
        return mp.mpf(0)
    t = (support - x) / (support - 1)
    return mp.exp(-1 / t) / (mp.exp(-1 / t) + mp.exp(-1 / (1 - t)))


def mp_pointwise_band_norm(d, N, r):
    """sup |P_N f(r)| / ||f||_2 over radial f on R^d: the L^2 norm of the kernel row at r,
    (r^{-(d-2)} / |S^{d-1}| int psi_N(rho)^2 J_nu(r rho)^2 rho drho)^{1/2} with
    psi_N(rho) = phi(rho / N) - phi(2 rho / N) and nu = d/2 - 1."""
    N, r = mp.mpf(N), mp.mpf(r)
    nu = mp.mpf(d) / 2 - 1
    integrand = lambda rho: ((_mp_bump(rho / N) - _mp_bump(2 * rho / N)) ** 2
                             * mp.besselj(nu, r * rho) ** 2 * rho)
    # the bump's two transition annuli and its plateau, each cut into pieces about
    # half a period of J_nu(r rho)^2 long
    corners = [N / 2, 25 * N / 48, N, 25 * N / 24]
    points = [corners[0]]
    for a, b in zip(corners, corners[1:]):
        k = int(mp.ceil((b - a) * r / mp.pi))
        points += [a + (b - a) * i / k for i in range(1, k + 1)]
    return float(mp.sqrt(mp.quad(integrand, points) / (r ** (d - 2) * _mp_sphere_area(d))))


def _np_bump(x):
    """The frozen bump of radnls.bands' docstring on an array, written out again."""
    x = np.abs(x)
    t = np.clip(24 * (25 / 24 - x), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = np.exp(-1 / t), np.exp(-1 / (1 - t))
        return np.where(x <= 1, 1.0, np.where(x >= 25 / 24, 0.0, a / (a + b)))


def _gauss_panels(edge, panels):
    """Gauss-Legendre nodes and weights, 20 a panel: panels equal panels on [0, edge]
    and 2 on the bump's transition [edge, 25 edge / 24]."""
    x, w = np.polynomial.legendre.leggauss(20)
    ends = np.r_[np.linspace(0, edge, panels + 1), edge * (1 + np.array([1, 2]) / 48)]
    half, mid = np.diff(ends) / 2, (ends[:-1] + ends[1:]) / 2
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


@functools.cache
def continuum_mismatch_norm(d, R, N):
    """(||A||, ||A||_HS) on R^d for A = phi_{>R} P_{<=N} phi_{<=R/2}, with scipy's J_nu.

    r^{(d-1)/2} f(r) maps radial L^2(R^d) onto L^2(0, inf) up to a constant, and there
    P_{<=N} = H phi(rho / N) H, H g(rho) = int g(r) sqrt(r rho) J_nu(r rho) dr being the
    Hankel transform, unitary and its own inverse, nu = d/2 - 1.  So A has the kernel
    phi_{>R}(r) K(r, s) phi_{<=R/2}(s), K(r, s) = sqrt(rs) int phi(rho/N) J_nu(r rho)
    J_nu(s rho) rho drho, and as K^T K = H phi(rho/N)^2 H,
        A* A = phi_{<=R/2} (H phi(rho/N)^2 H - K^T (1 - phi_{>R}^2) K) phi_{<=R/2},
    whose r integral runs over r <= 25R/24 only: no tail of A is cut off.  ||A||^2 is
    the top eigenvalue of A* A and ||A||_HS^2 its trace.  Each of s <= 25R/48,
    r <= 25R/24 and rho <= 25N/24 takes a panel per period 2 pi of the largest Bessel
    argument (25/24)^2 N R, split at its cutoff's transition.  At N R = 64 and 128 it
    reads 0.1469676969 and 0.0837052094, the same to 1e-10 with twice the panels, or
    with R halved and N doubled.
    """
    from scipy.special import jv

    nu = d / 2 - 1
    panels = max(2, round((25 / 24) ** 2 * N * R / (2 * math.pi)))
    s, ws = _gauss_panels(R / 2, math.ceil(panels / 2))
    r, wr = _gauss_panels(R, panels)
    rho, wrho = _gauss_panels(N, panels)
    hank = lambda x: np.sqrt(np.outer(x, rho * wrho)) * jv(nu, np.outer(x, rho))
    h_s, h_r = hank(s), hank(r)
    phi = _np_bump(rho / N)
    k = (h_r * phi) @ h_s.T
    near = 1 - (1 - _np_bump(r / R)) ** 2
    cut = np.sqrt(ws) * _np_bump(s / (R / 2))
    ata = (h_s * phi**2) @ h_s.T - k.T @ (k * (near * wr)[:, None])
    eig = np.linalg.eigvalsh(cut[:, None] * ata * cut)
    return math.sqrt(eig[-1]), math.sqrt(eig.sum())


def _mp_frac_gaussian_norm(d, s, b, q):
    """|| |grad|^s e^{-b r^2} ||_{L^q(R^d)}, from
    |grad|^s e^{-b r^2} = b^{s/2} 2^s Gamma((d+s)/2) / Gamma(d/2) 1F1((d+s)/2; d/2; -b r^2).
    The 1F1 changes sign, so the quadrature is split at its zeros."""
    d, s, b, q = (mp.mpf(x) for x in (d, s, b, q))
    c = b ** (s / 2) * 2**s * mp.gamma((d + s) / 2) / mp.gamma(d / 2)
    profile = lambda x: mp.hyp1f1((d + s) / 2, d / 2, -x)
    mesh = [mp.mpf(k) / 8 for k in range(321)]
    zeros = [mp.findroot(profile, (x0, x1), solver="anderson")
             for x0, x1 in zip(mesh, mesh[1:]) if profile(x0) * profile(x1) < 0]
    points = sorted({mp.mpf(0), *(mp.sqrt(x / b) for x in [*zeros, 1, 4, 16, 64])}) + [mp.inf]
    integral = mp.quad(lambda r: abs(c * profile(b * r**2)) ** q * r ** (d - 1), points)
    return (_mp_sphere_area(d) * integral) ** (1 / q)


def mp_fractional_chain_ratio(d, s, a):
    """radnls.bands.fractional_chain_ratio's value for u = e^{-a r^2} in the continuum: for
    d = 4, F(u) = |u|^{4/d} u is e^{-2a r^2}, and every norm is a 1-D quadrature."""
    if d != 4:
        raise ValueError("F(e^{-a r^2}) is a Gaussian only for d = 4")
    q_num, q_den = mp.mpf(2 * (d + 2)) / (d + 4), mp.mpf(2 * (d + 2)) / d
    a = mp.mpf(a)
    gauss = (_mp_sphere_area(d) * mp.quad(lambda r: mp.exp(-q_den * a * r**2) * r ** (d - 1),
                                          [0, mp.inf])) ** (1 / q_den)
    num = _mp_frac_gaussian_norm(d, s, 2 * a, q_num)
    return float(num / (_mp_frac_gaussian_norm(d, s, a, q_den) * gauss ** (mp.mpf(4) / d)))
