"""Ground-state profile of the focusing elliptic problem and its certification.

The profile Q is the positive radial decaying solution of

    Lap Q - Q + Q^(1+4/d) = 0,

computed by a normalized fixed-point iteration (spectral inverse of (1 - Lap)
applied to the nonlinearity, with the standard stabilizing power), run first
on a coarse grid with the same r_max and then, from its Q, on the requested
grid.  Its mass is cross-checked by shooting_mass, the same iteration on an
independent Chebyshev collocation of the radial ODE in s = r^2.

check_ground_state is Q's one certificate: every check that accepts a computed
Q is made there, and ground-state, evolve, selftest and the acceptance suite
judge Q through it.  Its identities follow from the elliptic equation by
multiplying with Q resp. x . grad Q and integrating:

    ||grad Q||^2 / ||Q||^{2(d+2)/d}_{2(d+2)/d} = d / (d+2)
    E(Q) = 0 for the focusing energy.

M(Q) = (2/d) ||grad Q||^2 is not judged on its own: the pairing with Q,
||Q||^{2(d+2)/d}_{2(d+2)/d} = ||grad Q||^2 + M(Q), holds at the fixed point, so
it is Pohozaev's identity again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    RadialField,
    RadialGrid,
    _check_resolved,
    _energy_sum,
    _kinetic_sum,
    _multiplier_inverse,
    _power_sum,
    mass,
    rescale,
    sphere_area,
)
from .errors import GroundStateError, NumericalFailure

if TYPE_CHECKING:
    from .evolution import Trajectory

# fixed-point iterations before the solve, or the collocation cross-check, gives up
MAX_ITER = 400
# Chebyshev nodes and truncation radius of the cross-check's collocation (shooting_mass)
COLLOCATION_NODES = 201
COLLOCATION_R_END = 18.0
# spectral reach rho_max of the coarse grid, which resolves Q at d = 2-8: 128 nodes at
# r_max 15 and 384 at r_max 45, where 128 nodes do not converge
COARSE_REACH = 26.8
# a grid starts from the coarse grid's Q only if it has more than COARSE_MARGIN nodes
# beyond it: at d = 4 the coarse stage cost 2-5 ms more than it saved at n = 192-256
# (r_max 15), 384 (r_max 30) and 512 (r_max 45), broke even at n = 320 (r_max 15) and
# saved 8-30 ms at n = 512 (r_max 30) and 640-768 (r_max 45)
COARSE_MARGIN = 128
# float64's machine epsilon; n EPS max |Q| is the floor below which a sample of Q is
# round-off
EPS = float(np.finfo(np.float64).eps)
# the elliptic residual has a round-off floor TOL_FLOOR * EPS rho_max^3, since rho^2
# multiplies the round-off of Q's coefficients.  Held past convergence it stalls at 0.21-0.24
# times EPS rho_max^3 at d = 4 on every grid measured: r_max 15 at n = 384, 640 and 1280
# (2.8e-11, 1.19e-10 and 9.0e-10), r_max 30 at n = 1280 (1.21e-10) and r_max 45 at n = 768
# (8.4e-12); at d = 2 and 6 (r_max 15, n = 640) it stalls at 0.15 and 0.24.  Against
# n EPS rho_max^2 the same stalls spread over 0.017-0.050.  TOL_FLOOR is 0.24 times a
# margin of 4/3
TOL_FLOOR = 0.32


@dataclass(frozen=True, eq=False)
class GroundState:
    """The fixed point's profile with what only its solve knows.  coeffs (Q's read-only
    spectrum), mass, kinetic (||grad Q||^2) and mass_shooting are worked out from the
    profile the first time each is read."""

    profile: RadialField
    residual: float         # ||Lap Q - Q + Q^(1+4/d)||_2 / ||Q||_2
    iterations: int

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        coeffs = self.grid._forward_values(self.profile.values)
        coeffs.setflags(write=False)
        return coeffs

    @functools.cached_property
    def mass(self) -> float:
        return mass(self.profile)

    @functools.cached_property
    def kinetic(self) -> float:
        return float(_kinetic_sum(self.grid, self.coeffs))

    @functools.cached_property
    def mass_shooting(self) -> float:
        return shooting_mass(self.grid.d)


def _elliptic_residual(grid: RadialGrid, q: np.ndarray, p: float) -> float:
    coeffs = grid._forward_values(q)
    lap = _multiplier_inverse(grid, -grid.rho**2, coeffs)
    res = lap - q + np.abs(q) ** (p - 1) * q
    return math.sqrt(float(_power_sum(grid, res, 2)) / float(_power_sum(grid, q, 2)))


def _fixed_point(grid: RadialGrid, q: np.ndarray, tol: float) -> tuple[np.ndarray, float, int]:
    """The normalized iteration on grid from q: (Q, residual, iterations).

    It stops once a step moves q by less than 0.1 tol relative and the elliptic
    residual is below tol; NumericalFailure after MAX_ITER steps, or at once if the
    nonlinear pairing vanishes or is not finite (the iterate collapsed).
    """
    p = 1.0 + 4.0 / grid.d
    gamma = p / (p - 1.0)
    inv_helmholtz = 1.0 / (1.0 + grid.rho**2)
    residual = math.inf
    for iterations in range(1, MAX_ITER + 1):
        coeffs = grid._forward_values(q)
        num = float(np.sum(grid.wrho * (1.0 + grid.rho**2) * np.abs(coeffs) ** 2))
        den = float(_power_sum(grid, q, p + 1.0))
        if den <= 0 or not np.isfinite(den):
            raise NumericalFailure("iteration collapsed (vanishing nonlinear pairing)")
        s_factor = num / den
        nl = grid._forward_values(q**p)
        q_new = _multiplier_inverse(grid, inv_helmholtz, nl).real
        q_new = np.abs(s_factor**gamma * q_new)
        step = math.sqrt(float(_power_sum(grid, q_new - q, 2)) / float(_power_sum(grid, q, 2)))
        q = q_new
        if step < 0.1 * tol:
            residual = _elliptic_residual(grid, q, p)
            if residual < tol:
                return q, residual, iterations
    raise NumericalFailure(
        f"no convergence after {MAX_ITER} iterations (last residual {residual:.3e})")


def _coarse_nodes(r_max: float) -> int:
    """Nodes of the coarse grid on [0, r_max] whose spectrum reaches COARSE_REACH."""
    return max(16, math.ceil(COARSE_REACH * r_max / math.pi))


def _start(grid: RadialGrid, tol: float) -> np.ndarray:
    """The fine iteration's start: 2 exp(-r^2), or on a grid of more than
    _coarse_nodes(r_max) + COARSE_MARGIN nodes the coarse grid's Q at grid's nodes.

    Both grids have the frequencies j_k / r_max and the synthesis scalars
    (2 / r_max^2) rho^nu, so the coarse coefficients zero-padded to n and
    inverse-transformed on grid evaluate the coarse Fourier-Bessel series
    exactly at grid's nodes.
    """
    n_c = _coarse_nodes(grid.r_max)
    if grid.n <= n_c + COARSE_MARGIN:
        return 2.0 * np.exp(-grid.r**2)
    coarse = RadialGrid(grid.d, grid.r_max, n_c)
    q, _, _ = _fixed_point(coarse, 2.0 * np.exp(-coarse.r**2), tol)
    coeffs = np.zeros(grid.n)
    coeffs[:n_c] = coarse._forward_values(q)
    return np.abs(grid._inverse_values(coeffs))


def solve_ground_state(grid: RadialGrid, tol: float) -> GroundState:
    """Normalized fixed-point iteration for the ground state.

    Each step maps Q -> S^gamma (1 - Lap)^(-1) Q^(1+4/d) with the normalization
    S = <(1-Lap)Q, Q> / <Q^(1+4/d), Q> and gamma = p/(p-1) for nonlinearity
    power p = 1 + 4/d (the standard stabilizing exponent).  A grid of up to
    _coarse_nodes(r_max) + COARSE_MARGIN nodes starts from 2 exp(-r^2); a finer one
    starts from the Q that the same iteration reaches from there on the coarse
    grid, synthesized at its nodes.  The iteration's rate is set by the
    linearization at Q, not by the grid, so the fine grid then needs one or two
    steps instead of about 66 (at d = 4, tol 1e-8); iterations counts the steps
    on grid only.  Positivity is enforced by taking the modulus each step.  The
    fixed point must be an elliptic solution to the requested tolerance
    (NumericalFailure if MAX_ITER steps do not reach one) and resolved; whether
    it is accepted as Q is check_ground_state's verdict, not this function's.
    A tol under the grid's round-off floor TOL_FLOOR * EPS rho_max^3 is refused
    with ValueError before any step.
    """
    floor = TOL_FLOOR * EPS * grid.rho_max**3
    if not tol >= floor:
        raise ValueError(f"tol {tol:g} is below the elliptic residual's round-off floor "
                         f"{floor:.3g} on this grid (n = {grid.n}, rho_max = {grid.rho_max:.4g})")
    q, residual, iterations = _fixed_point(grid, _start(grid, tol), tol)
    gs = GroundState(RadialField(grid, q.astype(np.complex128)), residual, iterations)
    _check_resolved(grid, gs.coeffs, "ground state")
    return gs


def _inverse(a: np.ndarray) -> np.ndarray:
    """a^(-1) by Gauss-Jordan elimination with partial pivoting, on numpy ufuncs only.

    The elimination runs in place on a copy of a: column k, once eliminated,
    holds the inverse's column for the row swapped into place k, and the row
    swaps are undone as column swaps in reverse order at the end.
    np.linalg.inv, np.linalg.solve and matrix products at this size go through
    OpenBLAS, whose last bits change with its thread count; ufuncs (and
    np.einsum) keep shooting_mass, and so every ground-state artifact, the same
    under any BLAS thread count.
    """
    m = np.array(a, dtype=float)
    swaps = []
    for k in range(len(m)):
        pivot = k + int(np.argmax(np.abs(m[k:, k])))
        m[[k, pivot]] = m[[pivot, k]]
        swaps.append(pivot)
        col = m[:, k].copy()
        scale, col[k] = col[k], 0.0
        m[:, k] = 0.0
        m[k, k] = 1.0
        m[k] /= scale
        m -= np.multiply.outer(col, m[k])
    for k in reversed(range(len(m))):
        m[:, [k, swaps[k]]] = m[:, [swaps[k], k]]
    return m


def shooting_mass(d: int) -> float:
    """Independent mass of the ground state from a Chebyshev collocation of its radial ODE.

    In s = r^2 the profile Q(r) = F(s) solves 4 s F'' + 2 d F' - F + F^p = 0,
    p = 1 + 4/d, on [0, s_end], s_end = COLLOCATION_R_END^2, with F(s_end) = 0.
    It is collocated on COLLOCATION_NODES Chebyshev points (Trefethen, Spectral
    Methods in MATLAB, SIAM 2000, ch. 6 and 12); the boundary value removes
    the row and column of s_end, and the row at s = 0 is the regularity
    condition itself.  The normalized iteration of solve_ground_state runs
    from e^(-s), with the collocated (1 - Lap) inverted once, until a step
    moves F by less than 1e-13.  By Kwong's uniqueness theorem the positive
    decaying solution it reaches is Q.  M = |S^(d-1)|/2 int s^(d/2-1) F^2 ds by
    Clenshaw-Curtis quadrature.  No grid, transform, quadrature or truncation
    radius is shared with core.  The certificate and perfbench read it
    under this name and as mass_shooting.  NumericalFailure after
    MAX_ITER steps; GroundStateError if the collocated equation misses by more
    than 1e-8 Q(0).
    """
    n = COLLOCATION_NODES - 1           # even, as the Clenshaw-Curtis weights assume
    s_end = COLLOCATION_R_END**2
    theta = np.pi * np.arange(n + 1) / n
    x = np.cos(theta)
    # Chebyshev differentiation in s: off-diagonal c_i / (c_j (x_i - x_j)), zero row sums
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    diff = np.multiply.outer(c, 1.0 / c) / (np.subtract.outer(x, x) + np.eye(n + 1))
    diff = (diff - np.diag(diff.sum(axis=1))) * (2.0 / s_end)
    second = np.einsum("ij,jk->ik", diff, diff)[1:, 1:]
    s = 0.5 * s_end * (1.0 + x[1:])     # the nodes below s_end, down to s[-1] = 0
    helmholtz = np.eye(n) - 4.0 * s[:, None] * second - 2.0 * d * diff[1:, 1:]
    inverse = _inverse(helmholtz)
    # Clenshaw-Curtis weights times the radial measure s^(d/2-1)
    k = np.arange(1, n // 2)
    inner = (1.0 - (2.0 * np.cos(2.0 * np.outer(theta[1:-1], k)) / (4.0 * k**2 - 1.0)).sum(axis=1)
             - np.cos(n * theta[1:-1]) / (n**2 - 1.0))
    mu = 0.5 * s_end * np.r_[2.0 * inner / n, 1.0 / (n**2 - 1.0)] * s ** (d / 2.0 - 1.0)

    p = 1.0 + 4.0 / d
    gamma = p / (p - 1.0)
    f = np.exp(-s)
    for _ in range(MAX_ITER):
        s_factor = (np.sum(mu * np.einsum("ij,j->i", helmholtz, f) * f)
                    / np.sum(mu * f ** (p + 1.0)))
        f_new = np.abs(s_factor**gamma * np.einsum("ij,j->i", inverse, f**p))
        step = math.sqrt(np.sum(mu * (f_new - f) ** 2) / np.sum(mu * f**2))
        f = f_new
        if step < 1e-13:
            break
    else:
        raise NumericalFailure(f"collocation iteration did not converge in {MAX_ITER} steps")
    miss = np.max(np.abs(np.einsum("ij,j->i", helmholtz, f) - f**p)) / f[-1]
    if not miss < 1e-8:
        raise GroundStateError(f"collocated equation misses by {miss:.3e} Q(0)")
    return float(0.5 * sphere_area(d) * np.sum(mu * f**2))


# ---------------------------------------------------------------------------
# the sharp ratios, Q's certificate and the explicit solutions
# ---------------------------------------------------------------------------

def gn_ratio(grid: RadialGrid, values: np.ndarray, coeffs: np.ndarray,
             mass_q: float) -> np.ndarray:
    """Ratio of ||f||^{2(d+2)/d}_{2(d+2)/d} to its sharp interpolation bound
    (d+2)/d * (M(f)/M(Q))^{2/d} * ||grad f||^2, mass_q = M(Q), along the last axis of
    the samples values and their spectral coefficients coeffs.

    It is <= 1 for every field and equals 1 exactly on the rescaled/rotated ground-state
    family.  ValueError on a zero field, UnresolvedFieldError on an unresolved one.
    """
    d = grid.d
    m = _power_sum(grid, values, 2)
    if np.any(m == 0.0):
        raise ValueError("zero field")
    _check_resolved(grid, coeffs, "interpolation-ratio argument")
    num = _power_sum(grid, values, 2.0 * (d + 2) / d)
    return num / ((d + 2) / d * (m / mass_q) ** (2.0 / d) * _kinetic_sum(grid, coeffs))


def check_ground_state(ground: GroundState) -> dict[str, tuple[bool, float]]:
    """Q's certificate, each check by name as (ok, value), ok a bool against its one bound:
    the fixed point's residual (< 1e-8), |M - mass_shooting| / M (< 1e-4), the Pohozaev
    ratio ||grad Q||^2 / ||Q||_p^p, p = 2 + 4/d (within 1e-4 of d/(d+2)), gn_ratio (within
    1e-3 of 1), E(Q) / ||grad Q||^2 (within 1e-4 of 0), positivity and monotonicity, all
    from ground.coeffs without a transform of their own.  Positivity,
    min Q / max |Q| >= -n EPS, judges the sign of Q only above the round-off floor
    n EPS max |Q|; below it, where Q's tail lies at r_max 45, Q must be within the
    floor of 0.  Monotonicity: no sample
    exceeds the one before it by more than 1e-10 Q(0); its value is the largest rise / Q(0).
    """
    grid, values, coeffs = ground.grid, ground.profile.values, ground.coeffs
    d, q = grid.d, values.real
    shooting = abs(ground.mass_shooting - ground.mass) / ground.mass
    pohozaev = ground.kinetic / float(_power_sum(grid, values, 2.0 + 4.0 / d))
    sharp = float(gn_ratio(grid, values, coeffs, ground.mass))
    energy_ratio = float(_energy_sum(grid, values, coeffs, -1)) / ground.kinetic
    peak = float(np.max(np.abs(q)))
    lowest = float(np.min(q))
    rise, top = float(np.max(np.diff(q))), float(q[0])
    return {"residual": (ground.residual < 1e-8, ground.residual),
            "shooting": (shooting < 1e-4, shooting),
            "pohozaev": (abs(pohozaev - d / (d + 2)) < 1e-4, pohozaev),
            "sharp_ratio": (abs(sharp - 1.0) < 1e-3, sharp),
            "energy": (abs(energy_ratio) < 1e-4, energy_ratio),
            "positivity": (lowest >= -grid.n * EPS * peak, lowest / peak),
            "monotonicity": (rise <= 1e-10 * top, rise / top)}


def require_certified(checks: dict[str, tuple[bool, float]]) -> None:
    """GroundStateError naming the failed checks of check_ground_state."""
    failed = [key for key, (ok, _) in checks.items() if not ok]
    if failed:
        raise GroundStateError(f"certificate checks failed: {failed}")


def make_sw(ground: GroundState, t: float) -> RadialField:
    """The solitary wave e^{it} Q at time t."""
    return RadialField(ground.grid, np.exp(1j * t) * ground.profile.values)


def check_solitary_wave(traj: Trajectory, ground: GroundState,
                        t0: float) -> dict[str, tuple[bool, float]]:
    """A run from e^{i t0} Q: its last snapshot's L^2 error against e^{i(t0 + t)} Q relative
    to ||Q||_2, and its mass drift."""
    target = make_sw(ground, t0 + traj.times[-1])
    err = math.sqrt(float(_power_sum(traj.grid, traj.values[-1] - target.values, 2))
                    / ground.mass)
    return {"solitary_wave": (err < 1e-4, err), "mass": (traj.mass_drift < 1e-8, traj.mass_drift)}


def make_pc(ground: GroundState, t: float) -> RadialField:
    """The pseudo-conformal blowup solution |t|^{-d/2} e^{i(|x|^2-4)/(4t)} Q(x/t)."""
    if t == 0.0:
        raise ValueError("pseudo-conformal profile undefined at t = 0")
    grid = ground.grid
    phase = np.exp(1j * (grid.r**2 - 4.0) / (4.0 * t))
    out = RadialField(grid, rescale(ground.profile, 1.0 / abs(t)).values * phase)
    _check_resolved(grid, grid._forward_values(out.values), f"pseudo-conformal profile at t={t}")
    return out
