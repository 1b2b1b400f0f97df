"""Proof-side observables: truncated virial dynamics, kinetic-energy
localization, concentration radii, and power-law decay fits of band norms.

Decay fits are least squares on log2(scale) vs log2(norm); points under the
1e-12 noise floor are discarded and the fit residual is always reported.  A
table that sits entirely under the floor is reported as "superpolynomial,
exponent unresolvable", which counts as a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandNormTable, band_symbol, phi_gt, phi_le
from .core import (
    RadialField,
    RadialGrid,
    _check_resolved,
    _derivative_values,
    _kinetic_sum,
    validate_scale,
)
from .evolution import Trajectory

NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class ConcentrationReport:
    """Radii capturing all but eta of the mass in space and in frequency."""

    eta: float
    c_x: float
    c_xi: float


@dataclass(frozen=True)
class DecayFitReport:
    table: BandNormTable
    exponent: float | None      # fitted log-log slope (None when unresolvable)
    residual: float | None      # rms residual of the fit in log2 units
    threshold: float | None     # slope the check is judged against (None: report-only)
    passes: bool
    note: str

    def to_json_obj(self) -> dict:
        return vars(self) | {"table": self.table.to_json_obj()}


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def _virial(grid: RadialGrid, values: np.ndarray, R: float) -> np.ndarray:
    """V_R along the last axis of values."""
    return np.sum(grid.w * phi_le(grid.r, R) * grid.r**2 * np.abs(values) ** 2, axis=-1)


def truncated_virial(f: RadialField, R: float) -> float:
    """V_R(f) = Integral phi_{<=R}(x) |x|^2 |f|^2 dx (R = inf drops the cutoff)."""
    return float(_virial(f.grid, f.values, R))


def virial_acceleration(traj: Trajectory, R: float, t):
    """Second time derivative of s -> V_R(u(s)) at a snapshot time (or an array of them).

    Five-point centered stencil at the snapshot spacing; needs two snapshots
    on each side of t.  For R beyond the localization radius this approaches
    d^2/dt^2 of the full variance, which the free flow pins at
    8 ||grad u||^2 exactly.
    """
    i = traj.index_at(t)
    if np.any(i < 2) or np.any(i > len(traj) - 3):
        raise ValueError("t too close to the trajectory ends for the 5-point stencil")
    hs = np.diff(traj.times)[np.add.outer(i, np.arange(-2, 2))]
    if np.any(np.max(np.abs(hs - hs[..., :1]), axis=-1) > 1e-9 * hs[..., 0]):
        raise ValueError("snapshot spacing is not uniform around t")
    h = hs[..., 0]
    v = _virial(traj.grid, traj.values, R)
    return (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# localization radii
# ---------------------------------------------------------------------------

def _tail_radius(dens: np.ndarray, nodes: np.ndarray, eta) -> np.ndarray:
    """Smallest node whose outside sum of dens (strictly beyond it) is <= eta, per last-axis row."""
    inside = np.cumsum(dens[..., ::-1], axis=-1)[..., -2::-1]
    tail = np.concatenate([inside, np.zeros_like(inside[..., :1])], axis=-1)
    return nodes[np.argmax(tail <= np.asarray(eta)[..., None], axis=-1)]


def _check_eta(eta, total, name: str) -> None:
    if not (np.all(0.0 < eta) and np.all(eta < total)):
        raise ValueError(f"eta={eta} outside (0, {name}={total})")


def _kinetic_radius(grid: RadialGrid, coeffs: np.ndarray, eta) -> np.ndarray:
    """Kinetic localization radius along the last axis of the spectral coefficients."""
    _check_resolved(grid, coeffs, "kinetic-localization argument")
    _check_eta(eta, _kinetic_sum(grid, coeffs), "||grad f||^2")
    return _tail_radius(grid.w * np.abs(_derivative_values(grid, coeffs)) ** 2, grid.r, eta)


def kinetic_localization_radius(f: RadialField, eta: float) -> float:
    """Smallest grid radius R with Integral_{|x|>R} |grad f|^2 dx <= eta."""
    return float(_kinetic_radius(f.grid, f.grid._forward_values(f.values), eta))


def _concentration(grid: RadialGrid, values: np.ndarray, coeffs: np.ndarray,
                   eta) -> tuple[np.ndarray, np.ndarray]:
    """(c_x, c_xi) along the last axis of values and their spectral coefficients."""
    dens_x = grid.w * np.abs(values) ** 2
    _check_eta(eta, dens_x.sum(axis=-1), "mass")
    dens_k = grid.wrho * np.abs(coeffs) ** 2
    return _tail_radius(dens_x, grid.r, eta), _tail_radius(dens_k, grid.rho, eta)


def concentration_radii(f: RadialField, eta: float) -> ConcentrationReport:
    """Smallest radii capturing all but eta of the mass in x and in xi."""
    c_x, c_xi = _concentration(f.grid, f.values, f.grid._forward_values(f.values), eta)
    return ConcentrationReport(eta=eta, c_x=float(c_x), c_xi=float(c_xi))


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def _shell_sup(grid: RadialGrid, coeffs: np.ndarray, symbol: np.ndarray, shells) -> list:
    """sup over the rows of || shell * P u ||_2 for each shell, P the multiplier symbol."""
    dens = np.abs(grid._inverse_values(symbol * coeffs)) ** 2
    return [math.sqrt(float(np.max(np.sum(grid.w * shell**2 * dens, axis=-1))))
            for shell in shells]


def _fit_loglog(scales: np.ndarray, values: np.ndarray) -> tuple[float | None, float | None, int]:
    keep = values > NOISE_FLOOR
    if keep.sum() < 2:
        return None, None, int(keep.sum())
    x = np.log2(scales[keep])
    y = np.log2(values[keep])
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    return float(coef[1]), float(np.sqrt(np.mean(resid**2))), int(keep.sum())


def frequency_decay_fit(traj: Trajectory, shell_cut: float, Ns) -> DecayFitReport:
    """Fit the dyadic decay of sup_t || phi_{>shell_cut} P_N u(t) ||_2.

    Passes when the fitted slope (minus its rms residual) does not exceed
    -(1 + (d-1)/d), or when every band norm sits under the noise floor.
    """
    Ns = sorted(float(N) for N in Ns)
    if len(Ns) < 4:
        raise ValueError("need at least 4 dyadic scales")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    grid = traj.grid
    for N in Ns:
        validate_scale(grid, N)
    d = grid.d
    shell = phi_gt(grid.r, shell_cut)
    sups = [_shell_sup(grid, traj.coeffs, band_symbol(grid, N), [shell])[0] for N in Ns]
    table = BandNormTable("shell_band_sup", tuple(Ns), tuple(sups),
                          annotation=f"sup_t || phi_>({shell_cut}) P_N u ||_2 over {len(traj)} snapshots")
    threshold = -(1.0 + (d - 1.0) / d)
    slope, resid, kept = _fit_loglog(np.asarray(Ns), np.asarray(sups))
    if slope is None:
        return DecayFitReport(table, None, None, threshold, True,
                              note="superpolynomial, exponent unresolvable (noise floor)")
    passes = (slope - resid) <= threshold
    note = f"fit over {kept}/{len(Ns)} scales"
    return DecayFitReport(table, slope, resid, threshold, passes, note)


def spatial_decay_scan(traj: Trajectory, n_range: tuple, Rs) -> DecayFitReport:
    """Fit the power decay in R of sup over t and N in n_range of ||phi_{>R} P_N u||_2."""
    Rs = [float(R) for R in Rs]
    if not Rs:
        raise ValueError("empty radius list")
    if any(b <= a for a, b in zip(Rs, Rs[1:])):
        raise ValueError("radii must be increasing")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    grid = traj.grid
    n0, n1 = float(n_range[0]), float(n_range[1])
    Ns = [2.0**k for k in range(-20, 40) if n0 <= 2.0**k <= n1]
    for N in Ns:
        validate_scale(grid, N)
    if not Ns:
        raise ValueError("no dyadic scales inside n_range")
    shells = [phi_gt(grid.r, R) for R in Rs]
    vals = np.max([_shell_sup(grid, traj.coeffs, band_symbol(grid, N), shells) for N in Ns],
                  axis=0).tolist()
    table = BandNormTable("shell_radius_sup", tuple(Rs), tuple(vals),
                          annotation=f"sup over t and N in [{n0},{n1}] of || phi_>R P_N u ||_2",
                          scale_name="R")
    slope, resid, kept = _fit_loglog(np.asarray(Rs), np.asarray(vals))
    if slope is None:
        return DecayFitReport(table, None, None, None, True,
                              note="superpolynomial, exponent unresolvable (noise floor)")
    delta = -slope
    return DecayFitReport(table, delta, resid, None, passes=delta > 0,
                          note=f"fitted || phi_>R P_N u || ~ R^(-delta), {kept}/{len(Rs)} radii kept")

