"""Proof-side observables: virial dynamics and its identity, kinetic-energy
localization, concentration radii, and power-law decay fits of band norms.

Each quantity has one public function, which works along the last axis of its
arrays, so it takes one field or a (T, n) stack of a trajectory's snapshots.

Decay fits are least squares on log2(scale) vs log2(norm); points under the
1e-12 noise floor are discarded and the fit residual is always reported.  A
table that sits entirely under the floor is reported as "superpolynomial,
exponent unresolvable", which counts as a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import band_symbol, phi_gt, phi_le
from .core import (
    RadialGrid,
    _check_resolved,
    _derivative_values,
    _energy_sum,
    _kinetic_sum,
    _multiplier_inverse,
    validate_scale,
)
from .evolution import Trajectory

NOISE_FLOOR = 1e-12
# virial_residual's bound: correct runs at d = 4 read at most 2.3e-5, 4.4x under it (pc
# blowup, n = 640, snapshots 25 steps of 1e-3 apart), sw 2.3e-6, Gaussians 1e-7; a step whose
# nonlinear half-phases take 0.51 dt reads 1.5e-3 to 2.0e-2, 15x to 200x over it
VIRIAL_TOL = 1e-4
UNRESOLVABLE = "superpolynomial, exponent unresolvable (noise floor)"


@dataclass(frozen=True)
class DecayFitReport:
    """A table of band norms indexed by a scale (dyadic N or radius R) and its log-log fit.

    scale_name labels the scale column: the key of each JSON row and the
    column header of the CLI's CSV.
    """

    quantity: str
    scale_name: str
    scales: tuple
    values: tuple
    annotation: str
    exponent: float | None      # fitted log-log slope (None when unresolvable)
    residual: float | None      # rms residual of the fit in log2 units
    threshold: float | None     # slope the check is judged against (None: report-only)
    passes: bool
    note: str

    def to_json_obj(self) -> dict:
        table = {"quantity": self.quantity, "annotation": self.annotation,
                 "rows": [{self.scale_name: s, "value": v}
                          for s, v in zip(self.scales, self.values)]}
        return {"table": table, "exponent": self.exponent, "residual": self.residual,
                "threshold": self.threshold, "passes": self.passes, "note": self.note}


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def truncated_virial(grid: RadialGrid, values: np.ndarray, R: float) -> np.ndarray:
    """V_R(u) = Integral phi_{<=R}(x) |x|^2 |u|^2 dx along the last axis of values
    (R = inf drops the cutoff)."""
    return np.sum(grid.w * phi_le(grid.r, R) * grid.r**2 * np.abs(values) ** 2, axis=-1)


def virial_acceleration(traj: Trajectory, R: float, t):
    """Second time derivative of s -> V_R(u(s)) at a snapshot time (or an array of them).

    Five-point centered stencil at the snapshot spacing; needs two snapshots
    on each side of t.  For R beyond the localization radius this approaches
    d^2/dt^2 of the full variance, which the flow pins at 16 E(u) (see
    virial_residual).
    """
    i = traj.index_at(t)
    if np.any(i < 2) or np.any(i > len(traj) - 3):
        raise ValueError("t too close to the trajectory ends for the 5-point stencil")
    hs = np.diff(traj.times)[np.add.outer(i, np.arange(-2, 2))]
    if np.any(np.max(np.abs(hs - hs[..., :1]), axis=-1) > 1e-9 * hs[..., 0]):
        raise ValueError("snapshot spacing is not uniform around t")
    h = hs[..., 0]
    v = truncated_virial(traj.grid, traj.values, R)
    return (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / (12.0 * h * h)


def virial_residual(traj: Trajectory, t):
    """|V'' - 16 E(u)| / (8 ||grad u||^2) at a snapshot time (or an array of them), 0 where
    grad u = 0, with V'' the virial_acceleration of the untruncated variance.  The flow
    obeys V'' = 16 E (Glassey 1977); V'' comes from snapshots across time and E from
    each snapshot alone, so they agree only if the integrator solves the equation."""
    i = traj.index_at(t)
    coeffs = traj.coeffs[i]
    gap = np.abs(virial_acceleration(traj, math.inf, t)
                 - 16 * _energy_sum(traj.grid, traj.values[i], coeffs, traj.config.mu))
    eight_k = 8 * _kinetic_sum(traj.grid, coeffs)
    return np.divide(gap, eight_k, out=np.zeros_like(gap), where=eight_k > 0)


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


def kinetic_localization_radius(grid: RadialGrid, coeffs: np.ndarray, eta) -> np.ndarray:
    """Smallest grid radius R with Integral_{|x|>R} |grad u|^2 dx <= eta, along the last
    axis of the spectral coefficients coeffs."""
    _check_resolved(grid, coeffs, "kinetic-localization argument")
    _check_eta(eta, _kinetic_sum(grid, coeffs), "||grad u||^2")
    return _tail_radius(grid.w * np.abs(_derivative_values(grid, coeffs)) ** 2, grid.r, eta)


def concentration_radii(grid: RadialGrid, values: np.ndarray, coeffs: np.ndarray,
                        eta) -> tuple[np.ndarray, np.ndarray]:
    """Smallest radii (c_x, c_xi) capturing all but eta of the mass in x and in xi, along
    the last axis of values and of their spectral coefficients coeffs."""
    dens_x = grid.w * np.abs(values) ** 2
    _check_eta(eta, dens_x.sum(axis=-1), "mass")
    dens_k = grid.wrho * np.abs(coeffs) ** 2
    return _tail_radius(dens_x, grid.r, eta), _tail_radius(dens_k, grid.rho, eta)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def _shell_sup(grid: RadialGrid, coeffs: np.ndarray, symbol: np.ndarray, shells) -> list:
    """sup over the rows of || shell * P u ||_2 for each shell, P the multiplier symbol.

    P u is one product for all rows, and reads only the kernel columns inside
    the symbol's support: 10 to 82 of 640 for a dyadic band at n = 640.
    """
    dens = np.abs(_multiplier_inverse(grid, symbol, coeffs)) ** 2
    return [math.sqrt(float(np.max(np.sum(grid.w * shell**2 * dens, axis=-1))))
            for shell in shells]


def _fit_loglog(scales: np.ndarray, values: np.ndarray) -> tuple[float | None, float | None, int]:
    if not np.all(np.isfinite(values)):
        raise ValueError("table values must be finite")
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
    if len(set(Ns)) < len(Ns):
        raise ValueError(f"scales must be strictly increasing, got Ns={Ns}")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    grid = traj.grid
    for N in Ns:
        validate_scale(grid, N)
    d = grid.d
    shell = phi_gt(grid.r, shell_cut)
    sups = [_shell_sup(grid, traj.coeffs, band_symbol(grid, N), [shell])[0] for N in Ns]
    threshold = -(1.0 + (d - 1.0) / d)
    slope, resid, kept = _fit_loglog(np.asarray(Ns), np.asarray(sups))
    return DecayFitReport(
        "shell_band_sup", "N", tuple(Ns), tuple(sups),
        f"sup_t || phi_>({shell_cut}) P_N u ||_2 over {len(traj)} snapshots",
        slope, resid, threshold, passes=slope is None or (slope - resid) <= threshold,
        note=UNRESOLVABLE if slope is None else f"fit over {kept}/{len(Ns)} scales")


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
    slope, resid, kept = _fit_loglog(np.asarray(Rs), np.asarray(vals))
    delta = None if slope is None else -slope
    return DecayFitReport(
        "shell_radius_sup", "R", tuple(Rs), tuple(vals),
        f"sup over t and N in [{n0},{n1}] of || phi_>R P_N u ||_2", delta, resid, None,
        passes=delta is None or delta > 0,
        note=UNRESOLVABLE if delta is None
        else f"fitted || phi_>R P_N u || ~ R^(-delta), {kept}/{len(Rs)} radii kept")

