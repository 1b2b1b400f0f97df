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
    apply_multiplier,
    gradient_norm_sq,
    mass,
    radial_derivative,
    require_resolved,
    transform_forward,
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
    t: float | None = None


@dataclass(frozen=True)
class DecayFitReport:
    table: BandNormTable
    exponent: float | None      # fitted log-log slope (None when unresolvable)
    residual: float | None      # rms residual of the fit in log2 units
    threshold: float | None     # slope the check is judged against (None: report-only)
    passes: bool
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "table": self.table.to_json_obj(),
            "exponent": self.exponent,
            "residual": self.residual,
            "threshold": self.threshold,
            "passes": self.passes,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def truncated_virial(f: RadialField, R: float) -> float:
    """V_R(f) = Integral phi_{<=R}(x) |x|^2 |f|^2 dx (R = inf drops the cutoff)."""
    cut = phi_le(f.grid.r, R)
    return float(np.sum(f.grid.w * cut * f.grid.r**2 * np.abs(f.values) ** 2))


def virial_acceleration(traj: Trajectory, R: float, t: float) -> float:
    """Second time derivative of s -> V_R(u(s)) at a snapshot time.

    Five-point centered stencil at the snapshot spacing; needs two snapshots
    on each side of t.  For R beyond the localization radius this approaches
    d^2/dt^2 of the full variance, which the free flow pins at
    8 ||grad u||^2 exactly.
    """
    i = traj.index_at(t)
    if i < 2 or i > len(traj.times) - 3:
        raise ValueError("t too close to the trajectory ends for the 5-point stencil")
    ts = np.asarray(traj.times[i - 2:i + 3])
    hs = np.diff(ts)
    if np.max(np.abs(hs - hs[0])) > 1e-9 * hs[0]:
        raise ValueError("snapshot spacing is not uniform around t")
    h = float(hs[0])
    v = [truncated_virial(traj.fields[j], R) for j in range(i - 2, i + 3)]
    return (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# localization radii
# ---------------------------------------------------------------------------

def _tail_radius(dens: np.ndarray, nodes: np.ndarray, eta: float) -> float:
    """Smallest node whose outside sum of dens (strictly beyond it) is <= eta."""
    tail = np.concatenate([np.cumsum(dens[::-1])[::-1][1:], [0.0]])
    return float(nodes[int(np.argmax(tail <= eta))])


def kinetic_localization_radius(f: RadialField, eta: float) -> float:
    """Smallest grid radius R with Integral_{|x|>R} |grad f|^2 dx <= eta."""
    require_resolved(f, "kinetic-localization argument")
    total = gradient_norm_sq(f)
    if not 0.0 < eta < total:
        raise ValueError(f"eta={eta} outside (0, ||grad f||^2={total:g})")
    return _tail_radius(f.grid.w * np.abs(radial_derivative(f).values) ** 2, f.grid.r, eta)


def concentration_radii(f: RadialField, eta: float, t: float | None = None) -> ConcentrationReport:
    """Smallest radii capturing all but eta of the mass in x and in xi."""
    m = mass(f)
    if not 0.0 < eta < m:
        raise ValueError(f"eta={eta} outside (0, mass={m:g})")
    dens_x = f.grid.w * np.abs(f.values) ** 2
    dens_k = f.grid.wrho * np.abs(transform_forward(f).values) ** 2
    return ConcentrationReport(eta=eta, c_x=_tail_radius(dens_x, f.grid.r, eta),
                               c_xi=_tail_radius(dens_k, f.grid.rho, eta), t=t)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

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
    sups = []
    for N in Ns:
        sym = band_symbol(grid, N)
        best = 0.0
        for f in traj.fields:
            g = apply_multiplier(f, sym)
            val = math.sqrt(float(np.sum(grid.w * shell**2 * np.abs(g.values) ** 2)))
            best = max(best, val)
        sups.append(best)
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
    projected = [[apply_multiplier(f, band_symbol(grid, N)) for f in traj.fields] for N in Ns]
    vals = []
    for R in Rs:
        shell = phi_gt(grid.r, R)
        best = 0.0
        for row in projected:
            for gfield in row:
                v = math.sqrt(float(np.sum(grid.w * shell**2 * np.abs(gfield.values) ** 2)))
                best = max(best, v)
        vals.append(best)
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

