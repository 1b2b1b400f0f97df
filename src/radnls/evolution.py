"""Time integration of i u_t + Lap u = mu |u|^(4/d) u with conservation logging.

The stepper is symmetric splitting with an exact nonlinear phase: the flow of
i u_t = mu |u|^(4/d) u preserves |u| pointwise, so the half-steps are exact
pointwise phase rotations and the scheme conserves mass up to transform
round-off.  The linear flow is the exact spectral multiplier exp(-i t rho^2).

mu = 0 runs the free flow (used by the diagnostics oracles); -1 is focusing,
+1 defocusing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    RadialField,
    RadialGrid,
    _kinetic_sum,
    _potential_sum,
    _tail_fraction,
    apply_multiplier,
    make_radial_grid,
    mass,
    require_resolved,
)

TAIL_GUARD_FRACTION = 1e-4
GRADIENT_GUARD_RATIO = 1e3


class ResolutionLossError(RuntimeError):
    """Spectral tail grew past the guard; smaller dt or a larger grid is needed."""


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters; cadence is in steps per stored snapshot."""

    dimension: int = 4
    mu: int = -1
    r_max: float = 15.0
    n: int = 640
    dt: float = 1e-3
    t_final: float = 1.0
    cadence: int = 10

    def __post_init__(self):
        if self.mu not in (-1, 0, 1):
            raise ValueError(f"mu must be -1, 0 or +1, got {self.mu}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_final > 0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be positive")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("t_final must be an integer number of steps")
        if self.cadence < 1 or round(steps) % self.cadence != 0:
            raise ValueError("cadence must divide the step count")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def make_grid(self) -> RadialGrid:
        return make_radial_grid(self.dimension, self.r_max, self.n)


@dataclass(eq=False)
class Trajectory:
    """Snapshots of a run plus its conservation log and guard events.

    Append-only while a run is in flight, then frozen.  times are the snapshot
    times; mass_log has one entry per completed step (plus the initial value),
    energy_log one entry per snapshot.
    """

    config: SimulationConfig
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    mass_log: list = field(default_factory=list)
    energy_log: list = field(default_factory=list)
    guard_event: dict | None = None
    warnings: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def grid(self) -> RadialGrid:
        return self.fields[0].grid

    def index_at(self, t: float) -> int:
        times = np.asarray(self.times)
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a snapshot time")
        return i

    def window(self, t0: float, t1: float) -> tuple[np.ndarray, list]:
        """Snapshot times/fields with t0 <= t <= t1 (inclusive, fuzzy ends)."""
        times = np.asarray(self.times)
        sel = np.where((times >= t0 - 1e-12) & (times <= t1 + 1e-12))[0]
        return times[sel], [self.fields[i] for i in sel]


def free_propagate(f: RadialField, t: float) -> RadialField:
    """Exact free flow: multiply the spectrum by exp(-i t rho^2)."""
    return apply_multiplier(f, np.exp(-1j * t * f.grid.rho**2))


def _snapshot_stats(f: RadialField, mu: int) -> tuple[float, float]:
    """(energy, ||grad f||_2^2) from one forward transform, without the resolvedness gate.

    Used for conservation logging and the gradient guard.  Near a guard trip
    the tail can sit between the strict resolvedness threshold and the guard
    threshold; the log still wants a number there.
    """
    g = f.grid
    grad_sq = _kinetic_sum(g, g._forward_values(f.values))
    energy = 0.5 * grad_sq
    if mu != 0:
        energy += mu * _potential_sum(g, f.values)
    return energy, grad_sq


def nonlinearity(f: RadialField, mu: int) -> RadialField:
    """F(u) = mu |u|^(4/d) u evaluated pointwise."""
    if mu == 0:
        return RadialField(f.grid, np.zeros_like(f.values))
    d = f.grid.d
    return RadialField(f.grid, mu * np.abs(f.values) ** (4.0 / d) * f.values)


def step(u: RadialField, dt: float, mu: int) -> RadialField:
    """One symmetric split step (exact half phases around the exact free flow).

    Raises ResolutionLossError when the spectral tail fraction passes the
    guard; the caller decides whether that aborts the run.
    """
    g = u.grid
    d = g.d
    if mu == 0:
        vals = u.values
    else:
        vals = u.values * np.exp(-1j * mu * 0.5 * dt * np.abs(u.values) ** (4.0 / d))
    coeffs = g._forward_values(vals)
    tail = _tail_fraction(g, coeffs)
    if tail > TAIL_GUARD_FRACTION:
        raise ResolutionLossError(
            f"spectral tail fraction {tail:.3e} exceeds {TAIL_GUARD_FRACTION:g}; "
            "use a smaller dt or a larger grid")
    vals = g._inverse_values(np.exp(-1j * dt * g.rho**2) * coeffs)
    if mu != 0:
        vals = vals * np.exp(-1j * mu * 0.5 * dt * np.abs(vals) ** (4.0 / d))
    return RadialField(g, vals)


def evolve(cfg: SimulationConfig, u0: RadialField) -> Trajectory:
    """Run the split-step integrator, storing snapshots every cadence steps.

    Returns a partial trajectory with guard_event set when the blowup guard
    (gradient norm ratio) trips or a step loses resolution; guard trips are
    reported, never silently clipped.
    """
    if (u0.grid.d, u0.grid.n, u0.grid.r_max) != (cfg.dimension, cfg.n, cfg.r_max):
        raise ValueError("initial condition grid does not match the config grid spec")
    require_resolved(u0, "initial condition")

    traj = Trajectory(config=cfg)
    if cfg.dt * u0.grid.rho_max**2 > math.pi:
        traj.warnings.append(
            f"dt * rho_max^2 = {cfg.dt * u0.grid.rho_max**2:.3g} > pi: the linear phase "
            "wraps within one step (accuracy, not stability, may suffer)")

    energy0, grad_sq0 = _snapshot_stats(u0, cfg.mu)
    grad0 = math.sqrt(grad_sq0)
    u = u0
    t = 0.0
    traj.times.append(t)
    traj.fields.append(u)
    traj.mass_log.append(mass(u))
    traj.energy_log.append(energy0)

    for k in range(1, cfg.n_steps + 1):
        try:
            u = step(u, cfg.dt, cfg.mu)
        except ResolutionLossError as exc:
            traj.guard_event = {"kind": "resolution_loss", "time": t, "detail": str(exc)}
            break
        t = k * cfg.dt
        traj.mass_log.append(mass(u))
        if k % cfg.cadence == 0:
            traj.times.append(t)
            traj.fields.append(u)
            energy, grad_sq = _snapshot_stats(u, cfg.mu)
            traj.energy_log.append(energy)
            if grad0 > 0:
                ratio = math.sqrt(grad_sq) / grad0
                if ratio > GRADIENT_GUARD_RATIO:
                    traj.guard_event = {"kind": "blowup_guard", "time": t,
                                        "gradient_ratio": ratio}
                    break
    return traj


def duhamel_residual(traj: Trajectory, t0: float, t1: float) -> float:
    """L^2 defect of the integral identity between two snapshot times.

    Evaluates || u(t1) - e^{i(t1-t0) Lap} u(t0) + i Int_{t0}^{t1}
    e^{i(t1-s) Lap} F(u(s)) ds || with the integral done by the composite
    trapezoid rule over the stored snapshots in [t0, t1].
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    i0, i1 = traj.index_at(t0), traj.index_at(t1)
    if i1 - i0 < 2:
        raise ValueError("insufficient snapshots between t0 and t1 for the quadrature")
    mu = traj.config.mu
    times = np.asarray(traj.times[i0:i1 + 1])
    fields = traj.fields[i0:i1 + 1]
    target = fields[-1]
    linear = free_propagate(fields[0], t1 - t0)
    grid = target.grid
    integral = np.zeros(grid.n, dtype=np.complex128)
    if mu != 0:
        terms = [free_propagate(nonlinearity(fj, mu), t1 - tj).values
                 for tj, fj in zip(times, fields)]
        integral = np.trapezoid(terms, times, axis=0)
    defect = target.values - linear.values + 1j * integral
    return math.sqrt(float(np.sum(grid.w * np.abs(defect) ** 2)))
