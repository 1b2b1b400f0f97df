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
from dataclasses import InitVar, dataclass

import numpy as np

from .core import (
    RadialGrid,
    _check_resolved,
    _frozen_values,
    _energy_sum,
    _multiplier_inverse,
    _power_sum,
    _tail_fraction,
    make_radial_grid,
)
from .errors import ResolutionLossError

TAIL_GUARD_FRACTION = 1e-4


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters; dimension, n and cadence are ints, cadence in steps per snapshot."""

    dimension: int
    mu: int
    r_max: float
    n: int
    dt: float
    t_final: float
    cadence: int

    def __post_init__(self):
        for name in ("dimension", "n", "cadence"):  # a JSON manifest may hold 1.0 or true
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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

    values is a read-only (T, n) complex array, 1 <= T <= n_steps // cadence + 1,
    whose row k is the snapshot after k * cadence steps, at times[k], which
    follows from the config and T.  coeffs is the read-only (T, n) stack of their
    spectral coefficients.  A load passes the stack it read and checked as
    stored_coeffs; any other construction, dataclasses.replace included,
    computes it from values by one stacked transform.  mass_log has one entry
    per completed step (plus the initial value), energy_log one entry per snapshot.
    """

    config: SimulationConfig
    grid: RadialGrid
    values: np.ndarray
    mass_log: list
    energy_log: list
    guard_event: dict | None
    warnings: tuple
    stored_coeffs: InitVar[np.ndarray | None] = None

    def __post_init__(self, stored_coeffs):
        cfg, rows = self.config, len(self.values)
        if not 1 <= rows <= cfg.n_steps // cfg.cadence + 1:
            raise ValueError(f"a trajectory holds 1 to {cfg.n_steps // cfg.cadence + 1} "
                             f"snapshots, got {rows}")
        self.times = np.arange(0, rows * cfg.cadence, cfg.cadence) * cfg.dt
        self.values = _frozen_values(self.grid, self.values, "snapshot", (rows,))
        if stored_coeffs is None:
            self.coeffs = self.grid._forward_values(self.values)
            self.coeffs.setflags(write=False)
        else:
            self.coeffs = _frozen_values(self.grid, stored_coeffs, "coefficient", (rows,))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mass_drift(self) -> float:
        """Largest relative departure of the mass log from its first entry; 0 at zero mass."""
        m0 = self.mass_log[0]
        return max(abs(m - m0) for m in self.mass_log) / m0 if m0 else 0.0


def _nonlinearity(grid: RadialGrid, values: np.ndarray, mu: int) -> np.ndarray:
    """F(u) = mu |u|^(4/d) u evaluated pointwise."""
    if mu == 0:
        return np.zeros_like(values)
    return mu * np.abs(values) ** (4.0 / grid.d) * values


def step(grid: RadialGrid, values: np.ndarray, dt: float, mu: int) -> np.ndarray:
    """One symmetric split step of the (n,) complex samples values on grid (exact half
    phases around the exact free flow); returns the new samples.

    The free phase exp(-i dt rho^2) is built once per grid and dt.  It is
    nowhere zero, so its product is the grid's full inverse, with no span search.
    Raises ResolutionLossError when the spectral tail fraction passes the
    guard or is not finite; the caller decides whether that aborts the run.
    """
    if mu != 0:
        values = values * np.exp(-1j * mu * 0.5 * dt * np.abs(values) ** (4.0 / grid.d))
    coeffs = grid._forward_values(values)
    tail = _tail_fraction(grid, coeffs)
    if not tail <= TAIL_GUARD_FRACTION:
        raise ResolutionLossError(
            f"spectral tail fraction {tail:.3e} exceeds {TAIL_GUARD_FRACTION:g}; "
            "use a smaller dt or a larger grid")
    # free * coeffs, in this order: coeffs * free rounds differently
    values = grid._inverse_values(grid._free_phase(dt) * coeffs)
    if mu != 0:
        values = values * np.exp(-1j * mu * 0.5 * dt * np.abs(values) ** (4.0 / grid.d))
    return values


def evolve(cfg: SimulationConfig, grid: RadialGrid, u0: np.ndarray) -> Trajectory:
    """Run the split-step integrator on grid from the (n,) samples u0, storing snapshots
    every cadence steps.  grid must be the config's; u0 is copied, and must be finite.

    Each step is one call of the module's step.  When a step loses resolution
    the run ends there, and the partial trajectory comes back with guard_event
    set: a guard trip is reported, never silently clipped.  The loop carries the
    samples as an array; after it, the energy log past the initial entry reads the
    Trajectory's coefficient stack, the one save_trajectory stores beside the
    samples and diagnose reads back.
    """
    if grid.key != (cfg.dimension, cfg.n, cfg.r_max):
        raise ValueError("initial condition grid does not match the config grid spec")
    values = _frozen_values(grid, u0, "sample")
    coeffs0 = grid._forward_values(values)
    # a field whose sums overflow is refused here, as an error and not a numpy warning
    with np.errstate(over="ignore"):
        _check_resolved(grid, coeffs0, "initial condition")
        # the energy log skips the resolvedness gate: near a guard trip the tail can sit
        # between the strict threshold and the guard's, and the log still wants a number
        energy0 = float(_energy_sum(grid, values, coeffs0, cfg.mu))
    if not math.isfinite(energy0):
        raise ValueError(f"initial condition energy is not finite ({energy0})")

    warnings = []
    if cfg.dt * grid.rho_max**2 > math.pi:
        warnings.append(
            f"dt * rho_max^2 = {cfg.dt * grid.rho_max**2:.3g} > pi: the linear phase "
            "wraps within one step (accuracy, not stability, may suffer)")

    t = 0.0
    rows, mass_log = [values], [float(_power_sum(grid, values, 2))]
    guard_event = None
    for k in range(1, cfg.n_steps + 1):
        try:
            values = step(grid, values, cfg.dt, cfg.mu)
        except ResolutionLossError as exc:
            guard_event = {"kind": "resolution_loss", "time": t, "detail": str(exc)}
            break
        t = k * cfg.dt
        mass_log.append(float(_power_sum(grid, values, 2)))
        if k % cfg.cadence == 0:
            rows.append(values)
    traj = Trajectory(cfg, grid, rows, mass_log, [energy0], guard_event, tuple(warnings))
    energies = _energy_sum(grid, traj.values[1:], traj.coeffs[1:], cfg.mu)
    traj.energy_log.extend(map(float, energies))
    return traj


def duhamel_residual(traj: Trajectory, i0: int, i1: int) -> float:
    """L^2 defect of the integral identity between snapshots i0 and i1, at t0 and t1.

    Evaluates || u(t1) - e^{i(t1-t0) Lap} u(t0) + i Int_{t0}^{t1}
    e^{i(t1-s) Lap} F(u(s)) ds || with the integral done by the composite
    trapezoid rule over the snapshots i0 .. i1.
    """
    if not 0 <= i0 <= i1 - 2 < len(traj) - 2:
        raise ValueError(f"need snapshots 0 <= i0 <= i1 - 2 < {len(traj) - 2}, got {i0}, {i1}")
    mu = traj.config.mu
    grid = traj.grid
    times = traj.times[i0:i1 + 1]
    t0, t1 = times[0], times[-1]
    linear = _multiplier_inverse(grid, np.exp(-1j * (t1 - t0) * grid.rho**2), traj.coeffs[i0])
    integral = np.zeros(grid.n, dtype=np.complex128)
    if mu != 0:
        propagator = np.exp(-1j * (t1 - times)[:, None] * grid.rho**2)
        terms = grid._inverse_values(
            propagator * grid._forward_values(_nonlinearity(grid, traj.values[i0:i1 + 1], mu)))
        integral = np.trapezoid(terms, times, axis=0)
    defect = traj.values[i1] - linear + 1j * integral
    return math.sqrt(float(_power_sum(grid, defect, 2)))
