"""Ground-state profile of the focusing elliptic problem and its certification.

The profile Q is the positive radial decaying solution of

    Lap Q - Q + Q^(1+4/d) = 0,

computed by a normalized fixed-point iteration (spectral inverse of (1 - Lap)
applied to the nonlinearity, with the standard stabilizing power) and
cross-checked by an independent shooting integration of the radial ODE.

Certification facts used here all follow from the elliptic equation by
multiplying with Q resp. x . grad Q and integrating:

    ||grad Q||^2 / ||Q||^{2(d+2)/d}_{2(d+2)/d} = d / (d+2)
    M(Q) = (2/d) ||grad Q||^2
    E(Q) = 0 for the focusing energy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    RadialField,
    RadialGrid,
    _power_sum,
    energy,
    gradient_norm_sq,
    lebesgue_norm,
    mass,
    require_resolved,
    rescale,
    sphere_area,
)


# fixed-point iterations before the solve gives up
MAX_ITER = 400
# DOP853 steps one shooting integration may take; d = 2..8 need at most 171
NSTEPS = 10_000


class GroundStateError(RuntimeError):
    """Iteration failed to converge or certification failed."""


@dataclass(frozen=True, eq=False)
class GroundState:
    """Certified ground-state profile with its invariants."""

    profile: RadialField
    dimension: int
    mass: float
    kinetic: float          # ||grad Q||^2
    residual: float         # ||Lap Q - Q + Q^(1+4/d)||_2 / ||Q||_2
    mass_shooting: float
    iterations: int

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid


def _elliptic_residual(grid: RadialGrid, q: np.ndarray, p: float) -> float:
    coeffs = grid._forward_values(q)
    lap = grid._inverse_values(-grid.rho**2 * coeffs)
    res = lap - q + np.abs(q) ** (p - 1) * q
    return math.sqrt(float(np.sum(grid.w * np.abs(res) ** 2))
                     / float(np.sum(grid.w * np.abs(q) ** 2)))


def solve_ground_state(grid: RadialGrid, tol: float) -> GroundState:
    """Normalized fixed-point iteration for the ground state.

    Each step maps Q -> S^gamma (1 - Lap)^(-1) Q^(1+4/d) with the normalization
    S = <(1-Lap)Q, Q> / <Q^(1+4/d), Q> and gamma = p/(p-1) for nonlinearity
    power p = 1 + 4/d (the standard stabilizing exponent), starting from
    2 exp(-r^2).  Positivity is enforced by taking the modulus each step; the
    fixed point is certified positive, decreasing, an elliptic solution to the
    requested tolerance, and in mass agreement with the shooting integration.
    """
    d = grid.d
    p = 1.0 + 4.0 / d
    gamma = p / (p - 1.0)
    q = 2.0 * np.exp(-grid.r**2)

    inv_helmholtz = 1.0 / (1.0 + grid.rho**2)
    residual = math.inf
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        coeffs = grid._forward_values(q)
        num = float(np.sum(grid.wrho * (1.0 + grid.rho**2) * np.abs(coeffs) ** 2))
        den = float(np.sum(grid.w * q ** (p + 1.0)))
        if den <= 0 or not np.isfinite(den):
            raise GroundStateError("iteration collapsed (vanishing nonlinear pairing)")
        s_factor = num / den
        nl = grid._forward_values(q**p)
        q_new = grid._inverse_values(inv_helmholtz * nl).real
        q_new = np.abs(s_factor**gamma * q_new)
        step = math.sqrt(float(np.sum(grid.w * (q_new - q) ** 2))
                         / float(np.sum(grid.w * q**2)))
        q = q_new
        if step < 0.1 * tol:
            residual = _elliptic_residual(grid, q, p)
            if residual < tol:
                break
    else:
        raise GroundStateError(
            f"no convergence after {MAX_ITER} iterations (last residual {residual:.3e})")

    profile = RadialField(grid, q.astype(np.complex128))
    require_resolved(profile, "ground state")
    if np.any(q <= 0):
        raise GroundStateError("converged profile is not strictly positive")
    if np.any(np.diff(q) > 1e-10 * q[0]):
        raise GroundStateError("converged profile is not decreasing")

    m = mass(profile)
    kinetic = gradient_norm_sq(profile)

    e_rel = abs(energy(profile, -1)) / kinetic
    if e_rel > 1e-4:
        raise GroundStateError(f"focusing energy not flat: |E(Q)| = {e_rel:.3e} * ||grad Q||^2")

    m_shoot = shooting_mass(d)
    if abs(m_shoot - m) > 1e-4 * m:
        raise GroundStateError(f"shooting cross-check disagrees: M={m:.8g} vs {m_shoot:.8g}")

    return GroundState(profile=profile, dimension=d, mass=m, kinetic=kinetic,
                       residual=residual, mass_shooting=m_shoot, iterations=iterations)


def shooting_mass(d: int) -> float:
    """Independent mass of the ground state from a 1D shooting integration.

    Integrates Q'' + (d-1)/r Q' = Q - Q^p outward from a series start with the
    Fortran DOP853 behind scipy's `ode`.  Overshooting Q(0) = a crosses zero,
    undershooting turns around at a positive minimum; a solout callback stops
    the integration at the first step end past either, and the exit radius
    r_exit is placed inside that last step by linear interpolation of the
    component that changed sign (Q, resp. Q'), so that it moves continuously
    with a.  Near the ground state a* the deviation grows like (a - a*) e^{r}
    and exits where it meets Q ~ e^{-r}, so Brent's method finds a* on the
    near-linear signed exp(-2 r_exit); the bracket's upper end doubles until
    it overshoots.  The mass integral rides along as an extra ODE component
    and is read off at the first step end where the converged trajectory has
    decayed below 1e-6.  That threshold sits above the e^{+r} instability
    floor left by the root tolerance (~1e-13 * e^{r}), and the abandoned
    exponential tail contributes O(1e-10) relative mass.  GroundStateError if
    an integration fails or exhausts its step budget.
    """
    # imported on first use: only ground-state and selftest shoot, and these
    # two packages are most of what a command would otherwise pay at start-up
    from scipy.integrate import ode
    from scipy.optimize import brentq

    p = 1.0 + 4.0 / d
    area = sphere_area(d)
    r0 = 1e-6

    # Python floats throughout: the Fortran stepper calls this ~20 000 times
    def rhs(r, y):
        q, dq, _ = y.tolist()
        return [dq, q - math.copysign(abs(q) ** p, q) - (d - 1) / r * dq,
                area * r ** (d - 1) * q * q]

    def integrate(a, stop):
        """(previous, last) step ends (r, Q, Q', mass) of the run from Q(0) = a
        that stops at the first step end where stop(Q, Q') holds, or at r = 40."""
        c = (a - a**p) / (2.0 * d)
        ends = []  # solout sees r0 first, then every step end

        def solout(r, y):
            q, dq, m = y.tolist()
            ends.append((r, q, dq, m))
            return -1 if stop(q, dq) else 0

        solver = ode(rhs).set_integrator("dop853", rtol=1e-11, atol=1e-13, nsteps=NSTEPS)
        solver.set_solout(solout)
        solver.set_initial_value([a + c * r0**2, 2.0 * c * r0, 0.0], r0)
        with warnings.catch_warnings():  # a failed run warns; it is raised below
            warnings.simplefilter("ignore", UserWarning)
            solver.integrate(40.0)
        if not solver.successful():
            raise GroundStateError(f"shooting integration from Q(0)={a!r} failed: dop853 "
                                   f"return code {solver.get_return_code()}")
        return ends[-2], ends[-1]

    @functools.cache  # brentq re-evaluates the bracket ends checked below
    def exit_signed(a):
        """-exp(-2 r) if the trajectory crosses zero at r (a too big),
        +exp(-2 r) if it turns around at r (a too small); r is interpolated
        inside the step that exits, and is 40 if none does."""
        (r_a, q_a, dq_a, _), (r_b, q_b, dq_b, _) = integrate(a, lambda q, dq: q < 0 or dq > 0)
        if q_b < 0:
            return -math.exp(-2.0 * (r_a + (r_b - r_a) * q_a / (q_a - q_b)))
        if dq_b > 0:
            return math.exp(-2.0 * (r_a + (r_b - r_a) * dq_a / (dq_a - dq_b)))
        return math.exp(-2.0 * r_b)

    lo = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0)) + 1e-9
    hi = 10.0 * lo
    for _ in range(8):
        if exit_signed(hi) < 0:
            break
        hi *= 2.0
    if exit_signed(lo) <= 0 or exit_signed(hi) >= 0:
        raise GroundStateError("shooting bracket does not straddle the ground state")
    a_star = brentq(exit_signed, lo, hi, xtol=1e-13 * lo)

    _, (_, q, _, m) = integrate(a_star, lambda q, dq: abs(q) < 1e-6)
    if abs(q) >= 1e-6:
        raise GroundStateError("shooting trajectory never decayed below threshold")
    return m


# ---------------------------------------------------------------------------
# sharp interpolation-inequality ratio and the explicit solutions
# ---------------------------------------------------------------------------

def pohozaev_ratio(ground: GroundState) -> float:
    """||grad Q||^2 / ||Q||_p^p with p = 2 + 4/d, which equals d/(d+2) for the ground state."""
    grid = ground.grid
    return ground.kinetic / float(_power_sum(grid, ground.profile.values, 2.0 + 4.0 / grid.d))


def gn_ratio(f: RadialField, ground: GroundState) -> float:
    """Ratio of ||f||^{2(d+2)/d}_{2(d+2)/d} to its sharp interpolation bound.

    The bound is (d+2)/d * (M(f)/M(Q))^{2/d} * ||grad f||^2; the ratio is <= 1
    for every field and equals 1 exactly on the rescaled/rotated ground-state
    family.
    """
    d = f.grid.d
    m = mass(f)
    if m == 0.0:
        raise ValueError("zero field")
    require_resolved(f, "interpolation-ratio argument")
    pexp = 2.0 * (d + 2) / d
    num = lebesgue_norm(f, pexp) ** pexp
    den = (d + 2) / d * (m / ground.mass) ** (2.0 / d) * gradient_norm_sq(f)
    return num / den


def make_sw(ground: GroundState, t: float) -> RadialField:
    """The solitary wave e^{it} Q at time t."""
    return RadialField(ground.grid, np.exp(1j * t) * ground.profile.values)


def make_pc(ground: GroundState, t: float) -> RadialField:
    """The pseudo-conformal blowup solution |t|^{-d/2} e^{i(|x|^2-4)/(4t)} Q(x/t)."""
    if t == 0.0:
        raise ValueError("pseudo-conformal profile undefined at t = 0")
    r = ground.grid.r
    out = rescale(ground.profile, 1.0 / abs(t)) * np.exp(1j * (r**2 - 4.0) / (4.0 * t))
    require_resolved(out, f"pseudo-conformal profile at t={t}")
    return out
