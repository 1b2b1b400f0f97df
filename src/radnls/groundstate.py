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

import math
import operator
import sys
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


# DOP853, the explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince, with
# the tableau, error estimate and step-size rule of Hairer's dop853.f (E. Hairer,
# S. P. Norsett, G. Wanner, Solving Ordinary Differential Equations I, 2nd ed.,
# Springer 1993, Sec. II.10): the nodes c_2..c_12, the rows of a_ij, the 8th-order
# weights b, and the weights of the 5th-order (er) and 3rd-order (b - bhh) errors
_DOP_C = (0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
          0.118350341907227396726757197510, 0.281649658092772603273242802490,
          0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
          0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DOP_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
          4.45031289275240888144113950566, 1.89151789931450038304281599044,
          -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
          -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
          4.47106157277725905176885569043e-2)
_DOP_ER = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
           0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
           0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1)
# b minus the 3rd-order weights, nonzero at stages 1, 9 and 12
_DOP_BHH = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
            0.220588235294117647058823529412e-1)


def _dop853(rhs, r: float, y: tuple, r_end: float, stop, rtol: float, atol: float) -> list:
    """Integrate (u, v, w)' = rhs(r, u, v) from r towards r_end > r with DOP853.

    w is a quadrature riding along: its rate depends on (r, u, v) alone, so
    the stages never need its value and only its update and error are formed.
    All arithmetic is on Python floats.  Returns the start and the step ends
    (r, (u, v, w)), up to the first step end where stop(u, v) holds, or up to
    r_end.  The first step comes from dop853.f's HINIT, and the step-size
    rule is its default: safety 0.9, a new step between 1/3 and 6 times the
    old (0.3 and 6 as scipy's `ode` sets them), no PI control.
    GroundStateError after NSTEPS steps (return code -2) or once the step
    falls below the rounding of r (-3), where dop853.f gives up too.
    """
    mul = operator.mul
    f = rhs(r, y[0], y[1])
    ends = [(r, y)]
    h_max = r_end - r
    # HINIT: h ~ 0.01 ||y|| / ||y'||, checked by an Euler step against h^8 |y''| <= 0.01
    scale = [atol + rtol * abs(v) for v in y]
    dnf = sum((fv / sc) ** 2 for fv, sc in zip(f, scale))
    dny = sum((v / sc) ** 2 for v, sc in zip(y, scale))
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else 0.01 * math.sqrt(dny / dnf)
    h = min(h, h_max)
    f1 = rhs(r + h, y[0] + h * f[0], y[1] + h * f[1])
    der2 = math.sqrt(sum(((a - b) / sc) ** 2 for a, b, sc in zip(f1, f, scale))) / h
    der12 = max(abs(der2), math.sqrt(dnf))
    h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** (1.0 / 8.0)
    h = min(100.0 * h, h1, h_max)

    u, v, w = y
    reject, last, steps = False, False, 0
    while True:
        if steps > NSTEPS:
            raise GroundStateError(f"step budget of {NSTEPS} exhausted at r={r!r} "
                                   "(return code -2)")
        if 0.1 * abs(h) <= abs(r) * 2.3e-16:
            raise GroundStateError(f"step size {h!r} too small at r={r!r} (return code -3)")
        if r + 1.01 * h - r_end > 0.0:
            h, last = r_end - r, True
        steps += 1
        ku, kv, kw = [f[0]], [f[1]], [f[2]]      # the stages' rates
        for c, row in zip(_DOP_C, _DOP_A):
            du, dv, dw = rhs(r + c * h, u + h * sum(map(mul, row, ku)),
                             v + h * sum(map(mul, row, kv)))
            ku.append(du)
            kv.append(dv)
            kw.append(dw)
        err, err2 = 0.0, 0.0
        new = []
        for old, k in ((u, ku), (v, kv), (w, kw)):
            b = sum(map(mul, _DOP_B, k))
            new.append(old + h * b)
            sc = atol + rtol * max(abs(old), abs(new[-1]))
            err2 += ((b - _DOP_BHH[0] * k[0] - _DOP_BHH[1] * k[8] - _DOP_BHH[2] * k[11])
                     / sc) ** 2
            err += (sum(map(mul, _DOP_ER, k)) / sc) ** 2
        deno = err + 0.01 * err2
        err = abs(h) * err * math.sqrt(1.0 / (3.0 * (deno if deno > 0.0 else 1.0)))
        fac11 = err ** 0.125
        if err <= 1.0:
            h_new = h / max(1.0 / 6.0, min(1.0 / 0.3, fac11 / 0.9))
            r = r + h
            u, v, w = new
            f = rhs(r, u, v)
            ends.append((r, (u, v, w)))
            if last or stop(u, v):
                return ends
            h_new = min(h_new, h_max)
            if reject:
                h_new = min(h_new, h)
            reject = False
        else:
            h_new = h / min(1.0 / 0.3, fac11 / 0.9)
            reject, last = True, False
        h = h_new


def _brent(fn, lo: float, f_lo: float, hi: float, f_hi: float, xtol: float) -> float:
    """A root of fn in [lo, hi], where f_lo = fn(lo) and f_hi = fn(hi) differ in sign.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, Prentice-Hall 1973, ch. 4) in the form of scipy's brentq:
    inverse quadratic or secant steps, bisection where they would not shrink
    the bracket enough, and a step of at least the tolerance
    (xtol + 4 eps |x|) / 2, at which it stops.
    """
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    x_blk, f_blk, s_pre, s_cur = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + 4.0 * sys.float_info.epsilon * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:      # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:                   # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = fn(x_cur)
    raise GroundStateError("shooting root search did not converge in 100 steps")


def shooting_mass(d: int) -> float:
    """Independent mass of the ground state from a 1D shooting integration.

    Integrates Q'' + (d-1)/r Q' = Q - Q^p outward from a series start with
    DOP853 (_dop853, on Python floats; rtol 1e-11, atol 1e-13).  Overshooting
    Q(0) = a crosses zero, undershooting turns around at a positive minimum;
    each integration stops at the first step end past either, and the exit
    radius r_exit is placed inside that last step by linear interpolation of
    the component that changed sign (Q, resp. Q'), so that it moves
    continuously with a.  Near the ground state a* the deviation grows like
    (a - a*) e^{r} and exits where it meets Q ~ e^{-r}, so Brent's method
    (_brent, xtol 1e-13 lo) finds a* on the near-linear signed exp(-2 r_exit);
    the bracket's upper end doubles until it overshoots.  The mass integral
    rides along as an extra ODE component and is read off at the first step
    end where the converged trajectory has decayed below 1e-6.  That
    threshold sits above the e^{+r} instability floor left by the root
    tolerance (~1e-13 * e^{r}), and the abandoned exponential tail
    contributes O(1e-10) relative mass.  GroundStateError if an integration
    exhausts its NSTEPS steps or its step size.
    """
    p = 1.0 + 4.0 / d
    area = sphere_area(d)
    r0 = 1e-6

    def rhs(r, q, dq):
        return (dq, q - math.copysign(abs(q) ** p, q) - (d - 1) / r * dq,
                area * r ** (d - 1) * q * q)

    def integrate(a, stop):
        """(previous, last) step ends (r, (Q, Q', mass)) of the run from Q(0) = a
        that stops at the first step end where stop(Q, Q') holds, or at r = 40."""
        c = (a - a**p) / (2.0 * d)
        try:
            ends = _dop853(rhs, r0, (a + c * r0**2, 2.0 * c * r0, 0.0), 40.0, stop,
                           rtol=1e-11, atol=1e-13)
        except GroundStateError as exc:
            raise GroundStateError(f"shooting integration from Q(0)={a!r} failed: {exc}") from None
        return ends[-2], ends[-1]

    def exit_signed(a):
        """-exp(-2 r) if the trajectory crosses zero at r (a too big),
        +exp(-2 r) if it turns around at r (a too small); r is interpolated
        inside the step that exits, and is 40 if none does."""
        (r_a, (q_a, dq_a, _)), (r_b, (q_b, dq_b, _)) = integrate(
            a, lambda q, dq: q < 0 or dq > 0)
        if q_b < 0:
            return -math.exp(-2.0 * (r_a + (r_b - r_a) * q_a / (q_a - q_b)))
        if dq_b > 0:
            return math.exp(-2.0 * (r_a + (r_b - r_a) * dq_a / (dq_a - dq_b)))
        return math.exp(-2.0 * r_b)

    lo = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0)) + 1e-9
    hi = 10.0 * lo
    for _ in range(8):
        f_hi = exit_signed(hi)
        if f_hi < 0:
            break
        hi *= 2.0
    f_lo = exit_signed(lo)
    if f_lo <= 0 or f_hi >= 0:
        raise GroundStateError("shooting bracket does not straddle the ground state")
    a_star = _brent(exit_signed, lo, f_lo, hi, f_hi, xtol=1e-13 * lo)

    _, (_, (q, _, m)) = integrate(a_star, lambda q, dq: abs(q) < 1e-6)
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
