"""Dyadic frequency projections, spatial cutoffs, and the classical radial
inequalities: Bernstein and the radial Sobolev embedding through the pointwise
norm of P_N over all fields, the mismatch estimate through its operator norm,
and the fractional chain rule's ratio on one field; plus the incoming/outgoing
wave decomposition.

The cutoff profile phi is fixed once and for all: a C-infinity radial bump
equal to 1 on |x| <= 1 and supported in |x| <= 25/24, built from the standard
exp(-1/t) partition pair on the transition annulus.  The formula is frozen for
reproducibility:

    h(t)   = exp(-1/t) for t > 0, else 0
    phi(x) = h(T) / (h(T) + h(1 - T)),   T = (25/24 - x) / (25/24 - 1)

Band projections multiply the spectral coefficients by symbols built from phi:

    low(N)  : phi(rho / N)
    band(N) : phi(rho / N) - phi(2 rho / N)
    high(N) : 1 - phi(2 rho / N)          (the sum of all bands >= N)

P_N f of the samples f is _multiplier_inverse(grid, band_symbol(grid, N),
grid._forward_values(f)).  Every function here works on sample arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    RadialGrid,
    _derivative_values,
    _multiplier_inverse,
    _power_sum,
    _real_matvec,
    _symbol_span,
    validate_scale,
)

BUMP_SUPPORT = 25.0 / 24.0


def _exp_step(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def phi(x) -> np.ndarray:
    """The frozen smooth bump: 1 on [0, 1], 0 beyond 25/24."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    t = (BUMP_SUPPORT - x) / (BUMP_SUPPORT - 1.0)
    a = _exp_step(np.clip(t, 0.0, 1.0))
    b = _exp_step(np.clip(1.0 - t, 0.0, 1.0))
    with np.errstate(invalid="ignore"):
        out = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, a / (a + b)))
    return out


def phi_le(x, cut: float) -> np.ndarray:
    """phi_{<= cut}(x) = phi(x / cut); cut = inf gives 1 everywhere."""
    if cut == math.inf:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    if not cut > 0:
        raise ValueError("cutoff scale must be positive")
    return phi(np.asarray(x, dtype=np.float64) / cut)


def phi_gt(x, cut: float) -> np.ndarray:
    return 1.0 - phi_le(x, cut)


# ---------------------------------------------------------------------------
# band symbols
# ---------------------------------------------------------------------------

def band_symbol(grid: RadialGrid, N: float) -> np.ndarray:
    return phi_le(grid.rho, N) - phi_le(grid.rho, N / 2.0)


def low_symbol(grid: RadialGrid, N: float) -> np.ndarray:
    return phi_le(grid.rho, N)


def high_symbol(grid: RadialGrid, N: float) -> np.ndarray:
    return 1.0 - phi_le(grid.rho, N / 2.0)


# ---------------------------------------------------------------------------
# inequality estimators
# ---------------------------------------------------------------------------

def pointwise_band_norm(grid: RadialGrid, N: float) -> np.ndarray:
    """At each node r_m, the sup over fields f of |P_N f(r_m)| / ||f||_2.

    P_N f(r_m) = sum_j f_j M[j, m], M[j] being P_N of the unit field at node j,
    so by Cauchy-Schwarz in the quadrature's inner product the sup is
    sqrt(sum_j M[j, m]^2 / w_j), exact on the grid.  The spectrum of the unit
    field at node j is kernel[k, j] fwd_in[j] / rho_nu[k], read off the grid's
    _kernel_rows in the band's span: a product against the identity adds only
    exact zeros to those entries.  Bernstein's constant is its max over N^{d/2},
    the radial Sobolev constant the max of r^{(d-1)/2} times it over N^{1/2}.  At
    d = 4, r_max 15, N = 32 and n = 1280 these read 0.055228 and 0.123430, within
    3.3e-5 and 7.1e-5 of the continuum values.
    """
    validate_scale(grid, N)
    symbol = band_symbol(grid, N)
    span = _symbol_span(symbol)
    spectra = grid._kernel_rows(span) * grid._fwd_in[:, None]
    spectra /= grid._rho_nu[span]
    rows = grid._inverse_values(symbol[span] * spectra, span)
    return np.sqrt(np.sum(rows**2 / grid.w[:, None], axis=0))


def mismatch_norm(grid: RadialGrid, R: float, N: float) -> float:
    """||A|| over all fields, A = phi_{>R} P_{<=N} phi_{<=R/2}, exact on the grid.

    P_{<=N} reads only the K coefficients where phi(rho_k / N) != 0.  In the quadrature
    weights A = B diag(g) C^T, B and C being the grid's _kernel_rows in that span, one
    view for both, with each node's row scaled by a cutoff, sqrt(w)^{+-1} and the
    transforms' own scalars, so ||A|| is the top singular value of the K x K matrix
    R_B diag(g) R_C^T of their thin QR factors.  N R < 4 is vacuous at this resolution.  At d = 4, r_max 15, n = 1280 and R = 8 it reads
    0.14542, 0.08410, 0.02592 and 0.0042866 at N R = 64, 128, 256 and 512 (K = 39 to 318).
    """
    if N * R < 4.0:
        raise ValueError(f"N*R = {N * R:g} < 4: mismatch regime not meaningful")
    validate_scale(grid, N)
    inner, outer = phi_le(grid.r, R / 2.0), phi_gt(grid.r, R)
    symbol = low_symbol(grid, N)
    # K rounded up to whole 16-row panels, past which g is 0, keeps the bits under one and
    # two OpenBLAS threads; K = 318 alone did not
    span = slice(0, -(-np.count_nonzero(symbol) // 16) * 16)
    rows = grid._kernel_rows(span)
    sw = np.sqrt(grid.w)
    r_b = np.linalg.qr((sw * outer / grid._r_nu)[:, None] * rows, mode="r")
    r_c = np.linalg.qr((grid._fwd_in * inner / sw)[:, None] * rows, mode="r")
    g = symbol[span] * grid._inv_in[span] / grid._rho_nu[span]
    return float(np.linalg.svd((r_b * g) @ r_c.T, compute_uv=False)[0])


def fractional_chain_ratio(grid: RadialGrid, u: np.ndarray, s: float) -> float:
    """Fitted constant for the fractional chain rule on F(u) = |u|^{4/d} u, u (n,) samples on grid.

    Returns |||grad|^s F(u)||_{2(d+2)/(d+4)} divided by
    |||grad|^s u||_{2(d+2)/d} * ||u||_{2(d+2)/d}^{4/d}.
    """
    d = grid.d
    if not 0.0 < s < 1.0 + 4.0 / d:
        raise ValueError(f"s={s} outside (0, 1 + 4/d)")
    if _power_sum(grid, u, 2) == 0.0:
        raise ValueError("zero field")
    q_num = 2.0 * (d + 2) / (d + 4)
    q_den = 2.0 * (d + 2) / d
    frac = lambda h: _multiplier_inverse(grid, grid.rho**s, grid._forward_values(h))
    norm = lambda h, q: float(_power_sum(grid, h, q) ** (1.0 / q))
    num = norm(frac(np.abs(u) ** (4.0 / d) * u), q_num)
    den = norm(frac(u), q_den) * norm(u, q_den) ** (4.0 / d)
    return num / den


# ---------------------------------------------------------------------------
# incoming / outgoing decomposition
# ---------------------------------------------------------------------------

def _pv_parts(grid: RadialGrid):
    """Cache the node-pair kernel for the principal-value radius integral.

    For each node r_m the singular integral  PV int_0^L g(s) / (r_m^2 - s^2) ds
    is evaluated by subtracting g(r_m):

        int (g(s) - g(r_m)) / (r_m^2 - s^2) ds        (regular; quadrature)
      + g(r_m) * (1 / 2 r_m) log((L + r_m) / (L - r_m))   (analytic PV of the constant)

    with the diagonal of the regular part assigned its Taylor limit
    -g'(r_m) / (2 r_m).  The quadrature matrix is

        off[m, k] = w_k / (r_m^2 - r_k^2)  (m != k),   off[m, m] = 0,

    with w_k = w1_k / r_k the weights for the plain measure ds; it is built in
    place, so the n x n result is the only large allocation.
    """
    if grid._pv_parts is None:
        r = grid.r
        w_ds = grid.w1 / r
        off = np.subtract.outer(r**2, r**2)
        np.fill_diagonal(off, 1.0)
        np.divide(w_ds, off, out=off)
        np.fill_diagonal(off, 0.0)
        row_sum = off.sum(axis=1)
        diag_coef = -w_ds / (2.0 * r)
        L = grid.r_max
        pv_log = np.log((L + r) / (L - r)) / (2.0 * r)
        for arr in (off, row_sum, diag_coef, pv_log):
            arr.setflags(write=False)
        grid._pv_parts = (off, row_sum, diag_coef, pv_log)
    return grid._pv_parts


def in_out(grid: RadialGrid, f: np.ndarray, sign) -> np.ndarray:
    """Outgoing (+) or incoming (-) component of a radial field, as (n,) samples of f on grid.

    [P^{+-} f](r) = f(r)/2 +- (i/pi) r^{2-d} PV int_0^inf f(s) s^{d-1} / (r^2 - s^2) ds.

    The two kernels are complex conjugates, so P^+ f + P^- f = f identically.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    d = grid.d
    off, row_sum, diag_coef, pv_log = _pv_parts(grid)
    g = f * grid.r ** (d - 1)
    fprime = _derivative_values(grid, grid._forward_values(f))
    gprime = fprime * grid.r ** (d - 1) + (d - 1) * grid.r ** (d - 2) * f
    integral = _real_matvec(off, g) - g * row_sum + diag_coef * gprime + g * pv_log
    sgn = 1.0 if sign == "+" else -1.0
    return 0.5 * f + sgn * (1j / math.pi) * grid.r ** (2 - d) * integral
