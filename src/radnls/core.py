"""Radial collocation grids, the d-dimensional radial Fourier transform, and single-field norms.

A radial function f(|x|) on R^d has the unitary Fourier transform

    fhat(rho) = rho^(-nu) * Integral_0^inf f(r) J_nu(rho r) r^(nu+1) dr,   nu = d/2 - 1,

i.e. the order-nu Hankel transform of g(r) = f(r) r^nu.  The grid discretizes
this on the positive zeros j_1 < ... < j_n of J_nu scaled into [0, r_max],
which makes the transform matrix symmetric and quasi-unitary and supplies a
companion quadrature rule for integrals against r^(d-1) dr.

Each grid stores one real n x n kernel J_nu(j_m j_k / S), exactly symmetric
(8 n^2 bytes, 13 MB at n = 1280), shared by the forward and inverse
transforms, whose scalars, J_{nu+1}(j_k)^-2 among them, are applied to the
n-vector instead.  A grid builds its nodes, weights and scalars, and checks
its quadrature rule, when it is constructed; the kernel is built, and its
round trip certified, at the first product that reads it, so a grid that only
sums over the nodes, such as the one a stored trajectory is loaded on, never
builds it.  make_radial_grid builds both at once.  The kernel is built from
its symmetry, a block of rows at a time,
and applied a block of rows at a time too: each block is read once and used
while it sits in cache, where one GEMM of the whole kernel against a single
field streams all 13 MB far below memory speed.  Every kernel is zero-padded
to a multiple of the block in both dimensions (no padding at n = 384, 640 or
1280), so each GEMM has the same shape at every n and its bits do not depend
on the BLAS thread count.  A multiplied spectrum symbol * uhat is inverted
from the kernel columns inside the symbol's support only: a dyadic band at
n = 640 reads 10 to 82 of the 640 columns.  Its Bessel values, and the zeros
j_k, come from one numpy evaluator of J_nu(x) in this module: the Hankel
asymptotic expansion (DLMF 10.17.3) for x >= 25, Miller's normalised backward
recurrence below that, and the power series below x = 2.  Every order is
evaluated directly, to within 5e-16 absolute of mpmath at orders 0-5.
Complex fields go through the real kernel as rows of real and imaginary parts
rather than a complex copy of it.
Transforms and private sums work along the last axis, so a (T, n) stack of
snapshots takes the same code as one field, with one product for all T; not
always the same bits, though: the BLAS picks its kernels by the stack's size,
and at n = 640 stacks of up to 4 complex fields rounded otherwise than stacks
of 5 or more, by up to 1e-15 relative.

Conventions kept throughout the package:
  * unitary transform, so Plancherel holds without constants;
  * angular radial frequency rho, so the free propagator multiplier is
    exp(-i t rho^2);
  * quadrature weights include the sphere-surface factor, so sums over nodes
    approximate integrals over R^d directly.

Only even dimensions are supported (integer Hankel order); d = 4 is the
primary target.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionError, NumericalFailure, UnresolvedFieldError

RESOLVED_TAIL_FRACTION = 1e-6
ROUNDTRIP_TOL = 1e-9
QUADRATURE_TOL = 1e-8


# rows per block, of Bessel values when a kernel is built and of the kernel in a
# product; a 128-row block of the n = 1280 kernel is 1.3 MB, which fits in a
# 2 MB L2 cache
_KERNEL_BLOCK = 128
# Newton steps after McMahon's estimate of the grid's Bessel zeros
_NEWTON_STEPS = 5


def _whole_blocks(count: int) -> int:
    """count rounded up to a multiple of _KERNEL_BLOCK."""
    return -(-count // _KERNEL_BLOCK) * _KERNEL_BLOCK


def _real_matvec(mat: np.ndarray, vec: np.ndarray,
                 scale: np.ndarray | None = None) -> np.ndarray:
    """mat applied along the last axis of scale * vec, one field (n,) or a stack (T, n).

    The product has one entry per row of mat.  mat may be zero-padded: the n
    entries of each field fill the first n of its columns and the rest read 0.
    mat stays real: a complex vec is split into a row of real and a row of
    imaginary parts per field, written once with the scale (n,) applied, and
    the two result rows are joined back into complex values at the end.  Fewer
    than _KERNEL_BLOCK real rows run _KERNEL_BLOCK rows of mat at a time into
    one preallocated output, so each block is applied to every field while it
    sits in cache.  One GEMM of the whole kernel against a single field instead
    streams the kernel through memory far below memory speed, and takes twice
    as long at n = 1280.  A stack of _KERNEL_BLOCK real rows or more keeps the
    kernel busy, and runs as one GEMM against all of mat, with the same bits as
    the blocks: a (251, 640) complex stack transforms in about 9.6 ms against
    12.5 ms in blocks, at one BLAS thread.  With the fields as the rows of each
    GEMM, and a kernel padded to whole blocks, the result is also the same bit
    for bit with one or two BLAS threads, which a stack of 251 fields against
    the kernel's rows was not, nor a partial last block or an inner dimension
    such as 600.
    """
    rows = vec.reshape(-1, vec.shape[-1])
    n, width = rows.shape[1], mat.shape[1]
    split = np.iscomplexobj(rows)
    if split or scale is not None or n < width:
        parts = np.empty((len(rows), 1 + split, width))
        parts[..., n:] = 0.0
        s = 1.0 if scale is None else scale
        np.multiply(rows.real, s, out=parts[:, 0, :n])
        if split:
            np.multiply(rows.imag, s, out=parts[:, 1, :n])
        rows = parts.reshape(-1, width)
        del parts   # freed with rows before the complex result is allocated
    out = np.empty((len(rows), len(mat)))
    if len(rows) >= _KERNEL_BLOCK:
        np.matmul(rows, mat.T, out=out)
    else:
        for i0 in range(0, len(mat), _KERNEL_BLOCK):
            np.matmul(rows, mat[i0:i0 + _KERNEL_BLOCK].T, out=out[:, i0:i0 + _KERNEL_BLOCK])
    if split:
        del rows
        pairs = out.reshape(-1, 2, len(mat))
        out = np.empty((len(pairs), len(mat)), dtype=np.complex128)
        out.real, out.imag = pairs[:, 0], pairs[:, 1]
    return out.reshape(*vec.shape[:-1], len(mat))


# J_order(x) takes the Hankel expansion from x = _HANKEL_FROM, Miller's recurrence
# from _SERIES_BELOW up to there, and the power series below it
_HANKEL_FROM = 25.0
_HANKEL_TERMS = 8           # terms in each of P and Q up to order 6, 2 order - 4 above
_MILLER_START = 60
_SERIES_BELOW = 2.0
_SERIES_TERMS = 14
# elements per pass: 16384 doubles are 128 kB per temporary
_BESSEL_CHUNK = 16384
# pi/4 = _PIO4_HI + _PIO4_LO to about 86 bits; _PIO4_HI has 33, so M * _PIO4_HI is
# exact for every odd M < 2^20, that is x < 8e5.  sin(math.pi) is pi - math.pi
_PIO4_HI = math.ldexp(math.floor(math.ldexp(math.pi / 4.0, 33)), -33)
_PIO4_LO = (math.pi / 4.0 - _PIO4_HI) + math.sin(math.pi) / 4.0
# Taylor coefficients of sin r / r and cos r in r^2, enough for |r| <= pi/2
_SIN_TAYLOR = [(-1) ** k / math.factorial(2 * k + 1) for k in range(11)]
_COS_TAYLOR = [(-1) ** k / math.factorial(2 * k) for k in range(12)]


def _horner(coeffs: list, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k, elementwise."""
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _bessel_j(order: int, x: np.ndarray) -> np.ndarray:
    """J_order(x) elementwise, for an integer order >= 0 and x >= 0.

    Each value depends on its own x only, through a fixed sequence of
    arithmetic, so any block of an array gets the same bits as the whole.
    Against mpmath at orders 0-5 it is within 5e-16 absolute on [1e-8, 8000],
    and within 5e-16 relative where x < 2, and so were orders 6-15 where tried.
    The values are computed _BESSEL_CHUNK at a time, so that the dozens of
    elementwise passes of the Hankel expansion run in cache: twice as fast as
    whole 128-row kernel blocks at n = 1280.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BESSEL_CHUNK):
        part, dest = flat[i:i + _BESSEL_CHUNK], out[i:i + _BESSEL_CHUNK]
        far = part >= _HANKEL_FROM
        if far.all():
            dest[:] = _bessel_hankel(order, part)
            continue
        small = part < _SERIES_BELOW
        for sel, branch in ((far, _bessel_hankel), (small, _bessel_series),
                            (~(far | small), _bessel_miller)):
            dest[sel] = branch(order, part[sel])
    return out.reshape(x.shape)


def _bessel_hankel(order: int, x: np.ndarray) -> np.ndarray:
    """The Hankel expansion J = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (2 order + 1) pi/4.

    P = sum_k (-1)^k a_2k / x^2k and Q = sum_k (-1)^k a_{2k+1} / x^{2k+1}, with
    a_k = (4 order^2 - 1^2)(4 order^2 - 3^2) ... (4 order^2 - (2k-1)^2) / (k! 8^k)
    (DLMF 10.17.1).  w = r + k pi with |r| <= pi/2, r = x - (4k + 2 order + 1) pi/4
    reduced in two parts of pi/4, so cos w = (-1)^k cos r and sin w = (-1)^k sin r.
    """
    terms = max(_HANKEL_TERMS, 2 * order - 4)
    mu = 4.0 * order * order
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    z = 1.0 / x
    z2 = z * z
    p = _horner([(-1) ** k * a[2 * k] for k in range(terms)], z2)
    q = _horner([(-1) ** k * a[2 * k + 1] for k in range(terms)], z2)
    q *= z

    turns = np.floor(x * (1.0 / math.pi) + (0.25 - 0.5 * order))    # k
    m = 4.0 * turns + (2 * order + 1)
    r = x - m * _PIO4_HI
    r -= m * _PIO4_LO
    r2 = r * r
    sin_r = _horner(_SIN_TAYLOR, r2)
    sin_r *= r
    p *= _horner(_COS_TAYLOR, r2)
    p -= q * sin_r
    # (-1)^k / sqrt(pi x / 2)
    turns *= 0.5
    sign = turns - np.floor(turns)
    sign *= -4.0
    sign += 1.0
    p *= sign
    p /= np.sqrt((0.5 * math.pi) * x)
    return p


def _bessel_series(order: int, x: np.ndarray) -> np.ndarray:
    """J_order(x) = (x/2)^order sum_m (-x^2/4)^m / (m! (m + order)!), for x < 2."""
    coeffs = [1.0 / math.factorial(order)]
    for m in range(1, _SERIES_TERMS):
        coeffs.append(-coeffs[-1] / (m * (m + order)))
    return _horner(coeffs, 0.25 * x * x) * (0.5 * x) ** order


def _bessel_miller(order: int, x: np.ndarray) -> np.ndarray:
    """J_order(x) for 2 <= x < 25 and order < 60 from Miller's backward recurrence.

    b_{k-1} = (2k/x) b_k - b_{k+1} runs down from b_60 = 1e-300, b_61 = 0 and is
    normalised by J_0 + 2 (J_2 + J_4 + ...) = 1.  The iterates grow by about
    1/J_60(x) ~ (2/x)^60 60!, at most 8e81 at x = 2; below x = 3e-9 they
    would overflow, which is one reason the series takes over below x = 2.
    """
    two_over_x = 2.0 / x
    b_next = np.zeros_like(x)
    b = np.full_like(x, 1e-300)
    even_sum = np.zeros_like(x)
    want = b
    for k in range(_MILLER_START, 0, -1):
        b_next, b = b, k * two_over_x * b - b_next      # b is now order k - 1
        if k - 1 == order:
            want = b
        if k % 2 == 1 and k > 1:
            even_sum += b
    return want / (b + 2.0 * even_sum)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


class RadialGrid:
    """Bessel-zero collocation grid with its radial Fourier transform.

    Immutable after construction, apart from the kernels and phases it builds
    at their first use; every array is frozen.  A grid is identified by its key
    (d, n, r_max): every same-grid check compares keys, never grids.
    """

    def __init__(self, d: int, r_max: float, n: int):
        if not isinstance(d, (int, np.integer)) or d < 2:
            raise ValueError(f"dimension out of range: d={d} (need integer d >= 2)")
        if d % 2 != 0:
            raise ValueError(f"odd dimension d={d} unsupported (integer Hankel orders only)")
        if not (isinstance(n, (int, np.integer)) and n >= 16):
            raise ValueError(f"node count n={n} too small (need n >= 16)")
        if not (np.isfinite(r_max) and r_max > 0):
            raise ValueError(f"r_max must be finite and positive, got {r_max}")

        self.d = int(d)
        self.n = int(n)
        self.r_max = float(r_max)
        self.nu = d // 2 - 1

        # McMahon's expansion (DLMF 10.21.19) to three terms, then Newton steps
        # with J_nu' = (nu/x) J_nu - J_{nu+1}
        beta = (np.arange(1, self.n + 2) + 0.5 * self.nu - 0.25) * math.pi
        mu = 4.0 * self.nu**2
        zeros = (beta - (mu - 1.0) / (8.0 * beta)
                 - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))
        for _ in range(_NEWTON_STEPS):
            value = _bessel_j(self.nu, zeros)
            step = value / (self.nu / zeros * value - _bessel_j(self.nu + 1, zeros))
            zeros = zeros - step
        if not np.max(np.abs(step) / zeros) < 1e-13:
            raise NumericalFailure(f"Bessel zeros of order {self.nu} did not converge")
        j = zeros[: self.n]
        s_edge = zeros[self.n]
        self._bessel_zeros = j
        self._s_edge = float(s_edge)

        self.r = j * (self.r_max / s_edge)
        self.rho = j / self.r_max
        self.rho_max = s_edge / self.r_max
        self._high_rho = self.rho > 0.5 * self.rho_max

        jnext = _bessel_j(self.nu + 1, j)
        # 1D weights: Integral_0^R h(r) r dr ~= sum w1_k h(r_k), same on the rho side
        self.w1 = 2.0 * self.r_max**2 / (s_edge**2 * jnext**2)
        self.wrho1 = 2.0 / (self.r_max**2 * jnext**2)
        self._r_nu = self.r**self.nu
        self._rho_nu = self.rho**self.nu
        # the forward and inverse transforms differ only by scalars, the 1D weights with
        # their J_{nu+1}(j_k)^-2 among them, folded into the input vectors; the one kernel
        # they share is built at the first read of _kernel
        self._fwd_in = self.w1 * self._r_nu
        self._inv_in = self.wrho1 * self._rho_nu
        self._kernel_store = None
        self._deriv_kernel = None
        self._pv_parts = None
        self._free_phases = {}

        area = sphere_area(self.d)
        # full-measure weights: Integral_{R^d} h dx ~= sum w_k h(r_k)
        self.w = area * self.r ** (self.d - 2) * self.w1
        self.wrho = area * self.rho ** (self.d - 2) * self.wrho1

        for arr in (self.r, self.rho, self._high_rho, self.w1, self.wrho1, self.w, self.wrho,
                    self._fwd_in, self._inv_in, self._r_nu, self._rho_nu):
            arr.setflags(write=False)

        sigma, _, quad = self._certification_gaussian()
        exact = (math.pi / 2.0) ** (self.d / 2.0) * sigma**self.d
        self._quadrature_error = abs(quad - exact) / exact
        if self._quadrature_error > QUADRATURE_TOL:
            raise GridResolutionError(
                f"quadrature error {self._quadrature_error:.3e} on a Gaussian exceeds "
                f"{QUADRATURE_TOL:g}")

    @property
    def key(self) -> tuple:
        return (self.d, self.n, self.r_max)

    def __repr__(self) -> str:
        return f"RadialGrid(d={self.d}, r_max={self.r_max}, n={self.n})"

    def hash_hex(self) -> str:
        h = hashlib.sha256()
        h.update(np.array(self.key, dtype=np.float64).tobytes())
        h.update(self.r.tobytes())
        return h.hexdigest()

    @property
    def roundtrip_error(self) -> float:
        """Relative L^2 error of the certification Gaussian after forward and inverse;
        builds the kernel if no product has yet (GridResolutionError if it fails)."""
        self._certified_kernel()
        return self._roundtrip_error

    @property
    def quadrature_error(self) -> float:
        """Relative error of the quadrature rule on the certification Gaussian's mass."""
        return self._quadrature_error

    def _certification_gaussian(self) -> tuple[float, np.ndarray, float]:
        """The width sigma, exp(-(r/sigma)^2) at the nodes, and its mass by the quadrature rule."""
        sigma = min(1.0, self.r_max / 8.0)
        f = np.exp(-((self.r / sigma) ** 2))
        return sigma, f, float(_power_sum(self, f, 2))

    def _certified_kernel(self) -> np.ndarray:
        """The kernel K[m, k] = J_nu(j_m j_k / S), built at the first call, whose round
        trip on the certification Gaussian is certified before it is returned.

        The certificate's own forward and inverse transform read the kernel while it
        is being certified; every other product reads a certified one.  A kernel that
        fails is dropped, so each later call builds it again and raises again.
        """
        if self._kernel_store is None:
            self._kernel_store = self._symmetric_kernel(self.nu)
            try:
                sigma, f, quad = self._certification_gaussian()
                back = self._inverse_values(self._forward_values(f))
                err = math.sqrt(float(_power_sum(self, back - f, 2)) / quad)
                if err > ROUNDTRIP_TOL:
                    raise GridResolutionError(
                        f"resolution too low: round-trip error {err:.3e} on a width-{sigma:g} "
                        f"Gaussian exceeds {ROUNDTRIP_TOL:g} (d={self.d}, r_max={self.r_max}, "
                        f"n={self.n})")
            except BaseException:
                self._kernel_store = None
                raise
            self._roundtrip_error = err
        return self._kernel_store

    # every read of the kernel, the transforms' included, goes through its certificate
    _kernel = property(_certified_kernel)

    def _symmetric_kernel(self, order: int, scale: float = 1.0,
                          rows: int | None = None) -> np.ndarray:
        """J_order(scale j_m j_k / S) for the first rows m (all n by default), bitwise
        equal to the full build, zero-padded to whole _KERNEL_BLOCKs of rows and of
        columns.

        The matrix is symmetric in (m, k), and a full build is so exactly: Bessel
        values are computed for the upper triangle only, one block of rows at a
        time, and mirrored inside the rows kept; the columns beyond them are
        computed directly.  Dividing by S / scale keeps the scale-1 argument
        j_m j_k / S bit for bit.

        Every entry, at any order, is one value of _bessel_j at its argument.
        Against mpmath at the exact argument, sampled entries are within 6e-15 of
        the kernel's largest.
        """
        j, n, rows = self._bessel_zeros, self.n, self.n if rows is None else rows
        padded = np.zeros((_whole_blocks(rows), _whole_blocks(n)))
        mat = padded[:rows, :n]
        for i0 in range(0, rows, _KERNEL_BLOCK):
            i1 = min(i0 + _KERNEL_BLOCK, rows)
            x = np.outer(j[i0:i1], j[i0:]) / (self._s_edge / scale)
            block = _bessel_j(order, x)
            mat[i0:i1, i0:] = block
            mat[i1:, i0:i1] = block[:, i1 - i0:rows - i0].T
        padded.setflags(write=False)
        return padded

    def _forward_values(self, values: np.ndarray) -> np.ndarray:
        out = _real_matvec(self._kernel, values, self._fwd_in)[..., :self.n]
        out /= self._rho_nu
        return out

    def _inverse_values(self, coeffs: np.ndarray, span: slice = slice(None)) -> np.ndarray:
        """The inverse transform along the last axis of a spectrum that is 0 outside span,
        from its entries in span only, through a view of those kernel columns."""
        out = _real_matvec(self._kernel[:, span], coeffs, self._inv_in[span])[..., :self.n]
        out /= self._r_nu
        return out

    def _kernel_rows(self, span: slice) -> np.ndarray:
        """The kernel's rows in span as columns over the n nodes, (n, K), a view.  By
        symmetry these are also its columns: column k times _fwd_in / rho_k^nu is
        coefficient k's analysis row, and times _inv_in[k] / r^nu its synthesis column."""
        k0, k1, _ = span.indices(self.n)
        return self._kernel[k0:k1, :self.n].T

    def derivative_kernel(self) -> np.ndarray:
        """Kernel for the radial derivative: d/dr maps the J_nu series to a J_{nu+1} series.

        Holds J_{nu+1}(j_m j_k / S), symmetric and zero-padded as the grid's kernel;
        the synthesis scalars _inv_in are applied to the coefficient vector.
        """
        if self._deriv_kernel is None:
            self._deriv_kernel = self._symmetric_kernel(self.nu + 1)
        return self._deriv_kernel

    def _free_phase(self, t: float) -> np.ndarray:
        """exp(-i t rho^2), the free flow's symbol over time t, built once per t."""
        phase = self._free_phases.get(t)
        if phase is None:
            phase = self._free_phases[t] = np.exp(-1j * t * self.rho**2)
            phase.setflags(write=False)
        return phase


def make_radial_grid(d: int, r_max: float, n: int) -> RadialGrid:
    """Build a certified radial grid with its kernel (raises GridResolutionError if n is
    too small)."""
    grid = RadialGrid(d, r_max, n)
    grid._certified_kernel()
    return grid


def _frozen_values(grid: RadialGrid, values, what: str, rows: tuple = ()) -> np.ndarray:
    """Read-only complex copy of one value per node (per row, if rows); what names them."""
    vals = np.array(values, dtype=np.complex128)
    if vals.shape != (*rows, grid.n):
        raise ValueError(f"{what} count {vals.shape} does not match grid n={grid.n}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what}s contain non-finite values")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class RadialField:
    """Complex radial profile u(r_j) on a grid: a frozen, checked carrier of one finite
    sample per node, copied and read-only.  It has no arithmetic: fields combine
    through .values, on grids whose keys agree."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.grid, self.values, "sample"))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Radial-frequency coefficients uhat(rho_k) on a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.grid, self.values, "coefficient"))


def field_from_function(grid: RadialGrid, fn) -> RadialField:
    """Sample a callable of the radius on the grid nodes."""
    return RadialField(grid, np.asarray(fn(grid.r), dtype=np.complex128))


def transform_forward(f: RadialField) -> SpectralField:
    return SpectralField(f.grid, f.grid._forward_values(f.values))


def transform_inverse(F: SpectralField) -> RadialField:
    return RadialField(F.grid, F.grid._inverse_values(F.values))


def _symbol_span(symbol: np.ndarray) -> slice | None:
    """The coefficients a multiplier by symbol reads: the span [k0, k1) of its nonzero
    entries, all of them (slice(None)) if that is wider than one _KERNEL_BLOCK, and
    None if there are none.

    A dyadic band at n = 640 spans 10 to 82 of the 640.  A wider span takes the
    whole padded kernel, so its products are the full transforms bit for bit.
    The BLAS sums a wide inner dimension in panels whose split depends on its
    length, and on the thread count unless the length is whole blocks: at 600
    columns one and two OpenBLAS threads give different bits, at one block or
    less they do not.
    """
    nonzero = np.flatnonzero(symbol)
    if nonzero.size == 0:
        return None
    k0, k1 = int(nonzero[0]), int(nonzero[-1]) + 1
    return slice(None) if k1 - k0 > _KERNEL_BLOCK else slice(k0, k1)


def _multiplier_inverse(grid: RadialGrid, symbol: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The inverse transform of symbol * coeffs along the last axis, symbol (n,), from
    the kernel columns of _symbol_span only.  A zero symbol gives zeros without a product."""
    span = _symbol_span(symbol)
    if span is None:
        return np.zeros(coeffs.shape, np.result_type(symbol, coeffs))
    return grid._inverse_values(symbol[span] * coeffs[..., span], span)


def apply_multiplier(f: RadialField, symbol: np.ndarray) -> RadialField:
    """Return the field with Fourier coefficients symbol(rho_k) * uhat_k."""
    coeffs = f.grid._forward_values(f.values)
    return RadialField(f.grid, _multiplier_inverse(f.grid, symbol, coeffs))


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------

def _power_sum(grid: RadialGrid, values: np.ndarray, p: float) -> np.ndarray:
    """Integral |f|^p dx = sum_k w_k |f_k|^p along the last axis."""
    return np.sum(grid.w * np.abs(values) ** p, axis=-1)


def mass(f: RadialField) -> float:
    """L^2 mass M(f) = Integral |f|^2 dx."""
    return float(_power_sum(f.grid, f.values, 2))


def lebesgue_norm(f: RadialField, p: float) -> float:
    """||f||_{L^p}, 1 <= p < inf."""
    if not 1 <= p < math.inf:
        raise ValueError(f"Lebesgue exponent p={p} out of range (need 1 <= p < inf)")
    return float(_power_sum(f.grid, f.values, p) ** (1.0 / p))


def sobolev_norm(f: RadialField, s: float) -> float:
    """Homogeneous Sobolev norm || |grad|^s f ||_2 via the multiplier rho^s."""
    if not -2.0 <= s <= 3.0:
        raise ValueError(f"regularity s={s} outside supported range [-2, 3]")
    F = transform_forward(f)
    return float(math.sqrt(np.sum(f.grid.wrho * f.grid.rho ** (2.0 * s)
                                  * np.abs(F.values) ** 2)))


def _kinetic_sum(grid: RadialGrid, coeffs: np.ndarray) -> np.ndarray:
    """||grad f||_2^2 = sum_k wrho_k rho_k^2 |fhat_k|^2 along the last axis of the coefficients."""
    return np.sum(grid.wrho * grid.rho**2 * np.abs(coeffs) ** 2, axis=-1)


def _energy_sum(grid: RadialGrid, values: np.ndarray, coeffs: np.ndarray, mu: int) -> np.ndarray:
    """E(f) = 1/2 ||grad f||^2 + mu * d/(2(d+2)) * ||f||^{2(d+2)/d}_{2(d+2)/d} along the last
    axis of the samples values and their spectral coefficients coeffs.

    mu = -1 is focusing, +1 defocusing, 0 the free flow.  The gradient is taken
    spectrally, so the value means something only for a resolved field; the
    caller judges that.
    """
    kinetic = 0.5 * _kinetic_sum(grid, coeffs)
    if mu == 0:
        return kinetic
    d = grid.d
    return kinetic + mu * (d / (2.0 * (d + 2)) * _power_sum(grid, values, 2.0 * (d + 2) / d))


def _tail_fraction(grid: RadialGrid, coeffs: np.ndarray) -> np.ndarray:
    """Fraction of the spectral mass at rho > rho_max / 2 (0 for zero coefficients, NaN
    where the spectral mass is not finite)."""
    power = grid.wrho * np.abs(coeffs) ** 2
    total = power.sum(axis=-1)
    high = power[..., grid._high_rho].sum(axis=-1)
    return np.where(np.isfinite(total), high, np.nan) / np.where(total == 0.0, 1.0, total)


def _check_resolved(grid: RadialGrid, coeffs: np.ndarray, what: str) -> None:
    """Raise UnresolvedFieldError unless every row's spectral mass is finite and its tail
    fraction under the threshold."""
    frac = np.max(_tail_fraction(grid, coeffs))
    if np.isnan(frac):
        raise UnresolvedFieldError(f"{what} has a non-finite spectral mass")
    if frac >= RESOLVED_TAIL_FRACTION:
        raise UnresolvedFieldError(
            f"{what} is under-resolved: {frac:.3e} of its mass lies above rho_max/2")


# ---------------------------------------------------------------------------
# derivative and rescaling
# ---------------------------------------------------------------------------

def _derivative_values(grid: RadialGrid, coeffs: np.ndarray) -> np.ndarray:
    """df/dr at the nodes from the spectral coefficients, along the last axis.

    Differentiating r^(-nu) J_nu(rho r) in r yields -rho r^(-nu) J_{nu+1}(rho r),
    so the derivative is an order-(nu+1) synthesis of the same coefficients.
    """
    out = _real_matvec(grid.derivative_kernel(), coeffs, grid._inv_in * grid.rho)[..., :grid.n]
    return -out / grid._r_nu


def _rescaled_values(grid: RadialGrid, values: np.ndarray, lam: float) -> np.ndarray:
    """lam^{d/2} f(lam r) at the nodes, along the last axis; 0 where lam r > r_max.

    The inverse transform at the radii lam r_m has the kernel J_nu(lam j_m j_k / S),
    the grid's own at scale lam, with the same scalars _inv_in.  Only its rows with
    lam r_m <= r_max, a prefix of the nodes, are built.
    """
    coeffs = grid._forward_values(values)
    kept = int(np.count_nonzero(lam * grid.r <= grid.r_max))
    out = np.zeros_like(coeffs)
    out[..., :kept] = (_real_matvec(grid._symmetric_kernel(grid.nu, lam, kept), coeffs,
                                    grid._inv_in)[..., :kept]
                       * (lam ** (grid.d / 2.0) / (lam * grid.r[:kept]) ** grid.nu))
    return out


def rescale(f: RadialField, lam: float) -> RadialField:
    """Mass-preserving rescaling f -> lam^{d/2} f(lam x), sampled on the same grid; nodes
    with lam r > r_max, where the series does not represent f, read 0."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("scaling factor must be positive and finite")
    return RadialField(f.grid, _rescaled_values(f.grid, f.values, lam))


# ---------------------------------------------------------------------------
# dyadic scales
# ---------------------------------------------------------------------------

def is_dyadic(N: float) -> bool:
    """True when N is exactly a power of two (2^k for integer k, k may be negative)."""
    if not (np.isfinite(N) and N > 0):
        return False
    mantissa, _ = math.frexp(float(N))
    return mantissa == 0.5


def dyadic_range(grid: RadialGrid) -> tuple[float, float]:
    """(N_min, N_max) for the grid's usable dyadic ladder.

    N_max keeps rho_max >= 4 N, so every band symbol is fully inside the
    resolved range; N_min keeps a handful of nodes under the lowest band.
    """
    n_max = 2.0 ** math.floor(math.log2(grid.rho_max / 4.0))
    n_min = 2.0 ** math.ceil(math.log2(6.0 * grid.rho[0]))
    if n_min > n_max:
        raise GridResolutionError("grid has no usable dyadic scales")
    return n_min, n_max


def dyadic_scales(grid: RadialGrid) -> list[float]:
    n_min, n_max = dyadic_range(grid)
    return [n_min * 2.0**k for k in range(round(math.log2(n_max / n_min)) + 1)]


def validate_scale(grid: RadialGrid, N: float) -> float:
    if not is_dyadic(N):
        raise ValueError(f"scale N={N} is not dyadic")
    n_min, n_max = dyadic_range(grid)
    if not n_min <= N <= n_max:
        raise ValueError(f"scale N={N} outside grid dyadic range [{n_min}, {n_max}]")
    return float(N)


# ---------------------------------------------------------------------------
# randomized smooth corpus (shared by property tests and the selftest)
# ---------------------------------------------------------------------------

def random_smooth_field(grid: RadialGrid, rng: np.random.Generator) -> RadialField:
    """Random smooth radial field, spatially localized, spectrum below the dyadic ladder's top.

    Spectral coefficients are complex Gaussian under a smooth envelope that
    dies well before the cap N_max of dyadic_range, so band partitions
    reconstruct such fields; the synthesized field is then tapered by a
    Gaussian of width r_max/6 so rescalings by factors in [1/2, 2] stay inside
    the domain.  Unit mass; deterministic given the generator state.
    """
    g = grid
    cap = dyadic_range(g)[1]
    center = cap * rng.uniform(0.1, 0.5)
    width = cap * rng.uniform(0.1, 0.3)
    envelope = np.exp(-(((g.rho - center) / width) ** 2)) + 0.2 * np.exp(-((g.rho / (0.3 * cap)) ** 2))
    envelope[g.rho > 0.7 * cap] *= np.exp(-(((g.rho[g.rho > 0.7 * cap] - 0.7 * cap)
                                             / (0.05 * cap)) ** 4))
    coeffs = envelope * (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    f = transform_inverse(SpectralField(g, coeffs))
    vals = f.values * np.exp(-((g.r / (g.r_max / 6.0)) ** 2))
    m = float(_power_sum(g, vals, 2))
    if m == 0.0:
        return RadialField(g, vals)
    return RadialField(g, vals / math.sqrt(m))
