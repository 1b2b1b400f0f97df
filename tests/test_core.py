import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from radnls import bands, core

GAUSS_MASS_4D = (math.pi / 2) ** 2        # integral of e^{-2 r^2} over R^4
GAUSS_KINETIC_4D = math.pi**2             # ||grad e^{-|x|^2}||_2^2 in d=4


# sha256 of kernel products, per grid size: the sw_dense diagnose shape, a stack
# of 251 fields, a real stack and a single field through the grid's kernel and
# the derivative kernel, and the stack through the kernel columns of the bands
# N = 4 and 32.  600 and 1000 are not whole kernel blocks
PRODUCTS = """
import hashlib
import numpy as np
from radnls import bands, core
rng = np.random.default_rng(11)
for n in (640, 600, 1000):
    g = core.make_radial_grid(4, 15.0, n)
    stack = rng.standard_normal((251, n)) + 1j * rng.standard_normal((251, n))
    products = [f(g, vec) for vec in (stack, stack.real, stack[0])
                for f in (core.RadialGrid._inverse_values, core._derivative_values)]
    products += [core._multiplier_inverse(g, bands.band_symbol(g, N), stack) for N in (4.0, 32.0)]
    print(n, [hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16] for x in products])
"""

# one GEMM against the whole kernel, which _real_matvec runs for 128 real rows or
# more, against the 128-row blocks it runs for fewer; the complex stacks are 64, the
# smallest that runs as one GEMM, and ones in use: sw_dense's 251 and 178 snapshot
# windows, selftest's 64 and 100 at n = 384
ONE_GEMM = """
import numpy as np
from radnls import core
def blocked(mat, vec, scale):
    n, width = vec.shape[-1], mat.shape[1]
    parts = np.zeros((len(vec), 2, width))
    parts[:, 0, :n] = vec.real * scale
    parts[:, 1, :n] = vec.imag * scale
    rows = parts.reshape(-1, width)
    out = np.empty((len(rows), len(mat)))
    for i0 in range(0, len(mat), 128):
        np.matmul(rows, mat[i0:i0 + 128].T, out=out[:, i0:i0 + 128])
    pairs = out.reshape(-1, 2, len(mat))
    return pairs[:, 0] + 1j * pairs[:, 1]
rng = np.random.default_rng(5)
for n, sizes in ((640, (64, 178, 251)), (1280, (64,)), (384, (64, 100))):
    g = core.make_radial_grid(4, 15.0, n)
    for T in sizes:
        stack = rng.standard_normal((T, n)) + 1j * rng.standard_normal((T, n))
        for mat, scale in ((g._kernel, g._fwd_in), (g._kernel, g._inv_in)):
            print(n, T, np.array_equal(core._real_matvec(mat, stack, scale),
                                       blocked(mat, stack, scale)))
"""


def gaussian(grid, width=1.0):
    return core.field_from_function(grid, lambda r: np.exp(-((r / width) ** 2)))


class TestGridConstruction:
    def test_roundtrip_on_reference_grid(self, grid20):
        f = gaussian(grid20)
        back = core.transform_inverse(core.transform_forward(f))
        err = math.sqrt(core.mass(core.RadialField(grid20, back.values - f.values)) / core.mass(f))
        assert err < 1e-9

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            core.make_radial_grid(4, 20.0, 8)

    def test_rejects_uncertifiable_node_count(self):
        with pytest.raises(core.GridResolutionError):
            core.make_radial_grid(4, 20.0, 16)

    def test_constructor_checks_the_quadrature_rule(self):
        # the constructor builds no kernel but certifies the quadrature rule, the
        # stricter of the two certificates: at (4, 20, 16) it is 0.51 off, while the
        # round trip reads 8.7e-9
        with pytest.raises(core.GridResolutionError, match="quadrature error"):
            core.RadialGrid(4, 20.0, 16)

    def test_kernel_is_certified_at_its_first_product(self, monkeypatch):
        # the first product, or roundtrip_error, builds the kernel and runs the round-trip
        # certificate before returning; under a tolerance no kernel meets every attempt
        # raises, and no failed kernel is kept for a later product to read
        g = core.RadialGrid(4, 15.0, 64)
        assert g._kernel_store is None and g.quadrature_error <= core.QUADRATURE_TOL
        f = gaussian(g)
        monkeypatch.setattr(core, "ROUNDTRIP_TOL", 0.0)
        for _ in range(2):
            with pytest.raises(core.GridResolutionError, match="round-trip error"):
                core.transform_forward(f)
            with pytest.raises(core.GridResolutionError, match="round-trip error"):
                g.roundtrip_error
            assert g._kernel_store is None
        monkeypatch.undo()
        # under the real tolerance the same grid certifies, as make_radial_grid's does
        back = core.transform_inverse(core.transform_forward(f))
        assert math.sqrt(core.mass(core.RadialField(g, back.values - f.values)) / core.mass(f)) < 1e-12
        eager = core.make_radial_grid(4, 15.0, 64)
        assert eager._kernel_store is not None
        assert g.roundtrip_error == eager.roundtrip_error
        assert np.array_equal(g._kernel, eager._kernel)

    @pytest.mark.parametrize("d", [0, 1, -2])
    def test_rejects_dimension_out_of_range(self, d):
        with pytest.raises(ValueError, match="dimension"):
            core.make_radial_grid(d, 20.0, 512)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="odd"):
            core.make_radial_grid(3, 20.0, 512)

    def test_rejects_bad_rmax(self):
        with pytest.raises(ValueError):
            core.make_radial_grid(4, math.inf, 512)

    def test_quadrature_matches_gaussian_closed_form(self, grid20):
        m = core.mass(gaussian(grid20))
        assert abs(m - GAUSS_MASS_4D) < 1e-8 * GAUSS_MASS_4D

    def test_spectral_range_covers_dyadic_ladder(self, grid):
        n_min, n_max = core.dyadic_range(grid)
        assert grid.rho_max >= 4 * n_max
        assert n_min < n_max


class TestTransforms:
    def test_forward_of_zero(self, grid):
        F = core.transform_forward(core.RadialField(grid, np.zeros(grid.n)))
        assert np.all(F.values == 0)

    def test_gaussian_transform_closed_form(self, grid20):
        # unitary transform of e^{-|x|^2} is 2^{-d/2} e^{-|xi|^2/4}
        F = core.transform_forward(gaussian(grid20))
        exact = 0.25 * np.exp(-grid20.rho**2 / 4)
        assert np.max(np.abs(F.values - exact)) < 1e-12

    def test_plancherel(self, corpus):
        for f in corpus[:10]:
            m = core.mass(f)
            assert abs(core.sobolev_norm(f, 0.0) ** 2 - m) < 1e-8 * m


def dense_transforms(d, r_max, n):
    """Forward and inverse transform matrices straight from the module docstring.

    fhat(rho) = rho^-nu Int f(r) J_nu(rho r) r^(nu+1) dr on the Bessel-zero
    nodes r_k = j_k R / S, rho_k = j_k / R, with the Fourier-Bessel weights
    Int_0^R h(r) r dr ~= sum 2 R^2 / (S^2 J_{nu+1}(j_k)^2) h(r_k) and
    Int_0^(S/R) h(rho) rho drho ~= sum 2 / (R^2 J_{nu+1}(j_k)^2) h(rho_k).
    """
    nu = d // 2 - 1
    zeros = special.jn_zeros(nu, n + 1)
    j, s_edge = zeros[:n], zeros[n]
    r, rho = j * r_max / s_edge, j / r_max
    jnext_sq = special.jv(nu + 1, j) ** 2
    w_r = 2.0 * r_max**2 / (s_edge**2 * jnext_sq)
    w_rho = 2.0 / (r_max**2 * jnext_sq)
    bessel = special.jv(nu, np.outer(rho, r))
    fwd = bessel * (w_r * r**nu)[None, :] / rho[:, None] ** nu
    inv = bessel.T * (w_rho * rho**nu)[None, :] / r[:, None] ** nu
    return fwd, inv


class TestKernel:
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [64, 200])
    def test_transforms_match_dense_oracle(self, d, n):
        g = core.make_radial_grid(d, 15.0, n)
        fwd, inv = dense_transforms(d, 15.0, n)
        rng = np.random.default_rng(n + d)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for got, ref in ((g._forward_values(v), fwd @ v), (g._inverse_values(v), inv @ v)):
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
        # a (T, n) stack goes through the same kernel path, one row per field
        stack = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        for got, mat in ((g._forward_values(stack), fwd), (g._inverse_values(stack), inv)):
            assert got.shape == stack.shape
            for row, v in zip(got, stack):
                ref = mat @ v
                assert np.max(np.abs(row - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [64, 200])
    def test_block_build_is_bitwise_full_evaluation(self, d, n, monkeypatch):
        # blocks of the default size, and of 48 rows so that n = 64 crosses a block
        # boundary too, against one block of all n rows, which evaluates every entry
        # directly; orders nu and nu + 1, and rescale's kernel at radii inside and
        # beyond the nodes
        g = core.make_radial_grid(d, 15.0, n)
        nu = g.nu
        builds = [(nu, 1.0), (nu + 1, 1.0), (nu, 0.5), (nu, 2.0)]
        # at scale 2 rescale builds only the rows with 2 r_m <= r_max; n - 50 rows
        # end inside a block and mirror across a block boundary
        prefixes = (int(np.count_nonzero(2.0 * g.r <= g.r_max)), n - 50)
        blocked, blocks = [], (core._KERNEL_BLOCK, 48)
        for block in blocks:
            monkeypatch.setattr(core, "_KERNEL_BLOCK", block)
            blocked.append(([g._symmetric_kernel(*b) for b in builds],
                            [g._symmetric_kernel(nu, 2.0, rows) for rows in prefixes]))
        monkeypatch.setattr(core, "_KERNEL_BLOCK", n)
        full = [g._symmetric_kernel(*b) for b in builds]
        # every kernel is zero-padded to whole blocks of its build; the n x n block
        # (its kept rows, for a prefix) carries the values
        for block, (kernels, prefix_kernels) in zip(blocks, blocked):
            for mat, rows in [(k, n) for k in kernels] + list(zip(prefix_kernels, prefixes)):
                assert mat.shape == (-(-rows // block) * block, -(-n // block) * block)
                assert not mat[rows:].any() and not mat[:, n:].any()
        assert np.array_equal(g._kernel[:n, :n], full[0])
        assert np.array_equal(g.derivative_kernel()[:n, :n], full[1])
        for kernels, prefix_kernels in blocked:
            for got, ref in zip(kernels, full):
                assert np.array_equal(got[:n, :n], ref)
            for rows, got in zip(prefixes, prefix_kernels):
                assert np.array_equal(got[:rows, :n], full[3][:rows])

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_kernel_entries_match_mpmath(self, d):
        # J_order(scale j_m j_k / S) with the zeros refined in mpmath, the stored entry
        # itself, for the grid's kernel (order nu), the derivative kernel (nu + 1)
        # and rescale's kernel at scale 1/2: orders 0-3 over d = 2, 4, 6.  The 100
        # pairs (m, k) of ten nodes include the first rows and columns, which hold
        # the entries with x < order.  J_order has no zero there, so those entries
        # are held to a relative bound too, which the upward recurrence misses
        mpmath = pytest.importorskip("mpmath")
        n = 256
        g = core.make_radial_grid(d, 15.0, n)
        nu = g.nu
        rng = np.random.default_rng(d)
        nodes = [0, 1, 2, *map(int, rng.choice(np.arange(3, n), 7, replace=False))]
        approx = special.jn_zeros(nu, n + 1)
        with mpmath.workdps(30):
            zero = {i: mpmath.findroot(lambda t: mpmath.besselj(nu, t), float(approx[i]))
                    for i in nodes + [n]}
            for mat, order, scale in ((g._kernel, nu, 1), (g.derivative_kernel(), nu + 1, 1),
                                      (g._symmetric_kernel(nu, 0.5), nu, mpmath.mpf(0.5))):
                err, rel_low = 0.0, 0.0
                for m in nodes:
                    for k in nodes:
                        x = scale * zero[m] * zero[k] / zero[n]
                        ref = mpmath.besselj(order, x)
                        err = max(err, abs(float(mat[m, k] - ref)))
                        if x < order:
                            rel_low = max(rel_low, abs(float((mat[m, k] - ref) / ref)))
                assert err <= 1e-13 * np.max(np.abs(mat)), (order, scale, err)
                assert rel_low <= 1e-12, (order, scale, rel_low)

    @pytest.mark.parametrize("n", [384, 600, 1280])
    def test_kernels_are_exactly_symmetric(self, n):
        # J_order(j_m j_k / S) is built on the upper triangle and mirrored, padding
        # included, so the stored kernels, which carry no column scaling, are symmetric
        # bit for bit
        g = core.make_radial_grid(4, 15.0, n)
        for mat in (g._kernel, g.derivative_kernel()):
            assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize("n", [600, 1000])
    def test_blocked_product_matches_one_gemm(self, n):
        # the product runs in row blocks; n is not a multiple of the block, so the
        # last block is partial
        assert n % core._KERNEL_BLOCK != 0
        rng = np.random.default_rng(n)
        scale = rng.uniform(0.5, 2.0, n)
        for mat in (rng.standard_normal((n, n)), rng.standard_normal((n - 37, n))):
            for shape in ((n,), (21, n), (251, n)):
                real = rng.standard_normal(shape)
                for vec in (real, real + 1j * rng.standard_normal(shape)):
                    for s in (None, scale):
                        got = core._real_matvec(mat, vec, s)
                        ref = (mat @ (vec if s is None else vec * s).T).T
                        assert got.shape == ref.shape and got.dtype == ref.dtype
                        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_products_independent_of_blas_threads(self):
        # with the kernel block as the first GEMM operand, the 251-field stack came
        # out differently with two OpenBLAS threads, and so did a partial last block
        # of kernel rows or an inner dimension of 600 or 1000 columns
        src = str(Path(core.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            digests.append(subprocess.run([sys.executable, "-c", PRODUCTS], env=env, check=True,
                                          capture_output=True, text=True, timeout=120).stdout)
        assert digests[0] == digests[1]

    def test_one_gemm_matches_row_blocks(self):
        src = str(Path(core.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            lines = subprocess.run([sys.executable, "-c", ONE_GEMM], env=env, check=True,
                                   capture_output=True, text=True, timeout=120).stdout.splitlines()
            assert len(lines) == 12 and all(ln.endswith(" True") for ln in lines), (threads, lines)

    def test_stack_transform_divides_in_place(self):
        # the scaled input and the GEMM output are the only (T, n) arrays a real
        # stack needs; dividing the output in place keeps the peak at two stacks
        g = core.make_radial_grid(4, 15.0, 128)
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((16, g.n))
        for v in (stack, stack + 1j * rng.standard_normal(stack.shape)):
            assert np.array_equal(g._inverse_values(v),
                                  core._real_matvec(g._kernel, v * g._inv_in) / g._r_nu)
            assert np.array_equal(g._forward_values(v),
                                  core._real_matvec(g._kernel, v * g._fwd_in) / g._rho_nu)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g._inverse_values(stack)
            assert tracemalloc.get_traced_memory()[1] - base < 2.5 * stack.nbytes
        finally:
            tracemalloc.stop()

    def test_complex_stack_scaled_into_the_gemm_layout(self):
        # the scaled input is written straight into the rows of real and imaginary
        # parts the GEMM reads, so a complex stack needs that copy and the output:
        # two stacks
        # (and numpy's 8192-element casting buffer, small against 64 x 256)
        g = core.make_radial_grid(4, 15.0, 256)
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((64, g.n)) + 1j * rng.standard_normal((64, g.n))
        scale = g._inv_in * g.rho
        assert np.array_equal(core._derivative_values(g, stack),
                              -core._real_matvec(g.derivative_kernel(), stack * scale) / g._r_nu)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g._inverse_values(stack)
            assert tracemalloc.get_traced_memory()[1] - base < 2.5 * stack.nbytes
        finally:
            tracemalloc.stop()

    def test_grid_holds_one_square_matrix(self):
        g = core.make_radial_grid(4, 15.0, 200)
        square = [a for a in vars(g).values() if isinstance(a, np.ndarray) and a.ndim == 2]
        assert len(square) == 1

    def test_complex_products_do_not_copy_the_kernel(self, grid):
        f = core.random_smooth_field(grid, np.random.default_rng(7))
        bands.in_out(f, "+")  # builds the derivative and PV kernels once
        calls = [lambda: grid._forward_values(f.values),
                 lambda: grid._inverse_values(f.values),
                 lambda: core._derivative_values(grid, grid._forward_values(f.values)),
                 lambda: bands.in_out(f, "-")]
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - base < grid.n**2 * 8 / 4
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["grid", "grid_double"])
    def test_multiplier_inverse_is_the_full_product(self, name, request):
        # stacks come out bit for bit as the whole kernel's product: a band, low or
        # fat span of one block or less sums inside one panel of the BLAS's inner
        # loop, and a wider one, every high span included, takes the whole kernel.
        # A single field goes through the two-row GEMM, whose rounding depends on
        # where the span starts
        def fat_symbol(g, N):
            # bands N/2, N and 2N together
            return bands.phi_le(g.rho, 2.0 * N) - bands.phi_le(g.rho, N / 4.0)

        g = request.getfixturevalue(name)
        rng = np.random.default_rng(g.n)
        for shape in ((g.n,), (21, g.n), (251, g.n)):
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for symbol in (bands.band_symbol, bands.low_symbol, fat_symbol, bands.high_symbol):
                for N in core.dyadic_scales(g):
                    got = core._multiplier_inverse(g, symbol(g, N), c)
                    ref = g._inverse_values(symbol(g, N) * c)
                    assert got.shape == ref.shape and got.dtype == ref.dtype
                    if len(shape) == 2:
                        assert np.array_equal(got, ref), (symbol.__name__, N, shape)
                    else:
                        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_multiplier_inverse_reads_the_symbol_support(self, grid, monkeypatch):
        # the dyadic bands at n = 640 span 10, 21, 42 and 82 kernel columns, read
        # as views of the kernel; a symbol wider than one block reads all of it,
        # and an all-zero symbol none
        c = core.random_smooth_field(grid, np.random.default_rng(1)).values
        stack = np.stack([c, 2.0 * c])
        real_matvec, widths = core._real_matvec, []

        def spy(mat, vec, *scale):
            assert np.shares_memory(mat, grid._kernel)
            widths.append(mat.shape[1])
            return real_matvec(mat, vec, *scale)

        monkeypatch.setattr(core, "_real_matvec", spy)
        for N in (4.0, 8.0, 16.0, 32.0):
            core._multiplier_inverse(grid, bands.band_symbol(grid, N), stack)
        assert widths == [10, 21, 42, 82]
        widths.clear()
        core._multiplier_inverse(grid, bands.high_symbol(grid, 4.0), stack)
        core._multiplier_inverse(grid, np.exp(-1j * grid.rho**2), c)
        assert widths == [grid.n, grid.n]
        widths.clear()
        for vec, dtype in ((c, np.complex128), (stack, np.complex128), (stack.real, np.float64)):
            zero = core._multiplier_inverse(grid, np.zeros(grid.n), vec)
            assert zero.shape == vec.shape and zero.dtype == dtype and not zero.any()
        assert widths == []

    def test_multiplier_inverse_does_not_copy_the_kernel(self, grid):
        # a copy of the band's 82 kernel columns would be 420 kB; the product of one
        # field needs a few kB
        f = core.random_smooth_field(grid, np.random.default_rng(3))
        coeffs = grid._forward_values(f.values)
        symbol = bands.band_symbol(grid, 32.0)
        span = np.count_nonzero(symbol)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            core._multiplier_inverse(grid, symbol, coeffs)
            assert tracemalloc.get_traced_memory()[1] - base < grid.n * span * 8 / 4
        finally:
            tracemalloc.stop()


class TestBessel:
    # arguments from 1e-8 to 8000, dense on both sides of the switches at x = 2
    # (series to Miller) and x = 25 (Miller to Hankel), and x < order
    ARGS = np.unique(np.concatenate([
        np.geomspace(1e-8, 8000.0, 120), np.linspace(1.9, 2.1, 9), np.linspace(24.0, 26.0, 17),
        np.linspace(0.1, 5.5, 28), np.random.default_rng(0).uniform(25.0, 8000.0, 40),
        [1e-6, 1e-3, 2.0, 25.0, 1280.0 * math.pi]]))

    @pytest.mark.parametrize("order", range(6))
    def test_values_match_mpmath(self, order):
        mpmath = pytest.importorskip("mpmath")
        x = self.ARGS
        got = core._bessel_j(order, x)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x])
        assert np.max(np.abs(got - ref)) <= 1e-15
        # below x = 2 and below the order J has no zero but 0, so the error is relative
        low = x < max(order, 2.0)
        assert np.max(np.abs(got[low] / ref[low] - 1.0)) <= 1e-15

    @pytest.mark.parametrize("order", range(6))
    def test_tiny_arguments_stay_finite(self, order):
        # Miller's recurrence from order 60 grows like (2/x)^60 60!, which overflows
        # below x = 3e-9 even from 1e-300; the power series takes over below x = 2
        mpmath = pytest.importorskip("mpmath")
        x = np.array([0.0, 1e-30, 1e-12, 1e-8, 1e-6, 1e-3, 0.5, 1.999])
        with np.errstate(all="raise"):
            got = core._bessel_j(order, x)
        assert got[0] == (1.0 if order == 0 else 0.0)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x[1:]])
        assert np.max(np.abs(got[1:] / ref - 1.0)) <= 1e-15

    def test_values_independent_of_the_array_around_them(self):
        # each value is the same bit for bit whether evaluated alone, in a short
        # array or across the boundaries of the evaluator's chunks
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(0.0, 40.0, 30000), rng.uniform(40.0, 4000.0, 20000)])
        rng.shuffle(x)
        for order in (0, 1, 3):
            whole = core._bessel_j(order, x)
            pieces = np.concatenate([core._bessel_j(order, x[i:i + 977])
                                     for i in range(0, x.size, 977)])
            assert np.array_equal(whole, pieces)
            assert np.array_equal(whole.reshape(250, 200),
                                  core._bessel_j(order, x.reshape(250, 200)))
            for i in rng.choice(x.size, 20, replace=False):
                assert core._bessel_j(order, x[i:i + 1])[0] == whole[i]

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_grid_zeros_match_mpmath(self, d):
        # the first two zeros j_1, j_2, the last node j_n and the edge S = j_{n+1}
        mpmath = pytest.importorskip("mpmath")
        n = 300
        g = core.make_radial_grid(d, 15.0, n)
        got = [g._bessel_zeros[0], g._bessel_zeros[1], g._bessel_zeros[n - 1], g._s_edge]
        with mpmath.workdps(30):
            ref = [float(mpmath.besseljzero(g.nu, k)) for k in (1, 2, n, n + 1)]
        for z, r in zip(got, ref):
            assert abs(z - r) <= 2 * np.spacing(r), (z, r)


class TestNorms:
    def test_mass_zero_field(self, grid):
        assert core.mass(core.RadialField(grid, np.zeros(grid.n))) == 0.0

    def test_mass_scaling_invariance(self, corpus):
        for f in corpus[:5]:
            for lam in (0.5, 2.0):
                fr = core.rescale(f, lam)
                assert abs(core.mass(fr) - core.mass(f)) < 1e-6 * core.mass(f)

    def test_h1_scaling_covariance(self, corpus):
        for f in corpus[:5]:
            base = core.sobolev_norm(f, 1.0)
            for lam in (0.5, 2.0):
                scaled = core.sobolev_norm(core.rescale(f, lam), 1.0)
                assert abs(scaled / base - lam) < 1e-6 * lam

    def test_lebesgue_zero(self, grid):
        assert core.lebesgue_norm(core.RadialField(grid, np.zeros(grid.n)), 3.0) == 0.0

    def test_lebesgue_gaussian_l2(self, grid20):
        v = core.lebesgue_norm(gaussian(grid20), 2.0) ** 2
        assert abs(v - GAUSS_MASS_4D) < 1e-8 * GAUSS_MASS_4D

    def test_lebesgue_rejects_bad_exponent(self, grid):
        for p in (0.5, math.inf):
            with pytest.raises(ValueError):
                core.lebesgue_norm(gaussian(grid), p)

    def test_sobolev_range_enforced(self, grid):
        f = gaussian(grid)
        for s in (-2.5, 3.5):
            with pytest.raises(ValueError):
                core.sobolev_norm(f, s)

    def test_positivity_and_definiteness(self, corpus, grid):
        for f in corpus[:10]:
            assert core.mass(f) >= 0
            assert core.lebesgue_norm(f, 3.0) >= 0
        assert core.mass(core.RadialField(grid, np.zeros(grid.n))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 10.0), phase=st.floats(0, 2 * math.pi),
           p=st.floats(1.0, 6.0))
    def test_lebesgue_homogeneity(self, grid, scale, phase, p):
        f = gaussian(grid)
        c = scale * np.exp(1j * phase)
        assert core.lebesgue_norm(core.RadialField(grid, f.values * c), p) == pytest.approx(
            scale * core.lebesgue_norm(f, p), rel=1e-12)


def energy(f, mu):
    """E(f) of one field."""
    return float(core._energy_sum(f.grid, f.values, f.grid._forward_values(f.values), mu))


class TestEnergy:
    def test_energy_zero_field(self, grid):
        assert energy(core.RadialField(grid, np.zeros(grid.n)), -1) == 0.0

    def test_gaussian_linear_energy(self, grid20):
        # closed-form Gaussian moment, cross-checked by high-resolution quadrature
        from scipy.integrate import quad
        oracle, _ = quad(lambda r: 4 * r**2 * math.exp(-2 * r**2)
                         * core.sphere_area(4) * r**3, 0, 20)
        assert abs(oracle - GAUSS_KINETIC_4D) < 1e-10
        e = energy(gaussian(grid20), 0)
        assert abs(e - 0.5 * GAUSS_KINETIC_4D) < 1e-8 * GAUSS_KINETIC_4D


class TestEvaluationAndScales:
    @staticmethod
    def rescale_error(grid, lam):
        """Worst error of rescale(e^{-r^2}, lam) against lam^{d/2} e^{-lam^2 r^2}."""
        exact = lam ** (grid.d / 2) * np.exp(-((lam * grid.r) ** 2))
        return np.max(np.abs(core.rescale(gaussian(grid), lam).values - exact))

    def test_rescale_matches_profile(self, grid20):
        for lam in (0.5, 2.0):
            assert self.rescale_error(grid20, lam) < 1e-10

    def test_rescale_reads_inside_the_first_node(self, grid):
        # lam = 1/2 reads the series at r_1 / 2, inside the first node
        for lam in (0.5, 2.0):
            assert self.rescale_error(grid, lam) < 1e-10

    def test_is_dyadic(self):
        assert core.is_dyadic(0.5) and core.is_dyadic(64.0)
        assert not core.is_dyadic(3.0) and not core.is_dyadic(-2.0)

    def test_validate_scale_rejects_out_of_range(self, grid):
        n_min, n_max = core.dyadic_range(grid)
        with pytest.raises(ValueError):
            core.validate_scale(grid, 4 * n_max)
        with pytest.raises(ValueError):
            core.validate_scale(grid, 3.0)
