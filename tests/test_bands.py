import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from radnls import bands, core, evolution

from conftest import continuum_mismatch_norm, mp_fractional_chain_ratio, mp_pointwise_band_norm


def rel(a, b):
    """||a - b|| / ||b|| for two fields on one grid."""
    return math.sqrt(core.mass(core.RadialField(b.grid, a.values - b.values)) / core.mass(b))


def band(f, N):
    """P_N f."""
    return core.apply_multiplier(f, bands.band_symbol(f.grid, N))


class TestCutoffProfile:
    def test_plateau_and_support(self):
        x = np.array([0.0, 0.5, 1.0])
        assert np.all(bands.phi(x) == 1.0)
        assert np.all(bands.phi(np.array([25 / 24 + 1e-12, 2.0, 10.0])) == 0.0)

    def test_range(self):
        x = np.linspace(0, 1.5, 4001)
        p = bands.phi(x)
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_smooth_derivatives_bounded(self):
        # discrete derivatives up to order 4 stay bounded and are stable
        # under halving the sampling step (no hidden kink)
        def d4_max(h):
            x = np.arange(0.95, 1.1, h)
            p = bands.phi(x)
            d = p
            for _ in range(4):
                d = np.diff(d) / h
            return np.max(np.abs(d))

        a, b = d4_max(2e-4), d4_max(1e-4)
        assert np.isfinite(a) and np.isfinite(b)
        assert abs(a / b - 1.0) < 0.1

    def test_complement(self):
        x = np.linspace(0, 30, 100)
        assert np.allclose(bands.phi_le(x, 8.0) + bands.phi_gt(x, 8.0), 1.0)


class TestProjections:
    def test_band_acts_as_identity_on_interior_spectrum(self, grid):
        N = 8.0
        rng = np.random.default_rng(2)
        sym = ((grid.rho >= 0.6 * N) & (grid.rho <= N)).astype(float)
        f = core.transform_inverse(core.SpectralField(
            grid, sym * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))))
        assert rel(band(f, N), f) < 1e-10

    def test_low_at_top_scale_is_identity(self, grid, corpus):
        n_max = core.dyadic_scales(grid)[-1]
        f = corpus[3]
        assert rel(core.apply_multiplier(f, bands.low_symbol(grid, n_max)), f) < 1e-8

    def test_high_plus_low_complement(self, grid, corpus):
        f = corpus[4]
        high = core.apply_multiplier(f, bands.high_symbol(grid, 8.0))
        recon = core.RadialField(
            grid, core.apply_multiplier(f, bands.low_symbol(grid, 4.0)).values + high.values)
        assert rel(recon, f) < 1e-12

    def test_derivative_variant_band_bounds(self, grid, corpus):
        for f in corpus[:10]:
            g = band(f, 8.0)
            ratio = core.sobolev_norm(g, 1.0) / (8.0 * math.sqrt(core.mass(g)))
            assert 0.5 * 24 / 25 <= ratio <= 2 * 25 / 24

    def test_commutes_with_free_flow(self, grid, corpus):
        f = corpus[5]
        a = band(evolution.free_propagate(f, 0.37), 8.0)
        b = evolution.free_propagate(band(f, 8.0), 0.37)
        assert rel(a, b) < 1e-10


class TestPointwiseBandNorm:
    def test_against_mpmath(self, grid):
        # the continuum sup at the grid's argmax node; at N = 16 domain truncation
        # already moves it by 5e-4, at N = 32 the gaps are 3.5e-5 and 5.9e-5
        N, d = 32.0, grid.d
        norm = bands.pointwise_band_norm(grid, N)
        for weight in (1.0, grid.r ** ((d - 1) / 2)):
            m = int(np.argmax(weight * norm))
            assert abs(norm[m] / mp_pointwise_band_norm(d, N, grid.r[m]) - 1.0) < 2e-4

    def test_bounds_every_corpus_field(self, grid, corpus):
        # Cauchy-Schwarz on the grid: a sanity check, not an oracle
        for N in (4.0, 16.0):
            norm = bands.pointwise_band_norm(grid, N)
            for f in corpus:
                assert np.all(np.abs(band(f, N).values)
                              <= norm * math.sqrt(core.mass(f)))

    @pytest.mark.parametrize("n", [384, 640])
    def test_reads_the_unit_spectra_off_the_kernel(self, n):
        # the unit fields' spectra, read off the kernel without a product, give the
        # bits of the forward product of the identity at every scale
        g = core.make_radial_grid(4, 15.0, n)
        spectra = g._forward_values(np.eye(n))
        for N in core.dyadic_scales(g):
            rows = core._multiplier_inverse(g, bands.band_symbol(g, N), spectra)
            ref = np.sqrt(np.sum(rows**2 / g.w[:, None], axis=0))
            assert np.array_equal(bands.pointwise_band_norm(g, N), ref), N

    def test_scale_must_be_dyadic_and_in_range(self, grid):
        n_min, n_max = core.dyadic_range(grid)
        for N in (12.0, 2 * n_max, n_min / 2):
            with pytest.raises(ValueError):
                bands.pointwise_band_norm(grid, N)


class TestMismatchReal:
    def test_vacuous_regime_rejected(self, grid20):
        with pytest.raises(ValueError):
            bands.mismatch_norm(grid20, 0.5, 4.0)


class TestMismatchNorm:
    # ||A|| at (R, N) for d = 4, r_max 15.  It depends on the grid through the few nodes
    # in each cutoff's transition annulus: (4, 16) reads 0.146475, 0.146489 and 0.146474
    # at n = 384, 640 and 1280, so the bound is 2e-4 relative
    REFERENCE = {(8.0, 8.0): 0.14542, (4.0, 16.0): 0.14647, (8.0, 16.0): 0.08410}

    @pytest.mark.parametrize("n", [384, 640, 1280])
    def test_reference_values(self, n):
        g = core.make_radial_grid(4, 15.0, n)
        for (R, N), ref in self.REFERENCE.items():
            assert abs(bands.mismatch_norm(g, R, N) / ref - 1.0) < 2e-4, (R, N)

    def test_matches_dense_singular_value(self):
        # the largest singular value of A's n x n matrix, whose column j is A e_j, in
        # the inner product of the quadrature weights; the gaps are below 1e-15
        g = core.make_radial_grid(4, 15.0, 384)
        sw = np.sqrt(g.w)
        for R, N in self.REFERENCE:
            rows = core._multiplier_inverse(g, bands.low_symbol(g, N),
                                            g._forward_values(np.diag(bands.phi_le(g.r, R / 2))))
            m = (rows * bands.phi_gt(g.r, R)).T
            top = np.linalg.svd(sw[:, None] * m / sw, compute_uv=False)[0]
            assert abs(bands.mismatch_norm(g, R, N) / top - 1.0) < 1e-13, (R, N)

    @pytest.mark.parametrize("N", [8.0, 16.0])
    def test_against_the_continuum(self, grid60, N):
        # at r_max 60 the Dirichlet wall no longer reflects A's slow tail back: the gaps
        # are 3e-5 and 8e-5.  R = 4 would leave about 2 nodes in the inner cutoff's
        # transition annulus, where the grid reads 2.4e-3 high
        norm, _ = continuum_mismatch_norm(4, 8.0, N)
        assert abs(bands.mismatch_norm(grid60, 8.0, N) / norm - 1.0) < 1e-3

    def test_below_the_hilbert_schmidt_norm(self):
        # at selftest's (R, N) on its grid; the Hilbert-Schmidt norms are 0.154398 and
        # 0.096272 at N R = 64 and 128, the grid's 0.1454 to 0.1465 and 0.0841
        g = core.make_radial_grid(4, 15.0, 384)
        for R, N in self.REFERENCE:
            _, hs = continuum_mismatch_norm(4, R, N)
            assert bands.mismatch_norm(g, R, N) < hs, (R, N)

    def test_n_r_512(self, grid_double):
        # the last factor of the decay chain 0.1454 -> 0.0841 -> 0.0259 -> 0.0043
        assert abs(bands.mismatch_norm(grid_double, 8.0, 64.0) / 0.0042866 - 1.0) < 1e-4

    def test_independent_of_blas_threads(self):
        # from 48 to 320 kernel rows; the unrounded 318 of (8, 64) and of (4, 16) at
        # r_max 60 came out differently with two OpenBLAS threads
        src = str(Path(core.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            outputs.append(subprocess.run([sys.executable, "-c", MISMATCH_NORMS], env=env,
                                          check=True, capture_output=True, text=True,
                                          timeout=120).stdout)
        assert outputs[0] == outputs[1] and len(outputs[0].split()) == 7


MISMATCH_NORMS = """
from radnls import bands, core
for r_max, scales in ((15.0, [(8.0, 8.0), (4.0, 16.0), (8.0, 16.0), (8.0, 32.0), (8.0, 64.0)]),
                      (60.0, [(8.0, 8.0), (4.0, 16.0)])):
    g = core.make_radial_grid(4, r_max, 1280)
    for R, N in scales:
        print(bands.mismatch_norm(g, R, N).hex())
"""


class TestInOut:
    def test_real_field_conjugate_kernels(self, grid):
        f = core.field_from_function(grid, lambda r: np.exp(-(r**2)))
        total = bands.in_out(f, "+").values + bands.in_out(f, "-").values
        assert np.max(np.abs(total.imag)) < 1e-12

    def test_pv_against_adaptive_quadrature(self, grid20):
        # independent oracle: adaptive quadrature of the subtracted integrand
        # plus the analytic principal value of the constant; the node rule is
        # tight away from the origin and a few permille near it
        from scipy.integrate import quad
        d = grid20.d
        f = core.field_from_function(grid20, lambda r: np.exp(-(r**2)))
        plus = bands.in_out(f, "+")
        for m, tol in ((40, 2e-2), (100, 1e-6), (220, 1e-10), (350, 1e-10)):
            rm = grid20.r[m]
            g = lambda s: math.exp(-(s**2)) * s ** (d - 1)
            sub, _ = quad(lambda s: (g(s) - g(rm)) / (rm**2 - s**2), 0, grid20.r_max,
                          points=[rm], limit=300)
            oracle = sub + g(rm) * math.log((grid20.r_max + rm) / (grid20.r_max - rm)) / (2 * rm)
            mine = (plus.values[m] - 0.5 * f.values[m]) / (1j / math.pi) * rm ** (d - 2)
            assert abs(mine.real - oracle) < tol * max(1.0, abs(oracle))

    def test_gaussian_closed_form(self, grid, grid_double):
        # independent oracle: for f = e^{-r^2} in d = 4,
        # P^+- f(r) = e^{-r^2}/2 +- i (r^2 e^{-r^2} Ei(r^2) - 1) / (2 pi r^2);
        # the node rule is first order near the origin, so its error must halve with n
        from scipy.special import expi

        def worst(g):
            f = core.field_from_function(g, lambda r: np.exp(-(r**2)))
            r = g.r[g.r >= 0.5]
            pv = 1j * (r**2 * np.exp(-(r**2)) * expi(r**2) - 1.0) / (2 * math.pi * r**2)
            return max(np.max(np.abs(bands.in_out(f, sign).values[g.r >= 0.5]
                                     - (0.5 * np.exp(-(r**2)) + s * pv)))
                       for sign, s in (("+", 1), ("-", -1)))

        coarse, fine = worst(grid), worst(grid_double)
        assert coarse <= 1e-2
        assert fine <= 0.6 * coarse

    def test_pv_kernel_matches_docstring_formula(self, grid):
        # off[m, k] = w_k / (r_m^2 - r_k^2) off the diagonal, 0 on it, w_k = w1_k / r_k
        off = bands._pv_parts(grid)[0]
        with np.errstate(divide="ignore"):
            ref = (grid.w1 / grid.r)[None, :] / (grid.r[:, None] ** 2 - grid.r[None, :] ** 2)
        np.fill_diagonal(ref, 0.0)
        assert np.array_equal(off, ref)

    def test_pv_kernel_built_in_place(self):
        g = core.make_radial_grid(4, 15.0, 640)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bands._pv_parts(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * g.n**2

    def test_truncated_bound_constant_stable_in_scale(self, grid, corpus):
        consts = []
        for N in (4.0, 8.0, 16.0):
            best = 0.0
            for f in corpus[:20]:
                h = core.apply_multiplier(f, bands.high_symbol(grid, N))
                p = bands.in_out(h, "+")
                cut = core.RadialField(grid, p.values * bands.phi_gt(grid.r, 1.0 / N))
                best = max(best, math.sqrt(core.mass(cut) / core.mass(f)))
            consts.append(best)
        assert all(np.isfinite(c) and c < 10 for c in consts)
        assert max(consts) / min(consts) < 1.5

    def test_bad_sign_rejected(self, corpus):
        for sign in ("x", 1):
            with pytest.raises(ValueError):
                bands.in_out(corpus[0], sign)


class TestFractionalChain:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_gaussian_closed_form(self, grid, a):
        # the 1F1 closed form of |grad|^s of a Gaussian; 4.5e-6 and 1.8e-5 at n = 640
        u = core.field_from_function(grid, lambda r: np.exp(-a * r**2))
        ref = mp_fractional_chain_ratio(grid.d, 1.5, a)
        assert abs(bands.fractional_chain_ratio(u, 1.5) / ref - 1.0) < 1e-4

    def test_scalar_homogeneity(self, corpus):
        f = corpus[7]
        r1 = bands.fractional_chain_ratio(f, 1.5)
        r2 = bands.fractional_chain_ratio(core.RadialField(f.grid, f.values * (0.3 + 0.4j)), 1.5)
        assert abs(r2 / r1 - 1.0) < 1e-10

    def test_exponent_range_enforced(self, corpus, grid):
        with pytest.raises(ValueError):
            bands.fractional_chain_ratio(corpus[0], 2.0)   # s = 1 + 4/d at d=4
        with pytest.raises(ValueError):
            bands.fractional_chain_ratio(corpus[0], 0.0)
        with pytest.raises(ValueError):
            bands.fractional_chain_ratio(core.RadialField(grid, np.zeros(grid.n)), 1.5)
