import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lct_numra.canonical import CanonicalMatrix, MatrixError, fourier, fresnel, kernel
from lct_numra.lct import (
    LctSpectrum,
    ilct,
    induced_omega_grid,
    lct_direct,
    lct_fast,
    parseval_residual,
    spectrum_inner,
)
from lct_numra.sampling import Grid, SampledSignal, gaussian, indicator, inner_product

M2111 = CanonicalMatrix(2, 1, 1, 1)
MATRICES = [fourier(), fresnel(1.0), M2111]
NONZERO = st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 0.1)


def grid_n(n, lo=-8.0, hi=8.0):
    return Grid(lo, (hi - lo) / n, n)


def gaussian_fourier_spectrum(omega):
    """Closed form of the Fourier-matrix transform of exp(-pi t^2)."""
    return np.exp(-(omega**2) / (4 * np.pi)) / np.sqrt(2j * np.pi)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestDirect:
    def test_zero_signal(self):
        g = grid_n(256)
        zero = SampledSignal(g, np.zeros(256))
        out = lct_direct(zero, M2111, grid_n(64, -10, 10))
        assert np.all(out.values == 0)

    def test_gaussian_closed_form(self):
        g = grid_n(4096)
        f = gaussian(g)
        omega = Grid(-6.0, 12.0 / 257, 257)
        out = lct_direct(f, fourier(), omega)
        want = gaussian_fourier_spectrum(omega.points())
        assert np.max(np.abs(out.values - want)) < 1e-6

    def test_even_symmetry(self):
        # |L f| is even in omega for real even f when a = d
        m = CanonicalMatrix(np.cos(1.0), np.sin(1.0), -np.sin(1.0), np.cos(1.0))
        g = grid_n(2048)
        f = gaussian(g)
        omega = Grid(-5.0, 0.25, 41)
        out = lct_direct(f, m, omega)
        mags = np.abs(out.values)
        np.testing.assert_allclose(mags, mags[::-1], atol=1e-10)

    def test_b_zero_rejected(self):
        g = grid_n(64)
        with pytest.raises(MatrixError, match="b = 0"):
            lct_direct(gaussian(g), CanonicalMatrix(1, 0, 0, 1), g)


class TestFast:
    @pytest.mark.parametrize("m", MATRICES, ids=["fourier", "fresnel1", "haar2111"])
    def test_matches_direct_oracle(self, m):
        g = grid_n(2048)
        f = gaussian(g)
        fast = lct_fast(f, m)
        direct = lct_direct(f, m, fast.grid)
        assert rel_l2(fast.values, direct.values) <= 1e-6

    def test_zero_signal(self):
        g = grid_n(512)
        out = lct_fast(SampledSignal(g, np.zeros(512)), M2111)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-300)

    def test_power_of_two_required(self):
        g = grid_n(100)
        with pytest.raises(ValueError, match="power-of-two"):
            lct_fast(gaussian(g), M2111)

    def test_fourier_reduces_to_discrete_oracle(self):
        # chirp-free case: a plain weighted Fourier sum scaled by the
        # kernel prefactor, compared entry by entry (grid-exact)
        n = 512
        g = grid_n(n, -4.0, 4.0)
        f = gaussian(g)
        fast = lct_fast(f, fourier())
        t = g.points()
        want = np.array(
            [
                np.sum(f.values * np.exp(-1j * t * w)) * g.step
                for w in fast.grid.points()
            ]
        ) / np.sqrt(2j * np.pi)
        assert np.max(np.abs(fast.values - want)) <= 1e-10

    def test_linearity(self):
        g = grid_n(1024)
        rng = np.random.default_rng(11)
        a = SampledSignal(g, rng.normal(size=1024) + 1j * rng.normal(size=1024))
        b = SampledSignal(g, rng.normal(size=1024) + 1j * rng.normal(size=1024))
        al, be = 1.3 - 0.2j, -0.7 + 2.1j
        combo = SampledSignal(g, al * a.values + be * b.values)
        out = lct_fast(combo, M2111)
        want = al * lct_fast(a, M2111).values + be * lct_fast(b, M2111).values
        np.testing.assert_allclose(out.values, want, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=NONZERO, b=NONZERO, c=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_discrete_norm_preserved(self, a, b, c, seed):
        # sum |F|^2 d_omega = sum |f|^2 dt holds exactly on the induced grid, for either sign of b
        m = CanonicalMatrix(a, b, c, (1.0 + b * c) / a)
        g = grid_n(256, -3.0, 5.0)
        rng = np.random.default_rng(seed)
        f = SampledSignal(g, rng.normal(size=256) + 1j * rng.normal(size=256))
        spec = lct_fast(f, m)
        lhs = np.sum(np.abs(spec.values) ** 2) * spec.grid.step
        rhs = np.sum(np.abs(f.values) ** 2) * g.step
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_b_grid_ascending(self):
        m = CanonicalMatrix(np.cos(-1.0), np.sin(-1.0), -np.sin(-1.0), np.cos(-1.0))
        g = grid_n(256)
        out = lct_fast(gaussian(g), m)
        assert out.grid.step > 0
        direct = lct_direct(gaussian(g), m, out.grid)
        assert rel_l2(out.values, direct.values) <= 1e-6


class TestInverse:
    @pytest.mark.parametrize("m", MATRICES, ids=["fourier", "fresnel1", "haar2111"])
    def test_fast_round_trip(self, m):
        g = grid_n(2048)
        f = gaussian(g)
        back = ilct(lct_fast(f, m), m, g, method="fast")
        assert rel_l2(back.values, f.values) <= 1e-6

    def test_direct_round_trip(self):
        g = grid_n(1024)
        f = gaussian(g)
        spec = lct_direct(f, M2111, induced_omega_grid(g, M2111))
        back = ilct(spec, M2111, g, method="direct")
        assert rel_l2(back.values, f.values) <= 1e-6

    def test_zero_spectrum(self):
        g = grid_n(256)
        spec = LctSpectrum(induced_omega_grid(g, fourier()), np.zeros(256))
        out = ilct(spec, fourier(), g)
        assert np.all(out.values == 0)

    def test_closed_form_spectrum_inverts_to_gaussian(self):
        g = grid_n(2048)
        ogrid = induced_omega_grid(g, fourier())
        spec = LctSpectrum(ogrid, gaussian_fourier_spectrum(ogrid.points()))
        out = ilct(spec, fourier(), g, method="fast")
        assert rel_l2(out.values, gaussian(g).values) <= 1e-6

    def test_fast_requires_induced_grid(self):
        g = grid_n(256)
        spec = LctSpectrum(Grid(-1.0, 0.01, 256), np.zeros(256))
        with pytest.raises(ValueError, match="induced"):
            ilct(spec, fourier(), g, method="fast")


class TestParseval:
    def test_zero(self):
        g = grid_n(512)
        z = SampledSignal(g, np.zeros(512))
        assert parseval_residual(z, z, M2111) == 0.0

    def test_gaussian(self):
        g = grid_n(4096)
        f = gaussian(g)
        assert parseval_residual(f, f, fourier()) <= 1e-6

    def test_discontinuous_fixture(self):
        g = grid_n(2048)
        f = indicator([(0.0, 1.0)], g)
        res = parseval_residual(f, f, M2111)
        assert res <= 1e-3
        # refining the grid keeps the residual at quadrature scale
        g2 = grid_n(4096)
        f2 = indicator([(0.0, 1.0)], g2)
        assert parseval_residual(f2, f2, M2111) <= max(res, 1e-8)

    def test_matches_inner_product_pairs(self):
        g = grid_n(1024)
        f = gaussian(g)
        sig = SampledSignal(g, np.exp(-np.pi * (g.points() - 0.5) ** 2))
        res = parseval_residual(f, sig, fourier())
        lhs = spectrum_inner(lct_fast(f, fourier()), lct_fast(sig, fourier()))
        assert res == pytest.approx(abs(lhs - inner_product(f, sig)))
        assert res <= 1e-6


class TestTiming:
    def test_fast_scales_subquadratically(self):
        def best_time(n):
            g = grid_n(n)
            f = gaussian(g)
            lct_fast(f, M2111)  # warm up
            best = np.inf
            for _ in range(9):
                t0 = time.perf_counter()
                lct_fast(f, M2111)
                best = min(best, time.perf_counter() - t0)
            return best

        t12 = best_time(2**12)
        t13 = best_time(2**13)
        assert t13 / t12 < 3.0
