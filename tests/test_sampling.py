import numpy as np
import pytest

from lct_numra.canonical import CanonicalMatrix, fourier
from lct_numra.sampling import (
    Grid,
    GridMismatchError,
    OffGridError,
    SampledSignal,
    chirp_phase,
    dilate_chirp,
    gaussian,
    gram_matrix,
    indicator,
    inner_product,
    norm,
    numra_grid,
    translate_chirp,
)
from lct_numra.filters import TranslationSet

M2111 = CanonicalMatrix(2, 1, 1, 1)


def std_grid(step=2.0**-10, lo=-8.0, hi=8.0):
    return Grid(lo, step, round((hi - lo) / step))


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(0.0, -1.0, 4)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 0)

    def test_index_of(self):
        g = Grid(-1.0, 0.25, 16)
        assert g.index_of(-1.0) == 0
        assert g.index_of(0.5) == 6
        with pytest.raises(OffGridError):
            g.index_of(0.3)

    def test_numra_grid_alignment(self):
        ts = TranslationSet(2, 1)
        g = numra_grid(ts, (-2.0, 2.0), refinement=8, max_level=2)
        # every translation-set element inside the window lands on the grid
        for lam in (0.0, 0.5, -1.5, 2.0 - g.step):
            ratio = lam / g.step
            assert abs(ratio - round(ratio)) < 1e-9


class TestInnerProduct:
    def test_positive_definite(self):
        g = std_grid()
        f = gaussian(g)
        val = inner_product(f, f)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real > 0

    def test_disjoint_supports(self):
        g = std_grid()
        a = indicator([(0.0, 1.0)], g)
        b = indicator([(1.0, 2.0)], g)
        assert inner_product(a, b) == 0

    def test_gaussian_value(self):
        # oracle: integral of exp(-2 pi t^2) over R equals 1/sqrt(2)
        scipy_quad = pytest.importorskip("scipy.integrate").quad
        ref, err = scipy_quad(lambda t: np.exp(-2 * np.pi * t * t), -8, 8)
        assert ref == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        g = std_grid()
        f = gaussian(g)
        assert inner_product(f, f).real == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)

    def test_conjugate_symmetry(self):
        g = std_grid(step=2.0**-6)
        rng = np.random.default_rng(3)
        a = SampledSignal(g, rng.normal(size=g.count) + 1j * rng.normal(size=g.count))
        b = SampledSignal(g, rng.normal(size=g.count) + 1j * rng.normal(size=g.count))
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_nested_grid_alignment(self):
        coarse = Grid(-2.0, 2.0**-6, 256)
        fine = Grid(-2.0, 2.0**-8, 1024)
        f_c = gaussian(coarse)
        f_f = gaussian(fine)
        got = inner_product(f_c, f_f)
        want = inner_product(f_c, f_c)
        assert got == pytest.approx(want, abs=1e-12)

    def test_incompatible_grids_rejected(self):
        a = gaussian(Grid(0.0, 0.1, 10))
        b = gaussian(Grid(0.0, 0.07, 10))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)
        c = gaussian(Grid(0.05, 0.2, 5))
        with pytest.raises(GridMismatchError):
            inner_product(a, c)

    def test_refinement_second_order(self):
        # Gaussians: halving the step changes the value below the h^2 scale
        def gauss_value(step):
            g = Grid(-8.0, step, round(16.0 / step))
            return inner_product(gaussian(g), gaussian(g)).real

        assert abs(gauss_value(2.0**-5) - gauss_value(2.0**-6)) <= 1e-12

        # non-decaying smooth integrand: the change is second order exactly
        def cos_value(step):
            g = Grid(-6.0, step, round(12.0 / step) + 1)
            f = SampledSignal(g, np.cos(g.points()).astype(complex))
            return inner_product(f, f).real

        d1 = abs(cos_value(2.0**-4) - cos_value(2.0**-5))
        d2 = abs(cos_value(2.0**-5) - cos_value(2.0**-6))
        assert d1 / d2 == pytest.approx(4.0, rel=0.05)


class TestTranslateChirp:
    def test_zero_shift_fourier_is_identity(self):
        g = std_grid(step=2.0**-8, lo=-2.0, hi=2.0)
        f = indicator([(0.0, 1.0)], g)
        out = translate_chirp(f, 0.0, fourier())
        np.testing.assert_array_equal(out.values, f.values)

    def test_zero_shift_general_matrix_applies_chirp(self):
        g = std_grid(step=2.0**-8, lo=-2.0, hi=2.0)
        f = indicator([(0.0, 1.0)], g)
        out = translate_chirp(f, 0.0, M2111)
        t = g.points()
        want = f.values * np.exp(-1j * np.pi * 2.0 * t**2)
        np.testing.assert_allclose(out.values, want, atol=1e-15)

    def test_modulus_is_plain_translate(self):
        g = std_grid(step=2.0**-8, lo=-4.0, hi=4.0)
        f = gaussian(g)
        out = translate_chirp(f, 1.0, M2111)
        shifted = np.zeros_like(f.values)
        shifted[g.index_of(g.t_min + 1.0):] = f.values[: -g.index_of(g.t_min + 1.0)]
        np.testing.assert_allclose(np.abs(out.values), np.abs(shifted), atol=1e-15)

    def test_off_grid_rejected(self):
        g = std_grid(step=2.0**-8, lo=-2.0, hi=2.0)
        with pytest.raises(OffGridError):
            translate_chirp(gaussian(g), 1.0 / 3.0, fourier())

    def test_chirp_cancellation(self):
        # inner products of chirped translates equal the unchirped ones
        # times the phase in (lam^2 - sig^2)
        ts = TranslationSet(2, 1)
        g = numra_grid(ts, (-6.0, 6.0), refinement=64)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], g)
        for lam, sig in [(0.0, 0.5), (2.0, 0.5), (-1.5, 2.0)]:
            chirped = inner_product(
                translate_chirp(f, lam, M2111), translate_chirp(f, sig, M2111)
            )
            plain = inner_product(
                translate_chirp(f, lam, fourier()), translate_chirp(f, sig, fourier())
            )
            phase = np.exp(1j * np.pi * 2.0 * (lam**2 - sig**2))
            assert chirped == pytest.approx(phase * plain, abs=1e-10)

    def test_chirped_gram_modulus_matches_unchirped(self):
        ts = TranslationSet(1, 1)
        g = numra_grid(ts, (-4.0, 4.0), refinement=64)
        f = indicator([(0.0, 1.0)], g)
        lams = [-2.0, -1.0, 0.0, 1.0]
        chirped = gram_matrix([translate_chirp(f, l, M2111) for l in lams])
        plain = gram_matrix([translate_chirp(f, l, fourier()) for l in lams])
        np.testing.assert_allclose(np.abs(chirped), np.abs(plain), atol=1e-10)


class TestDilateChirp:
    def test_level_zero_matches_translate(self):
        ts = TranslationSet(2, 1)
        g = numra_grid(ts, (-4.0, 4.0), refinement=64, max_level=2)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], g)
        a = dilate_chirp(f, 0, ts.N, 0.5, M2111)
        b = translate_chirp(f, 0.5, M2111)
        np.testing.assert_allclose(a.values, b.values, atol=1e-15)

    def test_norm_preserved(self):
        ts = TranslationSet(1, 1)
        g = numra_grid(ts, (-6.0, 6.0), refinement=256, max_level=3)
        f = indicator([(0.0, 1.0)], g)
        for j in (-2, -1, 1, 2):
            out = dilate_chirp(f, j, ts.N, 0.0, M2111)
            assert norm(out) == pytest.approx(norm(f), abs=1e-6)

    def test_haar_level_one(self):
        ts = TranslationSet(1, 1)
        g = numra_grid(ts, (-2.0, 2.0), refinement=256, max_level=1)
        f = indicator([(0.0, 1.0)], g)
        out = dilate_chirp(f, 1, 1, 0.0, fourier())
        want = np.sqrt(2.0) * indicator([(0.0, 0.5)], g).values
        np.testing.assert_allclose(out.values, want, atol=1e-15)

    def test_finer_target_grid(self):
        ts = TranslationSet(2, 1)
        coarse = numra_grid(ts, (-4.0, 4.0), refinement=16, max_level=1)
        fine = numra_grid(ts, (-4.0, 4.0), refinement=64, max_level=1)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], coarse)
        out = dilate_chirp(f, 1, ts.N, 0.5, M2111, grid=fine)
        t = fine.points()
        want = 4 ** (1 / 2.0) * f.value_at(4.0 * t - 0.5) * chirp_phase(M2111, t, 0.5)
        assert out.grid == fine
        np.testing.assert_array_equal(out.values, want)

    def test_level_budget(self):
        g = Grid(-1.0, 2.0**-6, 128)
        f = gaussian(g)
        with pytest.raises(ValueError, match="budget"):
            dilate_chirp(f, 20, 1, 0.0, fourier())

    def test_off_grid_translation_rejected(self):
        g = Grid(-1.0, 2.0**-6, 128)
        f = gaussian(g)
        with pytest.raises(OffGridError):
            dilate_chirp(f, 1, 1, 0.013, fourier())


class TestSignalInvariants:
    def test_rejects_nonfinite(self):
        g = Grid(0.0, 0.5, 4)
        with pytest.raises(ValueError):
            SampledSignal(g, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_rejects_length_mismatch(self):
        g = Grid(0.0, 0.5, 4)
        with pytest.raises(ValueError):
            SampledSignal(g, np.zeros(5))
