import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lct_numra.canonical import CanonicalMatrix, fourier, frft
from lct_numra.sampling import (
    Grid,
    GridMismatchError,
    OffGridError,
    SampledSignal,
    _GRAM_BLOCK,
    chirp_phase,
    chirped_coefficients,
    chirped_sum,
    chirped_translate_gram,
    dilate,
    gaussian,
    gram_matrix,
    indicator,
    inner_product,
    norm,
    numra_grid,
    translate_chirp,
)
from lct_numra.filters import TranslationSet

from signal_reference import rel_l2_error

M2111 = CanonicalMatrix(2, 1, 1, 1)


def std_grid(step=2.0**-10, lo=-8.0, hi=8.0):
    return Grid(lo, step, round((hi - lo) / step))


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(0.0, -1.0, 4)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("t_min, step", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                                             (-np.inf, 1.0)])
    def test_rejects_nonfinite(self, t_min, step):
        with pytest.raises(ValueError, match="must be finite"):
            Grid(t_min, step, 8)

    def test_steps(self):
        g = Grid(-1.0, 0.25, 16)
        assert g.steps(1.5) == 6
        assert g.steps(-0.5) == -2
        assert g.steps(0.0) == 0
        with pytest.raises(OffGridError, match="multiple of step"):
            g.steps(0.3)

    def test_index_of(self):
        g = Grid(-1.0, 0.25, 16)
        assert g.index_of(-1.0) == 0
        assert g.index_of(0.5) == 6
        with pytest.raises(OffGridError):
            g.index_of(0.3)

    def test_numra_grid_refuses_off_step_start(self):
        # step 1/2 at N = 1, refinement 1: a window from 0.1 starts between two points
        with pytest.raises(OffGridError, match="window start must be a multiple"):
            numra_grid(TranslationSet(1, 1), (0.1, 2.0))
        # and an end between two points was moved to the nearest one
        with pytest.raises(OffGridError, match="window end must be a multiple"):
            numra_grid(TranslationSet(1, 1), (0.0, 2.1))

    def test_numra_grid_alignment(self):
        ts = TranslationSet(2, 1)
        g = numra_grid(ts, (-2.0, 2.0), refinement=8 * 4**2)
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

    def test_nested_grids_refused(self):
        # a coarse grid inside a fine one is not aligned: the signals must share one grid
        coarse = gaussian(Grid(-2.0, 2.0**-6, 256))
        fine = gaussian(Grid(-2.0, 2.0**-8, 1024))
        with pytest.raises(GridMismatchError, match="share a common grid"):
            inner_product(coarse, fine)
        with pytest.raises(GridMismatchError, match="share a common grid"):
            rel_l2_error(fine, coarse)

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

    @pytest.mark.parametrize("m", [M2111, CanonicalMatrix(0.5, 1, -0.75, 0.5)],
                             ids=["2111", "half"])
    @pytest.mark.parametrize("lam", [0.0, 0.75, -1.25, 3.5, -20.0])
    def test_is_dilate_times_chirps_bitwise(self, m, lam):
        # 3.5 leaves most of the window, -20 all of it
        g = Grid(-2.0, 2.0**-6, 256)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], g)
        want = dilate(f, 0, 2, lam).values * (chirp_phase(m, g.points(), 0.0)
                                              * chirp_phase(m, 0.0, lam))
        np.testing.assert_array_equal(translate_chirp(f, lam, m).values, want)

    def test_chirped_gram_modulus_matches_unchirped(self):
        ts = TranslationSet(1, 1)
        g = numra_grid(ts, (-4.0, 4.0), refinement=64)
        f = indicator([(0.0, 1.0)], g)
        lams = [-2.0, -1.0, 0.0, 1.0]
        chirped = gram_matrix([translate_chirp(f, l, M2111) for l in lams])
        plain = gram_matrix([translate_chirp(f, l, fourier()) for l in lams])
        np.testing.assert_allclose(np.abs(chirped), np.abs(plain), atol=1e-10)


class TestChirpedTranslateGram:
    """The lag Gram against the dense Gram of explicit chirped translates."""

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(1, 48),
        n_sig=st.integers(1, 3),
        shifts=st.lists(st.integers(-60, 60), min_size=1, max_size=5),
        scale=st.sampled_from([1, 2, 3, 5]),
        matrix=st.sampled_from([fourier(), M2111, frft(0.3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=48, n_sig=2, shifts=[0, 4, -8], scale=2, matrix=M2111, seed=0)  # 8 | 48
    @example(count=45, n_sig=2, shifts=[0, 4, -8], scale=2, matrix=M2111, seed=1)  # part cell
    @example(count=20, n_sig=1, shifts=[-3], scale=1, matrix=frft(0.3), seed=2)  # one shift
    @example(count=20, n_sig=3, shifts=[0, 30, -25], scale=1, matrix=M2111, seed=3)  # off window
    @example(count=45, n_sig=1, shifts=[44, -60], scale=1, matrix=M2111, seed=0)  # just inside
    @example(count=20, n_sig=2, shifts=[0, 0], scale=1, matrix=fourier(), seed=4)  # no shift
    def test_matches_dense_gram(self, count, n_sig, shifts, scale, matrix, seed):
        grid = Grid(-1.5, 0.25, count)
        rng = np.random.default_rng(seed)
        system = [
            SampledSignal(grid, rng.normal(size=count) + 1j * rng.normal(size=count))
            for _ in range(n_sig)
        ]
        lams = [scale * k * grid.step for k in shifts]
        dense = gram_matrix([translate_chirp(s, lam, matrix) for s in system for lam in lams])
        got = chirped_translate_gram(system, lams, matrix)
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))

    def test_off_grid_rejected(self):
        g = std_grid(step=2.0**-8, lo=-2.0, hi=2.0)
        with pytest.raises(OffGridError):
            chirped_translate_gram([gaussian(g)], [0.0, 1.0 / 3.0], M2111)

    def test_mixed_grids_rejected(self):
        a = gaussian(std_grid(step=2.0**-8, lo=-2.0, hi=2.0))
        b = gaussian(std_grid(step=2.0**-7, lo=-2.0, hi=2.0))
        with pytest.raises(GridMismatchError):
            chirped_translate_gram([a, b], [0.0], M2111)

    def test_empty_system(self):
        g = std_grid(step=2.0**-8, lo=-2.0, hi=2.0)
        assert chirped_translate_gram([], [0.0, 1.0], M2111).shape == (0, 0)
        assert chirped_translate_gram([gaussian(g)], [], M2111).shape == (0, 0)


class TestChirpedAtoms:
    """Analysis and synthesis of unchirped atoms against explicit chirped translates."""

    LAMS = [-1.0, 0.0, 0.5, 2.0]

    def _inputs(self):
        g = Grid(-2.0, 2.0**-6, 256)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], g)
        atoms = tuple(dilate(f, 0, 2, lam).values for lam in self.LAMS)
        rng = np.random.default_rng(3)
        sig = SampledSignal(g, rng.normal(size=g.count) + 1j * rng.normal(size=g.count))
        return g, f, atoms, sig

    def test_match_chirped_translates(self):
        g, f, atoms, sig = self._inputs()
        system = [translate_chirp(f, lam, M2111) for lam in self.LAMS]
        coeffs = chirped_coefficients(sig, atoms, self.LAMS, M2111)
        want = np.array([inner_product(sig, e) for e in system])
        np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
        out = chirped_sum(coeffs, atoms, self.LAMS, M2111, g)
        want = sum(c * e.values for c, e in zip(coeffs, system))
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_generator_and_tuple_give_the_same_bits(self):
        g, _, atoms, sig = self._inputs()
        coeffs = chirped_coefficients(sig, atoms, self.LAMS, M2111)
        again = chirped_coefficients(sig, (a for a in atoms), self.LAMS, M2111)
        np.testing.assert_array_equal(again, coeffs)
        out = chirped_sum(coeffs, atoms, self.LAMS, M2111, g)
        again = chirped_sum(coeffs, (a for a in atoms), self.LAMS, M2111, g)
        np.testing.assert_array_equal(again.values, out.values)

    def test_sum_keeps_one_grid_array_and_one_block(self):
        # three whole column blocks and a part: the blocks are added in atom order at
        # every sample, so the sum is the whole-array sum bit for bit; the sum is the
        # only grid-sized array, beside one block and the signal's finiteness check
        # (two booleans a sample, an eighth of the sum)
        g = Grid(-2.0, 2.0**-12, 3 * _GRAM_BLOCK + 5)
        rng = np.random.default_rng(5)
        atoms = [rng.normal(size=g.count) + 1j * rng.normal(size=g.count) for _ in self.LAMS]
        coeffs = rng.normal(size=len(atoms)) + 1j * rng.normal(size=len(atoms))
        want = np.zeros(g.count, dtype=np.complex128)
        for c, atom in zip(coeffs * chirp_phase(M2111, 0.0, np.array(self.LAMS)), atoms):
            want += atom * c
        want *= chirp_phase(M2111, g.points(), 0.0)
        chirped_sum(coeffs, atoms, self.LAMS, M2111, g)  # the time chirp is made and kept
        tracemalloc.start()
        try:
            out = chirped_sum(coeffs, atoms, self.LAMS, M2111, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out.values, want)
        assert peak <= 1.25 * want.nbytes + 16 * _GRAM_BLOCK


class TestChirpPhase:
    # a/b > 0, a/b < 0, a = 0, and b < 0 with either sign of a/b
    @pytest.mark.parametrize("m", [M2111, frft(2.0), fourier(), frft(-0.3), frft(-2.0)],
                             ids=["pos", "neg", "zero", "b-neg", "b-neg-pos"])
    @pytest.mark.parametrize("t,shift", [
        (0.0, 0.0), (0.75, 0.5), (-1.25, 0.0),
        (np.linspace(-2.0, 2.0, 17), 0.0), (np.linspace(-2.0, 2.0, 17), 0.5),
        (0.0, np.array([-2.0, -0.5, 0.0, 0.5, 2.0])),
    ], ids=["zero", "scalar", "scalar-noshift", "array", "array-shift", "shift-array"])
    def test_bit_identical_to_one_expression(self, m, t, shift):
        # the same bits as exp(-i pi (a/b) (t^2 - shift^2)) in one expression,
        # signs of zero included
        got = chirp_phase(m, t, shift)
        want = np.exp(-1j * np.pi * (m.a / m.b) * (np.asarray(t, dtype=float) ** 2 - shift**2))
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(np.reshape(got, -1).view(np.uint64),
                                      np.reshape(want, -1).view(np.uint64))

    def test_input_not_modified(self):
        t = np.linspace(-1.0, 1.0, 9)
        before = t.copy()
        chirp_phase(M2111, t, 0.5)
        np.testing.assert_array_equal(t, before)


class TestDilateChirp:
    """The chirped element: ``dilate`` times ``chirp_phase(m, t, lam)``."""

    def test_level_zero_matches_translate(self):
        ts = TranslationSet(2, 1)
        g = numra_grid(ts, (-4.0, 4.0), refinement=64 * 4**2)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], g)
        a = dilate(f, 0, ts.N, 0.5).values * chirp_phase(M2111, g.points(), 0.5)
        b = translate_chirp(f, 0.5, M2111)
        np.testing.assert_allclose(a, b.values, atol=1e-15)

    def test_norm_preserved(self):
        ts = TranslationSet(1, 1)
        g = numra_grid(ts, (-6.0, 6.0), refinement=256 * 2**3)
        f = indicator([(0.0, 1.0)], g)
        for j in (-2, -1, 1, 2):
            out = dilate(f, j, ts.N, 0.0)
            chirped = SampledSignal(g, out.values * chirp_phase(M2111, g.points(), 0.0))
            assert norm(chirped) == pytest.approx(norm(f), abs=1e-6)

    def test_haar_level_one(self):
        ts = TranslationSet(1, 1)
        g = numra_grid(ts, (-2.0, 2.0), refinement=256 * 2)
        f = indicator([(0.0, 1.0)], g)
        out = dilate(f, 1, 1, 0.0)
        want = np.sqrt(2.0) * indicator([(0.0, 0.5)], g).values
        np.testing.assert_allclose(out.values, want, atol=1e-15)

    def test_finer_target_grid(self):
        ts = TranslationSet(2, 1)
        coarse = numra_grid(ts, (-4.0, 4.0), refinement=16 * 4)
        fine = numra_grid(ts, (-4.0, 4.0), refinement=64 * 4)
        f = indicator([(0.0, 0.5), (1.0, 1.5)], coarse)
        out = dilate(f, 1, ts.N, 0.5, grid=fine)
        t = fine.points()
        want = 4 ** (1 / 2.0) * f.value_at(4.0 * t - 0.5) * chirp_phase(M2111, t, 0.5)
        assert out.grid == fine
        np.testing.assert_array_equal(out.values * chirp_phase(M2111, t, 0.5), want)

    def test_level_budget(self):
        g = Grid(-1.0, 2.0**-6, 128)
        f = gaussian(g)
        with pytest.raises(ValueError, match="budget"):
            dilate(f, 20, 1, 0.0)

    def test_off_grid_translation_rejected(self):
        g = Grid(-1.0, 2.0**-6, 128)
        f = gaussian(g)
        with pytest.raises(OffGridError):
            dilate(f, 1, 1, 0.013)


class TestSignalInvariants:
    def test_results_compare_by_identity(self):
        # equal samples, two objects: == compared the value arrays and raised "The truth
        # value of an array ... is ambiguous", and so did ``in`` on a list of them
        from lct_numra.lct import lct_fast
        from lct_numra.packets import CoefficientTable
        from lct_numra.wavelets import ProjectionResult

        g = std_grid(lo=-4.0, hi=4.0)
        pairs = [(gaussian(g), gaussian(g)),
                 (lct_fast(gaussian(g), M2111), lct_fast(gaussian(g), M2111))]
        pairs += [(CoefficientTable(((0, 0, 0.0), (0, 0, 1.0)), np.ones(2)),
                   CoefficientTable(((0, 0, 0.0), (0, 0, 1.0)), np.ones(2)))]
        pairs += [tuple(ProjectionResult(sig, {0.0: 1.0 + 0j}, ()) for sig in pairs[0])]
        for a, b in pairs:
            assert a == a and a != b
            assert a in [b, a] and a not in [b]
            assert len({a, b}) == 2

    def test_rejects_nonfinite(self):
        g = Grid(0.0, 0.5, 4)
        with pytest.raises(ValueError):
            SampledSignal(g, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_gram_of_no_signal_is_empty(self):
        g = gram_matrix([])
        assert g.shape == (0, 0) and g.dtype == np.complex128

    def test_rejects_length_mismatch(self):
        g = Grid(0.0, 0.5, 4)
        with pytest.raises(ValueError):
            SampledSignal(g, np.zeros(5))
