import numpy as np
import pytest

from lct_numra.canonical import CanonicalMatrix, fourier, fresnel, frft
from lct_numra.filters import (
    FilterConditionError,
    PeriodicFilterPair,
    TranslationSet,
    filter_eval,
    omega_enumerate,
)
from lct_numra.sampling import (
    Grid,
    GridMismatchError,
    SampledSignal,
    chirp_phase,
    dilate,
    gram_matrix,
    identity_deviation,
    inner_product,
    norm,
    numra_grid,
    translate_chirp,
)
from lct_numra.wavelets import (
    ConvergenceError,
    WaveletFamily,
    cascade,
    default_time_grid,
    grid_samples,
    haar_family,
    haar_filter_bank,
    haar_filters,
    haar_scaling,
    hat_to_signal,
    l2_distance_off_jumps,
    n2_reference_wavelets,
    piecewise_constant,
    project,
    served_engine,
    two_scale_residual,
)

from hat_reference import product_hat
from project_reference import project_loop
from smooth_banks import DB2_TAPS, eigenvalue_one_multiplicity, stretched_haar_taps

M2111 = CanonicalMatrix(2, 1, 1, 1)


def classical_haar_wavelet(grid):
    """The step wavelet +1 on [0, 1/2), -1 on [1/2, 1)."""
    return piecewise_constant([(0.0, 0.5, 1.0), (0.5, 1.0, -1.0)], grid)


def chirped_reference_wavelet(grid):
    """Piecewise chirp reference for the matrix (2, 1, 1, 1) family.

    exp(-8 i pi t^2) on [0, 1/2) and -exp(-2 i pi (2t - 1)^2) on [1/2, 1):
    a closed form quoted for cross-checking only, not assumed consistent
    with the library's own constructions.
    """
    t = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    first = (t >= -1e-12) & (t < 0.5 - 1e-12)
    second = (t >= 0.5 - 1e-12) & (t < 1.0 - 1e-12)
    vals[first] = np.exp(-8j * np.pi * t[first] ** 2)
    vals[second] = -np.exp(-2j * np.pi * (2.0 * t[second] - 1.0) ** 2)
    return SampledSignal(grid, vals)


@pytest.fixture(scope="module")
def haar1_cascade():
    ts = TranslationSet(1, 1)
    p0 = haar_filters(ts, fourier())
    return ts, p0, cascade(p0, J=20, tol=1e-5)


@pytest.fixture(scope="module")
def fine_family_fourier():
    """N = 1 family on a Nyquist-matched fine grid for Gram work."""
    ts = TranslationSet(1, 1)
    grid = numra_grid(ts, (-6.0, 6.0), refinement=8192)
    return ts, haar_family(ts, fourier(), grid=grid, oversample=1)


class TestHaarScaling:
    def test_n1_unit_indicator(self):
        ts = TranslationSet(1, 1)
        grid = default_time_grid(ts)
        phi = haar_scaling(ts, grid)
        t = grid.points()
        want = ((t >= 0) & (t < 1)).astype(complex)
        np.testing.assert_array_equal(phi.values, want)

    def test_n2_support(self):
        ts = TranslationSet(2, 1)
        grid = default_time_grid(ts)
        phi = haar_scaling(ts, grid)
        t = grid.points()
        want = (((t >= 0) & (t < 0.5)) | ((t >= 1) & (t < 1.5))).astype(complex)
        np.testing.assert_array_equal(phi.values, want)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_unit_measure(self, N):
        ts = TranslationSet(N, 1)
        grid = default_time_grid(ts)
        phi = haar_scaling(ts, grid)
        assert inner_product(phi, phi).real == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan])
def test_default_time_grid_refuses_step(step):
    # not silently replaced by the coarsest grid (step inf, -1) nor a ZeroDivisionError (0)
    with pytest.raises(ValueError, match=f"step must be finite and positive, got {step}"):
        default_time_grid(TranslationSet(1, 1), target_step=step)


class TestHaarFilters:
    def test_n1_constant_half(self):
        for m in (fourier(), M2111):
            p = haar_filters(TranslationSet(1, 1), m)
            np.testing.assert_allclose(p.comp1, 0.5, atol=1e-15)
            np.testing.assert_allclose(p.comp2, 0.5, atol=1e-15)

    @pytest.mark.parametrize("m", [fourier(), M2111], ids=["fourier", "haar2111"])
    def test_n2_closed_form(self, m):
        # phase-times-cosine form, valid when 8a/b is an integer
        p = haar_filters(TranslationSet(2, 1), m)
        u = p.u_grid.points()
        arg = 8 * np.pi * m.a / m.b + 4 * np.pi * u
        want = 0.5 * np.exp(-4j * np.pi * (2 * m.a / m.b + u)) * np.cos(arg)
        np.testing.assert_allclose(p.comp1, want, atol=1e-12)

    def test_lowpass_normalized_at_zero(self):
        for N in (1, 2, 3):
            p = haar_filters(TranslationSet(N, 1), M2111)
            assert filter_eval(p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_nonunimodular_needs_permissive_flag(self):
        from lct_numra.canonical import MatrixError

        bad = CanonicalMatrix(0, 1, 2, -1)
        with pytest.raises(MatrixError):
            haar_filters(TranslationSet(2, 1), bad)
        p = haar_filter_bank(TranslationSet(2, 1), bad, permissive=True)[0]
        assert filter_eval(p, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestCascade:
    def test_hat_closed_form(self, haar1_cascade):
        _, _, result = haar1_cascade
        u = np.array([0.001, 0.25, 0.5, 1.5, 3.7])
        want = np.exp(-1j * np.pi * u) * np.sin(np.pi * u) / (np.pi * u)
        np.testing.assert_allclose(product_hat(result.hat, u), want, atol=1e-6)

    def test_hat_is_one_at_zero(self, haar1_cascade):
        _, _, result = haar1_cascade
        assert product_hat(result.hat, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_reproduces_unit_indicator(self, haar1_cascade):
        ts, _, result = haar1_cascade
        ref = haar_scaling(ts, result.signal.grid)
        assert l2_distance_off_jumps(result.signal, ref, jumps=[0.0, 1.0]) <= 1e-2

    def test_tail_deviation_enforced(self, haar1_cascade):
        _, p0, result = haar1_cascade
        assert result.tail_deviation <= 1e-5
        with pytest.raises(ConvergenceError) as exc:
            cascade(p0, J=20, tol=1e-9)
        assert exc.value.deviation > 1e-9

    def test_two_scale_residual(self, haar1_cascade):
        _, _, result = haar1_cascade
        assert two_scale_residual(result.hat) <= 1e-6

    def test_two_scale_residual_n2(self):
        ts = TranslationSet(2, 1)
        p0 = haar_filters(ts, M2111)
        result = cascade(p0, J=20, tol=1e-5)
        assert two_scale_residual(result.hat) <= 1e-6

    def test_lattice_values_refuse_other_lattice(self, haar1_cascade):
        _, _, result = haar1_cascade
        grid = result.signal.grid
        assert served_engine([result.hat], grid) is result.engine
        with pytest.raises(ValueError, match=r"\(262144 points\).*\(131072 points\)"):
            served_engine([result.hat], grid, oversample=8)

    @pytest.mark.parametrize("J", [0, -3])
    def test_refuses_empty_product(self, haar1_cascade, J):
        # no factor: the product is 1 (a spike in time) and no tail is ever checked
        _, p0, _ = haar1_cascade
        with pytest.raises(ValueError, match=f"J >= 1 factors, got J={J}"):
            cascade(p0, J=J)

    def test_rejects_filter_without_unit_response(self):
        ts = TranslationSet(1, 1)
        base = haar_filters(ts, fourier())
        doubled = PeriodicFilterPair(ts, 2 * base.comp1, 2 * base.comp2)
        with pytest.raises(FilterConditionError):
            cascade(doubled)

    def test_refuses_grid_without_integral_lattice(self):
        # SPAN/step = 16/0.3 points: no lattice synthesises onto this grid
        with pytest.raises(ValueError, match="integral transform size"):
            cascade(haar_filters(TranslationSet(1, 1), fourier()), grid=Grid(0.0, 0.3, 8),
                    oversample=1)

    def test_hats_of_two_engines_refused(self):
        p0 = haar_filters(TranslationSet(1, 1), fourier())
        grid = numra_grid(p0.ts, (-2.0, 2.0), refinement=64)
        hats = [cascade(p0, grid=grid, oversample=1, depth=0).hat for _ in range(2)]
        with pytest.raises(ValueError, match="must share one engine"):
            served_engine(hats, grid)

    def test_rejects_nan_scaling_residual(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a gate on the largest residual would pass this
        import lct_numra.filters as filters

        monkeypatch.setattr(filters, "check_scaling_conditions", lambda p: (0.0, np.nan))
        with pytest.raises(FilterConditionError, match="3.4b residual nan"):
            cascade(haar_filters(TranslationSet(1, 1), fourier()))


class TestWaveletFromFilters:
    def test_classical_haar_reproduced(self, haar1_cascade):
        ts, _, result = haar1_cascade
        bank = haar_filter_bank(ts, fourier())
        psi = hat_to_signal(result.hat.child(bank[1]), result.grid)
        ref = classical_haar_wavelet(psi.grid)
        assert l2_distance_off_jumps(psi, ref, jumps=[0.0, 0.5, 1.0]) <= 1e-2

    def test_hat_at_zero_equals_filter_response(self, haar1_cascade):
        ts, _, result = haar1_cascade
        bank = haar_filter_bank(ts, fourier())
        psi_hat = result.hat.child(bank[1])
        want = filter_eval(bank[1], 0.0)
        assert product_hat(psi_hat, np.array([0.0]))[0] == pytest.approx(want, abs=1e-12)

    def test_product_identity_on_grid(self):
        # with the sign-flipped two-tap filter, the wavelet hat at 2u is
        # exactly (exp(-2 pi i u) - 1)/2 times the scaling hat at u
        ts = TranslationSet(1, 1)
        p0 = haar_filters(ts, M2111)
        result = cascade(p0, J=20, tol=1e-5)

        count = p0.u_grid.count
        pk = PeriodicFilterPair(ts, np.full(count, -0.5, dtype=complex),
                                np.full(count, 0.5, dtype=complex))
        psi_hat = result.hat.child(pk)
        u = np.linspace(-3.0, 3.0, 601)
        lhs = product_hat(psi_hat, 2 * u)
        rhs = 0.5 * (np.exp(-2j * np.pi * u) - 1.0) * product_hat(result.hat, u)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestGram:
    def test_single_unit_element(self):
        ts = TranslationSet(1, 1)
        grid = default_time_grid(ts)
        phi = haar_scaling(ts, grid)
        g = gram_matrix([phi])
        assert g.shape == (1, 1)
        assert identity_deviation(g) <= 1e-12

    def test_chirped_scaling_system_n2(self):
        # translates of the two-interval indicator under the quadratic
        # chirp: quadrature is exact, the Gram is the identity
        ts = TranslationSet(2, 1)
        grid = numra_grid(ts, (-8.0, 10.0), refinement=256)
        phi = haar_scaling(ts, grid)
        lambdas = omega_enumerate(ts, (-6.0, 6.0 + 1e-9))
        system = [translate_chirp(phi, lam, M2111) for lam in lambdas]
        assert identity_deviation(gram_matrix(system)) <= 1e-3

    def test_wavelet_orthogonal_to_scaling(self, fine_family_fourier):
        ts, fam = fine_family_fourier
        lambdas = omega_enumerate(ts, (-4.0, 4.0 + 1e-9))
        psis = [translate_chirp(fam.psi[0], lam, fam.m) for lam in lambdas]
        phis = [translate_chirp(fam.phi, lam, fam.m) for lam in lambdas]
        g = gram_matrix(psis + phis)
        n = len(psis)
        assert np.max(np.abs(g[:n, n:])) <= 1e-3

    def test_chirp_modulus_identity(self):
        ts = TranslationSet(2, 1)
        grid = numra_grid(ts, (-6.0, 8.0), refinement=128)
        phi = haar_scaling(ts, grid)
        lambdas = omega_enumerate(ts, (-4.0, 4.0 + 1e-9))
        chirped = gram_matrix([translate_chirp(phi, l, M2111) for l in lambdas])
        plain = gram_matrix([translate_chirp(phi, l, fourier()) for l in lambdas])
        np.testing.assert_allclose(np.abs(chirped), np.abs(plain), atol=1e-10)


@pytest.fixture(scope="module")
def family():
    ts = TranslationSet(1, 1)
    grid = numra_grid(ts, (-8.0, 8.0), refinement=1024)
    fam = haar_family(ts, fourier(), grid=grid)
    f = SampledSignal(grid, np.exp(-np.pi * grid.points() ** 2))
    return ts, grid, fam, f


class TestProjection:
    def test_reproduces_basis_element(self, family):
        ts, grid, fam, _ = family
        el = translate_chirp(fam.phi, 1.0, fam.m)
        res = project(el, fam.phi, fam.ts, fam.m, 0, (-6.0, 6.0))
        assert norm(SampledSignal(grid, res.signal.values - el.values)) <= 1e-6

    def test_contraction(self, family):
        _, grid, fam, f = family
        for j in (-2, 0, 1, 3):
            half = 6.0 * 2.0**max(j, 0)
            res = project(f, fam.phi, fam.ts, fam.m, j, (-half, half))
            assert norm(res.signal) <= norm(f) + 1e-6

    def test_error_decreases_with_level(self, family):
        _, grid, fam, f = family
        errs = []
        for j in range(0, 7):
            res = project(f, fam.phi, fam.ts, fam.m, j, (-6.0 * 2.0**j, 6.0 * 2.0**j))
            errs.append(norm(SampledSignal(grid, res.signal.values - f.values)))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_coarse_levels_vanish(self, family):
        _, _, fam, f = family
        res = project(f, fam.phi, fam.ts, fam.m, -8, (-6.0, 6.0))
        assert norm(res.signal) <= 0.05 * norm(f)

    def test_idempotent_and_nested(self, family):
        _, grid, fam, f = family
        p0 = project(f, fam.phi, fam.ts, fam.m, 0, (-6.0, 6.0)).signal
        again = project(p0, fam.phi, fam.ts, fam.m, 0, (-6.0, 6.0)).signal
        assert norm(SampledSignal(grid, again.values - p0.values)) <= 1e-3 * norm(f)
        up = project(p0, fam.phi, fam.ts, fam.m, 1, (-12.0, 12.0)).signal
        assert norm(SampledSignal(grid, up.values - p0.values)) <= 1e-3 * norm(f)

    def test_window_warning(self, family):
        _, _, fam, f = family
        res = project(f, fam.phi, fam.ts, fam.m, 0, (-1.0, 1.0))
        assert res.warnings

    def test_window_without_translation_refused(self, family):
        _, _, fam, f = family
        for window in [(0.1, 0.2), (5.0, 1.0)]:
            with pytest.raises(ValueError, match="holds no translation"):
                project(f, fam.phi, fam.ts, fam.m, 0, window)

    def test_level_budget(self, family):
        _, _, fam, f = family
        with pytest.raises(ValueError, match="budget"):
            project(f, fam.phi, fam.ts, fam.m, 17, (-1.0, 1.0))

    @pytest.mark.parametrize("m", [M2111, frft(0.3), fresnel(2.0)],
                             ids=["2111", "frft0.3", "fresnel2"])  # a/b = 1/2: exp(i pi lam^2 / 2)
    def test_chirped_matches_dense_sum(self, family, m):
        ts, grid, _, _ = family
        fam = haar_family(ts, m, grid=grid)
        t = grid.points()
        rng = np.random.default_rng(5)
        f = SampledSignal(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))
        nf = norm(f)
        window = (-4.0, 4.0)
        for j in (-1, 0, 2):
            res = project(f, fam.phi, fam.ts, fam.m, j, window)
            want = np.zeros(grid.count, dtype=np.complex128)
            for lam in omega_enumerate(ts, window):
                e = SampledSignal(grid, dilate(fam.phi, j, ts.N, lam).values
                                  * chirp_phase(m, t, lam))
                c = inner_product(f, e)
                assert abs(res.coefficients[lam] - c) <= 1e-14 * nf
                want += c * e.values
            assert np.max(np.abs(res.signal.values - want)) <= 1e-14 * nf

    @pytest.mark.parametrize("m", [M2111, CanonicalMatrix(0.5, 1, -0.75, 0.5)],
                             ids=["2111", "half"])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_loop_oracle(self, N, m):
        # the shared analysis and synthesis change only the summation order of the loop
        ts = TranslationSet(N, 1)
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64 * 2 * N)
        phi = haar_scaling(ts, grid)
        rng = np.random.default_rng(29 + N)
        f = SampledSignal(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))
        for j in (-1, 0, 1):
            res = project(f, phi, ts, m, j, (-2.0, 2.0))
            want, coeffs = project_loop(f, phi, ts, m, j, (-2.0, 2.0))
            got = np.array([res.coefficients[lam] for lam in coeffs])
            ref = np.array(list(coeffs.values()))
            assert list(res.coefficients) == list(coeffs)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
            assert np.max(np.abs(res.signal.values - want)) <= 1e-15 * np.max(np.abs(want))


class TestLawtonOracle:
    @pytest.mark.parametrize("taps,want", [
        ([0.5, 0.5], 1),
        (DB2_TAPS, 1),
        (stretched_haar_taps(3), 2),  # phi = chi[0,3]/3: its translates are not orthonormal
        (stretched_haar_taps(5), 2),
    ], ids=["haar", "db2", "stretched3", "stretched5"])
    def test_eigenvalue_one_is_simple_for_orthonormal_filters(self, taps, want):
        assert eigenvalue_one_multiplicity(taps) == want


class TestFamilyPipeline:
    @pytest.mark.parametrize("scale, match", [(2.0, "norm .* is not 1 within 2%"),
                                              (-1.0, "mean value .* differs from 1")])
    def test_scaling_function_refused(self, scale, match):
        # twice the unit indicator has norm 2; its negative has norm 1 and mean value -1
        ts = TranslationSet(1, 1)
        grid = numra_grid(ts, (-1.0, 2.0), refinement=64)
        phi = SampledSignal(grid, scale * haar_scaling(ts, grid).values)
        with pytest.raises(ValueError, match=match):
            WaveletFamily(ts, fourier(), phi, (), ())

    def test_family_invariants(self, fine_family_fourier):
        _, fam = fine_family_fourier
        assert norm(fam.phi) == pytest.approx(1.0, abs=0.02)
        assert len(fam.psi) == 1
        assert len(fam.filters) == 2

    def test_family_2111_wavelet_norms(self):
        # default grid is display grade; the norm deficit is the spectral
        # tail beyond its cutoff (certification runs use finer grids)
        ts = TranslationSet(2, 1)
        fam = haar_family(ts, M2111)
        for psi in fam.psi:
            assert norm(psi) == pytest.approx(1.0, abs=1e-2)


class TestReferenceFormulas:
    def test_n2_reference_wavelets_orthonormal(self):
        # the three piecewise-constant reference wavelets with their
        # chirped translates; exact quadrature, no tolerance stretching
        ts = TranslationSet(2, 1)
        m = CanonicalMatrix(0.0, 1.0, 2.0, -1.0)
        grid = numra_grid(ts, (-6.0, 8.0), refinement=256)
        lambdas = omega_enumerate(ts, (-4.0, 4.0 + 1e-9))
        psis = n2_reference_wavelets(grid)
        system = [translate_chirp(p, lam, m) for p in psis for lam in lambdas]
        assert identity_deviation(gram_matrix(system)) <= 1e-12

    def test_chirped_reference_wavelet_modulus(self):
        ts = TranslationSet(1, 1)
        grid = default_time_grid(ts)
        psi = chirped_reference_wavelet(grid)
        t = grid.points()
        inside = (t >= 0) & (t < 1)
        np.testing.assert_allclose(np.abs(psi.values[inside]), 1.0, atol=1e-15)
        assert norm(psi) == pytest.approx(1.0, abs=1e-6)

    def test_chirped_reference_differs_from_pipeline(self, haar1_cascade):
        # the closed-form chirped candidate for the (2,1,1,1) family is
        # reference data only; record that it does not coincide with the
        # pipeline wavelet (deterministic distance, no judgment)
        ts = TranslationSet(1, 1)
        p0 = haar_filters(ts, M2111)
        result = cascade(p0, J=20, tol=1e-5)
        bank = haar_filter_bank(ts, M2111)
        psi = hat_to_signal(result.hat.child(bank[1]), result.grid)
        ref = chirped_reference_wavelet(psi.grid)
        dist = l2_distance_off_jumps(psi, ref, jumps=[0.0, 0.5, 1.0])
        dist2 = l2_distance_off_jumps(psi, ref, jumps=[0.0, 0.5, 1.0])
        assert dist == dist2  # deterministic
        assert np.isfinite(dist)

    def test_distance_refuses_two_grids(self):
        ts = TranslationSet(1, 1)
        a = haar_scaling(ts, default_time_grid(ts))
        b = haar_scaling(ts, numra_grid(ts, (-1.0, 3.0), refinement=256))
        with pytest.raises(GridMismatchError):
            l2_distance_off_jumps(a, b, jumps=[0.0, 1.0])


def modulo_gather(fine, grid, oversample, shifts):
    """Grid samples delayed by each shift, gathered as fine[(idx - s) % n] from
    the inverse FFT's own order, in which sample i sits at time i span/n."""
    fine = np.fft.ifftshift(fine)
    idx = round(grid.t_min * oversample / grid.step) + oversample * np.arange(grid.count)
    return np.stack([fine[(idx - s) % fine.size] for s in shifts])


class TestGridSamples:
    @pytest.mark.parametrize("oversample", [1, 16])
    @pytest.mark.parametrize("window", [(-2.0, 3.0), (-8.0, -5.0), (5.5, 8.0), (-8.0, 8.0)],
                             ids=["inside", "low-edge", "high-edge", "whole-period"])
    def test_slice_cut_equals_modulo_gather(self, oversample, window):
        # the grids at -8 and 8 touch the period's edges; positive delays wrap
        # below its start, negative ones past its end, and the whole period
        # wraps for every delay but multiples of n
        step = 1.0 / 64
        grid = Grid(window[0], step, round((window[1] - window[0]) / step))
        n = round(oversample * 16.0 / step)
        rng = np.random.default_rng(3)
        fine = rng.normal(size=n) + 1j * rng.normal(size=n)
        shifts = [0, 1, -1, 5, -5, oversample * 64 + 3, -oversample * 64 - 3,
                  n - 1, 1 - n, n, 2 * n + 7, -3 * n - 2]
        got = np.stack([grid_samples(fine, grid, oversample=oversample, delay=s) for s in shifts])
        np.testing.assert_array_equal(got, modulo_gather(fine, grid, oversample, shifts))

    def test_refuses_grid_outside_period_or_off_lattice(self):
        fine = np.zeros(1024, dtype=complex)
        with pytest.raises(ValueError, match="period"):
            grid_samples(fine, Grid(7.0, 1.0 / 64, 128), oversample=1)
        with pytest.raises(ValueError, match="align"):
            grid_samples(fine, Grid(0.25 / 64, 1.0 / 64, 128), oversample=1)
