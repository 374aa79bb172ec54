import dataclasses

import numpy as np
import pytest

from lct_numra.canonical import CanonicalMatrix, fourier, fresnel, frft
from lct_numra.filters import (
    FilterConditionError,
    PeriodicFilterPair,
    TranslationSet,
    bank_residuals,
    check_m0_period,
    check_orthonormality,
    check_scaling_conditions,
    complete_filters,
    default_u_count,
    filter_eval,
    omega_enumerate,
    sample_grid,
    shift_sums,
)
from lct_numra.reports import bank_report
from lct_numra.sampling import Grid, SampledSignal, numra_grid
from lct_numra.wavelets import frequency_samples, haar_family, haar_filter_bank, haar_filters

from hat_reference import ExactRows, bins_pair

M2111 = CanonicalMatrix(2, 1, 1, 1)


def u_grid(ts):
    return sample_grid(default_u_count(ts))


def m0(p: PeriodicFilterPair, u):
    """Power profile |comp1(u)|^2 + |comp2(u)|^2 (nonnegative real)."""
    c1, c2 = p.components_at(u)
    vals = np.abs(c1) ** 2 + np.abs(c2) ** 2
    return float(vals) if np.isscalar(u) else vals


def constant_pair(ts, c1, c2):
    grid = u_grid(ts)
    return PeriodicFilterPair(ts, np.full(grid.count, c1, dtype=complex),
                              np.full(grid.count, c2, dtype=complex))


def ramp_pair(ts):
    """comp1(u) = u on [0, 1/2), comp2 = 0: no short trigonometric polynomial."""
    grid = u_grid(ts)
    return PeriodicFilterPair(ts, grid.points().astype(complex),
                              np.zeros(grid.count, dtype=complex))


def nearest_sample_response(p, u):
    """Nearest-sample response: the component samples nearest u mod 1/2."""
    idx = np.round(np.mod(u, 0.5) / p.u_grid.step).astype(int) % p.u_grid.count
    return p.comp1[idx] + np.exp(-2j * np.pi * np.mod(u, p.ts.N) * p.ts.r / p.ts.N) * p.comp2[idx]


class TestTranslationSet:
    def test_valid(self):
        ts = TranslationSet(2, 1)
        assert ts.dilation == 4

    @pytest.mark.parametrize("N,r", [(2, 2), (2, 5), (3, 3), (0, 1), (4, 9)])
    def test_invalid(self, N, r):
        with pytest.raises(ValueError):
            TranslationSet(N, r)

    def test_u_count_multiple_of_4n(self):
        assert default_u_count(TranslationSet(1, 1)) == 4096
        assert default_u_count(TranslationSet(2, 1)) == 4096
        assert default_u_count(TranslationSet(3, 1)) == 4104


class TestOmegaEnumerate:
    def test_integers_when_n_is_one(self):
        ts = TranslationSet(1, 1)
        assert omega_enumerate(ts, (0.0, 4.0)) == [0.0, 1.0, 2.0, 3.0]

    def test_n2(self):
        ts = TranslationSet(2, 1)
        assert omega_enumerate(ts, (0.0, 4.0)) == [0.0, 0.5, 2.0, 2.5]

    def test_n3_r5(self):
        ts = TranslationSet(3, 5)
        got = omega_enumerate(ts, (0.0, 2.0))
        assert got == pytest.approx([0.0, 5.0 / 3.0])

    def test_empty_window(self):
        assert omega_enumerate(TranslationSet(1, 1), (1.0, 1.0)) == []

    def test_elements_have_lattice_form(self):
        ts = TranslationSet(3, 5)
        for lam in omega_enumerate(ts, (-7.0, 7.0)):
            # lam = 2n or 2n + r/N exactly for some integer n
            r0 = lam / 2.0
            r1 = (lam - ts.r / ts.N) / 2.0
            assert min(abs(r0 - round(r0)), abs(r1 - round(r1))) < 1e-12


class TestFilterEval:
    def test_haar_n1_at_zero(self):
        ts = TranslationSet(1, 1)
        p = constant_pair(ts, 0.5, 0.5)
        assert filter_eval(p, 0.0) == pytest.approx(1.0)

    def test_haar_n1_at_quarter(self):
        ts = TranslationSet(1, 1)
        p = constant_pair(ts, 0.5, 0.5)
        assert filter_eval(p, 0.25) == pytest.approx(0.5 * (1 - 1j))

    def test_zero_filter(self):
        ts = TranslationSet(2, 1)
        p = constant_pair(ts, 0.0, 0.0)
        u = np.linspace(-3, 3, 101)
        np.testing.assert_array_equal(filter_eval(p, u), np.zeros(101))

    def test_pair_rebuilt_from_samples_evaluates_alike(self):
        # the samples are the whole filter: a pair rebuilt from them is the same filter
        ts = TranslationSet(1, 1)
        exact = haar_filters(ts, M2111)
        sampled = PeriodicFilterPair(ts, exact.comp1, exact.comp2)
        u = np.linspace(0, 0.5, 333, endpoint=False)
        np.testing.assert_allclose(
            filter_eval(sampled, u), filter_eval(exact, u), atol=1e-12
        )

    @pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1)])
    def test_haar_bank_exact_at_large_u(self, N, r):
        # the q-power evaluator against the closed form with u reduced exactly
        ts = TranslationSet(N, r)
        bank = haar_filter_bank(ts, M2111)
        u = np.random.default_rng(N + r).uniform(-1500.0, 1500.0, 2000)
        # the remainders of |u| < 1500 by 1/2 and by N are exact in floating point
        u_half, u_n = np.mod(u, 0.5), np.mod(u, N)
        coeffs = np.exp(1j * np.pi * M2111.a * (4.0 * np.arange(N)) ** 2 / M2111.b)
        for d in range(N):
            tw = coeffs * np.exp(-2j * np.pi * d * np.arange(N) / N)
            comp = sum(c * np.exp(-8j * np.pi * u_half * k) for k, c in enumerate(tw)) / (2 * N)
            for s in (0, 1):
                want = comp * (1 + (-1) ** s * np.exp(-2j * np.pi * u_n * r / N))
                p = bank[2 * d + s]
                assert p.exact
                np.testing.assert_allclose(filter_eval(p, u), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("N,r,bins", [(1, 1, (-1, 0, 2)), (2, 1, (1, 3)), (3, 5, (2, 5, 8))])
    def test_pair_off_bin_zero_exact_at_large_u(self, N, r, bins):
        # a lowest nonzero bin other than 0: the terms' polynomial in z^g times z^lo
        ts = TranslationSet(N, r)
        p, closed = bins_pair(ts, bins)
        assert p.exact and p._sparse[0] == bins[0]
        u = np.random.default_rng(N + r).uniform(-1500.0, 1500.0, 2000)
        np.testing.assert_allclose(filter_eval(p, u), closed(u), rtol=0, atol=1e-13)

    def test_nearest_sample_fallback_for_ramp(self):
        p = ramp_pair(TranslationSet(2, 1))
        assert not p.exact
        u = np.random.default_rng(3).uniform(-4.0, 4.0, 1000)
        np.testing.assert_array_equal(filter_eval(p, u), nearest_sample_response(p, u))

    @pytest.mark.parametrize("N,exact", [(1, False), (2, False), (1, True), (2, True), (3, True)],
                             ids=["nearest-1", "nearest-2", "exact-1", "exact-2", "exact-3"])
    def test_response_has_period_n(self, N, exact):
        # components take u mod 1/2 and the phase u mod N, so u + k N repeats the
        # response of u bit for bit at dyadic u, as lattice rows on their period need;
        # a ramp pair is read by nearest sample, every Haar bank filter from its terms
        ts = TranslationSet(N, 1)
        if exact:
            pairs = haar_filter_bank(ts, M2111)
        else:
            ramp = u_grid(ts).points().astype(complex)
            pairs = [PeriodicFilterPair(ts, ramp, 1j * ramp)]
        u = np.random.default_rng(11).integers(-2**12, 2**12, 1000) / 2.0**8
        for p in pairs:
            assert p.exact == exact
            for k in (1, 16, 256, 4096):
                np.testing.assert_array_equal(filter_eval(p, u + k * N), filter_eval(p, u))

    @pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)])
    def test_exact_pairs_agree_with_lattice_phases(self, N, r):
        # the two evaluators of an exact pair's terms: filter_eval at u/(2N)^j against
        # ExactRows (phases reduced in Python integers, exps in long double); the
        # rounding of the float u, up to |u| = 216 here, sets the error
        ts = TranslationSet(N, r)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=72)
        u = frequency_samples(grid, oversample=1)
        exact = ExactRows(u.size)
        for pair in haar_filter_bank(ts, M2111):
            for j in range(4):
                got = filter_eval(pair, u / float(2 * N) ** j)
                assert np.max(np.abs(got - exact.row(pair, j))) <= 2e-13

    def test_scalar_in_complex_out(self):
        p = haar_filters(TranslationSet(2, 1), M2111)
        assert isinstance(filter_eval(p, 0.3), complex)
        assert filter_eval(p, 0.3) == filter_eval(p, np.array([0.3]))[0]
        assert isinstance(m0(p, 0.3), float)

    def test_cross_phase_uses_unreduced_argument(self):
        ts = TranslationSet(2, 1)
        p = constant_pair(ts, 0.5, 0.5)
        # components are half-periodic but the full response is not
        assert filter_eval(p, 0.1 + 0.5) != pytest.approx(filter_eval(p, 0.1))


class TestM0:
    def test_haar_n1_constant(self):
        ts = TranslationSet(1, 1)
        p = haar_filters(ts, M2111)
        u = np.linspace(-1, 1, 201)
        np.testing.assert_allclose(m0(p, u), 0.5, atol=1e-14)

    def test_zero_filter(self):
        p = constant_pair(TranslationSet(1, 1), 0.0, 0.0)
        assert m0(p, 0.3) == 0.0

    @pytest.mark.parametrize(
        "m", [fourier(), fresnel(1.0), M2111], ids=["fourier", "fresnel1", "haar2111"]
    )
    def test_haar_n2_closed_form(self, m):
        # for matrices with 8a/b integral the profile is cos^2 / 2
        ts = TranslationSet(2, 1)
        p = haar_filters(ts, m)
        u = np.linspace(0, 0.5, 257, endpoint=False)
        want = 0.5 * np.cos(8 * np.pi * m.a / m.b + 4 * np.pi * u) ** 2
        np.testing.assert_allclose(m0(p, u), want, atol=1e-12)


class TestQuarterPeriod:
    def test_constant_profile(self):
        p = haar_filters(TranslationSet(1, 1), M2111)
        assert check_m0_period(p) == 0.0

    def test_haar_n2(self):
        p = haar_filters(TranslationSet(2, 1), M2111)
        assert check_m0_period(p) <= 1e-12

    def test_adversarial_ramp_fails(self):
        p = ramp_pair(TranslationSet(1, 1))
        assert check_m0_period(p) > 0.01


class TestOrthonormality:
    def test_haar_n1_self(self):
        p = haar_filters(TranslationSet(1, 1), M2111)
        r21, r22 = check_orthonormality(p, p, same_index=True)
        assert r21 <= 1e-12 and r22 <= 1e-12

    def test_zero_filter_detected(self):
        p = constant_pair(TranslationSet(1, 1), 0.0, 0.0)
        r21, _ = check_orthonormality(p, p, same_index=True)
        assert r21 == pytest.approx(1.0)

    def test_mismatched_sets_rejected(self):
        a = haar_filters(TranslationSet(1, 1), M2111)
        b = haar_filters(TranslationSet(2, 1), M2111)
        with pytest.raises(FilterConditionError):
            check_orthonormality(a, b, same_index=False)

    def test_mismatched_counts_rejected(self):
        ts = TranslationSet(1, 1)
        a, b = constant_pair(ts, 0.5, 0.5), PeriodicFilterPair(ts, np.ones(8), np.ones(8))
        with pytest.raises(FilterConditionError, match="different sample counts"):
            check_orthonormality(a, b, same_index=False)

    def test_unimodular_rescaling_invariance(self):
        ts = TranslationSet(2, 1)
        base = haar_filters(ts, M2111)
        r21_base, _ = check_orthonormality(base, base, same_index=True)
        phase = np.exp(0.7j)
        scaled = PeriodicFilterPair(ts, phase * base.comp1, phase * base.comp2)
        r21_scaled, _ = check_orthonormality(scaled, scaled, same_index=True)
        assert r21_scaled == pytest.approx(r21_base, abs=1e-12)


class TestScalingConditions:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_haar_families(self, N):
        ts = TranslationSet(N, 1)
        p = haar_filters(ts, M2111)
        ra, rb = check_scaling_conditions(p)
        assert ra <= 1e-12 and rb <= 1e-12

    def test_doubled_filter_detected(self):
        ts = TranslationSet(1, 1)
        base = haar_filters(ts, M2111)
        doubled = PeriodicFilterPair(ts, 2 * base.comp1, 2 * base.comp2)
        ra, _ = check_scaling_conditions(doubled)
        assert ra == pytest.approx(3.0)


class TestShiftSums:
    @pytest.mark.parametrize("N,r", [(1, 1), (2, 3), (3, 5)])
    def test_stride_is_a_2n_th_of_the_length(self, N, r):
        ts = TranslationSet(N, r)
        x = np.random.default_rng(N).normal(size=24 * N) + 0j
        plain, twisted = shift_sums(x, ts)
        shifted = [x[(np.arange(x.size) + p * 12) % x.size] for p in range(2 * N)]  # 24N / 2N
        twists = np.exp(-1j * np.pi * r * np.arange(2 * N) / N)
        np.testing.assert_allclose(plain, sum(shifted), rtol=0, atol=1e-13)
        np.testing.assert_allclose(twisted, twists @ np.array(shifted), rtol=0, atol=1e-13)

    def test_length_2n_does_not_divide_refused(self):
        with pytest.raises(ValueError, match=r"10 samples do not split into 2N = 6 shifts"):
            shift_sums(np.ones(10), TranslationSet(3, 1))


def per_sample_completion(p0):
    """The completion one sample at a time: reference for the stacked one.

    Returns (2N - 1, 2, count) components of the high-pass pairs.
    """
    N = p0.ts.N
    two_n, base = 2 * N, p0.u_grid.count // (2 * N)
    out = np.zeros((two_n - 1, 2, p0.u_grid.count), dtype=complex)

    def dot(a, b):
        return np.sum(a * np.conj(b))

    def align(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx < 1e-14 or ny < 1e-14:
            return np.eye(2, dtype=complex)
        frames = [np.column_stack([v, [-np.conj(v[1]), np.conj(v[0])]]) for v in (x / nx, y / ny)]
        return frames[1] @ frames[0].conj().T

    for i in range(base):
        idx = i + base * np.arange(two_n)
        v0 = np.column_stack([p0.comp1[idx], p0.comp2[idx]])
        seeds = []
        for p in range(N):
            aligner = align(v0[p], v0[p + N])
            for slot in range(2):
                e = np.zeros((two_n, 2), dtype=complex)
                e[p, slot] = 1.0 / np.sqrt(2.0)
                e[p + N] = aligner[:, slot] / np.sqrt(2.0)
                seeds.append(e)
        basis = [v0 / np.sqrt(dot(v0, v0).real)]
        remaining = list(range(two_n))
        for _ in range(two_n - 1):
            best, best_norm = None, -1.0
            for si in remaining:
                res = seeds[si].copy()
                for b in basis:
                    res -= dot(res, b) * b
                rnorm = np.sqrt(dot(res, res).real)
                if rnorm > best_norm + 1e-12:
                    best, best_res, best_norm = si, res, rnorm
            vec = best_res / best_norm
            for b in basis:
                vec -= dot(vec, b) * b
            basis.append(vec / np.sqrt(dot(vec, vec).real))
            remaining.remove(best)
        out[:, :, idx] = np.transpose(basis[1:], (0, 2, 1))
    return out


class TestCompletion:
    @pytest.mark.parametrize("N, r, m", [(1, 1, M2111), (2, 1, M2111), (3, 1, M2111),
                                         (2, 3, fourier()), (3, 5, frft(0.3)), (2, 1, frft(0.3))],
                             ids=["1-2111", "2-2111", "3-2111", "2-r3-fourier", "3-r5-frft0.3",
                                  "2-frft0.3"])
    def test_matches_per_sample_reference(self, N, r, m):
        # the closed-form low-pass sampled on 128N points keeps the reference loop short
        ts, grid = TranslationSet(N, r), sample_grid(128 * N)
        p0 = PeriodicFilterPair(ts, *haar_filters(ts, m).components_at(grid.points()))
        got = np.array([[h.comp1, h.comp2] for h in complete_filters(p0)])
        assert np.max(np.abs(got - per_sample_completion(p0))) <= 1e-15

    @pytest.mark.parametrize("N, r", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)],
                             ids=["1", "2", "2-r3", "3", "3-r5"])
    def test_self_certifying(self, N, r):
        ts = TranslationSet(N, r)
        p0 = haar_filters(ts, M2111)
        highs = complete_filters(p0)
        assert len(highs) == 2 * N - 1
        bank = [p0] + highs
        for i, pl in enumerate(bank):
            for j, pk in enumerate(bank):
                r21, r22 = check_orthonormality(pl, pk, same_index=(i == j))
                assert r21 <= 1e-10 and r22 <= 1e-10

    def test_n2_outputs_use_nearest_sample(self):
        # the pointwise completion is no short trigonometric polynomial
        ts = TranslationSet(2, 1)
        highs = complete_filters(haar_filters(ts, M2111))
        u = np.random.default_rng(5).uniform(-4.0, 4.0, 1000)
        for h in highs:
            assert not h.exact
            np.testing.assert_array_equal(filter_eval(h, u), nearest_sample_response(h, u))

    def test_n1_recovers_classical_highpass(self):
        ts = TranslationSet(1, 1)
        p0 = haar_filters(ts, M2111)
        high = complete_filters(p0)[0]
        want = haar_filter_bank(ts, M2111)[1]
        np.testing.assert_allclose(high.comp1, want.comp1, atol=1e-12)
        np.testing.assert_allclose(high.comp2, want.comp2, atol=1e-12)

    def test_highpass_completes_but_report_names_l0(self):
        # completion needs 2.33 and the scaling sums, not L(0) = 1; the report of the
        # completed "bank" still refuses its filter 0 as a low-pass
        high = haar_filter_bank(TranslationSet(2, 1), M2111)[1]
        bank = [high] + complete_filters(high)
        assert len(bank) == 4
        assert bank_report(bank)["violations"] == ["L0"]

    def test_inadmissible_input_rejected(self):
        p = ramp_pair(TranslationSet(1, 1))
        with pytest.raises(FilterConditionError, match="admissibility"):
            complete_filters(p)


class TestBankResiduals:
    def test_closed_form_bank(self):
        bank = haar_filter_bank(TranslationSet(2, 1), M2111)
        res = bank_residuals(bank)
        assert set(res) == {"2.21", "2.22", "2.33", "3.4a", "3.4b", "L0"}
        assert max(res.values()) <= 1e-12

    def test_nan_pair_residual_kept(self):
        # components near 1e200 overflow the products; the twisted sum turns NaN
        p0 = haar_filters(TranslationSet(1, 1), M2111)
        big = PeriodicFilterPair(p0.ts, 1e200 * p0.comp1, 1e200 * p0.comp2)
        with np.errstate(all="ignore"):
            r21, r22 = check_orthonormality(big, big, same_index=True)
            res = bank_residuals([big])
        assert np.isnan(r22) and np.isnan(res["2.22"])
        assert res["2.21"] == r21 == np.inf


class TestPairValidation:
    def test_count_multiple_of_4n(self):
        ts = TranslationSet(3, 1)
        with pytest.raises(ValueError, match="4N"):  # 4096 not divisible by 12
            PeriodicFilterPair(ts, np.zeros(4096), np.zeros(4096))
        with pytest.raises(ValueError, match="positive multiple of 4N"):
            PeriodicFilterPair(ts, np.zeros(0), np.zeros(0))

    def test_grid_follows_sample_count(self):
        # the samples are the lattice: count points over [0, 1/2), set by no argument
        ts = TranslationSet(3, 1)
        p = PeriodicFilterPair(ts, np.ones(120), np.zeros(120))
        assert p.u_grid == sample_grid(120) == Grid(0.0, 0.5 / 120, 120)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.u_grid = sample_grid(240)
        with pytest.raises(TypeError):
            PeriodicFilterPair(ts, sample_grid(120), np.ones(120), np.zeros(120))

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="comp2 must be 120 samples, as comp1 is"):
            PeriodicFilterPair(TranslationSet(3, 1), np.ones(120), np.zeros(240))

    def test_pairs_compare_by_identity(self):
        # equal samples, two pairs: == compared the sample arrays and raised "The truth
        # value of an array ... is ambiguous", in a bank's ``in`` and a family's == too
        ts = TranslationSet(2, 1)
        a, b = haar_filter_bank(ts, M2111), haar_filter_bank(ts, M2111)
        assert a[0] == a[0] and a[0] != b[0]
        assert a[0] in a and b[0] not in a
        assert len({*a, *b}) == 8
        grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
        fam_a, fam_b = (haar_family(ts, M2111, grid=grid, oversample=1) for _ in range(2))
        assert fam_a == fam_a and fam_a != fam_b

    def test_strided_input_accepted_and_checked(self):
        # both constructors take every other column of a stacked array as it is
        # and still refuse a NaN in it; a contiguous input is kept, not copied
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        st = np.stack([bank[1].comp1, bank[1].comp2], axis=1)
        p = PeriodicFilterPair(ts, st[:, 0], st[:, 1])
        np.testing.assert_array_equal(p.comp1, bank[1].comp1)
        np.testing.assert_array_equal(p.comp2, bank[1].comp2)
        x = np.exp(1j * np.arange(16.0))
        sig = SampledSignal(Grid(0.0, 1.0, 8), x[::2])
        np.testing.assert_array_equal(sig.values, x[::2])
        assert np.shares_memory(SampledSignal(Grid(0.0, 1.0, 16), x).values, x)
        st[5, 1] = x[6] = np.nan
        with pytest.raises(ValueError, match="comp2 must be finite"):
            PeriodicFilterPair(ts, st[:, 0], st[:, 1])
        with pytest.raises(ValueError, match="finite"):
            SampledSignal(Grid(0.0, 1.0, 8), x[::2])
        with pytest.raises(ValueError, match="length"):
            SampledSignal(Grid(0.0, 1.0, 1), np.complex128(1.0))
