import os
import signal
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lct_numra import lct
from lct_numra.canonical import (
    CanonicalMatrix,
    MatrixError,
    compose,
    fourier,
    fresnel,
    frft,
    kernel,
)
from lct_numra.filters import TranslationSet
from lct_numra.lct import (
    LctSpectrum,
    ilct,
    induced_omega_grid,
    lct_direct,
    lct_fast,
    parseval_residual,
)
from lct_numra.packets import generate_packets
from lct_numra.sampling import (
    Grid,
    SampledSignal,
    chirp_phase,
    gaussian,
    indicator,
    inner_product,
    numra_grid,
)
from lct_numra.wavelets import haar_filter_bank

M2111 = CanonicalMatrix(2, 1, 1, 1)
MATRICES = [fourier(), fresnel(1.0), M2111, frft(-1.0)]
MATRIX_IDS = ["fourier", "fresnel1", "haar2111", "frft_neg"]
CLOSED_FORM_MATRICES = MATRICES + [frft(0.3), fresnel(-2.0)]
CLOSED_FORM_IDS = MATRIX_IDS + ["frft0.3", "fresnel-2"]
NONZERO = st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 0.1)


def grid_n(n, lo=-8.0, hi=8.0):
    return Grid(lo, (hi - lo) / n, n)


def gaussian_spectrum(m, u):
    """Closed form of the transform of exp(-pi t^2) by any m (b != 0); exp(-pi u^2) / sqrt(i)
    for the Fourier matrix.

    With alpha = 1 - i a/b, the input chirp and the Gaussian merge into exp(-pi alpha t^2),
    whose plain transform at u/b is exp(-pi (u/b)^2 / alpha) / sqrt(alpha) (Re alpha = 1):
    L_m[exp(-pi t^2)](u) = exp(i pi (d/b) u^2) exp(-pi (u/b)^2 / alpha) / (sqrt(alpha) sqrt(i b)).
    """
    alpha = 1.0 - 1j * m.a / m.b
    return (np.exp(1j * np.pi * m.d / m.b * u**2 - np.pi * (u / m.b) ** 2 / alpha)
            / (np.sqrt(alpha) * np.sqrt(1j * m.b)))


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
        u_grid = Grid(-6.0, 12.0 / 257, 257)
        out = lct_direct(f, fourier(), u_grid)
        want = gaussian_spectrum(fourier(), u_grid.points())
        assert np.max(np.abs(out.values - want)) < 1e-6

    def test_even_symmetry(self):
        # |L f| is even in u for real even f when a = d
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
    @pytest.mark.parametrize("m", MATRICES, ids=MATRIX_IDS)
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
                np.sum(f.values * np.exp(-2j * np.pi * t * u)) * g.step
                for u in fast.grid.points()
            ]
        ) / np.sqrt(1j)
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
        # sum |F|^2 du = sum |f|^2 dt holds exactly on the induced grid, for either sign of b
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
        assert out.grid == induced_omega_grid(g, m)
        direct = lct_direct(gaussian(g), m, out.grid)
        assert rel_l2(out.values, direct.values) <= 1e-6


class TestInverse:
    @pytest.mark.parametrize("m", MATRICES, ids=MATRIX_IDS)
    def test_fast_round_trip(self, m):
        g = grid_n(2048)
        f = gaussian(g)
        back = ilct(lct_fast(f, m), m, g, method="fast")
        assert rel_l2(back.values, f.values) <= 1e-6

    @pytest.mark.parametrize("m", [fresnel(1.0), M2111], ids=["fresnel1", "haar2111"])
    def test_fast_round_trip_exact_at_2_17(self, m):
        # the inverse undoes the forward's own factor table, so no chirp drift at large n
        g = grid_n(2**17)
        t = g.points()
        f = SampledSignal(g, np.exp(-np.pi * t**2 + 0.5j * t**2))
        back = ilct(lct_fast(f, m), m, g, method="fast")
        assert rel_l2(back.values, f.values) <= 1e-12

    @pytest.mark.parametrize("m", CLOSED_FORM_MATRICES, ids=CLOSED_FORM_IDS)
    def test_direct_round_trip(self, m):
        g = grid_n(1024)
        f = gaussian(g)
        spec = lct_direct(f, m, induced_omega_grid(g, m))
        back = ilct(spec, m, g, method="direct")
        assert rel_l2(back.values, f.values) <= 1e-6

    @pytest.mark.parametrize("m", CLOSED_FORM_MATRICES, ids=CLOSED_FORM_IDS)
    def test_kernel_of_inverse_matrix(self, m):
        # conj K_m(t, u) = K_{m^-1}(u, t), the direct inverse's identity: a root off the
        # principal branch for one sign of b flips the sign of one side
        t = np.linspace(-3.0, 3.0, 61)
        u = np.linspace(-2.5, 3.5, 53)
        inverse = CanonicalMatrix(m.d, -m.b, -m.c, m.a)
        want = np.conj(kernel(m, t[:, None], u[None, :]))
        got = kernel(inverse, u[None, :], t[:, None])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_zero_spectrum(self):
        g = grid_n(256)
        spec = LctSpectrum(induced_omega_grid(g, fourier()), np.zeros(256))
        out = ilct(spec, fourier(), g)
        assert np.all(out.values == 0)

    def test_closed_form_spectrum_inverts_to_gaussian(self):
        g = grid_n(2048)
        ogrid = induced_omega_grid(g, fourier())
        spec = LctSpectrum(ogrid, gaussian_spectrum(fourier(), ogrid.points()))
        out = ilct(spec, fourier(), g, method="fast")
        assert rel_l2(out.values, gaussian(g).values) <= 1e-6

    def test_odd_count_inverts_by_quadrature(self):
        # the (-1)^j fold needs an even count: auto takes the direct path, fast refuses
        g = grid_n(255)
        spec = lct_direct(gaussian(g), M2111, induced_omega_grid(g, M2111))
        with pytest.warns(RuntimeWarning, match=r"odd count 255\): 255 x 255 kernel evaluations"):
            auto = ilct(spec, M2111, g)
        np.testing.assert_array_equal(auto.values, ilct(spec, M2111, g, method="direct").values)
        with pytest.raises(ValueError, match="even count"):
            ilct(spec, M2111, g, method="fast")

    def test_unknown_method_refused(self):
        g = grid_n(256)
        spec = lct_fast(gaussian(g), M2111)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            ilct(spec, M2111, g, method="bogus")

    def test_fast_requires_induced_grid(self):
        g = grid_n(256)
        spec = LctSpectrum(Grid(-1.0, 0.01, 256), np.zeros(256))
        with pytest.raises(ValueError, match="induced"):
            ilct(spec, fourier(), g, method="fast")


def gather_reference(f, m):
    """Fast transform without the (-1)^j fold: FFT, then gather DFT bin sign(b) k mod n.

    The chirp and output factor are the cached table's, the chirp with its fold undone by
    exact negation, so the comparison checks the fold and nothing else."""
    n = f.grid.count
    k = np.arange(n) - n // 2
    bins = ((1 if m.b > 0 else -1) * k) % n
    _, chirp, out = lct._factors(f.grid, m)
    chirp = chirp.copy()
    chirp[1::2] *= -1.0
    x = np.take(np.fft.fft(f.values * chirp), bins)
    # in place into the first operand, as lct_fast does: numpy's complex multiply can
    # round differently when its output is the second operand (a temporary it reuses)
    x *= out
    return x


def random_signal(g, seed=5):
    rng = np.random.default_rng(seed)
    return SampledSignal(g, rng.normal(size=g.count) + 1j * rng.normal(size=g.count))


class TestFactorCache:
    @staticmethod
    def cold(f, m):
        """Forward and fast inverse, built while the size class holds another key."""
        lct_fast(f, fresnel(7.0))
        spec = lct_fast(f, m)
        lct_fast(f, fresnel(7.0))
        return spec.values, ilct(spec, m, f.grid, method="fast").values

    @pytest.mark.parametrize(
        "grid_b, m_a, m_b",
        [
            (grid_n(1024, -7.0, 9.0), M2111, M2111),  # only t_min
            (grid_n(1024), fourier(), CanonicalMatrix(0, 1, -1, 0.5)),  # only d
            (grid_n(1024), fresnel(1.0), fresnel(-1.0)),  # only the sign of b
        ],
        ids=["t_min", "d", "b_sign"],
    )
    def test_keys_that_differ_in_one_entry(self, grid_b, m_a, m_b):
        f_a = random_signal(grid_n(1024))
        f_b = SampledSignal(grid_b, f_a.values)
        want = {"A": self.cold(f_a, m_a), "B": self.cold(f_b, m_b)}
        assert not np.array_equal(want["A"][0], want["B"][0])
        for name, f, m in [("A", f_a, m_a), ("A", f_a, m_a), ("B", f_b, m_b), ("A", f_a, m_a)]:
            spec = lct_fast(f, m)
            np.testing.assert_array_equal(spec.values, want[name][0])
            np.testing.assert_array_equal(ilct(spec, m, f.grid, method="fast").values, want[name][1])

    @pytest.mark.parametrize("m", MATRICES, ids=MATRIX_IDS)
    def test_fast_inverse_matches_whole_array_product(self, m):
        # the fast inverse conjugates the chirp one block at a time: bit for bit the
        # whole-array product into x (numpy may round differently into a temporary)
        g = grid_n(4 * lct._FILL)
        spec = lct_fast(random_signal(g), m)
        _, chirp, out = lct._factors(g, m)
        x = spec.values / out
        (np.fft.ifft if m.b > 0 else np.fft.fft)(x, out=x, norm="backward" if m.b > 0 else "forward")
        want = np.multiply(x, np.conj(chirp), out=x)
        np.testing.assert_array_equal(ilct(spec, m, g, method="fast").values, want)

    def test_table_is_read_only(self):
        _, chirp, out = lct._factors(grid_n(256), M2111)
        for arr in (chirp, out):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_one_table_per_size_class(self):
        grids = {e: grid_n(2**e) for e in (8, 10, 12)}
        other = fresnel(2.0)
        lct_fast(gaussian(grids[8]), M2111)
        lct_fast(gaussian(grids[10]), M2111)
        first = weakref.ref(lct._factors(grids[10], M2111)[1])
        lct_fast(gaussian(grids[10]), other)
        lct_fast(gaussian(grids[12]), M2111)
        assert first() is None  # the replaced 2^10 table is freed
        held = {size: slot[0] for size, slot in lct._TABLES.items()}
        assert held[9] == (grids[8], M2111)
        assert held[11] == (grids[10], other)
        assert held[13] == (grids[12], M2111)

    @pytest.mark.parametrize("n", [2**11, 2**14])
    @pytest.mark.parametrize("m", MATRICES, ids=MATRIX_IDS)
    def test_matches_gather_reference(self, m, n):
        f = random_signal(grid_n(n))
        got, want = lct_fast(f, m).values, gather_reference(f, m)
        if m.b > 0:
            np.testing.assert_array_equal(got, want)
        else:
            assert rel_l2(got, want) <= 1e-15


def one_fft(values, m, t_grid, inverse=False):
    """lct_fast (or the fast ilct) by the whole-array formulas: one FFT, no radix-2 step."""
    _, chirp, out = lct._factors(t_grid, m)
    norm = "backward" if m.b > 0 else "forward"
    transform = np.fft.fft if (m.b > 0) != inverse else np.fft.ifft
    x = values / out if inverse else values * chirp
    transform(x, out=x, norm=norm)
    return np.multiply(x, np.conj(chirp) if inverse else out, out=x)


class TestSplit:
    """From ``_SPLIT`` points on, a transform takes one radix-2 step on two threads."""

    @pytest.mark.parametrize("e", [17, 18])
    @pytest.mark.parametrize("m", MATRICES, ids=MATRIX_IDS)
    def test_matches_one_fft_for_every_cap(self, m, e, monkeypatch):
        monkeypatch.delenv("LCT_NUMRA_THREADS", raising=False)
        f = random_signal(grid_n(2**e))
        spec = lct_fast(f, m)
        back = ilct(spec, m, f.grid, method="fast")
        assert rel_l2(spec.values, one_fft(f.values, m, f.grid)) <= 1e-15
        assert rel_l2(back.values, one_fft(spec.values, m, f.grid, inverse=True)) <= 1e-15
        # each point's arithmetic is the same on one thread as on two
        monkeypatch.setenv("LCT_NUMRA_THREADS", "1")
        np.testing.assert_array_equal(lct_fast(f, m).values, spec.values)
        np.testing.assert_array_equal(ilct(spec, m, f.grid, method="fast").values, back.values)

    @pytest.mark.parametrize("n", [139264, 196608], ids=["short_last_block", "ac10_count"])
    @pytest.mark.parametrize("m", [M2111, frft(-1.0)], ids=["haar2111", "frft_neg"])
    def test_inverse_on_even_counts_off_powers_of_two(self, m, n):
        # the fast inverse takes any even count; half of 139264 leaves a last block of 4096
        g = grid_n(n)
        rng = np.random.default_rng(3)
        spec = LctSpectrum(induced_omega_grid(g, m), rng.normal(size=n) + 1j * rng.normal(size=n))
        want = one_fft(spec.values, m, g, inverse=True)
        assert rel_l2(ilct(spec, m, g, method="fast").values, want) <= 1e-15

    def test_twiddles_keep_one_row_per_size_class_and_sign(self, monkeypatch):
        # as the factor tables: counts of one size class replace each other's twiddle row
        monkeypatch.setattr(lct, "_TWIDDLES", {})
        rng = np.random.default_rng(4)
        for n in [139264, 147456, 163840, 196608, 139264]:  # all of size class 18
            g = grid_n(n)
            for m in (M2111, frft(-1.0)):  # an ifft and an fft
                values = rng.normal(size=n) + 1j * rng.normal(size=n)
                spec = LctSpectrum(induced_omega_grid(g, m), values)
                want = one_fft(spec.values, m, g, inverse=True)
                assert rel_l2(ilct(spec, m, g, method="fast").values, want) <= 1e-15
        assert len(lct._TWIDDLES) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_finishes_a_round_trip(self, monkeypatch):
        # a thread per call, not a pool: a forked child has no copy of a pool's worker
        monkeypatch.setenv("LCT_NUMRA_THREADS", "2")
        f = random_signal(grid_n(lct._SPLIT))
        ilct(lct_fast(f, M2111), M2111, f.grid, method="fast")
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 1
            try:
                back = ilct(lct_fast(f, M2111), M2111, f.grid, method="fast")
                code = 0 if rel_l2(back.values, f.values) <= 1e-12 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child did not finish a 2^17 round trip in 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_error_of_either_half_reaches_the_caller(self, where, monkeypatch):
        monkeypatch.setenv("LCT_NUMRA_THREADS", "2")
        fft = np.fft.fft

        def failing(x, **kw):
            in_worker = threading.current_thread() is not threading.main_thread()
            if in_worker == (where == "worker"):
                raise FloatingPointError(f"{where} half")
            return fft(x, **kw)

        monkeypatch.setattr(np.fft, "fft", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"{where} half"):
            lct_fast(random_signal(grid_n(lct._SPLIT)), M2111)
        assert threading.active_count() == before


def wrapped_rad(turns):
    """Exact turn counts as radians in [-pi, pi)."""
    return np.array([float((x + Fraction(1, 2)) % 1 - Fraction(1, 2)) for x in turns]) * 2 * np.pi


def exact_table_phases(t_grid, m, ks):
    """Phases of the input chirp and output factor at indices ks, from exact rationals.

    The grid points t_min + k step and output points u = j w (j = k - n//2, w the
    double u step) are taken exactly; the chirp carries the (-1)^k fold, the
    output factor the argument -sign(b) pi/4 of 1/sqrt(i b).
    """
    a, b, d, s, t0 = map(Fraction, (m.a, m.b, m.d, t_grid.step, t_grid.t_min))
    w = Fraction(induced_omega_grid(t_grid, m).step)
    chirp, out = [], []
    for k in map(int, ks):
        t, u = t0 + k * s, (k - t_grid.count // 2) * w
        chirp.append(a * t * t / (2 * b) + Fraction(k, 2))
        out.append(u * (d * u - 2 * t0) / (2 * b) - Fraction(1 if b > 0 else -1, 8))
    return wrapped_rad(chirp), wrapped_rad(out)


def phase_error(values, want):
    return float(np.max(np.abs((np.angle(values) - want + np.pi) % (2 * np.pi) - np.pi)))


class TestExactPhases:
    """Table phases reach 8e10 rad at 2^20 (large_d); each must still be exact to 1e-14 rad."""

    @pytest.mark.parametrize(
        "n", [2**17, 2**20, 139264, 196608, 25576, 1000, 2**11],
        ids=["17", "20", "n139264", "ac10_count", "short_last_block", "n1000", "n11"],
    )
    @pytest.mark.parametrize(
        "m", [M2111, CanonicalMatrix(0.5, 3, 1, 8), frft(-1.0), fourier(), frft(0.3)],
        ids=["haar2111", "large_d", "frft_neg", "fourier", "frft0.3"],
    )
    def test_against_exact_reference(self, m, n):
        # spread indices, and both sides of every edge of the _FILL / 2 blocks in which
        # _fill builds a table from a per-block ramp (25576 = 3 blocks + 1000 points)
        g, size = grid_n(n), lct._FILL // 2
        edges = np.arange(0, n + size, size)
        ks = np.r_[np.linspace(0, n - 1, 257).astype(np.int64), 1, n // 2]
        ks = np.r_[ks, edges - 1, edges, edges + 1]
        ks = np.unique(np.clip(ks, 0, n - 1))
        _, chirp, out = lct._factors(g, m)
        want_chirp, want_out = exact_table_phases(g, m, ks)
        assert phase_error(chirp[ks], want_chirp) <= 1e-14
        assert phase_error(out[ks], want_out) <= 1e-14
        np.testing.assert_allclose(np.abs(chirp), 1.0, rtol=1e-15)
        np.testing.assert_allclose(np.abs(out), g.step / np.sqrt(abs(m.b)), rtol=1e-15)

    def test_reduction_exact_at_large_indices(self):
        # the 64-bit limb products wrap mod 2^64 by design, so indices far past any table
        # built here (|j| = |k - n/2| up to 2^25, k up to 2^32) stay exact; no grid is built.
        # Each coefficient is a quotient of floats, so its binary expansion does not end.
        rng = np.random.default_rng(7)
        pairs = zip(rng.uniform(-1e3, 1e3, 3), rng.uniform(3.0, 7.0, 3))
        quad, lin, const = coeffs = [Fraction(float(x)) / Fraction(float(y)) for x, y in pairs]
        assert all(v.denominator & (v.denominator - 1) for v in coeffs)  # none is dyadic
        ks = [0, 1, 2**25 - 1, 2**25, 2**25 + 1, 2**26 - 1, 2**31 + 12345, 2**32 - 1]
        ks += [int(k) for k in rng.integers(0, 2**26, 24)]
        got = lct._reduction(quad, lin, const)(np.array(ks, dtype=np.uint64)) / 2**20
        want = [float((k * k * quad + k * lin + const) % 1) for k in ks]
        err = (got - np.array(want) + 0.5) % 1.0 - 0.5
        assert np.max(np.abs(err)) <= 1e-15  # turns


class TestMemory:
    @staticmethod
    def traced_memory(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_cached_round_trip_holds_two_grid_arrays(self):
        g = grid_n(2**16)
        f = random_signal(g)
        ilct(lct_fast(f, M2111), M2111, g, method="fast")  # builds the table
        _, peak = self.traced_memory(lambda: ilct(lct_fast(f, M2111), M2111, g, method="fast"))
        # the spectrum, the result and their finiteness masks; the chirp is conjugated one
        # block at a time, never as a whole copy
        assert peak <= 2.25 * f.values.nbytes + 16 * lct._FILL

    def test_cached_split_round_trip_holds_two_grid_arrays(self):
        # the radix-2 path: the halves transform in the result, the butterflies in blocks
        g = grid_n(2**18)
        f = random_signal(g)
        ilct(lct_fast(f, M2111), M2111, g, method="fast")
        _, peak = self.traced_memory(lambda: ilct(lct_fast(f, M2111), M2111, g, method="fast"))
        assert peak <= 2.25 * f.values.nbytes + 16 * lct._FILL

    def test_miss_keeps_two_tables_and_block_temporaries(self):
        g = grid_n(2**18)
        one = 16 * g.count
        lct._factors(g, fresnel(3.0))
        kept, peak = self.traced_memory(lambda: lct._factors(g, M2111))
        assert kept <= 2 * one + 2**16
        # the two tables and the room, one array of 3n/2 points never written (see _factors)
        assert peak <= 5 * one + 80 * lct._FILL
        table = np.empty(g.count, np.complex128)
        phase = Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)
        _, peak = self.traced_memory(lambda: lct._fill(table, *phase, 1.0))
        assert peak <= 80 * lct._FILL  # block temporaries only: a grid array is 4 MiB


def kernel_phase_bound(m, t_grid, u_grid):
    """Largest pi (|a t^2| + |2 t u| + |d u^2|) / |b| on the two grids' spans."""
    t = max(abs(t_grid.t_min), abs(t_grid.t_max))
    u = max(abs(u_grid.t_min), abs(u_grid.t_max))
    return np.pi * (abs(m.a) * t * t + 2 * t * u + abs(m.d) * u * u) / abs(m.b)


@st.composite
def unimodular(draw):
    """(a, b, c, (1 + bc)/a) with 0.5 <= |a| <= 1.5, 0.3 <= |b| <= 1 and |c| <= 0.5."""
    sign = st.sampled_from([-1.0, 1.0])
    a = draw(st.floats(0.5, 1.5)) * draw(sign)
    b = draw(st.floats(0.3, 1.0)) * draw(sign)
    c = draw(st.floats(-0.5, 0.5))
    return CanonicalMatrix(a, b, c, (1.0 + b * c) / a)


class TestComposition:
    """L_{M1}(L_{M2} f) = +-L_{M1 M2} f, each transform by quadrature (``lct_direct``).

    f = exp(-pi t^2 + i g t^2) on 512 points of [-6, 6).  Its M2 transform is a
    chirped Gaussian, |F(w)| ~ exp(-alpha w^2) with alpha = pi^3 / (b2^2 (pi^2 + k^2)),
    k = g + pi a2/b2, and quadratic phase rho w^2 once M1's input chirp is added,
    rho = pi d2/b2 - alpha k / pi + pi a1/b1.  The 600-point intermediate grid spans
    |w| <= sqrt(40 / alpha), where |F| is below e^-40 of its peak.  The trapezoid rule
    on it (step h) aliases the M1 integrand by exp(-E), E = alpha (2 pi/h - 2 pi X/|b1|)^2 /
    (4 (alpha^2 + rho^2)) at outputs |x| <= X = 4; draws with E < 37 are set aside.
    The first transform's and the direct side's aliasing exponents are at least 58 and
    35 on these ranges (e^-35 = 6e-16, 0.02 of the smallest bound), so rounding is left:
    ``kernel`` rounds each phase to half an ulp of the largest, Phi, so the bound is
    2^-53 Phi (Phi about 280-1300 here).  Over 600 draws the errors were 1e-15 to
    1.5e-14, at most 0.19 of the bound: the roundings have random signs.
    """

    @settings(max_examples=25, deadline=None)
    @given(m1=unimodular(), m2=unimodular(), g=st.floats(-1.0, 1.0))
    def test_composition_law(self, m1, m2, g):
        m12 = compose(m1, m2)
        assume(abs(m12.b) >= 0.3)
        k = g + np.pi * m2.a / m2.b
        alpha = np.pi**3 / (m2.b**2 * (np.pi**2 + k**2))
        rho = np.pi * m2.d / m2.b - alpha * k / np.pi + np.pi * m1.a / m1.b
        span = np.sqrt(40.0 / alpha)
        t_grid = Grid(-6.0, 12 / 512, 512)
        w_grid = Grid(-span, 2 * span / 600, 600)
        x_grid = Grid(-4.0, 8 / 300, 300)
        reach = 2 * np.pi / w_grid.step - 2 * np.pi * 4.0 / abs(m1.b)
        assume(alpha * reach**2 / (4 * (alpha**2 + rho**2)) >= 37.0)  # E >= 37
        t = t_grid.points()
        f = SampledSignal(t_grid, np.exp(-np.pi * t**2 + 1j * g * t**2))
        mid = lct_direct(f, m2, w_grid)
        lhs = lct_direct(SampledSignal(w_grid, mid.values), m1, x_grid).values
        rhs = lct_direct(f, m12, x_grid).values
        err = min(np.max(np.abs(lhs - s * rhs)) for s in (1.0, -1.0)) / np.max(np.abs(rhs))
        phi = max(kernel_phase_bound(m2, t_grid, w_grid), kernel_phase_bound(m1, w_grid, x_grid),
                  kernel_phase_bound(m12, t_grid, x_grid))
        assert err <= 2.0**-53 * phi


@pytest.fixture(scope="module")
def haar_packets():
    """Packets 0..3 of the N = 2 Haar bank of (2,1,1,1) on one synthesis period, oversample 1."""
    ts = TranslationSet(2, 1)
    grid = numra_grid(ts, (-8.0, 8.0), refinement=64)  # 4096 samples of step 1/256
    return generate_packets(3, haar_filter_bank(ts, M2111), grid=grid, oversample=1)


ATOM_MATRICES = [M2111, frft(0.3), fresnel(2.0), frft(-0.7)]
ATOM_IDS = ["haar2111", "frft0.3", "fresnel2", "frft-0.7"]


def atom_spectrum(node, m, transform):
    """``lct_fast`` by ``transform`` of the packet chirped by m, and the identity of ``chirp_rate``.

    The identity is exp(i pi (d/b) u^2) hat(u / b) / sqrt(i b), with the hat from the packets'
    engine: u_i / b = sign(b) (i - n/2) / SPAN is lattice point sign(b) (i - n/2) + n/2, taken
    mod n (a period of the sampled transform).
    """
    grid = node.signal.grid
    hat = node.hat.engine.lattice([node.hat])[0]
    atom = SampledSignal(grid, node.signal.values * chirp_phase(m, grid.points(), 0.0))
    spec = lct_fast(atom, transform)
    u = spec.grid.points()
    k = np.arange(grid.count) - grid.count // 2
    idx = ((k if m.b > 0 else -k) + grid.count // 2) % grid.count
    want = np.exp(1j * np.pi * m.d / m.b * u**2) * hat[idx] / np.sqrt(1j * m.b)
    return spec.values, want


class TestChirpedAtom:
    """The LCT of a packet chirped by m is the output chirp times the packet's hat."""

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("m", ATOM_MATRICES, ids=ATOM_IDS)
    def test_bridge_matrix_gives_hat(self, haar_packets, m, n):
        # the transform of m itself bridges the atoms to their hats (see canonical.chirp_rate).
        # The reference's output-chirp phase reaches 1.0e5 rad (fresnel(2.0), |u| up to
        # 128 |b|), where it rounds by up to 7.3e-12 rad; measured <= 3.6e-13.
        got, want = atom_spectrum(haar_packets[n], m, m)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", ATOM_MATRICES, ids=ATOM_IDS)
    def test_other_chirp_rate_misses(self, haar_packets, m):
        # negative control: m (1, 0; 1, 1) has the same b and chirp rate a/b + 1, so its input
        # chirp leaves the atom's chirp rate 1: its moduli miss (0.63 of the peak here)
        got, want = atom_spectrum(haar_packets[0], m, compose(m, CanonicalMatrix(1, 0, 1, 1)))
        assert np.max(np.abs(np.abs(got) - np.abs(want))) >= 0.1 * np.max(np.abs(want))


class TestClosedForm:
    """Both paths against ``gaussian_spectrum``, the transform of exp(-pi t^2) by any m."""

    @pytest.mark.parametrize("n", [2**11, 2**12])
    @pytest.mark.parametrize("m", CLOSED_FORM_MATRICES, ids=CLOSED_FORM_IDS)
    def test_gaussian_for_every_matrix(self, m, n):
        f = gaussian(grid_n(n))
        fast = lct_fast(f, m)
        want = gaussian_spectrum(m, fast.grid.points())
        direct = lct_direct(f, m, fast.grid)
        for got in (fast.values, direct.values):
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


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
        lhs = inner_product(lct_fast(f, fourier()), lct_fast(sig, fourier()))
        assert res == pytest.approx(abs(lhs - inner_product(f, sig)))
        assert res <= 1e-6


class TestTiming:
    def test_fast_scales_subquadratically(self):
        # repeated calls hit the factor table and take about 0.1 ms, so each
        # sample times a batch of calls to stay several milliseconds long; the
        # two sizes alternate in one loop, so a burst of load reaches both
        signals = [gaussian(grid_n(n)) for n in (2**12, 2**13)]
        best = [np.inf, np.inf]
        for f in signals:
            lct_fast(f, M2111)  # warm up
        for _ in range(9):
            for k, f in enumerate(signals):
                t0 = time.perf_counter()
                for _ in range(50):
                    lct_fast(f, M2111)
                best[k] = min(best[k], time.perf_counter() - t0)
        t12, t13 = best
        assert t13 / t12 < 3.0

    def test_fast_scales_subquadratically_cold(self):
        # a fresh matrix on every call, so every call builds its factor table
        def best_time(n):
            f = gaussian(grid_n(n))
            lct_fast(f, fresnel(0.5))  # warm up
            best = np.inf
            for i in range(9):
                m = fresnel(1.0 + i / 64)
                t0 = time.perf_counter()
                lct_fast(f, m)
                best = min(best, time.perf_counter() - t0)
            return best

        t12 = best_time(2**12)
        t13 = best_time(2**13)
        assert t13 / t12 < 3.0
