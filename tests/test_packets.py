import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lct_numra
from lct_numra import wavelets
from lct_numra.canonical import CanonicalMatrix, fourier, fresnel, frft
from lct_numra.filters import (
    PeriodicFilterPair,
    TranslationSet,
    complete_filters,
    filter_eval,
    omega_enumerate,
    translations,
)
from lct_numra.io import read_filter_csv, write_filter_csv
from lct_numra.packets import (
    BasisElement,
    CoefficientTable,
    PacketBasis,
    PacketIndex,
    PacketNode,
    UncertifiedBasisError,
    digits,
    fold_residuals,
    generate_packets,
    packet_analyze,
    packet_gram,
    packet_hat,
    packet_synthesize,
    reconstruct,
)
from lct_numra.reports import bank_report, lowpass_report
from lct_numra.sampling import (
    SampledSignal,
    chirp_phase,
    chirped_translate_gram,
    gram_matrix,
    identity_deviation,
    inner_product,
    norm,
    numra_grid,
    weighted_gram,
)
from lct_numra.wavelets import (
    SPAN,
    ConvergenceError,
    HatFunction,
    cascade,
    default_time_grid,
    frequency_samples,
    haar_family,
    haar_filter_bank,
    hat_to_signal,
    two_scale_residual,
)

import basis_reference
from hat_reference import ExactRows, bins_pair, product_hat
from smooth_banks import (
    DB2_TAPS,
    eigenvalue_one_multiplicity,
    lattice_angles,
    lattice_taps,
    n1_pair,
    n2_lift_bank,
)

M2111 = CanonicalMatrix(2, 1, 1, 1)


class TestDigits:
    def test_zero_has_empty_expansion(self):
        assert digits(0, 2).digits == ()

    def test_base_four_example(self):
        assert digits(5, 2).digits == (1, 1)

    def test_single_digit(self):
        for N in (1, 2, 3):
            assert digits(2 * N - 1, N).digits == (2 * N - 1,)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_round_trip_vectorized(self, N):
        # rebuild every n below one million from its digit expansion
        base = 2 * N
        n_arr = np.arange(1_000_000, dtype=np.int64)
        rest = n_arr.copy()
        total = np.zeros_like(n_arr)
        place = np.ones_like(n_arr)
        while np.any(rest > 0):
            total += (rest % base) * place
            rest //= base
            place *= base
        np.testing.assert_array_equal(total, n_arr)

    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, n, N):
        assert reconstruct(digits(n, N), N) == n

    def test_invalid_expansions_rejected(self):
        with pytest.raises(ValueError):
            PacketIndex(1, ())
        with pytest.raises(ValueError):
            PacketIndex(2, (2, 0))
        with pytest.raises(ValueError):
            PacketIndex(0, (0,))
        with pytest.raises(ValueError):
            digits(-1, 1)

    def test_negative_packet_count_refused(self):
        bank = haar_filter_bank(TranslationSet(1, 1), fourier())
        with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
            generate_packets(-1, bank)


@pytest.fixture(scope="module")
def haar1():
    ts = TranslationSet(1, 1)
    bank = haar_filter_bank(ts, fourier())
    grid = numra_grid(ts, (-6.0, 6.0), refinement=8192)
    scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
    return ts, bank, grid, scaling


@pytest.fixture(scope="module")
def haar1_nodes(haar1):
    ts, bank, grid, scaling = haar1
    nodes = {}
    for n in range(8):
        nodes[n] = packet_hat(
            digits(n, ts.N), bank, scaling=scaling, grid=grid, oversample=1
        )
    return nodes


class TestPacketHat:
    def test_index_zero_is_scaling_hat(self, haar1):
        ts, bank, grid, scaling = haar1
        node = packet_hat(digits(0, ts.N), bank, scaling=scaling, grid=grid, oversample=1)
        u = np.linspace(-4, 4, 401)
        np.testing.assert_array_equal(product_hat(node.hat, u), product_hat(scaling.hat, u))

    def test_cascade_is_packet_zero(self, haar1, haar1_nodes):
        # the cascade returns packet 0's node; every node of one cascade reads its engine
        ts, bank, grid, scaling = haar1
        assert isinstance(scaling, PacketNode)
        assert scaling.index.n == 0 and scaling.index.digits == ()
        node0 = generate_packets(0, bank, grid=grid, oversample=1)[0]
        assert scaling.band_deficit == node0.band_deficit
        for node in haar1_nodes.values():
            assert node.engine is scaling.engine
            assert node.tail_deviation == scaling.tail_deviation

    def test_first_indices_are_wavelet_hats(self, haar1):
        ts, bank, grid, scaling = haar1
        node = packet_hat(digits(1, ts.N), bank, scaling=scaling, grid=grid, oversample=1)
        u = np.linspace(-4, 4, 401)
        want = filter_eval(bank[1], u / 2.0) * product_hat(scaling.hat, u / 2.0)
        np.testing.assert_allclose(product_hat(node.hat, u), want, atol=1e-14)

    @pytest.mark.parametrize("N", [1, 2])
    def test_recursion_identity(self, N):
        ts = TranslationSet(N, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = default_time_grid(ts)
        scaling = cascade(bank[0], J=44, tol=1e-5, grid=grid)
        two_n = 2 * N
        u = np.linspace(-8.0, 8.0, 1603)
        worst = 0.0

        def node(n):
            return HatFunction(scaling.engine, tuple(bank[d] for d in digits(n, N).digits))

        for n in range((2 * N) ** 2 + 1):
            parent_vals = product_hat(node(n), u / two_n)
            for k in range(two_n):
                child = node(two_n * n + k)
                rhs = filter_eval(bank[k], u / two_n) * parent_vals
                worst = max(worst, float(np.max(np.abs(product_hat(child, u) - rhs))))
        assert worst <= 1e-10

    @pytest.mark.parametrize("size", [3, 5])
    def test_generate_packets_refuses_bank_size(self, size):
        # exactly 2N filters: a short bank must not run out of digits, a long one is not taken
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=16)
        with pytest.raises(ValueError, match="bank must hold 2N filters"):
            generate_packets(5, (bank + bank)[:size], grid=grid, oversample=1)

    def test_digit_out_of_range(self, haar1):
        ts, bank, grid, scaling = haar1
        with pytest.raises(ValueError, match="digit"):
            packet_hat(PacketIndex(3, (3,)), bank, scaling=scaling, grid=grid)


class TestPacketGram:
    def test_small_system(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        nodes = [haar1_nodes[n] for n in range(4)]
        _, off = packet_gram(nodes, ts, fourier(), (-2.0, 2.0 + 1e-9))
        assert off <= 1e-3

    def test_window_without_translation_refused(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        for window in [(0.1, 0.2), (5.0, 1.0)]:
            with pytest.raises(ValueError, match="holds no translation"):
                packet_gram([haar1_nodes[0]], ts, fourier(), window)

    def test_single_node_single_shift(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        g, off = packet_gram([haar1_nodes[2]], ts, fourier(), (0.0, 1.0))
        assert g.shape == (1, 1)
        assert off <= 1e-3


def _ac10_tree(r):
    """The N = 2 packets 0..4 of AC-10 (five signals of 196608 samples)."""
    ts = TranslationSet(2, r)
    bank = haar_filter_bank(ts, M2111)
    grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)
    scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
    nodes = [packet_hat(digits(n, 2), bank, scaling=scaling, grid=grid, oversample=1)
             for n in range(5)]
    return ts, nodes


@pytest.fixture(scope="module")
def ac10_nodes():
    """The r = 1 tree of ``_ac10_tree``."""
    return _ac10_tree(1)


class TestLagGramAC10:
    WINDOW = (-4.0, 4.0 + 1e-9)

    def test_entries_match_long_double(self, ac10_nodes):
        # the shift phases are the library's own doubles; the products and
        # sums of the zero-filled translates are taken in long double
        ts, nodes = ac10_nodes
        signals = [node.signal for node in nodes]
        g = chirped_translate_gram(signals, translations(ts, self.WINDOW), M2111)
        grid = nodes[0].signal.grid
        lams = np.asarray(omega_enumerate(ts, self.WINDOW))
        offsets = np.round(lams / grid.step).astype(int)
        phases = chirp_phase(M2111, 0.0, lams).astype(np.clongdouble)
        w = grid.trapezoid_weights().astype(np.longdouble)
        n_lam, count = len(lams), grid.count
        rng = np.random.default_rng(8)
        pairs = [(x, x) for x in range(0, g.shape[0], 2)]
        pairs += [tuple(rng.integers(0, g.shape[0], 2)) for _ in range(29)]
        worst = 0.0
        for x, y in pairs:
            (i, a), (k, b) = divmod(x, n_lam), divmod(y, n_lam)
            lo = max(0, offsets[a], offsets[b])
            hi = min(count, count + offsets[a], count + offsets[b])
            f = nodes[i].signal.values[lo - offsets[a]:hi - offsets[a]].astype(np.clongdouble)
            h = nodes[k].signal.values[lo - offsets[b]:hi - offsets[b]].astype(np.clongdouble)
            want = phases[a] * np.sum(f * np.conj(h) * w[lo:hi]) * np.conj(phases[b])
            worst = max(worst, float(abs(np.clongdouble(g[x, y]) - want)))
        assert worst <= 5e-16

    def test_peak_memory_is_a_few_signals(self, ac10_nodes):
        ts, nodes = ac10_nodes
        signals = [node.signal for node in nodes]
        inputs = sum(s.values.nbytes for s in signals)
        tracemalloc.start()
        try:
            g = chirped_translate_gram(signals, translations(ts, self.WINDOW), M2111)
            identity_deviation(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the cell copy of the inputs and one conjugated cell per signal: no conjugate copy
        assert peak <= 1.5 * inputs


class TestLatticeGramAC10:
    WINDOW = TestLagGramAC10.WINDOW

    @pytest.mark.parametrize("r", [1, 3])
    def test_matches_time_gram(self, r, ac10_nodes):
        # the band-limited Gram over one period against the trapezoid Gram of the
        # zero-filled translates on the grid: the packets have decayed at the
        # window's edges, so the two agree far below the AC-10 bound
        ts, nodes = ac10_nodes if r == 1 else _ac10_tree(r)
        g, off = packet_gram(nodes, ts, M2111, self.WINDOW)
        signals = [node.signal for node in nodes]
        want = chirped_translate_gram(signals, translations(ts, self.WINDOW), M2111)
        want_off = identity_deviation(want)
        assert g.shape == want.shape == (5 * 9, 5 * 9)
        assert np.max(np.abs(g - want)) <= 1e-10
        assert abs(off - want_off) <= 1e-10

    def test_peak_memory_is_a_fraction_of_a_lattice_array(self, ac10_nodes):
        # the kept hats are folded in blocks of _GRAM_BLOCK values: no lattice
        # array, stack of hats or translate is made
        ts, nodes = ac10_nodes
        lattice_bytes = nodes[0].hat.engine.n * 16
        tracemalloc.start()
        try:
            packet_gram(nodes, ts, M2111, self.WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * lattice_bytes


class TestDepthThreeTreeGram:
    """ROADMAP item 13's memory question: all 64 N = 2 packets of depth <= 3 go through
    ``packet_gram`` with nothing lattice-sized kept per packet.  No basis is certified:
    at 1e-3 these fail on band alone until a certificate carries item 2's nu."""

    def test_peak_memory_is_the_tails_and_the_gram(self):
        # about 3 s on a 2-core Xeon: 64 x 8 translates, folded a block at a time
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-5.0, 7.0), refinement=2048)
        tracemalloc.start()
        try:
            nodes = generate_packets(63, bank, grid=grid, oversample=1)
            tracemalloc.reset_peak()  # the cascade's own peak is TestCascadeAC10's
            g, off = packet_gram(nodes, ts, M2111, (-4.0, 4.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        engine = nodes[0].engine
        lattice_bytes = 16 * engine.n
        tails = sum(t.nbytes for t in engine._tails.values())
        assert tails == 4 * lattice_bytes and g.shape == (64 * 8, 64 * 8)
        # the four tails, the Gram and its node-major copy, and a fraction of a lattice
        # array (the rows, the fold and its blocks); the kept hats were 63 more arrays
        assert peak <= tails + 2 * g.nbytes + 0.25 * lattice_bytes
        assert abs(off - max(node.band_deficit for node in nodes)) <= 1e-15


class TestCascadeAC10:
    def test_peak_memory_in_lattice_arrays(self):
        # at row J: the three tails, row J holding T_0's product and |their
        # difference| (a float array), four and a half lattice arrays
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)
        lattice_bytes = 16 * frequency_samples(grid, oversample=1).size
        tracemalloc.start()
        try:
            cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * lattice_bytes

    def test_tails_do_not_depend_on_blas_threads(self):
        # each exact row is one matrix product: its bits must not follow how
        # the BLAS splits it over threads
        child = (
            "import hashlib\n"
            "from lct_numra.canonical import CanonicalMatrix\n"
            "from lct_numra.filters import TranslationSet\n"
            "from lct_numra.sampling import numra_grid\n"
            "from lct_numra.wavelets import cascade, haar_filter_bank\n"
            "ts = TranslationSet(2, 1)\n"
            "bank = haar_filter_bank(ts, CanonicalMatrix(2, 1, 1, 1))\n"
            "grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)\n"
            "engine = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1).engine\n"
            "tails = b''.join(engine._tails[s].tobytes() for s in range(3))\n"
            "print(hashlib.sha256(tails).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(lct_numra.__file__).resolve().parents[1])}
            proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]


class TestCertifyAC10:
    def test_peak_memory_is_two_atom_arrays(self, ac10_nodes):
        # the AC-11 children basis of an r = 1 tree: packets 0..3 at level 0
        ts, nodes = ac10_nodes
        lams = omega_enumerate(ts, (-1.0, 2.0))
        basis = PacketBasis(ts, M2111, [BasisElement(nodes[n], 0, float(lam))
                                        for n in range(4) for lam in lams])
        atom_bytes = len(basis.elements) * nodes[0].signal.values.nbytes
        tracemalloc.start()
        try:
            basis.certify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * atom_bytes

    def test_blocked_gram_matches_one_product(self, ac10_nodes):
        ts, nodes = ac10_nodes
        lams = omega_enumerate(ts, (-1.0, 2.0))
        basis = PacketBasis(ts, M2111, [BasisElement(nodes[n], 0, float(lam))
                                        for n in range(4) for lam in lams])
        rows, grid = basis._unchirped, basis._grid
        stack = np.stack(rows)
        want = stack @ (stack.conj() * grid.trapezoid_weights()).T
        assert np.max(np.abs(weighted_gram(rows, grid) - want)) <= 1e-14


class TestFoldSums:
    @pytest.mark.parametrize("N,refinement", [(1, 8192), (2, 16384)])
    def test_haar_packets(self, N, refinement):
        # the deepest packet has the widest spectral spread, so the fold
        # lattice must extend far enough for its tail to drop below 1e-3
        ts = TranslationSet(N, 1)
        bank = haar_filter_bank(ts, fourier())
        grid = numra_grid(ts, (-4.0, 4.0), refinement=refinement)
        nodes = generate_packets(2 * N, bank, grid=grid, oversample=1)
        for node in nodes:
            plain, twisted = fold_residuals(node, ts, oversample=1)
            assert plain <= 1e-3
            assert twisted <= 1e-3

    def test_oversample_defaults_to_the_node(self):
        # nodes fold the lattice they were made on; one they were not made on is refused
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, fourier())
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
        for oversample, other in [(1, 16), (16, 1)]:
            nodes = generate_packets(4, bank, grid=grid, oversample=oversample)
            for node in nodes:
                assert fold_residuals(node, ts) == fold_residuals(node, ts, oversample=oversample)
            with pytest.raises(ValueError, match="does not serve"):
                fold_residuals(nodes[1], ts, oversample=other)


#: TestFoldSums' N = 1 grid, where Haar's packets 0..2 fold to within 1e-3.
DRAW_GRID = numra_grid(TranslationSet(1, 1), (-4.0, 4.0), refinement=8192)


class TestLatticeDraws:
    """N = 1 low-passes from the paraunitary lattice (``smooth_banks``), at fixed seeds
    and draw counts: what holds for every draw today."""

    @seed(1988)
    @settings(max_examples=60, deadline=None, database=None)
    @given(angles=lattice_angles)
    def test_filter_conditions_and_completion(self, angles):
        p = n1_pair(lattice_taps(angles))
        assert p.exact
        assert lowpass_report(p)["ok"]
        assert bank_report([p, *complete_filters(p)])["ok"]

    @seed(1988)
    @settings(max_examples=30, deadline=None, database=None)
    @given(angles=lattice_angles)
    def test_residuals_where_the_cascade_converges(self, angles):
        # Valid draws whose J = 20 tail exceeds the cascade's tol are refused (the fixed
        # depth is too shallow for them) and checked no further.  T_0 - R_1 T_1 =
        # T_0 (1 - R_{J+1}) is the next row's step, 1/(2N) of the tail deviation once the
        # tail is geometric, so the two-scale residual meets the cascade's tol.  The fold
        # sums hold for orthonormal packets, so only where Lawton's eigenvalue 1 is simple:
        # angles at 0 give stretched filters, which no refusal covers yet.
        taps = lattice_taps(angles)
        p = n1_pair(taps)
        try:
            nodes = generate_packets(2, [p, *complete_filters(p)], grid=DRAW_GRID, oversample=1)
        except ConvergenceError:
            return
        assert two_scale_residual(nodes[0].hat) <= 1e-5
        if eigenvalue_one_multiplicity(taps) == 1:
            for node in nodes:
                assert max(fold_residuals(node, p.ts)) <= 1e-3


LIFT_GRID = numra_grid(TranslationSet(2, 1), (-4.0, 4.0), refinement=1024)


class TestLiftedDraws:
    """The N = 2 lifts of ``TestLatticeDraws``' filters and their exact banks
    (``smooth_banks.n2_lift_bank``) at fixed seeds and draw counts.  The (2, 3) lifts pass
    every filter condition without an orthonormal scaling function, so nothing past the
    conditions is asserted there."""

    @pytest.mark.parametrize("r", [1, 3])
    def test_haar_lift_is_the_haar_bank(self, r):
        # Haar's taps (1/2, 1/2) lift to the closed-form bank at lattice phases 1
        ts = TranslationSet(2, r)
        for got, want in zip(n2_lift_bank([0.5, 0.5], r), haar_filter_bank(ts, fourier())):
            np.testing.assert_allclose(got.comp1, want.comp1, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.comp2, want.comp2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("r", [1, 3])
    @seed(2010)
    @settings(max_examples=40, deadline=None, database=None)
    @given(angles=lattice_angles)
    def test_filter_conditions_and_exact_bank(self, r, angles):
        bank = n2_lift_bank(lattice_taps(angles), r)
        assert all(p.exact for p in bank)
        assert lowpass_report(bank[0])["ok"]
        assert bank_report(bank)["ok"]

    @seed(2010)
    @settings(max_examples=30, deadline=None, database=None)
    @given(angles=lattice_angles)
    def test_two_scale_residual_where_the_cascade_converges(self, angles):
        low = n2_lift_bank(lattice_taps(angles), 1)[0]
        try:
            scaling = cascade(low, grid=LIFT_GRID, oversample=1)
        except ConvergenceError:
            return
        assert two_scale_residual(scaling.hat) <= 1e-5


class TestBandDeficit:
    @pytest.mark.parametrize("r", [1, 3])
    def test_is_one_minus_gram_diagonal(self, r):
        # the AC-10 N = 2 nodes: d = 1 - Re G_nn at every translate, and the
        # largest d is max |G - I|
        ts = TranslationSet(2, r)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)
        nodes = generate_packets(4, bank, grid=grid, oversample=1)
        d = np.array([node.band_deficit for node in nodes])
        g, off = packet_gram(nodes, ts, M2111, (-4.0, 4.0 + 1e-9))
        diag = np.diag(g).real.reshape(len(nodes), -1)  # node-major
        assert np.max(np.abs(1.0 - diag - d[:, None])) <= 1e-14
        assert off == pytest.approx(d.max(), abs=1e-14)
        assert np.all(d > 0.0)


def make_basis(nodes, ts, m, specs):
    elements = [
        BasisElement(nodes[n], level, float(lam))
        for (n, level, lams) in specs
        for lam in lams
    ]
    return PacketBasis(ts, m, elements)


class TestBasisGate:
    def test_uncertified_rejected(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), [(0, 0, [0.0, 1.0])])
        f = SampledSignal(basis.elements[0].node.signal.grid,
                          basis.elements[0].node.signal.values)
        with pytest.raises(UncertifiedBasisError, match="certified"):
            packet_analyze(f, basis)

    def test_degenerate_basis_rejected(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), [(0, 0, [0.0, 0.0])])
        assert basis.certify() > 1e-3
        f = SampledSignal(basis.elements[0].node.signal.grid,
                          basis.elements[0].node.signal.values)
        with pytest.raises(UncertifiedBasisError, match="residual"):
            packet_analyze(f, basis)

    def test_nodes_on_two_grids_refused(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        coarse = generate_packets(0, haar_filter_bank(ts, fourier()),
                                  grid=numra_grid(ts, (-6.0, 6.0), refinement=64), oversample=1)
        basis = PacketBasis(ts, fourier(), [BasisElement(haar1_nodes[0], 0, 0.0),
                                            BasisElement(coarse[0], 0, 1.0)])
        with pytest.raises(ValueError, match="share one grid"):
            basis.certify()

    def test_signal_and_table_must_fit_the_basis(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), [(0, 0, [0.0, 1.0])])
        basis.certify()
        other = numra_grid(ts, (-6.0, 6.0), refinement=64)
        with pytest.raises(ValueError, match="must live on the signal grid"):
            packet_analyze(SampledSignal(other, np.ones(other.count)), basis)
        table = CoefficientTable(rows=((0, 0, 0.0),), values=np.ones(1))
        with pytest.raises(ValueError, match="does not match the basis"):
            packet_synthesize(table, basis)

    def test_certificate_cannot_be_passed_in(self, haar1_nodes):
        # packet 0 twice at lam = 0, given residual=0.0, was analysed without refusal,
        # though certify() on the same elements reads 0.998
        ts = TranslationSet(1, 1)
        elements = [BasisElement(haar1_nodes[0], 0, 0.0)] * 2
        with pytest.raises(TypeError, match="residual"):
            PacketBasis(ts, fourier(), elements, residual=0.0)
        basis = PacketBasis(ts, fourier(), elements)
        f = haar1_nodes[0].signal
        with pytest.raises(UncertifiedBasisError, match="certified"):
            packet_analyze(f, basis)
        assert basis.certify() > 0.99
        with pytest.raises(UncertifiedBasisError, match="residual"):
            packet_analyze(f, basis)


class TestAnalyzeSynthesize:
    def test_basis_element_coefficients(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(
            haar1_nodes, ts, fourier(), [(1, 0, [-1.0, 0.0, 1.0]), (2, 0, [-1.0, 0.0, 1.0])]
        )
        basis.certify()
        f = basis.signals()[1]
        table = packet_analyze(f, basis)
        vals = np.abs(table.values)
        assert vals[1] == pytest.approx(1.0, abs=1e-3)
        others = np.delete(vals, 1)
        assert np.max(others) <= 1e-3

    def test_zero_signal(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), [(0, 0, [0.0, 1.0])])
        basis.certify()
        grid = basis.elements[0].node.signal.grid
        table = packet_analyze(SampledSignal(grid, np.zeros(grid.count)), basis)
        np.testing.assert_array_equal(table.values, 0)
        out = packet_synthesize(table, basis)
        np.testing.assert_array_equal(out.values, 0)

    def test_energy_conservation(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(
            haar1_nodes, ts, fourier(),
            [(1, 0, range(-2, 3)), (2, 0, range(-2, 3))],
        )
        basis.certify()
        rng = np.random.default_rng(23)
        sigs = basis.signals()
        coeff = rng.normal(size=len(sigs)) + 1j * rng.normal(size=len(sigs))
        grid = sigs[0].grid
        f = SampledSignal(grid, sum(c * s.values for c, s in zip(coeff, sigs)))
        table = packet_analyze(f, basis)
        energy = float(np.sum(np.abs(table.values) ** 2))
        assert energy == pytest.approx(norm(f) ** 2, rel=1e-3)

    def test_round_trip_on_span(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), [(3, 0, range(-2, 3))])
        basis.certify()
        f = basis.signals()[2]
        out = packet_synthesize(packet_analyze(f, basis), basis)
        err = norm(SampledSignal(f.grid, out.values - f.values))
        assert err <= 1e-3

    def test_coefficient_table_rows(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), [(1, 1, [0.0, 1.0])])
        basis.certify()
        grid = basis.elements[0].node.signal.grid
        table = packet_analyze(SampledSignal(grid, np.zeros(grid.count)), basis)
        assert table.rows == ((1, 1, 0.0), (1, 1, 1.0))


PARENT_SPEC = [(1, 1, range(-2, 3))]
CHILDREN_SPEC = [(2, 0, range(-2, 3)), (3, 0, range(-2, 3))]


class TestChirpedBasis:
    """Bases under a matrix whose chirp is not 1, against dense chirped atoms."""

    @pytest.mark.parametrize("m", [M2111, frft(0.3), fresnel(2.0)],
                             ids=["2111", "frft0.3", "fresnel2"])  # a/b = 1/2: exp(i pi lam^2 / 2)
    @pytest.mark.parametrize("spec", [PARENT_SPEC, CHILDREN_SPEC], ids=["parent", "children"])
    def test_matches_dense_chirped_atoms(self, haar1_nodes, m, spec):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, m, spec)
        res = basis.certify()
        atoms = basis.signals()
        assert abs(res - identity_deviation(gram_matrix(atoms))) <= 1e-15
        assert res == make_basis(haar1_nodes, ts, fourier(), spec).certify()
        grid = atoms[0].grid
        rng = np.random.default_rng(11)
        f = SampledSignal(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))
        nf = norm(f)
        table = packet_analyze(f, basis)
        want = np.array([inner_product(f, a) for a in atoms])
        assert np.max(np.abs(table.values - want)) <= 1e-14 * nf
        c = rng.normal(size=len(atoms)) + 1j * rng.normal(size=len(atoms))
        out = packet_synthesize(CoefficientTable(table.rows, c), basis)
        want = sum(ck * a.values for ck, a in zip(c, atoms))
        assert np.max(np.abs(out.values - want)) <= 1e-14 * nf


class TestSubspaceSplit:
    def test_parent_equals_children_reconstruction(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        m = fourier()
        parent = make_basis(haar1_nodes, ts, m, PARENT_SPEC)
        children = make_basis(haar1_nodes, ts, m, CHILDREN_SPEC)
        assert parent.certify() <= 1e-3
        assert children.certify() <= 1e-3
        rng = np.random.default_rng(7)
        sigs = parent.signals()
        coeff = rng.normal(size=len(sigs)) + 1j * rng.normal(size=len(sigs))
        grid = sigs[0].grid
        f = SampledSignal(grid, sum(c * s.values for c, s in zip(coeff, sigs)))
        rec_parent = packet_synthesize(packet_analyze(f, parent), parent)
        rec_children = packet_synthesize(packet_analyze(f, children), children)
        nf = norm(f)
        diff = norm(SampledSignal(grid, rec_parent.values - rec_children.values))
        assert diff / nf <= 2e-3

    def test_three_level_telescoping(self, haar1_nodes):
        # one detail space, three equivalent bases at successive depths
        ts = TranslationSet(1, 1)
        m = fourier()
        bases = [
            make_basis(haar1_nodes, ts, m, [(1, 2, range(-1, 2))]),
            make_basis(haar1_nodes, ts, m, [(2, 1, range(-1, 2)), (3, 1, range(-1, 2))]),
            make_basis(haar1_nodes, ts, m, [(n, 0, range(-1, 2)) for n in (4, 5, 6, 7)]),
        ]
        for b in bases:
            assert b.certify() <= 1e-3
        rng = np.random.default_rng(9)
        sigs = bases[0].signals()
        coeff = rng.normal(size=len(sigs)) + 1j * rng.normal(size=len(sigs))
        grid = sigs[0].grid
        f = SampledSignal(grid, sum(c * s.values for c, s in zip(coeff, sigs)))
        nf = norm(f)
        recs = [packet_synthesize(packet_analyze(f, b), b) for b in bases]
        for rec in recs:
            assert norm(SampledSignal(grid, rec.values - f.values)) / nf <= 2e-3


class TestHatEngine:
    def test_each_row_evaluated_once_per_tree(self, monkeypatch):
        # generate, certify a level-1 and a level-0 basis, fold: every low-pass
        # row of a tail is evaluated once per tail pass, and every digit row once
        # per engine when a read first needs it, on exactly one period of the
        # lattice, or on the whole lattice when its period does not divide it
        import lct_numra.wavelets as wavelets

        real = wavelets.HatEngine._period
        calls = []

        def counting(engine, pair, j):
            period = real(engine, pair, j)
            calls.append(((id(pair), j), period.size))
            return period

        monkeypatch.setattr(wavelets.HatEngine, "_period", counting)
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
        nodes = generate_packets(4, bank, grid=grid, oversample=1)
        make_basis(nodes, ts, M2111, [(0, 1, [0.0, 0.5, 2.0])]).certify()
        make_basis(nodes, ts, M2111, [(n, 0, [0.0, 2.0]) for n in range(4)]).certify()
        fold_residuals(nodes[1], ts, oversample=1)
        n = frequency_samples(grid, oversample=1).size

        def once(j):
            order = 16 * 2 * 4**j
            return min(order, n) if n % order == 0 else n

        # tails of depth 0..2 take the low-pass rows 1..22 (J = 20); the bases
        # and the fold read packets 0..3, whose digit rows are L_1, L_2, L_3 at
        # level 1; nothing reads packet 4, so its rows L_0 at level 1 and L_1
        # at level 2 are not evaluated
        want = Counter(((id(bank[0]), j), once(j)) for j in range(1, 23))
        want.update(((id(bank[d]), 1), once(1)) for d in (1, 2, 3))
        assert Counter(calls) == want
        assert [once(j) for j in (1, 2, 3, 4)] == [128, 512, 2048, n]

    @pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)])
    def test_lattice_rows_match_exact_phases(self, N, r):
        # each row term exp(-2 pi i c e/order) on u = e/span, order = span N (2N)^j,
        # against ExactRows (phases reduced in Python integers, exps in long
        # double); at N = 3, rows 23 and up have orders past int64
        import lct_numra.wavelets as wavelets

        ts = TranslationSet(N, r)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
        engine = wavelets.HatEngine(bank[0], grid, oversample=1, J=20, depth=0)
        exact = ExactRows(engine.n)
        for j in (1, 3, 6, 10, 15, 20, 22, 23):
            for pair in bank:
                want = exact.row(pair, j)
                got = np.resize(engine._period(pair, j), engine.n)
                assert np.max(np.abs(got - want)) <= 2e-15

    @pytest.mark.parametrize("N,r,bins", [(1, 1, (-1, 0, 2)), (2, 1, (1, 3)), (3, 5, (2, 5, 8))])
    def test_rows_off_bin_zero_match_exact_phases(self, N, r, bins):
        # exact pairs whose lowest nonzero bin is not 0, on a Haar engine's lattice
        import lct_numra.wavelets as wavelets

        ts = TranslationSet(N, r)
        pair, _ = bins_pair(ts, bins)
        assert pair._sparse[0] == bins[0]
        low = haar_filter_bank(ts, M2111)[0]
        grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
        engine = wavelets.HatEngine(low, grid, oversample=1, J=20, depth=0)
        exact = ExactRows(engine.n)
        for j in (0, 1, 3, 6, 10, 15, 20, 22, 23):
            got = np.resize(engine._period(pair, j), engine.n)
            assert np.max(np.abs(got - exact.row(pair, j))) <= 2e-15

    def test_nearest_sample_rows_are_filter_eval(self, monkeypatch):
        # Haar N = 1 times exp(i sin 2 pi u): no short Fourier series, so each
        # row, and the tail built from them, is filter_eval at u/(2N)^j; its
        # period rows, tiled, are filter_eval on the whole lattice bit for bit
        import lct_numra.wavelets as wavelets

        monkeypatch.setattr(wavelets, "_BLOCK", 1000)
        base = haar_filter_bank(TranslationSet(1, 1), fourier())[0]
        phase = np.exp(1j * np.sin(2 * np.pi * base.u_grid.points()))
        pair = PeriodicFilterPair(base.ts, phase * base.comp1, phase * base.comp2)
        assert not pair.exact
        grid = numra_grid(base.ts, (-2.0, 2.0), refinement=64)
        engine = wavelets.HatEngine(pair, grid, oversample=1, J=20, depth=0)
        u = frequency_samples(grid, oversample=1)
        for j in (0, 1, 2, 5, 11, 20):
            got = np.resize(engine._period(pair, j), u.size)
            np.testing.assert_array_equal(got, filter_eval(pair, u / 2.0**j))
        phi = HatFunction(engine)
        np.testing.assert_array_equal(engine.lattice([phi])[0], product_hat(phi, u))
        # a completed N = 2 high-pass: rows of 32 4^j points, the one at j = 3
        # over two blocks
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        high = complete_filters(bank[0])[0]
        assert not high.exact
        grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
        engine = wavelets.HatEngine(bank[0], grid, oversample=1, J=20, depth=0)
        u = frequency_samples(grid, oversample=1)
        assert [engine._period(high, j).size for j in (0, 3, 4)] == [32, 2048, u.size]
        for j in (0, 1, 2, 3, 5, 11, 20):
            got = np.resize(engine._period(high, j), u.size)
            np.testing.assert_array_equal(got, filter_eval(high, u / 4.0**j))

    @pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)])
    def test_tails_and_hats_match_exact_phases(self, N, r):
        # refinement 72 gives every N periodic rows (periods of 32..256,
        # 128 and 512, or 288 and 1728 points)
        import lct_numra.wavelets as wavelets

        ts = TranslationSet(N, r)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=72)
        exact = ExactRows(frequency_samples(grid, oversample=1).size)
        for depth in (0, 1, 2):
            engine = wavelets.HatEngine(bank[0], grid, oversample=1, J=20, depth=depth)
            assert engine._period(bank[0], 1).size < engine.n
            for s in range(depth + 1):
                hat = HatFunction(engine).dilated(s)
                assert np.max(np.abs(engine._tails[s] - exact.hat(hat))) <= 1e-14
        nodes = [HatFunction(engine, tuple(bank[d] for d in digits(n, N).digits))
                 for n in (1, 2 * N - 1, 2 * N, 2 * N + 1)]
        hats = nodes + [h.dilated(1) for h in nodes[:2]] + [HatFunction(engine, (), 2)]
        for hat, got in zip(hats, engine.lattice(hats)):
            assert hat.depth <= 2
            assert np.max(np.abs(got - exact.hat(hat))) <= 1e-14

    def test_nearest_sample_tails_are_blockwise_filter_eval(self, monkeypatch):
        # every row of a nearest-sample low-pass is filter_eval on its period,
        # block by block, so the tails do not depend on the block size, and
        # every tail, its rows multiplied in ascending j, is the product
        # formula bit for bit
        import lct_numra.wavelets as wavelets

        base = haar_filter_bank(TranslationSet(1, 1), fourier())[0]
        phase = np.exp(1j * np.sin(2 * np.pi * base.u_grid.points()))
        pair = PeriodicFilterPair(base.ts, phase * base.comp1, phase * base.comp2)
        grid = numra_grid(base.ts, (-2.0, 2.0), refinement=64)
        whole = wavelets.HatEngine(pair, grid, oversample=1, J=20, depth=2)
        monkeypatch.setattr(wavelets, "_BLOCK", 1000)
        blocked = wavelets.HatEngine(pair, grid, oversample=1, J=20, depth=2)
        u = frequency_samples(grid, oversample=1)
        for j in range(1, 23):  # SPAN N (2N)^j points where they divide n, else all n
            order = 16 * 2**j
            assert blocked._period(pair, j).size == (order if u.size % order == 0 else u.size)
        for s in range(3):
            np.testing.assert_array_equal(blocked._tails[s], whole._tails[s])
            hat = HatFunction(blocked).dilated(s)
            assert np.max(np.abs(blocked._tails[s] - product_hat(hat, u))) <= 1e-14
            np.testing.assert_array_equal(blocked._tails[s], product_hat(hat, u))

    @pytest.mark.parametrize("N", [1, 2])
    def test_lattice_hats_match_product_formula(self, N):
        ts = TranslationSet(N, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
        scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
        u = frequency_samples(grid, oversample=1)
        # up to three digits, so the deepest tails need a second pass
        for n in range((2 * N) ** 2 + 2):
            node = HatFunction(scaling.engine, tuple(bank[d] for d in digits(n, N).digits))
            for level in (0, 1):
                hat = node.dilated(level)
                got = scaling.engine.lattice([hat])[0]
                assert np.max(np.abs(got - product_hat(hat, u))) <= 1e-14


class TestBitsFollowTheHat:
    """A hat's lattice values depend on the hat alone: each tail multiplies its rows
    in ascending j, and each hat its digit rows, whatever else one pass builds."""

    @staticmethod
    def haar(N):
        ts = TranslationSet(N, 1)
        return haar_filter_bank(ts, M2111), numra_grid(ts, (-2.0, 2.0), refinement=64)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_cascade_depth_does_not_move_phi(self, N):
        bank, grid = self.haar(N)
        alone = cascade(bank[0], grid=grid, oversample=1, depth=0)
        for depth in (1, 2, 3):
            res = cascade(bank[0], grid=grid, oversample=1, depth=depth)
            np.testing.assert_array_equal(res.engine.lattice([res.hat])[0],
                                          alone.engine.lattice([alone.hat])[0])
            assert res.tail_deviation == alone.tail_deviation

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_shared_packets_do_not_depend_on_n_max(self, N):
        # generate_packets(k + 1) builds one more tail where packet k + 1 has one
        # more digit than packet k
        bank, grid = self.haar(N)
        before = None
        for k in range((2 * N) ** 2 + 1):
            hats = [node.hat.engine.lattice([node.hat])[0]
                    for node in generate_packets(k, bank, grid=grid, oversample=1)]
            for n, (old, got) in enumerate(zip(before or [], hats)):
                np.testing.assert_array_equal(got, old, err_msg=f"packet {n} at n_max {k}")
            before = hats

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_hat_alone_equals_hat_in_batch(self, N):
        # the batch inserts digit rows 2 and 3 before the three-digit hat's row 1
        bank, grid = self.haar(N)
        n = (2 * N) ** 2 + 1

        def hats(engine):
            deep = [HatFunction(engine, tuple(bank[d] for d in digits(m, N).digits), 1)
                    for m in (2 * N, 2 * N + 1)]
            return deep + [HatFunction(engine, tuple(bank[d] for d in digits(n, N).digits))]

        engine = cascade(bank[0], grid=grid, oversample=1, depth=3).engine
        batch = engine.lattice(hats(engine))
        for hat, got in zip(hats(engine), batch):
            np.testing.assert_array_equal(engine.lattice([hat])[0], got)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_gapped_depths_are_separate_builds(self, N, monkeypatch):
        # depths 1 and 5 at J = 1 hold rows 2 and 6, and no row between them is evaluated
        import lct_numra.wavelets as wavelets

        bank, grid = self.haar(N)
        real = wavelets.HatEngine._period
        rows = []

        def counting(engine, pair, j):
            rows.append(j)
            return real(engine, pair, j)

        engine = wavelets.HatEngine(bank[0], grid, oversample=1, J=1, depth=0)
        monkeypatch.setattr(wavelets.HatEngine, "_period", counting)
        engine.lattice([HatFunction(engine, (), 1), HatFunction(engine, (), 5)])
        assert rows == [2, 6]
        for s in (1, 5):
            separate = wavelets.HatEngine(bank[0], grid, oversample=1, J=1, depth=0)
            separate.lattice([HatFunction(separate, (), s)])
            np.testing.assert_array_equal(engine._tails[s], separate._tails[s])
            row = np.resize(real(engine, bank[0], s + 1), engine.n)  # T_s = 1 x row s + 1
            np.testing.assert_array_equal(engine._tails[s], row)


def count_lattice_iffts(monkeypatch, grid) -> list:
    """A list that each inverse FFT of ``grid``'s oversample-1 lattice size appends to."""
    n = frequency_samples(grid, oversample=1).size
    real = np.fft.ifft
    calls = []

    def counting(a, *args, **kwargs):
        if np.shape(a) == (n,):
            calls.append(n)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    return calls


class TestOneSynthesisPerHat:
    """Each (hat, level) is inverse-transformed once; the rest are cuts of it."""

    @pytest.fixture(scope="class")
    def small(self):
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
        return ts, bank, grid

    def test_one_inverse_fft_per_hat_and_level(self, small, monkeypatch):
        ts, bank, grid = small
        calls = count_lattice_iffts(monkeypatch, grid)
        nodes = generate_packets(3, bank, grid=grid, oversample=1)
        parent = make_basis(nodes, ts, M2111, [(0, 1, [0.0, 0.5, 2.0])])
        children = make_basis(nodes, ts, M2111, [(n, 0, [0.0, 0.5, 2.0]) for n in range(4)])
        for b in (parent, children):
            b.certify()
            b.signals()
        # packets 0..3 at level 0 (packet 0 is the cascade's) and packet 0 at level 1
        assert len(calls) == 5
        scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
        node0 = packet_hat(digits(0, ts.N), bank, scaling=scaling, grid=grid, oversample=1)
        assert node0.hat is scaling.hat
        assert len(calls) == 5  # the cascade synthesises nothing
        signal = scaling.signal
        assert len(calls) == 6
        assert scaling.signal is signal
        node0.signal
        assert len(calls) == 6  # one synthesis for the hat, whoever reads it

    def test_cascade_synthesises_on_first_read(self, small, monkeypatch):
        ts, bank, grid = small
        calls = count_lattice_iffts(monkeypatch, grid)
        scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
        assert calls == [] and scaling.tail_deviation <= 1e-5
        assert scaling.signal.grid == grid
        assert len(calls) == 1
        np.testing.assert_array_equal(scaling.signal.values,
                                      hat_to_signal(scaling.hat, grid, oversample=1).values)
        assert len(calls) == 1

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_family_synthesises_its_wavelets_only(self, N, monkeypatch):
        # phi is the closed form, so the cascade's scaling hat is never inverse-transformed
        ts = TranslationSet(N, 1)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
        calls = count_lattice_iffts(monkeypatch, grid)
        fam = haar_family(ts, M2111, grid=grid, oversample=1)
        assert len(fam.psi) == 2 * N - 1
        assert len(calls) == 2 * N - 1

    def test_rows_evaluate_once_and_nodes_keep_no_lattice_array(self, small, monkeypatch):
        # a digit row is evaluated once per engine however often its hats are read, a
        # hat is synthesised once, and a node keeps no lattice array: its values are
        # formed from the engine's tails and rows where they are read
        import lct_numra.wavelets as wavelets

        ts, bank, grid = small
        real = wavelets.HatEngine._period
        rows = []

        def counting(engine, pair, j):
            rows.append((id(pair), j))
            return real(engine, pair, j)

        engine = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1).engine
        monkeypatch.setattr(wavelets.HatEngine, "_period", counting)
        calls = count_lattice_iffts(monkeypatch, grid)
        hat = HatFunction(engine, (bank[1], bank[2]))
        values = engine.lattice([hat])[0]
        twin = HatFunction(engine, (bank[1], bank[2]))
        for got in engine.lattice([hat, twin]):
            np.testing.assert_array_equal(got, values)
        fine = hat.periodic()
        assert hat.periodic() is fine
        other = HatFunction(engine, (bank[3], bank[2]))  # shares L_2 at j = 2
        samples = other.periodic()
        assert other.periodic() is samples
        engine.lattice([other])
        assert len(calls) == 2  # one inverse FFT per hat
        assert sorted(rows) == sorted([(id(bank[1]), 1), (id(bank[2]), 2), (id(bank[3]), 1)])
        for a in (values, fine, samples):
            assert not a.flags.writeable
        # AC-10's lattice: the five nodes keep nothing beyond the cascade's tails
        grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)
        tracemalloc.start()
        try:
            nodes = generate_packets(4, bank, grid=grid, oversample=1)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        engine = nodes[0].engine
        assert sorted(engine._tails) == [0, 1, 2]
        assert kept - sum(t.nbytes for t in engine._tails.values()) < 16 * engine.n

    def test_cut_atoms_equal_cold_synthesis(self, small):
        # every atom against its hat's lattice values computed afresh,
        # inverse-transformed and gathered modulo n
        ts, bank, grid = small
        nodes = generate_packets(3, bank, grid=grid, oversample=1)
        lams = [-2.0, 0.0, 0.5, 2.0]
        basis = make_basis(nodes, ts, M2111, [(n, 0, lams) for n in range(4)]
                           + [(1, 1, lams), (0, 2, lams)])
        engine = nodes[0].hat.engine
        n = engine.n
        idx = round(grid.t_min / grid.step) + np.arange(grid.count)
        for row, e in zip(basis._unchirped, basis.elements):
            cold = HatFunction(engine, e.node.hat.filters, e.level)
            vals = 4.0 ** (-e.level / 2.0) * engine.lattice([cold])[0]
            fine = np.fft.ifft(np.fft.ifftshift(vals)) * (n / SPAN)
            shift = round(e.lam / 4.0**e.level / grid.step)
            np.testing.assert_array_equal(row, fine[(idx - shift) % n])
            if e.level == 0 and e.lam == 0.0:
                # at oversample 1 a node's signal is a read-only window of its kept samples
                np.testing.assert_array_equal(e.node.signal.values, row)
                assert np.shares_memory(e.node.signal.values, e.node.hat.periodic())
                assert not e.node.signal.values.flags.writeable


WRAPPED_SPEC = [(2, 0, [-1.0, 0.0, 1.0, 2.0, 3.0])]  # at lam = 3 the cut wraps the period


class TestWindowedBasis:
    """Atoms are windows of kept syntheses; a node synthesises on its first read."""

    @pytest.mark.parametrize("m", [fourier(), M2111], ids=["fourier", "2111"])
    @pytest.mark.parametrize("spec", [
        PARENT_SPEC, CHILDREN_SPEC, WRAPPED_SPEC,
        [(0, 2, range(-1, 2)), (2, 1, range(-1, 2)), (6, 0, range(-1, 2)), (7, 0, range(-1, 2))],
    ], ids=["parent", "children", "wrapped", "three-levels"])
    def test_matches_stacked_oracle(self, haar1_nodes, m, spec):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, m, spec)
        stack = basis_reference.stacked_atoms(basis)
        assert basis.certify() == basis_reference.certify(basis, stack)
        assert basis.residual <= 1e-3
        grid = basis._grid
        rng = np.random.default_rng(31)
        f = SampledSignal(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))
        want = basis_reference.analyze(f, basis, stack)
        got = packet_analyze(f, basis).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        c = rng.normal(size=len(stack)) + 1j * rng.normal(size=len(stack))
        want = basis_reference.synthesize(c, basis, stack)
        got = packet_synthesize(CoefficientTable(packet_analyze(f, basis).rows, c), basis).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_atoms_are_windows_but_a_wrapped_cut(self, haar1_nodes):
        ts = TranslationSet(1, 1)
        basis = make_basis(haar1_nodes, ts, fourier(), WRAPPED_SPEC + [(1, 1, [0.0, 3.0])])
        kept = haar1_nodes[2].hat.periodic()
        level1 = basis._unchirped[-1].base
        for atom, e in zip(basis._unchirped, basis.elements):
            assert not atom.flags.writeable
            if e.level == 1:
                assert atom.base is level1  # one synthesis per (node, level)
            elif e.lam == 3.0:
                assert not np.shares_memory(atom, kept)
            else:
                assert atom.base is kept

    def test_retained_memory_does_not_grow_with_translates(self):
        # level-1 atoms of two packets: one synthesis per packet whatever the
        # number of translates (a stack of 20 per packet would hold 40 atoms)
        ts = TranslationSet(1, 1)
        bank = haar_filter_bank(ts, fourier())
        grid = numra_grid(ts, (-2.0, 2.0), refinement=512)
        nodes = generate_packets(2, bank, grid=grid, oversample=1)
        retained = {}
        for count in (2, 20):
            elements = [BasisElement(nodes[n], 1, float(lam))
                        for n in (1, 2) for lam in range(-10, count - 10)]
            tracemalloc.start()
            try:
                basis = PacketBasis(ts, fourier(), elements)
                basis.certify()
                retained[count] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del basis
        atom_bytes = 16 * grid.count
        assert retained[20] - retained[2] <= atom_bytes

    def test_lattice_sums_synthesise_nothing(self, monkeypatch):
        # fresh nodes: the Gram and the fold sums read lattice values only, a node's
        # signal is synthesised on its first read and kept, and a basis synthesises
        # each of its dilated hats once, through the one path HatFunction.periodic
        import lct_numra.wavelets as wavelets

        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
        nodes = generate_packets(4, bank, grid=grid, oversample=1)
        calls = []
        real = wavelets.periodic_samples

        def counting(values):
            calls.append(values.size)
            return real(values)

        monkeypatch.setattr(wavelets, "periodic_samples", counting)
        packet_gram(nodes, ts, M2111, (-2.0, 2.0))
        for node in nodes:
            fold_residuals(node, ts, oversample=1)
        assert calls == []
        signal = nodes[3].signal
        assert len(calls) == 1
        assert nodes[3].signal is signal
        assert len(calls) == 1
        want = hat_to_signal(nodes[3].hat, grid, oversample=1)
        np.testing.assert_array_equal(signal.values, want.values)
        assert signal.grid == want.grid
        # dilated hats: packet 1 and packet 0 at level 1, packet 2 at level 0
        basis = make_basis(nodes, ts, M2111, [(1, 1, [0.0, 0.5, 2.0]), (0, 1, [0.0]),
                                              (2, 0, [0.0, 2.0])])
        basis.certify()
        basis.signals()
        assert len(calls) == 1 + 3

    def test_unserved_grid_refused_when_the_node_is_made(self, haar1):
        ts, bank, grid, scaling = haar1
        with pytest.raises(ValueError, match="does not serve"):
            packet_hat(digits(1, ts.N), bank, scaling=scaling, grid=grid, oversample=2)
        coarse = numra_grid(ts, (-6.0, 6.0), refinement=4096)
        with pytest.raises(ValueError, match="does not serve"):
            packet_hat(digits(1, ts.N), bank, scaling=scaling, grid=coarse, oversample=1)


class TestReadThroughTheNode:
    """The bank owns a packet's translation set, the lattice its oversample, and the hat its
    level's scale; a value restated beside the nodes is checked, not trusted."""

    @pytest.fixture(scope="class")
    def n2(self):
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
        scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
        nodes = [packet_hat(digits(n, 2), bank, scaling=scaling, oversample=1) for n in range(4)]
        return ts, bank, grid, scaling, nodes

    @pytest.mark.parametrize("other", [TranslationSet(1, 1), TranslationSet(2, 3)])
    def test_restated_translation_set_refused(self, n2, other):
        # an N = 1 set read these N = 2 nodes' Gram residual as 0.4992 (0.0111 with their own)
        ts, _, _, _, nodes = n2
        message = f"nodes are not packets of {other}"
        with pytest.raises(ValueError, match=re.escape(message)):
            packet_gram(nodes, other, M2111, (-2.0, 2.0))
        with pytest.raises(ValueError, match=re.escape(message)):
            fold_residuals(nodes[1], other, oversample=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            PacketBasis(other, M2111, [BasisElement(nodes[1], 0, 0.0)])
        assert packet_gram(nodes, ts, M2111, (-2.0, 2.0))[1] < 0.05
        assert max(fold_residuals(nodes[1], ts, oversample=1)) < 0.05

    def test_empty_basis_refused(self, n2):
        # an empty basis has no node to read a grid from: certify() raised a bare IndexError
        ts = n2[0]
        with pytest.raises(ValueError, match="at least one element"):
            PacketBasis(ts, M2111, [])

    @pytest.mark.parametrize("other", [TranslationSet(1, 1), TranslationSet(2, 3)])
    def test_bank_of_another_set_refused(self, n2, other):
        ts, bank, grid, scaling, _ = n2
        foreign = haar_filter_bank(other, M2111)
        with pytest.raises(ValueError, match=re.escape(f"not all of the scaling's {ts}")):
            packet_hat(digits(1, 1), foreign, scaling=scaling, oversample=1)
        mixed = bank[:3] + foreign[-1:]  # 2N filters, the last of another set
        with pytest.raises(ValueError, match=re.escape(f"not all of the scaling's {ts}")):
            generate_packets(3, mixed, grid=grid, oversample=1)

    def test_bank_of_another_lowpass_refused(self, tmp_path):
        # the N = 1 db2 low-pass (taps (1 +- sqrt 3)/8, (3 +- sqrt 3)/8) cascaded and paired
        # with the Haar bank: packets 0..3 were accepted and their Gram residual read 0.375
        ts = TranslationSet(1, 1)
        db2 = n1_pair(DB2_TAPS)
        grid = numra_grid(ts, (-6.0, 7.0), refinement=1024)
        scaling = cascade(db2, grid=grid, oversample=1, depth=2)
        with pytest.raises(ValueError, match="bank filter 0 is not the scaling's low-pass"):
            packet_hat(digits(1, 1), haar_filter_bank(ts, fourier()), scaling=scaling)
        # the samples decide: db2 read back from its file is the scaling's low-pass
        write_filter_csv(tmp_path / "db2.csv", db2)
        own = [read_filter_csv(tmp_path / "db2.csv"), *complete_filters(db2)]
        nodes = [packet_hat(digits(n, 1), own, scaling=scaling) for n in range(4)]
        assert packet_gram(nodes, ts, fourier(), (-2.0, 2.0))[1] < 1e-5

    def test_lattice_owns_the_oversample(self, n2):
        # an oversample-1 cascade serves its own grid without a restated oversample
        ts, bank, grid, scaling, nodes = n2
        for n, explicit in enumerate(nodes):
            node = packet_hat(digits(n, 2), bank, scaling=scaling, grid=grid)
            np.testing.assert_array_equal(node.signal.values, explicit.signal.values)
            np.testing.assert_array_equal(hat_to_signal(node.hat, grid).values,
                                          hat_to_signal(node.hat, grid, oversample=1).values)
        coarse = numra_grid(ts, (-4.0, 4.0), refinement=16)  # 4 fine steps per grid step
        np.testing.assert_array_equal(hat_to_signal(nodes[1].hat, coarse).values,
                                      nodes[1].signal.values[::4])
        for oversample in (2, 16):
            with pytest.raises(ValueError, match="does not serve"):
                hat_to_signal(nodes[1].hat, grid, oversample=oversample)
            with pytest.raises(ValueError, match="does not serve"):
                packet_hat(digits(1, 2), bank, scaling=scaling, oversample=oversample)

    def test_dilated_atoms_keep_their_bits(self, n2):
        # HatFunction.periodic scales a dilated hat before its inverse FFT, as the
        # bases did with their own synthesis: (2N)^(-level/2) times the lattice values
        ts, _, grid, _, nodes = n2
        basis = make_basis(nodes, ts, M2111, [(1, 1, [0.0, 0.5, 2.0]), (0, 2, [0.0])])
        for atom, e in zip(basis._unchirped, basis.elements):
            hat = e.node.hat.dilated(e.level)
            values = hat.engine.lattice([hat])[0]
            fine = wavelets.periodic_samples(4.0 ** (-e.level / 2) * values)
            delay = grid.steps(e.lam / 4**e.level)
            np.testing.assert_array_equal(atom, wavelets.grid_samples(fine, grid, oversample=1,
                                                                      delay=delay))

    def test_packet_count_bounded_by_the_lattice(self, n2):
        # (n_max + 1) packets of SPAN translates each need as many lattice dimensions
        ts, bank, grid, _, _ = n2
        n = frequency_samples(grid, oversample=1).size
        with pytest.raises(ValueError, match=f"exceed the {n} dimensions"):
            generate_packets(n // 16, bank, grid=grid, oversample=1)
        with pytest.raises(ValueError, match="packet index must be nonnegative"):
            digits(-1, 2)
