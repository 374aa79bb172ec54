import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lct_numra.canonical import CanonicalMatrix, fourier, fresnel, frft
from lct_numra.filters import PeriodicFilterPair, TranslationSet, filter_eval, omega_enumerate
from lct_numra.packets import (
    BasisElement,
    CoefficientTable,
    PacketBasis,
    PacketIndex,
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
from lct_numra.sampling import (
    SampledSignal,
    chirp_phase,
    gram_matrix,
    identity_deviation,
    inner_product,
    norm,
    numra_grid,
    weighted_gram,
)
from lct_numra.wavelets import (
    SPAN,
    HatFunction,
    cascade,
    default_time_grid,
    frequency_samples,
    haar_filter_bank,
)

from hat_reference import ExactRows, product_hat

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


@pytest.fixture(scope="module")
def ac10_nodes():
    """The N = 2, r = 1 packets 0..4 of AC-10 (five signals of 196608 samples)."""
    ts = TranslationSet(2, 1)
    bank = haar_filter_bank(ts, M2111)
    grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)
    scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
    nodes = [packet_hat(digits(n, 2), bank, scaling=scaling, grid=grid, oversample=1)
             for n in range(5)]
    return ts, nodes


class TestLagGramAC10:
    WINDOW = (-4.0, 4.0 + 1e-9)

    def test_entries_match_long_double(self, ac10_nodes):
        # the shift phases are the library's own doubles; the products and
        # sums of the zero-filled translates are taken in long double
        ts, nodes = ac10_nodes
        g, _ = packet_gram(nodes, ts, M2111, self.WINDOW)
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
        inputs = sum(node.signal.values.nbytes for node in nodes)
        tracemalloc.start()
        try:
            packet_gram(nodes, ts, M2111, self.WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the cell copy of the inputs and one conjugated cell per signal: no conjugate copy
        assert peak <= 1.5 * inputs


class TestCascadeAC10:
    def test_peak_memory_in_lattice_arrays(self):
        # the three tails, row J and T_0's product with it, |their difference|
        # and one row block's temporaries: six lattice arrays
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
        want = rows @ (rows.conj() * grid.trapezoid_weights()).T
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
        # generate, certify a level-1 and a level-0 basis, fold: every filter
        # row L_d(u/(2N)^j) is evaluated on exactly one period of the lattice,
        # or on the whole lattice when its period does not divide it
        import lct_numra.wavelets as wavelets

        # periods of 128 and 512 points then straddle block edges
        monkeypatch.setattr(wavelets, "_BLOCK", 1000)
        real = wavelets.HatEngine._row
        calls = []

        def counting(engine, pair, j, a, b):
            calls.append((id(pair), b - a, j, a))
            return real(engine, pair, j, a, b)

        monkeypatch.setattr(wavelets.HatEngine, "_row", counting)
        ts = TranslationSet(2, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
        nodes = generate_packets(4, bank, grid=grid, oversample=1)
        make_basis(nodes, ts, M2111, [(0, 1, [0.0, 0.5, 2.0])]).certify()
        make_basis(nodes, ts, M2111, [(n, 0, [0.0, 2.0]) for n in range(4)]).certify()
        fold_residuals(nodes[1], ts, oversample=1)
        n = frequency_samples(grid, oversample=1).size
        assert len(calls) == len(set(calls))
        points = {}
        for key, size, j, _ in calls:
            points[key, j] = points.get((key, j), 0) + size

        def once(j):
            order = 16 * 2 * 4**j
            return min(order, n) if n % order == 0 else n

        # tails of depth 0..2 take the low-pass rows 1..22 (J = 20); the digit
        # rows are L_1, L_2, L_3 at level 1 and L_1 at level 2, while digit 0
        # of packet 4 reuses the low-pass row at level 1
        want = {(id(bank[0]), j): once(j) for j in range(1, 23)}
        want.update({(id(bank[d]), 1): once(1) for d in (1, 2, 3)})
        want[id(bank[1]), 2] = once(2)
        assert points == want
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
        exact = ExactRows(engine.u.size)
        for j in (1, 3, 6, 10, 15, 20, 22, 23):
            for pair in bank:
                want = exact.row(pair, j)
                got = np.concatenate([engine._row(pair, j, a, b) for a, b in engine._blocks()])
                assert np.max(np.abs(got - want)) <= 2e-15

    def test_nearest_sample_rows_are_filter_eval(self, monkeypatch):
        # Haar N = 1 times exp(i sin 2 pi u): no short Fourier series, so each
        # row, and the tail built from them, is filter_eval at u/(2N)^j
        import lct_numra.wavelets as wavelets

        monkeypatch.setattr(wavelets, "_BLOCK", 1000)
        base = haar_filter_bank(TranslationSet(1, 1), fourier())[0]
        phase = np.exp(1j * np.sin(2 * np.pi * base.u_grid.points()))
        pair = PeriodicFilterPair(base.ts, base.u_grid, phase * base.comp1, phase * base.comp2)
        assert not pair.exact
        grid = numra_grid(base.ts, (-2.0, 2.0), refinement=64)
        engine = wavelets.HatEngine(pair, grid, oversample=1, J=20, depth=0)
        u = engine.u
        for j in (0, 1, 2, 5, 11, 20):
            got = np.concatenate([engine._row(pair, j, a, b) for a, b in engine._blocks()])
            np.testing.assert_array_equal(got, filter_eval(pair, u / 2.0**j))
        phi = HatFunction(engine)
        np.testing.assert_array_equal(engine.lattice([phi])[0], product_hat(phi, u))

    @pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)])
    def test_tails_and_hats_match_exact_phases(self, N, r, monkeypatch):
        # refinement 72 gives every N periodic rows (periods of 32..256,
        # 128 and 512, or 288 and 1728 points) that straddle block edges
        import lct_numra.wavelets as wavelets

        monkeypatch.setattr(wavelets, "_BLOCK", 1000)
        ts = TranslationSet(N, r)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-2.0, 2.0), refinement=72)
        exact = ExactRows(frequency_samples(grid, oversample=1).size)
        for depth in (0, 1, 2):
            engine = wavelets.HatEngine(bank[0], grid, oversample=1, J=20, depth=depth)
            assert engine._period(bank[0], 1).size < engine.u.size
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
        # a nearest-sample low-pass has no period: every row is filter_eval
        # block by block, so the tails do not depend on the block size, and
        # the deepest tail, whose rows all follow the shared core, is the
        # product formula bit for bit
        import lct_numra.wavelets as wavelets

        base = haar_filter_bank(TranslationSet(1, 1), fourier())[0]
        phase = np.exp(1j * np.sin(2 * np.pi * base.u_grid.points()))
        pair = PeriodicFilterPair(base.ts, base.u_grid, phase * base.comp1, phase * base.comp2)
        grid = numra_grid(base.ts, (-2.0, 2.0), refinement=64)
        whole = wavelets.HatEngine(pair, grid, oversample=1, J=20, depth=2)
        monkeypatch.setattr(wavelets, "_BLOCK", 1000)
        blocked = wavelets.HatEngine(pair, grid, oversample=1, J=20, depth=2)
        assert all(blocked._period(pair, j).size == blocked.u.size for j in range(1, 23))
        for s in range(3):
            np.testing.assert_array_equal(blocked._tails[s], whole._tails[s])
            hat = HatFunction(blocked).dilated(s)
            assert np.max(np.abs(blocked._tails[s] - product_hat(hat, blocked.u))) <= 1e-14
        np.testing.assert_array_equal(blocked._tails[2],
                                      product_hat(HatFunction(blocked, (), 2), blocked.u))

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
        real = np.fft.ifft
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting)
        nodes = generate_packets(3, bank, grid=grid, oversample=1)
        parent = make_basis(nodes, ts, M2111, [(0, 1, [0.0, 0.5, 2.0])])
        children = make_basis(nodes, ts, M2111, [(n, 0, [0.0, 0.5, 2.0]) for n in range(4)])
        for b in (parent, children):
            b.certify()
            b.signals()
        n = frequency_samples(grid, oversample=1).size
        # packets 0..3 at level 0 (packet 0 is the cascade's) and packet 0 at level 1
        assert sizes.count((n,)) == 5
        scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
        node0 = packet_hat(digits(0, ts.N), bank, scaling=scaling, grid=grid, oversample=1)
        assert node0.hat is scaling.hat
        assert sizes.count((n,)) == 6

    def test_cut_atoms_equal_cold_synthesis(self, small):
        # every atom against its hat's lattice values computed afresh,
        # inverse-transformed and gathered modulo n
        ts, bank, grid = small
        nodes = generate_packets(3, bank, grid=grid, oversample=1)
        lams = [-2.0, 0.0, 0.5, 2.0]
        basis = make_basis(nodes, ts, M2111, [(n, 0, lams) for n in range(4)]
                           + [(1, 1, lams), (0, 2, lams)])
        engine = nodes[0].hat.engine
        n = engine.u.size
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
