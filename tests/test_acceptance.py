"""Acceptance gate: every criterion pinned at its stated tolerance.

Each test prints one machine-readable pass/fail line (visible with
``pytest -s``) and asserts the same bound, so the suite is the gate.
"""

import json
import time

import numpy as np
import pytest

from lct_numra.canonical import CanonicalMatrix, fourier, fresnel
from lct_numra.filters import (
    TranslationSet,
    check_m0_period,
    check_orthonormality,
    check_scaling_conditions,
    complete_filters,
    filter_eval,
    omega_enumerate,
)
from lct_numra.lct import ilct, lct_direct, lct_fast, parseval_residual
from lct_numra.packets import (
    BasisElement,
    PacketBasis,
    digits,
    packet_analyze,
    packet_gram,
    packet_hat,
    packet_synthesize,
)
from lct_numra.reports import anomalous_n2_report
from lct_numra.sampling import (
    Grid,
    SampledSignal,
    gaussian,
    gram_matrix,
    indicator,
    norm,
    numra_grid,
    translate_chirp,
)
from lct_numra.wavelets import (
    HatFunction,
    cascade,
    haar_family,
    haar_filter_bank,
    haar_filters,
    haar_scaling,
    l2_distance_off_jumps,
    piecewise_constant,
    two_scale_residual,
)

from hat_reference import product_hat

M2111 = CanonicalMatrix(2, 1, 1, 1)
FIXTURE_MATRICES = [("fourier", fourier()), ("fresnel1", fresnel(1.0)), ("haar2111", M2111)]


def classical_haar_wavelet(grid):
    """The step wavelet +1 on [0, 1/2), -1 on [1/2, 1)."""
    return piecewise_constant([(0.0, 0.5, 1.0), (0.5, 1.0, -1.0)], grid)


def report(tag: str, passed: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{tag}: {detail}"


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def gaussian_2048():
    grid = Grid(-8.0, 16.0 / 2048, 2048)
    return gaussian(grid)


@pytest.fixture(scope="module")
def haar1_packets():
    """N = 1 classical packets 0..8 on a Nyquist-matched fine grid."""
    ts = TranslationSet(1, 1)
    bank = haar_filter_bank(ts, fourier())
    grid = numra_grid(ts, (-6.0, 6.0), refinement=8192)
    scaling = cascade(bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
    nodes = {
        n: packet_hat(digits(n, 1), bank, scaling=scaling, grid=grid, oversample=1)
        for n in range(9)
    }
    return ts, bank, grid, nodes


def test_ac01_lct_oracle_equivalence_and_timing(gaussian_2048):
    f = gaussian_2048
    worst = 0.0
    t_fast = 0.0
    t_direct = 0.0
    for _, m in FIXTURE_MATRICES:
        lct_fast(f, m)  # warm-up
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            fast = lct_fast(f, m)
            best = min(best, time.perf_counter() - t0)
        t_fast = max(t_fast, best)
        t0 = time.perf_counter()
        direct = lct_direct(f, m, fast.grid)
        t_direct = max(t_direct, time.perf_counter() - t0)
        worst = max(worst, rel_l2(fast.values, direct.values))
    report(
        "AC-01",
        worst <= 1e-6 and t_fast < 0.050 and t_direct < 5.0,
        f"fast-vs-direct rel L2 {worst:.3e} (tol 1e-6), "
        f"fast {1e3 * t_fast:.2f} ms (< 50 ms), direct {t_direct:.2f} s (< 5 s)",
    )


def test_ac02_inversion_and_parseval(gaussian_2048):
    f = gaussian_2048
    worst_rt = 0.0
    worst_pv = 0.0
    for _, m in FIXTURE_MATRICES:
        back = ilct(lct_fast(f, m), m, f.grid, method="fast")
        worst_rt = max(worst_rt, rel_l2(back.values, f.values))
        worst_pv = max(worst_pv, parseval_residual(f, f, m))
    chi = indicator([(0.0, 1.0)], f.grid)
    back = ilct(lct_fast(chi, M2111), M2111, chi.grid, method="fast")
    rt_chi = rel_l2(back.values, chi.values)
    pv_chi = parseval_residual(chi, chi, M2111)
    report(
        "AC-02",
        worst_rt <= 1e-6 and worst_pv <= 1e-6 and rt_chi <= 1e-3 and pv_chi <= 1e-3,
        f"gaussian round-trip {worst_rt:.3e} / parseval {worst_pv:.3e} (tol 1e-6); "
        f"indicator round-trip {rt_chi:.3e} / parseval {pv_chi:.3e} (tol 1e-3)",
    )


def test_ac03_fourier_special_case(gaussian_2048):
    spec = lct_fast(gaussian_2048, fourier())
    u = spec.grid.points()
    closed = np.exp(-np.pi * u**2) / np.sqrt(1j)
    err = float(np.max(np.abs(spec.values - closed)))
    report("AC-03", err <= 1e-6, f"max error vs closed form {err:.3e} (tol 1e-6)")


def valid_r(N):
    import math

    return [r for r in range(1, 2 * N, 2) if math.gcd(r, N) == 1]


def test_ac04_haar_filter_certification():
    worst = 0.0
    slowest = 0.0
    cases = 0
    for N in (1, 2, 3):
        for r in valid_r(N):
            for _, m in [FIXTURE_MATRICES[0], FIXTURE_MATRICES[2]]:
                t0 = time.perf_counter()
                p0 = haar_filters(TranslationSet(N, r), m)
                r21, r22 = check_orthonormality(p0, p0, same_index=True)
                r34a, r34b = check_scaling_conditions(p0)
                rq = check_m0_period(p0)
                slowest = max(slowest, time.perf_counter() - t0)
                worst = max(worst, r21, r22, r34a, r34b, rq)
                cases += 1
    report(
        "AC-04",
        worst <= 1e-12 and slowest < 1.0,
        f"{cases} families, worst residual {worst:.3e} (tol 1e-12), "
        f"slowest {slowest:.3f} s (< 1 s)",
    )


def test_ac05_cascade_correctness():
    ts = TranslationSet(1, 1)
    p0 = haar_filters(ts, fourier())
    result = cascade(p0, J=20, tol=1e-5)
    assert result.signal.grid.step == 2.0**-10
    ref = haar_scaling(ts, result.signal.grid)
    err = l2_distance_off_jumps(result.signal, ref, jumps=[0.0, 1.0])
    ts_res = two_scale_residual(result.hat)
    report(
        "AC-05",
        err <= 1e-2 and ts_res <= 1e-6,
        f"scaling reproduction L2 {err:.3e} (tol 1e-2, jump cells excluded), "
        f"two-scale residual {ts_res:.3e} (tol 1e-6)",
    )


def test_ac06_chirped_system_orthonormality():
    ts = TranslationSet(2, 1)
    grid = numra_grid(ts, (-8.0, 10.0), refinement=256)  # step 1/1024
    assert grid.step <= 1.0 / 1024
    phi = haar_scaling(ts, grid)
    lambdas = omega_enumerate(ts, (-6.0, 6.0 + 1e-9))
    system = [translate_chirp(phi, lam, M2111) for lam in lambdas]
    g = gram_matrix(system)
    off = float(np.max(np.abs(g - np.eye(len(system)))))
    report(
        "AC-06",
        off <= 1e-3,
        f"{len(system)} chirped translates, max |G - I| {off:.3e} (tol 1e-3)",
    )


def test_ac07_wavelet_reproduction():
    ts = TranslationSet(1, 1)
    grid = numra_grid(ts, (-6.0, 6.0), refinement=8192)
    fam = haar_family(ts, fourier(), grid=grid, oversample=1)
    ref = classical_haar_wavelet(grid)
    err = l2_distance_off_jumps(fam.psi[0], ref, jumps=[0.0, 0.5, 1.0])
    lambdas = omega_enumerate(ts, (-4.0, 4.0 + 1e-9))
    psis = [translate_chirp(fam.psi[0], lam, fam.m) for lam in lambdas]
    phis = [translate_chirp(fam.phi, lam, fam.m) for lam in lambdas]
    g = gram_matrix(psis + phis)
    cross = float(np.max(np.abs(g[: len(psis), len(psis):])))
    report(
        "AC-07",
        err <= 1e-2 and cross <= 1e-3,
        f"classical wavelet L2 {err:.3e} (tol 1e-2, jump cells excluded), "
        f"detail-vs-scaling cross Gram {cross:.3e} (tol 1e-3)",
    )


def test_ac08_completion_self_certification():
    worst = 0.0
    for N in (1, 2):
        p0 = haar_filters(TranslationSet(N, 1), M2111)
        bank = [p0] + complete_filters(p0)
        for i, pl in enumerate(bank):
            for j, pk in enumerate(bank):
                r21, r22 = check_orthonormality(pl, pk, same_index=(i == j))
                worst = max(worst, r21, r22)
    report(
        "AC-08",
        worst <= 1e-10,
        f"completed banks N in (1, 2): worst pair residual {worst:.3e} (tol 1e-10)",
    )


def test_ac09_packet_indexing_and_recursion():
    # digit expansions reconstruct exactly below one million
    for N in (1, 2, 3, 5):
        base = 2 * N
        n_arr = np.arange(1_000_000, dtype=np.int64)
        rest = n_arr.copy()
        total = np.zeros_like(n_arr)
        place = np.ones_like(n_arr)
        while np.any(rest > 0):
            total += (rest % base) * place
            rest //= base
            place *= base
        assert np.array_equal(total, n_arr), f"digit reconstruction failed for N={N}"
    # spot-check the library path against the vectorized reconstruction
    from lct_numra.packets import reconstruct

    rng = np.random.default_rng(2)
    for N in (1, 2, 3, 5):
        for n in rng.integers(0, 1_000_000, size=200):
            assert reconstruct(digits(int(n), N), N) == int(n)

    worst = 0.0
    for N in (1, 2):
        ts = TranslationSet(N, 1)
        bank = haar_filter_bank(ts, M2111)
        grid = numra_grid(ts, (-1.0, 3.0), refinement=512 // N)
        scaling = cascade(bank[0], J=44, tol=1e-5, grid=grid)
        two_n = 2 * N
        u = np.linspace(-8.0, 8.0, 1603)

        def node(n):
            return HatFunction(scaling.engine, tuple(bank[d] for d in digits(n, N).digits))

        for n in range((2 * N) ** 2 + 1):
            parent_vals = product_hat(node(n), u / two_n)
            for k in range(two_n):
                child = node(two_n * n + k)
                rhs = filter_eval(bank[k], u / two_n) * parent_vals
                worst = max(worst, float(np.max(np.abs(product_hat(child, u) - rhs))))
    report(
        "AC-09",
        worst <= 1e-10,
        f"digits exact for n < 1e6, N in (1,2,3,5); "
        f"recursion identity worst {worst:.3e} (tol 1e-10)",
    )


def test_ac10_packet_orthonormality(haar1_packets):
    ts1, _, _, nodes1 = haar1_packets
    _, off1 = packet_gram(
        [nodes1[n] for n in range(9)], ts1, fourier(), (-4.0, 4.0 + 1e-9)
    )
    ts2 = TranslationSet(2, 1)
    bank2 = haar_filter_bank(ts2, M2111)
    grid2 = numra_grid(ts2, (-5.0, 7.0), refinement=4096)
    scaling2 = cascade(bank2[0], J=20, tol=1e-5, grid=grid2, oversample=1)
    nodes2 = [
        packet_hat(digits(n, 2), bank2, scaling=scaling2, grid=grid2, oversample=1)
        for n in range(5)
    ]
    _, off2 = packet_gram(nodes2, ts2, M2111, (-4.0, 4.0 + 1e-9))
    report(
        "AC-10",
        off1 <= 1e-3 and off2 <= 1e-3,
        f"N=1 n<=8 max |G - I| {off1:.3e}; N=2 n<=4 max |G - I| {off2:.3e} (tol 1e-3)",
    )


def test_ac11_subspace_decomposition(haar1_packets):
    ts, _, grid, nodes = haar1_packets
    m = fourier()

    def make_basis(specs):
        elements = [
            BasisElement(nodes[n], level, float(lam))
            for (n, level, lams) in specs
            for lam in lams
        ]
        basis = PacketBasis(ts, m, elements)
        assert basis.certify() <= 1e-3
        return basis

    parent = make_basis([(1, 1, range(-2, 3))])
    children = make_basis([(2, 0, range(-2, 3)), (3, 0, range(-2, 3))])
    rng = np.random.default_rng(7)
    sigs = parent.signals()
    coeff = rng.normal(size=len(sigs)) + 1j * rng.normal(size=len(sigs))
    f = SampledSignal(grid, sum(c * s.values for c, s in zip(coeff, sigs)))
    nf = norm(f)
    rec_parent = packet_synthesize(packet_analyze(f, parent), parent)
    table = packet_analyze(f, children)
    rec_children = packet_synthesize(table, children)
    split = norm(SampledSignal(grid, rec_parent.values - rec_children.values)) / nf
    energy = abs(float(np.sum(np.abs(table.values) ** 2)) - nf**2) / nf**2
    report(
        "AC-11",
        split <= 2e-3 and energy <= 1e-3,
        f"parent-vs-children reconstruction {split:.3e} (tol 2e-3), "
        f"energy conservation {energy:.3e} (tol 1e-3)",
    )


def test_ac12_discrepancy_reporting():
    r1 = anomalous_n2_report()
    r2 = anomalous_n2_report()
    b1 = json.dumps(r1, sort_keys=True, indent=2).encode()
    b2 = json.dumps(r2, sort_keys=True, indent=2).encode()
    report(
        "AC-12",
        b1 == b2 and r1["matrix_determinant"] == -2.0 and r1["permissive_mode"],
        f"byte-identical reports: {b1 == b2}; det recorded "
        f"{r1['matrix_determinant']}; wavelet gram off-identity "
        f"{r1['wavelet_gram']['max_off_identity']:.3e}",
    )
