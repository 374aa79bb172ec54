"""Uniform (N = 1) low-pass filters from their taps, and Lawton's orthonormality oracle.

Every two-band filter of length 2K whose taps are orthonormal to their even shifts
comes from K rotation angles through the paraunitary lattice of Vaidyanathan & Hoang
(IEEE Trans. ASSP 36(1), 1988): ``lattice_taps``, with ``lattice_angles`` the
``hypothesis`` strategy that draws them at K = 1..4 (the tests fix its seed).  Angles
at 0 give stretched filters, so Lawton's test below still decides the scaling function.

A filter with taps h_0..h_{L-1}, sum h = 1, is L(u) = sum_n h_n exp(-2 pi i n u).  On
the translation set {0, 1} + 2Z its pair holds the even taps in comp1 and the odd taps
in comp2, each a polynomial in z = exp(-4 pi i u); ``n2_lift_bank`` lifts the filter and
its alternating flip to an exact bank on {0, r/2} + 2Z.  Lawton (J. Math. Phys. 32(1),
1991) tests the integer translates of the cascade's scaling function: for a filter
whose conditions hold, they are orthonormal exactly when eigenvalue 1 of
``lawton_matrix`` is simple.
"""

import numpy as np
from hypothesis import strategies as st

from lct_numra.filters import PeriodicFilterPair, TranslationSet, default_u_count, sample_grid

#: Daubechies' four-tap filter db2, (1 +- sqrt 3)/8 and (3 +- sqrt 3)/8 (sum 1).
DB2_TAPS = np.array([1 + np.sqrt(3), 3 + np.sqrt(3), 3 - np.sqrt(3), 1 - np.sqrt(3)]) / 8


def stretched_haar_taps(k: int) -> np.ndarray:
    """Taps of Daubechies' stretched Haar filter (1 + z^k)/2 (Ten Lectures, ch. 6)."""
    taps = np.zeros(k + 1)
    taps[[0, k]] = 0.5
    return taps


def lattice_taps(angles) -> np.ndarray:
    """The 2K taps, sum 1, of the paraunitary low-pass with lattice rotation angles
    theta_0..theta_{K-1} summing to pi/4.

    [H0; H1] starts as R(theta_0) [1; z^-1] and each further angle takes it to
    R(theta_k) [H0; z^-2 H1], so [H0; H1](1) = R(sum theta) [1; 1] and H0(1) = sqrt 2;
    the taps are H0's divided by sqrt 2.
    """
    h0, h1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for k, theta in enumerate(angles):
        if k:
            h0, h1 = np.append(h0, [0.0, 0.0]), np.insert(h1, 0, [0.0, 0.0])
        c, s = np.cos(theta), np.sin(theta)
        h0, h1 = c * h0 + s * h1, c * h1 - s * h0
    return h0 / np.sqrt(2.0)


#: Rotation angles of ``lattice_taps`` at K = 1..4: K - 1 free in [-pi, pi), the last
#: completing the sum pi/4 (K = 1 is Haar).
lattice_angles = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.floats(-np.pi, np.pi, exclude_max=True), min_size=k - 1,
                       max_size=k - 1)
).map(lambda free: [*free, np.pi / 4 - sum(free)])


def n1_pair(taps) -> PeriodicFilterPair:
    """The N = 1, r = 1 pair of L(u) = sum_n taps[n] exp(-2 pi i n u)."""
    ts = TranslationSet(1, 1)
    z = np.exp(-4j * np.pi * sample_grid(default_u_count(ts)).points())
    taps = np.asarray(taps, dtype=float)
    comp1, comp2 = (np.polyval(taps[start::2][::-1], z) for start in (0, 1))
    return PeriodicFilterPair(ts, comp1, comp2)


def n2_lift_bank(taps, r: int = 1) -> list[PeriodicFilterPair]:
    """The exact N = 2 bank {(m/2, +-m/2), (g/2, +-g/2)} on {0, r/2} + 2Z, filter 2d + s
    being (A_d, (-1)^s A_d) as in ``haar_filter_bank``.

    m(z) = sum_n taps[n] z^n in z = exp(-8 pi i u), and g is its alternating flip,
    g_k = (-1)^k taps[L-1-k].  Filter 0, comp1 = comp2 = m/2, is the lift of the N = 1
    low-pass; Haar's taps (1/2, 1/2) give ``haar_filter_bank`` at lattice phases 1.
    """
    ts = TranslationSet(2, r)
    z = np.exp(-8j * np.pi * sample_grid(default_u_count(ts)).points())
    taps = np.asarray(taps, dtype=float)
    bank = []
    for t in (taps, (-1.0) ** np.arange(taps.size) * taps[::-1]):
        half = np.polyval(t[::-1], z) / 2
        bank += [PeriodicFilterPair(ts, half, sign * half) for sign in (1.0, -1.0)]
    return bank


def lawton_matrix(taps) -> np.ndarray:
    """T_ij = a_{2i-j}, i, j = -(L-1)..L-1, a_k = sum_n h_n h_{n+k} for h = sqrt(2) taps."""
    h = np.sqrt(2.0) * np.asarray(taps, dtype=float)
    span = h.size - 1
    a = np.correlate(h, h, mode="full")  # a[k + span] = a_k, |k| <= span
    idx = np.arange(-span, span + 1)
    k = 2 * idx[:, None] - idx[None, :]
    return np.where(np.abs(k) <= span, a[np.clip(k + span, 0, 2 * span)], 0.0)


def eigenvalue_one_multiplicity(taps, tol: float = 1e-6) -> int:
    """How many eigenvalues of ``lawton_matrix(taps)`` lie within ``tol`` of 1."""
    return int(np.sum(np.abs(np.linalg.eigvals(lawton_matrix(taps)) - 1.0) <= tol))
