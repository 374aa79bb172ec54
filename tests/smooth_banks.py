"""Uniform (N = 1) low-pass filters from their taps, and Lawton's orthonormality oracle.

A filter with taps h_0..h_{L-1}, sum h = 1, is L(u) = sum_n h_n exp(-2 pi i n u).  On
the translation set {0, 1} + 2Z its pair holds the even taps in comp1 and the odd taps
in comp2, each a polynomial in z = exp(-4 pi i u).  Lawton (J. Math. Phys. 32(1),
1991) tests the integer translates of the cascade's scaling function: for a filter
whose conditions hold, they are orthonormal exactly when eigenvalue 1 of
``lawton_matrix`` is simple.
"""

import numpy as np

from lct_numra.filters import PeriodicFilterPair, TranslationSet, default_u_count, sample_grid

#: Daubechies' four-tap filter db2, (1 +- sqrt 3)/8 and (3 +- sqrt 3)/8 (sum 1).
DB2_TAPS = np.array([1 + np.sqrt(3), 3 + np.sqrt(3), 3 - np.sqrt(3), 1 - np.sqrt(3)]) / 8


def stretched_haar_taps(k: int) -> np.ndarray:
    """Taps of Daubechies' stretched Haar filter (1 + z^k)/2 (Ten Lectures, ch. 6)."""
    taps = np.zeros(k + 1)
    taps[[0, k]] = 0.5
    return taps


def n1_pair(taps) -> PeriodicFilterPair:
    """The N = 1, r = 1 pair of L(u) = sum_n taps[n] exp(-2 pi i n u)."""
    ts = TranslationSet(1, 1)
    z = np.exp(-4j * np.pi * sample_grid(default_u_count(ts)).points())
    taps = np.asarray(taps, dtype=float)
    comp1, comp2 = (np.polyval(taps[start::2][::-1], z) for start in (0, 1))
    return PeriodicFilterPair(ts, comp1, comp2)


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
