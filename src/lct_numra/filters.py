"""Nonuniform translation sets and half-period filter pairs.

The translation set is {2n, 2n + r/N : n in Z} for coprime (N, r) with r
odd.  A filter is stored as the samples of its half-periodic components
(comp1, comp2) on [0, 1/2); the full frequency response in the normalized
variable u is

    L(u) = comp1(u mod 1/2) + exp(-2 pi i u r / N) * comp2(u mod 1/2).

A pair whose samples are a short trigonometric polynomial evaluates L
from its Fourier terms by one Horner-and-combine step on the phases
z = exp(-4 pi i u) and cross = exp(-2 pi i u r/N): powers q^(2N), q^r of
q = exp(-2 pi i u/N) at any real u, exact root-of-unity tables on a
``wavelets.HatEngine`` lattice; Horner skips zero bins by running in z^g
for the stride g of the nonzero terms.  Other pairs take the nearest sample.

This module owns the numerical verifiers for every admissibility
condition used downstream (shift orthonormality of filter banks,
quarter-period power profile, scaling-function conditions) and the
pointwise unitary completion that extends an admissible low-pass filter
to a full bank of 2N filters.

Condition codes used in verification reports: "2.21" and "2.22" are the
plain and twisted bank orthonormality sums, "2.33" is quarter-period
invariance of the power profile m0, "3.4a"/"3.4b" are the scaling sums.
All four sums, and the packet fold sums one level up, are the same plain
and twisted sum over 2N half-period shifts; ``shift_sums`` computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import Grid


class FilterConditionError(ValueError):
    """Raised when a filter fails a precondition for an operation."""


@dataclass(frozen=True)
class TranslationSet:
    """Parameters (N, r) of the translation set {0, r/N} + 2Z."""

    N: int
    r: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not (1 <= self.r <= 2 * self.N - 1):
            raise ValueError("r must satisfy 1 <= r <= 2N - 1")
        if self.r % 2 == 0:
            raise ValueError("r must be odd")
        if math.gcd(self.r, self.N) != 1:
            raise ValueError("r and N must be coprime")

    @property
    def dilation(self) -> int:
        return 2 * self.N

    def to_dict(self) -> dict:
        return {"N": self.N, "r": self.r}

    @classmethod
    def from_dict(cls, obj: dict) -> "TranslationSet":
        return cls(int(obj["N"]), int(obj["r"]))


def omega_enumerate(ts: TranslationSet, window: tuple[float, float]) -> list[float]:
    """All set elements 2n and 2n + r/N inside [lo, hi), ascending."""
    lo, hi = window
    n = np.arange(math.floor(lo / 2.0) - 1, math.ceil(hi / 2.0) + 2)
    lam = np.concatenate([2.0 * n, 2.0 * n + ts.r / ts.N])
    return sorted(lam[(lo <= lam) & (lam < hi)].tolist())


def default_u_count(ts: TranslationSet) -> int:
    """Smallest multiple of 4N at or above 4096 (grid alignment)."""
    block = 4 * ts.N
    return ((4096 + block - 1) // block) * block


#: Largest admissibility residual of a low-pass pair that ``complete_filters``
#: and ``wavelets.cascade`` accept.
ADMISSIBLE_TOL = 1e-8

#: Most Fourier bins the terms of an exact pair may span.
_MAX_SPAN = 64

#: Size, relative to the largest sample, of a rounding-level term, and of
#: the misfit per bin of span that an exact pair may leave at its samples.
_EXACT_RTOL = 1e-14


@dataclass(frozen=True)
class PeriodicFilterPair:
    """Half-periodic component pair sampled on a uniform grid over [0, 1/2).

    The samples are the filter.  Their inverse DFT gives the terms
    c_k exp(-4 pi i k u), bin k >= count/2 standing for k - count.  When
    the nonzero terms span at most ``_MAX_SPAN`` bins and reproduce every
    sample to rounding (``_EXACT_RTOL``), the pair is ``exact`` and
    evaluates from them at any u (``_sparse``: lowest nonzero bin, stride g
    of the others, their terms); otherwise lookups take the nearest sample.
    """

    ts: TranslationSet
    u_grid: Grid
    comp1: np.ndarray
    comp2: np.ndarray
    _sparse: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        count = self.u_grid.count
        if count % (4 * self.ts.N) != 0:
            raise ValueError("u grid count must be a multiple of 4N")
        if abs(self.u_grid.t_min) > 1e-12 or abs(self.u_grid.step * count - 0.5) > 1e-12:
            raise ValueError("u grid must cover [0, 1/2)")
        for name in ("comp1", "comp2"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.shape != (count,):
                raise ValueError(f"{name} length must match the u grid")
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_sparse", self._fourier_terms())

    def _fourier_terms(self) -> tuple[int, int, np.ndarray] | None:
        """(lowest nonzero bin, stride g, terms per component) if they reproduce the samples."""
        samples = np.stack([self.comp1, self.comp2])
        count = samples.shape[1]
        tol = _EXACT_RTOL * np.max(np.abs(samples))
        coef = np.fft.ifft(samples)
        signed = np.fft.fftfreq(count, 1.0 / count)[np.max(np.abs(coef), axis=0) > tol]
        lo, hi = int(signed.min(initial=0)), int(signed.max(initial=0))
        if hi - lo >= _MAX_SPAN:
            return None
        terms = coef[:, np.arange(lo, hi + 1) % count]
        terms[np.abs(terms) <= tol] = 0.0
        nz = np.flatnonzero(np.any(terms != 0, axis=0))
        k0, g = (int(nz[0]), int(np.gcd.reduce(nz - nz[0]))) if nz.size else (0, 0)
        sparse = (lo + k0, g, terms[:, k0::g or terms.shape[1]])
        u = self.u_grid.points()  # checked through the evaluator itself
        c1, c2 = _horner(sparse, self._phases(u)[0], u.shape)
        misfit = max(np.max(np.abs(c1 - self.comp1)), np.max(np.abs(c2 - self.comp2)))
        # samples of a term up to bin k carry rounding of phases up to 2 pi k
        return sparse if misfit <= tol * (hi - lo + 1) else None

    @property
    def exact(self) -> bool:
        """True when the pair evaluates from its Fourier terms, not by nearest sample."""
        return self._sparse is not None

    @property
    def shift_stride(self) -> int:
        """Grid indices per shift step 1/(4N)."""
        return self.u_grid.count // (2 * self.ts.N)

    def components_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Component values at arbitrary u (half-period reduction applied)."""
        u = np.asarray(u, dtype=float)
        if self._sparse is None:
            idx = np.round(np.mod(u, 0.5) / self.u_grid.step).astype(int) % self.u_grid.count
            return self.comp1[idx], self.comp2[idx]
        return _horner(self._sparse, self._phases(u)[0], u.shape)

    def _phases(self, u: np.ndarray):
        """zpow(k) = z^k of z = exp(-4 pi i u), cross = exp(-2 pi i u r/N); q = exp(-2 pi i u/N)."""
        q = np.exp((-2j * np.pi / self.ts.N) * np.fmod(u, self.ts.N))  # L has period N in u
        return (q ** (2 * self.ts.N)).__pow__, q**self.ts.r

    def _combine(self, zpow, cross: np.ndarray) -> np.ndarray:
        """Response comp1 + cross * comp2 of an exact pair from z^k = zpow(k) and cross."""
        c1, c2 = _horner(self._sparse, zpow, cross.shape)
        return c1 + cross * c2


def _horner(sparse: tuple, zpow, shape: tuple) -> np.ndarray:
    """Both components of terms ``sparse`` on ``shape`` points by Horner in z^g;
    zpow(k) = z^k, asked only for the powers needed."""
    lo, g, terms = sparse
    coeffs = terms.T[::-1].reshape((-1, 2) + (1,) * len(shape))
    if len(coeffs) == 1:
        acc = np.broadcast_to(coeffs[0], (2,) + shape).copy()
    else:
        zg = zpow(g)
        acc = coeffs[0] * zg
        for c in coeffs[1:-1]:
            acc += c
            acc *= zg
        acc += coeffs[-1]
    if lo:
        acc *= zpow(lo)
    return acc


def filter_eval(p: PeriodicFilterPair, u) -> np.ndarray:
    """Full response comp1(u) + exp(-2 pi i u r/N) comp2(u); u unreduced in the phase."""
    u_arr = np.asarray(u, dtype=float)
    if p.exact:
        vals = p._combine(*p._phases(u_arr))
    else:
        c1, c2 = p.components_at(u_arr)
        vals = c1 + np.exp(-2j * np.pi * u_arr * p.ts.r / p.ts.N) * c2
    return complex(vals) if u_arr.ndim == 0 else vals


def m0(p: PeriodicFilterPair, u) -> np.ndarray:
    """Power profile |comp1(u)|^2 + |comp2(u)|^2 (nonnegative real)."""
    c1, c2 = p.components_at(u)
    vals = np.abs(c1) ** 2 + np.abs(c2) ** 2
    return float(vals) if np.isscalar(u) else vals


def _m0_samples(p: PeriodicFilterPair) -> np.ndarray:
    return np.abs(p.comp1) ** 2 + np.abs(p.comp2) ** 2


def check_m0_period(p: PeriodicFilterPair) -> float:
    """Max |m0(u + 1/4) - m0(u)| over the stored grid.

    Quarter-period invariance of the power profile is the existence
    condition for a complete bank of 2N - 1 high-pass filters.
    """
    samples = _m0_samples(p)
    quarter = p.u_grid.count // 2
    return float(np.max(np.abs(np.roll(samples, -quarter) - samples)))


def shift_sums(x: np.ndarray, stride: int, ts: TranslationSet) -> tuple[np.ndarray, np.ndarray]:
    """Plain and twisted sums of one sampled period over its 2N shifts.

    ``stride`` is the number of samples in one shift, a 2N-th of the
    period.  Returns plain = sum_p x(. + p*stride) and twisted =
    sum_p exp(-i pi r p / N) x(. + p*stride), p = 0..2N-1.
    """
    phases = np.exp(-1j * np.pi * ts.r * np.arange(2 * ts.N) / ts.N)
    plain = np.zeros_like(x)
    twisted = np.zeros(x.shape, dtype=np.complex128)
    for p in range(2 * ts.N):
        shifted = np.roll(x, -p * stride)
        plain += shifted
        twisted += phases[p] * shifted
    return plain, twisted


def check_orthonormality(
    pl: PeriodicFilterPair, pk: PeriodicFilterPair, same_index: bool
) -> tuple[float, float]:
    """Residuals of the two bank orthonormality sums for a filter pair (l, k).

    Sum over the 2N shifts u + p/(4N) of comp1_l conj(comp1_k) +
    comp2_l conj(comp2_k) must equal delta_{lk} (code "2.21"); the same
    sum twisted by exp(-i pi r p / N) must vanish (code "2.22").  Returns
    (max residual of the plain sum, max residual of the twisted sum).
    """
    if pl.ts != pk.ts:
        raise FilterConditionError("filter pairs have different translation sets")
    if pl.u_grid != pk.u_grid:
        raise FilterConditionError("filter pairs have different u grids")
    term = pl.comp1 * np.conj(pk.comp1)
    term += pl.comp2 * np.conj(pk.comp2)
    plain, twisted = shift_sums(term, pl.shift_stride, pl.ts)
    target = 1.0 if same_index else 0.0
    res21 = float(np.max(np.abs(plain - target)))
    res22 = float(np.max(np.abs(twisted)))
    return res21, res22


def check_scaling_conditions(p0: PeriodicFilterPair) -> tuple[float, float]:
    """Residuals of the two scaling-function sums over shifted power profiles.

    Sum over the 2N shifts of m0 must equal 1 (code "3.4a"); the twisted
    sum must vanish (code "3.4b").
    """
    plain, twisted = shift_sums(_m0_samples(p0), p0.shift_stride, p0.ts)
    res_a = float(np.max(np.abs(plain - 1.0)))
    res_b = float(np.max(np.abs(twisted)))
    return res_a, res_b


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of stacked vectors over their trailing (2N, 2) axes."""
    return np.sum(a * np.conj(b), axis=(-2, -1))


def _aligners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stacked 2x2 unitaries mapping each direction x to y: by bx^H for the
    frames [v/|v|, perp] of x and y, or the identity where |x| or |y| < 1e-14."""
    def frame(v, n):
        vh = v / np.maximum(n, 1e-14)
        return np.stack([vh, np.stack([-np.conj(vh[..., 1]), np.conj(vh[..., 0])], -1)], -1)

    nx, ny = (np.linalg.norm(v, axis=-1, keepdims=True) for v in (x, y))
    u = frame(y, ny) @ np.conj(np.swapaxes(frame(x, nx), -1, -2))
    u[((nx < 1e-14) | (ny < 1e-14))[..., 0]] = np.eye(2)
    return u


def complete_filters(p0: PeriodicFilterPair) -> list[PeriodicFilterPair]:
    """Extend an admissible low-pass pair to 2N - 1 high-pass pairs.

    Preconditions: the scaling-condition residuals and the quarter-period
    residual of ``p0`` must be below ``ADMISSIBLE_TOL``.  The completion is
    pointwise in u (no smoothness across samples is guaranteed); its
    output re-certifies under check_orthonormality at the stored samples.

    At a sample u of the base cell [0, 1/(4N)) the low-pass values at the
    2N shifts u + p/(4N) form v0 of shape (2N, 2), row p holding the two
    components.  The twisted sum anticommutes with the involution that
    swaps row blocks p and p + N through per-block alignment unitaries;
    the +1 eigenspace of that involution contains v0 (its block norms
    agree by quarter-period invariance) and has dimension exactly 2N, so
    completing v0 to an orthonormal basis of the eigenspace satisfies the
    plain and twisted conditions simultaneously.  Seeds are the lifted
    standard unit vectors, appended by residual-norm pivoting.  Every
    step runs on all samples at once, stacked as (samples, 2N, 2).
    """
    res_a, res_b = check_scaling_conditions(p0)
    res_q = check_m0_period(p0)
    worst = max(res_a, res_b, res_q)
    if worst > ADMISSIBLE_TOL:
        raise FilterConditionError(
            f"low-pass filter fails admissibility (max residual {worst:.3e})"
        )
    N = p0.ts.N
    two_n = 2 * N
    base = p0.shift_stride  # samples per base cell; shift p starts at p * base
    v0 = np.stack([p0.comp1, p0.comp2], -1).reshape(two_n, base, 2).transpose(1, 0, 2)
    aligners = _aligners(v0[:, :N], v0[:, N:])  # (samples, N, 2, 2): block p onto p + N
    seeds = np.zeros((base, N, 2, two_n, 2), dtype=np.complex128)
    for p in range(N):
        for slot in range(2):
            seeds[:, p, slot, p, slot] = 1.0 / np.sqrt(2.0)
            seeds[:, p, slot, p + N] = aligners[:, p, :, slot] / np.sqrt(2.0)
    seeds = seeds.reshape(base, two_n, two_n, 2)
    basis = [v0 / np.sqrt(np.real(_dot(v0, v0)))[:, None, None]]
    rows = np.arange(base)
    used = np.zeros((base, two_n), dtype=bool)
    for _ in range(two_n - 1):
        res = seeds.copy()
        for b in basis:
            res -= _dot(res, b[:, None])[..., None, None] * b[:, None]
        norms = np.where(used, -np.inf, np.sqrt(np.real(_dot(res, res))))
        best_idx = np.zeros(base, dtype=int)
        best_norm = np.full(base, -1.0)
        for si in range(two_n):  # a scan, not argmax: near-ties within 1e-12 keep the earlier seed
            take = norms[:, si] > best_norm + 1e-12
            best_idx[take], best_norm[take] = si, norms[take, si]
        if np.min(best_norm) < 1e-10:
            raise FilterConditionError("completion degenerated; low-pass vector invalid")
        vec = res[rows, best_idx] / best_norm[:, None, None]
        # second orthogonalization pass for numerical hygiene
        for b in basis:
            vec -= _dot(vec, b)[:, None, None] * b
        vec /= np.sqrt(np.real(_dot(vec, vec)))[:, None, None]
        basis.append(vec)
        used[rows, best_idx] = True
    comps = np.stack(basis[1:]).transpose(0, 3, 2, 1).reshape(two_n - 1, 2, -1)
    return [PeriodicFilterPair(p0.ts, p0.u_grid, c1, c2) for c1, c2 in comps]


def bank_residuals(bank: list[PeriodicFilterPair]) -> dict[str, float]:
    """Worst-case residuals of a whole filter bank (index 0 = low-pass).

    Returns a mapping with the per-condition maxima over all index pairs,
    keyed by condition code; a NaN residual of any pair is kept, not dropped.
    """
    sums = np.array([check_orthonormality(pl, pk, same_index=(i == j))
                     for i, pl in enumerate(bank) for j, pk in enumerate(bank)])
    res21, res22 = (float(v) for v in sums.max(axis=0))
    res_a, res_b = check_scaling_conditions(bank[0])
    return {
        "2.21": res21,
        "2.22": res22,
        "2.33": check_m0_period(bank[0]),
        "3.4a": res_a,
        "3.4b": res_b,
    }
