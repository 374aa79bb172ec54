"""Nonuniform translation sets and half-period filter pairs.

The translation set is {2n, 2n + r/N : n in Z} for coprime (N, r) with r
odd.  A filter is stored as the pair of its half-periodic components
(comp1, comp2); the full frequency response in the normalized variable u
is

    L(u) = comp1(u mod 1/2) + exp(-2 pi i u r / N) * comp2(u mod 1/2).

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
from typing import Callable

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

    @property
    def spectral_intervals(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The two intervals [0, 1/2) and [N/2, (N+1)/2) paired with the set."""
        return ((0.0, 0.5), (self.N / 2.0, (self.N + 1) / 2.0))

    def to_dict(self) -> dict:
        return {"N": self.N, "r": self.r}

    @classmethod
    def from_dict(cls, obj: dict) -> "TranslationSet":
        return cls(int(obj["N"]), int(obj["r"]))


def omega_enumerate(ts: TranslationSet, window: tuple[float, float]) -> list[float]:
    """All set elements 2n and 2n + r/N inside [lo, hi), ascending."""
    lo, hi = window
    if hi <= lo:
        return []
    out = []
    shift = ts.r / ts.N
    n_lo = math.floor(lo / 2.0) - 1
    n_hi = math.ceil(hi / 2.0) + 1
    for n in range(n_lo, n_hi + 1):
        for lam in (2.0 * n, 2.0 * n + shift):
            if lo <= lam < hi:
                out.append(lam)
    return sorted(out)


def default_u_count(ts: TranslationSet, target: int = 4096) -> int:
    """Smallest multiple of 4N at or above ``target`` (grid alignment)."""
    block = 4 * ts.N
    return ((target + block - 1) // block) * block


@dataclass(frozen=True)
class PeriodicFilterPair:
    """Half-periodic component pair sampled on a uniform grid over [0, 1/2).

    ``eval_fn``, when present, evaluates the two components exactly at
    arbitrary u (used for filters with closed forms); otherwise component
    lookups fall back to the nearest stored sample.
    """

    ts: TranslationSet
    u_grid: Grid
    comp1: np.ndarray
    comp2: np.ndarray
    eval_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, compare=False
    )

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

    @property
    def shift_stride(self) -> int:
        """Grid indices per shift step 1/(4N)."""
        return self.u_grid.count // (2 * self.ts.N)

    def components_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Component values at arbitrary u (half-period reduction applied)."""
        u = np.asarray(u, dtype=float)
        if self.eval_fn is not None:
            c1, c2 = self.eval_fn(u)
            return np.asarray(c1, dtype=np.complex128), np.asarray(c2, dtype=np.complex128)
        idx = np.round(np.mod(u, 0.5) / self.u_grid.step).astype(int) % self.u_grid.count
        return self.comp1[idx], self.comp2[idx]


def filter_pair_from_components(
    ts: TranslationSet,
    eval_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    count: int | None = None,
) -> PeriodicFilterPair:
    """Sample exact component callables onto the standard u grid."""
    count = default_u_count(ts) if count is None else count
    grid = Grid(t_min=0.0, step=0.5 / count, count=count)
    c1, c2 = eval_fn(grid.points())
    return PeriodicFilterPair(ts, grid, np.asarray(c1), np.asarray(c2), eval_fn=eval_fn)


def filter_eval(p: PeriodicFilterPair, u) -> np.ndarray:
    """Full response comp1(u) + exp(-2 pi i u r/N) comp2(u); u unreduced in the phase."""
    u_arr = np.asarray(u, dtype=float)
    c1, c2 = p.components_at(u_arr)
    vals = c1 + np.exp(-2j * np.pi * u_arr * p.ts.r / p.ts.N) * c2
    if np.isscalar(u) or u_arr.ndim == 0:
        return complex(vals)
    return vals


def m0(p: PeriodicFilterPair, u) -> np.ndarray:
    """Power profile |comp1(u)|^2 + |comp2(u)|^2 (nonnegative real)."""
    c1, c2 = p.components_at(u)
    vals = np.abs(c1) ** 2 + np.abs(c2) ** 2
    if np.isscalar(u):
        return float(vals)
    return vals


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


def _perp2(v: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to a unit vector in C^2."""
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def _align_unitary(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic 2x2 unitary mapping direction x to direction y."""
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx < 1e-14 or ny < 1e-14:
        return np.eye(2, dtype=np.complex128)
    xh = x / nx
    yh = y / ny
    bx = np.column_stack([xh, _perp2(xh)])
    by = np.column_stack([yh, _perp2(yh)])
    return by @ bx.conj().T


def _complete_vectors(v0: np.ndarray, N: int) -> list[np.ndarray]:
    """Orthonormal vectors v_1..v_{2N-1} pairing with v0 under both bank sums.

    ``v0`` has shape (2N, 2): row p holds the two component values at the
    p-th shift.  The twisted sum anticommutes with the involution that
    swaps row blocks p and p + N through per-block alignment unitaries;
    the +1 eigenspace of that involution contains v0 (its block norms
    agree by quarter-period invariance) and has dimension exactly 2N, so
    completing v0 to an orthonormal basis of the eigenspace satisfies the
    plain and twisted conditions simultaneously.  Seeds are the lifted
    standard unit vectors, appended by residual-norm pivoting.
    """
    two_n = 2 * N
    aligners = [_align_unitary(v0[p], v0[p + N]) for p in range(N)]
    seeds = []
    for p in range(N):
        for slot in range(2):
            e = np.zeros((two_n, 2), dtype=np.complex128)
            e[p, slot] = 1.0 / np.sqrt(2.0)
            e[p + N] = aligners[p][:, slot] / np.sqrt(2.0)
            seeds.append(e)

    def dot(a, b):
        return np.sum(a * np.conj(b))

    basis = [v0 / np.sqrt(np.real(dot(v0, v0)))]
    remaining = list(range(two_n))
    out = []
    for _ in range(two_n - 1):
        best_idx = None
        best_res = None
        best_norm = -1.0
        for si in remaining:
            res = seeds[si].copy()
            for b in basis:
                res -= dot(res, b) * b
            rnorm = float(np.sqrt(np.real(dot(res, res))))
            if rnorm > best_norm + 1e-12:
                best_idx, best_res, best_norm = si, res, rnorm
        if best_norm < 1e-10:
            raise FilterConditionError("completion degenerated; low-pass vector invalid")
        vec = best_res / best_norm
        # second orthogonalization pass for numerical hygiene
        for b in basis:
            vec -= dot(vec, b) * b
        vec /= np.sqrt(np.real(dot(vec, vec)))
        basis.append(vec)
        remaining.remove(best_idx)
        out.append(vec)
    return out


def complete_filters(
    p0: PeriodicFilterPair, *, pre_tol: float = 1e-8
) -> list[PeriodicFilterPair]:
    """Extend an admissible low-pass pair to 2N - 1 high-pass pairs.

    Preconditions: the scaling-condition residuals and the quarter-period
    residual of ``p0`` must be below ``pre_tol``.  The completion is
    pointwise in u (no smoothness across samples is guaranteed); its
    output re-certifies under check_orthonormality at the stored samples.
    """
    res_a, res_b = check_scaling_conditions(p0)
    res_q = check_m0_period(p0)
    worst = max(res_a, res_b, res_q)
    if worst > pre_tol:
        raise FilterConditionError(
            f"low-pass filter fails admissibility (max residual {worst:.3e})"
        )
    N = p0.ts.N
    two_n = 2 * N
    stride = p0.shift_stride
    count = p0.u_grid.count
    base = count // two_n  # samples per base cell [0, 1/(4N))
    comps1 = [np.zeros(count, dtype=np.complex128) for _ in range(two_n - 1)]
    comps2 = [np.zeros(count, dtype=np.complex128) for _ in range(two_n - 1)]
    for i in range(base):
        idx = (i + stride * np.arange(two_n)) % count
        v0 = np.column_stack([p0.comp1[idx], p0.comp2[idx]])
        vecs = _complete_vectors(v0, N)
        for k, vec in enumerate(vecs):
            comps1[k][idx] = vec[:, 0]
            comps2[k][idx] = vec[:, 1]
    return [
        PeriodicFilterPair(p0.ts, p0.u_grid, comps1[k], comps2[k])
        for k in range(two_n - 1)
    ]


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
