"""Uniform grids, sampled complex signals, and chirped translates.

Signals model compactly supported functions: the value outside the grid
window is 0.  Quadrature is trapezoidal, and ``Grid.trapezoid_weights``
owns its weights: every inner product, norm and Gram matrix here, and the
quadratures of the transform, projection and packet modules, use them.
Translations must land exactly on grid points (no interpolation), which
keeps indicator-function inner products exact when breakpoints sit on the
grid.

A chirped basis element is an unchirped one times the time chirp and the
constant of its shift (``chirp_phase``, in the convention stated by
``canonical.chirp_rate``).  The time chirp cancels in every product, so a
chirped Gram is D G_0 D^H with D the diagonal of those constants:
``dilate`` and ``weighted_gram`` take unchirped samples, and
``chirped_translate_gram`` builds no translate.  Its shifts are whole
cells of g = gcd of their offsets, one batched product per cell lag:
n_sig^2 |lags| P multiply-adds for P = ceil(count/g) g, not a stack's
(n_sig |lambdas|)^2 count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalMatrix, chirp_rate

#: Relative slack when deciding whether an offset is an exact grid multiple.
_ALIGN_TOL = 1e-9

#: Largest |j| that dilate accepts.
DEFAULT_LEVEL_BUDGET = 16

#: Columns per block of ``weighted_gram``; bounds its conjugate temporary.
_GRAM_BLOCK = 1 << 14


class GridMismatchError(ValueError):
    """Raised when two signals live on incompatible grids."""


class OffGridError(ValueError):
    """Raised when a translation does not land on grid points."""


@dataclass(frozen=True)
class Grid:
    """Uniform time grid: points t_min + i*step for i in range(count)."""

    t_min: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "t_min", float(self.t_min))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "count", int(self.count))
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.count <= 0:
            raise ValueError("count must be positive")

    def points(self) -> np.ndarray:
        return self.t_min + self.step * np.arange(self.count)

    @property
    def t_max(self) -> float:
        """One step past the last grid point (half-open window end)."""
        return self.t_min + self.step * self.count

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid-rule weights: step at interior points, step/2 at both ends."""
        w = np.full(self.count, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def index_of(self, t: float) -> int:
        """Exact index of a grid point; raises OffGridError otherwise."""
        ratio = (t - self.t_min) / self.step
        idx = round(ratio)
        if abs(ratio - idx) > _ALIGN_TOL:
            raise OffGridError(f"t = {t} is not on the grid (offset {ratio})")
        return int(idx)

    def to_dict(self) -> dict:
        return {"t_min": self.t_min, "step": self.step, "count": self.count}

    @classmethod
    def from_dict(cls, obj: dict) -> "Grid":
        return cls(float(obj["t_min"]), float(obj["step"]), int(obj["count"]))


def numra_grid(ts, window: tuple[float, float], *, refinement: int = 1,
               max_level: int = 0) -> Grid:
    """Grid compatible with a translation set: step = 1/(2N*K*(2N)^J).

    Every element of the translation set and every dilation by (2N)^j,
    |j| <= max_level, then maps grid points to grid points.
    """
    two_n = 2 * ts.N
    step = 1.0 / (two_n * refinement * two_n**max_level)
    t_lo, t_hi = window
    i_lo = round(t_lo / step)
    if abs(i_lo * step - t_lo) > _ALIGN_TOL * step:
        raise OffGridError("window start must be a multiple of the grid step")
    count = int(round((t_hi - t_lo) / step))
    return Grid(t_min=i_lo * step, step=step, count=count)


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on a uniform grid (zero outside)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.count,):
            raise ValueError("values length must match grid count")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)

    def value_at(self, x) -> np.ndarray:
        """Piecewise-constant lookup (right-limit convention), 0 off-window.

        Exact for signals sampled from functions that are constant between
        grid points with jumps on the grid, which covers every indicator
        basis used here.
        """
        x = np.asarray(x, dtype=float)
        idx = np.floor((x - self.grid.t_min) / self.grid.step + _ALIGN_TOL).astype(int)
        inside = (idx >= 0) & (idx < self.grid.count)
        out = np.zeros(x.shape, dtype=np.complex128)
        out[inside] = self.values[idx[inside]]
        return out


def indicator(intervals, grid: Grid) -> SampledSignal:
    """Indicator of a union of [lo, hi) intervals, right-limit at jumps."""
    t = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    for lo, hi in intervals:
        vals += ((t >= lo - _ALIGN_TOL * grid.step) & (t < hi - _ALIGN_TOL * grid.step))
    return SampledSignal(grid, vals)


def gaussian(grid: Grid) -> SampledSignal:
    """Unit-mass Gaussian exp(-pi t^2)."""
    return SampledSignal(grid, np.exp(-np.pi * grid.points() ** 2))


def _common_samples(f: SampledSignal, g: SampledSignal):
    """Align two signals on the coarser of two nested grids; returns (f, g, grid).

    Accepts identical grids, or one grid refining the other with shared
    points (integer step ratio, aligned offsets).  Anything else is
    rejected; no interpolation is ever performed.
    """
    gf, gg = f.grid, g.grid
    if gf == gg:
        return f.values, g.values, gf
    if gf.step > gg.step:
        coarse_vals, coarse, fine_sig = f.values, gf, g
    else:
        coarse_vals, coarse, fine_sig = g.values, gg, f
    fine = fine_sig.grid
    ratio = coarse.step / fine.step
    k = round(ratio)
    if k < 1 or abs(ratio - k) > _ALIGN_TOL:
        raise GridMismatchError("grid steps are not nested")
    off = (coarse.t_min - fine.t_min) / fine.step
    o = round(off)
    if abs(off - o) > _ALIGN_TOL:
        raise GridMismatchError("grid offsets do not align")
    idx = o + k * np.arange(coarse.count)
    inside = (idx >= 0) & (idx < fine.count)
    fine_vals = np.zeros(coarse.count, dtype=np.complex128)
    fine_vals[inside] = fine_sig.values[idx[inside]]
    if fine_sig is f:
        return fine_vals, coarse_vals, coarse
    return coarse_vals, fine_vals, coarse


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Trapezoidal quadrature of f * conj(g)."""
    fv, gv, grid = _common_samples(f, g)
    return complex(np.sum(fv * np.conj(gv) * grid.trapezoid_weights()))


def norm(f: SampledSignal) -> float:
    """L2 norm by trapezoidal quadrature."""
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def rel_l2_error(got: SampledSignal, ref: SampledSignal) -> float:
    """||got - ref||_2 / ||ref||_2 on the common grid."""
    gv, rv, grid = _common_samples(got, ref)
    w = grid.trapezoid_weights()
    num = np.sqrt(np.sum(np.abs(gv - rv) ** 2 * w))
    den = np.sqrt(np.sum(np.abs(rv) ** 2 * w))
    return float(num / den)


def chirp_phase(m: CanonicalMatrix, t, shift: float) -> np.ndarray:
    """Modulation exp(-i pi r (t^2 - shift^2)) of translated bases, r = ``chirp_rate(m)``.

    An array t takes two arrays: t^2 less shift^2 in place in one real
    array, and its complex multiple, exponentiated in place.
    """
    arg = np.square(np.asarray(t, dtype=float))
    arg -= np.square(shift)
    arg = -1j * np.pi * chirp_rate(m) * arg
    return np.exp(arg, out=arg) if isinstance(arg, np.ndarray) else np.exp(arg)


def _common_grid(system: list[SampledSignal]) -> Grid:
    grid = system[0].grid
    if any(s.grid != grid for s in system[1:]):
        raise GridMismatchError("signals must share a common grid")
    return grid


def _offset(lam: float, grid: Grid) -> int:
    """Samples in a translation by ``lam``; raises OffGridError unless it is whole."""
    ratio = lam / grid.step
    offset = round(ratio)
    if abs(ratio - offset) > _ALIGN_TOL:
        raise OffGridError(f"translation {lam} is not a multiple of step {grid.step}")
    return int(offset)


def _translated(values: np.ndarray, offsets: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(rows, offsets, t) samples at indices t of each row shifted by each offset, zero-filled."""
    idx = t[None, :] - offsets[:, None]
    inside = (idx >= 0) & (idx < values.shape[1])
    return np.where(inside, values[:, np.clip(idx, 0, values.shape[1] - 1)], 0.0)


def translate_chirp(phi: SampledSignal, lam: float, m: CanonicalMatrix) -> SampledSignal:
    """Chirped translate t -> phi(t - lam) * chirp_phase(m, t, lam) (``canonical.chirp_rate``).

    ``lam`` must be an exact multiple of the grid step; this is rejected
    otherwise rather than silently interpolated.
    """
    grid = phi.grid
    offset = np.array([_offset(lam, grid)])
    row = _translated(phi.values[None], offset, np.arange(grid.count))[0, 0]
    row *= chirp_phase(m, grid.points(), 0.0) * chirp_phase(m, 0.0, lam)
    return SampledSignal(grid, row)


def chirped_translate_gram(system: list[SampledSignal], lambdas,
                           m: CanonicalMatrix) -> np.ndarray:
    """Gram of the chirped translates of every signal at every shift, signal-major.

    Equals ``gram_matrix`` of ``translate_chirp(s, lam, m)`` for s in
    ``system``, lam in ``lambdas``, as G = D G_0 D^H with D the diagonal of
    shift phases chirp_phase(m, 0, lam).  A shift of o samples that leaves
    the window gives a zero row; the others are whole cells of g = gcd(o)
    samples (the whole count if every o is 0).  Over the window's whole
    cells a G_0 entry is a run of the cell products of its cell lag d, one
    batched product per |d|; the part cell at the window's end and the
    trapezoid endpoints (``Grid.trapezoid_weights``) are added sample by sample.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n_sig, n_lam = len(system), len(lambdas)
    if n_sig * n_lam == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    grid = _common_grid(system)
    count = grid.count
    offsets = np.array([_offset(lam, grid) for lam in lambdas])
    live = np.flatnonzero(np.abs(offsets) < count)
    cell = int(np.gcd.reduce(offsets[live])) or count
    n_cells, n_whole = -(-count // cell), count // cell
    cells = np.zeros((n_sig, n_cells, cell), dtype=np.complex128)
    values = cells.reshape(n_sig, -1)[:, :count]
    for row, s in zip(values, system):
        row[:] = s.values
    conj_cells = cells.conj()

    @functools.cache
    def lag(d: int) -> np.ndarray:
        """[p, i, k] = sum_j cells[i, p + d, j] conj(cells[k, p, j])."""
        return np.matmul(cells[:, d:].transpose(1, 0, 2),
                         conj_cells[:, : n_cells - d].transpose(1, 2, 0))

    g0 = np.zeros((n_sig, n_lam, n_sig, n_lam), dtype=np.complex128)
    shift = offsets // cell
    for x in live:
        for y in live:
            # cells p of signal k: window cell p + shift[y] is whole, p + d and p exist
            d = shift[y] - shift[x]
            lo, hi = max(0, -d, -shift[y]), min(n_cells, n_cells - d, n_whole - shift[y])
            if lo >= hi:
                continue
            if d >= 0:
                g0[:, x, :, y] = lag(d)[lo:hi].sum(axis=0)
            else:
                g0[:, x, :, y] = lag(-d)[lo + d:hi + d].sum(axis=0).conj().T
    # the window's part cell and the trapezoid endpoints, sample by sample
    t = np.union1d(np.arange(n_whole * cell, count), [0, count - 1])
    w = grid.trapezoid_weights()[t] - grid.step * (t < n_whole * cell)
    edge = _translated(values, offsets, t).reshape(n_sig * n_lam, t.size)
    g = g0.reshape(n_sig * n_lam, -1) * grid.step + (edge * w) @ edge.conj().T
    phases = np.tile(chirp_phase(m, 0.0, lambdas), n_sig)
    return g * phases[:, None] * phases.conj()


def dilate(phi: SampledSignal, j: int, N: int, lam: float, *,
           grid: Grid | None = None) -> SampledSignal:
    """Unchirped element (2N)^{j/2} phi((2N)^j t - lam) on ``grid`` (default ``phi.grid``).

    Times ``chirp_phase(m, t, lam)`` it is the chirped element.  ``lam`` must
    be a multiple of ``phi.grid.step``.  Where the dilated argument lands on a
    grid point of ``phi`` (j >= 0 on grids built for it) the value is exact;
    elsewhere it comes from the right-limit piecewise-constant extension of
    ``phi``, exact for indicator-type generators.
    """
    if abs(j) > DEFAULT_LEVEL_BUDGET:
        raise ValueError(f"level {j} exceeds budget {DEFAULT_LEVEL_BUDGET}")
    _offset(lam, phi.grid)
    grid = phi.grid if grid is None else grid
    scale = float(2 * N) ** j
    return SampledSignal(grid, (2 * N) ** (j / 2.0) * phi.value_at(scale * grid.points() - lam))


def weighted_gram(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoidal inner products of the rows of a (signals x count) array on ``grid``.

    The product is summed over column blocks, so the weighted conjugate is
    one block at a time, never a copy of ``rows``.
    """
    w = grid.trapezoid_weights()
    g = np.zeros((rows.shape[0], rows.shape[0]), dtype=np.complex128)
    for a in range(0, rows.shape[1], _GRAM_BLOCK):
        block = rows[:, a:a + _GRAM_BLOCK]
        b = block.conj()
        b *= w[a:a + _GRAM_BLOCK]
        g += block @ b.T
    return g


def gram_matrix(system: list[SampledSignal]) -> np.ndarray:
    """Pairwise trapezoidal inner products of signals on one common grid."""
    if not system:
        return np.zeros((0, 0), dtype=np.complex128)
    grid = _common_grid(system)
    return weighted_gram(np.stack([s.values for s in system]), grid)


def identity_deviation(g: np.ndarray) -> float:
    """Max |G - I| of a square Gram matrix (0 for the empty one)."""
    return float(np.max(np.abs(g - np.eye(g.shape[0])))) if g.size else 0.0
