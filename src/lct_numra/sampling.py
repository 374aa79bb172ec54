"""Uniform grids, sampled complex signals, and the chirped-atom system.

Signals model compactly supported functions: the value outside the grid
window is 0.  Quadrature is trapezoidal, and ``Grid.trapezoid_weights``
owns its weights: every inner product, norm and Gram matrix here, and the
quadratures of the transform, projection and packet modules, use them.
Translations must land exactly on grid points (no interpolation), which
keeps indicator-function inner products exact when breakpoints sit on the
grid.

A chirped basis element is an unchirped one times the time chirp and the
constant of its shift (``chirp_phase``, in the convention stated by
``canonical.chirp_rate``).  This module owns the chirped-atom system of
the projection and packet modules: the time chirp (``_time_chirp``, one
slot), analysis and synthesis of any iterable of unchirped atoms
(``chirped_coefficients``, ``chirped_sum``), the translate
(``translate_chirp``) and the whole-step check (``Grid.steps``).  The
time chirp cancels in every product, so a chirped Gram is D G_0 D^H with
D the diagonal of the shift constants: ``dilate`` and ``weighted_gram``
take unchirped samples (``weighted_gram`` any sequence of rows, stacked
one column block at a time), and ``chirped_translate_gram`` builds no
translate.  Its shifts are whole cells of g = gcd of their offsets, one
batched product per cell lag: n_sig^2 |lags| P multiply-adds for P =
ceil(count/g) g, not a stack's (n_sig |lambdas|)^2 count.  Its
translates are zero-filled on the grid; ``packets.packet_gram``, the
band-limited Gram over one synthesis period, needs no grid, and its
translates are circular with period SPAN.
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

#: Columns per block of ``weighted_gram`` and ``chirped_sum``, and samples (or one cell) per
#: block of ``chirped_translate_gram``; bounds their temporaries.
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
        if not (-np.inf < self.t_min < np.inf and 0.0 < self.step < np.inf):  # NaN fails both
            raise ValueError(f"t_min must be finite and step finite and positive: {self}")
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

    def steps(self, x: float) -> int:
        """The length ``x`` as a whole number of steps; raises OffGridError otherwise."""
        ratio = x / self.step
        n = round(ratio)
        if abs(ratio - n) > _ALIGN_TOL:
            raise OffGridError(f"{x} is not a multiple of step {self.step} (ratio {ratio})")
        return int(n)

    def index_of(self, t: float) -> int:
        """Exact index of a grid point; raises OffGridError otherwise."""
        return self.steps(t - self.t_min)


def numra_grid(ts, window: tuple[float, float], *, refinement: int = 1) -> Grid:
    """Grid compatible with a translation set: step = 1/(2N*K), K = ``refinement``.

    Every element of the translation set then maps grid points to grid
    points, and with K a multiple of (2N)^J so does every dilation by
    (2N)^j, |j| <= J.  Both window ends must be multiples of the step.
    """
    two_n = 2 * ts.N
    step = 1.0 / (two_n * refinement)
    ends = []
    for name, t in zip(("start", "end"), window):
        ends.append(round(t / step))
        if abs(ends[-1] * step - t) > _ALIGN_TOL * step:
            raise OffGridError(f"window {name} must be a multiple of the grid step")
    return Grid(t_min=ends[0] * step, step=step, count=ends[1] - ends[0])


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Complex samples of a function on a uniform grid (zero outside); signals compare
    by identity, as filter pairs do: compare their values to compare functions."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.count,):
            raise ValueError("values length must match grid count")
        values = np.ascontiguousarray(values)  # for the float view: copies strided input only
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


def piecewise_constant(pieces, grid: Grid) -> SampledSignal:
    """Signal equal to val on each [lo, hi, val) piece, right-limit at jumps; a later piece
    overwrites an earlier one where they overlap."""
    t = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    for lo, hi, val in pieces:
        vals[(t >= lo - _ALIGN_TOL * grid.step) & (t < hi - _ALIGN_TOL * grid.step)] = val
    return SampledSignal(grid, vals)


def indicator(intervals, grid: Grid) -> SampledSignal:
    """Indicator of a union of [lo, hi) intervals, right-limit at jumps."""
    return piecewise_constant([(lo, hi, 1.0) for lo, hi in intervals], grid)


def gaussian(grid: Grid) -> SampledSignal:
    """Unit-mass Gaussian exp(-pi t^2)."""
    return SampledSignal(grid, np.exp(-np.pi * grid.points() ** 2))


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Trapezoidal quadrature of f * conj(g); both signals must share one grid."""
    grid = _common_grid([f, g])
    return complex(np.sum(f.values * np.conj(g.values) * grid.trapezoid_weights()))


def norm(f: SampledSignal) -> float:
    """L2 norm by trapezoidal quadrature."""
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


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
    """The one grid of ``system``; samples are never aligned or interpolated across grids,
    so two different grids raise GridMismatchError."""
    grid = system[0].grid
    if any(s.grid != grid for s in system[1:]):
        raise GridMismatchError("signals must share a common grid")
    return grid


#: The last time chirp: ((grid, m), read-only chirp_phase(m, t, 0) on the grid).
_CHIRP: list[tuple] = []


def _time_chirp(grid: Grid, m: CanonicalMatrix) -> np.ndarray:
    """chirp_phase(m, t, 0) on ``grid``, shared by the bases and projections of one (grid, matrix)."""
    if _CHIRP and _CHIRP[0][0] == (grid, m):
        return _CHIRP[0][1]
    _CHIRP.clear()  # the old chirp is freed before the new one is made
    chirp = chirp_phase(m, grid.points(), 0.0)
    chirp.flags.writeable = False
    _CHIRP.append(((grid, m), chirp))
    return chirp


def chirped_coefficients(f: SampledSignal, atoms, lambdas, m: CanonicalMatrix) -> np.ndarray:
    """<f, atom * chirp_phase(m, t, lam)> for unchirped atoms (any iterable) on ``f.grid`` and
    their shifts: f demodulated and weighted once, one dot product per atom, then the phases."""
    weighted = np.conj(f.values)
    weighted *= _time_chirp(f.grid, m)
    weighted *= f.grid.trapezoid_weights()
    dots = np.array([atom @ weighted for atom in atoms])
    return chirp_phase(m, 0.0, np.asarray(lambdas, dtype=float)).conj() * np.conj(dots)


def chirped_sum(coeffs, atoms, lambdas, m: CanonicalMatrix, grid: Grid) -> SampledSignal:
    """Sum of c * atom * chirp_phase(m, t, lam) over coefficients, unchirped atoms (any
    iterable) on ``grid`` and shifts: each scaled atom is added one column block of
    ``_GRAM_BLOCK`` samples at a time through one block-sized scratch, in atom order at
    every sample, and the sum is modulated once."""
    acc = np.zeros(grid.count, dtype=np.complex128)
    term = np.empty(min(_GRAM_BLOCK, grid.count), dtype=np.complex128)
    for c, atom in zip(coeffs * chirp_phase(m, 0.0, np.asarray(lambdas, dtype=float)), atoms):
        for a in range(0, grid.count, _GRAM_BLOCK):
            block = acc[a:a + _GRAM_BLOCK]
            block += np.multiply(atom[a:a + _GRAM_BLOCK], c, out=term[:block.size])
    acc *= _time_chirp(grid, m)
    return SampledSignal(grid, acc)


def translate_chirp(phi: SampledSignal, lam: float, m: CanonicalMatrix) -> SampledSignal:
    """Chirped translate phi(t - lam) * chirp_phase(m, t, lam): ``dilate`` at level 0 times the
    time chirp and the shift's phase.  ``lam`` must be a whole number of grid steps; it is
    refused otherwise, never interpolated."""
    row = dilate(phi, 0, 1, lam).values
    row *= _time_chirp(phi.grid, m) * chirp_phase(m, 0.0, lam)
    return SampledSignal(phi.grid, row)


def chirped_translate_gram(system: list[SampledSignal], lambdas,
                           m: CanonicalMatrix) -> np.ndarray:
    """Gram of the chirped translates of every signal at every shift, signal-major.

    Equals ``gram_matrix`` of ``translate_chirp(s, lam, m)`` for s in
    ``system``, lam in ``lambdas``, as G = D G_0 D^H with D the diagonal of
    shift phases chirp_phase(m, 0, lam).  A shift of o samples that leaves
    the window gives a zero row; the others are whole cells of g = gcd(o)
    samples (the whole count if every o is 0).  Over the window's whole
    cells a G_0 entry is a run of the cell products of its cell lag d, batched
    per |d| over blocks of cells conjugated in turn; the part cell at the
    window's end and the trapezoid endpoints (``Grid.trapezoid_weights``) are
    added sample by sample.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n_sig, n_lam = len(system), len(lambdas)
    if n_sig * n_lam == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    grid = _common_grid(system)
    count = grid.count
    offsets = np.array([grid.steps(lam) for lam in lambdas])
    live = np.flatnonzero(np.abs(offsets) < count)
    cell = int(np.gcd.reduce(offsets[live])) or count
    n_cells, n_whole = -(-count // cell), count // cell
    cells = np.zeros((n_sig, n_cells, cell), dtype=np.complex128)
    values = cells.reshape(n_sig, -1)[:, :count]
    for row, s in zip(values, system):
        row[:] = s.values
    per_block = max(1, _GRAM_BLOCK // (n_sig * cell))  # cells per conjugated block, all signals

    @functools.cache
    def lag(d: int) -> np.ndarray:
        """[p, i, k] = sum_j cells[i, p + d, j] conj(cells[k, p, j]), a block of cells at a time."""
        out = np.empty((n_cells - d, n_sig, n_sig), dtype=np.complex128)
        for lo in range(0, n_cells - d, per_block):
            hi = min(lo + per_block, n_cells - d)
            np.matmul(cells[:, lo + d:hi + d].transpose(1, 0, 2),
                      cells[:, lo:hi].conj().transpose(1, 2, 0), out=out[lo:hi])
        return out

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
    idx = t[None, :] - offsets[:, None]
    edge = np.where((idx >= 0) & (idx < count), values[:, np.clip(idx, 0, count - 1)], 0.0)
    edge = edge.reshape(n_sig * n_lam, t.size)
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
    phi.grid.steps(lam)
    grid = phi.grid if grid is None else grid
    scale = float(2 * N) ** j
    return SampledSignal(grid, (2 * N) ** (j / 2.0) * phi.value_at(scale * grid.points() - lam))


def weighted_gram(rows, grid: Grid) -> np.ndarray:
    """Trapezoidal inner products of equal-length rows on ``grid``.

    ``rows`` is any sequence of ``grid.count`` samples each (the rows of a
    2-D array are one), so windows of longer arrays are read in place.  The
    product is summed over column blocks: one block of the rows is stacked
    and its weighted conjugate taken at a time, never a copy of ``rows``.
    """
    w = grid.trapezoid_weights()
    g = np.zeros((len(rows), len(rows)), dtype=np.complex128)
    for a in range(0, grid.count if len(rows) else 0, _GRAM_BLOCK):
        block = np.stack([row[a:a + _GRAM_BLOCK] for row in rows])
        b = block.conj()
        b *= w[a:a + _GRAM_BLOCK]
        g += block @ b.T
    return g


def gram_matrix(system: list[SampledSignal]) -> np.ndarray:
    """Pairwise trapezoidal inner products of signals on one common grid."""
    if not system:
        return np.zeros((0, 0), dtype=np.complex128)
    return weighted_gram([s.values for s in system], _common_grid(system))


def identity_deviation(g: np.ndarray) -> float:
    """Max |G - I| of a square Gram matrix (0 for the empty one): |G| off the diagonal and
    |G_ii - 1| on it, through one real array the size of G."""
    if not g.size:
        return 0.0
    dev = np.abs(g)
    np.fill_diagonal(dev, np.abs(np.diagonal(g) - 1.0))
    return float(np.max(dev))
