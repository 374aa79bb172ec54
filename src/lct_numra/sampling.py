"""Uniform grids, sampled complex signals, and chirp-modulated operators.

Signals model compactly supported functions: the value outside the grid
window is 0.  Quadrature is trapezoidal, and ``Grid.trapezoid_weights``
owns its weights: every inner product, norm and Gram matrix here, and the
quadratures of the transform, projection and packet modules, use them.
Translations must land exactly on grid points (no interpolation), which
keeps indicator-function inner products exact when breakpoints sit on the
grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalMatrix

#: Relative slack when deciding whether an offset is an exact grid multiple.
_ALIGN_TOL = 1e-9

#: Largest |j| accepted by dilate_chirp unless the caller raises the budget.
DEFAULT_LEVEL_BUDGET = 16


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


def signal_from_function(fn, grid: Grid) -> SampledSignal:
    """Sample a vectorized callable on the grid."""
    return SampledSignal(grid, np.asarray(fn(grid.points()), dtype=np.complex128))


def indicator(intervals, grid: Grid) -> SampledSignal:
    """Indicator of a union of [lo, hi) intervals, right-limit at jumps."""
    t = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    for lo, hi in intervals:
        vals += ((t >= lo - _ALIGN_TOL * grid.step) & (t < hi - _ALIGN_TOL * grid.step))
    return SampledSignal(grid, vals)


def gaussian(grid: Grid) -> SampledSignal:
    """Unit-mass Gaussian exp(-pi t^2)."""
    return signal_from_function(lambda t: np.exp(-np.pi * t**2), grid)


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
    """Modulation exp(-i pi (a/b) (t^2 - shift^2)) carried by translated bases."""
    t = np.asarray(t, dtype=float)
    return np.exp(-1j * np.pi * (m.a / m.b) * (t**2 - shift**2))


def _common_grid(system: list[SampledSignal]) -> Grid:
    grid = system[0].grid
    if any(s.grid != grid for s in system[1:]):
        raise GridMismatchError("signals must share a common grid")
    return grid


def translate_chirp(phi: SampledSignal, lam: float, m: CanonicalMatrix) -> SampledSignal:
    """Chirped translate t -> phi(t - lam) * exp(-i pi (a/b)(t^2 - lam^2)).

    ``lam`` must be an exact multiple of the grid step; this is rejected
    otherwise rather than silently interpolated.
    """
    return SampledSignal(phi.grid, chirped_translates([phi], [lam], m)[0])


def chirped_translates(system: list[SampledSignal], lambdas, m: CanonicalMatrix) -> np.ndarray:
    """Stacked chirped translates of every signal at every shift, signal-major.

    Row i * len(lambdas) + k holds ``translate_chirp(system[i], lambdas[k], m)``;
    each shift's chirp is computed once for all signals.
    """
    grid = _common_grid(system)
    t = grid.points()
    out = np.zeros((len(system) * len(lambdas), grid.count), dtype=np.complex128)
    for k, lam in enumerate(lambdas):
        ratio = lam / grid.step
        offset = round(ratio)
        if abs(ratio - offset) > _ALIGN_TOL:
            raise OffGridError(f"translation {lam} is not a multiple of step {grid.step}")
        chirp = chirp_phase(m, t, lam)
        for i, s in enumerate(system):
            row = out[i * len(lambdas) + k]
            if 0 <= offset < grid.count:
                row[offset:] = s.values[: grid.count - offset]
            elif 0 < -offset < grid.count:
                row[:offset] = s.values[-offset:]
            row *= chirp
    return out


def dilate_chirp(phi: SampledSignal, j: int, N: int, lam: float, m: CanonicalMatrix,
                 *, max_level: int = DEFAULT_LEVEL_BUDGET,
                 grid: Grid | None = None) -> SampledSignal:
    """Element (2N)^{j/2} phi((2N)^j t - lam) exp(-i pi (a/b)(t^2 - lam^2)).

    The element is sampled on ``grid`` (default ``phi.grid``); ``lam``
    must be a multiple of ``phi.grid.step``.  Where the dilated argument
    lands on a grid point of ``phi`` (j >= 0 on grids built for it) the
    value is exact; elsewhere it comes from the right-limit
    piecewise-constant extension of ``phi``, exact for indicator-type
    generators.
    """
    if abs(j) > max_level:
        raise ValueError(f"level {j} exceeds budget {max_level}")
    ratio = lam / phi.grid.step
    if abs(ratio - round(ratio)) > _ALIGN_TOL:
        raise OffGridError(f"translation {lam} is not a multiple of step {phi.grid.step}")
    grid = phi.grid if grid is None else grid
    t = grid.points()
    scale = float(2 * N) ** j
    vals = phi.value_at(scale * t - lam)
    vals = (2 * N) ** (j / 2.0) * vals * chirp_phase(m, t, lam)
    return SampledSignal(grid, vals)


def gram_matrix(system: list[SampledSignal] | np.ndarray, grid: Grid | None = None) -> np.ndarray:
    """Pairwise trapezoidal inner products of signals on one common grid.

    ``system`` is a list of signals, or an (atoms x count) array of their
    samples on ``grid``.  Only one weighted conjugate copy is made.
    """
    if isinstance(system, np.ndarray):
        a = system
    else:
        if not system:
            return np.zeros((0, 0), dtype=np.complex128)
        grid = _common_grid(system)
        a = np.stack([s.values for s in system])
    b = a.conj()
    b *= grid.trapezoid_weights()
    return a @ b.T


def identity_deviation(g: np.ndarray) -> float:
    """Max |G - I| of a square Gram matrix (0 for the empty one)."""
    return float(np.max(np.abs(g - np.eye(g.shape[0])))) if g.size else 0.0
