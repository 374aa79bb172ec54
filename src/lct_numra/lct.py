"""Forward and inverse linear canonical transforms on sampled signals.

Two paths are provided.  ``lct_direct`` is the O(n_t * n_omega) quadrature
oracle: it integrates f against the kernel row by row and accepts any
output grid.  ``lct_fast`` is the chirp * FFT * chirp factorisation of
Koc, Ozaktas, Candan & Kutay (IEEE TSP 56(6), 2008), O(n log n) on the
induced grid omega_i = 2 pi |b| (i - n/2) / (n * step), i = 0 .. n - 1:
DFT bin sign(b) (i - n/2) mod n.  A factor (-1)^j in the input chirp moves
the DFT by n/2, so b > 0 takes an FFT and b < 0 an unscaled inverse FFT
(norm="forward"), in place and in grid order.  The fast inverse undoes
the same factors with the mirror FFT: the exact discrete inverse for
either sign of b, on even counts.  Tables cost more than the FFT, so
``_factors`` keeps them, as FFTW keeps plans (Frigo & Johnson, 2005).

Frequency-domain filter machinery elsewhere in the package works in the
normalized variable u = omega / (2 pi b) with plain 2pi-convention
transforms; the bridge to this engine is the kernel prefactor
1/sqrt(2 i pi b) and the output chirp exp(i d omega^2 / (2b)), which are
documented here and left out of the filter layer entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalMatrix, kernel, require_valid
from .sampling import Grid, SampledSignal, inner_product

#: Row block size for the quadrature oracle, keeps the kernel matrix small.
_BLOCK = 512
_TABLES: dict[int, tuple] = {}  # size class -> ((t_grid, m), factor table), see _factors


@dataclass(frozen=True)
class LctSpectrum:
    """Transform values on a uniform frequency grid (omega units).

    ``t_grid`` is the time grid of the transformed signal, when known, so
    that a stored spectrum can be inverted back onto its source samples.
    """

    grid: Grid
    values: np.ndarray
    t_grid: Grid | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.count,):
            raise ValueError("values length must match grid count")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("spectrum values must be finite")
        object.__setattr__(self, "values", values)


def induced_omega_grid(t_grid: Grid, m: CanonicalMatrix) -> Grid:
    """Frequency grid on which lct_fast natively produces the transform."""
    n = t_grid.count
    d_omega = 2.0 * np.pi * abs(m.b) / (n * t_grid.step)
    return Grid(t_min=-(n // 2) * d_omega, step=d_omega, count=n)


def lct_direct(f: SampledSignal, m: CanonicalMatrix, omega_grid: Grid) -> LctSpectrum:
    """Quadrature oracle: trapezoidal integral of f(t) K(t, omega) per omega."""
    require_valid(m)
    t = f.grid.points()
    weighted = f.values * f.grid.trapezoid_weights()
    omega = omega_grid.points()
    out = np.empty(omega_grid.count, dtype=np.complex128)
    for lo in range(0, omega_grid.count, _BLOCK):
        hi = min(lo + _BLOCK, omega_grid.count)
        k = kernel(m, t[None, :], omega[lo:hi, None])
        out[lo:hi] = k @ weighted
    return LctSpectrum(omega_grid, out, f.grid)


def _factors(t_grid: Grid, m: CanonicalMatrix):
    """Omega grid, folded input chirp, and output factor ramp * chirp * step / sqrt(2 i pi b).

    Size class count.bit_length() keeps its last table, keyed by all of (t_grid, m),
    d too, though only the output factor reads it.  A miss empties the slot first, so a
    class never holds two tables.  A table is two complex arrays of n, so power-of-two
    sizes keep under twice the largest (64 MiB at 2^20): the inputs bound it, no budget.
    """
    size = t_grid.count.bit_length()
    slot = _TABLES.get(size)
    if slot is not None and slot[0] == (t_grid, m):
        return slot[1]
    _TABLES.pop(size, None)
    grid = induced_omega_grid(t_grid, m)
    chirp = np.exp(1j * m.a * t_grid.points() ** 2 / (2.0 * m.b))
    chirp[1::2] *= -1.0  # (-1)^j: DFT bin k lands at output k + n/2
    omega = (np.arange(t_grid.count) - t_grid.count // 2) * grid.step  # one rounding, not two
    # exp(-i omega t_min / b) * exp(i d omega^2 / (2b)) in one exp
    out = np.exp(1j * omega * (m.d * omega - 2.0 * t_grid.t_min) / (2.0 * m.b))
    out *= t_grid.step / np.sqrt(2j * np.pi * m.b)
    chirp.flags.writeable = out.flags.writeable = False
    _TABLES[size] = ((t_grid, m), (grid, chirp, out))
    return grid, chirp, out


def lct_fast(f: SampledSignal, m: CanonicalMatrix) -> LctSpectrum:
    """Chirp-FFT-chirp transform on the induced frequency grid.

    Requires a power-of-two sample count.  Matches lct_direct on the same
    grid up to quadrature endpoint differences (signals vanish at the
    window edges under the compact-support model).
    """
    require_valid(m)
    if f.grid.count & (f.grid.count - 1):
        raise ValueError("lct_fast requires a power-of-two sample count")
    grid, chirp, out = _factors(f.grid, m)
    x = f.values * chirp
    (np.fft.fft if m.b > 0 else np.fft.ifft)(x, out=x, norm="backward" if m.b > 0 else "forward")
    return LctSpectrum(grid, np.multiply(x, out, out=x), f.grid)


def _is_induced(spec_grid: Grid, t_grid: Grid, m: CanonicalMatrix) -> bool:
    ref = induced_omega_grid(t_grid, m)
    return (
        spec_grid.count == ref.count
        and abs(spec_grid.step - ref.step) <= 1e-9 * ref.step
        and abs(spec_grid.t_min - ref.t_min) <= 1e-9 * max(abs(ref.t_min), ref.step)
    )


def ilct(F: LctSpectrum, m: CanonicalMatrix, t_grid: Grid, method: str = "auto") -> SampledSignal:
    """Inverse transform: integral of F(omega) conj(K(t, omega)) d omega.

    ``method`` is 'direct' (trapezoidal quadrature, any grids), 'fast'
    (exact inverse of lct_fast, requires the induced grid pairing and an
    even count), or 'auto' (fast when those hold, direct otherwise).
    """
    require_valid(m)
    if method == "auto":
        method = "fast" if t_grid.count % 2 == 0 and _is_induced(F.grid, t_grid, m) else "direct"
    if method == "fast":
        if t_grid.count % 2 or not _is_induced(F.grid, t_grid, m):
            raise ValueError("fast inverse requires the induced frequency grid and an even count")
        _, chirp, out = _factors(t_grid, m)
        x = F.values / out
        (np.fft.ifft if m.b > 0 else np.fft.fft)(x, out=x, norm="backward" if m.b > 0 else "forward")
        return SampledSignal(t_grid, np.multiply(x, np.conj(chirp), out=x))
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    omega = F.grid.points()
    weighted = F.values * F.grid.trapezoid_weights()
    t = t_grid.points()
    out = np.empty(t_grid.count, dtype=np.complex128)
    for lo in range(0, t_grid.count, _BLOCK):
        hi = min(lo + _BLOCK, t_grid.count)
        k = np.conj(kernel(m, t[lo:hi, None], omega[None, :]))
        out[lo:hi] = k @ weighted
    return SampledSignal(t_grid, out)


def spectrum_inner(F: LctSpectrum, G: LctSpectrum) -> complex:
    """Trapezoidal inner product of two spectra on a common grid."""
    if F.grid != G.grid:
        raise ValueError("spectra must share a grid")
    return complex(np.sum(F.values * np.conj(G.values) * F.grid.trapezoid_weights()))


def parseval_residual(f: SampledSignal, g: SampledSignal, m: CanonicalMatrix) -> float:
    """|<Lf, Lg> - <f, g>| with the fast transform path."""
    if f.grid != g.grid:
        raise ValueError("signals must share a grid")
    lhs = spectrum_inner(lct_fast(f, m), lct_fast(g, m))
    return abs(lhs - inner_product(f, g))
