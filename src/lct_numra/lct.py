"""Forward and inverse linear canonical transforms on sampled signals.

Two paths are provided.  ``lct_direct`` is the O(n_t * n_omega) quadrature
oracle: it integrates f against the kernel row by row and accepts any
output grid.  ``lct_fast`` factors the kernel into chirp * Fourier * chirp
and runs in O(n log n) on the induced frequency grid

    omega_k = 2 pi b k / (n * step),   k = -n/2 .. n/2 - 1,

which makes the discrete forward/inverse pair exactly unitary on samples.

Frequency-domain filter machinery elsewhere in the package works in the
normalized variable u = omega / b with plain 2pi-convention transforms;
the bridge to this engine is the kernel prefactor 1/sqrt(2 i pi b) and the
output chirp exp(i d omega^2 / (2b)), which are documented here and left
out of the filter layer entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalMatrix, MatrixError, kernel, require_valid
from .sampling import Grid, SampledSignal

#: Row block size for the quadrature oracle, keeps the kernel matrix small.
_BLOCK = 512


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


def lct_fast(f: SampledSignal, m: CanonicalMatrix) -> LctSpectrum:
    """Chirp-FFT-chirp transform on the induced frequency grid.

    Requires a power-of-two sample count.  Matches lct_direct on the same
    grid up to quadrature endpoint differences (signals vanish at the
    window edges under the compact-support model).
    """
    require_valid(m)
    n = f.grid.count
    if n & (n - 1):
        raise ValueError("lct_fast requires a power-of-two sample count")
    t = f.grid.points()
    step = f.grid.step
    chirped = f.values * np.exp(1j * m.a * t**2 / (2.0 * m.b))
    spec = np.fft.fftshift(np.fft.fft(chirped))  # frequencies k/(n*step), k centered
    freqs = (np.arange(n) - n // 2) / (n * step)
    spec = spec * np.exp(-2j * np.pi * freqs * f.grid.t_min) * step
    omega = 2.0 * np.pi * m.b * freqs
    if m.b < 0:
        omega = omega[::-1]
        spec = spec[::-1]
    values = spec * np.exp(1j * m.d * omega**2 / (2.0 * m.b)) / np.sqrt(2j * np.pi * m.b)
    grid = Grid(t_min=omega[0], step=omega[1] - omega[0], count=n)
    return LctSpectrum(grid, values, f.grid)


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
    (exact inverse of lct_fast, requires the induced grid pairing), or
    'auto' (fast when the grids pair up, direct otherwise).
    """
    require_valid(m)
    if method == "auto":
        method = "fast" if _is_induced(F.grid, t_grid, m) else "direct"
    if method == "fast":
        if not _is_induced(F.grid, t_grid, m):
            raise ValueError("fast inverse requires the induced frequency grid")
        n = t_grid.count
        values = F.values
        omega = F.grid.points()
        if m.b < 0:
            values = values[::-1]
            omega = omega[::-1]
        spec = values * np.sqrt(2j * np.pi * m.b) * np.exp(-1j * m.d * omega**2 / (2.0 * m.b))
        freqs = (np.arange(n) - n // 2) / (n * t_grid.step)
        spec = spec * np.exp(2j * np.pi * freqs * t_grid.t_min) / t_grid.step
        chirped = np.fft.ifft(np.fft.ifftshift(spec))
        t = t_grid.points()
        return SampledSignal(t_grid, chirped * np.exp(-1j * m.a * t**2 / (2.0 * m.b)))
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
    from .sampling import inner_product

    if f.grid != g.grid:
        raise ValueError("signals must share a grid")
    if m.b == 0.0:
        raise MatrixError("b = 0 branch out of scope")
    lhs = spectrum_inner(lct_fast(f, m), lct_fast(g, m))
    return abs(lhs - inner_product(f, g))
