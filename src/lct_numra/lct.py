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
``_factors`` keeps them, as FFTW keeps plans (Frigo & Johnson, 2005).  Their
phases, up to 1e11 rad at 2^20 points, are exact to about 1e-15 rad: reduced
mod 2 pi in rationals and 64-bit integer limbs (Payne & Hanek, SIGNUM
Newsletter 18(1), 1983) and built in blocks of ``_FILL`` points.

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
_FILL = 1 << 14  # points per block of a table build or conjugate: temporaries stay in cache
_TWO_PI = "6.283185307179586476925286766559005768394338798750211641949889184615632812"  # 73 digits
_ROOTS = tuple(np.exp(2j * np.pi * (np.arange(1024) / size)) for size in (1024, 1 << 20))


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
    """Quadrature oracle: trapezoidal integral of f(t) K(t, omega) per omega.

    ``kernel`` rounds its phase in floats (1e-5 rad of 1e11 on a 2^20 grid): for small grids."""
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


def _reduction(quad, lin, const):
    """k -> 2^20 (k^2 quad + k lin + const) mod 2^20 for uint64 k, to 2^-33 (tail may add k^2 2^-44).

    Each coefficient mod 1 is a 64-bit integer limb h / 2^64 plus a float tail below 2^-64.  The
    limb part k (k h_q + h_l) + h_c wraps mod 2^64, exactly its fractional part, so no product can
    overflow; the tail part is below k^2 2^-64 turns, which floats hold to 2^-53 for k < 2^32."""
    split = (divmod(v % 1 * 2**64, 1) for v in (quad, lin, const))
    (hq, tq), (hl, tl), (hc, tc) = [(np.uint64(i), float(f) * 2.0**-44) for i, f in split]
    return lambda k: ((k * hq + hl) * k + hc) * 2.0**-44 + ((k * tq + tl) * k + tc)


def _fill(table: np.ndarray, turns, scale: float) -> None:
    """table[k] = scale exp(2 pi i turns(k) / 2^20), ``_FILL`` points at a time.  The top 20 bits
    of a turn pick two ``_ROOTS`` entries; the rest is an angle x < 2 pi 2^-20: 1 - x^2/2 + i x."""
    coarse = _ROOTS[0] * scale
    for lo in range(0, table.size, _FILL):
        x = turns(np.arange(lo, min(lo + _FILL, table.size), dtype=np.uint64))
        i = x.astype(np.int64)
        x = (x - i) * (2.0 * np.pi / 2**20)
        block = table[lo:lo + x.size]
        block.real, block.imag = 1.0 - 0.5 * x * x, x
        block *= _ROOTS[1][i & 1023] * coarse[(i >> 10) & 1023]


def _factors(t_grid: Grid, m: CanonicalMatrix):
    """Omega grid, folded input chirp, and output factor ramp * chirp * step / sqrt(2 i pi b).

    Size class count.bit_length() keeps its last table, keyed by all of (t_grid, m),
    d too, though only the output factor reads it.  A miss empties the slot first, so a
    class never holds two tables.  A table is two complex arrays of n, so power-of-two
    sizes keep under twice the largest (64 MiB at 2^20): the inputs bound it, no budget.
    Phases in turns at k, j = k - n//2 (a, b, d, t_min, step s, omega step w exact, 2 pi
    to 73 digits): chirp a (t_min + k s)^2 / (4 pi b) + k/2, k/2 the (-1)^k fold; out
    (j^2 d w^2 / (2b) - j t_min w / b) / (2 pi) - sign(b)/8, -sign(b)/8 the arg of the 1/sqrt.
    """
    size = t_grid.count.bit_length()
    slot = _TABLES.get(size)
    if slot is not None and slot[0] == (t_grid, m):
        return slot[1]
    _TABLES.pop(size, None)
    from fractions import Fraction  # with decimal, 4 ms of import that only a build needs
    grid, h, two_pi = induced_omega_grid(t_grid, m), t_grid.count // 2, Fraction(_TWO_PI)
    a, b, d, s, t0, w = map(Fraction, (m.a, m.b, m.d, t_grid.step, t_grid.t_min, grid.step))
    c, q, r = a / (2 * b) / two_pi, d * w * w / (2 * b) / two_pi, t0 * w / b / two_pi
    # Three more arrays, allocated first and freed unwritten, leave room below the kept table for a
    # round trip's arrays (result, FFT scratch): there malloc keeps them resident between calls.
    chirp, out = [np.empty(t_grid.count, np.complex128) for _ in range(5)][3:]
    _fill(chirp, _reduction(c * s * s, 2 * c * t0 * s + Fraction(1, 2), c * t0 * t0), 1.0)
    _fill(out, _reduction(q, -2 * h * q - r, h * h * q + h * r - Fraction(1 if b > 0 else -1, 8)),
          t_grid.step / np.sqrt(2.0 * np.pi * abs(m.b)))
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
        for lo in range(0, x.size, _FILL):  # x conj(chirp), conjugating one block at a time
            x[lo:lo + _FILL] *= np.conj(chirp[lo:lo + _FILL])
        return SampledSignal(t_grid, x)
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
