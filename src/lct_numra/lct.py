"""Forward and inverse linear canonical transforms on sampled signals.

Both take the normalized kernel of ``canonical.kernel``, and L_m^-1 = L_{m^-1}
for m^-1 = (d, -b, -c, a), as conj K_m(t, u) = K_{m^-1}(u, t).  ``lct_direct``
is the O(n_t * n_u) quadrature oracle onto any output grid; of m^-1, it is
the direct inverse.  ``lct_fast`` is the chirp * FFT * chirp factorisation of
Koc, Ozaktas, Candan & Kutay (IEEE TSP 56(6), 2008), O(n log n) on the
induced grid u_i = |b| (i - n/2) / (n * step), i = 0 .. n - 1: DFT bin
sign(b) (i - n/2) mod n.  A factor (-1)^j in the input chirp moves the DFT
by n/2, so b > 0 takes an FFT and b < 0 an unscaled inverse FFT
(norm="forward"), in place and in grid order.  The fast inverse undoes the
same factors with the mirror FFT, the exact discrete inverse for either sign
of b on even counts; ``_apply`` runs multiply * FFT * multiply both ways.
A table build costs about one transform, so ``_factors`` keeps the tables,
as FFTW keeps plans (Frigo & Johnson, 2005).  Their phases, up to 8e10 rad
at 2^20 points, are exact to about 3e-15 rad: ``_fill`` makes each entry
from three small factors, every phase reduced mod 2 pi in rationals and
64-bit integer limbs (Payne & Hanek, SIGNUM Newsletter 18(1), 1983).

From ``_SPLIT`` points on, each transform takes one radix-2 decimation-in-time
step (Cooley & Tukey, Math. Comp. 19, 1965): the input multiply writes even
samples to the first half of the result and odd ones to the second, each half
gets a half-size FFT, and the butterfly E +- w^k O is folded into the output
multiply.  The two halves and the butterflies are shared between two
threads, as np.fft and numpy's arithmetic release the GIL; tables are built
on the calling thread.  The environment variable LCT_NUMRA_THREADS caps the
threads: 1 starts no thread, 0 or unset means min(2, CPUs this process may
run on).  The bits do not depend on the cap; the BLAS variables
(OMP/OPENBLAS/MKL_NUM_THREADS) do not govern it.

The filter and wavelet layers work with the plain hat transform and leave
this engine's factors out.  The transform of m cancels the chirp of an atom
of m and leaves the output chirp times the atom's hat at u / b, as stated
in ``canonical.chirp_rate``.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import thread_cap
from .canonical import CanonicalMatrix, chirp_rate, kernel, require_valid
from .sampling import Grid, SampledSignal, inner_product

#: Row block size for the quadrature oracle, keeps the kernel matrix small.
_BLOCK = 512
_TABLES: dict[int, tuple] = {}  # size class -> ((t_grid, m), factor table), see _factors
_FILL = 1 << 14  # points per block of a table build or conjugate: temporaries stay in cache
_SPLIT = 1 << 17  # counts from which a transform takes the radix-2 step (at 2^16 it gains nothing)
_TWIDDLES: dict[tuple[int, int], tuple] = {}  # (size class, sign) -> (count, w^j for j < _FILL)


@dataclass(frozen=True, eq=False)
class LctSpectrum(SampledSignal):
    """Transform values: a signal sampled on a uniform grid of the output variable u.

    ``t_grid`` is the time grid of the transformed signal, when known, so
    that a stored spectrum can be inverted back onto its source samples.
    """

    t_grid: Grid | None = None


def induced_omega_grid(t_grid: Grid, m: CanonicalMatrix) -> Grid:
    """Grid of u on which lct_fast natively produces the transform: step |b| / (n step)."""
    n = t_grid.count
    d_omega = abs(m.b) / (n * t_grid.step)
    return Grid(t_min=-(n // 2) * d_omega, step=d_omega, count=n)


def lct_direct(f: SampledSignal, m: CanonicalMatrix, omega_grid: Grid) -> LctSpectrum:
    """Quadrature oracle: trapezoidal integral of f(t) K(t, u) per u.

    ``kernel`` rounds its phase in floats (1e-5 rad of 8e10 on a 2^20 grid): for small grids."""
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


def _threads(count: int) -> int:
    """Threads for a transform of ``count`` points: 1 below ``_SPLIT``, else at most 2,
    capped by ``thread_cap()`` of LCT_NUMRA_THREADS (0: the CPUs this process may use)."""
    if count < _SPLIT:
        return 1
    cap = thread_cap()
    if not cap:
        try:
            cap = len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            cap = os.cpu_count() or 1
    return min(2, cap)


def _pair(first, second, threads: int) -> None:
    """Run first() and second(), second() on a thread of its own when threads > 1.

    A thread per call, joined before return: a pool's worker would not exist in a
    forked child.  An exception of either call reaches the caller."""
    if threads < 2:
        first()
        second()
        return
    raised = []

    def run():
        try:
            second()
        except BaseException as exc:  # re-raised below, in the caller's thread
            raised.append(exc)

    worker = threading.Thread(target=run, name="lct-half")
    worker.start()
    try:
        first()
    finally:
        worker.join()
    if raised:
        raise raised[0]


def _fill(table: np.ndarray, quad, lin, const, scale: float) -> None:
    """table[k] = scale e(phi(k)), phi(k) = quad k^2 + lin k + const turns (exact rationals),
    e(x) = exp(2 pi i x), from three small exact factors per block of S = ``_FILL / 2`` points.

    With k = b S + i, 0 <= i < S, phi(b S + i) = (quad i^2 + lin i) + 2 quad S b i + phi(b S),
    and b i is an integer, so the middle term is rho b i mod 1 with rho = 2 quad S mod 1:
      V[i] = e(quad i^2 + lin i), one row of S that every block shares;
      U[b] = e(phi(b S)), one value per block;
      R_b[i] = e(rho b i) = e(rho b w i1) e(rho b i0) for i = w i1 + i0, the outer product of
        two rows of about sqrt(S) entries (as in ``wavelets._roots``).
    Every phase is reduced by ``_reduction`` (its limbs are exact for indices below 2^32; here
    every b i < n) and exponentiated directly: nothing accumulates along the table, and each
    entry carries the rounding of four exponentials and four products (3.1e-15 rad at most
    where the tests compare with exact phases).  Per block, one outer product, whose first
    row carries scale U[b], then one multiply by V into the table.
    """
    def e(quad, lin, const, k):  # e(quad k^2 + lin k + const) at uint64 indices k
        return np.exp(_reduction(quad, lin, const)(k) * (2j * np.pi / 2**20))

    n, size = table.size, _FILL // 2
    w, rho = 1 << (size.bit_length() // 2), 2 * quad * size  # w = 128: size = 64 w
    b = np.arange(-(-n // size), dtype=np.uint64)[:, None]
    high = e(0, rho, 0, b * (w * np.arange(size // w, dtype=np.uint64)))
    high *= e(quad * size * size, lin * size, const, b) * scale
    low = e(0, rho, 0, b * np.arange(w, dtype=np.uint64))
    v = e(quad, lin, 0, np.arange(min(size, n), dtype=np.uint64))
    block = np.empty((size // w, w), np.complex128)
    for k, lo in enumerate(range(0, n, size)):
        hi = min(lo + size, n)
        np.multiply(high[k, :, None], low[k], out=block)
        np.multiply(block.reshape(-1)[:hi - lo], v[:hi - lo], out=table[lo:hi])


def _factors(t_grid: Grid, m: CanonicalMatrix):
    """Induced u grid, folded input chirp, and output factor ramp * chirp * step / sqrt(i b).

    Size class count.bit_length() keeps its last table, keyed by all of (t_grid, m),
    d too, though only the output factor reads it.  A miss empties the slot first, so a
    class never holds two tables.  A table is two complex arrays of n, so power-of-two
    sizes keep under twice the largest (64 MiB at 2^20): the inputs bound it, no budget.
    Phases in turns at k, j = k - n//2 (a/b, b, d, t_min, step s, u step w exact rationals):
    chirp (a/b) (t_min + k s)^2 / 2 + k/2, k/2 the (-1)^k fold; out at u = j w
    u (d u - 2 t_min) / (2b) - sign(b)/8, -sign(b)/8 the arg of the 1/sqrt(i b).
    """
    size = t_grid.count.bit_length()
    slot = _TABLES.get(size)
    if slot is not None and slot[0] == (t_grid, m):
        return slot[1]
    _TABLES.pop(size, None)
    from fractions import Fraction  # with decimal, 4 ms of import that only a build needs
    grid, h = induced_omega_grid(t_grid, m), t_grid.count // 2
    b, d, s, t0, w = map(Fraction, (m.b, m.d, t_grid.step, t_grid.t_min, grid.step))
    c = chirp_rate(m, Fraction) / 2
    q, r = d * w * w / (2 * b), t0 * w / b
    # Room of 3n/2 points, allocated first and freed unwritten, below the kept table for the arrays
    # of a round trip's calling thread (result, half-size FFT scratch; the worker's scratch is in its
    # own malloc arena): there they stay resident between calls.  Measured on lct_roundtrip with the
    # build on the calling thread: without the room a 2^20 hit re-faults 8.7 k pages and the traced
    # 2^20 inverse takes 35 ms, not 28; peak RSS reads 412 MB without it, 418 (or 433, by where the
    # build's small temporaries fall in the heap) with it.  Three grid arrays read 5 % more.
    chirp, out = [np.empty(k * t_grid.count // 2, np.complex128) for k in (3, 2, 2)][1:]
    _fill(chirp, c * s * s, 2 * c * t0 * s + Fraction(1, 2), c * t0 * t0, 1.0)
    _fill(out, q, -2 * h * q - r, h * h * q + h * r - Fraction(1 if b > 0 else -1, 8),
          t_grid.step / np.sqrt(abs(m.b)))
    chirp.flags.writeable = out.flags.writeable = False
    _TABLES[size] = ((t_grid, m), (grid, chirp, out))
    return grid, chirp, out


def _radix2(combine, v, factor, transform, norm: str, post) -> np.ndarray:
    """transform(combine(v, factor)) * post(lo, hi), by one decimation-in-time step.

    With n = v.size and h = n/2, the result holds combine's even samples in [0, h) and
    its odd ones in [h, n); each half takes a half-size ``transform`` in place.  Then
    the butterflies X[k] = E[k] + w^k O[k] and X[k + h] = E[k] - w^k O[k] (w = e^-2 pi i/n
    for np.fft.fft, its conjugate for ifft) run ``_FILL`` points at a time, each block
    multiplied by post over its indices.  The twiddles of block lo are a ``_FILL``-entry
    table of w^j times w^lo, so no grid-sized table is made.  The unscaled (norm
    "forward" ifft, "backward" fft) transforms equal the whole one; the scaled ones
    are twice it, and post then carries the 1/2.
    """
    n = v.size
    h, threads = n // 2, _threads(n)
    sign = -1 if transform is np.fft.fft else 1
    x = np.empty(n, np.complex128)

    def half(p):
        part = x[p * h:(p + 1) * h]
        combine(v[p::2], factor[p::2], out=part)
        transform(part, out=part, norm=norm)

    _pair(lambda: half(0), lambda: half(1), threads)
    key = n.bit_length(), sign
    slot = _TWIDDLES.get(key)
    if slot is None or slot[0] != n:  # as ``_TABLES``: a size class keeps its last count
        slot = _TWIDDLES[key] = (n, np.exp(sign * 2j * np.pi / n * np.arange(_FILL)))
    base = slot[1]

    def butterflies(start, stop):
        block = np.empty(_FILL, np.complex128)
        for lo in range(start, stop, _FILL):
            hi = min(lo + _FILL, h)
            e, o, t = x[lo:hi], x[h + lo:h + hi], block[:hi - lo]
            np.multiply(o, base[:hi - lo], out=t)
            t *= np.exp(sign * 2j * np.pi * (lo / n))
            np.subtract(e, t, out=o)
            o *= post(h + lo, h + hi)
            e += t
            e *= post(lo, hi)

    mid = h // 2 // _FILL * _FILL
    _pair(lambda: butterflies(0, mid), lambda: butterflies(mid, h), threads)
    return x


def _apply(values: np.ndarray, t_grid: Grid, m: CanonicalMatrix, inverse: bool) -> np.ndarray:
    """Fast transform of samples on t_grid, or (inverse) of samples on its induced grid.

    Forward: x chirp, unscaled FFT, x out.  Inverse: / out, mirror FFT scaled by 1/n,
    x conj(chirp).  Below ``_SPLIT`` points one FFT runs in place and the output multiply
    goes ``_FILL`` points at a time; from there on ``_radix2`` takes the step (its scaled
    half-size FFTs are twice the whole one).
    """
    _, chirp, out = _factors(t_grid, m)
    transform = np.fft.fft if (m.b > 0) != inverse else np.fft.ifft
    norm = "forward" if m.b < 0 else "backward"
    if inverse:
        combine, factor, post = np.divide, out, lambda lo, hi: np.conj(chirp[lo:hi])
    else:
        combine, factor, post = np.multiply, chirp, lambda lo, hi: out[lo:hi]
    if t_grid.count >= _SPLIT:
        half = (lambda lo, hi: post(lo, hi) * 0.5) if inverse else post
        return _radix2(combine, values, factor, transform, norm, half)
    x = combine(values, factor)
    transform(x, out=x, norm=norm)
    for lo in range(0, x.size, _FILL):
        x[lo:lo + _FILL] *= post(lo, lo + _FILL)
    return x


def lct_fast(f: SampledSignal, m: CanonicalMatrix) -> LctSpectrum:
    """Chirp-FFT-chirp transform on the induced frequency grid.

    Requires a power-of-two sample count.  Matches lct_direct on the same
    grid up to quadrature endpoint differences (signals vanish at the
    window edges under the compact-support model).
    """
    require_valid(m)
    if f.grid.count & (f.grid.count - 1):
        raise ValueError("lct_fast requires a power-of-two sample count")
    grid = _factors(f.grid, m)[0]  # the induced grid, kept with the tables
    return LctSpectrum(grid, _apply(f.values, f.grid, m, inverse=False), f.grid)


def _is_induced(spec_grid: Grid, t_grid: Grid, m: CanonicalMatrix) -> bool:
    ref = induced_omega_grid(t_grid, m)
    return (
        spec_grid.count == ref.count
        and abs(spec_grid.step - ref.step) <= 1e-9 * ref.step
        and abs(spec_grid.t_min - ref.t_min) <= 1e-9 * max(abs(ref.t_min), ref.step)
    )


def ilct(F: LctSpectrum, m: CanonicalMatrix, t_grid: Grid, method: str = "auto") -> SampledSignal:
    """Inverse transform: integral of F(u) conj(K_m(t, u)) du, the transform of F by m^-1.

    ``method`` is 'direct' (``lct_direct`` of F by m^-1 onto t_grid, any
    grids), 'fast' (``_apply`` undoing lct_fast exactly, requires the induced
    grid pairing and an even count), or 'auto' (fast when those hold, else
    direct with a RuntimeWarning naming the cause and its n_t x n_u kernel
    evaluations).
    """
    require_valid(m)
    odd, paired = t_grid.count % 2 == 1, _is_induced(F.grid, t_grid, m)
    if method == "auto":
        method = "direct" if odd or not paired else "fast"
        if method == "direct":
            cause = f"odd count {t_grid.count}" if odd else "t grid not paired with the u grid"
            warnings.warn(f"ilct takes the direct inverse ({cause}): {t_grid.count} x "
                          f"{F.grid.count} kernel evaluations", RuntimeWarning, stacklevel=2)
    if method == "fast":
        if odd or not paired:
            raise ValueError("fast inverse requires the induced frequency grid and an even count")
        return SampledSignal(t_grid, _apply(F.values, t_grid, m, inverse=True))
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    # conj K_m(t, u) = K_{m^-1}(u, t): the phase negates with b, and the principal root
    # gives conj sqrt(i b) = sqrt(-i b) for either sign of b
    inverse = CanonicalMatrix(m.d, -m.b, -m.c, m.a)
    return SampledSignal(t_grid, lct_direct(F, inverse, t_grid).values)


def parseval_residual(f: SampledSignal, g: SampledSignal, m: CanonicalMatrix) -> float:
    """|<Lf, Lg> - <f, g>| with the fast transform path."""
    rhs = inner_product(f, g)  # refuses two grids before any transform
    return abs(inner_product(lct_fast(f, m), lct_fast(g, m)) - rhs)
