"""Scaling functions, wavelet synthesis, and subspace projections.

Frequency-domain work happens in the normalized variable u with the plain
2pi-convention transform hat(f)(u) = integral f(t) exp(-2 pi i t u) dt.
Scaling functions are built by the truncated infinite product of dilated
filter responses; wavelets by one extra filter factor; time-domain signals
by an inverse transform onto an exactly aligned fine grid followed by
integer subsampling.

Every scaling, wavelet and packet hat is a product of filter rows
L_d(u/(2N)^j) on one frequency lattice.  ``cascade`` creates a
``HatEngine`` there that evaluates each row as an array on its period,
multiplied in by broadcasting.  It keeps the cascade tails in use and each
digit row that a read has needed; an exact row is one small matrix product
of two tables of roots of unity.  Every product multiplies its rows in
ascending j, as the formula reads, so a hat's lattice bits depend on the
hat alone.  A ``HatFunction`` holds no lattice array: its values are formed
from its tail and rows where they are read (``_form``), whole or a block of
lattice points at a time.

Every lattice has step 1/``SPAN`` and every synthesis one time period of
``SPAN`` = 16, centred on 0.  That period holds every grid window the CLI
and the benchmark use; a grid outside [-8, 8) is refused, not wrapped.

A hat is synthesised at most once while it lives: ``HatFunction.periodic``,
the one inverse FFT at every level, forms the values in its own buffer and
keeps the result, of which ``grid_samples`` cuts every grid signal and basis
atom (at oversample 1, read-only windows).  A lattice owns its oversample,
the fine steps per grid step (``_oversample``).  A hat on the grid of its
time samples is a ``PacketNode``, which makes its signal on first read; the
cascade returns packet 0, the scaling function.  The wavelets are the
one-digit packet hats L_k(u/2N) hat(phi)(u/2N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .canonical import CanonicalMatrix, require_valid
from .filters import (
    CASCADE_CODES,
    PeriodicFilterPair,
    TranslationSet,
    default_u_count,
    filter_eval,
    require_lowpass,
    sample_grid,
    translations,
)
from .sampling import (
    Grid,
    SampledSignal,
    _common_grid,
    chirp_phase,
    chirped_coefficients,
    chirped_sum,
    dilate,
    indicator,
    inner_product,
    norm,
    numra_grid,
    piecewise_constant,
)


class ConvergenceError(RuntimeError):
    """Raised when the truncated filter product has not settled."""

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


#: Time period of every synthesis; the frequency lattice has step 1/SPAN.
SPAN = 16.0

#: Lattice points per ``filter_eval`` call of a nearest-sample row; bounds the
#: temporaries of its evaluation.
_BLOCK = 1 << 15


def _lattice_size(grid: Grid, oversample: int) -> int:
    """Points oversample*SPAN/step of the u lattice that synthesises onto ``grid``."""
    n_f = oversample * SPAN / grid.step
    n = round(n_f)
    if abs(n_f - n) > 1e-9:
        raise ValueError("SPAN/step must give an integral transform size")
    return n


def _oversample(n: int, grid: Grid) -> int:
    """Fine steps per step of ``grid`` on an n-point lattice: the inverse of ``_lattice_size``."""
    return round(n * grid.step / SPAN)


def frequency_samples(grid: Grid, *, oversample: int = 16) -> np.ndarray:
    """The u lattice used to inverse-transform onto ``grid`` (centered, step 1/SPAN)."""
    n = _lattice_size(grid, oversample)
    du = 1.0 / SPAN
    return (np.arange(n) - n // 2) * du


def _roots(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """exp(-2 pi i a b/order) on the outer grid of a and b, from phases a*b reduced
    exactly in int64 (see ``HatEngine``)."""
    p = np.multiply.outer(a, b)
    if order <= np.iinfo(np.int64).max:
        p %= order
        p[p > order // 2] -= order
    return np.exp((-2j * np.pi) * (p / float(order)))


class HatEngine:
    """Products of dilated filter rows L_d(u/(2N)^j) on one frequency lattice.

    Bound to a low-pass filter and the size ``n`` of the lattice u = e/SPAN,
    e = k - n//2, of ``frequency_samples(grid, oversample)``; it holds the
    filter, n, J, the cascade tails, ``tail_deviation`` and the digit rows
    read so far.  A node with digit filters L_{d_0}..L_{d_{q-1}} at level l
    has the hat

        prod_i L_{d_i}(u/(2N)^{l+i+1}) * T_{l+q}(u),
        T_s(u) = prod_{j=s+1..s+J} L_0(u/(2N)^j),

    the cascade tail at depth s.  L has period N in u, so row j repeats
    every order = SPAN*N*(2N)^j points of e, whatever form the pair takes.
    Each row is evaluated as one array on its period P (``_period``: the
    order where that divides n, else all n points) and multiplied into a
    lattice array by broadcasting, ``target.reshape(-1, P) *= period``.
    Every product is the formula's, accumulated times row in ascending j:
    T_s = ((L_0(u/(2N)^{s+1}) L_0(u/(2N)^{s+2})) ...) L_0(u/(2N)^{s+J}),
    each row on its period (the periods are nested divisors of n), and a hat
    is its tail times its digit rows in ascending j (``factors``, ``_form``).
    So a hat's bits depend on the hat alone, not on what else a pass builds
    or where its values are formed, and a tail grown by one row is the tail
    built at that depth.  One pass evaluates each low-pass row that a
    requested tail holds once and multiplies it into every such tail,
    deepest first, so the shallowest takes the row's buffer.  The
    constructor builds tails 0..``depth``; a tail deeper than the first pass
    costs a second pass, which evaluates its rows again.  A digit row is
    evaluated on the first read that needs it and kept on its period, so
    each is evaluated at most once per engine.

    Row j of an exact pair sums 2K terms c_t q^(s_t e), q = exp(-2 pi
    i/order), s = 2N(lo + g b) for comp1 and 2N(lo + g b) + r for comp2
    (``_sparse``).  With w = ceil(sqrt(P)) it is one product of two tables
    of roots, row.reshape(-1, w) = (q^(s (w i - n//2)) c) @ q^(s l), each
    phase s*e reduced exactly in int64 (``_roots``; an order past int64
    needs none, as |s*e| < order/2).  A row of another pair is
    ``filter_eval`` (nearest stored sample) on its P points, ``_BLOCK`` at a
    time.
    """

    def __init__(self, lowpass: PeriodicFilterPair, grid: Grid, *, oversample: int, J: int,
                 depth: int):
        self.lowpass = lowpass
        self.n = _lattice_size(grid, oversample)
        self.J = J
        self._tails: dict[int, np.ndarray] = {}
        #: Digit rows by (id(pair), j), each with its pair, which keeps the id unique.
        self._rows: dict[tuple[int, int], tuple[PeriodicFilterPair, np.ndarray]] = {}
        #: Max |T_0 - prod_{j<J} L_0(u/(2N)^j)| over the lattice.
        self.tail_deviation = 0.0
        self._build_tails(range(depth + 1))

    def _period(self, pair: PeriodicFilterPair, j: int) -> np.ndarray:
        """Row j on its period: SPAN*N*(2N)^j points where that divides n, else all n."""
        n, two_n = self.n, self.lowpass.ts.dilation
        order = round(SPAN) * pair.ts.N * two_n**j
        size = order if n % order == 0 else n
        if not pair.exact:
            period = np.empty(size, dtype=np.complex128)
            for a in range(0, size, _BLOCK):  # u as frequency_samples forms it
                u = (np.arange(a, min(a + _BLOCK, size)) - n // 2) * (1.0 / SPAN)
                period[a:a + _BLOCK] = filter_eval(pair, u / float(two_n) ** j)
            return period
        w = int(np.ceil(np.sqrt(size)))
        lo, g, terms = pair._sparse
        s = (two_n * (lo + g * np.arange(terms.shape[1])) + np.array([[0], [pair.ts.r]])).ravel()
        outer = _roots(w * np.arange(-(-size // w)) - n // 2, s, order) * terms.ravel()
        return (outer @ _roots(s, np.arange(w), order)).ravel()[:size]

    def _build_tails(self, depths) -> None:
        new = sorted(set(depths) - set(self._tails), reverse=True)  # deepest first
        tails = {s: np.ones(1, dtype=np.complex128) for s in new}
        for j in sorted({j for s in new for j in range(s + 1, s + self.J + 1)}):
            row = self._period(self.lowpass, j)
            users = [s for s in new if s < j <= s + self.J]
            for s in users:  # the shallowest last: it takes row's buffer
                acc = tails[s].reshape(1, -1)
                view = row.reshape(-1, acc.size)
                # in place into acc itself: numpy copies an input that another view as out aliases
                same = acc if acc.size == row.size else None
                tails[s] = np.multiply(acc, view, out=view if s == users[-1] else same)
                if s == 0 and j == self.J:  # T_0's last factor moves it by |acc - T_0|
                    self.tail_deviation = float(np.max(np.abs(np.subtract(acc, view, out=same))))
            del row, acc, view, same  # freed before the next row is evaluated
        for s, t in tails.items():
            t = t.ravel() if t.size == self.n else np.tile(t.ravel(), self.n // t.size)
            t.flags.writeable = False
            self._tails[s] = t

    def factors(self, hat: "HatFunction") -> tuple[np.ndarray, list[np.ndarray]]:
        """The tail of ``hat`` and its digit rows in ascending j, each row on its period,
        read-only; a row not yet read is evaluated here and kept."""
        self._build_tails({hat.depth})
        rows = []
        for i, pair in enumerate(hat.filters):
            j = hat.level + i + 1
            if (id(pair), j) not in self._rows:
                row = self._period(pair, j)
                row.flags.writeable = False
                self._rows[id(pair), j] = (pair, row)
            rows.append(self._rows[id(pair), j][1])
        return self._tails[hat.depth], rows

    def lattice(self, hats) -> list[np.ndarray]:
        """Lattice values of hats bound to this engine, read-only: a hat without digit rows
        reads its tail, any other a fresh array (``_form``) that no one keeps.  The tails
        the hats need are built in one pass."""
        self._build_tails({h.depth for h in hats})
        out = []
        for h in hats:
            tail, rows = self.factors(h)
            values = _form(tail, rows, np.empty(self.n, dtype=np.complex128)) if rows else tail
            values.flags.writeable = False
            out.append(values)
        return out


def _form(tail: np.ndarray, rows, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Lattice points start..start + out.size of a tail times rows, into ``out``.

    The tail's points are copied and each row, periodic on the lattice, is
    multiplied in place in the order given: the products of the hat whatever
    the block, as each point is the same chain of multiplies.  Where ``out``
    crosses a multiple of a row's period P, it is cut there: a head up to the
    first, whole periods by broadcasting, and a rest.
    """
    out[:] = tail[start:start + out.size]
    for row in rows:
        p, k = row.size, start % row.size
        if k + out.size <= p:  # inside one period
            out *= row[k:k + out.size]
            continue
        head = -k % p
        out[:head] *= row[k:k + head]
        whole = (out.size - head) // p * p
        periods = out[head:head + whole].reshape(-1, p)
        periods *= row
        rest = out[head + whole:]
        rest *= row[:rest.size]
    return out


@dataclass(frozen=True, eq=False)
class HatFunction:
    """Packet-type hat prod_i L_{d_i}(u/(2N)^{level+i+1}) * T_{level+q}(u).

    ``filters`` are the digit filters, least significant first; the empty
    tuple at level 0 is the scaling function.  Lattice values are formed from
    ``engine``'s tail and rows where they are read (``HatEngine.factors``), and
    not kept; the engine's low-pass filter owns N and the translation set.
    """

    engine: HatEngine
    filters: tuple[PeriodicFilterPair, ...] = ()
    level: int = 0
    _periodic: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def depth(self) -> int:
        return self.level + len(self.filters)

    def periodic(self) -> np.ndarray:
        """``periodic_samples`` of (2N)^{-level/2} times this hat's lattice values (at level
        >= 1 the normalised dilate), read-only and stored on the hat, so it is synthesised
        once whatever reads it.  The values are formed in the transform's own buffer."""
        if self._periodic is None:
            fine = _form(*self.engine.factors(self), np.empty(self.engine.n, dtype=np.complex128))
            if self.level:
                fine *= float(self.engine.lowpass.ts.dilation) ** (-self.level / 2.0)
            fine = periodic_samples(fine)
            fine.flags.writeable = False
            object.__setattr__(self, "_periodic", fine)
        return self._periodic

    def child(self, pair: PeriodicFilterPair) -> "HatFunction":
        """hat(u) of the child packet: L(u/2N) times this hat at u/2N."""
        return HatFunction(self.engine, (pair,) + self.filters, self.level)

    def dilated(self, j: int) -> "HatFunction":
        """This hat at u/(2N)^j."""
        return self if j == 0 else HatFunction(self.engine, self.filters, self.level + j)


def served_engine(hats, grid: Grid, *, oversample: int | None = None) -> HatEngine:
    """The one engine the hats share, refused unless it holds the lattice of ``grid`` at
    ``oversample``: by default the lattice's own, a given one is checked, not trusted."""
    engine = hats[0].engine
    if not all(h.engine is engine for h in hats):
        raise ValueError("hats on one lattice must share one engine")
    n = _lattice_size(grid, _oversample(engine.n, grid) if oversample is None else oversample)
    if engine.n != n:
        raise ValueError(f"engine lattice ({engine.n} points) does not serve "
                         f"the requested lattice ({n} points)")
    return engine


def default_time_grid(ts: TranslationSet, window=(-1.0, 3.0), target_step=2.0**-10) -> Grid:
    """Translation-compatible grid with step close to ``target_step`` (finite and > 0)."""
    if not 0.0 < target_step < np.inf:
        raise ValueError(f"step must be finite and positive, got {target_step}")
    refinement = max(1, round(1.0 / (2 * ts.N * target_step)))
    return numra_grid(ts, window, refinement=refinement)


def periodic_samples(values: np.ndarray) -> np.ndarray:
    """One period of the inverse transform of lattice values, on the fine step SPAN/n,
    made in place: ``values`` is overwritten and returned.

    The inverse 2pi-convention transform of values on u = e/SPAN is periodic
    with period ``SPAN``; sample i is at time (i - n//2) SPAN/n, so every
    window inside [-SPAN/2, SPAN/2) is one run.  At even n (lattice sizes
    are multiples of SPAN) both half-period shifts of the FFT are signs: the
    odd values change sign, the inverse FFT runs in place, and the scale
    n/SPAN carries the signs (-1)^(i - n//2) of the samples.
    """
    values[1::2] *= -1
    np.fft.ifft(values, out=values)  # the out= keyword needs numpy >= 2.0
    scale = (-1) ** (values.size // 2) * values.size / SPAN
    values[::2] *= scale
    values[1::2] *= -scale
    return values


def grid_samples(fine: np.ndarray, grid: Grid, *, oversample: int, delay: int = 0) -> np.ndarray:
    """Grid samples delayed by ``delay`` fine steps, cut from ``periodic_samples``.

    Every oversample-th fine sample from the grid's first point minus the
    delay, modulo n.  One contiguous run (oversample 1, no wrap) is one slice
    of ``fine``, based on ``fine`` itself and read-only when it is; otherwise
    a strided slice and, past the period's end, one more are copied out.  The
    grid window must sit inside [-SPAN/2, SPAN/2) and its origin on the fine
    lattice (which holds whenever SPAN/step is integral).
    """
    if grid.t_min < -SPAN / 2 or grid.t_max > SPAN / 2:
        raise ValueError("grid window exceeds the transform period")
    idx0 = grid.t_min / (grid.step / oversample)
    if abs(idx0 - round(idx0)) > 1e-6:
        raise ValueError("grid origin does not align with the transform lattice")
    n = fine.size
    start = (round(idx0) + n // 2 - int(delay)) % n
    if oversample == 1 and start + grid.count <= n:
        return fine[start:start + grid.count]
    head = fine[start::oversample][: grid.count]
    wrap = fine[start + oversample * head.size - n::oversample][: grid.count - head.size]
    return np.concatenate((head, wrap))


def hat_to_signal(hat: HatFunction, grid: Grid, *, oversample: int | None = None) -> SampledSignal:
    """Inverse 2pi-convention transform of ``hat`` sampled onto ``grid``.

    The frequency cutoff is oversample/(2*step), the lattice's (``served_engine``);
    the grid window must sit inside the period [-SPAN/2, SPAN/2) with its origin on
    the fine lattice.  A hat is synthesised once while it lives; each further grid
    costs one cut.
    """
    n = served_engine([hat], grid, oversample=oversample).n
    return SampledSignal(grid, grid_samples(hat.periodic(), grid, oversample=_oversample(n, grid)))


@dataclass(frozen=True)
class PacketIndex:
    """Nonnegative integer with its base-2N digit expansion (least significant first)."""

    n: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("packet index must be nonnegative")
        if self.n >= 1 and (not self.digits or self.digits[-1] == 0):
            raise ValueError("last digit must be nonzero for n >= 1")
        if self.n == 0 and self.digits:
            raise ValueError("index 0 has the empty expansion")


@dataclass(frozen=True)
class PacketNode:
    """One packet: its index and its level-0 hat on the grid of its time samples; the
    cascade returns packet 0.  ``signal``, ``hat_to_signal`` at the lattice's oversample,
    is made on first read and kept, so a node that only lattice sums read is never
    inverse-transformed.  A node keeps no lattice array: its hat's values are formed
    from the engine's tail and rows by whatever reads them."""

    hat: HatFunction
    grid: Grid
    index: PacketIndex = PacketIndex(0, ())

    @cached_property
    def signal(self) -> SampledSignal:
        return hat_to_signal(self.hat, self.grid)

    @property
    def engine(self) -> HatEngine:
        """The lattice engine shared by every hat built on this node's cascade."""
        return self.hat.engine

    @property
    def tail_deviation(self) -> float:
        return self.engine.tail_deviation

    @property
    def band_deficit(self) -> float:
        """d = 1 - sum |hat|^2 / SPAN over the lattice, the norm its band misses: 1 - Re G_nn
        of ``packets.packet_gram`` (the summed diagonal of its lattice fold)."""
        values = self.engine.lattice([self.hat])[0]
        return 1.0 - float(np.vdot(values, values).real) / SPAN


def cascade(
    p0: PeriodicFilterPair,
    J: int = 20,
    tol: float = 1e-5,
    *,
    grid: Grid | None = None,
    oversample: int = 16,
    depth: int = 2,
) -> PacketNode:
    """Scaling function, packet 0, from the truncated product of dilated filter responses.

    hat(phi)(u) = prod_{j=1..J} L(u / (2N)^j).  ``p0`` must pass
    ``filters.require_lowpass`` for ``CASCADE_CODES`` (L(0) = 1 and the
    scaling sums); a FilterConditionError names what fails.  The tail is
    checked on the inverse-transform lattice: the uniform difference
    between the J-term and (J-1)-term products must be at most ``tol``,
    otherwise a ConvergenceError carries the deviation.  The lattice
    engine also builds the tails of depths 1..``depth`` in the same pass
    (packets with up to ``depth`` digits, and coarser bases, need them);
    each tail is its own rows in ascending j, so ``depth`` moves no bit of phi.
    The hat's lattice values are the engine's tail T_0, and no inverse FFT is
    made before the first read of ``signal``.  J < 1 is refused: an empty product has no
    tail to check.  So is a J whose deepest row period SPAN*N*(2N)^(J+depth),
    a float divisor of its phases (``_roots``), reaches 2^1023.
    """
    if J < 1:
        raise ValueError(f"cascade needs J >= 1 factors, got J={J}")
    if np.log2(SPAN * p0.ts.N) + (J + depth) * np.log2(p0.ts.dilation) >= 1023:
        raise ValueError(f"cascade rows to (2N)^{J + depth} at N={p0.ts.N} exceed the float range")
    require_lowpass(p0, CASCADE_CODES)
    if grid is None:
        grid = default_time_grid(p0.ts)
    engine = HatEngine(p0, grid, oversample=oversample, J=J, depth=depth)
    deviation = engine.tail_deviation
    if deviation > tol:
        raise ConvergenceError(
            f"cascade tail deviation {deviation:.3e} exceeds tol {tol:.3e} at J={J}",
            deviation,
        )
    return PacketNode(HatFunction(engine), grid)


def two_scale_residual(phi_hat: HatFunction) -> float:
    """Max |hat(phi)(u) - L(u/2N) hat(phi)(u/2N)| over the engine's lattice.

    Both sides are lattice hats, T_0 and row 1 times T_1, so no row is
    evaluated that the engine does not already hold or share.
    """
    engine = phi_hat.engine
    lhs, rhs = engine.lattice([phi_hat, phi_hat.child(engine.lowpass)])
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Explicit Haar-type family on the nonuniform translation set
# ---------------------------------------------------------------------------


def haar_support_intervals(ts: TranslationSet) -> list[tuple[float, float]]:
    """The N intervals [2j/N, (2j+1)/N) whose union carries the scaling function."""
    return [(2.0 * j / ts.N, (2.0 * j + 1) / ts.N) for j in range(ts.N)]


def haar_scaling(ts: TranslationSet, grid: Grid | None = None) -> SampledSignal:
    """Indicator scaling function of the union of N length-1/N intervals."""
    if grid is None:
        grid = default_time_grid(ts)
    return indicator(haar_support_intervals(ts), grid)


def haar_filters(ts: TranslationSet, m: CanonicalMatrix) -> PeriodicFilterPair:
    """Low-pass pair of the Haar-type family: filter 0 of ``haar_filter_bank``.

    Both components equal (1/2N) sum_k c_k exp(-8 pi i u k) with the
    unimodular lattice phases c_k; sampled exactly from the closed form.
    """
    return haar_filter_bank(ts, m)[0]


def haar_filter_bank(
    ts: TranslationSet, m: CanonicalMatrix, *, permissive: bool = False
) -> list[PeriodicFilterPair]:
    """Closed-form orthonormal bank of 2N filters extending the Haar low-pass.

    Filter 2d + s has components A_d and (-1)^s A_d, where A_d is the
    low-pass component with its lattice terms twisted by the N-th roots of
    unity: A_d(u) = (1/2N) sum_k c_k exp(-2 pi i d k / N) exp(-8 pi i u k).
    The plain bank sum telescopes to delta_{dd'} delta_{ss'} and the
    twisted sum vanishes because its root-of-unity order 2(k - k') + r is
    odd; both hold identically in u, so the bank is smooth and
    self-certifying.  Index 0 (d = s = 0) is the low-pass filter.  Each
    pair holds A_d sampled on the u grid; its N lattice terms make it
    exact, so it evaluates the closed form at any u.
    """
    require_valid(m, allow_nonunimodular=permissive)
    coeffs = chirp_phase(m, 0.0, 4.0 * np.arange(ts.N))  # phases c_k of the 4k translates
    u = sample_grid(default_u_count(ts)).points()
    basis = [np.exp(-8j * np.pi * u * k) for k in range(ts.N)]
    bank = []
    for d in range(ts.N):
        twisted = coeffs * np.exp(-2j * np.pi * d * np.arange(ts.N) / ts.N)
        acc = np.zeros(u.shape, dtype=np.complex128)
        for ck, term in zip(twisted, basis):
            acc += ck * term
        acc /= 2 * ts.N
        bank += [PeriodicFilterPair(ts, acc, sign * acc) for sign in (1.0, -1.0)]
    return bank


@dataclass(frozen=True, eq=False)
class WaveletFamily:
    """A scaling function, its 2N - 1 wavelets, and the generating filters; families
    compare by identity, as their filters and signals do."""

    ts: TranslationSet
    m: CanonicalMatrix
    phi: SampledSignal
    psi: tuple[SampledSignal, ...]
    filters: tuple[PeriodicFilterPair, ...]

    def __post_init__(self):
        phi_norm = norm(self.phi)
        if abs(phi_norm - 1.0) > 0.02:
            raise ValueError(f"scaling function norm {phi_norm} is not 1 within 2%")
        mass = inner_product(self.phi, indicator([(self.phi.grid.t_min, self.phi.grid.t_max)], self.phi.grid))
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"scaling function mean value {mass} differs from 1")


def haar_family(
    ts: TranslationSet,
    m: CanonicalMatrix,
    *,
    grid: Grid | None = None,
    oversample: int = 16,
    permissive: bool = False,
) -> WaveletFamily:
    """Complete Haar-type family: exact scaling samples, spectral wavelets (packet hats
    1..2N-1 of the cascade, one temporary hat at a time; phi's hat is neither synthesised
    nor kept)."""
    if grid is None:
        grid = default_time_grid(ts)
    bank = haar_filter_bank(ts, m, permissive=permissive)
    result = cascade(bank[0], grid=grid, oversample=oversample, depth=1)
    psi = tuple(hat_to_signal(result.hat.child(pk), grid) for pk in bank[1:])
    return WaveletFamily(ts=ts, m=m, phi=haar_scaling(ts, grid), psi=psi, filters=tuple(bank))


# ---------------------------------------------------------------------------
# Projections onto the dilated translation spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """P_j f, its coefficients and its warnings; results compare by identity, as signals do."""

    signal: SampledSignal
    coefficients: dict[float, complex]
    warnings: tuple[str, ...]


def project(
    f: SampledSignal,
    phi: SampledSignal,
    ts: TranslationSet,
    m: CanonicalMatrix,
    j: int,
    lambda_window: tuple[float, float],
) -> ProjectionResult:
    """Orthogonal projection of f onto the level-j span of scaling translates.

    P_j f = sum_lambda <f, e_{j,lambda}> e_{j,lambda} over the translations
    of ``ts`` in the window, e_{j,lambda} the chirped ``dilate(phi, j, N,
    lambda)``: ``sampling.chirped_coefficients`` and ``sampling.chirped_sum``
    read the unchirped translates one at a time, made afresh for each.  A
    warning is attached when boundary coefficients are non-negligible (the
    window would truncate the projection).  A window that holds no
    translation is refused.
    """
    lambdas = translations(ts, lambda_window)

    def atoms():
        return (dilate(phi, j, ts.N, lam, grid=f.grid).values for lam in lambdas)

    values = chirped_coefficients(f, atoms(), lambdas, m)
    coeffs = dict(zip(lambdas, map(complex, values)))
    warnings = []
    boundary = max(abs(coeffs[lambdas[0]]), abs(coeffs[lambdas[-1]]))
    if boundary > 1e-6 * max(1.0, norm(f)):
        warnings.append(
            "translation window may be too small: boundary coefficients are non-negligible"
        )
    return ProjectionResult(chirped_sum(values, atoms(), lambdas, m, f.grid), coeffs,
                            tuple(warnings))


# ---------------------------------------------------------------------------
# Closed-form reference signals used for cross-checking
# ---------------------------------------------------------------------------


def n2_reference_wavelets(grid: Grid) -> list[SampledSignal]:
    """Three piecewise-constant reference wavelets for the N = 2 family.

    These closed forms are tied to the anomalous matrix (0, 1, 2, -1)
    (determinant -2); they are reference data for a cross-check report,
    not assumed correct.
    """
    psi1 = piecewise_constant([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)], grid)
    left = [
        (-1.0, -7.0 / 8.0, -1.0),
        (-7.0 / 8.0, -3.0 / 4.0, 1.0),
        (-3.0 / 4.0, -5.0 / 8.0, -1.0),
        (-5.0 / 8.0, -0.5, 1.0),
    ]
    right = [
        (0.0, 1.0 / 8.0, 1.0),
        (1.0 / 8.0, 1.0 / 4.0, -1.0),
        (1.0 / 4.0, 3.0 / 8.0, 1.0),
        (3.0 / 8.0, 0.5, -1.0),
    ]
    psi2 = piecewise_constant(left + [(lo, hi, -v) for lo, hi, v in right], grid)
    psi3 = piecewise_constant(left + right, grid)
    return [psi1, psi2, psi3]


def l2_distance_off_jumps(a: SampledSignal, b: SampledSignal, jumps) -> float:
    """L2 distance with grid cells within one step of a jump excluded.

    Sampled comparisons against discontinuous references are dominated by
    the sample sitting exactly on each jump (the band-limited
    reconstruction takes the midpoint value there, the reference its
    right limit); excluding those measure-zero cells estimates the true
    L2 distance of the underlying functions.
    """
    grid = _common_grid([a, b])
    t = grid.points()
    keep = np.ones(grid.count, dtype=bool)
    for x in jumps:
        keep &= np.abs(t - x) > 1.5 * grid.step
    diff = np.abs(a.values - b.values) ** 2
    return float(np.sqrt(np.sum(diff[keep]) * grid.step))
