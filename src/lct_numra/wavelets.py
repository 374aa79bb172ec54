"""Scaling functions, wavelet synthesis, and subspace projections.

Frequency-domain work happens in the normalized variable u with the plain
2pi-convention transform hat(f)(u) = integral f(t) exp(-2 pi i t u) dt.
Scaling functions are built by the truncated infinite product of dilated
filter responses; wavelets by one extra filter factor; time-domain signals
by an inverse transform onto an exactly aligned fine grid followed by
integer subsampling.

Every scaling, wavelet and packet hat is a product of filter rows
L_d(u/(2N)^j) on one frequency lattice.  ``cascade`` creates a
``HatEngine`` there that evaluates each row once, as an array on its
period multiplied in by broadcasting, and retains only the cascade tails
in use and a few shallow low-pass rows, never one array per row.
A ``HatFunction`` takes its lattice values from the engine.

Every lattice has step 1/``SPAN`` and every synthesis one time period of
``SPAN`` = 16, centred on 0.  That period holds every grid window the CLI
and the benchmark use; a grid outside [-8, 8) is refused, not wrapped.

Synthesis happens once per hat.  ``periodic_samples`` is the one inverse
FFT: one period of the hat's inverse transform on the fine time step.
``grid_samples`` cuts grid samples for any list of delays from it by
slices.  A kept hat (``HatEngine.lattice(keep=True)``; the cascade keeps
its own) holds its periodic samples beside its lattice values, so every
grid signal and undilated basis atom of it is a cut of one transform; at
oversample 1 its signals are read-only windows of those samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalMatrix, require_valid
from .filters import (
    ADMISSIBLE_TOL,
    FilterConditionError,
    PeriodicFilterPair,
    TranslationSet,
    check_scaling_conditions,
    default_u_count,
    filter_eval,
    omega_enumerate,
)
from .sampling import (
    Grid,
    SampledSignal,
    _common_grid,
    chirp_phase,
    dilate,
    indicator,
    inner_product,
    norm,
    numra_grid,
)


class ConvergenceError(RuntimeError):
    """Raised when the truncated filter product has not settled."""

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


#: Time period of every synthesis; the frequency lattice has step 1/SPAN.
SPAN = 16.0

#: Lattice points per ``_row`` call; bounds the temporaries of one filter
#: evaluation whatever the period of the row.
_BLOCK = 1 << 15


def _lattice_size(grid: Grid, oversample: int) -> int:
    """Points oversample*SPAN/step of the u lattice that synthesises onto ``grid``."""
    n_f = oversample * SPAN / grid.step
    n = round(n_f)
    if abs(n_f - n) > 1e-9:
        raise ValueError("SPAN/step must give an integral transform size")
    return n


def frequency_samples(grid: Grid, *, oversample: int = 16) -> np.ndarray:
    """The u lattice used to inverse-transform onto ``grid`` (centered, step 1/SPAN)."""
    n = _lattice_size(grid, oversample)
    du = 1.0 / SPAN
    return (np.arange(n) - n // 2) * du


def _root_powers(c: int, e0: int, m: int, order: int) -> np.ndarray:
    """exp(-2 pi i c e/order), e = e0..e0+m-1: the outer product of two tables of
    about sqrt(m) entries, each from an exactly reduced phase (see ``HatEngine``)."""
    w = int(np.ceil(np.sqrt(m)))
    p = c * np.concatenate([e0 + w * np.arange(-(-m // w)), np.arange(w)])
    if order <= np.iinfo(np.int64).max:
        p %= order
        p[p > order // 2] -= order
    t = np.exp((-2j * np.pi) * (p / float(order)))
    return np.outer(t[:-w], t[-w:]).ravel()[:m]


class HatEngine:
    """Products of dilated filter rows L_d(u/(2N)^j) on one frequency lattice.

    Bound to a low-pass filter and the lattice ``u`` of
    ``frequency_samples(grid, oversample)``.  A node with digit
    filters L_{d_0}..L_{d_{q-1}} at level l has the hat

        prod_i L_{d_i}(u/(2N)^{l+i+1}) * T_{l+q}(u),
        T_s(u) = prod_{j=s+1..s+J} L_0(u/(2N)^j),

    the cascade tail at depth s.  Each row is evaluated once, as one
    array on its period P (``_period``), and multiplied into a lattice
    array by broadcasting, ``target.reshape(-1, P) *= period``.  One pass
    over the low-pass rows builds the tails of all requested depths: a
    core of the rows all of them hold, tiled into each tail, then each
    tail's few edge rows.  The constructor builds tails 0..``depth`` and
    keeps the shallow low-pass rows j <= depth, which digit 0 of a node
    reuses; digit rows of node hats are evaluated once per ``lattice``
    call and multiplied into every hat that uses them.  A tail deeper
    than the first pass costs a second pass.

    The lattice is u = e/SPAN, e = k - n//2.  Row j of an exact pair takes
    the powers of z = q^(2N) it needs and cross = q^r of q = exp(-2 pi i
    e/order), order = SPAN*N*(2N)^j, from phases c*e reduced exactly in
    int64 to (-order/2, order/2]; an order past int64 needs no reduction,
    as |c*e| < order/2.  Its period is ``order`` points where that divides
    n; other rows, and all rows of other pairs (``filter_eval``, nearest
    stored sample), take all n.  The periods are nested divisors of n, so
    the core forms on the longest.  Products run accumulated times row.
    """

    def __init__(self, lowpass: PeriodicFilterPair, grid: Grid, *, oversample: int, J: int,
                 depth: int):
        self.lowpass = lowpass
        self.u = frequency_samples(grid, oversample=oversample)
        self.J = J
        self._tails: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        #: Max |T_0 - prod_{j<J} L_0(u/(2N)^j)| over the lattice.
        self.tail_deviation = 0.0
        self._build_tails(range(depth + 1), keep_rows=True)

    def _blocks(self, n: int | None = None):
        return ((a, min(a + _BLOCK, n or self.u.size)) for a in range(0, n or self.u.size, _BLOCK))

    def _row(self, pair: PeriodicFilterPair, j: int, a: int, b: int) -> np.ndarray:
        """Row L(u/(2N)^j) on lattice points a..b-1: the one place a row is evaluated."""
        two_n = self.lowpass.ts.dilation
        if not pair.exact:
            return filter_eval(pair, self.u[a:b] / float(two_n) ** j)
        order, e0 = round(SPAN) * pair.ts.N * two_n**j, a - self.u.size // 2
        return pair._combine(lambda k: _root_powers(two_n * k, e0, b - a, order),
                             _root_powers(pair.ts.r, e0, b - a, order))

    def _period(self, pair: PeriodicFilterPair, j: int) -> np.ndarray:
        """Row j on its period: its order where an exact pair's order divides n, else n points."""
        n = self.u.size
        order = round(SPAN) * pair.ts.N * self.lowpass.ts.dilation**j
        period = np.empty(order if pair.exact and n % order == 0 else n, dtype=np.complex128)
        for a, b in self._blocks(period.size):
            period[a:b] = self._row(pair, j, a, b)
        return period

    def _build_tails(self, depths, *, keep_rows: bool = False) -> None:
        new = sorted(set(depths) - set(self._tails))
        if not new:
            return
        J, lo, hi, low = self.J, new[0], new[-1], self.lowpass
        # the rows all new tails hold (but row J of a new T_0, checked), on nested periods
        core = [j for j in range(hi + 1, lo + J + 1) if not (lo == 0 and j == J)]
        acc = np.ones(1, dtype=np.complex128)
        for j in core:
            row = self._period(low, j)
            np.multiply(acc, row.reshape(-1, acc.size), out=row.reshape(-1, acc.size))
            acc = row
        tails = {s: np.tile(acc, self.u.size // acc.size) for s in new}
        del acc  # freed before the edge rows: the tails hold the core now
        for j in sorted(set(range(lo + 1, hi + J + 1)) - set(core)):  # the edge rows
            users = [s for s in new if s < j <= s + J]
            if not users:
                continue
            row = self._period(low, j)
            for s in users:
                t = tails[s].reshape(-1, row.size)
                if s == 0 and j == J:
                    full = t * row
                    t -= full  # T_0's last factor moves it by |full - t|
                    self.tail_deviation = float(np.max(np.abs(t)))
                    tails[0] = full.ravel()
                else:
                    t *= row
            if keep_rows and j <= hi:
                row.flags.writeable = False
                self._rows[j] = row
        for t in tails.values():
            t.flags.writeable = False
        self._tails.update(tails)

    def lattice(self, hats, *, keep: bool = False) -> list[np.ndarray]:
        """Lattice values of hats bound to this engine (read-only when shared).

        Each digit row is evaluated once, on its period, and multiplied into
        every hat that uses it.  ``keep`` stores the values on the hats, so
        later consumers (bases, fold sums) reuse them for as long as the
        hats live.
        """
        todo = {id(h): h for h in hats if h._values is None}
        self._build_tails({h.depth for h in todo.values()})
        outs = {}
        rows: dict[tuple[int, int], tuple[PeriodicFilterPair, int, list]] = {}
        for key, h in todo.items():
            tail = self._tails[h.depth]
            outs[key] = tail.copy() if h.filters else tail
            for i, pair in enumerate(h.filters):
                j = h.level + i + 1
                rows.setdefault((id(pair), j), (pair, j, []))[2].append(outs[key])
        for pair, j, targets in rows.values():
            row = self._rows[j] if pair is self.lowpass and j in self._rows else self._period(pair, j)
            for t in targets:
                view = t.reshape(-1, row.size)
                view *= row
        if keep:
            for key, h in todo.items():
                outs[key].flags.writeable = False
                object.__setattr__(h, "_values", outs[key])
        return [outs[id(h)] if id(h) in outs else h._values for h in hats]


@dataclass(frozen=True, eq=False)
class HatFunction:
    """Packet-type hat prod_i L_{d_i}(u/(2N)^{level+i+1}) * T_{level+q}(u).

    ``filters`` are the digit filters, least significant first; the empty
    tuple at level 0 is the scaling function.  Lattice values come from
    ``engine``.
    """

    engine: HatEngine
    filters: tuple[PeriodicFilterPair, ...] = ()
    level: int = 0
    _values: np.ndarray | None = field(default=None, init=False, repr=False)
    _periodic: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def depth(self) -> int:
        return self.level + len(self.filters)

    def periodic(self) -> np.ndarray:
        """``periodic_samples`` of this hat's lattice values (read-only when kept).

        A kept hat keeps them, so it is synthesised once whatever reads it.
        """
        if self._periodic is not None:
            return self._periodic
        fine = periodic_samples(self.engine.lattice([self])[0])
        if self._values is not None:
            fine.flags.writeable = False
            object.__setattr__(self, "_periodic", fine)
        return fine

    def child(self, pair: PeriodicFilterPair) -> "HatFunction":
        """hat(u) of the child packet: L(u/2N) times this hat at u/2N."""
        return HatFunction(self.engine, (pair,) + self.filters, self.level)

    def dilated(self, j: int) -> "HatFunction":
        """This hat at u/(2N)^j."""
        return self if j == 0 else HatFunction(self.engine, self.filters, self.level + j)


def served_engine(hats, grid: Grid, *, oversample: int = 16) -> HatEngine:
    """The one engine the hats share, refused unless it holds the lattice of ``grid``."""
    engine = hats[0].engine
    if not all(h.engine is engine for h in hats):
        raise ValueError("hats on one lattice must share one engine")
    n = _lattice_size(grid, oversample)
    if engine.u.size != n:
        raise ValueError(f"engine lattice ({engine.u.size} points) does not serve "
                         f"the requested lattice ({n} points)")
    return engine


def default_time_grid(ts: TranslationSet, window=(-1.0, 3.0), target_step=2.0**-10) -> Grid:
    """Translation-compatible grid with step close to ``target_step`` (finite and > 0)."""
    if not 0.0 < target_step < np.inf:
        raise ValueError(f"step must be finite and positive, got {target_step}")
    refinement = max(1, round(1.0 / (2 * ts.N * target_step)))
    return numra_grid(ts, window, refinement=refinement)


def periodic_samples(values: np.ndarray) -> np.ndarray:
    """One period of the inverse transform of lattice values, on the fine step SPAN/n.

    The inverse 2pi-convention transform of values on u = e/SPAN is periodic
    with period ``SPAN``; sample i is at time (i - n//2) SPAN/n, so every
    window inside [-SPAN/2, SPAN/2) is one run.  The inverse FFT and its
    scale n/SPAN run in place on the ``ifftshift`` copy of the values,
    which ``fftshift`` then centres; a transform into a second array
    would hold one more period of samples beside the kept ones.
    """
    fine = np.fft.ifftshift(values)
    np.fft.ifft(fine, out=fine)  # the out= keyword needs numpy >= 2.0
    fine *= values.size / SPAN
    return np.fft.fftshift(fine)


def _first_index(grid: Grid, n: int, *, oversample: int) -> int:
    """Index of the grid's first point in n ``periodic_samples`` of step step/oversample.

    The grid window must sit inside [-SPAN/2, SPAN/2) and its origin on the
    fine lattice (which holds whenever SPAN/step is integral).
    """
    if grid.t_min < -SPAN / 2 or grid.t_max > SPAN / 2:
        raise ValueError("grid window exceeds the transform period")
    idx0 = grid.t_min / (grid.step / oversample)
    if abs(idx0 - round(idx0)) > 1e-6:
        raise ValueError("grid origin does not align with the transform lattice")
    return round(idx0) + n // 2


def grid_samples(fine: np.ndarray, grid: Grid, *, oversample: int = 16, shifts=(0,), out=None):
    """(delays x count) grid samples cut from ``periodic_samples`` by slices.

    Row i holds the grid samples delayed by ``shifts[i]`` fine steps: every
    oversample-th fine sample from the grid's first point minus the delay,
    modulo n, read as one strided slice and, past the period's end, one
    more.  ``out``, when given, is the sequence of rows to fill.
    """
    n = fine.size
    i0 = _first_index(grid, n, oversample=oversample)
    if out is None:
        out = np.empty((len(shifts), grid.count), dtype=np.complex128)
    for row, s in zip(out, shifts):
        start = (i0 - int(s)) % n
        head = fine[start::oversample][: grid.count]
        wrap = fine[start + oversample * head.size - n::oversample][: grid.count - head.size]
        np.concatenate((head, wrap), out=row)
    return out


def hat_to_signal(hat: HatFunction, grid: Grid, *, oversample: int = 16) -> SampledSignal:
    """Inverse 2pi-convention transform of ``hat`` sampled onto ``grid``.

    The frequency cutoff is oversample/(2*step); the grid window must sit
    inside the period [-SPAN/2, SPAN/2) with its origin on the fine lattice.
    A kept hat is synthesised once; each further grid costs one cut.
    """
    served_engine([hat], grid, oversample=oversample)
    fine = hat.periodic()
    if oversample == 1 and fine is hat._periodic:
        # a kept hat holds these samples anyway, so its signal is a read-only
        # window of them; at oversample > 1 a window would be strided
        i0 = _first_index(grid, fine.size, oversample=1)
        return SampledSignal(grid, fine[i0:i0 + grid.count])
    return SampledSignal(grid, grid_samples(fine, grid, oversample=oversample)[0])


@dataclass(frozen=True)
class CascadeResult:
    """Scaling function returned by the cascade: time samples plus its hat."""

    signal: SampledSignal
    hat: HatFunction
    tail_deviation: float

    @property
    def engine(self) -> HatEngine:
        """The lattice engine shared by every hat built on this cascade."""
        return self.hat.engine


def _require_lowpass(p0: PeriodicFilterPair) -> None:
    """The cascade's preconditions: L(0) = 1 within 1e-10, scaling conditions within
    ``ADMISSIBLE_TOL``; a FilterConditionError otherwise."""
    lam0 = filter_eval(p0, 0.0)
    if abs(lam0 - 1.0) > 1e-10:
        raise FilterConditionError(f"filter response at 0 is {lam0:.17g}, expected 1")
    res_a, res_b = check_scaling_conditions(p0)
    if max(res_a, res_b) > ADMISSIBLE_TOL:
        raise FilterConditionError(
            f"scaling conditions fail (residuals {res_a:.3e}, {res_b:.3e})"
        )


def cascade(
    p0: PeriodicFilterPair,
    J: int = 20,
    tol: float = 1e-5,
    *,
    grid: Grid | None = None,
    oversample: int = 16,
    depth: int = 2,
) -> CascadeResult:
    """Scaling function from the truncated product of dilated filter responses.

    hat(phi)(u) = prod_{j=1..J} L(u / (2N)^j).  Requires L(0) = 1 within
    1e-10 and the scaling conditions within ``ADMISSIBLE_TOL``.  The tail is
    checked on the inverse-transform lattice: the uniform difference
    between the J-term and (J-1)-term products must be at most ``tol``,
    otherwise a ConvergenceError carries the deviation.  The lattice
    engine also builds the tails of depths 1..``depth`` in the same pass
    (packets with up to ``depth`` digits, and coarser bases, need them).
    J < 1 is refused: an empty product has no tail to check.
    """
    if J < 1:
        raise ValueError(f"cascade needs J >= 1 factors, got J={J}")
    _require_lowpass(p0)
    if grid is None:
        grid = default_time_grid(p0.ts)
    engine = HatEngine(p0, grid, oversample=oversample, J=J, depth=depth)
    deviation = engine.tail_deviation
    if deviation > tol:
        raise ConvergenceError(
            f"cascade tail deviation {deviation:.3e} exceeds tol {tol:.3e} at J={J}",
            deviation,
        )
    hat = HatFunction(engine)
    engine.lattice([hat], keep=True)
    signal = hat_to_signal(hat, grid, oversample=oversample)
    return CascadeResult(signal=signal, hat=hat, tail_deviation=deviation)


def wavelet_from_filters(
    phi_hat: HatFunction,
    pk: PeriodicFilterPair,
    *,
    grid: Grid | None = None,
    oversample: int = 16,
) -> tuple[SampledSignal, HatFunction]:
    """Wavelet hat(psi)(u) = L_k(u/2N) hat(phi)(u/2N), inverse-transformed."""
    if grid is None:
        grid = default_time_grid(pk.ts)
    hat = phi_hat.child(pk)
    return hat_to_signal(hat, grid, oversample=oversample), hat


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


def _haar_lattice_coeffs(
    ts: TranslationSet, m: CanonicalMatrix, permissive: bool = False
) -> np.ndarray:
    """Unimodular phases ``chirp_phase(m, 0, 4k)`` of the 4k translates."""
    require_valid(m, allow_nonunimodular=permissive)
    return chirp_phase(m, 0.0, 4.0 * np.arange(ts.N))


def haar_filters(
    ts: TranslationSet, m: CanonicalMatrix, *, permissive: bool = False
) -> PeriodicFilterPair:
    """Low-pass pair of the Haar-type family: filter 0 of ``haar_filter_bank``.

    Both components equal (1/2N) sum_k c_k exp(-8 pi i u k) with the
    unimodular lattice phases c_k; sampled exactly from the closed form.
    """
    return haar_filter_bank(ts, m, permissive=permissive)[0]


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
    coeffs = _haar_lattice_coeffs(ts, m, permissive)
    count = default_u_count(ts)
    grid = Grid(t_min=0.0, step=0.5 / count, count=count)
    u = grid.points()
    basis = [np.exp(-8j * np.pi * u * k) for k in range(ts.N)]
    bank = []
    for d in range(ts.N):
        twisted = coeffs * np.exp(-2j * np.pi * d * np.arange(ts.N) / ts.N)
        acc = np.zeros(u.shape, dtype=np.complex128)
        for ck, term in zip(twisted, basis):
            acc += ck * term
        acc /= 2 * ts.N
        bank += [PeriodicFilterPair(ts, grid, acc, sign * acc) for sign in (1.0, -1.0)]
    return bank


@dataclass(frozen=True)
class WaveletFamily:
    """A scaling function, its 2N - 1 wavelets, and the generating filters."""

    ts: TranslationSet
    m: CanonicalMatrix
    phi: SampledSignal
    psi: tuple[SampledSignal, ...]
    filters: tuple[PeriodicFilterPair, ...]
    phi_hat: HatFunction
    psi_hat: tuple[HatFunction, ...]

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
    """Complete Haar-type family: exact scaling samples, spectral wavelets."""
    if grid is None:
        grid = default_time_grid(ts)
    bank = haar_filter_bank(ts, m, permissive=permissive)
    result = cascade(bank[0], grid=grid, oversample=oversample, depth=1)
    psi, psi_hat = zip(*(
        wavelet_from_filters(result.hat, pk, grid=grid, oversample=oversample)
        for pk in bank[1:]
    ))
    return WaveletFamily(ts=ts, m=m, phi=haar_scaling(ts, grid), psi=psi, filters=tuple(bank),
                         phi_hat=result.hat, psi_hat=psi_hat)


# ---------------------------------------------------------------------------
# Projections onto the dilated translation spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionResult:
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
    of ``ts`` in the window, e_{j,lambda} = ``dilate(phi, j, N, lambda)`` times
    ``chirp_phase(m, t, lambda)`` (``canonical.chirp_rate``): f is demodulated
    once and the sum over the unchirped translates modulated once.  A
    warning is attached when boundary coefficients are non-negligible (the
    window would truncate the projection).  A window that holds no
    translation is refused.
    """
    lambdas = omega_enumerate(ts, lambda_window)
    if not lambdas:
        raise ValueError(f"lambda window {tuple(lambda_window)} holds no translation")
    grid = f.grid
    chirp = chirp_phase(m, grid.points(), 0.0)
    weighted = np.conj(f.values) * chirp * grid.trapezoid_weights()
    phases = chirp_phase(m, 0.0, np.asarray(lambdas, dtype=float))
    acc = np.zeros(grid.count, dtype=np.complex128)
    coeffs: dict[float, complex] = {}
    for lam, phase in zip(lambdas, phases):
        e = dilate(phi, j, ts.N, lam, grid=grid).values
        c = np.conj(np.sum(weighted * e))
        coeffs[lam] = complex(np.conj(phase) * c)
        acc += c * e
    acc *= chirp
    warnings = []
    boundary = max(abs(coeffs[lambdas[0]]), abs(coeffs[lambdas[-1]]))
    if boundary > 1e-6 * max(1.0, norm(f)):
        warnings.append(
            "translation window may be too small: boundary coefficients are non-negligible"
        )
    return ProjectionResult(SampledSignal(grid, acc), coeffs, tuple(warnings))


# ---------------------------------------------------------------------------
# Closed-form reference signals used for cross-checking
# ---------------------------------------------------------------------------


def piecewise_constant(pieces, grid: Grid) -> SampledSignal:
    """Signal equal to val on each [lo, hi) piece (right-limit at jumps)."""
    t = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    for lo, hi, val in pieces:
        mask = (t >= lo - 1e-9 * grid.step) & (t < hi - 1e-9 * grid.step)
        vals[mask] = val
    return SampledSignal(grid, vals)


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
