"""Scaling functions, wavelet synthesis, and subspace projections.

Frequency-domain work happens in the normalized variable u with the plain
2pi-convention transform hat(f)(u) = integral f(t) exp(-2 pi i t u) dt.
Scaling functions are built by the truncated infinite product of dilated
filter responses; wavelets by one extra filter factor; time-domain signals
by an inverse transform onto an exactly aligned fine grid followed by
integer subsampling.

Every scaling, wavelet and packet hat is a product of filter rows
L_d(u/(2N)^j) on one frequency lattice.  ``cascade`` creates a
``HatEngine`` there that evaluates each row at most once and retains only
the cascade tails in use and a few shallow low-pass rows, never one array
per row.  A ``HatFunction`` takes its lattice values from the engine and
evaluates the same product at any other u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalMatrix, require_valid
from .filters import (
    FilterConditionError,
    PeriodicFilterPair,
    TranslationSet,
    check_scaling_conditions,
    filter_eval,
    filter_pair_from_components,
    omega_enumerate,
)
from .sampling import (
    DEFAULT_LEVEL_BUDGET,
    Grid,
    SampledSignal,
    dilate_chirp,
    gram_matrix,
    identity_deviation,
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


#: Lattice points per block of a row pass; bounds the temporaries of one
#: filter evaluation whatever the lattice size.
_BLOCK = 1 << 15


def frequency_samples(grid: Grid, *, span: float = 16.0, oversample: int = 16) -> np.ndarray:
    """The u lattice used to inverse-transform onto ``grid`` (centered, step 1/span)."""
    n_f = oversample * span / grid.step
    n = round(n_f)
    if abs(n_f - n) > 1e-9:
        raise ValueError("span/step must give an integral transform size")
    du = 1.0 / span
    return (np.arange(n) - n // 2) * du


class HatEngine:
    """Products of dilated filter rows L_d(u/(2N)^j) on one frequency lattice.

    Bound to a low-pass filter and a lattice ``u``.  A node with digit
    filters L_{d_0}..L_{d_{q-1}} at level l has the hat

        prod_i L_{d_i}(u/(2N)^{l+i+1}) * T_{l+q}(u),
        T_s(u) = prod_{j=s+1..s+J} L_0(u/(2N)^j),

    the cascade tail at depth s.  One pass over the low-pass rows builds
    the tails of all requested depths: each row is evaluated once, in
    blocks of the lattice, folded into every tail that contains it and
    dropped.  The engine keeps the tails and the shallow low-pass rows
    j <= depth of ``on_grid``, which digit 0 of a node reuses; digit rows
    of node hats are evaluated once per ``lattice`` call and folded into
    every hat that uses them.  A tail deeper than the first pass costs a
    second pass.
    """

    def __init__(self, lowpass: PeriodicFilterPair, u, *, J: int, span: float | None = None):
        self.lowpass = lowpass
        self.u = np.asarray(u, dtype=float)
        self.J = J
        self.span = span
        self._tails: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        #: Max |T_0 - prod_{j<J} L_0(u/(2N)^j)| over the lattice, once T_0 is built.
        self.tail_deviation: float | None = None

    @classmethod
    def on_grid(cls, lowpass, grid: Grid, *, span: float = 16.0, oversample: int = 16,
                J: int = 20, depth: int = 0) -> "HatEngine":
        """Engine on ``frequency_samples(grid, span, oversample)`` with tails 0..depth built."""
        engine = cls(lowpass, frequency_samples(grid, span=span, oversample=oversample),
                     J=J, span=span)
        engine._build_tails(range(depth + 1), keep_rows=True)
        return engine

    def serves(self, grid: Grid, *, span: float, oversample: int) -> bool:
        """True when this engine's lattice is the one used to synthesise onto ``grid``."""
        return self.span == span and self.u.size == round(oversample * span / grid.step)

    def _blocks(self):
        return ((a, a + _BLOCK) for a in range(0, self.u.size, _BLOCK))

    def _row(self, pair: PeriodicFilterPair, j: int, a: int, b: int) -> np.ndarray:
        return filter_eval(pair, self.u[a:b] / float(self.lowpass.ts.dilation) ** j)

    def _build_tails(self, depths, *, keep_rows: bool = False) -> None:
        new = sorted(set(depths) - set(self._tails))
        if not new:
            return
        J = self.J
        tails = {s: np.ones(self.u.size, dtype=np.complex128) for s in new}
        rows = {j: np.empty(self.u.size, dtype=np.complex128)
                for j in range(new[0] + 1, new[-1] + 1) if keep_rows and j not in self._rows}
        deviation = 0.0
        for a, b in self._blocks():
            for j in range(new[0] + 1, new[-1] + J + 1):
                users = [s for s in new if s < j <= s + J]
                if not users and j not in rows:
                    continue
                row = self._row(self.lowpass, j, a, b)
                for s in users:
                    t = tails[s][a:b]
                    if s == 0 and j == J:
                        full = t * row
                        deviation = max(deviation, float(np.max(np.abs(full - t))))
                        t[...] = full
                    else:
                        t *= row
                if j in rows:
                    rows[j][a:b] = row
        for arr in (*tails.values(), *rows.values()):
            arr.flags.writeable = False
        self._tails.update(tails)
        self._rows.update(rows)
        if new[0] == 0:
            self.tail_deviation = deviation

    def lattice(self, hats, *, keep: bool = False) -> list[np.ndarray]:
        """Lattice values of hats bound to this engine (read-only when shared).

        Each digit row is evaluated once and folded into every hat that
        uses it.  ``keep`` stores the values on the hats, so later
        consumers (bases, fold sums) reuse them for as long as the hats live.
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
        for a, b in self._blocks():
            for pair, j, targets in rows.values():
                if pair is self.lowpass and j in self._rows:
                    row = self._rows[j][a:b]
                else:
                    row = self._row(pair, j, a, b)
                for t in targets:
                    t[a:b] *= row
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
    ``engine``; calling the hat evaluates the same product at any u.
    """

    engine: HatEngine
    filters: tuple[PeriodicFilterPair, ...] = ()
    level: int = 0
    _values: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def depth(self) -> int:
        return self.level + len(self.filters)

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        e = self.engine
        at_u = HatEngine(e.lowpass, u.ravel(), J=e.J)
        return at_u.lattice([HatFunction(at_u, self.filters, self.level)])[0].reshape(u.shape)

    def child(self, pair: PeriodicFilterPair) -> "HatFunction":
        """hat(u) of the child packet: L(u/2N) times this hat at u/2N."""
        return HatFunction(self.engine, (pair,) + self.filters, self.level)

    def dilated(self, j: int) -> "HatFunction":
        """This hat at u/(2N)^j."""
        return self if j == 0 else HatFunction(self.engine, self.filters, self.level + j)


def lattice_values(hats, grid: Grid, *, span: float = 16.0, oversample: int = 16) -> list:
    """Values of each hat on ``frequency_samples(grid, span, oversample)``.

    Hats of one engine bound to that lattice share its rows and tails;
    otherwise each hat is evaluated by its product formula.
    """
    engine = hats[0].engine
    if all(h.engine is engine for h in hats) and engine.serves(
        grid, span=span, oversample=oversample
    ):
        return engine.lattice(hats)
    u = frequency_samples(grid, span=span, oversample=oversample)
    return [h(u) for h in hats]


def default_time_grid(ts: TranslationSet, window=(-1.0, 3.0), target_step=2.0**-10) -> Grid:
    """Translation-compatible grid with step close to ``target_step``."""
    refinement = max(1, round(1.0 / (2 * ts.N * target_step)))
    return numra_grid(ts, window, refinement=refinement)


def lattice_to_grid(values, grid: Grid, *, span: float = 16.0, oversample: int = 16,
                    shifts=(0,)) -> list[np.ndarray]:
    """Grid samples of the inverse transform of lattice hat values.

    The inverse 2pi-convention transform lands on the fine time step
    step/oversample and is periodic with period ``span``, so the grid
    window must sit inside [-span/2, span/2) and its origin on the fine
    lattice (which holds whenever span/step is integral).  One sample
    array is returned per delay in ``shifts``, counted in fine steps.
    """
    n = values.size
    fine = np.fft.ifft(np.fft.ifftshift(values)) * (n / span)
    dt_fine = grid.step / oversample
    if grid.t_min < -span / 2 or grid.t_max > span / 2:
        raise ValueError("grid window exceeds the transform period")
    idx0 = grid.t_min / dt_fine
    if abs(idx0 - round(idx0)) > 1e-6:
        raise ValueError("grid origin does not align with the transform lattice")
    idx = round(idx0) + oversample * np.arange(grid.count)
    return [fine[(idx - s) % n] for s in shifts]


def hat_to_signal(
    hat: HatFunction,
    grid: Grid,
    *,
    span: float = 16.0,
    oversample: int = 16,
) -> SampledSignal:
    """Inverse 2pi-convention transform of ``hat`` sampled onto ``grid``.

    The frequency cutoff is oversample/(2*step); see ``lattice_to_grid`` for
    the period and the grid alignment it requires.
    """
    values = lattice_values([hat], grid, span=span, oversample=oversample)[0]
    samples = lattice_to_grid(values, grid, span=span, oversample=oversample)[0]
    return SampledSignal(grid, samples)


@dataclass(frozen=True)
class CascadeResult:
    """Scaling function returned by the cascade: time samples plus its hat."""

    signal: SampledSignal
    hat: HatFunction
    tail_deviation: float
    factors: int

    @property
    def engine(self) -> HatEngine:
        """The lattice engine shared by every hat built on this cascade."""
        return self.hat.engine


def cascade(
    p0: PeriodicFilterPair,
    J: int = 20,
    tol: float = 1e-5,
    *,
    grid: Grid | None = None,
    span: float = 16.0,
    oversample: int = 16,
    pre_tol: float = 1e-8,
    depth: int = 2,
) -> CascadeResult:
    """Scaling function from the truncated product of dilated filter responses.

    hat(phi)(u) = prod_{j=1..J} L(u / (2N)^j).  Requires L(0) = 1 within
    1e-10 and the scaling conditions within ``pre_tol``.  The tail is
    checked on the inverse-transform lattice: the uniform difference
    between the J-term and (J-1)-term products must be at most ``tol``,
    otherwise a ConvergenceError carries the deviation.  The lattice
    engine also builds the tails of depths 1..``depth`` in the same pass
    (packets with up to ``depth`` digits, and coarser bases, need them).
    """
    lam0 = filter_eval(p0, 0.0)
    if abs(lam0 - 1.0) > 1e-10:
        raise FilterConditionError(f"filter response at 0 is {lam0:.17g}, expected 1")
    res_a, res_b = check_scaling_conditions(p0)
    if max(res_a, res_b) > pre_tol:
        raise FilterConditionError(
            f"scaling conditions fail (residuals {res_a:.3e}, {res_b:.3e})"
        )
    if grid is None:
        grid = default_time_grid(p0.ts)
    engine = HatEngine.on_grid(p0, grid, span=span, oversample=oversample, J=J, depth=depth)
    deviation = engine.tail_deviation
    if deviation > tol:
        raise ConvergenceError(
            f"cascade tail deviation {deviation:.3e} exceeds tol {tol:.3e} at J={J}",
            deviation,
        )
    hat = HatFunction(engine)
    signal = hat_to_signal(hat, grid, span=span, oversample=oversample)
    return CascadeResult(signal=signal, hat=hat, tail_deviation=deviation, factors=J)


def wavelet_from_filters(
    phi_hat: HatFunction,
    pk: PeriodicFilterPair,
    *,
    grid: Grid | None = None,
    span: float = 16.0,
    oversample: int = 16,
) -> tuple[SampledSignal, HatFunction]:
    """Wavelet hat(psi)(u) = L_k(u/2N) hat(phi)(u/2N), inverse-transformed."""
    if grid is None:
        grid = default_time_grid(pk.ts)
    hat = phi_hat.child(pk)
    return hat_to_signal(hat, grid, span=span, oversample=oversample), hat


def two_scale_residual(phi_hat: HatFunction, p0: PeriodicFilterPair, u_points) -> float:
    """Max |hat(phi)(u) - L(u/2N) hat(phi)(u/2N)| over the given u samples."""
    u = np.asarray(u_points, dtype=float)
    two_n = p0.ts.dilation
    lhs = phi_hat(u)
    rhs = filter_eval(p0, u / two_n) * phi_hat(u / two_n)
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
    """Unimodular phases exp(i pi a (4k)^2 / b) attached to the 4k translates."""
    require_valid(m, allow_nonunimodular=permissive)
    k = np.arange(ts.N)
    return np.exp(1j * np.pi * m.a * (4.0 * k) ** 2 / m.b)


def haar_filters(
    ts: TranslationSet,
    m: CanonicalMatrix,
    count: int | None = None,
    *,
    permissive: bool = False,
) -> PeriodicFilterPair:
    """Low-pass pair of the Haar-type family: filter 0 of ``haar_filter_bank``.

    Both components equal (1/2N) sum_k c_k exp(-8 pi i u k) with the
    unimodular lattice phases c_k; sampled exactly from the closed form.
    """
    return haar_filter_bank(ts, m, count, permissive=permissive)[0]


def haar_filter_bank(
    ts: TranslationSet,
    m: CanonicalMatrix,
    count: int | None = None,
    *,
    permissive: bool = False,
) -> list[PeriodicFilterPair]:
    """Closed-form orthonormal bank of 2N filters extending the Haar low-pass.

    Filter 2d + s has components A_d and (-1)^s A_d, where A_d is the
    low-pass component with its lattice terms twisted by the N-th roots of
    unity: A_d(u) = (1/2N) sum_k c_k exp(-2 pi i d k / N) exp(-8 pi i u k).
    The plain bank sum telescopes to delta_{dd'} delta_{ss'} and the
    twisted sum vanishes because its root-of-unity order 2(k - k') + r is
    odd; both hold identically in u, so the bank is smooth and
    self-certifying.  Index 0 (d = s = 0) is the low-pass filter.
    """
    coeffs = _haar_lattice_coeffs(ts, m, permissive)
    two_n = 2 * ts.N
    bank = []
    for d in range(ts.N):
        twisted = coeffs * np.exp(-2j * np.pi * d * np.arange(ts.N) / ts.N)

        def make_eval(tw, sign):
            def eval_fn(u: np.ndarray):
                u = np.asarray(u, dtype=float)
                acc = np.zeros(u.shape, dtype=np.complex128)
                for k, ck in enumerate(tw):
                    acc += ck * np.exp(-8j * np.pi * u * k)
                acc /= two_n
                return acc, sign * acc

            return eval_fn

        for s in (0, 1):
            bank.append(filter_pair_from_components(ts, make_eval(twisted, 1.0 - 2.0 * s), count))
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
    J: int = 20,
    tol: float = 1e-5,
    span: float = 16.0,
    oversample: int = 16,
    permissive: bool = False,
) -> WaveletFamily:
    """Complete Haar-type family: exact scaling samples, spectral wavelets."""
    if grid is None:
        grid = default_time_grid(ts)
    bank = haar_filter_bank(ts, m, permissive=permissive)
    result = cascade(bank[0], J=J, tol=tol, grid=grid, span=span, oversample=oversample, depth=1)
    phi = haar_scaling(ts, grid)
    psi = []
    psi_hat = []
    for pk in bank[1:]:
        sig, hat = wavelet_from_filters(result.hat, pk, grid=grid, span=span, oversample=oversample)
        psi.append(sig)
        psi_hat.append(hat)
    return WaveletFamily(
        ts=ts,
        m=m,
        phi=phi,
        psi=tuple(psi),
        filters=tuple(bank),
        phi_hat=result.hat,
        psi_hat=tuple(psi_hat),
    )


def gram(system: list[SampledSignal]) -> tuple[np.ndarray, float]:
    """Gram matrix of a signal system and its max deviation from identity."""
    g = gram_matrix(system)
    return g, identity_deviation(g)


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
    fam: WaveletFamily,
    j: int,
    lambda_window: tuple[float, float],
    *,
    max_level: int = DEFAULT_LEVEL_BUDGET,
) -> ProjectionResult:
    """Orthogonal projection of f onto the level-j span of scaling translates.

    P_j f = sum_lambda <f, e_{j,lambda}> e_{j,lambda} over the enumerated
    translations.  A warning is attached when boundary coefficients are
    non-negligible (the window would truncate the projection).
    """
    lambdas = omega_enumerate(fam.ts, lambda_window)
    grid = f.grid
    weighted = np.conj(f.values) * grid.trapezoid_weights()
    acc = np.zeros(grid.count, dtype=np.complex128)
    coeffs: dict[float, complex] = {}
    for lam in lambdas:
        e = dilate_chirp(fam.phi, j, fam.ts.N, lam, fam.m, max_level=max_level, grid=grid)
        c = np.conj(np.sum(weighted * e.values))
        coeffs[lam] = complex(c)
        acc += c * e.values
    warnings = []
    if lambdas:
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


def classical_haar_wavelet(grid: Grid) -> SampledSignal:
    """The step wavelet +1 on [0, 1/2), -1 on [1/2, 1)."""
    return piecewise_constant([(0.0, 0.5, 1.0), (0.5, 1.0, -1.0)], grid)


def chirped_reference_wavelet(grid: Grid) -> SampledSignal:
    """Piecewise chirp reference for the matrix (2, 1, 1, 1) family.

    exp(-8 i pi t^2) on [0, 1/2) and -exp(-2 i pi (2t - 1)^2) on [1/2, 1).
    A closed form quoted for cross-checking only; the library never
    assumes it is consistent with its own constructions.
    """
    t = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    first = (t >= -1e-12) & (t < 0.5 - 1e-12)
    second = (t >= 0.5 - 1e-12) & (t < 1.0 - 1e-12)
    vals[first] = np.exp(-8j * np.pi * t[first] ** 2)
    vals[second] = -np.exp(-2j * np.pi * (2.0 * t[second] - 1.0) ** 2)
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


def l2_distance_off_jumps(
    a: SampledSignal, b: SampledSignal, jumps, pad: int = 1
) -> float:
    """L2 distance with grid cells within ``pad`` steps of a jump excluded.

    Sampled comparisons against discontinuous references are dominated by
    the sample sitting exactly on each jump (the band-limited
    reconstruction takes the midpoint value there, the reference its
    right limit); excluding those measure-zero cells estimates the true
    L2 distance of the underlying functions.
    """
    if a.grid != b.grid:
        raise ValueError("signals must share a grid")
    t = a.grid.points()
    keep = np.ones(a.grid.count, dtype=bool)
    for x in jumps:
        keep &= np.abs(t - x) > (pad + 0.5) * a.grid.step
    diff = np.abs(a.values - b.values) ** 2
    return float(np.sqrt(np.sum(diff[keep]) * a.grid.step))
