"""Wavelet packets: base-2N indexing, frequency-domain generation, transforms.

Packet n is addressed by the base-2N expansion of n; its hat is the
product of the digit filters at successively finer dilations, continued
with the low-pass cascade tail:

    hat(W_n)(u) = L_{d_0}(u/2N) ... L_{d_{q-1}}(u/(2N)^q) T_q(u),
    T_q(u) = prod_{j=q+1..q+J} L_0(u/(2N)^j) = hat(phi)(u/(2N)^q)

for digits d_0..d_{q-1} (the packet recursion of Coifman & Wickerhauser,
IEEE Trans. IT 38(2), 1992).  All packets of one cascade share its
``wavelets.HatEngine``, and a node keeps its lattice values
and its periodic samples (``HatFunction.periodic``), so bases and fold
sums over it evaluate no filter again.  Each hat is synthesised once:
packet 0 is the cascade's own kept hat, so its signal is a cut of the
samples the cascade synthesised, and a basis cuts its level-0 atoms from
the node's kept periodic samples; only a dilated (level >= 1) hat costs
one more inverse FFT.  A basis keeps its atoms
unchirped: the time chirp, computed once per basis, cancels in the Gram,
and analysis and synthesis apply it once per signal, each one product
with the atoms; bases must be Gram-certified before use.
``translate_gram`` certifies a packet set by
``sampling.chirped_translate_gram``: its Gram comes from the cell lags of
the unchirped packets, with the chirp as a diagonal phase, and no
(atoms x count) stack of translates is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .canonical import CanonicalMatrix
from .filters import PeriodicFilterPair, TranslationSet, omega_enumerate, shift_sums
from .sampling import (
    Grid,
    SampledSignal,
    chirp_phase,
    chirped_translate_gram,
    identity_deviation,
    weighted_gram,
)
from .wavelets import (
    SPAN,
    CascadeResult,
    HatFunction,
    cascade,
    grid_samples,
    hat_to_signal,
    periodic_samples,
    served_engine,
)


class UncertifiedBasisError(RuntimeError):
    """Raised when a packet basis is used before passing certification."""


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


def digits(n: int, N: int) -> PacketIndex:
    """Base-2N expansion of n; empty for n = 0, reconstruction is exact."""
    if n < 0:
        raise ValueError("packet index must be nonnegative")
    base = 2 * N
    out = []
    rest = int(n)
    while rest > 0:
        rest, d = divmod(rest, base)
        out.append(d)
    return PacketIndex(n=int(n), digits=tuple(out))


def reconstruct(idx: PacketIndex, N: int) -> int:
    """Inverse of ``digits``: sum of digits[i] * (2N)^i."""
    return sum(d * (2 * N) ** i for i, d in enumerate(idx.digits))


@dataclass(frozen=True)
class PacketNode:
    """One packet: its index, frequency-domain hat, and time samples."""

    index: PacketIndex
    hat: HatFunction
    signal: SampledSignal


def packet_hat(
    idx: PacketIndex,
    bank: list[PeriodicFilterPair],
    *,
    scaling: CascadeResult,
    grid: Grid | None = None,
    oversample: int = 16,
) -> PacketNode:
    """Packet hat from the digit filters continued with the low-pass tail.

    ``bank`` holds the 2N filters with index 0 the low-pass.  The tail
    comes from ``scaling``, the cascade of the low-pass filter, so the
    index recursion

        hat(W_{2Nn + k})(u) = L_k(u/2N) hat(W_n)(u/2N)

    holds exactly along the code path.  The node keeps its values and
    periodic samples on the cascade's lattice; a grid (default: the
    cascade's) that lattice does not serve is refused.  Index 0 is the
    cascade's own hat, whose periodic samples the cascade already holds.
    """
    ts = bank[0].ts
    if len(bank) != 2 * ts.N:
        raise ValueError("bank must hold 2N filters")
    if any(d < 0 or d >= 2 * ts.N for d in idx.digits):
        raise ValueError("digit out of range for this bank")
    if grid is None:
        grid = scaling.signal.grid
    hat = _node_hat(scaling, bank, idx)
    scaling.engine.lattice([hat], keep=True)
    return PacketNode(index=idx, hat=hat, signal=hat_to_signal(hat, grid, oversample=oversample))


def _node_hat(scaling: CascadeResult, bank, idx: PacketIndex) -> HatFunction:
    if not idx.digits:
        return scaling.hat
    return HatFunction(scaling.engine, tuple(bank[d] for d in idx.digits))


def generate_packets(
    n_max: int,
    bank: list[PeriodicFilterPair],
    *,
    grid: Grid | None = None,
    oversample: int = 16,
) -> list[PacketNode]:
    """Packets 0..n_max sharing one cascade, one lattice pass and one time grid."""
    ts = bank[0].ts
    indices = [digits(n, ts.N) for n in range(n_max + 1)]
    scaling = cascade(bank[0], grid=grid, oversample=oversample, depth=len(indices[-1].digits))
    hats = [_node_hat(scaling, bank, idx) for idx in indices]
    scaling.engine.lattice(hats, keep=True)
    grid = scaling.signal.grid
    return [
        PacketNode(idx, hat, hat_to_signal(hat, grid, oversample=oversample))
        for idx, hat in zip(indices, hats)
    ]


def translate_gram(
    system: list[SampledSignal],
    ts: TranslationSet,
    m: CanonicalMatrix,
    lambda_window: tuple[float, float],
) -> tuple[np.ndarray, float]:
    """Gram of all chirped translates of the given signals; max |G - I|.

    A window that holds no translation is refused: it certifies nothing.
    """
    lambdas = omega_enumerate(ts, lambda_window)
    if not lambdas:
        raise ValueError(f"lambda window {tuple(lambda_window)} holds no translation")
    g = chirped_translate_gram(system, lambdas, m)
    return g, identity_deviation(g)


def packet_gram(
    nodes: list[PacketNode],
    ts: TranslationSet,
    m: CanonicalMatrix,
    lambda_window: tuple[float, float],
) -> tuple[np.ndarray, float]:
    """Gram of all chirped translates of the given packets; max |G - I|."""
    return translate_gram([node.signal for node in nodes], ts, m, lambda_window)


@dataclass
class BasisElement:
    """One transform atom: packet node, dilation level, translation."""

    node: PacketNode
    level: int
    lam: float


@dataclass
class PacketBasis:
    """A finite packet system with a certification gate.

    The atom at (n, level j, lam) inverse-transforms (2N)^{-j/2}
    hat(W_n)(u/(2N)^j), shifted by lam/(2N)^j, from one shared frequency
    lattice at oversample 1 (the nodes' cascade is built with it), so spans
    at different levels nest exactly and Nyquist-rate quadrature of atom
    products is alias-free.  A level-0 atom is cut from
    its node's kept periodic samples; each dilated (node, level) takes one
    synthesis, from the rows and tails the nodes' engine holds.  The cuts
    fill one read-only (atoms x count) array.  These atoms are
    unchirped: a chirped atom (``signals``) is one times ``chirp_phase(m, t, lam)``
    (``canonical.chirp_rate``), so the chirped Gram is D G_0 D^H with D diagonal
    and unimodular, and max |G - I| = max |G_0 - I|.  ``certify`` stores
    that deviation, whatever the matrix; analysis and synthesis refuse to
    run unless it is within their tolerance.
    """

    ts: TranslationSet
    m: CanonicalMatrix
    elements: list[BasisElement]
    residual: float | None = field(default=None)

    @property
    def _grid(self) -> Grid:
        return self.elements[0].node.signal.grid

    @cached_property
    def _unchirped(self) -> np.ndarray:
        grid = self._grid
        if any(e.node.signal.grid != grid for e in self.elements):
            raise ValueError("all basis nodes must share one grid")
        two_n = float(self.ts.dilation)
        delays = Grid(0.0, grid.step, 1)  # at oversample 1, shifts are whole grid steps
        groups: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(self.elements):
            groups.setdefault((id(e.node), e.level), []).append(i)
        hats = [self.elements[rows[0]].node.hat.dilated(level)
                for (_, level), rows in groups.items()]
        engine = served_engine(hats, grid, oversample=1)
        dilated = [h for (_, level), h in zip(groups, hats) if level]
        values = dict(zip(map(id, dilated), engine.lattice(dilated)))
        atoms = None
        for ((_, level), rows), hat in zip(groups.items(), hats):
            if level:
                fine = periodic_samples(two_n ** (-level / 2.0) * values.pop(id(hat)))
            else:
                fine = hat.periodic()
            if atoms is None:  # after the first synthesis, whose temporaries are gone
                atoms = np.empty((len(self.elements), grid.count), dtype=np.complex128)
            shifts = [delays.index_of(self.elements[i].lam / two_n**level) for i in rows]
            grid_samples(fine, grid, oversample=1, shifts=shifts, out=[atoms[i] for i in rows])
        atoms.flags.writeable = False
        return atoms

    @cached_property
    def _time_chirp(self) -> np.ndarray:
        """chirp_phase(m, t, 0) on the basis grid, shared by signals, analysis and synthesis."""
        return chirp_phase(self.m, self._grid.points(), 0.0)

    def _phases(self) -> np.ndarray:
        return chirp_phase(self.m, 0.0, np.array([e.lam for e in self.elements]))

    def signals(self) -> list[SampledSignal]:
        """The chirped atoms."""
        return [SampledSignal(self._grid, row * self._time_chirp * phase)
                for row, phase in zip(self._unchirped, self._phases())]

    def certify(self) -> float:
        self.residual = identity_deviation(weighted_gram(self._unchirped, self._grid))
        return self.residual

    def require_certified(self, tol: float) -> None:
        if self.residual is None:
            raise UncertifiedBasisError("basis has not been certified; call certify()")
        if self.residual > tol:
            raise UncertifiedBasisError(
                f"basis residual {self.residual:.3e} exceeds tolerance {tol:.3e}"
            )


@dataclass(frozen=True)
class CoefficientTable:
    """Rows (n, level, lambda) with the corresponding coefficients."""

    rows: tuple[tuple[int, int, float], ...]
    values: np.ndarray


def packet_analyze(
    f: SampledSignal,
    basis: PacketBasis,
    *,
    tol: float = 1e-3,
) -> CoefficientTable:
    """Coefficients <f, atom>: demodulated f against the unchirped atoms, then phases."""
    basis.require_certified(tol)
    grid = f.grid
    if basis._grid != grid:
        raise ValueError("basis atoms must live on the signal grid")
    weighted = np.conj(f.values)
    weighted *= basis._time_chirp
    weighted *= grid.trapezoid_weights()
    values = basis._phases().conj() * np.conj(basis._unchirped @ weighted)
    rows = tuple((e.node.index.n, e.level, e.lam) for e in basis.elements)
    return CoefficientTable(rows=rows, values=values)


def packet_synthesize(
    coeffs: CoefficientTable,
    basis: PacketBasis,
    *,
    tol: float = 1e-3,
) -> SampledSignal:
    """Sum of coefficient-weighted atoms, modulated once; inverse of analyze on the span."""
    basis.require_certified(tol)
    if len(coeffs.values) != len(basis.elements):
        raise ValueError("coefficient table does not match the basis")
    grid = basis._grid
    acc = (coeffs.values * basis._phases()) @ basis._unchirped
    acc *= basis._time_chirp
    return SampledSignal(grid, acc)


def fold_residuals(
    node: PacketNode,
    ts: TranslationSet,
    *,
    oversample: int = 16,
) -> tuple[float, float]:
    """Residuals of the two folded power sums of a packet hat.

    h(u) = sum_j |hat(W)(u + N j)|^2 folded over the whole stored lattice;
    the plain sum of h over the 2N half-integer shifts must be 2 and the
    twisted sum must vanish, mirroring the filter-bank conditions one
    level up.
    """
    grid = node.signal.grid
    du = 1.0 / SPAN
    vals = np.abs(served_engine([node.hat], grid, oversample=oversample).lattice([node.hat])[0]) ** 2
    period = round(ts.N / du)
    n_fold = vals.size // period
    trimmed = vals[: n_fold * period]
    h = trimmed.reshape(n_fold, period).sum(axis=0)
    plain, twisted = shift_sums(h, round(0.5 / du), ts)
    res_plain = float(np.max(np.abs(plain - 2.0)))
    res_twist = float(np.max(np.abs(twisted)))
    return res_plain, res_twist
