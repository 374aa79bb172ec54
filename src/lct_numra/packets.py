"""Wavelet packets: base-2N indexing, frequency-domain generation, transforms.

Packet n is addressed by the base-2N expansion of n; its hat is the
product of the digit filters at successively finer dilations, continued
with the low-pass cascade tail:

    hat(W_n)(u) = L_{d_0}(u/2N) ... L_{d_{q-1}}(u/(2N)^q) T_q(u),
    T_q(u) = prod_{j=q+1..q+J} L_0(u/(2N)^j) = hat(phi)(u/(2N)^q)

for digits d_0..d_{q-1} (the packet recursion of Coifman & Wickerhauser,
IEEE Trans. IT 38(2), 1992).  All packets of one cascade share its
``wavelets.HatEngine``, and a synthesised node keeps its lattice values,
so bases and fold sums over it evaluate no filter again.  Analysis and
synthesis are quadrature against chirped dilated translates; bases must
be Gram-certified before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalMatrix
from .filters import PeriodicFilterPair, TranslationSet, omega_enumerate, shift_sums
from .sampling import (
    Grid,
    SampledSignal,
    chirp_phase,
    chirped_translates,
    gram_matrix,
    identity_deviation,
)
from .wavelets import (
    CascadeResult,
    HatFunction,
    cascade,
    gram,
    hat_to_signal,
    lattice_to_grid,
    lattice_values,
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
    base = 2 * N
    total = 0
    for d in reversed(idx.digits):
        total = total * base + d
    return total


@dataclass(frozen=True)
class PacketNode:
    """One packet: its index, frequency-domain hat, and time samples.

    ``signal`` is None when the node was generated hat-only.
    """

    index: PacketIndex
    hat: HatFunction
    signal: SampledSignal | None


def packet_hat(
    idx: PacketIndex,
    bank: list[PeriodicFilterPair],
    *,
    scaling: CascadeResult | None = None,
    grid: Grid | None = None,
    J: int = 20,
    tol: float = 1e-5,
    span: float = 16.0,
    oversample: int = 16,
    synthesize: bool = True,
) -> PacketNode:
    """Packet hat from the digit filters continued with the low-pass tail.

    ``bank`` holds the 2N filters with index 0 the low-pass.  The tail
    uses the cascade of the low-pass filter (supplied via ``scaling`` or
    computed here with J factors under the usual tail check), so the
    index recursion

        hat(W_{2Nn + k})(u) = L_k(u/2N) hat(W_n)(u/2N)

    holds exactly along the code path.  A synthesised node keeps its
    values on the cascade's lattice.
    """
    ts = bank[0].ts
    if len(bank) != 2 * ts.N:
        raise ValueError("bank must hold 2N filters")
    if any(d < 0 or d >= 2 * ts.N for d in idx.digits):
        raise ValueError("digit out of range for this bank")
    if scaling is None:
        scaling = cascade(bank[0], J=J, tol=tol, grid=grid, span=span, oversample=oversample,
                          depth=len(idx.digits))
    if grid is None:
        grid = scaling.signal.grid
    hat = HatFunction(scaling.engine, tuple(bank[d] for d in idx.digits))
    signal = None
    if synthesize:
        if scaling.engine.serves(grid, span=span, oversample=oversample):
            scaling.engine.lattice([hat], keep=True)
        signal = hat_to_signal(hat, grid, span=span, oversample=oversample)
    return PacketNode(index=idx, hat=hat, signal=signal)


def generate_packets(
    n_max: int,
    bank: list[PeriodicFilterPair],
    *,
    grid: Grid | None = None,
    J: int = 20,
    tol: float = 1e-5,
    span: float = 16.0,
    oversample: int = 16,
) -> list[PacketNode]:
    """Packets 0..n_max sharing one cascade, one lattice pass and one time grid."""
    ts = bank[0].ts
    indices = [digits(n, ts.N) for n in range(n_max + 1)]
    scaling = cascade(bank[0], J=J, tol=tol, grid=grid, span=span, oversample=oversample,
                      depth=len(indices[-1].digits))
    hats = [HatFunction(scaling.engine, tuple(bank[d] for d in idx.digits)) for idx in indices]
    scaling.engine.lattice(hats, keep=True)
    grid = scaling.signal.grid
    return [
        PacketNode(idx, hat, hat_to_signal(hat, grid, span=span, oversample=oversample))
        for idx, hat in zip(indices, hats)
    ]


def translate_gram(
    system: list[SampledSignal],
    ts: TranslationSet,
    m: CanonicalMatrix,
    lambda_window: tuple[float, float],
) -> tuple[np.ndarray, float]:
    """Gram of all chirped translates of the given signals; max |G - I|."""
    if not system:
        return gram([])
    rows = chirped_translates(system, omega_enumerate(ts, lambda_window), m)
    g = gram_matrix(rows, system[0].grid)
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

    ``certify`` computes the full Gram of the dilated chirped translates
    and stores the max deviation from identity; analysis and synthesis
    refuse to run unless that deviation is at or below their tolerance.

    Atoms are realized from the packet hats on one shared frequency
    lattice: the atom at (n, level j, lam) inverse-transforms
    (2N)^{-j/2} hat(W_n)(u/(2N)^j) shifted by lam/(2N)^j, then carries
    the time-domain chirp.  Sharing the lattice keeps all atoms limited
    to one common band, so spans at different levels nest exactly and
    Nyquist-rate quadrature of their products is alias-free.  A level-j
    hat is digit rows times the tail T_{j+q} the nodes' engine holds (at
    level 0, the node's kept values); one synthesis per (node, level)
    serves every translate.
    """

    ts: TranslationSet
    m: CanonicalMatrix
    elements: list[BasisElement]
    span: float = 16.0
    oversample: int = 1
    residual: float | None = field(default=None)
    _signals: list[SampledSignal] | None = field(default=None, repr=False, compare=False)

    def signals(self) -> list[SampledSignal]:
        if self._signals is not None:
            return self._signals
        grid = self.elements[0].node.signal.grid
        if any(e.node.signal.grid != grid for e in self.elements):
            raise ValueError("all basis nodes must share one grid")
        two_n = float(self.ts.dilation)
        groups: dict[tuple[int, int], list[BasisElement]] = {}
        for e in self.elements:
            groups.setdefault((id(e.node), e.level), []).append(e)
        hats = [g[0].node.hat.dilated(g[0].level) for g in groups.values()]
        values = lattice_values(hats, grid, span=self.span, oversample=self.oversample)
        t = grid.points()
        atoms = {}
        for group, vals in zip(groups.values(), values):
            shifts = []
            for e in group:
                shift = e.lam / two_n**e.level / (grid.step / self.oversample)
                if abs(shift - round(shift)) > 1e-9:
                    raise ValueError(
                        f"translation {e.lam} at level {e.level} is off the atom lattice"
                    )
                shifts.append(round(shift))
            mother = two_n ** (-group[0].level / 2.0) * vals
            samples = lattice_to_grid(mother, grid, span=self.span,
                                      oversample=self.oversample, shifts=shifts)
            for e, vals_e in zip(group, samples):
                atoms[id(e)] = SampledSignal(grid, vals_e * chirp_phase(self.m, t, e.lam))
        self._signals = [atoms[id(e)] for e in self.elements]
        return self._signals

    def certify(self) -> float:
        _, off = gram(self.signals())
        self.residual = off
        return off

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
    """Coefficients <f, atom> for every basis atom (quadrature)."""
    basis.require_certified(tol)
    grid = f.grid
    weighted = np.conj(f.values) * grid.trapezoid_weights()
    rows = []
    vals = []
    for e, sig in zip(basis.elements, basis.signals()):
        if sig.grid != grid:
            raise ValueError("basis atoms must live on the signal grid")
        rows.append((e.node.index.n, e.level, e.lam))
        vals.append(np.conj(np.sum(weighted * sig.values)))
    return CoefficientTable(rows=tuple(rows), values=np.asarray(vals, dtype=np.complex128))


def packet_synthesize(
    coeffs: CoefficientTable,
    basis: PacketBasis,
    *,
    tol: float = 1e-3,
) -> SampledSignal:
    """Sum of coefficient-weighted atoms; inverse of analyze on the span."""
    basis.require_certified(tol)
    if len(coeffs.values) != len(basis.elements):
        raise ValueError("coefficient table does not match the basis")
    signals = basis.signals()
    grid = signals[0].grid
    acc = np.zeros(grid.count, dtype=np.complex128)
    for c, sig in zip(coeffs.values, signals):
        acc += c * sig.values
    return SampledSignal(grid, acc)


def fold_residuals(
    node: PacketNode,
    ts: TranslationSet,
    *,
    span: float = 16.0,
    oversample: int = 16,
) -> tuple[float, float]:
    """Residuals of the two folded power sums of a packet hat.

    h(u) = sum_j |hat(W)(u + N j)|^2 folded over the whole stored lattice;
    the plain sum of h over the 2N half-integer shifts must be 2 and the
    twisted sum must vanish, mirroring the filter-bank conditions one
    level up.
    """
    grid = node.signal.grid
    du = 1.0 / span
    vals = np.abs(lattice_values([node.hat], grid, span=span, oversample=oversample)[0]) ** 2
    period = round(ts.N / du)
    n_fold = vals.size // period
    trimmed = vals[: n_fold * period]
    h = trimmed.reshape(n_fold, period).sum(axis=0)
    plain, twisted = shift_sums(h, round(0.5 / du), ts)
    res_plain = float(np.max(np.abs(plain - 2.0)))
    res_twist = float(np.max(np.abs(twisted)))
    return res_plain, res_twist
