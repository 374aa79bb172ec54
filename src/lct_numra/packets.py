"""Wavelet packets: base-2N indexing, frequency-domain generation, transforms.

Packet n is addressed by the base-2N expansion of n; its hat is the
product of the digit filters at successively finer dilations, continued
with the low-pass cascade tail:

    hat(W_n)(u) = L_{d_0}(u/2N) ... L_{d_{q-1}}(u/(2N)^q) T_q(u),
    T_q(u) = prod_{j=q+1..q+J} L_0(u/(2N)^j) = hat(phi)(u/(2N)^q)

for digits d_0..d_{q-1} (the packet recursion of Coifman & Wickerhauser,
IEEE Trans. IT 38(2), 1992); packets 1..2N-1 are the wavelets.  All
packets of one cascade share its ``wavelets.HatEngine``, which keeps one
tail per depth and each digit row once read; a node's hat keeps no lattice
array, so a packet set costs its tails and its syntheses, and bases and fold
sums form the values they read from the engine's tails and rows, evaluating
no filter again.  A packet is read through its node: its bank (the engine's
low-pass filter) owns the translation set, its lattice the oversample, and
its hat the level's (2N)^{-level/2}; a ``ts`` or ``oversample`` given beside
the nodes is checked against them.  Each hat, dilated or not, is
synthesised at most once, on the first read of ``HatFunction.periodic``: a
node (``wavelets.PacketNode``) makes its signal on first read, so one that
only the lattice sums read is never synthesised.  Packet 0 is the cascade's
own node, the scaling function; a basis cuts its atoms from one dilated hat
per (node, level), and makes no (atoms x count) array.  A basis keeps its
atoms unchirped, since the chirps cancel in the Gram; analysis and synthesis are ``sampling.chirped_coefficients`` and
``sampling.chirped_sum`` of those atoms, and bases must be Gram-certified
before use.
``packet_gram`` is the band-limited Gram over one synthesis period: no grid
enters it, its translates are circular with period ``SPAN``, and it comes
from one fold of the hats' values, formed a block at a time, which
``fold_residuals`` shares; the Gram on the signals' grid is
``sampling.chirped_translate_gram``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .canonical import CanonicalMatrix
from .filters import PeriodicFilterPair, TranslationSet, shift_sums, translations
from .sampling import (
    Grid,
    SampledSignal,
    _GRAM_BLOCK,
    _time_chirp,
    chirp_phase,
    chirped_coefficients,
    chirped_sum,
    identity_deviation,
    weighted_gram,
)
from .wavelets import (
    SPAN,
    HatFunction,
    PacketIndex,
    PacketNode,
    _form,
    _lattice_size,
    _roots,
    cascade,
    default_time_grid,
    grid_samples,
    served_engine,
)


class UncertifiedBasisError(RuntimeError):
    """Raised when a packet basis is used before passing certification."""


#: Largest certified residual of a basis that analysis and synthesis accept.
_CERTIFY_TOL = 1e-3


def digits(n: int, N: int) -> PacketIndex:
    """Base-2N expansion of n; empty for n = 0, reconstruction is exact."""
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


def packet_hat(
    idx: PacketIndex,
    bank: list[PeriodicFilterPair],
    *,
    scaling: PacketNode,
    grid: Grid | None = None,
    oversample: int | None = None,
) -> PacketNode:
    """Packet hat from the digit filters continued with the low-pass tail.

    ``bank`` holds the 2N filters with index 0 the low-pass.  The tail
    comes from ``scaling``, the cascade of that low-pass filter (a bank whose
    filter 0 has other samples is refused), so the index recursion

        hat(W_{2Nn + k})(u) = L_k(u/2N) hat(W_n)(u/2N)

    holds exactly along the code path.  The node's hat lives on the
    cascade's lattice, its values formed from the cascade's tails and rows
    when read, and keeps its periodic samples once they are first read; a
    grid (default: the cascade's) that lattice does not serve, at its own
    oversample or one given, is refused here.  Index 0 is the cascade's.
    """
    return _nodes([idx], bank, scaling, grid, oversample)[0]


def _nodes(indices, bank, scaling: PacketNode, grid: Grid | None, oversample) -> list[PacketNode]:
    """The nodes of ``indices`` on ``grid`` (default: the cascade's), whose values nothing
    evaluates until a read needs them; a bank of other than the 2N filters of the scaling's
    translation set, one whose filter 0 has other samples than the scaling's low-pass, or a
    digit it lacks, is refused."""
    low = scaling.engine.lowpass
    if any(pair.ts != low.ts for pair in bank):
        raise ValueError(f"bank filters are not all of the scaling's {low.ts}")
    if len(bank) != 2 * low.ts.N:
        raise ValueError("bank must hold 2N filters")
    if not (np.array_equal(bank[0].comp1, low.comp1) and np.array_equal(bank[0].comp2, low.comp2)):
        raise ValueError("bank filter 0 is not the scaling's low-pass")
    if any(d < 0 or d >= len(bank) for idx in indices for d in idx.digits):
        raise ValueError("digit out of range for this bank")
    grid = scaling.grid if grid is None else grid
    hats = [HatFunction(scaling.engine, tuple(bank[d] for d in idx.digits)) if idx.digits
            else scaling.hat for idx in indices]
    served_engine(hats, grid, oversample=oversample)
    return [PacketNode(hat, grid, index=idx) for idx, hat in zip(indices, hats)]


def generate_packets(
    n_max: int,
    bank: list[PeriodicFilterPair],
    *,
    grid: Grid | None = None,
    oversample: int = 16,
) -> list[PacketNode]:
    """Packets 0..n_max sharing one cascade, its tails and one time grid; n_max + 1
    orthonormal packets of SPAN translates each need as many dimensions of the lattice."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    size = _lattice_size(default_time_grid(bank[0].ts) if grid is None else grid, oversample)
    if (n_max + 1) * SPAN > size:
        raise ValueError(f"{n_max + 1} packets of {SPAN:g} translates exceed the {size} "
                         f"dimensions of their lattice")
    indices = [digits(n, bank[0].ts.N) for n in range(n_max + 1)]
    scaling = cascade(bank[0], grid=grid, oversample=oversample, depth=len(indices[-1].digits))
    return _nodes(indices, bank, scaling, None, None)


def _require_packets_of(nodes, ts: TranslationSet) -> None:
    """Refuse nodes whose bank, the owner of their translation set, is not of ``ts``."""
    if any(node.engine.lowpass.ts != ts for node in nodes):
        raise ValueError(f"nodes are not packets of {ts}")


def _lattice_fold(nodes: list[PacketNode], ts: TranslationSet) -> np.ndarray:
    """F[e, i, k] = sum of hat_i conj(hat_k) over u = e'/SPAN, e' = e mod SPAN*N, for packets
    of ``ts`` on one lattice that SPAN*N divides (a ValueError otherwise): one batched product
    per block of ``_GRAM_BLOCK`` values, each hat's share formed from its engine's tail and
    rows (``wavelets._form``) and transposed in turn, so no lattice array or hat stack is
    made."""
    _require_packets_of(nodes, ts)
    period = round(SPAN) * ts.N
    n = nodes[0].engine.n
    if n % period or any(node.engine.n != n for node in nodes):
        raise ValueError(f"the hats must share one lattice that {period} divides")
    factors = [node.engine.factors(node.hat) for node in nodes]
    step = max(1, _GRAM_BLOCK // (len(nodes) * period)) * period
    values = np.empty(step, dtype=np.complex128)
    fold = np.zeros((period, len(nodes), len(nodes)), dtype=np.complex128)
    for lo in range(0, n, step):
        share = values[:min(step, n - lo)]
        block = np.empty((period, len(nodes), share.size // period), dtype=np.complex128)
        for i, (tail, rows) in enumerate(factors):  # (rho, hat, row)
            block[:, i] = _form(tail, rows, share, lo).reshape(-1, period).T
        fold += block @ block.conj().transpose(0, 2, 1)
    return np.roll(fold, -(n // 2), axis=0)  # rows from rho = k mod period to e


def packet_gram(
    nodes: list[PacketNode],
    ts: TranslationSet,
    m: CanonicalMatrix,
    lambda_window: tuple[float, float],
) -> tuple[np.ndarray, float]:
    """Gram of all chirped translates of the packets over one synthesis period; max |G - I|.

    Band-limited, grid-free, translates circular with period ``SPAN``, node-major as
    ``chirped_translate_gram``'s.  Each lam - mu is a multiple of 1/N: with F the ``_lattice_fold``
    over SPAN*N residues e, G_0 = (1/SPAN) sum_e F[e] exp(-2 pi i e N (lam - mu)/(SPAN N)),
    each phase reduced exactly, and G = D G_0 D^H: one matrix product of the shift pairs'
    phases (x y, e) with the fold (e, i k), transposed to node-major order.  ``ts`` must be
    the nodes' own."""
    lambdas = translations(ts, lambda_window)
    period = round(SPAN) * ts.N
    shifts = np.round(np.asarray(lambdas) * ts.N).astype(np.int64)
    d = _roots(shifts, np.arange(period), period)
    d *= chirp_phase(m, 0.0, lambdas)[:, None]  # D's phase on each shift's row
    pairs = (d[:, None, :] * d.conj()).reshape(len(d) ** 2, -1)
    g = pairs @ _lattice_fold(nodes, ts).reshape(period, -1)  # the fold is freed here
    g /= SPAN
    g = g.reshape(len(d), len(d), len(nodes), -1).transpose(2, 0, 3, 1)
    g = g.reshape(len(nodes) * len(d), -1)
    return g, identity_deviation(g)


@dataclass
class BasisElement:
    """One transform atom: packet node, dilation level, translation."""

    node: PacketNode
    level: int
    lam: float


@dataclass
class PacketBasis:
    """A finite packet system with a certification gate.

    The atom at (n, level j, lam) is ``HatFunction.periodic`` of the dilated
    hat (2N)^{-j/2} hat(W_n)(u/(2N)^j), shifted by lam/(2N)^j, from one
    shared frequency lattice at oversample 1 (the nodes' cascade is built with
    it, and it is checked), so spans at different levels nest exactly and
    Nyquist-rate quadrature of atom products is alias-free.  ``ts`` sets the
    dilations and delays, so nodes of another translation set are refused.
    Each atom is a read-only window (``wavelets.grid_samples``) of one
    synthesis per (node, level), which its windows keep alive; the tails of
    the dilated hats are built in one pass, and each synthesis forms its
    values from the tails and rows the nodes' engine holds.  Only an atom
    whose cut wraps the period is a copy, so no (atoms x count) array is
    made and the memory of a basis does not grow with its translates.  These atoms are unchirped, and ``sampling``
    chirps them (``signals``, analysis and synthesis), so the chirped Gram
    is D G_0 D^H with D diagonal and unimodular, and max |G - I| =
    max |G_0 - I|.  ``certify`` stores
    that deviation, whatever the matrix; analysis and synthesis refuse to
    run unless it is within ``_CERTIFY_TOL``.
    """

    ts: TranslationSet
    m: CanonicalMatrix
    elements: list[BasisElement]
    residual: float | None = field(default=None, init=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a packet basis needs at least one element")
        _require_packets_of([e.node for e in self.elements], self.ts)

    @property
    def _grid(self) -> Grid:
        return self.elements[0].node.grid

    @cached_property
    def _unchirped(self) -> tuple[np.ndarray, ...]:
        grid = self._grid
        if any(e.node.grid != grid for e in self.elements):
            raise ValueError("all basis nodes must share one grid")
        hats = {(id(e.node.hat), e.level): e.node.hat.dilated(e.level) for e in self.elements}
        # the tails of the dilated hats in one pass, so rows they share are evaluated once
        served_engine([*hats.values()], grid, oversample=1)._build_tails(
            {h.depth for h in hats.values()})
        atoms = []
        for e in self.elements:
            delay = grid.steps(e.lam / self.ts.dilation**e.level)  # at oversample 1
            atoms.append(grid_samples(hats[id(e.node.hat), e.level].periodic(), grid,
                                      oversample=1, delay=delay))
            atoms[-1].flags.writeable = False
        return tuple(atoms)

    @property
    def _lambdas(self) -> list[float]:
        return [e.lam for e in self.elements]

    def signals(self) -> list[SampledSignal]:
        """The chirped atoms."""
        chirp = _time_chirp(self._grid, self.m)
        phases = chirp_phase(self.m, 0.0, np.asarray(self._lambdas, dtype=float))
        return [SampledSignal(self._grid, atom * chirp * phase)
                for atom, phase in zip(self._unchirped, phases)]

    def certify(self) -> float:
        self.residual = identity_deviation(weighted_gram(self._unchirped, self._grid))
        return self.residual

    def require_certified(self) -> None:
        if self.residual is None:
            raise UncertifiedBasisError("basis has not been certified; call certify()")
        if self.residual > _CERTIFY_TOL:
            raise UncertifiedBasisError(
                f"basis residual {self.residual:.3e} exceeds tolerance {_CERTIFY_TOL:.3e}"
            )


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Rows (n, level, lambda) with the corresponding coefficients; tables compare by
    identity, as signals do."""

    rows: tuple[tuple[int, int, float], ...]
    values: np.ndarray


def packet_analyze(f: SampledSignal, basis: PacketBasis) -> CoefficientTable:
    """Coefficients <f, atom> of every chirped atom (``sampling.chirped_coefficients``)."""
    basis.require_certified()
    if basis._grid != f.grid:
        raise ValueError("basis atoms must live on the signal grid")
    values = chirped_coefficients(f, basis._unchirped, basis._lambdas, basis.m)
    rows = tuple((e.node.index.n, e.level, e.lam) for e in basis.elements)
    return CoefficientTable(rows=rows, values=values)


def packet_synthesize(coeffs: CoefficientTable, basis: PacketBasis) -> SampledSignal:
    """Sum of coefficient-weighted chirped atoms (``sampling.chirped_sum``), inverse of analyze."""
    basis.require_certified()
    if len(coeffs.values) != len(basis.elements):
        raise ValueError("coefficient table does not match the basis")
    return chirped_sum(coeffs.values, basis._unchirped, basis._lambdas, basis.m, basis._grid)


def fold_residuals(
    node: PacketNode,
    ts: TranslationSet,
    *,
    oversample: int | None = None,
) -> tuple[float, float]:
    """Residuals of the two folded power sums of a packet hat.

    h(u) = sum_j |hat(W)(u + N j)|^2 folded over the whole stored lattice;
    the plain sum of h over the 2N half-integer shifts must be 2 and the
    twisted sum must vanish, mirroring the filter-bank conditions one
    level up.  ``ts`` must be the node's own, and ``oversample``, when
    given, must be its lattice's (``served_engine``).
    """
    served_engine([node.hat], node.grid, oversample=oversample)
    h = _lattice_fold([node], ts)[:, 0, 0].real
    plain, twisted = shift_sums(h, ts)
    res_plain = float(np.max(np.abs(plain - 2.0)))
    res_twist = float(np.max(np.abs(twisted)))
    return res_plain, res_twist
