"""Stacked-atom reference for packet bases, independent of their windows.

Every atom is synthesised afresh from its hat's lattice values (one
inverse FFT, gathered modulo n) into one (atoms x count) array, and
analysis, synthesis and the Gram are each one product with that stack.
The library never builds the stack: its atoms are windows of kept
periodic samples.
"""

import numpy as np

from lct_numra.sampling import chirp_phase, identity_deviation, weighted_gram
from lct_numra.wavelets import SPAN, HatFunction


def stacked_atoms(basis) -> np.ndarray:
    """The unchirped atoms of ``basis`` as rows of one array."""
    grid = basis._grid
    engine = basis.elements[0].node.hat.engine
    n, two_n = engine.n, float(basis.ts.dilation)
    idx = round(grid.t_min / grid.step) + np.arange(grid.count)
    atoms = np.empty((len(basis.elements), grid.count), dtype=np.complex128)
    for row, e in zip(atoms, basis.elements):
        cold = HatFunction(engine, e.node.hat.filters, e.level)
        vals = two_n ** (-e.level / 2.0) * engine.lattice([cold])[0]
        fine = np.fft.ifft(np.fft.ifftshift(vals)) * (n / SPAN)
        row[:] = fine[(idx - round(e.lam / two_n**e.level / grid.step)) % n]
    return atoms


def _time_chirp(basis) -> np.ndarray:
    return chirp_phase(basis.m, basis._grid.points(), 0.0)


def _shift_phases(basis) -> np.ndarray:
    """chirp_phase(m, 0, lam) of every element's shift."""
    return chirp_phase(basis.m, 0.0, np.array([e.lam for e in basis.elements], dtype=float))


def analyze(f, basis, stack: np.ndarray) -> np.ndarray:
    """<f, atom> for every chirped atom: one product with the stack."""
    weighted = np.conj(f.values) * _time_chirp(basis) * f.grid.trapezoid_weights()
    return _shift_phases(basis).conj() * np.conj(stack @ weighted)


def synthesize(coeffs: np.ndarray, basis, stack: np.ndarray) -> np.ndarray:
    """Samples of the coefficient-weighted sum of the chirped atoms."""
    return (coeffs * _shift_phases(basis)) @ stack * _time_chirp(basis)


def certify(basis, stack: np.ndarray) -> float:
    """max |G - I| of the stack's trapezoid Gram, summed in the library's column blocks."""
    return identity_deviation(weighted_gram(stack, basis._grid))
