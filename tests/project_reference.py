"""Loop reference for ``wavelets.project``, independent of the shared chirped-atom functions.

Each dilated translate is made once and used twice: f, demodulated by a
time chirp formed here and trapezoid-weighted, is summed against it for
its coefficient, and the coefficient-weighted translate is added to the
sum, which is modulated once at the end.
"""

import numpy as np

from lct_numra.filters import translations
from lct_numra.sampling import chirp_phase, dilate


def project_loop(f, phi, ts, m, j, lambda_window):
    """(projection samples, {lam: coefficient}) of f onto the level-j chirped span."""
    lambdas = translations(ts, lambda_window)
    grid = f.grid
    chirp = chirp_phase(m, grid.points(), 0.0)
    weighted = np.conj(f.values) * chirp * grid.trapezoid_weights()
    phases = chirp_phase(m, 0.0, np.asarray(lambdas, dtype=float))
    acc = np.zeros(grid.count, dtype=np.complex128)
    coeffs = {}
    for lam, phase in zip(lambdas, phases):
        e = dilate(phi, j, ts.N, lam, grid=grid).values
        c = np.conj(np.sum(weighted * e))
        coeffs[lam] = complex(np.conj(phase) * c)
        acc += c * e
    return acc * chirp, coeffs
