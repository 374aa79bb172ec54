"""Off-lattice reference for packet-type hats, independent of the lattice engine."""

import numpy as np

from lct_numra.filters import filter_eval


def product_hat(hat, u) -> np.ndarray:
    """``hat`` at any u by the product formula, one ``filter_eval`` row at a time.

    The cascade tail over j = depth+1..depth+J first, then the digit rows
    L_{d_i}(u/(2N)^{level+i+1}), each multiplied in as the engine does.
    """
    u = np.asarray(u, dtype=float)
    engine = hat.engine
    two_n = float(engine.lowpass.ts.dilation)
    out = np.ones(u.shape, dtype=np.complex128)
    for j in range(hat.depth + 1, hat.depth + engine.J + 1):
        out *= filter_eval(engine.lowpass, u / two_n**j)
    for i, pair in enumerate(hat.filters):
        out *= filter_eval(pair, u / two_n ** (hat.level + i + 1))
    return out
