"""Off-lattice reference for packet-type hats, independent of the lattice engine."""

import functools

import numpy as np

from lct_numra.filters import PeriodicFilterPair, default_u_count, filter_eval, sample_grid


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


class ExactRows:
    """Lattice rows of exact pairs from exact phases, for an n-point lattice u = e/16.

    Each term exp(-2 pi i c e/order), order = 16 N (2N)^j, takes its phase c e
    reduced modulo the order in Python integers and its exp in long double.
    """

    def __init__(self, n: int):
        self.e = np.arange(n, dtype=object) - n // 2
        self.two_pi = 8 * np.arctan(np.longdouble(1))
        self.powers = functools.cache(self._powers)

    def _powers(self, c: int, order: int) -> np.ndarray:
        red = (c * self.e) % order
        red = np.where(2 * red > order, red - order, red).astype(np.int64)
        return np.exp(-1j * self.two_pi * (red.astype(np.longdouble) / np.longdouble(order)))

    def row(self, pair, j: int) -> np.ndarray:
        """L(u/(2N)^j) of the exact ``pair`` on the lattice, in long double."""
        N = pair.ts.N
        order = 16 * N * (2 * N) ** j
        cross = self.powers(pair.ts.r, order)
        lo, g, terms = pair._sparse
        return sum((t1 + cross * t2) * self.powers(2 * N * (lo + g * k), order)
                   for k, (t1, t2) in enumerate(terms.T))

    def hat(self, hat) -> np.ndarray:
        """``hat`` on the lattice: its tail rows, then its digit rows."""
        engine = hat.engine
        out = np.ones(self.e.size, dtype=np.clongdouble)
        for j in range(hat.depth + 1, hat.depth + engine.J + 1):
            out *= self.row(engine.lowpass, j)
        for i, pair in enumerate(hat.filters):
            out *= self.row(pair, hat.level + i + 1)
        return out


def bins_pair(ts, bins):
    """An exact pair on the Fourier ``bins`` k, and its closed form at any u.

    Each component sums unimodular terms exp(-4 pi i k u), scaled by
    1/(2 len(bins)); the closed form reduces u mod 1/2 and, in the phase, mod N.
    """
    grid = sample_grid(default_u_count(ts))
    coef = np.exp(1j * np.outer([1.0, -0.7], np.arange(1, len(bins) + 1))) / (2 * len(bins))

    def components(u):
        return coef @ np.exp(-4j * np.pi * np.outer(bins, u))

    def closed(u):
        c1, c2 = components(np.mod(u, 0.5))
        return c1 + np.exp(-2j * np.pi * np.mod(u, ts.N) * ts.r / ts.N) * c2

    return PeriodicFilterPair(ts, *components(grid.points())), closed
