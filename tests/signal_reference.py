"""Relative L2 error of sampled signals, a yardstick the tests use and the library does not."""

import numpy as np

from lct_numra.sampling import SampledSignal, _common_grid


def rel_l2_error(got: SampledSignal, ref: SampledSignal) -> float:
    """||got - ref||_2 / ||ref||_2 by trapezoidal quadrature; both signals must share one
    grid, as in ``sampling.inner_product`` (two grids raise GridMismatchError)."""
    w = _common_grid([got, ref]).trapezoid_weights()
    num = np.sqrt(np.sum(np.abs(got.values - ref.values) ** 2 * w))
    den = np.sqrt(np.sum(np.abs(ref.values) ** 2 * w))
    return float(num / den)
