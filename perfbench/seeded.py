"""Seeded inputs for every workload.

Every generator takes a ``numpy.random.Generator`` built by ``stream``
from the run seed and a fixed stream label, so one seed always gives
byte-identical inputs, and the library only ever receives generated
values.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one purpose (label) of one run seed."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def chirped_gaussians(t: np.ndarray, rng: np.random.Generator, *, centre: float = 0.0,
                      spread: float = 2.0, widths=(0.5, 1.2), terms: int = 3) -> np.ndarray:
    """Sum of chirped Gaussians a_k exp(-pi ((t - c_k)/w_k)^2 + i q_k (t - c_k)^2).

    Centres c_k lie within ``spread`` of ``centre``.  The defaults suit the
    centred window [-8, 8): every term is below 1e-30 at its edges.
    """
    values = np.zeros(t.shape, dtype=np.complex128)
    for _ in range(terms):
        c = centre + rng.uniform(-spread, spread)
        w = rng.uniform(*widths)
        q = rng.uniform(-2.0, 2.0)
        amp = complex(rng.normal(), rng.normal())
        x = t - c
        values += amp * np.exp(-np.pi * (x / w) ** 2 + 1j * q * x**2)
    return values


def frft_angle(rng: np.random.Generator, sign: int) -> float:
    """frft angle with sin(theta) of the given sign and |cot(theta)| in [0.5, 2.4].

    Keeping |theta| in [0.4, 1.1] keeps both b and d away from 0, so the
    transform is a genuine chirp-FFT-chirp with d != 0 on both signs of b.
    """
    theta = rng.uniform(0.4, 1.1)
    return theta if sign > 0 else -theta


def haar_matrix(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Unimodular (a, b, c, d) with 8a/b an integer and b != 0.

    The closed-form Haar bank has L(0) = 1, which ``cascade`` requires,
    exactly when 8a/b is an integer.  b is a signed power of two and
    a = j b / 8, so a/b is exact in binary; c = (a d - 1)/b gives det 1.
    """
    b = float(rng.choice([0.5, 1.0, 2.0])) * float(rng.choice([-1.0, 1.0]))
    j = int(rng.integers(-16, 17))
    a = j * b / 8.0
    d = float(rng.uniform(-1.5, 1.5))
    c = (a * d - 1.0) / b
    return a, b, c, d


def digest(*arrays) -> str:
    """sha256 over the raw bytes of the given arrays (input fingerprint)."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
