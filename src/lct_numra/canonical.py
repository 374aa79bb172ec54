"""Parameter matrices for the linear canonical transform.

A transform is parameterized by a real 2x2 matrix M = (a, b, c, d) with
det M = a*d - b*c = 1.  Every chirp rate and kernel phase in the rest of
the library is derived from these four numbers; the chirp rate a/b is
formed, and its convention stated, in ``chirp_rate`` alone.  The b = 0
branch (pure chirp multiplication) is not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Tolerance on |det - 1|, scaled by max(1, |ad|, |bc|): the rounding of det.
UNIMODULAR_TOL = 1e-12


class MatrixError(ValueError):
    """Raised when a parameter matrix fails validation."""


@dataclass(frozen=True)
class CanonicalMatrix:
    """Real parameter matrix (a, b, c, d) of a linear canonical transform."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_dict(cls, obj: dict) -> "CanonicalMatrix":
        return cls(float(obj["a"]), float(obj["b"]), float(obj["c"]), float(obj["d"]))


@dataclass(frozen=True)
class MatrixReport:
    """Outcome of validating a matrix: ok flag, determinant, violations."""

    ok: bool
    det: float
    violations: tuple[str, ...]


def validate(m: CanonicalMatrix, *, allow_nonunimodular: bool = False) -> MatrixReport:
    """Check that the entries are finite and the matrix unimodular.  Never raises.

    With ``allow_nonunimodular`` a nonzero determinant different from 1 is
    tolerated while staying reported via the det field (permissive mode
    used to reproduce printed examples with anomalous matrices).  A NaN or
    infinite entry is always a violation: the det test alone cannot see it,
    since NaN compares false.  b = 0 does not fail validation; it is
    rejected by every transform and filter operation instead (see
    ``require_valid``).
    """
    det = m.det
    violations = [f"non-finite entry: {name} = {value}"
                  for name, value in zip("abcd", m.as_tuple()) if not math.isfinite(value)]
    if abs(det - 1.0) > UNIMODULAR_TOL * max(1.0, abs(m.a * m.d), abs(m.b * m.c)):
        if allow_nonunimodular and det != 0.0:
            pass  # tolerated, reported via det field
        else:
            violations.append(f"not unimodular: det = {det:.17g}")
    return MatrixReport(ok=not violations, det=det, violations=tuple(violations))


def require_valid(m: CanonicalMatrix, *, allow_nonunimodular: bool = False) -> None:
    """Reject matrices that fail validation or have b = 0 (transform gate)."""
    report = validate(m, allow_nonunimodular=allow_nonunimodular)
    violations = list(report.violations)
    if m.b == 0.0:
        violations.append("b = 0 branch out of scope")
    if violations:
        raise MatrixError("; ".join(violations))


def compose(m1: CanonicalMatrix, m2: CanonicalMatrix) -> CanonicalMatrix:
    """Matrix product m1 . m2; the result parameterizes the composed transform.

    Accepts b = 0 factors (the identity, pure scalings): only transform
    application requires b != 0, not the matrix algebra.
    """
    for m in (m1, m2):
        report = validate(m)
        if not report.ok:
            raise MatrixError("; ".join(report.violations))
    return CanonicalMatrix(
        a=m1.a * m2.a + m1.b * m2.c,
        b=m1.a * m2.b + m1.b * m2.d,
        c=m1.c * m2.a + m1.d * m2.c,
        d=m1.c * m2.b + m1.d * m2.d,
    )


def identity() -> CanonicalMatrix:
    return CanonicalMatrix(1.0, 0.0, 0.0, 1.0)


def fourier() -> CanonicalMatrix:
    """Matrix (0, 1, -1, 0) of the classical Fourier transform."""
    return CanonicalMatrix(0.0, 1.0, -1.0, 0.0)


def frft(theta: float) -> CanonicalMatrix:
    """Rotation matrix of the fractional Fourier transform of angle theta.

    theta must not be an integer multiple of pi (that would give b = 0).
    """
    if math.isclose(math.sin(theta), 0.0, abs_tol=1e-15):
        raise MatrixError("b = 0 branch out of scope (theta multiple of pi)")
    return CanonicalMatrix(math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta))


def fresnel(b: float) -> CanonicalMatrix:
    """Shear matrix (1, b, 0, 1) of the Fresnel transform, b != 0."""
    if b == 0.0:
        raise MatrixError("b = 0 branch out of scope")
    return CanonicalMatrix(1.0, float(b), 0.0, 1.0)


def special(name: str, value: float | None = None) -> CanonicalMatrix:
    """Named special-case matrix: 'fourier', 'frft' (angle), 'fresnel' (b)."""
    if name == "fourier":
        return fourier()
    if name == "frft":
        if value is None:
            raise MatrixError("frft requires an angle")
        return frft(value)
    if name == "fresnel":
        if value is None:
            raise MatrixError("fresnel requires a b parameter")
        return fresnel(value)
    raise MatrixError(f"unknown special matrix {name!r}")


def chirp_rate(m: CanonicalMatrix, num=float):
    """The chirp rate a/b of m, as num(a) / num(b): the one place it is formed.

    This docstring is the package's one statement of its chirp convention.

    - Atoms: a chirped atom of m is an unchirped h times exp(-i pi (a/b) t^2),
      and its shift lam carries exp(i pi (a/b) lam^2) (``sampling.chirp_phase``;
      the Haar lattice phases are those of the shifts 4k).  This is the rate of
      the normalized kernel of Koc, Ozaktas, Candan & Kutay (IEEE TSP 56(6), 2008).
    - Transform: ``kernel`` and ``lct`` take omega in radians, with the input
      chirp exp(i (a/(2b)) t^2); ``lct._factors`` keeps it in turns,
      (a/b) t^2 / (4 pi), from this rate in exact rationals (num = Fraction).
    - Bridge: the two chirps differ, so the transform of m leaves an atom of m
      chirped.  The kernel of m~ = (2 pi a, b, c, d / (2 pi)), also unimodular,
      cancels the atom's chirp, and with d~ = d / (2 pi)

          L_{m~}[h(t) exp(-i pi (a/b) t^2)](omega)
              = exp(i d~ omega^2 / (2b)) hat(h)(omega / (2 pi b)) / sqrt(2 i pi b),

      where hat(h)(u) = integral h(t) exp(-2 pi i t u) dt, the transform of ``wavelets``.
      On a grid of one synthesis period the induced omega grid of ``lct_fast``
      lands on the hat lattice, u = sign(b) (i - n/2) / SPAN.
    """
    return num(m.a) / num(m.b)


def kernel(m: CanonicalMatrix, t, omega):
    """Transform kernel K(t, omega) = exp{i(a t^2 - 2 t w + d w^2)/(2b)} / sqrt(2 i pi b).

    The square root takes the principal branch (argument in (-pi/2, pi/2]),
    so the Fourier matrix carries the usual factor 1/sqrt(i) = exp(-i pi/4).
    Accepts scalars or arrays for t and omega (broadcast).  How its chirp
    meets the atoms' is stated in ``chirp_rate``.
    """
    if m.b == 0.0:
        raise MatrixError("b = 0 branch out of scope")
    t = np.asarray(t, dtype=float)
    omega = np.asarray(omega, dtype=float)
    phase = (m.a * t**2 - 2.0 * t * omega + m.d * omega**2) / (2.0 * m.b)
    amp = 1.0 / np.sqrt(2j * np.pi * m.b)
    return amp * np.exp(1j * phase)
