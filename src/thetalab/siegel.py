"""Period matrices, points, and characteristics for the (1,4) surface.

The abelian surface is C^2 / (Z Z^2 + D Z^2) with D = diag(1, 4) and Z in
the genus-2 Siegel upper half-space.  Points are addressed either by their
complex coordinates v = (v1, v2) or by torus coordinates (x, y) through
v = Z x + D y.  Characteristics are rational 2-vectors with denominator
dividing 4; the distinguished quarter characteristic is w = (0, 1/4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotSiegel, OutOfRange

POLARIZATION_TYPE = (1, 4)
D_MATRIX = np.array([[1.0, 0.0], [0.0, 4.0]])


@dataclass(frozen=True)
class EvalSettings:
    """Numerical evaluation policy for theta sums.

    tol is the absolute truncation tolerance after normalisation (the tail
    of the Gaussian majorant must fall below it); max_radius caps the
    truncation box.
    """

    tol: float = 1e-12
    max_radius: int = 64


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric 2x2 complex matrix with finite entries and positive definite
    imaginary part, stored by its upper triangle."""

    z11: complex
    z12: complex
    z22: complex

    def __post_init__(self):
        object.__setattr__(self, "z11", complex(self.z11))
        object.__setattr__(self, "z12", complex(self.z12))
        object.__setattr__(self, "z22", complex(self.z22))
        if not all(cmath.isfinite(z) for z in (self.z11, self.z12, self.z22)):
            raise NotSiegel(f"non-finite entry in {(self.z11, self.z12, self.z22)}")
        y11, y12, y22 = self.z11.imag, self.z12.imag, self.z22.imag
        if not (y11 > 0 and y11 * y22 - y12 * y12 > 0):
            raise NotSiegel(
                f"imaginary part {[[y11, y12], [y12, y22]]} is not positive definite"
            )

    @classmethod
    def from_matrix(cls, M) -> "PeriodMatrix":
        M = np.asarray(M, dtype=complex)
        if M.shape != (2, 2):
            raise NotSiegel(f"expected a 2x2 matrix, got shape {M.shape}")
        return cls(complex(M[0, 0]), complex(M[0, 1]), complex(M[1, 1]))

    @classmethod
    def diagonal(cls, tau1: complex, tau2: complex) -> "PeriodMatrix":
        return cls(complex(tau1), 0.0, complex(tau2))

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.z11, self.z12], [self.z12, self.z22]])

    def imag_part(self) -> np.ndarray:
        return np.array(
            [[self.z11.imag, self.z12.imag], [self.z12.imag, self.z22.imag]]
        )

    def min_imag_eigenvalue(self) -> float:
        y11, y12, y22 = self.z11.imag, self.z12.imag, self.z22.imag
        tr, dt = y11 + y22, y11 * y22 - y12 * y12
        return 0.5 * (tr - math.sqrt(max(tr * tr - 4.0 * dt, 0.0)))

    def is_diagonal(self, atol: float = 0.0) -> bool:
        return abs(self.z12) <= atol


class SurfacePoint(NamedTuple):
    """A point of C^2, thought of modulo the period lattice."""

    v1: complex
    v2: complex

    @classmethod
    def from_torus_coords(cls, Z: PeriodMatrix, x: Sequence[float], y: Sequence[float]):
        v = Z.as_matrix() @ np.asarray(x, dtype=float) + D_MATRIX @ np.asarray(y, dtype=float)
        return cls(complex(v[0]), complex(v[1]))

    def __neg__(self) -> "SurfacePoint":
        return SurfacePoint(-self.v1, -self.v2)


class TorsionLabel(NamedTuple):
    """Label (alpha, beta) of the 2-torsion point (Z alpha + D beta) / 2."""

    alpha: tuple[int, int]
    beta: tuple[int, int]


def two_torsion_points(Z: PeriodMatrix) -> list[tuple[TorsionLabel, SurfacePoint]]:
    """The 16 two-torsion points of the surface, in lexicographic label order."""
    out = []
    for a1 in (0, 1):
        for a2 in (0, 1):
            for b1 in (0, 1):
                for b2 in (0, 1):
                    label = TorsionLabel((a1, a2), (b1, b2))
                    pt = SurfacePoint.from_torus_coords(
                        Z, (a1 / 2.0, a2 / 2.0), (b1 / 2.0, b2 / 2.0)
                    )
                    out.append((label, pt))
    return out


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Pair of rational characteristic vectors (c1, c2), denominators | 4."""

    c1: tuple[Fraction, Fraction]
    c2: tuple[Fraction, Fraction]

    def __post_init__(self):
        for name in ("c1", "c2"):
            entries = tuple(Fraction(x) for x in getattr(self, name))
            for x in entries:
                if 4 % x.denominator:
                    raise OutOfRange(f"characteristic entry {x} has denominator not dividing 4")
            object.__setattr__(self, name, entries)
            # every theta evaluation reads the float form, several times per
            # point; converting a Fraction costs about a microsecond
            object.__setattr__(self, f"_{name}_floats", tuple(map(float, entries)))

    def c1_floats(self) -> tuple[float, float]:
        return self._c1_floats

    def c2_floats(self) -> tuple[float, float]:
        return self._c2_floats


def quarter_characteristic(k: int) -> ThetaCharacteristic:
    """Characteristic [ (0, k/4); (0, 0) ]; k = 0..3 give the basis of the
    space of sections of the (1,4) polarisation."""
    if not 0 <= k <= 3:
        raise OutOfRange(f"quarter characteristic index {k} outside 0..3")
    return ThetaCharacteristic((Fraction(0), Fraction(k, 4)), (Fraction(0), Fraction(0)))


OMEGA = quarter_characteristic(1)


def random_period_matrix(rng: np.random.Generator, min_offdiag: float = 1e-3) -> PeriodMatrix:
    """Draw a generic period matrix: real part symmetric uniform in
    [-1/2, 1/2], imaginary part I + W W^T with W standard normal, resampling
    while |z12| < min_offdiag to stay away from the product locus."""
    while True:
        x11, x12, x22 = rng.uniform(-0.5, 0.5, size=3)
        W = rng.standard_normal((2, 2))
        Y = np.eye(2) + W @ W.T
        Z = PeriodMatrix(
            complex(x11, Y[0, 0]), complex(x12, Y[0, 1]), complex(x22, Y[1, 1])
        )
        if abs(Z.z12) >= min_offdiag:
            return Z


def random_point(Z: PeriodMatrix, rng: np.random.Generator) -> SurfacePoint:
    """Uniform point in the fundamental parallelotope, in torus coordinates."""
    x = rng.uniform(0.0, 1.0, size=2)
    y = rng.uniform(0.0, 1.0, size=2)
    return SurfacePoint.from_torus_coords(Z, x, y)
