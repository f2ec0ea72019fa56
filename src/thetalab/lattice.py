"""Exact lattice-level polarization bookkeeping.

The reference lattice is Z^4 carrying a principal alternating form (the
period lattice of the genus-2 Jacobian JH in a symplectic basis).
Enlarging it by half-torsion subgroups G and rescaling the form by the
least multiplier that restores integrality reproduces the polarization
types of the quotient surfaces JH/G: principal for isotropic Klein G,
(1,4) for non-isotropic, (1,2) for a single two-torsion point.

The arithmetic runs on Python ints: a form's Gram matrix on a lattice
basis is formed once as (integer matrix H, denominator q), and integrality,
the least multiplier, nondegeneracy and the Smith type are read off H.
``Fraction`` stays at the API (Gram matrices, lattice bases, generators)
and is the tests' reference.

Also here: the lattice-side Weil pairing on (1/2 Z^4)/Z^4 together with
its explicit dictionary onto the even-subset model at genus 2, the genus
feasibility enumerator for symmetric curves on abelian surfaces, and the
structure of the kernel group K(L) of a polarization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exact
from .errors import (
    Degenerate,
    Inconsistent,
    NotHalfTorsion,
    NotIntegral,
    OutOfRange,
)
from .exact import Matrix, Vector
from .twotorsion import TwoTorsionClass, echelon


@dataclass(frozen=True)
class PolarizationType:
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise OutOfRange(f"type entries must be positive, got ({self.d1}, {self.d2})")
        if self.d2 % self.d1:
            raise Inconsistent(f"d1={self.d1} does not divide d2={self.d2}")

    def as_tuple(self) -> tuple[int, int]:
        return (self.d1, self.d2)

    def __str__(self):
        return f"({self.d1},{self.d2})"


class AlternatingForm:
    """Skew-symmetric rational 4x4 Gram matrix on the reference Z^4."""

    def __init__(self, gram):
        G = exact.mat(gram)
        if len(G) != 4 or any(len(row) != 4 for row in G):
            raise OutOfRange("expected a 4x4 matrix")
        N, d = exact.clear_denominators(G)
        for i in range(4):
            for j in range(4):
                if N[i][j] != -N[j][i]:
                    raise Inconsistent("Gram matrix is not skew-symmetric")
        self.gram: Matrix = G
        self._num, self._den = N, d  # gram = _num / _den

    @classmethod
    def standard_symplectic(cls) -> "AlternatingForm":
        return cls.of_type(1, 1)

    @classmethod
    def of_type(cls, d1: int, d2: int) -> "AlternatingForm":
        G = [[0] * 4 for _ in range(4)]
        G[0][2], G[1][3] = d1, d2
        G[2][0], G[3][1] = -d1, -d2
        return cls(G)

    def value(self, x: Sequence, y: Sequence) -> Fraction:
        xv, yv = exact.vec(x), exact.vec(y)
        return sum(xv[i] * self.gram[i][j] * yv[j] for i in range(4) for j in range(4))

    def integer_gram(self, B: Sequence[Sequence[int]], d: int = 1) -> tuple[list[list[int]], int]:
        """The Gram matrix on the columns of the integer matrix B, divided
        by d, as (H, q): the matrix is H / q with H = B^T (q_E E) B an
        integer matrix and q = q_E d^2, q_E the common denominator of E."""
        H = exact.matmul(exact.matmul(exact.transpose(B), self._num), B)
        return H, self._den * d * d

    def gram_on(self, basis: Matrix) -> Matrix:
        H, q = self.integer_gram(*exact.clear_denominators(basis))
        return [[Fraction(h, q) for h in row] for row in H]

    def scaled(self, c) -> "AlternatingForm":
        return AlternatingForm(exact.scale(self.gram, c))

    def det(self) -> Fraction:
        return exact.det(self.gram)


class RationalLattice:
    """Full-rank lattice in Q^4 given by basis columns."""

    def __init__(self, basis):
        B = exact.mat(basis)
        if exact.det(B) == 0:
            raise Degenerate("basis columns are linearly dependent")
        self.basis: Matrix = B

    @classmethod
    def standard(cls) -> "RationalLattice":
        return cls(exact.identity(4))

    @classmethod
    def overlattice(cls, generators: Sequence[Sequence]) -> "RationalLattice":
        """Z^4 enlarged by the given rational column vectors."""
        cols = [[Fraction(int(i == j)) for i in range(4)] for j in range(4)]
        cols += [exact.vec(g) for g in generators]
        return cls(exact.rational_lattice_basis(cols))

    def index_over(self, sub: "RationalLattice") -> Fraction:
        """[self : sub] for sub contained in self."""
        return abs(exact.det(sub.basis)) / abs(exact.det(self.basis))

    def change_basis(self, U: Sequence[Sequence[int]]) -> "RationalLattice":
        """Same lattice in a new basis: columns B' = B U, U unimodular."""
        Um = exact.mat(U)
        if abs(exact.det(Um)) != 1:
            raise Inconsistent("change of basis matrix is not unimodular")
        return RationalLattice(exact.matmul(self.basis, Um))


class HalfTorsionSubgroup:
    """Subgroup of (1/2 Z^4)/Z^4 given by generators (kept as chosen lifts)."""

    def __init__(self, generators: Sequence[Sequence]):
        gens = [exact.vec(g) for g in generators]
        if not gens:
            raise OutOfRange("need at least one generator")
        for g in gens:
            if len(g) != 4:
                raise OutOfRange("generators must be 4-vectors")
            if any(2 % x.denominator for x in g):
                raise NotHalfTorsion(f"{g} is not half-integral")
            if all(x.denominator == 1 for x in g):
                raise NotHalfTorsion(f"{g} is trivial modulo Z^4")
        self.generators = gens

    def reduced_generators(self) -> list[tuple[int, int, int, int]]:
        """Generators modulo Z^4, encoded as F2 bit vectors of 2*lift."""
        return [tuple(int(2 * x) % 2 for x in g) for g in self.generators]

    @property
    def rank(self) -> int:
        masks = (sum(bit << i for i, bit in enumerate(g)) for g in self.reduced_generators())
        return len(echelon(masks))

    @property
    def order(self) -> int:
        return 2 ** self.rank


@functools.cache
def _principal_form() -> AlternatingForm:
    """The default form, built once; nothing in this module changes it."""
    return AlternatingForm.standard_symplectic()


def _skew_type(H: Sequence[Sequence[int]]) -> PolarizationType:
    """Type (d1, d2) of an integer skew Gram matrix from its Smith divisors
    d1, d1, d2, d2; a zero divisor means a zero determinant."""
    divs = exact.integer_snf(H)
    if 0 in divs:
        raise Degenerate("form is degenerate on the lattice")
    if divs[0] != divs[1] or divs[2] != divs[3]:
        raise Inconsistent(f"divisors {divs} do not pair up; form not skew?")
    return PolarizationType(divs[0], divs[2])


def smith_type(form: AlternatingForm, lattice: RationalLattice) -> PolarizationType:
    """Elementary divisors (d1, d2) of the form on the lattice.

    The Gram matrix in the lattice basis must be integral and nonsingular;
    a skew form has Smith divisors d1, d1, d2, d2.
    """
    H, q = form.integer_gram(*exact.clear_denominators(lattice.basis))
    if any(h % q for row in H for h in row):
        raise NotIntegral("form is not integer valued on the lattice")
    return _skew_type([[h // q for h in row] for row in H])


def quotient_polarization_type(
    G: HalfTorsionSubgroup, E: AlternatingForm | None = None
) -> tuple[int, PolarizationType]:
    """Type of the polarization induced on the quotient by G.

    Forms the overlattice L' = Z^4 + lifts(G) from a Z-basis of the integer
    columns of 2 L', takes E's Gram matrix H / q on it once, and returns the
    least multiplier c that makes c*E integral on L', c = q / gcd(q, H),
    with the Smith type of c*E on L'.  With the principal form: isotropic
    Klein -> (2, (1,1)), non-isotropic Klein -> (4, (1,4)), single
    two-torsion -> (2, (1,2)).
    """
    if E is None:
        E = _principal_form()
    cols = [[2 * int(i == j) for i in range(4)] for j in range(4)]
    cols += [[2 * x.numerator // x.denominator for x in g] for g in G.generators]
    H, q = E.integer_gram(exact.column_lattice_basis(exact.transpose(cols)), 2)
    common = math.gcd(q, *(h for row in H for h in row))
    return q // common, _skew_type([[h // common for h in row] for row in H])


def lattice_weil_pairing(x: Sequence, y: Sequence, E: AlternatingForm | None = None) -> int:
    """Weil pairing of two half-torsion points: E(2x, 2y) mod 2."""
    if E is None:
        E = _principal_form()
    xv, yv = exact.vec(x), exact.vec(y)
    for v in (xv, yv):
        if any(2 % t.denominator for t in v):
            raise NotHalfTorsion(f"{v} is not half-integral")
    val = E.value([2 * t for t in xv], [2 * t for t in yv])
    if val.denominator != 1:
        raise NotIntegral("pairing value is not an integer; form not integral on Z^4?")
    return int(val) % 2


def half_torsion_classes() -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """The 16 elements of (1/2 Z^4)/Z^4 as reduced representatives."""
    h = Fraction(1, 2)
    out = []
    for b in range(16):
        out.append(tuple((h if (b >> (3 - i)) & 1 else Fraction(0)) for i in range(4)))
    return out


# basis dictionary onto the even-subset model at genus 2: the images of
# e_i/2 are pairs chosen so that all six basis pairings match the standard
# symplectic ones; linearity then forces the rest (verified exhaustively
# in the test suite)
_DICTIONARY_BASIS = ((1, 2), (3, 4), (1, 6), (4, 5))


def half_torsion_dictionary() -> list[tuple[tuple[Fraction, ...], TwoTorsionClass]]:
    """Pairing-preserving bijection (1/2 Z^4)/Z^4 -> E_2 (genus-2 classes)."""
    out = []
    for x in half_torsion_classes():
        cls = TwoTorsionClass.zero(2)
        for xi, pair in zip(x, _DICTIONARY_BASIS):
            if xi:
                cls = cls + TwoTorsionClass.from_members(2, pair)
        out.append((x, cls))
    return out


# ---------------------------------------------------------------------------
# genus feasibility


@dataclass(frozen=True)
class GenusCandidate:
    """One candidate type for realising a symmetric curve of the given genus."""

    genus: int
    type: PolarizationType
    n_odd: int                      # number of odd d_i
    allowed_counts: tuple[int, ...]  # admissible branch counts for this type
    branch_count: int               # 2g+2 required by hyperellipticity
    feasible: bool


def genus_feasibility_report(g_max: int) -> list[GenusCandidate]:
    """All (genus, type) candidates with d1*d2 = g-1, d1 | d2, for genus in
    2..g_max, marked feasible when the branch count 2g+2 is admissible for
    the parity of the type (odd two-torsion counts 8, 8 +- 2^(3-s))."""
    if g_max < 2:
        raise OutOfRange(f"g_max must be >= 2, got {g_max}")
    out = []
    for g in range(2, g_max + 1):
        n = g - 1
        for d1 in range(1, math.isqrt(n) + 1):  # d1 <= d2 = n // d1
            if n % d1:
                continue
            d2 = n // d1
            if d2 % d1:
                continue
            s = (d1 % 2) + (d2 % 2)
            allowed = tuple(sorted({8, 8 + 2 ** (3 - s), 8 - 2 ** (3 - s)}))
            out.append(
                GenusCandidate(
                    genus=g,
                    type=PolarizationType(d1, d2),
                    n_odd=s,
                    allowed_counts=allowed,
                    branch_count=2 * g + 2,
                    feasible=(2 * g + 2) in allowed,
                )
            )
    return out


def feasible_genera(g_max: int) -> list[tuple[int, PolarizationType]]:
    """The feasible (genus, type) pairs: {2:(1,1), 3:(1,2), 4:(1,3), 5:(1,4)}
    and nothing else for any g_max."""
    return [(c.genus, c.type) for c in genus_feasibility_report(g_max) if c.feasible]


# ---------------------------------------------------------------------------
# kernel group of a polarization


@dataclass(frozen=True)
class KGroupInfo:
    type: PolarizationType
    cyclic_factors: tuple[int, ...]
    order: int
    two_torsion_order: int
    torsion_orbit_count: int

    def __str__(self):
        if not self.cyclic_factors:
            return "trivial"
        return " x ".join(f"Z{d}" for d in self.cyclic_factors)


def k_group_structure(t: PolarizationType) -> KGroupInfo:
    """K(L) = (Z/d1 x Z/d2)^2 for a type-(d1,d2) polarization, its order,
    the order of its 2-torsion part, and the number of orbits of the 16
    surface two-torsion points under translation by that part."""
    factors = tuple(d for d in (t.d1, t.d2, t.d1, t.d2) if d > 1)
    two = (math.gcd(2, t.d1) * math.gcd(2, t.d2)) ** 2
    return KGroupInfo(
        type=t,
        cyclic_factors=factors,
        order=(t.d1 * t.d2) ** 2,
        two_torsion_order=two,
        torsion_orbit_count=16 // two,
    )
