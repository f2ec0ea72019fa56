"""Two-torsion of hyperelliptic Jacobians as even subsets of marked points.

A genus-g hyperelliptic curve has 2g+2 branch points, indexed 1..2g+2.
Two-torsion classes are even subsets modulo complement, the group F2^(2g).
A class is a bit mask (bit i-1 for point i) normalised to the smaller of
the mask and its complement, so point 2g+2 is never in it: addition is XOR
and the Weil pairing is the parity of the popcount of the AND.  The shown
representative is the smaller subset, with lexicographic tie-break at
cardinality g+1.  F2 ranks and orthogonal complements go through one
routine, ``echelon``.  The census builds each subgroup once, from its first
generators in display order (weight, then members): each is the first class
of the subgroup outside the span of those before it.  Among the
display-ordered combinations a tuple passes this test only for its own
subgroup's first tuple, so no subgroup needs a canonical key.

On top of the group structure this module classifies Klein (Z2 x Z2)
subgroups and their (Z2 x Z2)-coverings: isotropy under the pairing,
hyperellipticity of the covering curve, the distribution of Weierstrass
points in an unramified double cover, and the existence of isotropic
Klein subgroups inside every Z2^3.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import (
    Degenerate,
    GenusMismatch,
    NotWeightTwo,
    OutOfRange,
    TooLarge,
    ZeroClass,
)


def echelon(vectors) -> list[int]:
    """Reduced echelon basis of the F2 span of the bit vectors, highest
    leading bit first: as a tuple it is a canonical key of the span.
    ``min(v, v ^ b)`` clears the leading bit of b from v."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
    return sorted(basis, reverse=True)


def span(basis) -> list[int]:
    """The 2^k elements of the span of k independent bit vectors, zero first."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


@dataclass(frozen=True)
class TwoTorsionClass:
    """A normalised mask, taken unchecked; from_members and from_pair check."""

    genus: int
    mask: int  # bit i-1 for branch point i; point 2g+2 never set

    @classmethod
    def zero(cls, genus: int) -> "TwoTorsionClass":
        return cls.from_members(genus, ())

    @classmethod
    def from_members(cls, genus: int, members) -> "TwoTorsionClass":
        if genus < 1:
            raise OutOfRange(f"genus {genus} < 1")
        n = 2 * genus + 2
        members = frozenset(members)
        if not all(isinstance(i, int) and 1 <= i <= n for i in members):
            raise OutOfRange(f"members {sorted(members)} not within 1..{n}")
        if len(members) % 2:
            raise OutOfRange(f"odd cardinality {len(members)}")
        mask = sum(1 << (i - 1) for i in members)
        return cls(genus, min(mask, mask ^ ((1 << n) - 1)))

    @classmethod
    def from_pair(cls, genus: int, i: int, j: int) -> "TwoTorsionClass":
        """The difference of the branch points i and j."""
        if i == j:
            raise OutOfRange(f"pair indices must differ, got {i}, {j}")
        return cls.from_members(genus, (i, j))

    def __add__(self, other: "TwoTorsionClass") -> "TwoTorsionClass":
        if self.genus != other.genus:
            raise GenusMismatch(f"genus {self.genus} vs {other.genus}")
        return TwoTorsionClass(self.genus, self.mask ^ other.mask)

    def _shown(self) -> int:
        """Mask of the shown subset (at weight g+1, the one holding point 1)."""
        w = self.mask.bit_count()
        if w > self.genus + 1 or (w == self.genus + 1 and not self.mask & 1):
            return self.mask ^ ((1 << (2 * self.genus + 2)) - 1)
        return self.mask

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.sorted_members())

    @property
    def weight(self) -> int:
        return self._shown().bit_count()

    def is_zero(self) -> bool:
        return not self.mask

    def sorted_members(self) -> tuple[int, ...]:
        m = self._shown()
        return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)

    def __repr__(self):
        return f"TwoTorsionClass(g={self.genus}, {set(self.sorted_members()) or '{}'})"


def _display_order(c: TwoTorsionClass) -> tuple:
    return (c.weight, c.sorted_members())


def _pairing(a: int, b: int) -> int:
    """Weil pairing of two masks: the parity of the popcount of a & b."""
    return (a & b).bit_count() & 1


def weil(a: TwoTorsionClass, b: TwoTorsionClass) -> int:
    """Weil pairing: parity of |S intersect T| (well defined mod complement)."""
    if a.genus != b.genus:
        raise GenusMismatch(f"genus {a.genus} vs {b.genus}")
    return _pairing(a.mask, b.mask)


def all_classes(genus: int) -> list[TwoTorsionClass]:
    """All 2^(2g) two-torsion classes, sorted by weight then members."""
    TwoTorsionClass.zero(genus)  # validates the genus
    out = [TwoTorsionClass(genus, m) for m in range(1 << (2 * genus + 1))
           if not m.bit_count() & 1]
    out.sort(key=_display_order)
    return out


def nonzero_classes(genus: int) -> list[TwoTorsionClass]:
    return [c for c in all_classes(genus) if not c.is_zero()]


def is_weierstrass_difference(eta: TwoTorsionClass) -> bool:
    """True iff the class is the difference of two branch points."""
    return eta.weight == 2


def double_cover_is_hyperelliptic(eta: TwoTorsionClass) -> bool:
    """The unramified double cover attached to eta is hyperelliptic exactly
    when eta is a difference of two branch points."""
    if eta.is_zero():
        raise ZeroClass("the trivial class defines a split, not a connected, cover")
    return is_weierstrass_difference(eta)


# ---------------------------------------------------------------------------
# Klein subgroups


class KleinSubgroup:
    """Subgroup {0, eta1, eta2, eta1+eta2} of the two-torsion group."""

    def __init__(self, eta1: TwoTorsionClass, eta2: TwoTorsionClass):
        if eta1.genus != eta2.genus:
            raise GenusMismatch(f"genus {eta1.genus} vs {eta2.genus}")
        if not (eta1.mask and eta2.mask):
            raise ZeroClass("Klein subgroup generators must be nonzero")
        if eta1.mask == eta2.mask:
            raise Degenerate("generators coincide; the subgroup is cyclic")
        self.eta1 = eta1
        self.eta2 = eta2
        self.genus = eta1.genus

    def elements(self) -> frozenset[TwoTorsionClass]:
        return frozenset(
            (TwoTorsionClass.zero(self.genus), self.eta1, self.eta2, self.eta1 + self.eta2)
        )

    def nonzero_elements(self) -> tuple[TwoTorsionClass, ...]:
        return tuple(sorted((self.eta1, self.eta2, self.eta1 + self.eta2), key=_display_order))

    def is_isotropic(self) -> bool:
        return weil(self.eta1, self.eta2) == 0

    def __eq__(self, other):
        return isinstance(other, KleinSubgroup) and self.elements() == other.elements()

    def __hash__(self):
        return hash((self.genus, self.elements()))

    def __repr__(self):
        e = [set(c.sorted_members()) or "{}" for c in self.nonzero_elements()]
        return f"KleinSubgroup(g={self.genus}, {e[0]}, {e[1]}, {e[2]})"


class CoverClass(Enum):
    HYPERELLIPTIC = "Hyperelliptic"
    NOT_HYPERELLIPTIC = "NotHyperelliptic"
    UNDETERMINED = "Undetermined"


def _cover_class(a: int, b: int, n: int) -> CoverClass:
    """classify_klein_cover's verdict on the masks a, b of two generators,
    with n = 2g + 2 branch points: a mask's weight is the size of its
    smaller representative, min(popcount m, n - popcount m)."""
    if not _pairing(a, b):
        return CoverClass.NOT_HYPERELLIPTIC
    for m in (a, b, a ^ b):
        w = m.bit_count()
        if min(w, n - w) != 2:
            return CoverClass.UNDETERMINED
    return CoverClass.HYPERELLIPTIC


def classify_klein_cover(G: KleinSubgroup) -> CoverClass:
    """Hyperellipticity of the connected (Z2 x Z2)-covering defined by G.

    Non-isotropic groups whose three nonzero classes are all differences
    of branch points give hyperelliptic coverings; isotropic groups never
    do.  Non-isotropic groups with a heavier generator (possible from
    genus 3 on) are left undetermined.
    """
    return _cover_class(G.eta1.mask, G.eta2.mask, 2 * G.genus + 2)


@dataclass
class KleinCensus:
    genus: int
    total: int
    isotropic: int
    non_isotropic: int
    hyperelliptic: int
    undetermined: int
    pairs: list[tuple[int, int]]  # each group's generator masks, in census order

    @functools.cached_property
    def groups(self) -> list[KleinSubgroup]:
        """The groups in census order, built from `pairs` on first access."""
        g = self.genus
        return [KleinSubgroup(TwoTorsionClass(g, a), TwoTorsionClass(g, b)) for a, b in self.pairs]


_ENUM_GENUS_CAP = 4


def enumerate_klein(genus: int) -> KleinCensus:
    """Census of all Klein subgroups, each counted once; genus capped at 4."""
    if genus > _ENUM_GENUS_CAP:
        raise TooLarge(f"genus {genus} > {_ENUM_GENUS_CAP}: {4**genus} classes")
    masks = [c.mask for c in nonzero_classes(genus)]
    rank = {m: i for i, m in enumerate(masks)}
    n = 2 * genus + 2
    pairs, kinds = [], []
    for i, a in enumerate(masks):
        for j, b in enumerate(masks[i + 1:], i + 1):
            # (a, b) is its group's first pair when a + b ranks after b
            if rank[a ^ b] > j:
                pairs.append((a, b))
                kinds.append(_cover_class(a, b, n))
    iso = kinds.count(CoverClass.NOT_HYPERELLIPTIC)
    return KleinCensus(
        genus=genus,
        total=len(pairs),
        isotropic=iso,
        non_isotropic=len(pairs) - iso,
        hyperelliptic=kinds.count(CoverClass.HYPERELLIPTIC),
        undetermined=kinds.count(CoverClass.UNDETERMINED),
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# orthogonal complements


def perp_basis(G: KleinSubgroup) -> list[TwoTorsionClass]:
    """Echelon basis of the (2g-2)-dimensional orthogonal complement of G
    under the Weil pairing, from the masks of the classes orthogonal to it."""
    if G.genus > 6:
        raise TooLarge(f"genus {G.genus} enumeration not supported")
    orthogonal = (c.mask for c in nonzero_classes(G.genus)
                  if weil(c, G.eta1) == 0 and weil(c, G.eta2) == 0)
    return [TwoTorsionClass(G.genus, m) for m in echelon(orthogonal)]


def orthogonal_complement(G: KleinSubgroup) -> KleinSubgroup:
    """The complement of a Klein subgroup is again a Klein subgroup only in
    genus 2, where dim = 2g - 2 = 2."""
    if G.genus != 2:
        raise GenusMismatch(
            f"complement has dimension {2 * G.genus - 2} > 2 in genus {G.genus}"
        )
    b = perp_basis(G)
    return KleinSubgroup(b[0], b[1])


# ---------------------------------------------------------------------------
# covers


def etale_cover_genus(genus: int, degree: int) -> int:
    """Genus of a connected unramified degree-n cover of a genus-g curve."""
    if genus < 0 or degree < 1:
        raise OutOfRange(f"genus {genus}, degree {degree}")
    return degree * (genus - 1) + 1


@dataclass
class CoveringDatum:
    """Weierstrass bookkeeping for the unramified double cover attached to
    a difference of branch points eta = [i - j].

    The cover is hyperelliptic of genus 2g-1; every branch point k outside
    {i, j} lifts to two Weierstrass points of the cover, while the fibres
    over i and j consist of points fixed by the composite of the lifted
    hyperelliptic involution with the deck involution.
    """

    eta: TwoTorsionClass
    base_genus: int
    cover_genus: int
    weierstrass_fibres: dict[int, tuple[str, str]]
    composite_fixed_fibres: dict[int, tuple[str, str]]

    def weierstrass_count(self) -> int:
        return 2 * len(self.weierstrass_fibres)


def covering_weierstrass_distribution(eta: TwoTorsionClass) -> CoveringDatum:
    if eta.is_zero():
        raise ZeroClass("need a nonzero class")
    if eta.weight != 2:
        raise NotWeightTwo(f"class has weight {eta.weight}")
    g = eta.genus
    i, j = eta.sorted_members()
    others = [k for k in range(1, 2 * g + 3) if k not in (i, j)]
    return CoveringDatum(
        eta=eta,
        base_genus=g,
        cover_genus=2 * g - 1,
        weierstrass_fibres={k: (f"{k}+", f"{k}-") for k in others},
        composite_fixed_fibres={k: (f"{k}+", f"{k}-") for k in (i, j)},
    )


# ---------------------------------------------------------------------------
# Z2^3 subgroups


@dataclass
class Z23Report:
    genus: int
    n_subgroups: int
    n_with_isotropic_klein: int
    witnesses: list[tuple[tuple[TwoTorsionClass, ...], KleinSubgroup]]

    @property
    def all_contain(self) -> bool:
        return self.n_with_isotropic_klein == self.n_subgroups


_Z23_GENUS_CAP = 3


def z23_contains_isotropic(genus: int, keep_witnesses: int = 3) -> Z23Report:
    """Check that every Z2^3 subgroup of the two-torsion group contains an
    isotropic Klein subgroup (restriction of an alternating form to an
    odd-dimensional space has a nonzero radical)."""
    if genus > _Z23_GENUS_CAP:
        raise TooLarge(f"genus {genus} > {_Z23_GENUS_CAP}")
    nz = [c.mask for c in nonzero_classes(genus)]
    rank = {m: i for i, m in enumerate(nz)}
    total = found = 0
    witnesses = []
    # each group's first triple: x, y its first two classes (so x + y ranks
    # after y), z the first class of its coset z + <x, y>
    for i, x in enumerate(nz):
        for j, y in enumerate(nz[i + 1:], i + 1):
            xy = x ^ y
            if rank[xy] < j:
                continue
            for k, z in enumerate(nz[j + 1:], j + 1):
                if z == xy or k > min(rank[z ^ x], rank[z ^ y], rank[z ^ xy]):
                    continue
                total += 1
                elements = sorted(span((x, y, z))[1:], key=rank.__getitem__)
                pair = next(((s, t) for s, t in itertools.combinations(elements, 2)
                             if not _pairing(s, t)), None)
                if pair is not None:
                    found += 1
                    if len(witnesses) < keep_witnesses:
                        cls = [TwoTorsionClass(genus, m) for m in (x, y, z, *pair)]
                        witnesses.append((tuple(cls[:3]), KleinSubgroup(*cls[3:])))
    return Z23Report(genus, total, found, witnesses)
