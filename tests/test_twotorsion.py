"""Tests for the combinatorial two-torsion model of a hyperelliptic curve.

Classes are even subsets of the branch labels modulo complement, paired by
intersection parity.  Counting oracles: the Gaussian binomial for line/
plane counts over F2, and C(2g+2, k) for small-weight class counts.
"""

import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetalab import (
    CoverClass,
    Degenerate,
    GenusMismatch,
    KleinSubgroup,
    NotWeightTwo,
    TooLarge,
    TwoTorsionClass,
    ZeroClass,
    all_classes,
    classify_klein_cover,
    covering_weierstrass_distribution,
    double_cover_is_hyperelliptic,
    enumerate_klein,
    etale_cover_genus,
    is_weierstrass_difference,
    nonzero_classes,
    orthogonal_complement,
    perp_basis,
    weil,
    z23_contains_isotropic,
)
from thetalab.twotorsion import echelon, span


# ---------------------------------------------------------------------------
# class arithmetic and canonicalization


def test_class_counts():
    assert len(all_classes(2)) == 16
    assert len(all_classes(3)) == 64
    assert len(nonzero_classes(2)) == 15


def test_canonical_representatives():
    # a 4-subset at genus 2 is the complement of a 2-subset
    c = TwoTorsionClass.from_members(2, {3, 4, 5, 6})
    assert c == TwoTorsionClass.from_pair(2, 1, 2)
    assert c.weight == 2
    # the full set is the zero class
    z = TwoTorsionClass.from_members(2, {1, 2, 3, 4, 5, 6})
    assert z.is_zero()
    # self-complementary weights use the lexicographic tie-break
    c3 = TwoTorsionClass.from_members(3, {5, 6, 7, 8})
    assert c3.sorted_members() == (1, 2, 3, 4)


def test_addition_is_symmetric_difference_mod_complement():
    a = TwoTorsionClass.from_pair(2, 1, 2)
    b = TwoTorsionClass.from_pair(2, 2, 3)
    assert a + b == TwoTorsionClass.from_pair(2, 1, 3)
    assert (a + a).is_zero()
    # adding the complement representative gives the same result
    b2 = TwoTorsionClass.from_members(2, {1, 4, 5, 6})
    assert b == b2
    assert a + b2 == a + b


def test_addition_requires_same_genus():
    with pytest.raises(GenusMismatch):
        TwoTorsionClass.from_pair(2, 1, 2) + TwoTorsionClass.from_pair(3, 1, 2)


def test_group_axioms_random(rng):
    classes = all_classes(3)
    idx = rng.integers(0, len(classes), size=(60, 3))
    zero = TwoTorsionClass.zero(3)
    for i, j, k in idx:
        a, b, c = classes[i], classes[j], classes[k]
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert (a + a).is_zero()


def test_weight_distribution_genus2():
    # nonzero classes at genus 2 are exactly the C(6,2) = 15 pairs
    weights = [c.weight for c in nonzero_classes(2)]
    assert weights.count(2) == 15


def test_weight_distribution_genus3():
    # 64 classes: 1 zero + C(8,2)=28 pairs + C(8,4)/2=35 self-paired quads
    weights = [c.weight for c in all_classes(3)]
    assert weights.count(0) == 1
    assert weights.count(2) == comb(8, 2)
    assert weights.count(4) == comb(8, 4) // 2


# ---------------------------------------------------------------------------
# the bit-mask model against a frozenset oracle


@st.composite
def even_subsets(draw):
    """A genus in 1..6 and two even subsets S, T of its branch points."""
    genus = draw(st.integers(1, 6))
    points = st.sampled_from(range(1, 2 * genus + 3))

    def even():
        s = draw(st.frozensets(points))
        return s ^ {draw(points)} if len(s) % 2 else s

    return genus, even(), even()


def oracle_representative(genus, s):
    """The smaller of S and its complement, lexicographic at a tie."""
    comp = frozenset(range(1, 2 * genus + 3)) - s
    return min(tuple(sorted(s)), tuple(sorted(comp)), key=lambda t: (len(t), t))


@given(even_subsets())
def test_mask_model_matches_subset_oracle(data):
    genus, S, T = data
    a = TwoTorsionClass.from_members(genus, S)
    b = TwoTorsionClass.from_members(genus, T)
    assert a + b == TwoTorsionClass.from_members(genus, S ^ T)
    assert weil(a, b) == len(S & T) % 2
    for s, c in ((S, a), (T, b), (S ^ T, a + b)):
        assert c.sorted_members() == oracle_representative(genus, s)
        assert c.members == frozenset(c.sorted_members())
        assert c.weight == len(c.sorted_members())
        assert c.is_zero() == (not c.sorted_members())


@given(st.lists(st.integers(0, 2**8 - 1), max_size=8))
def test_echelon_rank_and_span_match_brute_force(vectors):
    brute = {0}
    for v in vectors:
        brute |= {x ^ v for x in brute}
    basis = echelon(vectors)
    assert 2 ** len(basis) == len(brute)
    assert sorted(span(basis)) == sorted(brute)
    # the basis is a canonical key of the span
    assert echelon(sorted(brute)) == basis


# ---------------------------------------------------------------------------
# the pairing


def test_weil_matches_intersection_parity():
    a = TwoTorsionClass.from_pair(2, 1, 2)
    assert weil(a, TwoTorsionClass.from_pair(2, 3, 4)) == 0  # disjoint
    assert weil(a, TwoTorsionClass.from_pair(2, 2, 3)) == 1  # share one
    assert weil(a, a) == 0


def test_weil_well_defined_on_complements():
    # |S cap T| mod 2 is unchanged when T is replaced by its complement,
    # because |S| is even
    a = TwoTorsionClass.from_pair(3, 1, 2)
    b1 = TwoTorsionClass.from_members(3, {2, 3})
    b2 = TwoTorsionClass.from_members(3, {1, 4, 5, 6, 7, 8})
    assert b1 == b2
    assert weil(a, b1) == weil(a, b2) == 1


def test_weil_bilinear_random(rng):
    classes = all_classes(3)
    idx = rng.integers(0, len(classes), size=(80, 3))
    for i, j, k in idx:
        a, b, c = classes[i], classes[j], classes[k]
        assert weil(a + b, c) == (weil(a, c) + weil(b, c)) % 2
        assert weil(a, b) == weil(b, a)  # alternating => symmetric over F2


@pytest.mark.parametrize("genus", [2, 3])
def test_weil_nondegenerate(genus):
    for a in nonzero_classes(genus):
        assert any(weil(a, b) for b in nonzero_classes(genus))


def test_weil_requires_same_genus():
    with pytest.raises(GenusMismatch):
        weil(TwoTorsionClass.from_pair(2, 1, 2), TwoTorsionClass.from_pair(3, 1, 2))


# ---------------------------------------------------------------------------
# Klein subgroups: census and classification


def test_klein_census_genus2():
    census = enumerate_klein(2)
    assert census.total == 35
    assert census.isotropic == 15
    assert census.non_isotropic == 20
    assert census.hyperelliptic == 20
    assert census.undetermined == 0


def test_klein_census_cross_checks():
    census = enumerate_klein(2)
    # planes in F2^4 via the Gaussian binomial
    assert census.total == (2**4 - 1) * (2**4 - 2) // ((2**2 - 1) * (2**2 - 2))
    # non-isotropic groups are triangles {ij, ik, jk} <-> 3-subsets of 6
    assert census.non_isotropic == comb(6, 3)
    triangles = set()
    for G in census.groups:
        if not G.is_isotropic():
            support = frozenset().union(
                *(c.sorted_members() for c in G.nonzero_elements())
            )
            assert len(support) == 3
            triangles.add(support)
    assert len(triangles) == 20


def test_klein_census_genus3_counts():
    census = enumerate_klein(3)
    # planes in F2^6
    assert census.total == (2**6 - 1) * (2**6 - 2) // ((2**2 - 1) * (2**2 - 2))
    # totally isotropic planes of a 6-dim symplectic space over F2:
    # (2^6 - 1)(2^5 - 2) ordered bases / (2^2 - 1)(2^2 - 2) per plane
    assert census.isotropic == (2**6 - 1) * (2**5 - 2) // 6 == 315
    assert census.non_isotropic == census.total - 315
    # hyperelliptic ones are still the triangles on the 8 branch points
    assert census.hyperelliptic == comb(8, 3)
    assert census.undetermined > 0  # heavier generators appear from g=3


def first_by_echelon_key(genus, k):
    """Reference census: the display-ordered k-combinations of nonzero
    masks, keeping the first tuple to span each rank-k subgroup (keyed by
    its echelon basis)."""
    seen = {}
    for gens in itertools.combinations([c.mask for c in nonzero_classes(genus)], k):
        key = tuple(echelon(gens))
        if len(key) == k:
            seen.setdefault(key, gens)
    return list(seen.values())


@pytest.mark.parametrize("genus", [2, 3])
def test_klein_census_matches_echelon_dedupe(genus):
    got = [(G.eta1.mask, G.eta2.mask) for G in enumerate_klein(genus).groups]
    assert got == first_by_echelon_key(genus, 2)


def test_klein_census_builds_groups_on_first_access():
    census = enumerate_klein(3)
    assert "groups" not in vars(census)  # the counts alone build no group
    nz = {c.mask: c for c in nonzero_classes(3)}
    assert census.groups == [KleinSubgroup(nz[a], nz[b]) for a, b in census.pairs]
    assert [(G.eta1, G.eta2) for G in census.groups] == [(nz[a], nz[b]) for a, b in census.pairs]
    assert census.groups is census.groups


def test_klein_census_genus4_count_matches_echelon_dedupe():
    assert enumerate_klein(4).total == len(first_by_echelon_key(4, 2)) == 10795


def test_klein_census_genus_cap():
    with pytest.raises(TooLarge):
        enumerate_klein(5)


def test_classify_klein_cover_cases():
    iso = KleinSubgroup(
        TwoTorsionClass.from_pair(2, 1, 2), TwoTorsionClass.from_pair(2, 3, 4)
    )
    assert classify_klein_cover(iso) is CoverClass.NOT_HYPERELLIPTIC
    tri = KleinSubgroup(
        TwoTorsionClass.from_pair(2, 1, 2), TwoTorsionClass.from_pair(2, 1, 3)
    )
    assert classify_klein_cover(tri) is CoverClass.HYPERELLIPTIC
    heavy = KleinSubgroup(
        TwoTorsionClass.from_pair(3, 1, 2),
        TwoTorsionClass.from_members(3, {2, 3, 4, 5}),
    )
    assert not heavy.is_isotropic()
    assert classify_klein_cover(heavy) is CoverClass.UNDETERMINED


def test_klein_subgroup_validation():
    a = TwoTorsionClass.from_pair(2, 1, 2)
    with pytest.raises(ZeroClass):
        KleinSubgroup(a, TwoTorsionClass.zero(2))
    with pytest.raises(Degenerate):
        KleinSubgroup(a, a)
    with pytest.raises(GenusMismatch):
        KleinSubgroup(a, TwoTorsionClass.from_pair(3, 1, 2))


def test_klein_subgroup_equality_ignores_generator_choice():
    a = TwoTorsionClass.from_pair(2, 1, 2)
    b = TwoTorsionClass.from_pair(2, 1, 3)
    assert KleinSubgroup(a, b) == KleinSubgroup(b, a + b)
    assert hash(KleinSubgroup(a, b)) == hash(KleinSubgroup(a + b, a))


# ---------------------------------------------------------------------------
# orthogonal complements


def test_complement_exhaustive_genus2():
    for G in enumerate_klein(2).groups:
        Gp = orthogonal_complement(G)
        assert orthogonal_complement(Gp) == G  # involution
        if G.is_isotropic():
            # a 2-dim isotropic subspace of a 4-dim symplectic space is
            # its own perp (Lagrangian)
            assert Gp == G
        else:
            assert Gp.is_isotropic() is False
            assert G.elements() & Gp.elements() == {TwoTorsionClass.zero(2)}


def test_complement_respects_pairing():
    G = KleinSubgroup(
        TwoTorsionClass.from_pair(2, 1, 4), TwoTorsionClass.from_pair(2, 2, 5)
    )
    for x in orthogonal_complement(G).nonzero_elements():
        assert weil(x, G.eta1) == 0
        assert weil(x, G.eta2) == 0


def test_complement_restricted_to_genus2():
    G = KleinSubgroup(
        TwoTorsionClass.from_pair(3, 1, 2), TwoTorsionClass.from_pair(3, 3, 4)
    )
    with pytest.raises(GenusMismatch):
        orthogonal_complement(G)


@pytest.mark.parametrize("genus", [2, 3])
def test_perp_basis_dimension_and_orthogonality(genus):
    G = KleinSubgroup(
        TwoTorsionClass.from_pair(genus, 1, 2), TwoTorsionClass.from_pair(genus, 1, 3)
    )
    basis = perp_basis(G)
    assert len(basis) == 2 * genus - 2
    for v in basis:
        assert weil(v, G.eta1) == 0
        assert weil(v, G.eta2) == 0
    # basis spans 2^(2g-2) distinct classes: accumulate the F2 span
    span = {TwoTorsionClass.zero(genus)}
    for v in basis:
        span |= {s + v for s in span}
    assert len(span) == 2 ** (2 * genus - 2)


def test_isotropic_iff_contained_in_perp():
    for G in enumerate_klein(3).groups[:200]:
        basis = perp_basis(G)
        span = {TwoTorsionClass.zero(3)}
        for v in basis:
            span |= {s + v for s in span}
        contained = set(G.elements()) <= span
        assert contained == G.is_isotropic()


# ---------------------------------------------------------------------------
# covers


def test_etale_cover_genus():
    assert etale_cover_genus(2, 2) == 3
    assert etale_cover_genus(2, 4) == 5  # the Klein covering of a genus-2 curve
    assert etale_cover_genus(5, 1) == 5


def test_weierstrass_difference_predicate():
    assert is_weierstrass_difference(TwoTorsionClass.from_pair(2, 1, 2))
    quad = TwoTorsionClass.from_members(3, {1, 2, 3, 4})
    assert not is_weierstrass_difference(quad)
    assert double_cover_is_hyperelliptic(TwoTorsionClass.from_pair(3, 2, 7))
    assert not double_cover_is_hyperelliptic(quad)
    with pytest.raises(ZeroClass):
        double_cover_is_hyperelliptic(TwoTorsionClass.zero(2))


@pytest.mark.parametrize("genus", [2, 3, 5])
def test_covering_weierstrass_distribution(genus):
    eta = TwoTorsionClass.from_pair(genus, 1, 2)
    d = covering_weierstrass_distribution(eta)
    assert d.cover_genus == 2 * genus - 1
    # a hyperelliptic curve of genus 2g-1 has 2(2g-1)+2 = 4g Weierstrass
    # points, two over each branch point away from the pair {i, j}
    assert d.weierstrass_count() == 2 * (2 * genus - 1) + 2
    assert set(d.weierstrass_fibres) == set(range(3, 2 * genus + 3))
    assert set(d.composite_fixed_fibres) == {1, 2}
    fibre_names = list(itertools.chain(*d.weierstrass_fibres.values()))
    assert len(fibre_names) == len(set(fibre_names))


def test_covering_distribution_rejects_bad_classes():
    with pytest.raises(ZeroClass):
        covering_weierstrass_distribution(TwoTorsionClass.zero(2))
    with pytest.raises(NotWeightTwo):
        covering_weierstrass_distribution(
            TwoTorsionClass.from_members(3, {1, 2, 3, 4})
        )


# ---------------------------------------------------------------------------
# Z2^3 subgroups always contain an isotropic plane


@pytest.mark.parametrize("genus,count", [(2, 15), (3, 1395)])
def test_z23_always_contains_isotropic(genus, count):
    rep = z23_contains_isotropic(genus)
    assert rep.n_subgroups == count
    assert rep.all_contain
    for triple, G in rep.witnesses:
        assert G.is_isotropic()
        # the witness subgroup lies in the span of the generating triple
        span = {TwoTorsionClass.zero(genus)}
        for v in triple:
            span |= {s + v for s in span}
        assert set(G.elements()) <= span


@pytest.mark.parametrize("genus", [2, 3])
def test_z23_matches_echelon_dedupe(genus):
    order = {c.mask: i for i, c in enumerate(nonzero_classes(genus))}
    found, witnesses = 0, []
    for triple in first_by_echelon_key(genus, 3):
        elements = sorted(span(echelon(triple))[1:], key=order.__getitem__)
        pair = next(((a, b) for a, b in itertools.combinations(elements, 2)
                     if not (a & b).bit_count() & 1), None)
        if pair is not None:
            found += 1
            if len(witnesses) < 3:
                witnesses.append((triple, pair))
    rep = z23_contains_isotropic(genus)
    assert rep.n_subgroups == len(first_by_echelon_key(genus, 3))
    assert rep.n_with_isotropic_klein == found
    assert [(tuple(c.mask for c in t), (G.eta1.mask, G.eta2.mask))
            for t, G in rep.witnesses] == witnesses


def test_z23_count_is_gaussian_binomial():
    # 3-dim subspaces of F2^4: product formula (15*14*12)/(7*6*4)
    rep = z23_contains_isotropic(2)
    assert rep.n_subgroups == (15 * 14 * 12) // (7 * 6 * 4)


def test_z23_genus_cap():
    with pytest.raises(TooLarge):
        z23_contains_isotropic(4)
