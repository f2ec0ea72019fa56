"""Tests for the lattice-side polarization computations.

The reference surface here is the principally polarised one: quotients by
half-torsion subgroups acquire the types (1,1), (1,4) or (1,2) depending
on the Weil-pairing structure of the kernel, and the determinant identity
d1*d2 = c^2 / [L' : Z^4] cross-checks every Smith computation.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from thetalab import (
    AlternatingForm,
    HalfTorsionSubgroup,
    Inconsistent,
    NotHalfTorsion,
    NotIntegral,
    OutOfRange,
    PolarizationType,
    RationalLattice,
    classify_klein_cover,
    enumerate_klein,
    feasible_genera,
    genus_feasibility_report,
    half_torsion_classes,
    half_torsion_dictionary,
    k_group_structure,
    lattice_weil_pairing,
    quotient_polarization_type,
    weil,
)
from thetalab.exact import integer_snf, is_integral, mat, matmul, transpose
from thetalab.lattice import smith_type

from test_exact import random_unimodular

HALF = Fraction(1, 2)


def dictionary_inverse():
    """Map from the combinatorial model back to half-torsion vectors."""
    return {cls: vect for vect, cls in half_torsion_dictionary()}


# ---------------------------------------------------------------------------
# forms and types


def test_polarization_type_validation():
    assert PolarizationType(1, 4).as_tuple() == (1, 4)
    assert str(PolarizationType(2, 2)) == "(2,2)"
    with pytest.raises(Inconsistent):
        PolarizationType(2, 3)  # 2 does not divide 3
    with pytest.raises(OutOfRange):
        PolarizationType(0, 4)


def test_standard_form_is_symplectic():
    E = AlternatingForm.standard_symplectic()
    assert E.det() == 1
    e = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert E.value(e[0], e[2]) == 1
    assert E.value(e[1], e[3]) == 1
    assert E.value(e[0], e[1]) == 0
    assert E.value(e[2], e[0]) == -1


def test_form_of_type_has_expected_determinant():
    E = AlternatingForm.of_type(1, 4)
    assert E.det() == 16  # (d1*d2)^2
    assert smith_type(E, RationalLattice.standard()) == PolarizationType(1, 4)


def test_form_antisymmetry(rng):
    E = AlternatingForm.of_type(2, 6)
    for _ in range(10):
        x = rng.integers(-5, 6, size=4).tolist()
        y = rng.integers(-5, 6, size=4).tolist()
        assert E.value(x, y) == -E.value(y, x)
        assert E.value(x, x) == 0


def test_smith_type_requires_integrality():
    E = AlternatingForm.standard_symplectic()
    L = RationalLattice.overlattice([[HALF, 0, 0, 0]])
    with pytest.raises(NotIntegral):
        smith_type(E, L)


# ---------------------------------------------------------------------------
# quotient types for the three kernel shapes


def test_quotient_type_single_two_torsion():
    for v in half_torsion_classes():
        if all(x == 0 for x in v):
            continue
        c, t = quotient_polarization_type(HalfTorsionSubgroup([v]))
        assert c == 2
        assert t == PolarizationType(1, 2)


def test_quotient_type_all_klein_groups():
    inv = dictionary_inverse()
    census = enumerate_klein(2)
    seen = {"isotropic": 0, "non": 0}
    for G in census.groups:
        g1, g2 = G.eta1, G.eta2
        sub = HalfTorsionSubgroup([inv[g1], inv[g2]])
        c, t = quotient_polarization_type(sub)
        if G.is_isotropic():
            seen["isotropic"] += 1
            assert (c, t) == (2, PolarizationType(1, 1))
        else:
            seen["non"] += 1
            assert (c, t) == (4, PolarizationType(1, 4))
    assert seen == {"isotropic": 15, "non": 20}


@functools.cache
def half_torsion_subgroups():
    """One generator list for each of the 66 nonzero subgroups of
    (1/2 Z^4)/Z^4, found by closing generator sets under addition mod Z^4.
    Built once for the module; a tuple, so no test can change it."""
    nonzero = half_torsion_classes()[1:]
    spans = {}
    for r in range(1, 5):
        for gens in itertools.combinations(nonzero, r):
            elements = {(Fraction(0),) * 4}
            for g in gens:
                elements |= {tuple((x + y) % 1 for x, y in zip(g, e)) for e in elements}
            spans.setdefault(frozenset(elements), gens)
    return tuple(spans.values())


def prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def fraction_type(gens, E, c):
    """Smith divisors of c * B^T E B, with B the overlattice basis, from a
    plain Fraction product: a reference that shares no code with the
    integer Gram matrix of AlternatingForm."""
    B = RationalLattice.overlattice(gens).basis
    G = [[c * x for x in row] for row in matmul(matmul(transpose(B), E.gram), B)]
    assert is_integral(G)
    return integer_snf([[int(x) for x in row] for row in G])


@pytest.mark.parametrize("E", [AlternatingForm.standard_symplectic(),
                               AlternatingForm.of_type(1, 2)])
def test_quotient_multiplier_is_least(E):
    subgroups = half_torsion_subgroups()
    assert len(subgroups) == 15 + 35 + 15 + 1
    for gens in subgroups:
        c, t = quotient_polarization_type(HalfTorsionSubgroup(gens), E)
        L = RationalLattice.overlattice(gens)
        assert is_integral(E.scaled(c).gram_on(L.basis))
        for p in prime_factors(c):
            assert not is_integral(E.scaled(Fraction(c, p)).gram_on(L.basis))
        assert fraction_type(gens, E, c) == [t.d1, t.d1, t.d2, t.d2]


def test_quotient_multiplier_clears_odd_denominators():
    # the principal form divided by 3 needs a multiplier divisible by 3;
    # the scaled form is then the principal one's, so the type is too
    third = AlternatingForm.standard_symplectic().scaled(Fraction(1, 3))
    for gens in half_torsion_subgroups():
        sub = HalfTorsionSubgroup(gens)
        c, t = quotient_polarization_type(sub, third)
        c0, t0 = quotient_polarization_type(sub)
        assert (c, t) == (3 * c0, t0)
        assert fraction_type(gens, third, c) == [t.d1, t.d1, t.d2, t.d2]


def test_quotient_type_determinant_identity():
    # d1*d2 == c^2 / [L' : Z^4] for the principal reference form
    inv = dictionary_inverse()
    for G in enumerate_klein(2).groups:
        sub = HalfTorsionSubgroup([inv[G.eta1], inv[G.eta2]])
        c, t = quotient_polarization_type(sub)
        L = RationalLattice.overlattice(sub.generators)
        index = L.index_over(RationalLattice.standard())
        assert Fraction(t.d1 * t.d2) == Fraction(c * c) / index


def test_quotient_type_invariant_under_basis_change(rng):
    sub = HalfTorsionSubgroup([[HALF, 0, 0, 0], [0, HALF, 0, 0]])
    c, t = quotient_polarization_type(sub)
    E = AlternatingForm.standard_symplectic().scaled(c)
    L = RationalLattice.overlattice(sub.generators)
    for _ in range(50):
        U = random_unimodular(rng, 4)
        assert smith_type(E, L.change_basis(U)) == t


def test_quotient_type_invariant_under_lift_choice(rng):
    base = [[HALF, 0, HALF, 0], [0, HALF, 0, 0]]
    c0, t0 = quotient_polarization_type(HalfTorsionSubgroup(base))
    for _ in range(20):
        shifted = [
            [x + int(k) for x, k in zip(g, rng.integers(-3, 4, size=4))]
            for g in base
        ]
        c, t = quotient_polarization_type(HalfTorsionSubgroup(shifted))
        assert (c, t) == (c0, t0)


def test_change_basis_rejects_non_unimodular():
    L = RationalLattice.standard()
    with pytest.raises(Inconsistent):
        L.change_basis([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


# ---------------------------------------------------------------------------
# half-torsion bookkeeping


def test_half_torsion_subgroup_validation():
    with pytest.raises(NotHalfTorsion):
        HalfTorsionSubgroup([[Fraction(1, 3), 0, 0, 0]])
    with pytest.raises(NotHalfTorsion):
        HalfTorsionSubgroup([[1, 0, 0, 0]])  # integral, trivial mod Z^4
    sub = HalfTorsionSubgroup([[HALF, 0, 0, 0], [HALF, HALF, 0, 0]])
    assert sub.rank == 2
    assert sub.order == 4


def test_half_torsion_classes_complete():
    classes = half_torsion_classes()
    assert len(classes) == 16
    assert len(set(classes)) == 16
    assert all(all(x in (0, HALF) for x in v) for v in classes)


def test_lattice_weil_pairing_properties():
    classes = half_torsion_classes()
    # alternating
    for x in classes:
        assert lattice_weil_pairing(x, x) == 0
    # nondegenerate: every nonzero class pairs oddly with something
    for x in classes:
        if all(t == 0 for t in x):
            continue
        assert any(lattice_weil_pairing(x, y) == 1 for y in classes)
    # bilinear in the first slot (sum taken with a common lift)
    for x in classes[:6]:
        for y in classes[:6]:
            for z in classes[:6]:
                s = [a + b for a, b in zip(x, y)]
                if all(t.denominator == 1 for t in s):
                    continue  # x + y is integral; not a half-torsion rep
                lhs = lattice_weil_pairing(s, z)
                rhs = (lattice_weil_pairing(x, z) + lattice_weil_pairing(y, z)) % 2
                assert lhs == rhs


def test_lattice_weil_pairing_rejects_non_torsion():
    with pytest.raises(NotHalfTorsion):
        lattice_weil_pairing([Fraction(1, 4), 0, 0, 0], [HALF, 0, 0, 0])


# ---------------------------------------------------------------------------
# the dictionary with the combinatorial model


def test_dictionary_is_a_bijection():
    pairs = half_torsion_dictionary()
    assert len(pairs) == 16
    assert len({v for v, _ in pairs}) == 16
    assert len({c for _, c in pairs}) == 16
    for v, c in pairs:
        if all(x == 0 for x in v):
            assert c.is_zero()


def test_dictionary_preserves_pairing_on_all_256_pairs():
    pairs = half_torsion_dictionary()
    for v1, c1 in pairs:
        for v2, c2 in pairs:
            assert lattice_weil_pairing(v1, v2) == weil(c1, c2)


def test_dictionary_is_additive():
    # a symplectic bijection between these groups must also be linear;
    # check it explicitly since the pairing alone does not force it
    pairs = half_torsion_dictionary()
    lookup = {tuple(x % 1 for x in v): c for v, c in pairs}
    for v1, c1 in pairs:
        for v2, c2 in pairs:
            s = tuple((a + b) % 1 for a, b in zip(v1, v2))
            assert lookup[s] == c1 + c2


def test_dictionary_respects_cover_classification():
    # non-isotropic lattice Klein groups = hyperelliptic combinatorial ones
    inv = dictionary_inverse()
    for G in enumerate_klein(2).groups:
        sub = HalfTorsionSubgroup([inv[G.eta1], inv[G.eta2]])
        gens = sub.generators
        lattice_pairing = lattice_weil_pairing(gens[0], gens[1])
        assert lattice_pairing == (0 if G.is_isotropic() else 1)
        verdict = classify_klein_cover(G)
        assert (verdict.value == "Hyperelliptic") == (lattice_pairing == 1)


# ---------------------------------------------------------------------------
# feasible genera


def test_feasible_genera_exact_set():
    got = feasible_genera(20)
    assert [(g, t.as_tuple()) for g, t in got] == [
        (2, (1, 1)),
        (3, (1, 2)),
        (4, (1, 3)),
        (5, (1, 4)),
    ]


def test_feasibility_report_structure():
    report = genus_feasibility_report(200)
    for cand in report:
        assert cand.type.d1 * cand.type.d2 == cand.genus - 1
        assert cand.type.d2 % cand.type.d1 == 0
        if cand.feasible:
            assert cand.branch_count == 2 * cand.genus + 2
            assert cand.branch_count in cand.allowed_counts
        else:
            assert 2 * cand.genus + 2 not in cand.allowed_counts
    # completeness: every type with d1 * d2 = g - 1 and d1 | d2 is listed,
    # once, against a plain enumeration of all divisors of g - 1
    listed = {}
    for cand in report:
        listed.setdefault(cand.genus, []).append(cand.type.as_tuple())
    for g in range(2, 201):
        n = g - 1
        expected = [(d, n // d) for d in range(1, n + 1) if n % d == 0 and (n // d) % d == 0]
        assert sorted(listed[g]) == expected, g
    assert set(listed) == set(range(2, 201))


def test_feasibility_rejects_six_and_seven():
    report = genus_feasibility_report(8)
    six = [c for c in report if c.genus == 6]
    seven = [c for c in report if c.genus == 7]
    assert six and all(not c.feasible for c in six)
    assert seven and all(not c.feasible for c in seven)
    # the only factorizations are (1,5) and (1,6); one odd divisor count
    # differs, so the admissible branch counts differ too
    assert {(c.type.d1, c.type.d2) for c in six} == {(1, 5)}
    assert {(c.type.d1, c.type.d2) for c in seven} == {(1, 6)}


def test_feasibility_admissible_counts_follow_parity():
    for cand in genus_feasibility_report(20):
        s = sum(1 for d in (cand.type.d1, cand.type.d2) if d % 2)
        step = 2 ** (3 - s)
        assert sorted(cand.allowed_counts) == sorted({8, 8 - step, 8 + step})


def test_feasibility_rejects_tiny_bound():
    with pytest.raises(OutOfRange):
        genus_feasibility_report(1)


# ---------------------------------------------------------------------------
# kernel group structure


def test_k_group_structure():
    info = k_group_structure(PolarizationType(1, 4))
    assert info.cyclic_factors == (4, 4)
    assert info.order == 16
    assert info.two_torsion_order == 4
    assert info.torsion_orbit_count == 4
    info = k_group_structure(PolarizationType(1, 1))
    assert info.order == 1
    assert str(info) == "trivial"
    info = k_group_structure(PolarizationType(2, 2))
    assert info.order == 16
    assert info.cyclic_factors == (2, 2, 2, 2)
    assert info.two_torsion_order == 16
