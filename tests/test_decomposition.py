"""Tests for the exact character-theoretic decomposition machinery."""

from fractions import Fraction

import pytest

from thetalab import (
    ActionData,
    CharacterLabel,
    Inconsistent,
    NonIntegerGenus,
    all_characters,
    assemble_decomposition,
    group_algebra_projector,
    isotypic_multiplicities,
    lefschetz_trace,
    quotient_genus,
    subgroup_from_names,
    subgroup_name,
    subgroups_z23,
    validate_presentation,
)
from thetalab.decomposition import ELEMENT_NAMES, IDENTITY, _convolve, _mul


# ---------------------------------------------------------------------------
# characters and the group


def test_characters_are_homomorphisms():
    elements = list(ELEMENT_NAMES)
    for chi in all_characters():
        for a in elements:
            for b in elements:
                assert chi.value(_mul(a, b)) == chi.value(a) * chi.value(b)


def test_character_orthogonality():
    elements = list(ELEMENT_NAMES)
    chars = all_characters()
    assert len(chars) == 8
    for chi in chars:
        for psi in chars:
            dot = sum(chi.value(e) * psi.value(e) for e in elements)
            assert dot == (8 if chi == psi else 0)


def test_character_label_validation():
    with pytest.raises(Exception):
        CharacterLabel(0, 1, 1)
    assert str(CharacterLabel(-1, 1, -1)) == "(-,+,-)"


def test_subgroup_lattice_of_z23():
    subs = subgroups_z23()
    assert len(subs) == 16
    by_order = {}
    for K in subs:
        by_order.setdefault(len(K), []).append(K)
    assert {k: len(v) for k, v in by_order.items()} == {1: 1, 2: 7, 4: 7, 8: 1}
    for K in subs:
        assert IDENTITY in K
        assert all(_mul(x, y) in K for x in K for y in K)


def test_subgroup_names_round_trip():
    for K in subgroups_z23():
        name = subgroup_name(K)
        if name == "trivial":
            assert K == frozenset({IDENTITY})
        elif name == "full":
            assert len(K) == 8
        else:
            gens = name.strip("<>").split(",")
            assert subgroup_from_names(gens) == K


# ---------------------------------------------------------------------------
# multiplicities


def test_lefschetz_trace():
    assert lefschetz_trace(0) == 2
    assert lefschetz_trace(12) == -10
    assert lefschetz_trace(4) == -2


def test_standard_multiplicities():
    m = isotypic_multiplicities(ActionData.standard())
    for chi, mult in m.items():
        if chi.chi_iota == 1:
            assert mult == 0
        elif (chi.chi_sigma, chi.chi_tau) == (1, 1):
            assert mult == 4
        else:
            assert mult == 2
    assert sum(m.values()) == 10  # = 2g


def test_multiplicities_reject_odd_fixed_count():
    with pytest.raises(Inconsistent):
        ActionData(
            genus=5,
            fixed_counts={
                "sigma": 1,  # odd
                "tau": 0,
                "sigma*tau": 0,
                "iota": 12,
                "iota*sigma": 4,
                "iota*tau": 4,
                "iota*sigma*tau": 4,
            },
        )


def test_multiplicities_reject_incomplete_data():
    with pytest.raises(Inconsistent):
        ActionData(genus=5, fixed_counts={"sigma": 0})


def test_multiplicities_reject_inconsistent_counts():
    # same fixed counts on the wrong genus: averages stop being integers
    a = ActionData.standard()
    with pytest.raises(Inconsistent):
        isotypic_multiplicities(a, genus=4)


@pytest.mark.parametrize("genus,iota,shown", [
    (7, 12, "1/2"),  # 4/8 is no integer, though its floor is even
    (9, 12, "1"),    # 8/8 is an integer, but odd
    (5, 28, "-2"),   # -16/8 is an even integer, but negative
])
def test_multiplicities_reject_each_failure(genus, iota, shown):
    # the trivial character's sum 2g + sum (2 - |Fix|) fails one test each
    a = ActionData.standard()
    a = ActionData(a.genus, {**a.fixed_counts, "iota": iota})
    with pytest.raises(Inconsistent, match=f"multiplicity of \\(\\+,\\+,\\+\\) is {shown}, not"):
        isotypic_multiplicities(a, genus=genus)


# ---------------------------------------------------------------------------
# quotient genera


EXPECTED_GENUS_TABLE = {
    "trivial": 5,
    "<sigma>": 3,
    "<tau>": 3,
    "<sigma*tau>": 3,
    "<iota>": 0,
    "<iota*sigma>": 2,
    "<iota*tau>": 2,
    "<iota*sigma*tau>": 2,
    "<sigma,tau>": 2,
    "<sigma,iota>": 0,
    "<sigma,iota*tau>": 1,
    "<tau,iota>": 0,
    "<tau,iota*sigma>": 1,
    "<sigma*tau,iota>": 0,
    "<sigma*tau,iota*sigma>": 1,
    "full": 0,
}


def test_quotient_genus_table():
    a = ActionData.standard()
    table = {subgroup_name(K): quotient_genus(a, K) for K in subgroups_z23()}
    assert table == EXPECTED_GENUS_TABLE


def test_quotient_genus_by_names():
    a = ActionData.standard()
    assert quotient_genus(a, ["sigma"]) == 3
    assert quotient_genus(a, ["iota"]) == 0
    assert quotient_genus(a, ["iota*sigma"]) == 2
    assert quotient_genus(a, ["sigma", "tau"]) == 2
    assert quotient_genus(a, ["sigma", "iota*tau"]) == 1


def test_quotient_genus_raises_on_impossible_data():
    # genus 4 with these counts fails Riemann-Hurwitz integrality for iota
    a = ActionData.standard()
    with pytest.raises((NonIntegerGenus, Inconsistent)):
        quotient_genus(a, ["iota"], genus=4)


# ---------------------------------------------------------------------------
# projectors


def test_projectors_idempotent_orthogonal_complete():
    chars = all_characters()
    projectors = {chi: group_algebra_projector(chi) for chi in chars}
    zero = {e: Fraction(0) for e in ELEMENT_NAMES}
    unit = {e: Fraction(1 if e == IDENTITY else 0) for e in ELEMENT_NAMES}
    total = dict(zero)
    for chi in chars:
        p = projectors[chi]
        assert _convolve(p, p) == p
        for psi in chars:
            if psi != chi:
                assert _convolve(p, projectors[psi]) == zero
        for e, c in p.items():
            total[e] += c
    assert total == unit


def test_projector_coefficients_are_eighths():
    p = group_algebra_projector(CharacterLabel(-1, 1, 1))
    assert all(abs(c) == Fraction(1, 8) for c in p.values())
    assert p[IDENTITY] == Fraction(1, 8)


# ---------------------------------------------------------------------------
# assembled presentations


def test_assembled_main_presentation():
    res = assemble_decomposition()
    assert res.main.total_dim == 5
    assert res.main.dims() == (2, 1, 1, 1)
    types = [s.restricted_type for s in res.main.slots]
    assert types == [(1, 4), (4,), (4,), (4,)]


def test_assembled_quotient_presentations():
    res = assemble_decomposition()
    assert set(res.quotients) == {
        "JC_sigma",
        "JC_tau",
        "JC_sigma*tau",
        "JC_iota*sigma",
        "JC_iota*tau",
        "JC_iota*sigma*tau",
    }
    for k in ("sigma", "tau", "sigma*tau"):
        pres = res.quotients[f"JC_{k}"]
        assert pres.total_dim == 3
        assert pres.dims() == (2, 1)
        assert pres.slots[0].restricted_type == (1, 2)
        assert pres.slots[1].restricted_type == (2,)
        pres2 = res.quotients[f"JC_iota*{k}"]
        assert pres2.total_dim == 2
        assert pres2.dims() == (1, 1)
        assert all(s.restricted_type == (2,) for s in pres2.slots)


def test_assembled_genus_table():
    res = assemble_decomposition()
    assert res.genus_table == EXPECTED_GENUS_TABLE


def test_validation_report_all_pass():
    report = validate_presentation(assemble_decomposition())
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == []
    assert report.passed
    assert len(report.checks) == 9


def test_multiplicities_computed_once_per_answer(monkeypatch):
    import thetalab.decomposition as decomposition

    calls = []
    real = decomposition.isotypic_multiplicities

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(decomposition, "isotypic_multiplicities", counting)
    res = assemble_decomposition()
    assert len(calls) == 1
    assert validate_presentation(res).passed
    assert len(calls) == 2


def test_assemble_rejects_non_standard_dimension_pattern():
    # a free Z2^3 action on a genus-9 curve has multiplicities 4 on the
    # trivial character and 2 elsewhere; it does not fit the recorded
    # type pattern
    free = ActionData(
        genus=9,
        fixed_counts={
            "sigma": 0,
            "tau": 0,
            "sigma*tau": 0,
            "iota": 0,
            "iota*sigma": 0,
            "iota*tau": 0,
            "iota*sigma*tau": 0,
        },
    )
    m = isotypic_multiplicities(free)
    assert all(
        v == (4 if chi == CharacterLabel(1, 1, 1) else 2) for chi, v in m.items()
    )
    with pytest.raises(Inconsistent):
        assemble_decomposition(free)
