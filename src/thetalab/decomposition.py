"""Isotypic decomposition of the covering-curve Jacobian from fixed points.

The genus-5 curve carries an action of Z2^3 generated by the two deck
involutions sigma, tau of the Klein covering and the hyperelliptic
involution iota.  From the fixed-point counts alone (sigma, tau and
sigma*tau free; iota fixes 12 points; the products iota*k fix 4 each),
exact character theory recovers: the multiplicity of each character in
H^1, the genus of every quotient curve (by Riemann-Hurwitz, cross-checked
against the character sums), and the boxplus presentations of the
Jacobian and of all quotient Jacobians.  The restricted polarization
types attached to the slots are recorded data, validated against the
lattice module's quotient types rather than derived from periods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import Inconsistent, NonIntegerGenus, OutOfRange
from .lattice import HalfTorsionSubgroup, quotient_polarization_type

# elements of Z2^3 as bit triples (i, s, t) <-> iota^i sigma^s tau^t
Element = tuple[int, int, int]

ELEMENT_NAMES: dict[Element, str] = {
    (0, 0, 0): "1",
    (0, 1, 0): "sigma",
    (0, 0, 1): "tau",
    (0, 1, 1): "sigma*tau",
    (1, 0, 0): "iota",
    (1, 1, 0): "iota*sigma",
    (1, 0, 1): "iota*tau",
    (1, 1, 1): "iota*sigma*tau",
}
NAME_TO_ELEMENT = {v: k for k, v in ELEMENT_NAMES.items()}
ELEMENT_ORDER = list(ELEMENT_NAMES.values())

IDENTITY: Element = (0, 0, 0)


def _mul(a: Element, b: Element) -> Element:
    return (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2])


@dataclass
class ActionData:
    """Fixed-point counts of the seven nontrivial elements on the curve."""

    genus: int
    fixed_counts: dict[str, int]

    def __post_init__(self):
        expected = set(ELEMENT_ORDER) - {"1"}
        got = set(self.fixed_counts)
        if got != expected:
            raise Inconsistent(f"need counts for {sorted(expected)}, got {sorted(got)}")
        for name, f in self.fixed_counts.items():
            if f < 0 or f % 2:
                raise Inconsistent(f"|Fix({name})| = {f} must be even and nonnegative")

    @classmethod
    def standard(cls) -> "ActionData":
        """The covering curve's data: free deck involutions, 12 hyperelliptic
        fixed points, 4 fixed points for each composite."""
        return cls(
            genus=5,
            fixed_counts={
                "sigma": 0,
                "tau": 0,
                "sigma*tau": 0,
                "iota": 12,
                "iota*sigma": 4,
                "iota*tau": 4,
                "iota*sigma*tau": 4,
            },
        )

    def fixed(self, element: Element | str) -> int:
        name = element if isinstance(element, str) else ELEMENT_NAMES[element]
        return self.fixed_counts[name]


def lefschetz_trace(fixed_count: int) -> int:
    """Trace on H^1 of a nontrivial automorphism with the given number of
    fixed points: 2 - |Fix|."""
    if fixed_count < 0:
        raise OutOfRange(f"negative fixed count {fixed_count}")
    return 2 - fixed_count


@dataclass(frozen=True)
class CharacterLabel:
    """Character of Z2^3 by its signs on the generators (iota, sigma, tau)."""

    chi_iota: int
    chi_sigma: int
    chi_tau: int

    def __post_init__(self):
        if {self.chi_iota, self.chi_sigma, self.chi_tau} - {1, -1}:
            raise OutOfRange("character signs must be +-1")

    def value(self, element: Element | str) -> int:
        e = NAME_TO_ELEMENT[element] if isinstance(element, str) else element
        return (self.chi_iota ** e[0]) * (self.chi_sigma ** e[1]) * (self.chi_tau ** e[2])

    def is_trivial_on(self, elements: Iterable[Element]) -> bool:
        return all(self.value(e) == 1 for e in elements)

    def __str__(self):
        s = {1: "+", -1: "-"}
        return f"({s[self.chi_iota]},{s[self.chi_sigma]},{s[self.chi_tau]})"


def all_characters() -> list[CharacterLabel]:
    return [
        CharacterLabel(i, s, t)
        for i in (1, -1)
        for s in (1, -1)
        for t in (1, -1)
    ]


def isotypic_multiplicities(a: ActionData, genus: int | None = None) -> dict[CharacterLabel, int]:
    """Multiplicity of each character in H^1: the averaged character sum
    m = (1/8)(2g + sum over nontrivial elements of (2 - |Fix|) * chi).
    All multiplicities must come out nonnegative even integers; the sum is
    taken in integers and tested for divisibility by 8."""
    g = a.genus if genus is None else genus
    out = {}
    for chi in all_characters():
        total = 2 * g + sum(lefschetz_trace(a.fixed_counts[name]) * chi.value(name)
                            for name in ELEMENT_ORDER[1:])
        if total % 8 or total < 0 or total // 8 % 2:
            raise Inconsistent(
                f"multiplicity of {chi} is {Fraction(total, 8)}, not an even nonnegative integer"
            )
        out[chi] = total // 8
    return out


# ---------------------------------------------------------------------------
# subgroups and quotient genera


def subgroups_z23() -> list[frozenset[Element]]:
    """All 16 subgroups of Z2^3, as the spans of at most three nontrivial
    elements."""
    spans = {subgroup_from_names(gens)
             for r in range(4) for gens in itertools.combinations(ELEMENT_ORDER[1:], r)}
    return sorted(spans, key=lambda s: (len(s), sorted(ELEMENT_ORDER.index(ELEMENT_NAMES[e]) for e in s)))


def subgroup_name(K: frozenset[Element]) -> str:
    if len(K) == 1:
        return "trivial"
    if len(K) == 8:
        return "full"
    nontrivial = sorted(
        (ELEMENT_NAMES[e] for e in K if e != IDENTITY),
        key=ELEMENT_ORDER.index,
    )
    if len(K) == 2:
        return f"<{nontrivial[0]}>"
    return f"<{nontrivial[0]},{nontrivial[1]}>"


def subgroup_from_names(names: Iterable[str]) -> frozenset[Element]:
    span = {IDENTITY}
    for n in names:
        span |= {_mul(NAME_TO_ELEMENT[n], h) for h in span}
    return frozenset(span)


def quotient_genus(a: ActionData, K: frozenset[Element] | Iterable[str], genus: int | None = None) -> int:
    """Genus of the quotient curve by a subgroup K, via Riemann-Hurwitz
    2g - 2 = |K| (2 g' - 2) + sum of fixed counts over K \\ {1}, verified
    against the character-multiplicity sum."""
    return _quotient_genus(a, K, a.genus if genus is None else genus)


def _quotient_genus(a: ActionData, K, g: int, m: dict[CharacterLabel, int] | None = None) -> int:
    """quotient_genus at genus g; a caller that asks for many subgroups
    passes the multiplicities m of (a, g), computed once."""
    if not isinstance(K, frozenset):
        K = subgroup_from_names(K)
    if not all(_mul(x, y) in K for x in K for y in K):
        raise Inconsistent(f"{sorted(ELEMENT_NAMES[e] for e in K)} is not a subgroup")
    branch = sum(a.fixed(e) for e in K if e != IDENTITY)
    num = 2 * g - 2 - branch
    if num % (2 * len(K)):
        raise NonIntegerGenus(
            f"Riemann-Hurwitz gives genus {Fraction(num, 2 * len(K)) + 1} for {subgroup_name(K)}"
        )
    gq = num // (2 * len(K)) + 1
    if gq < 0:
        raise NonIntegerGenus(f"negative quotient genus {gq}")
    if m is None:
        m = isotypic_multiplicities(a, g)
    via_chars = sum(m[chi] for chi in m if chi.is_trivial_on(K)) // 2
    if via_chars != gq:
        raise Inconsistent(
            f"Riemann-Hurwitz genus {gq} != character sum {via_chars} for {subgroup_name(K)}"
        )
    return gq


# ---------------------------------------------------------------------------
# boxplus presentations


@dataclass(frozen=True)
class Slot:
    label: str
    dim: int
    restricted_type: tuple[int, ...]


@dataclass
class DecompositionPresentation:
    name: str
    total_dim: int
    slots: list[Slot]

    def __post_init__(self):
        if any(s.dim < 1 for s in self.slots):
            raise Inconsistent("slot dimensions must be >= 1")
        if sum(s.dim for s in self.slots) != self.total_dim:
            raise Inconsistent(
                f"slot dims {[s.dim for s in self.slots]} do not sum to {self.total_dim}"
            )

    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.slots)


# character attached to each elliptic slot (iota acts by -1 throughout)
SLOT_CHARACTERS: dict[str, CharacterLabel] = {
    "A_hat": CharacterLabel(-1, 1, 1),
    "E_sigma": CharacterLabel(-1, 1, -1),
    "E_tau": CharacterLabel(-1, -1, 1),
    "E_sigma*tau": CharacterLabel(-1, -1, -1),
}


@dataclass
class DecompositionResult:
    action: ActionData
    multiplicities: dict[CharacterLabel, int]
    main: DecompositionPresentation
    quotients: dict[str, DecompositionPresentation]
    genus_table: dict[str, int] = field(default_factory=dict)


def assemble_decomposition(a: ActionData | None = None) -> DecompositionResult:
    """Build the main presentation and the six quotient presentations.

    Main: JC~ = A_hat^(1,4) + E_sigma^(4) + E_tau^(4) + E_sigma*tau^(4),
    dims (2,1,1,1).  Genus-3 quotients JC_k = A_hat_k^(1,2) + E_k^(2);
    genus-2 quotients JC_iota*k = sum of the two complementary elliptic
    slots with type (2).  Slot dimensions are computed from the character
    multiplicities; the recorded types require the standard dimension
    pattern and raise Inconsistent otherwise.
    """
    if a is None:
        a = ActionData.standard()
    m = isotypic_multiplicities(a)

    def dim_of(slot: str) -> int:
        return m[SLOT_CHARACTERS[slot]] // 2

    if dim_of("A_hat") != 2 or any(
        dim_of(s) != 1 for s in ("E_sigma", "E_tau", "E_sigma*tau")
    ):
        raise Inconsistent(
            "recorded restricted types apply only to the standard dimension pattern (2,1,1,1)"
        )

    main = DecompositionPresentation(
        "JC~",
        5,
        [
            Slot("A_hat", dim_of("A_hat"), (1, 4)),
            Slot("E_sigma", dim_of("E_sigma"), (4,)),
            Slot("E_tau", dim_of("E_tau"), (4,)),
            Slot("E_sigma*tau", dim_of("E_sigma*tau"), (4,)),
        ],
    )

    quotients = {}
    for k in ("sigma", "tau", "sigma*tau"):
        quotients[f"JC_{k}"] = DecompositionPresentation(
            f"JC_{k}",
            3,
            [
                Slot(f"A_hat_{k}", dim_of("A_hat"), (1, 2)),
                Slot(f"E_{k}", dim_of(f"E_{k}"), (2,)),
            ],
        )
    complementary = {
        "iota*sigma": ("E_tau", "E_sigma*tau"),
        "iota*tau": ("E_sigma", "E_sigma*tau"),
        "iota*sigma*tau": ("E_sigma", "E_tau"),
    }
    for k, (s1, s2) in complementary.items():
        quotients[f"JC_{k}"] = DecompositionPresentation(
            f"JC_{k}",
            2,
            [Slot(s1, dim_of(s1), (2,)), Slot(s2, dim_of(s2), (2,))],
        )

    table = {subgroup_name(K): _quotient_genus(a, K, a.genus, m) for K in subgroups_z23()}
    return DecompositionResult(a, m, main, quotients, table)


# ---------------------------------------------------------------------------
# validation


GroupAlgebra = Mapping[Element, Fraction | int]


def group_algebra_projector(chi: CharacterLabel) -> dict[Element, Fraction]:
    """p_chi = (1/8) sum over alpha of chi(alpha) alpha, in Q[Z2^3]."""
    return {e: Fraction(chi.value(e), 8) for e in ELEMENT_NAMES}


def _convolve(p: GroupAlgebra, q: GroupAlgebra) -> dict[Element, Fraction | int]:
    """Product in the group algebra; integer coefficients stay integers."""
    out = dict.fromkeys(ELEMENT_NAMES, 0)
    for a, ca in p.items():
        for b, cb in q.items():
            out[_mul(a, b)] += ca * cb
    return out


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckItem]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_presentation(result: DecompositionResult) -> ValidationReport:
    """Exact consistency suite for an assembled decomposition."""
    checks: list[CheckItem] = []
    m = result.multiplicities
    chars = all_characters()

    # on 8 p_chi, whose coefficients chi(alpha) are integers:
    # p_chi p_psi = delta p_chi reads (8 p_chi)(8 p_psi) = 8 delta (8 p_chi),
    # and sum p_chi = 1 reads sum 8 p_chi = 8 * 1
    eight_p = {chi: {e: chi.value(e) for e in ELEMENT_NAMES} for chi in chars}
    ok = all(
        _convolve(eight_p[chi], eight_p[psi])
        == {e: 8 * c if chi == psi else 0 for e, c in eight_p[chi].items()}
        for chi, psi in itertools.product(chars, repeat=2)
    )
    total = {e: sum(eight_p[chi][e] for chi in chars) for e in ELEMENT_NAMES}
    ok = ok and total == {e: 8 if e == IDENTITY else 0 for e in ELEMENT_NAMES}
    checks.append(CheckItem("projectors_orthogonal_idempotent_sum_to_1", ok))

    ok = sum(m.values()) == 2 * result.action.genus
    checks.append(CheckItem("multiplicities_sum_to_2g", ok, f"sum={sum(m.values())}"))

    ok = all(m[chi] == 0 for chi in chars if chi.chi_iota == 1)
    checks.append(CheckItem("invariant_characters_have_zero_multiplicity", ok))

    ok = True
    for K in subgroups_z23():
        branch = sum(result.action.fixed(e) for e in K if e != IDENTITY)
        if branch % 2:
            ok = False
    checks.append(CheckItem("branch_counts_even_on_every_subgroup", ok))

    # quotient_genus raises on RH/character mismatch, so reaching here
    # with a filled table is itself the dual-route agreement check
    ok = True
    detail = []
    m_action = isotypic_multiplicities(result.action)
    for K in subgroups_z23():
        name = subgroup_name(K)
        try:
            g = _quotient_genus(result.action, K, result.action.genus, m_action)
        except Exception as exc:  # pragma: no cover - defensive
            ok = False
            detail.append(f"{name}: {exc}")
            continue
        if result.genus_table.get(name) != g:
            ok = False
            detail.append(f"{name}: table {result.genus_table.get(name)} != {g}")
    checks.append(CheckItem("quotient_genus_table_consistent", ok, "; ".join(detail)))

    ok = True
    for name, pres in result.quotients.items():
        k = name.removeprefix("JC_")
        K = subgroup_from_names([k])
        expect = sum(m[chi] for chi in chars if chi.is_trivial_on(K)) // 2
        if pres.total_dim != expect or sum(s.dim for s in pres.slots) != expect:
            ok = False
    checks.append(CheckItem("quotient_slot_dims_match_isotypic_sums", ok))

    # Prym bookkeeping: dim P(JC~ / JC_k) = g(C~) - g(C_k) = dim JC_iota*k
    ok = True
    for k in ("sigma", "tau", "sigma*tau"):
        prym = result.action.genus - result.quotients[f"JC_{k}"].total_dim
        if prym != result.quotients[f"JC_iota*{k}"].total_dim:
            ok = False
    checks.append(CheckItem("prym_dimensions_match_complementary_jacobians", ok))

    half = Fraction(1, 2)
    non_iso = HalfTorsionSubgroup([[half, 0, 0, 0], [0, 0, half, 0]])
    c, t = quotient_polarization_type(non_iso)
    ok = (c, t.as_tuple()) == (4, (1, 4)) and result.main.slots[0].restricted_type == (1, 4)
    checks.append(
        CheckItem("surface_slot_type_matches_lattice_quotient", ok, f"multiplier={c}, type={t}")
    )

    single = HalfTorsionSubgroup([[half, 0, 0, 0]])
    c, t = quotient_polarization_type(single)
    ok = (c, t.as_tuple()) == (2, (1, 2)) and all(
        result.quotients[f"JC_{k}"].slots[0].restricted_type == (1, 2)
        for k in ("sigma", "tau", "sigma*tau")
    )
    checks.append(
        CheckItem("genus3_surface_slot_matches_single_torsion_quotient", ok, f"multiplier={c}, type={t}")
    )

    return ValidationReport(checks)
