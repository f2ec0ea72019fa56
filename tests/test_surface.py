"""Tests for the torsion scan, translation constants, negation action,
the product locus, and the four translated copies of the zero curve."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st
from mpmath import mp, mpc

from thetalab import (
    EvalSettings,
    NEGATION_PERMUTATION,
    NotDiagonal,
    PeriodMatrix,
    ScanKind,
    ThetaCharacteristic,
    TorsionLabel,
    four_copy_scan,
    four_copy_summary,
    half_periods,
    minus_one_action,
    odd_theta,
    odd_theta_with_gradient,
    product_case_components,
    quasi_periodicity_check,
    random_period_matrix,
    random_point,
    theta_char,
    two_torsion_points,
    two_torsion_scan,
)
from thetalab import cli, surface, theta
from thetalab.surface import canonical_weight
from thetalab.theta import _points


def parity_labels(Z):
    """The labels with alpha1 * beta1 = 0, where the characteristic is odd."""
    return {lab for lab, _ in two_torsion_points(Z) if lab.alpha[0] * lab.beta[0] == 0}


# ---------------------------------------------------------------------------
# the genus-2 theta function behind the scan

# theta_A(v1, v2; Z) = i theta[(0, 1/2); (0, 1/2)](v1, v2/2; Z_H), with
# Z_H = [[z11, z12/2], [z12/2, z22/4]]: the curve is the pull-back of the
# genus-2 theta divisor, which the scan's parity rule rests on
HALF_ODD = ThetaCharacteristic((0, Fraction(1, 2)), (0, Fraction(1, 2)))
GENUS_TWO_CASES = {
    "diagonal": PeriodMatrix.diagonal(0.3 + 1.1j, -0.1 + 0.9j),
    "near_cusp": PeriodMatrix(0.1 + 40j, 0.05 + 3j, -0.2 + 30j),
    "correlated": PeriodMatrix(0.2 + 1.5j, -0.1 + 1.2j, 0.3 + 1.5j),
}


def mp_theta(chi, v, Z, radius=12):
    """theta[c1; c2](v, Z) as a direct sum in mpmath over the box |l| <= radius."""
    (a1, a2), (b1, b2) = chi.c1_floats(), chi.c2_floats()
    with mp.workdps(30):
        z11, z12, z22 = (mpc(z) for z in (Z.z11, Z.z12, Z.z22))
        v1, v2 = mpc(complex(v[0])) + b1, mpc(complex(v[1])) + b2
        total = mpc(0)
        for m1 in range(-radius, radius + 1):
            for m2 in range(-radius, radius + 1):
                l1, l2 = m1 + a1, m2 + a2
                quad = l1 * l1 * z11 + 2 * l1 * l2 * z12 + l2 * l2 * z22
                total += mp.exp(1j * mp.pi * quad + 2j * mp.pi * (l1 * v1 + l2 * v2))
    return complex(total)


@pytest.mark.parametrize("case", GENUS_TWO_CASES)
def test_odd_section_is_a_genus_two_theta_function(case, settings):
    Z = GENUS_TWO_CASES[case]
    ZH = PeriodMatrix(Z.z11, Z.z12 / 2, Z.z22 / 4)
    rng = np.random.default_rng(5)
    pts = _points([random_point(Z, rng) for _ in range(10)])
    halved = pts * (1.0, 0.5)
    got = odd_theta(pts, Z, settings)
    # (v1, v2/2) has the same canonical weight at Z_H as v at Z; theta_A is
    # within one value bound, and a single sum at Z_H within half of its own
    w = canonical_weight(Z, pts)
    bound = surface._value_bound(Z, settings) + surface._value_bound(ZH, settings)
    assert np.max(w * np.abs(got - 1j * theta_char(HALF_ODD, halved, ZH, settings))) <= bound
    want = 1j * mp_theta(HALF_ODD, halved[0], ZH)
    assert w[0] * abs(got[0] - want) <= surface._value_bound(Z, settings)


# ---------------------------------------------------------------------------
# two-torsion scan


def test_scan_twelve_vanishing_four_not(Z0, settings):
    scan = two_torsion_scan(Z0, settings)
    counts = scan.counts()
    assert counts == {"OddVanishing": 12, "EvenVanishing": 0, "NonVanishing": 4}
    assert scan.separation_ratio() > 1e4


def test_scan_on_random_matrices(settings):
    rng = np.random.default_rng(7)
    for _ in range(5):
        Z = random_period_matrix(rng)
        scan = two_torsion_scan(Z, settings)
        assert scan.counts()["OddVanishing"] == 12
        assert scan.counts()["NonVanishing"] == 4
        assert scan.separation_ratio() > 1e4


def test_scan_covers_all_sixteen_labels(Z0, settings):
    scan = two_torsion_scan(Z0, settings)
    labels = {r.label for r in scan.records}
    assert len(labels) == 16
    assert all(isinstance(lab, TorsionLabel) for lab in labels)


def test_scan_deterministic(Z0, settings):
    a = two_torsion_scan(Z0, settings)
    b = two_torsion_scan(Z0, settings)
    assert [(r.label, r.kind) for r in a.records] == [
        (r.label, r.kind) for r in b.records
    ]


def test_scan_near_cusp_follows_parity(settings):
    # the relative thresholds this scan replaced gave 8 odd and 8 even here
    Z = PeriodMatrix(0.1 + 40j, 0.05 + 3j, -0.2 + 30j)
    scan = two_torsion_scan(Z, settings)
    assert set(scan.labels(ScanKind.ODD_VANISHING)) == parity_labels(Z)
    assert scan.worst_zero <= scan.bound
    # the even constant (about 1.3e-15) is below the bound (about 2.0e-12)
    # at this tolerance, so the other four read as even zeros; certifying
    # it nonzero needs more precision than double
    assert scan.counts() == {"OddVanishing": 12, "EvenVanishing": 4, "NonVanishing": 0}


@st.composite
def period_matrices(draw):
    """A generic draw of random_period_matrix, or a diagonal Z."""
    if draw(st.booleans()):
        return random_period_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    taus = [complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.8, 2.0))) for _ in range(2)]
    return PeriodMatrix.diagonal(*taus)


@hsettings(max_examples=30, deadline=None)
@given(period_matrices())
def test_scan_parity_rule_holds_numerically(Z):
    # the scan labels by parity; here the numbers are checked against it:
    # zeros at the 12 odd labels, simple there, and the other four nonzero
    # exactly off the product locus
    scan, parity = two_torsion_scan(Z), parity_labels(Z)
    odd = [r for r in scan.records if r.label in parity]
    rest = [r for r in scan.records if r.label not in parity]
    assert all(r.kind is ScanKind.ODD_VANISHING and r.abs_value <= scan.bound for r in odd)
    pts = _points([r.point for r in odd])
    _, (g1, g2) = odd_theta_with_gradient(pts, Z)
    assert (canonical_weight(Z, pts) * np.hypot(np.abs(g1), np.abs(g2)) > scan.bound).all()
    if Z.is_diagonal():
        assert all(r.kind is ScanKind.EVEN_VANISHING for r in rest)
    else:
        assert all(r.kind is ScanKind.NON_VANISHING and r.abs_value > scan.bound for r in rest)


def test_scan_is_one_value_call_and_product_case_scans_once(Z0, settings, monkeypatch, capsys):
    evaluations, scans = [], []
    real_evaluate, real_scan = theta._evaluate, surface.two_torsion_scan

    def counting_evaluate(chars, v, Z, settings, radius, grad_order):
        evaluations.append((len(v), grad_order))
        return real_evaluate(chars, v, Z, settings, radius, grad_order)

    def counting_scan(*args, **kwargs):
        scans.append(1)
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(theta, "_evaluate", counting_evaluate)
    scan = two_torsion_scan(Z0, settings)
    assert evaluations == [(16, 0)]
    four_copy_scan(scan)
    assert evaluations == [(16, 0)]  # the translates are relabelled, not evaluated

    monkeypatch.setattr(surface, "two_torsion_scan", counting_scan)
    monkeypatch.setattr(cli, "two_torsion_scan", counting_scan)
    assert cli.main(["product-case", "--tau1=0.1+1.1i", "--tau2=-0.2+0.9i"]) == 0
    capsys.readouterr()
    assert scans == [1]


# ---------------------------------------------------------------------------
# translation behaviour


def test_w1_antiperiodicity(Z0, settings):
    # theta_A(v + w1) = -theta_A(v)
    rep = quasi_periodicity_check(Z0, settings)
    w1 = rep.constants["w1"]
    assert rep.w1_max_residual == w1.spread <= rep.bound
    assert w1.n_admissible == 50


def test_w2_compensated_constant_matches_closed_form(Z0, settings):
    # theta_A(v + w2) = M(Z) exp(-pi*i*v2) theta_A(v) with
    # M(Z) = -exp(-pi*i*z22/4); derived by completing the square in the series
    rep = quasi_periodicity_check(Z0, settings)
    assert rep.constants["w2"].spread <= rep.bound


def test_w1_plus_w2_constant_is_negated(Z0, settings, monkeypatch):
    # theta_A(v + w1 + w2) = -M(Z) exp(-pi*i*v2) theta_A(v), and +M fails it
    rep = quasi_periodicity_check(Z0, settings)
    assert rep.constants["w1+w2"].spread <= rep.bound
    real = surface._translation_constant
    monkeypatch.setattr(surface, "_translation_constant", lambda Z: -real(Z))
    wrong = quasi_periodicity_check(Z0, settings)
    assert wrong.constants["w1+w2"].spread > wrong.bound
    assert wrong.constants["w2"].spread > wrong.bound


def test_translation_constant_nonzero_on_random_matrices(settings):
    rng = np.random.default_rng(11)
    for _ in range(10):
        Z = random_period_matrix(rng)
        rep = quasi_periodicity_check(Z, settings, n_samples=20)
        assert all(c.spread <= rep.bound for c in rep.constants.values())


def test_lattice_automorphy(Z0, settings):
    rep = quasi_periodicity_check(Z0, settings)
    assert rep.automorphy_max_residual < 1e-8


@pytest.mark.parametrize("n_samples", [1, 2])
def test_lattice_automorphy_with_fewer_than_three_samples(Z0, settings, n_samples):
    # the automorphy block takes as many samples as there are, up to three
    rep = quasi_periodicity_check(Z0, settings, n_samples=n_samples)
    assert rep.automorphy_max_residual < 1e-8


def test_half_periods_shape(Z0):
    hp = half_periods(Z0)
    assert hp["w1"] == (0.0, 2.0)
    assert hp["w2"] == (Z0.z12 / 2.0, Z0.z22 / 2.0)
    assert hp["w1+w2"][1] == pytest.approx(2.0 + Z0.z22 / 2.0)


# ---------------------------------------------------------------------------
# (-1)-action on the basis sections


def test_minus_one_action_is_the_expected_permutation(Z0, settings):
    rep = minus_one_action(Z0, settings)
    assert rep.permutation_residual <= rep.bound
    assert rep.invariant_dim == 3
    assert rep.anti_invariant_dim == 1


def test_minus_one_action_rejects_a_wrong_permutation(Z0, settings, monkeypatch):
    # sigma = (0 2)(1)(3) has the trace of the true sigma, so only the
    # residual tells them apart
    monkeypatch.setattr(surface, "NEGATION_PERMUTATION", np.eye(4)[[2, 1, 0, 3]])
    rep = minus_one_action(Z0, settings)
    assert (rep.invariant_dim, rep.anti_invariant_dim) == (3, 1)
    assert rep.permutation_residual > rep.bound


def test_negation_permutation_is_involutive_and_orthogonal():
    P = NEGATION_PERMUTATION
    assert np.array_equal(P @ P, np.eye(4))
    assert np.array_equal(P.T, P)


# ---------------------------------------------------------------------------
# product locus


def test_product_case_components(settings):
    Z = PeriodMatrix.diagonal(0.0 + 1.0j, 0.0 + 1.0j)
    rep = product_case_components(Z, settings)
    assert len(rep.components) == 5
    for comp in rep.components:
        assert comp.max_abs < 1e-10
        # displaced copies of each component stay well off the zero locus
        assert comp.control_min_abs > 1e-6 * rep.generic_scale


def test_product_case_multiplicity_split(settings):
    Z = PeriodMatrix.diagonal(0.2 + 0.9j, -0.3 + 1.3j)
    rep = product_case_components(Z, settings)
    counts = rep.scan.counts()
    assert counts["OddVanishing"] == 12
    assert counts["EvenVanishing"] == 4
    assert counts["NonVanishing"] == 0
    # the four double points sit at alpha_1 = beta_1 = 1/2
    assert frozenset(rep.scan.labels(ScanKind.EVEN_VANISHING)) == (
        rep.expected_node_labels()
    )


def test_product_case_random_moduli(settings):
    rng = np.random.default_rng(23)
    for _ in range(3):
        t1 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.8, 1.5)
        t2 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.8, 1.5)
        rep = product_case_components(PeriodMatrix.diagonal(t1, t2), settings)
        assert max(c.max_abs for c in rep.components) < 1e-10
        assert rep.scan.counts()["EvenVanishing"] == 4


def test_product_case_rejects_generic_matrix(Z0, settings):
    with pytest.raises(NotDiagonal):
        product_case_components(Z0, settings)


# ---------------------------------------------------------------------------
# four copies of the curve


def test_four_copies_generic(Z0, settings):
    records = four_copy_scan(two_torsion_scan(Z0, settings))
    assert len(records) == 4
    summary = four_copy_summary(records)
    assert summary["pairwise_distinct"]
    assert summary["union_count"] == 16
    # generic case: every torsion point lies on exactly three translates
    assert summary["coverage_counts"] == [3] * 16
    # each translate passes through exactly twelve torsion points
    for rec in records:
        assert len(rec.vanishing_labels) == 12
        assert rec.even_labels == frozenset()


def test_four_copies_product_case(settings):
    Z = PeriodMatrix.diagonal(0.1 + 1.0j, -0.2 + 1.1j)
    records = four_copy_scan(two_torsion_scan(Z, settings))
    summary = four_copy_summary(records)
    assert summary["pairwise_distinct"]
    assert summary["union_count"] == 16
    # degenerate case: the sections vanish at every torsion point, and the
    # translates are told apart by their four double points instead
    even_sets = [rec.even_labels for rec in records]
    assert all(len(s) == 4 for s in even_sets)
    assert len(set(even_sets)) == 4
    union_even = frozenset().union(*even_sets)
    assert len(union_even) == 16


@pytest.mark.parametrize("which", ["Z0", "Zdiag"])
def test_four_copies_match_direct_evaluation(which, request, settings):
    Z = request.getfixturevalue(which)
    scan = two_torsion_scan(Z, settings)
    pts = _points([r.point for r in scan.records])
    for rec in four_copy_scan(scan):
        moved = pts + np.array(rec.shift)
        direct = canonical_weight(Z, moved) * np.abs(odd_theta(moved, Z, settings))
        got = np.array([rec.values[r.label] for r in scan.records])
        assert np.abs(direct - got).max() <= scan.bound


def test_product_case_moving_component_really_vanishes():
    # the component v1 = (1+tau1)/2 lies on the zero locus for every v2
    Z = PeriodMatrix.diagonal(0.0 + 1.0j, 0.0 + 1.0j)
    from thetalab import SurfacePoint, odd_theta

    v1 = (1.0 + Z.z11) / 2.0
    vals = [abs(odd_theta(SurfacePoint(v1, 0.3 + 0.2j * k), Z)) for k in range(5)]
    assert max(vals) < 1e-12

