"""Tests for the torsion scan, translation constants, negation action,
the product locus, and the four translated copies of the zero curve."""

import cmath

import numpy as np
import pytest

from thetalab import (
    DegenerateSample,
    EvalSettings,
    NEGATION_PERMUTATION,
    NotDiagonal,
    PeriodMatrix,
    ScanKind,
    TorsionLabel,
    four_copy_scan,
    four_copy_summary,
    half_periods,
    minus_one_action,
    product_case_components,
    quasi_periodicity_check,
    random_period_matrix,
    two_torsion_scan,
)


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


# ---------------------------------------------------------------------------
# translation behaviour


def test_w1_antiperiodicity(Z0, settings):
    rep = quasi_periodicity_check(Z0, settings)
    assert rep.w1_max_residual < 1e-9
    w1 = rep.constants["w1"]
    assert w1.value == pytest.approx(-1.0, abs=1e-10)
    assert w1.spread < 1e-8
    assert w1.n_admissible == 50


def test_w2_compensated_constant_matches_closed_form(Z0, settings):
    # the compensated ratio exp(pi*i*v2) theta(v+w2)/theta(v) equals
    # -exp(-pi*i*z22/4); derived by completing the square in the series
    rep = quasi_periodicity_check(Z0, settings)
    w2 = rep.constants["w2"]
    want = -cmath.exp(-1j * cmath.pi * Z0.z22 / 4.0)
    assert w2.value == pytest.approx(want, rel=1e-10)
    assert w2.spread / abs(w2.value) < 1e-8
    assert abs(w2.value) > 0


def test_w1_plus_w2_constant_is_negated(Z0, settings):
    rep = quasi_periodicity_check(Z0, settings)
    m = rep.constants["w2"].value
    both = rep.constants["w1+w2"].value
    assert both == pytest.approx(-m, rel=1e-9)


def test_translation_constant_nonzero_on_random_matrices(settings):
    rng = np.random.default_rng(11)
    for _ in range(10):
        Z = random_period_matrix(rng)
        rep = quasi_periodicity_check(Z, settings, n_samples=20)
        assert abs(rep.constants["w2"].value) > 0
        assert rep.constants["w2"].spread / abs(rep.constants["w2"].value) < 1e-8


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
    assert rep.permutation_residual < 1e-8
    assert rep.invariant_dim == 3
    assert rep.anti_invariant_dim == 1
    assert np.allclose(rep.matrix, NEGATION_PERMUTATION, atol=1e-8)


def test_minus_one_action_squares_to_identity(Z0, settings):
    rep = minus_one_action(Z0, settings)
    assert np.allclose(rep.matrix @ rep.matrix, np.eye(4), atol=1e-7)


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
    records = four_copy_scan(Z0, settings)
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
    records = four_copy_scan(Z, settings)
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


def test_product_case_moving_component_really_vanishes():
    # the component v1 = (1+tau1)/2 lies on the zero locus for every v2
    Z = PeriodMatrix.diagonal(0.0 + 1.0j, 0.0 + 1.0j)
    from thetalab import SurfacePoint, odd_theta

    v1 = (1.0 + Z.z11) / 2.0
    vals = [abs(odd_theta(SurfacePoint(v1, 0.3 + 0.2j * k), Z)) for k in range(5)]
    assert max(vals) < 1e-12


def test_degenerate_sample_guard(Z0, settings, monkeypatch):
    # the guard fires when the section evaluates to zero at every sample
    import thetalab.surface as surface

    # the stub answers a batched call with zeros shaped like its points
    monkeypatch.setattr(surface, "odd_theta", lambda v, *a, **k: np.zeros(len(v), complex))
    with pytest.raises(DegenerateSample):
        quasi_periodicity_check(Z0, settings, n_samples=5)
