"""Tests for the truncated theta evaluator.

The main oracle is the classical one-variable theta function: on a diagonal
period matrix the two-variable series factors into a product of two
one-variable series, each of which reduces to mpmath's jtheta(3, .) after
completing the square in the characteristic.  mpmath shares no code with
the summation kernel, so agreement is an independent check of both the
lattice sum and the truncation-radius estimate.
"""

import cmath

import numpy as np
import pytest
from mpmath import jtheta, mp, mpc

from thetalab import (
    EvalSettings,
    NotSiegel,
    OMEGA,
    OutOfRange,
    PeriodMatrix,
    RadiusExceeded,
    ThetaCharacteristic,
    odd_theta,
    odd_theta_gradient,
    odd_theta_with_gradient,
    quarter_characteristic,
    random_period_matrix,
    random_point,
    theta_basis,
    theta_char,
    truncation_radius,
)

mp.dps = 30


def theta1d(a, b, v, tau):
    """One-variable theta with characteristic via mpmath.

    sum_n exp(pi*i*(n+a)^2*tau + 2*pi*i*(n+a)*(v+b))
      = exp(pi*i*a^2*tau + 2*pi*i*a*(v+b)) * jtheta(3, pi*(v+b+a*tau), q)
    with q = exp(pi*i*tau).
    """
    tau = mpc(tau)
    v = mpc(v)
    q = mp.exp(1j * mp.pi * tau)
    z = mp.pi * (v + b + a * tau)
    pref = mp.exp(1j * mp.pi * a * a * tau + 2j * mp.pi * a * (v + b))
    return complex(pref * jtheta(3, z, q))


def reference_theta(chi, v, Z, radius=12):
    """Direct double sum in plain Python, independent of the kernel."""
    (a1, a2), (b1, b2) = chi.c1_floats(), chi.c2_floats()
    total = 0.0 + 0.0j
    for m1 in range(-radius, radius + 1):
        for m2 in range(-radius, radius + 1):
            l1, l2 = m1 + a1, m2 + a2
            quad = l1 * l1 * Z.z11 + 2 * l1 * l2 * Z.z12 + l2 * l2 * Z.z22
            lin = l1 * (v[0] + b1) + l2 * (v[1] + b2)
            total += cmath.exp(1j * cmath.pi * quad + 2j * cmath.pi * lin)
    return total


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_diagonal_factorisation_against_mpmath(Zdiag, k):
    chi = quarter_characteristic(k)
    for v in [(0.17 + 0.05j, -0.23 + 0.11j), (0.4 - 0.2j, 0.9 + 0.3j)]:
        got = theta_char(chi, v, Zdiag)
        want = theta1d(0.0, 0.0, v[0], Zdiag.z11) * theta1d(
            k / 4.0, 0.0, v[1], Zdiag.z22
        )
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize(
    "chi",
    [
        ThetaCharacteristic((0, OMEGA.c1[1]), (0, 0)),
        ThetaCharacteristic(("1/2", "1/4"), ("1/2", "3/4")),
    ],
    ids=["quarter", "c1_c2_nonzero"],
)
def test_generic_matrix_against_direct_sum(Z0, chi):
    for v in [(0.2 + 0.1j, 0.3 - 0.05j), (-0.4 + 0.3j, 1.1 + 0.2j)]:
        got = theta_char(chi, v, Z0)
        want = reference_theta(chi, v, Z0)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_frozen_regression_value(Z0):
    got = odd_theta((0.31 + 0.12j, -0.2 + 0.45j), Z0)
    want = 0.4779926363854756 + 0.029452518355850443j
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# symmetry properties


def test_odd_theta_is_odd(Z0, rng, settings):
    for _ in range(25):
        v = random_point(Z0, rng)
        t_plus = odd_theta(v, Z0, settings)
        t_minus = odd_theta(-v, Z0, settings)
        scale = max(abs(t_plus), abs(t_minus), 1e-30)
        assert abs(t_plus + t_minus) / scale < 1e-10


def test_basis_negation_pairs_sections(Z0, rng, settings):
    # theta_0, theta_2 are even; theta_1 and theta_3 swap under v -> -v
    for _ in range(10):
        v = random_point(Z0, rng)
        pos = theta_basis(v, Z0, settings)
        neg = theta_basis(-v, Z0, settings)
        scale = max(abs(t) for t in pos)
        assert abs(neg[0] - pos[0]) / scale < 1e-10
        assert abs(neg[2] - pos[2]) / scale < 1e-10
        assert abs(neg[1] - pos[3]) / scale < 1e-10
        assert abs(neg[3] - pos[1]) / scale < 1e-10


def test_odd_theta_matches_basis_difference(Z0, rng):
    for _ in range(5):
        v = random_point(Z0, rng)
        b = theta_basis(v, Z0)
        assert odd_theta(v, Z0) == pytest.approx(b[3] - b[1], rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences(Z0, rng, settings):
    h = 1e-6
    for _ in range(20):
        v = random_point(Z0, rng)
        g1, g2 = odd_theta_gradient(v, Z0, settings)
        fd1 = (
            odd_theta((v[0] + h, v[1]), Z0, settings)
            - odd_theta((v[0] - h, v[1]), Z0, settings)
        ) / (2 * h)
        fd2 = (
            odd_theta((v[0], v[1] + h), Z0, settings)
            - odd_theta((v[0], v[1] - h), Z0, settings)
        ) / (2 * h)
        scale = max(abs(g1), abs(g2), 1.0)
        assert abs(g1 - fd1) / scale < 1e-6
        assert abs(g2 - fd2) / scale < 1e-6


def test_value_with_gradient_consistent(Z0, rng):
    v = random_point(Z0, rng)
    t, (g1, g2) = odd_theta_with_gradient(v, Z0)
    assert t == pytest.approx(odd_theta(v, Z0), rel=1e-12)
    # at one radius the value from the gradient pass is the plain sum's
    assert odd_theta_with_gradient(v, Z0, radius=8)[0] == odd_theta(v, Z0, radius=8)
    h1, h2 = odd_theta_gradient(v, Z0)
    assert g1 == pytest.approx(h1, rel=1e-11)
    assert g2 == pytest.approx(h2, rel=1e-11)


# ---------------------------------------------------------------------------
# truncation control


def test_radius_doubling_is_below_tolerance(Z0, rng, settings):
    for _ in range(5):
        v = random_point(Z0, rng)
        radius = truncation_radius(
            Z0.min_imag_eigenvalue(), 1.5, settings.tol, settings.max_radius
        )
        a = odd_theta(v, Z0, settings, radius=radius)
        b = odd_theta(v, Z0, settings, radius=2 * radius)
        assert abs(a - b) <= settings.tol * max(1.0, abs(b))


def test_truncation_radius_monotone_in_eigenvalue():
    r_soft = truncation_radius(0.3, 0.5, 1e-12, 64)
    r_hard = truncation_radius(3.0, 0.5, 1e-12, 64)
    assert r_hard <= r_soft


def test_truncation_radius_grows_with_gradient_order():
    r0 = truncation_radius(1.0, 0.5, 1e-12, 64, grad_order=0)
    r1 = truncation_radius(1.0, 0.5, 1e-12, 64, grad_order=1)
    assert r1 >= r0


def test_radius_exceeded_raised_for_flat_matrix():
    with pytest.raises(RadiusExceeded):
        truncation_radius(1e-4, 0.5, 1e-12, 8)


def test_small_eigenvalue_needs_large_radius():
    Z = PeriodMatrix(0.05j, 0.0, 0.05j)
    with pytest.raises(RadiusExceeded):
        odd_theta((0.1, 0.1), Z, EvalSettings(tol=1e-12, max_radius=8))


# ---------------------------------------------------------------------------
# input validation


def test_not_siegel_rejected():
    with pytest.raises(NotSiegel):
        PeriodMatrix(1j, 5j, 1j)  # imaginary part indefinite
    with pytest.raises(NotSiegel):
        PeriodMatrix(-1j, 0.0, 1j)
    nan, inf = float("nan"), float("inf")
    for entries in [(complex(nan, 1.0), 0.1, 1j), (1j, complex(0.1, nan), 1j),
                    (1j, 0.1, complex(inf, 1.0))]:
        with pytest.raises(NotSiegel):
            PeriodMatrix(*entries)


def test_characteristic_denominators_checked():
    with pytest.raises(OutOfRange):
        ThetaCharacteristic(("1/3", 0), (0, 0))
    chi = quarter_characteristic(3)
    assert chi.c1_floats() == (0.0, 0.75)


def test_random_period_matrix_is_siegel(rng):
    for _ in range(20):
        Z = random_period_matrix(rng)
        assert Z.min_imag_eigenvalue() > 0.5
        assert abs(Z.z12.imag) > 0  # off-diagonal coupling present
