"""Tests for the truncated theta evaluator.

The main oracle is the classical one-variable theta function: on a diagonal
period matrix the two-variable series factors into a product of two
one-variable series, each of which reduces to mpmath's jtheta(3, .) after
completing the square in the characteristic.  mpmath shares no code with
the summation kernel, so agreement is an independent check of both the
lattice sum and the truncation-radius estimate.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st
from mpmath import jtheta, mp, mpc

from thetalab import (
    EvalSettings,
    NotSiegel,
    OMEGA,
    OutOfRange,
    PeriodMatrix,
    RadiusExceeded,
    SurfacePoint,
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


def test_array_call_against_direct_sum(Z0):
    chi = ThetaCharacteristic(("1/2", "1/4"), ("1/2", "3/4"))
    V = np.array([(0.2 + 0.1j, 0.3 - 0.05j), (-0.4 + 0.3j, 1.1 + 0.2j), (0.7, -0.6 + 0.9j)])
    got = theta_char(chi, V, Z0)
    assert got.shape == (3,)
    for g, v in zip(got, V):
        assert g == pytest.approx(reference_theta(chi, v, Z0), rel=1e-11, abs=1e-13)


def test_large_peak_against_direct_sum(settings):
    # a Newton point of the tracer on draw 81, where the Gaussian peak is
    # exp(190.6): the sum is centred on the peak, so no factor of a term
    # leaves double range
    Z = random_period_matrix(np.random.default_rng(81))
    v = (0.70058 + 2.07419j, -1.68643 + 11.53567j)
    peak = _envelope_peak(Z, v)
    assert 1e82 < peak < 1e83
    want = (reference_theta(quarter_characteristic(3), v, Z, radius=24)
            - reference_theta(OMEGA, v, Z, radius=24))
    assert abs(odd_theta(v, Z, settings) - want) <= settings.tol * peak
    assert abs(odd_theta_with_gradient(v, Z, settings)[0] - want) <= settings.tol * peak


def _reference_odd_gradient(v, Z, radius=12):
    """d/dv1 and d/dv2 of the odd section by plain double sums."""
    grad = [0j, 0j]
    for sign, a2 in ((1, 0.75), (-1, 0.25)):
        for m1 in range(-radius, radius + 1):
            for l2 in range(-radius, radius + 1):
                m2 = l2 + a2
                quad = m1 * m1 * Z.z11 + 2 * m1 * m2 * Z.z12 + m2 * m2 * Z.z22
                term = cmath.exp(1j * cmath.pi * quad + 2j * cmath.pi * (m1 * v[0] + m2 * v[1]))
                grad[0] += sign * 2j * cmath.pi * m1 * term
                grad[1] += sign * 2j * cmath.pi * m2 * term
    return grad


@pytest.mark.parametrize(
    "Z",
    [
        PeriodMatrix.diagonal(0.1 + 1.1j, 0.2 + 31j),
        PeriodMatrix.diagonal(0.1 + 1.1j, 0.2 + 70j),
        PeriodMatrix(0.1 + 20j, 0.2 + 18j, -0.3 + 20j),
    ],
    ids=["im_z22_31", "im_z22_70", "correlated"],
)
def test_large_or_correlated_imaginary_part_against_direct_sum(Z, settings):
    # one large entry of Im Z, or a strongly correlated Im Z: a factor
    # exp(2 pi i k w) of a term alone leaves double range there while the
    # term itself underflows, so each factor carries a Gaussian of its own
    for v in [(0.0, 0.0), (0.3 + 0.2j, -0.4 + 1.5j), (0.7 - 0.6j, 0.2 - 2.5j)]:
        peak = _envelope_peak(Z, v)
        want = reference_theta(quarter_characteristic(3), v, Z) - reference_theta(OMEGA, v, Z)
        assert abs(odd_theta(v, Z, settings) - want) <= settings.tol * peak
        t, grad = odd_theta_with_gradient(v, Z, settings)
        assert abs(t - want) <= settings.tol * peak
        for g, ref in zip(grad, _reference_odd_gradient(v, Z)):
            assert abs(g - ref) <= 100 * settings.tol * peak


def test_frozen_regression_value(Z0):
    got = odd_theta((0.31 + 0.12j, -0.2 + 0.45j), Z0)
    want = 0.4779926363854756 + 0.029452518355850443j
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# arrays of points against single points


TOLS = [1e-6, 1e-8, 1e-10, 1e-12, 1e-14]
CHIS = [quarter_characteristic(k) for k in range(4)] + [
    ThetaCharacteristic(("1/2", "1/4"), ("1/2", "3/4"))
]


@st.composite
def batches(draw, shared_imag):
    """(Z, V, tol): V is (n, 2) with Gaussian centre shifts Y^-1 Im v of
    Euclidean length up to 10, all equal when shared_imag.  Im Z has
    eigenvalues in about [0.25, 1.8], so no term leaves double range."""
    x = [draw(st.floats(-0.5, 0.5)) for _ in range(3)]
    a, c = draw(st.floats(0.5, 1.2)), draw(st.floats(0.5, 1.2))
    b = draw(st.floats(-0.5, 0.5)) * math.sqrt(a * c)
    Z = PeriodMatrix(complex(x[0], a), complex(x[1], b), complex(x[2], c))
    n = draw(st.integers(1, 5))
    centre = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 2 * math.pi))
    polar = [draw(centre)] * n if shared_imag else [draw(centre) for _ in range(n)]
    u = np.array([(r * math.cos(t), r * math.sin(t)) for r, t in polar])
    re = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(2)] for _ in range(n)])
    V = re + 1j * (u @ Z.imag_part())
    return Z, V, draw(st.sampled_from(TOLS))


def _envelope_peak(Z, v):
    """exp(pi y^T Y^-1 y), y = Im v: no term of a theta sum at v is larger."""
    y = np.imag(v)
    return math.exp(math.pi * y @ np.linalg.solve(Z.imag_part(), y))


def _gradient_radius(Z, V, tol):
    """The gradient radius of a batch: truncation_radius at tol / (1 + n),
    n the largest |n0| over the rows and the odd pair's characteristics,
    where n0 = rint(-Y^-1 Im v - c1) is the lattice shift to the peak."""
    u = np.linalg.solve(Z.imag_part(), np.imag(V).T)
    c1 = np.array([(0.0, 0.75), (0.0, 0.25)])[:, :, None]
    nbar = float(np.abs(np.rint(-u - c1)).max())
    return truncation_radius(Z.min_imag_eigenvalue(), 0.5, tol / (1.0 + nbar), 64, 1)


def _odd_with_grad(v, Z, s, radius=None):
    t, (g1, g2) = odd_theta_with_gradient(v, Z, s, radius)
    return np.array([t, g1, g2])


@hsettings(max_examples=40, deadline=None)
@given(batches(shared_imag=True), st.sampled_from(CHIS))
def test_array_call_matches_single_points(batch, chi):
    # rows that share Im v share the radius, so entry i of an array call
    # must be the single-point call at V[i] up to rounding
    Z, V, tol = batch
    s = EvalSettings(tol=tol)
    arrays = [theta_char(chi, V, Z, s), odd_theta(V, Z, s), theta_basis(V, Z, s),
              _odd_with_grad(V, Z, s).T]
    for i, v in enumerate(V):
        p = (complex(v[0]), complex(v[1]))
        singles = [theta_char(chi, p, Z, s), odd_theta(p, Z, s), theta_basis(p, Z, s),
                   _odd_with_grad(p, Z, s)]
        bound = 1e-14 * _envelope_peak(Z, v)
        for arr, single in zip(arrays, singles):
            assert np.max(np.abs(arr[i] - np.asarray(single))) <= bound


@hsettings(max_examples=40, deadline=None)
@given(batches(shared_imag=False), st.sampled_from(CHIS))
def test_rows_with_different_shifts_match_single_points(batch, chi):
    # each row is summed over its own centred box, so with different Im v a
    # row of a batch is its single call bit for bit, at the default radius
    # and at an explicit one; only the default gradient radius is the
    # batch's, taken at its largest lattice shift
    Z, V, tol = batch
    s = EvalSettings(tol=tol)
    r_grad = _gradient_radius(Z, V, tol)
    for radius in (None, 5):
        arrays = [theta_char(chi, V, Z, s, radius), odd_theta(V, Z, s, radius),
                  _odd_with_grad(V, Z, s, radius).T]
        if radius is None:
            arrays.append(theta_basis(V, Z, s))
        for i, v in enumerate(V):
            p = (complex(v[0]), complex(v[1]))
            singles = [theta_char(chi, p, Z, s, radius), odd_theta(p, Z, s, radius),
                       _odd_with_grad(p, Z, s, radius or r_grad)]
            if radius is None:
                singles.append(theta_basis(p, Z, s))
            for arr, single in zip(arrays, singles):
                assert np.array_equal(arr[i], np.asarray(single))


def test_large_array_matches_single_points(Z0, rng):
    # 600 rows at radius 4 in one batch; rows that share Im v share the
    # radius, so every entry is the single call bit for bit
    V = rng.uniform(-2.0, 2.0, size=(600, 2)) + 1j * np.array([0.3, -0.2])
    t, (g1, g2) = odd_theta_with_gradient(V, Z0)
    basis = theta_basis(V, Z0)
    for i, v in enumerate(V):
        p = (complex(v[0]), complex(v[1]))
        assert (t[i], (g1[i], g2[i])) == odd_theta_with_gradient(p, Z0)
        assert list(basis[i]) == theta_basis(p, Z0)


def test_array_shapes(Z0):
    V = np.array([(0.1 + 0.2j, 0.3), (0.4, -0.5 + 0.1j)])
    assert odd_theta(V, Z0).shape == (2,)
    assert theta_basis(V, Z0).shape == (2, 4)
    t, (g1, g2) = odd_theta_with_gradient(V, Z0)
    assert t.shape == g1.shape == g2.shape == (2,)
    # an empty batch gives empty results from every evaluator
    E = np.empty((0, 2), complex)
    assert theta_char(OMEGA, E, Z0).shape == odd_theta(E, Z0).shape == (0,)
    assert theta_basis(E, Z0).shape == (0, 4)
    t, (g1, g2) = odd_theta_with_gradient(E, Z0)
    assert t.shape == g1.shape == g2.shape == (0,)
    # a single point gives Python complexes, not numpy scalars or arrays
    for p in [(0.1 + 0.2j, 0.3), SurfacePoint(0.1 + 0.2j, 0.3), np.array([0.1 + 0.2j, 0.3])]:
        assert type(theta_char(OMEGA, p, Z0)) is complex
        assert type(odd_theta(p, Z0)) is complex
        t, g = odd_theta_with_gradient(p, Z0)
        assert type(t) is complex and type(g) is tuple and len(g) == 2
        assert all(type(x) is complex for x in g + odd_theta_gradient(p, Z0))
        b = theta_basis(p, Z0)
        assert type(b) is list and len(b) == 4 and all(type(x) is complex for x in b)


def test_nested_list_is_a_batch(Z0):
    got = odd_theta([[0.1, 0.2]], Z0)
    assert got.shape == (1,)
    assert got[0] == odd_theta((0.1, 0.2), Z0)
    assert theta_basis([[0.1, 0.2], [0.3j, 0.4]], Z0).shape == (2, 4)


@pytest.mark.parametrize(
    "v",
    [[0.1, 0.2, 0.3], [0.1], np.zeros((2, 3)), np.zeros((1, 1, 2)), 0.5,
     (float("nan"), 0.2), (float("inf") * 1j, 0.2), (0.1, complex(0.2, float("-inf"))),
     np.array([(0.1, 0.2), (0.3, float("nan"))])],
    ids=["three_coords", "one_coord", "n_by_3", "three_dims", "scalar",
         "nan", "inf_imag", "neg_inf_imag", "nan_in_batch"],
)
def test_malformed_or_non_finite_points_rejected(Z0, v):
    for call in (lambda: theta_char(OMEGA, v, Z0), lambda: odd_theta(v, Z0),
                 lambda: odd_theta_with_gradient(v, Z0), lambda: theta_basis(v, Z0)):
        with pytest.raises(OutOfRange):
            call()


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


def test_overflow_raises_instead_of_nan():
    # Im v2 = 20 puts the Gaussian peak at exp(1132), beyond double range,
    # while the radius still fits
    Z = PeriodMatrix(0.1 + 1j, 0.05 + 0.3j, -0.2 + 1.2j)
    with pytest.raises(OverflowError, match="1132"):
        odd_theta((0.3, 0.1 + 20j), Z)
    with pytest.raises(OverflowError, match=r"\(0\.1\+20j\)"):
        odd_theta(np.array([(0.3, 0.1 + 0.2j), (0.3, 0.1 + 20j)]), Z)
    with pytest.raises(OverflowError):
        odd_theta_with_gradient((0.3, 0.1 + 20j), Z)
    # far beyond range, Im v + Y n0 loses every digit; the peak is tested
    # before any factor is formed, so no overflow warning comes first
    for v in [(0.3, 0.1 + 1e20j), (0.3 - 1e100j, 0.1)]:
        with pytest.raises(OverflowError):
            odd_theta(v, Z)
        with pytest.raises(OverflowError):
            odd_theta_with_gradient(v, Z)
    # here the peak, exp(706.2), and the value are in range but the gradient
    # is not, so the factor times the sum is tested too, not the factor alone
    Z = PeriodMatrix(0.1 + 1.2661574232704902j, 0.05 - 0.014045187764284678j,
                     -0.2 + 1.5687787311336998j)
    v = (-0.4603264289983997 + 15.021778086002671j, 0.7262404083786356 - 8.713035381285426j)
    assert cmath.isfinite(odd_theta(v, Z))
    with pytest.raises(OverflowError, match=r"exp\(706\.177\)"):
        odd_theta_with_gradient(v, Z)


def test_huge_imaginary_part_raises_before_squaring(Z0):
    # (Im v)^2 overflows above 1e154; the range of Im v is tested first, so
    # under the suite's warnings-as-errors filter this is OverflowError, not
    # numpy's RuntimeWarning
    for f in (odd_theta, odd_theta_with_gradient, theta_basis):
        with pytest.raises(OverflowError, match=r"1e\+160j"):
            f((0.3, 0.1 + 1e160j), Z0)


def test_odd_difference_stays_finite_or_raises():
    # raw theta[3w] and theta[w] are each finite near 1e308 at these points,
    # but their difference is not: the values' at the first point (whose
    # gradient sums are beyond range themselves), the gradient's at the
    # second.  The weighted difference is finite, and its raw value raises
    # OverflowError naming its point
    Z = PeriodMatrix(0.1 + 0.41808j, 0.05 + 0.024929j, -0.2 + 2.70946j)
    v = (-0.33234 - 9.33907j, -0.86024 + 6.28921j)
    with pytest.raises(OverflowError, match=r"\(-0\.33234-9\.33907j\)"):
        odd_theta(v, Z)
    with pytest.raises(OverflowError, match=r"\(-0\.33234-9\.33907j\)"):
        odd_theta_with_gradient(v, Z)
    v = (-0.37751 - 9.30190j, -0.86494 + 6.33530j)
    assert cmath.isfinite(odd_theta(v, Z))
    with pytest.raises(OverflowError, match=r"\(-0\.37751-9\.3019j\)"):
        odd_theta_with_gradient(v, Z)


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


@pytest.mark.parametrize("y11, y12, y22", [
    (1e200, 0.0, 1e200),     # y11 y22 overflows: lambda_min read nan
    (2e-14, 0.0, 1e3),       # tr^2 - 4 det cancels: lambda_min read 5.68e-14
    (1e200, 5e199, 1e200),   # positive definite, but y11 y22 - y12^2 is inf - inf
    (1.0, 0.3, 1.2),         # Im Z0
])
def test_min_imag_eigenvalue_matches_eigvalsh(y11, y12, y22):
    Z = PeriodMatrix(0.1 + y11 * 1j, 0.05 + y12 * 1j, -0.2 + y22 * 1j)
    ref = np.linalg.eigvalsh(Z.imag_part())[0]
    assert Z.min_imag_eigenvalue() == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_min_imag_eigenvalue_keeps_every_radius(settings):
    # on the surface draws 0-199 the radii, of values and of gradients, are
    # those of the eigenvalue eigvalsh gives
    for k in range(200):
        Z = random_period_matrix(np.random.default_rng(k))
        lam, ref = Z.min_imag_eigenvalue(), np.linalg.eigvalsh(Z.imag_part())[0]
        for grad_order in (0, 1):
            assert (truncation_radius(lam, 0.5, settings.tol, 64, grad_order)
                    == truncation_radius(ref, 0.5, settings.tol, 64, grad_order))


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
