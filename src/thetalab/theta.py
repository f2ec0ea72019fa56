"""Theta evaluation with certified Gaussian-tail truncation.

Convention (fixed throughout the package): for characteristics c1, c2 and
a point v in C^2,

    theta[c1; c2](v, Z) = sum_{l in Z^2} exp( pi*i (l+c1)^T Z (l+c1)
                                              + 2*pi*i (l+c1) . (v+c2) ).

Every evaluator goes through `_evaluate`, which centres each sum on its
Gaussian peak exp(pi y^T Y^-1 y), y = Im v, so one box radius serves every
point: the least R whose Gaussian majorant of the dropped tail, relative to
the peak, is below tol.  It depends only on (Z, tol, gradient order), and
`truncation_radius` caches it; `radius=` is the half-width of each row's
centred box.  `_evaluate` returns weighted values, theta over its peak
(Deconinck, Heil, Bobenko, van Hoeij & Schmies, Computing Riemann theta
functions, Math. Comp. 73 (2004)), which the package reads through
`_weighted_odd` and `_weighted_sums`.  Only the four public evaluators form
raw theta, in `_raw`, the one range check: a point whose Gaussian peak, or
raw value, is beyond double range raises OverflowError, not nan.

Each public evaluator takes one point v = (v1, v2), returning Python
complexes, or an (n, 2) array of points, one per row, returning arrays
indexed by row.  A point is a one-row batch: `_rows` makes the (n, 2)
complex array the only point format below the public functions, and raises
OutOfRange for any other shape and for a coordinate that is not finite.  A
row of a batch is its single call bit for bit, except that the default
gradient radius is the batch's.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import _kernel_py as _KERNEL  # looked up per call, so profilers can wrap it
from .errors import OutOfRange, RadiusExceeded
from .siegel import (
    OMEGA,
    EvalSettings,
    PeriodMatrix,
    SurfacePoint,
    ThetaCharacteristic,
    quarter_characteristic,
)


# one point (v1, v2), or an (n, 2) array-like with one point per row
_Points = SurfacePoint | tuple[complex, complex] | np.ndarray


def kernel_backend() -> str:
    """Name of the lattice-sum backend recorded in reports: always 'python'."""
    return "python"


def _tail_below(lam: float, shift: float, radius: int, grad_order: int, tol: float) -> bool:
    """Whether the tail majorant, relative to the dominant term, is below tol.

    Terms with sup-norm k > radius number 8k and are each bounded by
    (2 pi (k+1))^grad_order * exp(-pi lam (k - shift)^2).  Partial sums
    never decrease, so the first one that is not below tol decides.
    """
    total = 0.0
    decay = -math.pi * lam
    for k in range(radius + 1, radius + 2000):
        d = k - shift if k > shift else 0.0
        t = 8.0 * k * (2.0 * math.pi * (k + 1)) ** grad_order * math.exp(decay * d * d)
        total += t
        if not total < tol:
            return False
        if d > 1.0 and t < 1e-18 * (total if total > 1.0 else 1.0):
            break
    return True


@functools.lru_cache(maxsize=1024)
def truncation_radius(
    lam_min: float, shift: float, tol: float, max_radius: int, grad_order: int = 0
) -> int:
    """Smallest box radius whose tail majorant is below tol.

    lam_min is the least eigenvalue of Im Z, shift the sup-norm distance of
    the Gaussian centre from the origin.  Raises RadiusExceeded when no
    radius up to max_radius suffices.
    """
    R = max(1, math.ceil(shift))
    while R <= max_radius:
        if _tail_below(lam_min, shift, R, grad_order, tol):
            return R
        R += 1
    raise RadiusExceeded(
        f"tolerance {tol} needs truncation radius > {max_radius} "
        f"(lambda_min={lam_min:.4g}, shift={shift:.4g})"
    )


def _points(pts) -> np.ndarray:
    """Points as an (n, 2) complex array, one per row, for a batched call."""
    return np.array(pts, dtype=complex).reshape(-1, 2)


def _rows(v) -> tuple[np.ndarray, bool]:
    """v as an (n, 2) complex array, and whether it was one point (v1, v2),
    which becomes a one-row batch.  Raises OutOfRange for any other shape
    and for a coordinate that is not finite."""
    rows = np.asarray(v, dtype=complex)
    single = rows.shape == (2,)
    if single:
        rows = rows[None]
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise OutOfRange(f"expected a point (v1, v2) or an (n, 2) array, got shape {rows.shape}")
    finite = np.isfinite(rows)
    if not finite.all():
        bad = rows[np.argmin(finite.all(axis=1))]
        raise OutOfRange(f"point {tuple(bad.tolist())} has a coordinate that is not finite")
    return rows, single


def _unwrap(x: np.ndarray, single: bool):
    """x, indexed by point on its first axis; for a point its entry, in Python numbers."""
    return x.tolist()[0] if single else x


def _gaussian_peak(Z: PeriodMatrix, v: np.ndarray):
    """u = Y^{-1} Im v for each row of an (n, 2) array v, in closed form and
    elementwise so that each row is computed alone, and the log of the
    largest term any theta sum can have there, pi (Im v) . u."""
    y = v.imag
    a, b, c = Z.z11.imag, Z.z12.imag, Z.z22.imag
    det = a * c - b * b
    u = y[:, :1] * np.array([c / det, -b / det]) + y[:, 1:] * np.array([-b / det, a / det])
    return u, np.pi * (y * u).sum(axis=1)


def _characteristics(*chis: ThetaCharacteristic):
    """c1 of each of chis as a (k, 1, 2) array, and c2 likewise, or None
    when every c2 is zero (as for every characteristic the package uses)."""
    c1 = np.array([x.c1_floats() for x in chis])[:, None, :]
    c2 = np.array([x.c2_floats() for x in chis])[:, None, :]
    return c1, (c2 if c2.any() else None)


_LOG_DBL_MAX = math.log(sys.float_info.max)


def _raw(x, v, log_peak):
    """Raw theta from weighted values x, rows of v on the last axis: x times
    the Gaussian peak exp(log_peak).  Raises OverflowError naming the first
    row whose peak, or a raw entry, is beyond double range or not a number."""
    log_top = np.log(np.maximum(np.abs(x), 1.0)) + log_peak
    if not log_top.max(initial=-np.inf) <= _LOG_DBL_MAX:
        bad = np.argmax(~(log_top <= _LOG_DBL_MAX).reshape(-1, len(v)).all(axis=0))
        raise OverflowError(f"theta sum at v = {tuple(v[bad].tolist())} is beyond double range: "
                            f"its Gaussian peak is exp({log_peak[bad]:.6g})")
    return x * np.exp(log_peak)


def _check_imag_range(v, Z: PeriodMatrix):
    """Raise OverflowError naming the first row of v whose Im v alone puts its
    Gaussian peak beyond range: the peak's log pi y^T Y^-1 y is at least
    pi |y|^2 / tr Y, and this is tested before y is squared, which
    overflows for |y| above about 1e154."""
    bound = math.sqrt(_LOG_DBL_MAX * (Z.z11.imag + Z.z22.imag) / math.pi)
    y = np.abs(v.imag)
    if not y.max(initial=0.0) <= bound:
        bad = np.argmax((y > bound).any(axis=1))
        raise OverflowError(f"theta sum at v = {tuple(v[bad].tolist())} is beyond double range: "
                            f"its Gaussian peak exceeds exp({_LOG_DBL_MAX:.6g})")


def _evaluate(chars, v, Z: PeriodMatrix, settings: EvalSettings, radius, grad_order: int):
    """Weighted kernel sums for each characteristic of chars (see
    `_characteristics`) at the rows of v: a (k, n) array of values, or for
    grad_order 1 a (k, 3, n) array of (value, d/dv1, d/dv2), each times
    w(v) = exp(-log_peak); and log_peak, the log of each row's Gaussian peak.

    Each row and characteristic [c1; c2] is centred on its Gaussian peak:
    with w = v + c2, mu = rint(-Y^{-1} Im v - c1) + c1 and w' = w + Z mu,
    theta(v) = P S(w'), P = exp(pi i mu . (w + w')), S summed over a box
    centred within 1/2 of its peak; the kernel gives S over that peak, so
    w(v) theta(v) is exp(i arg P) times it, at most (2R+1)^2 in modulus.  The
    gradient is P (grad S + 2 pi i mu S); a tail term at sup-norm j carries
    2 pi (j + 1 + |mu - c1|), so it is certified at tol / (1 + max |mu - c1|).
    """
    c1, c2 = chars
    _check_imag_range(v, Z)
    u, log_peak = _gaussian_peak(Z, v)
    w = v if c2 is None else v + c2
    mu = np.rint(-u - c1) + c1  # (k, n, 2)
    wp = w + (mu[..., None, :] * Z.as_matrix()).sum(axis=-1)
    phase = np.exp(((w + wp) * mu).sum(axis=-1).real * (1j * np.pi))
    if radius is None:
        nbar = float(np.abs(mu - c1).max(initial=0.0)) if grad_order else 0.0
        radius = truncation_radius(Z.min_imag_eigenvalue(), 0.5, settings.tol / (1.0 + nbar),
                                   settings.max_radius, grad_order)
    if grad_order:
        s, g1, g2 = _KERNEL.theta_sum_grad(Z.z11, Z.z12, Z.z22, wp, radius)
        twopi_i_s = s * (2j * np.pi)
        out = np.stack((s, g1 + mu[..., 0] * twopi_i_s, g2 + mu[..., 1] * twopi_i_s), axis=1)
        return out * phase[:, None], log_peak
    return _KERNEL.theta_sum(Z.z11, Z.z12, Z.z22, wp, radius) * phase, log_peak


# theta[3w; 0] first, theta[w; 0] second: the odd section is their difference
_ODD_PAIR = _characteristics(quarter_characteristic(3), OMEGA)
_BASIS = _characteristics(*(quarter_characteristic(k) for k in range(4)))


def _weighted_sums(chars, v, Z: PeriodMatrix, settings: EvalSettings):
    """Weighted theta of each of chars (`_BASIS` for the four basis sections)
    at the rows of v, an (n, 2) array: a (k, n) array."""
    return _evaluate(chars, v, Z, settings, None, 0)[0]


def _weighted_odd(v, Z: PeriodMatrix, settings: EvalSettings, grad_order: int = 0):
    """Weighted odd section w(v) theta_A at the rows of v, an (n, 2) array:
    an (n,) array, or for grad_order 1 a (3, n) array of value and gradient,
    both times w(v)."""
    s3, s1 = _evaluate(_ODD_PAIR, v, Z, settings, None, grad_order)[0]
    return s3 - s1


def theta_char(
    chi: ThetaCharacteristic,
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    radius: int | None = None,
):
    """Evaluate theta[c1; c2](v, Z) by certified truncated lattice sum.

    A complex for a point, an (n,) array for an (n, 2) array of points.
    """
    rows, single = _rows(v)
    (s,), log_peak = _evaluate(_characteristics(chi), rows, Z, settings, radius, 0)
    return _unwrap(_raw(s, rows, log_peak), single)


def odd_theta(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    radius: int | None = None,
):
    """The odd section theta[3w; 0](v) - theta[w; 0](v), w = (0, 1/4).

    Its zero divisor is the genus-5 curve the rest of the package studies.
    A complex for a point, an (n,) array for an (n, 2) array of points.
    """
    rows, single = _rows(v)
    (s3, s1), log_peak = _evaluate(_ODD_PAIR, rows, Z, settings, radius, 0)
    return _unwrap(_raw(s3 - s1, rows, log_peak), single)


def odd_theta_gradient(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    radius: int | None = None,
):
    """Complex gradient (d/dv1, d/dv2) of the odd section; each entry is
    an (n,) array for an (n, 2) array of points."""
    return odd_theta_with_gradient(v, Z, settings, radius)[1]


def odd_theta_with_gradient(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    radius: int | None = None,
):
    """Value and gradient (value, (d/dv1, d/dv2)) of the odd section in one
    pass at one radius; each entry is an (n,) array for an (n, 2) array of
    points."""
    rows, single = _rows(v)
    (s3, s1), log_peak = _evaluate(_ODD_PAIR, rows, Z, settings, radius, 1)
    t, g1, g2 = (_unwrap(x, single) for x in _raw(s3 - s1, rows, log_peak))
    return t, (g1, g2)


def theta_basis(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
):
    """Values of the four basis sections theta[k*w; 0], k = 0..3, at v: a
    list of four complexes for a point, an (n, 4) array for an (n, 2) array
    of points (row i holds the four values at point i)."""
    rows, single = _rows(v)
    sums, log_peak = _evaluate(_BASIS, rows, Z, settings, None, 0)
    return _unwrap(_raw(sums, rows, log_peak).T, single)
