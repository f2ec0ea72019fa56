"""Theta evaluation with certified Gaussian-tail truncation.

Convention (fixed throughout the package): for characteristics c1, c2 and
a point v in C^2,

    theta[c1; c2](v, Z) = sum_{l in Z^2} exp( pi*i (l+c1)^T Z (l+c1)
                                              + 2*pi*i (l+c1) . (v+c2) ).

The truncation box [-R, R]^2 is chosen so that a Gaussian majorant of the
dropped tail, normalised by the dominant term's magnitude, falls below the
requested tolerance.  Every public evaluator goes through `_evaluate`, which
picks one radius per call and runs the numpy lattice sum in `_kernel_py`
once per characteristic.

Each evaluator takes one point v = (v1, v2), returning Python complexes,
or an (n, 2) array of points, one per row, returning arrays indexed by
row.  A point is a one-row batch: `_rows` makes the (n, 2) complex array
the only point format below the public functions, and raises OutOfRange
for any other shape and for a coordinate that is not finite.  A batch is
summed over one box at the radius `truncation_radius` picks for the
largest Gaussian-centre shift among its rows; the tail majorant grows with
the shift, so every row keeps at least the certificate it would get alone.
A sum beyond double range (a Gaussian peak exp(pi y^T Y^-1 y) above about
1e308, y = Im v) raises OverflowError instead of returning nan.
"""

from __future__ import annotations

import math

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
    bad = _first_bad_point(np.isfinite(rows.T))
    if bad is not None:
        raise OutOfRange(f"point {tuple(rows[bad].tolist())} has a coordinate that is not finite")
    return rows, single


def _first_bad_point(ok: np.ndarray) -> int | None:
    """Index of the first point (last axis of ok) with a False entry, or None."""
    if np.count_nonzero(ok) == ok.size:
        return None
    return int(np.argmin(ok.reshape(-1, ok.shape[-1]).all(axis=0)))


def _unwrap(x: np.ndarray, single: bool):
    """x, indexed by point on its first axis; for a point its entry, in Python numbers."""
    return x.tolist()[0] if single else x


def _log_peak(Z: PeriodMatrix, v: np.ndarray) -> np.ndarray:
    """pi y^T Y^{-1} y with y = Im v, for each row v of an (n, 2) array: the
    log of the largest term any theta sum can have there."""
    y = v.imag.T
    return np.pi * (y * np.linalg.solve(Z.imag_part(), y)).sum(axis=0)


def _radius_for(Z: PeriodMatrix, chis, v, settings: EvalSettings, grad_order: int) -> int:
    """One radius for all of chis at every row of v.

    The Gaussian centre of theta[c1; c2] at v is c1 + Y^{-1} Im(v + c2); c2
    is real, so Y^{-1} Im v is solved once and only c1 moves the centre.  The
    largest shift over the rows and the characteristics decides.
    """
    u = np.linalg.solve(Z.imag_part(), v.imag.T)
    c1 = np.array([chi.c1_floats() for chi in chis])
    shift = float(np.abs(c1[:, :, None] + u).max(initial=0.0))
    return truncation_radius(
        Z.min_imag_eigenvalue(), shift, settings.tol, settings.max_radius, grad_order
    )


def _evaluate(chis, v, Z: PeriodMatrix, settings: EvalSettings, radius, grad_order: int):
    """Kernel sums for each of chis at the rows of v, at one radius.

    grad_order 0 gives a (len(chis), n) array of values, grad_order 1 a
    (len(chis), 3, n) array of (value, d/dv1, d/dv2).  Raises
    OverflowError, naming the first offending point, when a sum is not
    finite.
    """
    if radius is None:
        radius = _radius_for(Z, chis, v, settings, grad_order)
    kernel = _KERNEL.theta_sum_grad if grad_order else _KERNEL.theta_sum
    v1, v2 = v[:, 0], v[:, 1]
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for chi in chis:
            a, c2 = chi.c1_floats(), chi.c2_floats()
            # every characteristic the package itself uses has c2 = 0
            w1, w2 = (v1 + c2[0], v2 + c2[1]) if any(c2) else (v1, v2)
            out.append(kernel(a[0], a[1], Z.z11, Z.z12, Z.z22, w1, w2, radius))
    sums = np.array(out)
    bad = _first_bad_point(np.isfinite(sums))
    if bad is not None:
        p1, p2 = v[bad].tolist()
        raise OverflowError(
            f"theta sum at v = ({p1}, {p2}) is not finite: its Gaussian peak "
            f"exp({_log_peak(Z, v[bad:bad + 1])[0]:.6g}) is beyond double range"
        )
    return sums


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
    return _unwrap(_evaluate((chi,), rows, Z, settings, radius, 0)[0], single)


# theta[3w; 0] first, theta[w; 0] second: the odd section is their difference
_ODD_PAIR = (quarter_characteristic(3), OMEGA)
_BASIS = tuple(quarter_characteristic(k) for k in range(4))


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
    t3, t1 = _evaluate(_ODD_PAIR, rows, Z, settings, radius, 0)
    return _unwrap(t3 - t1, single)


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
    s3, s1 = _evaluate(_ODD_PAIR, rows, Z, settings, radius, 1)
    t, g1, g2 = (_unwrap(x, single) for x in s3 - s1)
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
    return _unwrap(_evaluate(_BASIS, rows, Z, settings, None, 0).T, single)
