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

Each evaluator takes either one point v = (v1, v2) or an (n, 2) complex
array of points, one per row, and then returns arrays indexed by row.  A
batch is summed over one box whose radius is the one `truncation_radius`
picks at the largest Gaussian-centre shift among its rows: the tail
majorant grows with the shift, so every row keeps at least the certificate
it would get alone.  A sum that leaves the double range (a Gaussian peak
exp(pi y^T Y^-1 y) beyond about 1e308, y = Im v) raises OverflowError
instead of returning nan.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import _kernel_py as _KERNEL  # looked up per call, so profilers can wrap it
from .errors import RadiusExceeded
from .siegel import (
    OMEGA,
    EvalSettings,
    PeriodMatrix,
    SurfacePoint,
    ThetaCharacteristic,
    quarter_characteristic,
)


# one point (v1, v2), or an (n, 2) complex array with one point per row
_Points = SurfacePoint | tuple[complex, complex] | np.ndarray


def kernel_backend() -> str:
    """Name of the lattice-sum backend recorded in reports: always 'python'."""
    return "python"


def _tail_bound(lam: float, shift: float, radius: int, grad_order: int) -> float:
    """Majorant for the dropped tail, relative to the dominant term.

    Terms with sup-norm k > radius number 8k and are each bounded by
    (2 pi (k+1))^grad_order * exp(-pi lam (k - shift)^2).
    """
    total = 0.0
    for k in range(radius + 1, radius + 2000):
        d = max(k - shift, 0.0)
        t = 8.0 * k * (2.0 * math.pi * (k + 1)) ** grad_order * math.exp(
            -math.pi * lam * d * d
        )
        total += t
        if d > 1.0 and t < 1e-18 * max(total, 1.0):
            break
    return total


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
        if _tail_bound(lam_min, shift, R, grad_order) < tol:
            return R
        R += 1
    raise RadiusExceeded(
        f"tolerance {tol} needs truncation radius > {max_radius} "
        f"(lambda_min={lam_min:.4g}, shift={shift:.4g})"
    )


def _is_batch(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim == 2


def _points(pts) -> np.ndarray:
    """Points as an (n, 2) complex array, one per row, for a batched call."""
    return np.array(pts, dtype=complex).reshape(-1, 2)


def _log_peak(Z: PeriodMatrix, v):
    """pi y^T Y^{-1} y with y = Im v: the log of the largest term any theta
    sum can have at v.  A float for a point, an (n,) array for a batch."""
    y = np.imag(np.asarray(v, dtype=complex))
    return np.pi * (y.T * np.linalg.solve(Z.imag_part(), y.T)).sum(axis=0)


def _radius_for(Z: PeriodMatrix, chis, v, settings: EvalSettings, grad_order: int) -> int:
    """One radius for all of chis at v, or at every row of a batch v.

    The Gaussian centre of theta[c1; c2] at v is c1 + Y^{-1} Im(v + c2); c2
    is real, so Y^{-1} Im v is solved once and only c1 moves the centre.  A
    batch takes the largest shift over its rows.
    """
    y = v.imag.T if _is_batch(v) else np.array([v[0].imag, v[1].imag])
    u = np.linalg.solve(Z.imag_part(), y).reshape(2, -1)
    shift = max(
        float(np.abs(np.array(chi.c1_floats())[:, None] + u).max(initial=0.0))
        for chi in chis
    )
    return truncation_radius(
        Z.min_imag_eigenvalue(), shift, settings.tol, settings.max_radius, grad_order
    )


def _evaluate(chis, v, Z: PeriodMatrix, settings: EvalSettings, radius, grad_order: int):
    """Kernel results for each of chis at v, all at one truncation radius.

    grad_order 0 gives a value per characteristic, grad_order 1 a triple
    (value, d/dv1, d/dv2); for a batch v each entry is an (n,) array.
    Raises OverflowError, naming the first offending point, when a sum is
    not finite.
    """
    batch = _is_batch(v)
    if batch:
        v = v.astype(complex, copy=False)
        v1, v2 = v[:, 0], v[:, 1]
    else:
        v1, v2 = v[0], v[1]
    if radius is None:
        radius = _radius_for(Z, chis, v, settings, grad_order)
    kernel = _KERNEL.theta_sum_grad if grad_order else _KERNEL.theta_sum
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for chi in chis:
            a, c2 = chi.c1_floats(), chi.c2_floats()
            out.append(
                kernel(a[0], a[1], Z.z11, Z.z12, Z.z22, v1 + c2[0], v2 + c2[1], radius)
            )
    sums = [s for r in out for s in r] if grad_order else out
    if batch:
        bad = ~np.isfinite(sums).all(axis=0)
        if bad.any():
            raise _overflow(Z, v[int(np.argmax(bad))])
    elif not all(map(cmath.isfinite, sums)):
        raise _overflow(Z, v)
    return out


def _overflow(Z: PeriodMatrix, v) -> OverflowError:
    return OverflowError(
        f"theta sum at v = ({complex(v[0])}, {complex(v[1])}) is not finite: "
        f"its Gaussian peak exp({float(_log_peak(Z, v)):.6g}) is beyond double range"
    )


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
    return _evaluate((chi,), v, Z, settings, radius, 0)[0]


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
    t3, t1 = _evaluate(_ODD_PAIR, v, Z, settings, radius, 0)
    return t3 - t1


def odd_theta_gradient(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    radius: int | None = None,
):
    """Complex gradient (d/dv1, d/dv2) of the odd section; each entry is
    an (n,) array for an (n, 2) array of points."""
    _, g = odd_theta_with_gradient(v, Z, settings, radius)
    return g


def odd_theta_with_gradient(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    radius: int | None = None,
):
    """Value and gradient (value, (d/dv1, d/dv2)) of the odd section in one
    pass at one radius; each entry is an (n,) array for an (n, 2) array of
    points."""
    (t3, g31, g32), (t1, g11, g12) = _evaluate(_ODD_PAIR, v, Z, settings, radius, 1)
    return t3 - t1, (g31 - g11, g32 - g12)


def theta_basis(
    v: _Points,
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
):
    """Values of the four basis sections theta[k*w; 0], k = 0..3, at v: a
    list of four complexes for a point, an (n, 4) array for an (n, 2) array
    of points (row i holds the four values at point i)."""
    out = _evaluate(_BASIS, v, Z, settings, None, 0)
    return np.stack(out, axis=1) if _is_batch(v) else out
