"""Point-cloud tracer for the zero divisor of the odd section.

The curve is charted through the projection (v1, v2) -> v1.  The first
coordinates of the lattice generators Z e1 and D e1 span the rank-2
lattice z11 Z + Z, so v1 runs over an N x N grid on its fundamental
parallelogram; along the fibre only the generator D e2 = (0, 4) survives,
so solutions in v2 are reduced modulo 4.  Each grid line is solved by a
damped complex Newton iteration seeded from the twelve simple two-torsion
points of the curve and from the previous line's solutions.  The emitted
cloud is closed under v -> -v, realised as v -> Z e1 + D e1 - v, which maps
the chart to itself.  That symmetry of the curve is exact, so a mirror point
is accepted on its source's certificate.  The mirrors are still evaluated,
in one batched call, to fill their value and gradient columns, and that
call checks the mapping: the canonically weighted modulus w(v)|theta_A(v)|
is invariant under the symmetry, so a mirror whose weighted value differs
from its source's by more than the two truncation errors is recorded as a
failure instead of being emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .siegel import EvalSettings, PeriodMatrix, two_torsion_points
from .surface import ScanKind, canonical_weight, two_torsion_scan
from .theta import _points, odd_theta, odd_theta_with_gradient


@dataclass(frozen=True)
class TracePoint:
    line: tuple[int, int]   # grid indices; (-1, -1) for torsion seed points
    v1: complex
    v2: complex
    abs_theta: float
    grad_norm: float


@dataclass(frozen=True)
class TraceFailure:
    line: tuple[int, int]
    seeds_tried: int
    reason: str


@dataclass
class TraceResult:
    grid_size: int
    points: list[TracePoint]
    failures: list[TraceFailure]
    newton_calls: int


def _reduce_mod4(v2: complex) -> complex:
    return v2 - 4.0 * np.floor(v2.real / 4.0)


def _newton_line(Z, v1, v2, settings, tol_abs, max_iter=50):
    """Damped Newton for theta_A(v1, .) = 0; returns (v2, |theta|, |grad|, ok)."""
    calls = 0
    for _ in range(max_iter):
        t, (_, g2) = odd_theta_with_gradient((v1, v2), Z, settings)
        calls += 1
        if abs(t) < tol_abs:
            return v2, abs(t), abs(g2), True, calls
        if abs(g2) < 1e-14:
            return v2, abs(t), abs(g2), False, calls
        step = t / g2
        lam = 1.0
        improved = False
        for _ in range(8):
            cand = v2 - lam * step
            t2 = odd_theta((v1, cand), Z, settings)
            calls += 1
            if abs(t2) < abs(t):
                improved = True
                break
            lam *= 0.5
        if not improved:
            return v2, abs(t), abs(g2), False, calls
        v2 = cand
    t, (_, g2) = odd_theta_with_gradient((v1, v2), Z, settings)
    calls += 1
    return v2, abs(t), abs(g2), abs(t) < tol_abs, calls


def _is_duplicate(v2, found, tol=1e-6):
    for u in found:
        d = (v2 - u).real
        if abs(v2 - u - 4.0 * round(d / 4.0)) < tol:
            return True
    return False


def trace_curve(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    grid_size: int = 12,
) -> TraceResult:
    """Trace the curve over an N x N grid of v1 values.

    Every torsion seed and Newton solution satisfies |theta_A| <
    settings.tol; their mirror images under v -> Z e1 + D e1 - v are added
    on that certificate, with the values evaluated there in their columns.
    Lines where no seed converges, and mirrors whose weighted |theta_A|
    disagrees with their source's, are recorded as failures, not raised.
    """
    N = int(grid_size)
    tol_abs = settings.tol

    scan = two_torsion_scan(Z, settings)
    simple = {r.label for r in scan.records if r.kind is ScanKind.ODD_VANISHING}
    torsion = dict(two_torsion_points(Z))

    seed_v2: list[complex] = []
    points: list[TracePoint] = []
    seeds = [torsion[label] for label in sorted(simple)]
    t, (g1, g2) = odd_theta_with_gradient(_points(seeds), Z, settings)
    grad = np.hypot(np.abs(g1), np.abs(g2))
    for pt, a, g in zip(seeds, np.abs(t).tolist(), grad.tolist()):
        if a < tol_abs:
            points.append(TracePoint((-1, -1), pt.v1, _reduce_mod4(pt.v2), a, g))
        u = _reduce_mod4(pt.v2)
        if not _is_duplicate(u, seed_v2, tol=1e-3):
            seed_v2.append(u)

    failures: list[TraceFailure] = []
    calls = 0
    prev: list[complex] = []
    for i in range(N):
        for j in range(N):
            v1 = (i / N) * Z.z11 + (j / N)
            found: list[complex] = []
            tried = 0
            for v2 in prev + seed_v2:
                tried += 1
                sol, a, g, ok, c = _newton_line(Z, v1, v2, settings, tol_abs)
                calls += c
                if ok:
                    sol = _reduce_mod4(sol)
                    if not _is_duplicate(sol, found):
                        found.append(sol)
                        points.append(TracePoint((i, j), v1, sol, a, g))
            if not found:
                failures.append(
                    TraceFailure((i, j), tried, "no Newton seed converged")
                )
            prev = found

    # close the cloud under v -> -v within the chart
    by_line: dict[tuple[int, int], list[complex]] = {}
    for p in points:
        by_line.setdefault(p.line, []).append(p.v2)
    mirrors = []
    sources: list[TracePoint] = []
    for p in points:
        if p.line == (-1, -1):
            continue
        i, j = p.line
        mi, mj = (N - i) % N, (N - j) % N
        mv1 = (mi / N) * Z.z11 + (mj / N)
        # -v translated back into the chart: Z e1 is only added when the
        # s-index actually wraps, and it shifts v2 by z12
        a = 1.0 if i != 0 else 0.0
        mv2 = _reduce_mod4(a * Z.z12 - p.v2)
        if not _is_duplicate(mv2, by_line.get((mi, mj), [])):
            mirrors.append(((mi, mj), mv1, mv2))
            sources.append(p)
            by_line.setdefault((mi, mj), []).append(mv2)
    mv = _points([m[1:] for m in mirrors])
    t, (g1, g2) = odd_theta_with_gradient(mv, Z, settings)
    calls += len(mirrors)
    grad = np.hypot(np.abs(g1), np.abs(g2))
    # w(v)|theta_A(v)| is the same at v and its mirror; each side carries a
    # truncation error of at most tol in weighted units
    src_weighted = canonical_weight(Z, _points([(p.v1, p.v2) for p in sources])) * [
        p.abs_theta for p in sources
    ]
    agree = np.abs(canonical_weight(Z, mv) * np.abs(t) - src_weighted) <= 2 * tol_abs
    for (line, mv1, mv2), a, g, ok in zip(mirrors, np.abs(t).tolist(), grad.tolist(), agree):
        if ok:
            points.append(TracePoint(line, mv1, mv2, a, g))
        else:
            failures.append(TraceFailure(line, 0, "mirror disagrees with its source"))

    points.sort(key=lambda p: (p.line, p.v2.real, p.v2.imag))
    return TraceResult(N, points, failures, calls)
