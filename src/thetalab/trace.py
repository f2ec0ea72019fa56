"""Point-cloud tracer for the zero divisor of the odd section.

The curve is charted through the projection (v1, v2) -> v1.  The first
coordinates of the lattice generators Z e1 and D e1 span the rank-2
lattice z11 Z + Z, so v1 runs over an N x N grid on its fundamental
parallelogram; along the fibre only the generator D e2 = (0, 4) survives,
so solutions in v2 are reduced modulo 4.  Each grid line is solved by a
damped complex Newton iteration seeded from the previous line's solutions
and from the twelve simple two-torsion points of the curve.  The rows of
all N^2 lines share one pool (`_newton_pool`), which makes at most three
batched evaluator calls per round, whatever the number of lines.  A row
carries its own v1 and step count, so it ends as it would alone, up to
rounding (the gradient radius follows the batch, and rounding can still
decide a zero whose |theta_A| sits at the rounding floor); its outcome is
fixed when it converges, meets a flat gradient or fails its line search.
Lines are finished in order and deduplicated in seed order, the previous
line's solutions first.

Everything here reads weighted values w(v) theta_A, w the inverse of the
Gaussian peak (theta._weighted_odd), which stay bounded where the raw value
is beyond double range; a Newton step theta / d theta is unchanged, since
both carry w(v).  A zero is accepted when its weighted |theta_A| is below
tol / 2: the other half of tol covers the error of that reading, so the
point also passes a check of its raw |theta_A| against tol times its peak.
`TracePoint.abs_theta` and `grad_norm`, and the CSV's columns, are weighted.
The emitted cloud is closed under v -> -v, realised as v -> Z e1 + D e1 - v,
which maps the chart to itself.  That symmetry of the curve is exact, so a
mirror point is accepted on its source's certificate.  The mirrors are still
evaluated, in one batched call, to fill their columns, and that call checks
the mapping: w(v)|theta_A(v)| is invariant under the symmetry, so a mirror
whose weighted value differs from its source's by more than
surface.law_bound is recorded as a failure instead of being emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .siegel import EvalSettings, PeriodMatrix, two_torsion_points
from .surface import ScanKind, law_bound, two_torsion_scan
from .theta import _points, _weighted_odd


@dataclass(frozen=True)
class TracePoint:
    line: tuple[int, int]   # grid indices; (-1, -1) for torsion seed points
    v1: complex
    v2: complex
    abs_theta: float        # weighted, w(v) |theta_A(v)|
    grad_norm: float        # weighted, w(v) |grad theta_A(v)|


MIRROR_DISAGREES = "mirror disagrees with its source"


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
    """v2 with its real part reduced into [0, 4)."""
    r = v2 - 4.0 * math.floor(v2.real / 4.0)
    # a tiny negative real part rounds up to exactly 4.0
    return complex(0.0, r.imag) if r.real >= 4.0 else r


def _newton_pool(Z, v1s, seeds, settings, max_iter=50):
    """Damped Newton for theta_A(v1, .) = 0 on every line v1 of v1s at once.

    Line L is started from the previous line's solutions, then from seeds;
    the seeds of every line start in round 0, and the previous line's
    solutions join once that line has finished.  Each round makes at most
    three calls over the whole pool: value and gradient at the rows whose
    values are stale, value and gradient at the full steps (which a row
    that takes one carries into its next step), and the values at all
    seven halvings lambda = 1/2 .. 1/128 of every failed full step, of
    which a row takes the largest that decreases weighted |theta|.  A row
    leaves when that is below settings.tol / 2 (converged), when its
    smallest trial step |theta / (d theta/dv2)| / 128 passes the fibre
    period 4 (flat; rounding cannot decide this where the derivative
    vanishes, as it decides a floor on |d theta/dv2|) or when its line
    search finds no decrease; a row still active after max_iter steps of
    its own is judged by its last value.  Returns, for each line in order,
    its starts, their outcomes (v2, |theta|, |d theta/dv2|, ok) as lists in
    start order and its solutions (see `_solutions`), and the points
    evaluated.
    """
    n_lines, n_seeds = len(v1s), len(seeds)
    v1 = np.repeat(np.asarray(v1s, dtype=complex), n_seeds)
    v2 = np.tile(np.asarray(seeds, dtype=complex), n_lines)
    members = [list(range(L * n_seeds, (L + 1) * n_seeds)) for L in range(n_lines)]
    starts = [list(seeds) for _ in range(n_lines)]
    t, g2 = np.zeros(len(v2), complex), np.zeros(len(v2), complex)  # theta_A, d/dv2 at v2
    ok, done = np.zeros(len(v2), dtype=bool), np.zeros(len(v2), dtype=bool)
    stale = np.ones(len(v2), dtype=bool)  # rows whose t, g2 are not yet at v2
    steps = np.zeros(len(v2), dtype=int)
    lam = 0.5 ** np.arange(1, 8)
    lines, calls = [], 0
    while True:
        # finish lines in order; each one's solutions start the next
        while (L := len(lines)) < n_lines and done[members[L]].all():
            rows = members[L]
            outcome = (v2[rows].tolist(), np.abs(t[rows]).tolist(),
                       np.abs(g2[rows]).tolist(), ok[rows].tolist())
            found = _solutions(*outcome)
            lines.append((starts[L], outcome, found))
            prev = [sol for sol, _, _ in found]
            if L + 1 < n_lines and prev:
                members[L + 1][:0] = range(len(v2), len(v2) + len(prev))
                starts[L + 1][:0] = prev
                v1 = np.append(v1, np.full(len(prev), v1s[L + 1], dtype=complex))
                v2 = np.append(v2, prev)
                t, g2, ok, done, steps = (np.append(x, np.zeros(len(prev), x.dtype))
                                          for x in (t, g2, ok, done, steps))
                stale = np.append(stale, np.ones(len(prev), bool))
        if len(lines) == n_lines:
            return lines, calls
        active = np.flatnonzero(~done)
        fresh = active[stale[active]]
        if fresh.size:
            t[fresh], _, g2[fresh] = _weighted_odd(
                np.column_stack((v1[fresh], v2[fresh])), Z, settings, 1)
            stale[fresh] = False
            calls += fresh.size
        at = np.abs(t[active])
        ok[active] = at < settings.tol / 2
        # flat: the smallest trial step |t / g2| / 128 passes the period 4
        going = ~ok[active] & ~(at > 128 * 4.0 * np.abs(g2[active])) & (steps[active] < max_iter)
        done[active[~going]] = True
        rows = active[going]
        if not rows.size:
            continue
        steps[rows] += 1
        base, base_abs, step = v2[rows], np.abs(t[rows]), t[rows] / g2[rows]
        cand = base - step
        tc, _, gc = _weighted_odd(np.column_stack((v1[rows], cand)), Z, settings, 1)
        calls += rows.size
        better = np.abs(tc) < base_abs
        took = rows[better]
        v2[took], t[took], g2[took] = cand[better], tc[better], gc[better]
        # the line searches: every halving of every failed full step at once
        search = np.flatnonzero(~better)
        if not search.size:
            continue
        cand = base[search, None] - lam * step[search, None]
        tc = _weighted_odd(np.column_stack((np.repeat(v1[rows[search]], lam.size), cand.ravel())),
                           Z, settings).reshape(cand.shape)
        calls += cand.size
        better = np.abs(tc) < base_abs[search, None]
        hit = better.any(axis=1)
        took = rows[search[hit]]
        v2[took] = cand[hit, better[hit].argmax(axis=1)]
        stale[took] = True
        done[rows[search[~hit]]] = True


def _solutions(v2s, abs_t, abs_g2, oks):
    """The converged outcomes of a line, reduced mod 4 and deduplicated in
    start order: a list of (v2, |theta|, |d theta/dv2|)."""
    found: list[tuple[complex, float, float]] = []
    kept: list[complex] = []
    for sol, a, g, ok in zip(v2s, abs_t, abs_g2, oks):
        if ok:
            sol = _reduce_mod4(sol)
            if not _is_duplicate(sol, kept):
                kept.append(sol)
                found.append((sol, a, g))
    return found


def _is_duplicate(v2, found, tol=1e-6):
    for u in found:
        d = (v2 - u).real
        if abs(v2 - u - 4.0 * round(d / 4.0)) < tol:
            return True
    return False


def _mirrors(Z, N, points, settings):
    """The mirrors v -> Z e1 + D e1 - v of the grid points among points that
    are not already on their lines, evaluated in one batched call: those whose
    weighted |theta_A| agrees with their source's as TracePoints, the others
    as failures."""
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
    t, g1, g2 = _weighted_odd(_points([m[1:] for m in mirrors]), Z, settings, 1)
    grad = np.hypot(np.abs(g1), np.abs(g2))
    # w(v)|theta_A(v)| is the same at v and its mirror: a law on weighted values
    agree = np.abs(np.abs(t) - [p.abs_theta for p in sources]) <= law_bound(Z, settings)
    kept, dropped = [], []
    for (line, mv1, mv2), a, g, ok in zip(mirrors, np.abs(t).tolist(), grad.tolist(), agree):
        if ok:
            kept.append(TracePoint(line, mv1, mv2, a, g))
        else:
            dropped.append(TraceFailure(line, 0, MIRROR_DISAGREES))
    return kept, dropped


def trace_curve(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    grid_size: int = 12,
) -> TraceResult:
    """Trace the curve over an N x N grid of v1 values.

    Every torsion seed and Newton solution satisfies weighted |theta_A| <
    settings.tol / 2; their mirror images under v -> Z e1 + D e1 - v are
    added on that certificate, with the values evaluated there in their columns.
    Lines where no seed converges, and mirrors whose weighted |theta_A|
    disagrees with their source's, are recorded as failures, not raised.
    """
    N = int(grid_size)

    scan = two_torsion_scan(Z, settings)
    simple = {r.label for r in scan.records if r.kind is ScanKind.ODD_VANISHING}
    torsion = dict(two_torsion_points(Z))

    seed_v2: list[complex] = []
    points: list[TracePoint] = []
    seeds = [torsion[label] for label in sorted(simple)]
    t, g1, g2 = _weighted_odd(_points(seeds), Z, settings, 1)
    grad = np.hypot(np.abs(g1), np.abs(g2))
    for pt, a, g in zip(seeds, np.abs(t).tolist(), grad.tolist()):
        if a < settings.tol / 2:
            points.append(TracePoint((-1, -1), pt.v1, _reduce_mod4(pt.v2), a, g))
        u = _reduce_mod4(pt.v2)
        if not _is_duplicate(u, seed_v2, tol=1e-3):
            seed_v2.append(u)

    grid = [(i, j) for i in range(N) for j in range(N)]
    v1s = [(i / N) * Z.z11 + (j / N) for i, j in grid]
    lines, calls = _newton_pool(Z, v1s, seed_v2, settings)
    failures: list[TraceFailure] = []
    for line, v1, (starts, _, found) in zip(grid, v1s, lines):
        points.extend(TracePoint(line, v1, sol, a, g) for sol, a, g in found)
        if not found:
            failures.append(TraceFailure(line, len(starts), "no Newton seed converged"))

    # close the cloud under v -> -v within the chart
    kept, dropped = _mirrors(Z, N, points, settings)
    points += kept
    failures += dropped
    calls += len(kept) + len(dropped)
    points.sort(key=lambda p: (p.line, p.v2.real, p.v2.imag))
    return TraceResult(N, points, failures, calls)
