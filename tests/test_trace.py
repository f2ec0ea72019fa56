"""Tests for the Newton continuation tracer of the zero curve."""

import numpy as np
import pytest

import thetalab.trace as trace
from thetalab import PeriodMatrix, odd_theta, random_period_matrix, trace_curve
from thetalab.surface import canonical_weight, law_bound
from thetalab.trace import _reduce_mod4


def test_reduce_mod4_range():
    assert _reduce_mod4(5.3 + 2j) == pytest.approx(1.3 + 2j)
    assert _reduce_mod4(-0.5 + 1j) == pytest.approx(3.5 + 1j)
    v = _reduce_mod4(123.456 - 0.7j)
    assert 0.0 <= v.real < 4.0
    assert v.imag == pytest.approx(-0.7)
    # -1e-18 + 4 rounds to exactly 4.0, which folds back to 0
    assert _reduce_mod4(-1e-18 + 0.3j) == 0.3j


def test_trace_points_lie_on_curve(Z0, settings):
    res = trace_curve(Z0, settings, grid_size=6)
    assert len(res.points) > 100
    assert res.failures == []
    for p in res.points:
        # every emitted point is re-verified against the section itself
        assert abs(odd_theta((p.v1, p.v2), Z0, settings)) < 1e-8
        assert p.abs_theta < 1e-8
        assert p.grad_norm > 1e-3  # all generic points are simple


def test_trace_emits_all_torsion_points(Z0, settings):
    res = trace_curve(Z0, settings, grid_size=6)
    torsion = [p for p in res.points if p.line == (-1, -1)]
    assert len(torsion) == 12


def test_trace_covers_every_grid_line(Z0, settings):
    n = 5
    res = trace_curve(Z0, settings, grid_size=n)
    lines = {p.line for p in res.points if p.line != (-1, -1)}
    assert len(lines) == n * n


def test_trace_deterministic(Z0, settings):
    a = trace_curve(Z0, settings, grid_size=4)
    b = trace_curve(Z0, settings, grid_size=4)
    assert [(p.line, p.v1, p.v2) for p in a.points] == [
        (p.line, p.v1, p.v2) for p in b.points
    ]


def _assert_closed_under_negation(res, Z):
    # the emitted cloud is closed under the curve symmetry v -> -v up to
    # lattice translation: for each solution on line i the mirror
    # a*z12 - v2 (a = 1 off the i=0 column, 0 on it) appears on the
    # mirrored line
    n = res.grid_size
    by_line = {}
    for p in res.points:
        if p.line != (-1, -1):
            by_line.setdefault(p.line, []).append(p.v2)
    for (i, j), v2s in by_line.items():
        mi = (-i) % n
        mj = (-j) % n
        a = 1.0 if i != 0 else 0.0
        mirror = by_line.get((mi, mj), [])
        for v2 in v2s:
            mv2 = _reduce_mod4(a * Z.z12 - v2)
            assert any(
                abs(m - mv2) < 1e-6 or abs(abs(m - mv2).real - 4.0) < 1e-6
                for m in mirror
            )


def test_trace_closed_under_negation(Z0, settings):
    _assert_closed_under_negation(trace_curve(Z0, settings, grid_size=4), Z0)


def test_trace_closure_keeps_mirrors_of_tiny_values(Z0, settings):
    # a source just off a zero on line (1, 0), whose mirror on line (3, 0)
    # sits at a 4.8 times smaller canonical weight: the weighted values
    # agree within the law bound, so the mirror is kept on its source's
    # certificate and reads its source's weighted |theta_A|, although its
    # raw |theta_A| is 4.8 times the source's
    v1 = Z0.z11 / 4
    [(_, ((zero,), _, _, (ok,)), _)], _ = trace._newton_pool(Z0, [v1], [0.1 - 0.5j], settings)
    assert ok
    v2 = _reduce_mod4(zero + 1e-9)
    source_raw = abs(odd_theta((v1, v2), Z0, settings))
    source_abs = canonical_weight(Z0, (v1, v2)) * source_raw
    bound = law_bound(Z0, settings)
    assert source_abs > 100 * bound
    source = trace.TracePoint((1, 0), v1, v2, source_abs, 1.0)
    kept, dropped = trace._mirrors(Z0, 4, [source], settings)
    assert dropped == []
    (mirror,) = kept
    assert mirror.line == (3, 0)
    assert mirror.v1 == pytest.approx(0.75 * Z0.z11)
    assert mirror.v2 == pytest.approx(_reduce_mod4(Z0.z12 - v2))
    ratio = canonical_weight(Z0, (v1, v2)) / canonical_weight(Z0, (mirror.v1, mirror.v2))
    assert ratio > 4
    assert abs(mirror.abs_theta - source_abs) <= bound
    mirror_raw = abs(odd_theta((mirror.v1, mirror.v2), Z0, settings))
    assert mirror_raw == pytest.approx(ratio * source_raw, rel=1e-3)


def test_trace_drops_mirrors_that_disagree_with_their_source(Z0, settings, monkeypatch):
    # the last batched value-and-gradient evaluation of trace_curve is the
    # mirrors'; skew its values so no mirror matches its source's weighted
    # |theta_A|
    real = trace._weighted_odd

    def traced(skew_call):
        batches = []

        def wrapped(v, Z, s, grad_order=0):
            out = real(v, Z, s, grad_order)
            if grad_order:
                batches.append(len(v))
                if len(batches) == skew_call:
                    out = out + np.array([1.0, 0.0, 0.0])[:, None]
            return out

        monkeypatch.setattr(trace, "_weighted_odd", wrapped)
        return trace_curve(Z0, settings, grid_size=4), batches

    _, plain = traced(skew_call=0)
    res, batches = traced(skew_call=len(plain))
    assert batches == plain and batches[-1] > 0
    dropped = [f for f in res.failures if f.reason == "mirror disagrees with its source"]
    assert len(dropped) == batches[-1] == len(res.failures)
    assert all(p.abs_theta < settings.tol / 2 for p in res.points)


def test_newton_rows_do_not_depend_on_their_batch(Z0, settings, monkeypatch):
    # every row of the pool, rows of different lines that share a call
    # included, ends as it does alone
    real = trace._newton_pool
    pools = []

    def recording(Z, v1s, seeds, s):
        out = real(Z, v1s, seeds, s)
        pools.append((v1s, out))
        return out

    monkeypatch.setattr(trace, "_newton_pool", recording)
    trace_curve(Z0, settings, grid_size=4)
    [(v1s, (lines, _))] = pools
    assert len(lines) == 16
    for v1, (starts, (sols, _, _, oks), _) in zip(v1s, lines):
        assert len(starts) > 1
        for seed, sol, ok in zip(starts, sols, oks):
            [(_, ((alone,), _, _, (alone_ok,)), _)], _ = real(Z0, [v1], [seed], settings)
            assert alone_ok == ok
            d = alone - sol
            assert abs(d - 4.0 * round(d.real / 4.0)) < 1e-9


def test_newton_pool_equals_one_line_at_a_time(Z0, settings, monkeypatch):
    # the pool emits the cloud and failures of solving one line at a time,
    # each from the previous line's solutions and then the torsion seeds
    real = trace._newton_pool

    def line_by_line(Z, v1s, seeds, s):
        lines, calls, prev = [], 0, []
        for v1 in v1s:
            [line], c = real(Z, [v1], prev + list(seeds), s)
            lines.append(line)
            calls += c
            prev = [sol for sol, _, _ in line[2]]
        return lines, calls

    pooled = trace_curve(Z0, settings, grid_size=4)
    monkeypatch.setattr(trace, "_newton_pool", line_by_line)
    alone = trace_curve(Z0, settings, grid_size=4)
    assert pooled.failures == alone.failures
    assert len(pooled.points) == len(alone.points)
    for p, q in zip(pooled.points, alone.points):
        assert p.line == q.line and p.v1 == q.v1
        d = p.v2 - q.v2
        assert abs(d - 4.0 * round(d.real / 4.0)) < 1e-9


def test_trace_draw_2_stays_in_range():
    # torsion seeds on half-period lines have d theta/dv2 = 0 exactly; they
    # are flat, not Newton steps to a Gaussian-centre shift of 9e13.
    # perfbench/inputs.FAULTS still lists this draw as RadiusExceeded; it
    # answers, and perfbench checks it like any other answer
    res = trace_curve(random_period_matrix(np.random.default_rng(2)), grid_size=4)
    assert res.points


@pytest.mark.parametrize("draw", [52, 189])
def test_trace_draw_stays_finite(draw, settings):
    # Newton steps of these draws reach Im v2 near -20 and -49, where the
    # raw theta sum is beyond double range; the tracer reads weighted values
    Z = random_period_matrix(np.random.default_rng(draw))
    res = trace_curve(Z, settings, grid_size=4)
    assert res.points and res.failures == []
    _assert_closed_under_negation(res, Z)
    pts = np.array([(p.v1, p.v2) for p in res.points])
    weighted = canonical_weight(Z, pts) * np.abs(odd_theta(pts, Z, settings))
    assert (weighted < settings.tol / 2).all()
    assert np.abs(weighted - [p.abs_theta for p in res.points]).max() <= law_bound(Z, settings)


@pytest.mark.parametrize("draw, line, zero", [(8, None, None), (108, (3, 2), 1.65256 + 1.10946j)])
def test_trace_draws_at_the_raw_rounding_floor(draw, line, zero):
    # read raw, draw 8's lines (3, *) stall above tol, and draw 108's line
    # (3, 2) misses the zeros 1.6526+1.1095i and 3.6526+1.1095i, where the
    # Gaussian peak is 7e5 and the raw |theta_A| stalls at 3e-10
    res = trace_curve(random_period_matrix(np.random.default_rng(draw)), grid_size=4)
    assert res.failures == []
    if line is not None:
        on_line = [p.v2 for p in res.points if p.line == line]
        assert any(abs(v2 - zero) < 1e-4 or abs(v2 - zero - 2) < 1e-4 for v2 in on_line)


def test_trace_no_duplicates_within_line(Z0, settings):
    # on a proper grid line v1 is fixed, so equal v2 would be a duplicate
    # (the torsion bucket is exempt: those points share v2 across v1s)
    res = trace_curve(Z0, settings, grid_size=4)
    by_line = {}
    for p in res.points:
        if p.line != (-1, -1):
            by_line.setdefault(p.line, []).append(p.v2)
    for v2s in by_line.values():
        for i in range(len(v2s)):
            for j in range(i + 1, len(v2s)):
                d = abs(v2s[i] - v2s[j])
                assert d > 1e-6


def test_trace_product_case(settings):
    # over a product the curve degenerates but the tracer still finds the
    # horizontal components' intersections with each vertical test line
    Z = PeriodMatrix.diagonal(0.1 + 1.0j, -0.2 + 1.1j)
    res = trace_curve(Z, settings, grid_size=4)
    assert len(res.points) > 0
    for p in res.points:
        assert abs(odd_theta((p.v1, p.v2), Z, settings)) < 1e-8
