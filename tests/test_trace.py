"""Tests for the Newton continuation tracer of the zero curve."""

import numpy as np
import pytest

from thetalab import PeriodMatrix, odd_theta, random_period_matrix, trace_curve
from thetalab.trace import _reduce_mod4


def test_reduce_mod4_range():
    assert _reduce_mod4(5.3 + 2j) == pytest.approx(1.3 + 2j)
    assert _reduce_mod4(-0.5 + 1j) == pytest.approx(3.5 + 1j)
    v = _reduce_mod4(123.456 - 0.7j)
    assert 0.0 <= v.real < 4.0
    assert v.imag == pytest.approx(-0.7)


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


def test_trace_closure_keeps_mirrors_of_tiny_values():
    # draw 1 has a solution whose mirror evaluates to |theta_A| ~ 1.5e-12,
    # above the default tol; the mirror is kept on its source's certificate
    Z = random_period_matrix(np.random.default_rng(1))
    res = trace_curve(Z, grid_size=4)
    _assert_closed_under_negation(res, Z)
    assert max(p.abs_theta for p in res.points) > 1e-12


def test_trace_drops_mirrors_that_disagree_with_their_source(Z0, settings, monkeypatch):
    # the second batched call evaluates the mirrors; skew its values so no
    # mirror matches its source's weighted |theta_A|
    import thetalab.trace as trace

    real = trace.odd_theta_with_gradient
    batches = []

    def skewed(v, Z, s):
        t, g = real(v, Z, s)
        if np.ndim(v) == 2:
            batches.append(len(v))
            if len(batches) == 2:
                t = t + 1.0
        return t, g

    monkeypatch.setattr(trace, "odd_theta_with_gradient", skewed)
    res = trace_curve(Z0, settings, grid_size=4)
    assert len(batches) == 2 and batches[1] > 0
    dropped = [f for f in res.failures if f.reason == "mirror disagrees with its source"]
    assert len(dropped) == batches[1] == len(res.failures)
    assert all(p.abs_theta < settings.tol for p in res.points)


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
