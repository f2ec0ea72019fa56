"""The numpy lattice-sum kernels behind every theta evaluation.

Both compute truncated sums

    sum_{l in [-R, R]^2} exp(pi*i (l+a)^T Z (l+a) + 2*pi*i (l+a).w)

with a = (a1, a2) the first characteristic vector and w the already shifted
argument v + c2.  The gradient variant also returns the two derivatives
with respect to w.  w1, w2 are either scalars, giving complex results, or
(n,) arrays, giving (n,) arrays: one sum per point over the same box.
"""

import numpy as np

_PI = np.pi
_GRID = (-2, -1)  # the lattice axes, of one grid or of a stack of grids


def _grid_terms(a1, a2, z11, z12, z22, w1, w2, radius):
    ls = np.arange(-radius, radius + 1, dtype=float)
    m1 = (ls + a1)[:, None]
    m2 = (ls + a2)[None, :]
    q = (1j * _PI) * (m1 * m1 * z11 + 2.0 * m1 * m2 * z12 + m2 * m2 * z22)
    if isinstance(w1, np.ndarray):
        # one grid per point, stacked on axis 0; built in place, so a batch
        # holds one (n, 2R+1, 2R+1) array at a time
        e = m1 * w1[:, None, None] + m2 * w2[:, None, None]
        e *= 2j * _PI
        e += q
        return m1, m2, np.exp(e, out=e)
    q = q + (2j * _PI) * (m1 * w1 + m2 * w2)
    return m1, m2, np.exp(q)


def _result(s):
    """A point's 0-d sum as a complex; a batch's (n,) sums as they are."""
    return complex(s) if s.ndim == 0 else s


def theta_sum(a1, a2, z11, z12, z22, w1, w2, radius):
    _, _, e = _grid_terms(a1, a2, z11, z12, z22, w1, w2, radius)
    return _result(e.sum(axis=_GRID))


def theta_sum_grad(a1, a2, z11, z12, z22, w1, w2, radius):
    m1, m2, e = _grid_terms(a1, a2, z11, z12, z22, w1, w2, radius)
    value = e.sum(axis=_GRID)
    g1 = (2j * _PI) * (m1 * e).sum(axis=_GRID)
    g2 = (2j * _PI) * (m2 * e).sum(axis=_GRID)
    return _result(value), _result(g1), _result(g2)
