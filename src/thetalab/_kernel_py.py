"""The numpy lattice-sum kernels behind every theta evaluation.

Both compute truncated sums

    sum_{l in [-R, R]^2} exp(pi*i (l+a)^T Z (l+a) + 2*pi*i (l+a).w)

with a = (a1, a2) the first characteristic vector and w the already shifted
argument v + c2.  The gradient variant also returns the two derivatives
with respect to w.
"""

import numpy as np

_PI = np.pi


def _grid_terms(a1, a2, z11, z12, z22, w1, w2, radius):
    ls = np.arange(-radius, radius + 1, dtype=float)
    m1 = (ls + a1)[:, None]
    m2 = (ls + a2)[None, :]
    q = (1j * _PI) * (m1 * m1 * z11 + 2.0 * m1 * m2 * z12 + m2 * m2 * z22)
    q = q + (2j * _PI) * (m1 * w1 + m2 * w2)
    return m1, m2, np.exp(q)


def theta_sum(a1, a2, z11, z12, z22, w1, w2, radius):
    _, _, e = _grid_terms(a1, a2, z11, z12, z22, w1, w2, radius)
    return complex(e.sum())


def theta_sum_grad(a1, a2, z11, z12, z22, w1, w2, radius):
    m1, m2, e = _grid_terms(a1, a2, z11, z12, z22, w1, w2, radius)
    value = complex(e.sum())
    g1 = complex((2j * _PI) * (m1 * e).sum())
    g2 = complex((2j * _PI) * (m2 * e).sum())
    return value, g1, g2
