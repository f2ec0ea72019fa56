"""The numpy lattice-sum kernels behind every theta evaluation.

For centred arguments w, a (k, n, 2) array (see `theta._evaluate`), both
compute sum_{k in [-R, R]^2} exp(pi*i k^T Z k + 2*pi*i k.w - pi y^T Y^-1 y),
y = Im w, Y = Im Z: the sum relative to its Gaussian peak, a (k, n) array;
the gradient variant adds the derivatives in w on that scale.  Each term is
F1[k1] K[k1, k2] F2[k2], 2(2R+1) exponentials per point.  With
t = 1 - |Y12| / sqrt(Y11 Y22), Y - t diag(Y) is positive semi-definite, so
K = exp(pi*i k^T Z k + pi t (Y11 k1^2 + Y22 k2^2)), shared by every point,
has |K| <= 1; Fi = exp(2*pi*i ki wi - pi t Yii ki^2) is divided by its peak
and multiplied by exp(G/2), exp(G) >= 1 being the product of the two peaks
over the sum's.  G is 0 for diagonal Y, below 300 on 2,000 draws of
`siegel.random_period_matrix`, and terms that matter underflow only near
G = 1,300.  K, and every other factor that depends on Z and R alone, is
built once per (Z, R) and kept in a small cache (`_z_factors`): a caller
that evaluates one Z at many points, such as the tracer, builds it once,
and a fresh Z costs what building it inline would.  Products are
elementwise and sums run over the last axis, so a row of a batch is
computed exactly as alone; each product keeps its temporary operand first
(numpy reuses a large temporary in place, and operand order decides the
rounding of a fused complex multiply).
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=8)
def _z_factors(z11, z12, z22, radius):
    """What the terms share across points, built once per (Z, radius): ks and
    2 pi i ks, K, the rows of M, a and pi a, read-only since every later call
    with that (Z, radius) shares them."""
    ks = np.arange(-radius, radius + 1, dtype=float)
    y11, y12, y22 = z11.imag, z12.imag, z22.imag
    t = 1.0 - abs(y12) / (y11 * y22) ** 0.5
    a1, a2, det = t * y11, t * y22, y11 * y22 - y12 * y12
    k = np.exp((ks[:, None] * ((1j * z11 + a1) * np.pi) + ks * (z12 * 2j * np.pi)) * ks[:, None]
               + ks * ks * ((1j * z22 + a2) * np.pi))
    # G / 2 = y^T M y, M = (pi / 2) (diag(a)^-1 - Y^-1), built row by row
    h = np.pi / 2
    m0 = np.array([(1 / a1 - y22 / det) * h, y12 / det * h])
    m1 = np.array([y12 / det * h, (1 / a2 - y11 / det) * h])
    shared = (ks, ks * (2j * np.pi), k, m0, m1, np.array([a1, a2]),
              np.array([[np.pi * a1], [np.pi * a2]]))
    for x in shared:
        x.setflags(write=False)
    return shared


def _factors(z11, z12, z22, w, radius):
    ks, ks_2pi_i, k, m0, m1, a, pi_a = _z_factors(z11, z12, z22, radius)
    y = w.imag
    half_g = (y * (y[..., :1] * m0 + y[..., 1:] * m1)).sum(axis=-1)
    # (k, n, 2, 2R+1): exp(2 pi i ki Re wi - pi ai (ki + yi / ai)^2 + G / 2)
    f = np.exp(w.real[..., None] * ks_2pi_i
               - (pi_a * (ks + (y / a)[..., None]) ** 2 - half_g[..., None, None]))
    # (k, n, 2R+1, 2R+1): row k1 of K times F2, for each point
    return ks, f[..., 0, :], k * f[..., 1, None, :]


def theta_sum(z11, z12, z22, w, radius):
    _, f1, kf2 = _factors(z11, z12, z22, w, radius)
    return (kf2.sum(axis=-1) * f1).sum(axis=-1)


def theta_sum_grad(z11, z12, z22, w, radius):
    ks, f1, kf2 = _factors(z11, z12, z22, w, radius)
    terms1 = kf2.sum(axis=-1) * f1
    value = terms1.sum(axis=-1)
    g1 = (terms1 * ks).sum(axis=-1) * (2j * np.pi)
    kf2 *= ks  # in place: kf2 is not needed again, and it is the largest array
    g2 = (kf2.sum(axis=-1) * f1).sum(axis=-1) * (2j * np.pi)
    return value, g1, g2
