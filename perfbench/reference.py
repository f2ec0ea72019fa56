"""Independent computations that the benchmark checks thetalab's answers against.

Nothing here imports thetalab.  The theta values come from a plain double sum
over a box centred on the Gaussian peak of each characteristic, written for
this benchmark; product surfaces are checked through mpmath's one-variable
``jtheta``; the exact half is checked against closed-form counts and against
pairings computed directly from branch subsets and half-period vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

EPS = np.finfo(float).eps
REF_RADIUS = 8          # box half-width around the Gaussian centre
LABEL_ORDER = [(a1, a2, b1, b2) for a1 in (0, 1) for a2 in (0, 1)
               for b1 in (0, 1) for b2 in (0, 1)]


def label_str(lab) -> str:
    a1, a2, b1, b2 = lab
    return f"a{a1}{a2}b{b1}{b2}"


# ---------------------------------------------------------------------------
# period matrices and points


def imag_matrix(Z) -> np.ndarray:
    z11, z12, z22 = Z
    return np.array([[z11.imag, z12.imag], [z12.imag, z22.imag]])


def torsion_point(Z, lab) -> tuple[complex, complex]:
    """(Z alpha + D beta) / 2 with D = diag(1, 4)."""
    z11, z12, z22 = Z
    a1, a2, b1, b2 = lab
    return ((z11 * a1 + z12 * a2 + b1) / 2.0, (z12 * a1 + z22 * a2 + 4.0 * b2) / 2.0)


def weight(Z, v) -> float:
    """exp(-pi y^T Y^-1 y), y = Im v: makes |theta| comparable across points."""
    y = np.array([complex(v[0]).imag, complex(v[1]).imag])
    return float(np.exp(-np.pi * (y @ np.linalg.solve(imag_matrix(Z), y))))


def envelope_peak(Z, v) -> float:
    """Largest possible |term| of a theta sum at v: the Gaussian envelope's
    peak exp(pi y^T Y^-1 y).  The library's truncation tolerance is relative
    to it."""
    return 1.0 / weight(Z, v)


# ---------------------------------------------------------------------------
# the reference double sum


def theta_terms(a, Z, v, radius=REF_RADIUS):
    """Terms exp(q), q = pi i m^T Z m + 2 pi i m.v, m = l + (0, a), over a box
    of half-width `radius` around the Gaussian centre; returns (m1, m2, q)."""
    z11, z12, z22 = Z
    Y = imag_matrix(Z)
    y = np.array([complex(v[0]).imag, complex(v[1]).imag])
    centre = -np.linalg.solve(Y, y) - np.array([0.0, a])
    c1, c2 = int(round(centre[0])), int(round(centre[1]))
    r = np.arange(-radius, radius + 1, dtype=float)
    m1 = (r + c1)[:, None]
    m2 = (r + c2 + a)[None, :]
    q = 1j * math.pi * (m1 * m1 * z11 + 2.0 * m1 * m2 * z12 + m2 * m2 * z22)
    q = q + 2j * math.pi * (m1 * v[0] + m2 * v[1])
    return m1, m2, q


def theta_quarter(k, Z, v):
    """theta[(0, k/4); 0](v, Z) with its gradient and rounding allowances.

    Returns (value, (d/dv1, d/dv2), value_rounding, gradient_rounding).  A
    term exp(q) computed in double precision carries a relative error of
    about |q| eps, and summing n terms adds n eps of the sum of magnitudes;
    the allowances bound both, for this sum or for any other box sum of the
    same terms.
    """
    m1, m2, q = theta_terms(k / 4.0, Z, v)
    e = np.exp(q)
    value = complex(e.sum())
    g1 = complex((2j * math.pi * m1 * e).sum())
    g2 = complex((2j * math.pi * m2 * e).sum())
    err = 4.0 * EPS * np.abs(e) * (np.abs(q) + e.size)
    grad_len = 2.0 * math.pi * np.maximum(np.abs(m1), np.abs(m2))
    return value, (g1, g2), float(err.sum()), float((err * grad_len).sum())


def odd_theta(Z, v):
    """theta_A = theta[3w; 0] - theta[w; 0] with gradient and allowances."""
    t3, g3, r3, s3 = theta_quarter(3, Z, v)
    t1, g1, r1, s1 = theta_quarter(1, Z, v)
    return t3 - t1, (g3[0] - g1[0], g3[1] - g1[1]), r3 + r1, s3 + s1


# ---------------------------------------------------------------------------
# verify-surface


PROBE = ((0.137, 0.411, 0.293, 0.071), (0.613, 0.157, 0.449, 0.359),
         (0.082, 0.733, 0.191, 0.547))


def torus_point(Z, x1, x2, y1, y2):
    z11, z12, z22 = Z
    return (z11 * x1 + z12 * x2 + y1, z12 * x1 + z22 * x2 + 4.0 * y2)


def vanishing_torsion_labels(Z) -> tuple[set[str], int]:
    """Labels of two-torsion points where theta_A vanishes with a nonzero
    gradient (simple points of the curve), and how many vanish singularly.

    Magnitudes carry the canonical weight; the scales are maxima over the
    torsion points and fixed generic probes.  Forced zeros sit at rounding
    level (~1e-15 of scale), the rest at order one, so 1e-8 separates them
    with a wide margin.
    """
    rows = []
    for lab in LABEL_ORDER:
        v = torsion_point(Z, lab)
        t, g, _, _ = odd_theta(Z, v)
        w = weight(Z, v)
        rows.append((lab, w * abs(t), w * math.hypot(abs(g[0]), abs(g[1]))))
    probes = []
    for p in PROBE:
        v = torus_point(Z, *p)
        t, g, _, _ = odd_theta(Z, v)
        w = weight(Z, v)
        probes.append((w * abs(t), w * math.hypot(abs(g[0]), abs(g[1]))))
    vscale = max([r[1] for r in rows] + [p[0] for p in probes])
    gscale = max([r[2] for r in rows] + [p[1] for p in probes])
    simple, singular = set(), 0
    for lab, a, g in rows:
        if a < 1e-8 * vscale:
            if g < 1e-8 * gscale:
                singular += 1
            else:
                simple.add(label_str(lab))
    return simple, singular


def translation_constant(Z) -> complex:
    """M(Z) = exp(pi i v2) theta_A(v + w2) / theta_A(v), w2 = (z12/2, z22/2),
    at a fixed generic point (the ratio does not depend on v)."""
    z11, z12, z22 = Z
    vals = []
    for p in PROBE:
        v = torus_point(Z, *p)
        t0 = odd_theta(Z, v)[0]
        t1 = odd_theta(Z, (v[0] + z12 / 2.0, v[1] + z22 / 2.0))[0]
        vals.append(np.exp(1j * math.pi * v[1]) * t1 / t0)
    return complex(np.mean(vals))


def parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


# ---------------------------------------------------------------------------
# product-case


def product_node_labels(tau1, tau2) -> set[str]:
    """Torsion labels where theta_A = theta_00(v1) * g(v2) vanishes to
    order two, from mpmath's jtheta.

    For Z = diag(tau1, tau2) the sum factorises:
    theta[(0, a); 0](v, Z) = jtheta(3, pi v1, q1) * e(a) with
    e(a) = exp(pi i a^2 tau2 + 2 pi i a v2) jtheta(3, pi (v2 + a tau2), q2)
    and q = exp(pi i tau).  A node is a zero of both factors.
    """
    import mpmath

    mpmath.mp.dps = 30
    t1, t2 = mpmath.mpc(tau1), mpmath.mpc(tau2)
    q1, q2 = mpmath.exp(1j * mpmath.pi * t1), mpmath.exp(1j * mpmath.pi * t2)

    def f2(a, v2):
        return mpmath.exp(1j * mpmath.pi * (a * a * t2 + 2 * a * v2)) * mpmath.jtheta(
            3, mpmath.pi * (v2 + a * t2), q2)

    scale1 = max(abs(mpmath.jtheta(3, mpmath.pi * (x + y * t1), q1))
                 for x, y in ((0.137, 0.411), (0.613, 0.157)))
    scale2 = max(abs(f2(0.75, x + y * t2) - f2(0.25, x + y * t2))
                 for x, y in ((0.293, 0.071), (0.449, 0.359)))
    nodes = set()
    for a1, a2, b1, b2 in LABEL_ORDER:
        v1 = (t1 * a1 + b1) / 2
        v2 = (t2 * a2 + 4 * b2) / 2
        first = abs(mpmath.jtheta(3, mpmath.pi * v1, q1)) / scale1
        second = abs(f2(0.75, v2) - f2(0.25, v2)) / scale2
        # weights: |theta| grows like exp(pi y^2/Im tau) off the real axis
        w1 = mpmath.exp(-mpmath.pi * mpmath.im(v1) ** 2 / mpmath.im(t1))
        w2 = mpmath.exp(-mpmath.pi * mpmath.im(v2) ** 2 / mpmath.im(t2))
        if first * w1 < 1e-12 and second * w2 < 1e-12:
            nodes.add(label_str((a1, a2, b1, b2)))
    return nodes


def expected_product_nodes() -> set[str]:
    return {label_str(lab) for lab in LABEL_ORDER if lab[0] == 1 and lab[2] == 1}


# ---------------------------------------------------------------------------
# trace-curve


def chart_image(Z, v1, v2):
    """The curve symmetry v -> Z e1 + D e1 - v."""
    z11, z12, _ = Z
    return z11 + 1.0 - v1, z12 - v2


def same_chart_point(Z, p, q, tol=1e-6) -> bool:
    """p and q agree modulo Z e1 = (z11, z12), D e1 = (1, 0), D e2 = (0, 4)."""
    z11, z12, _ = Z
    d1 = p[0] - q[0]
    # d1 = s z11 + t with s, t integers
    s = d1.imag / z11.imag
    t = d1.real - s * z11.real
    if abs(s - round(s)) > 1e-7 or abs(t - round(t)) > 1e-7:
        return False
    d2 = p[1] - q[1] - round(s) * z12
    return abs(d2.imag) < tol and abs(d2.real - 4.0 * round(d2.real / 4.0)) < tol


def on_grid(Z, v1, grid) -> bool:
    z11 = Z[0]
    s = v1.imag / z11.imag
    t = v1.real - s * z11.real
    return abs(s * grid - round(s * grid)) < 1e-7 and abs(t * grid - round(t * grid)) < 1e-7


# ---------------------------------------------------------------------------
# exact half


def klein_total(g: int) -> int:
    n = 4**g - 1
    return n * (n - 1) // 6


def isotropic_klein(g: int) -> int:
    return (4**g - 1) * (4 ** (g - 1) - 1) // 3


def hyperelliptic_klein(g: int) -> int:
    return math.comb(2 * g + 2, 3)


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def canonical_subset(g: int, s) -> tuple[int, ...]:
    """Smaller of a branch subset and its complement (lexicographic tie)."""
    s = frozenset(s)
    comp = frozenset(range(1, 2 * g + 3)) - s
    if len(s) != len(comp):
        return tuple(sorted(min((s, comp), key=len)))
    return min(tuple(sorted(s)), tuple(sorted(comp)))


def subset_pairing(s, t) -> int:
    return len(set(s) & set(t)) % 2


def symmetric_difference(g, s, t):
    return canonical_subset(g, set(s) ^ set(t))


def half_torsion_planes():
    """All 35 two-dimensional subspaces of (1/2 Z^4)/Z^4, each as a pair of
    generator vectors with entries in {0, 1/2}, with their isotropy under
    the standard symplectic form e1.e3 = e2.e4 = 1."""
    vecs = [tuple((b >> (3 - i)) & 1 for i in range(4)) for b in range(1, 16)]
    planes = {}
    for x, y in combinations(vecs, 2):
        z = tuple((a + b) % 2 for a, b in zip(x, y))
        key = frozenset((x, y, z))
        if key not in planes:
            pairing = (x[0] * y[2] - x[2] * y[0] + x[1] * y[3] - x[3] * y[1]) % 2
            half = Fraction(1, 2)
            gens = [[half * c for c in x], [half * c for c in y]]
            planes[key] = (gens, pairing == 0)
    return list(planes.values())


FEASIBLE_GENERA = [(2, (1, 1)), (3, (1, 2)), (4, (1, 3)), (5, (1, 4))]
DECOMPOSITION_DIMS = (2, 1, 1, 1)
