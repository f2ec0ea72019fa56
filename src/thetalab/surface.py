"""Numerical certificates for the odd-theta curve on the (1,4) surface.

Operations here probe the zero divisor of the odd section through the 16
two-torsion points, its quasi-periodicity under the half-periods
w1 = (0, 2) and w2 = (z12/2, z22/2), the linearised (-1)-action on the
four basis sections, the five-component splitting over a product of
elliptic curves, and the four distinct translates of the curve cut out by
order-2 points of the polarisation kernel.

The torsion scan classifies by characteristic parity, not by tuned
thresholds.  The curve is the pull-back of a genus-2 theta divisor under
the isogeny A -> J, so theta_A at t = (Z alpha + D beta)/2 is a multiple
of a genus-2 theta constant whose characteristic is odd exactly when
alpha1 * beta1 = 0: those 12 points are simple zeros (an odd genus-2
theta function has a nonzero gradient at 0).  The other four are
multiples of one even theta constant, which vanishes exactly on the
product locus (Mumford, Tata Lectures on Theta I-II).  Only that constant
is decided numerically, against a bound derived from the truncation
tolerance and the rounding of the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateSample, IllConditioned, NotDiagonal
from .siegel import (
    EvalSettings,
    PeriodMatrix,
    SurfacePoint,
    TorsionLabel,
    random_point,
    two_torsion_points,
)
from .theta import _gaussian_peak, _points, _rows, _unwrap, truncation_radius
from .theta import odd_theta, theta_basis


def canonical_weight(Z: PeriodMatrix, v):
    """The damping factor exp(-pi * y^T Y^{-1} y) with y = Im(v).

    Multiplying |theta| by it gives a magnitude invariant under lattice
    translations (the automorphy factor has modulus exactly the ratio of
    the weights), so values at different torsion points become comparable
    even when Im(Z) is strongly anisotropic.  A float for a point, an (n,)
    array for an (n, 2) array of points.
    """
    rows, single = _rows(v)
    return _unwrap(np.exp(-_gaussian_peak(Z, rows)[1]), single)


class ScanKind(Enum):
    ODD_VANISHING = "OddVanishing"
    EVEN_VANISHING = "EvenVanishing"
    NON_VANISHING = "NonVanishing"


@dataclass(frozen=True)
class ScanRecord:
    """One classified point; abs_value carries the canonical weight."""

    label: TorsionLabel
    point: SurfacePoint
    abs_value: float
    kind: ScanKind


@dataclass
class ScanResult:
    """Classification of the 16 two-torsion points.

    The 12 points with alpha1 * beta1 = 0 are OddVanishing by parity.
    Each of the four with alpha1 = beta1 = 1 is EvenVanishing when its
    weighted |theta_A| is at most `bound`, and NonVanishing otherwise.
    Weighted |theta_A| is the difference of two sums taken relative to
    their Gaussian peak, each term at most 1, so with n = (2R+1)^2 terms
    each sum is off by less than tol (its tail) plus n u sum|terms| <= n^2 u
    (rounding, u machine epsilon; Higham, ch. 4): bound = 2 (tol + n^2 u).
    `worst_zero` is the largest weighted value at a predicted zero; the
    scan is consistent when it is at most `bound`.
    """

    records: list[ScanRecord]
    bound: float
    worst_zero: float

    def labels(self, kind: ScanKind) -> list[TorsionLabel]:
        return [r.label for r in self.records if r.kind is kind]

    def counts(self) -> dict[str, int]:
        out = {k.value: 0 for k in ScanKind}
        for r in self.records:
            out[r.kind.value] += 1
        return out

    def least_nonzero(self) -> float:
        """min weighted |theta_A| over the NonVanishing points (inf if none)."""
        return min((r.abs_value for r in self.records if r.kind is ScanKind.NON_VANISHING),
                   default=float("inf"))

    def separation_ratio(self) -> float:
        """least_nonzero() / worst_zero (inf if no point is NonVanishing)."""
        return self.least_nonzero() / max(self.worst_zero, 5e-324)


def two_torsion_scan(Z: PeriodMatrix, settings: EvalSettings = EvalSettings()) -> ScanResult:
    """Classify the 16 two-torsion points by parity (alpha1 * beta1 = 0 is
    odd) and read the values, weighted, from one value-only odd_theta call
    at the radius R it picks; see ScanResult for the bound."""
    torsion = two_torsion_points(Z)
    pts = _points([pt for _, pt in torsion])
    values = (canonical_weight(Z, pts) * np.abs(odd_theta(pts, Z, settings))).tolist()
    R = truncation_radius(Z.min_imag_eigenvalue(), 0.5, settings.tol, settings.max_radius)
    bound = 2.0 * (settings.tol + (2 * R + 1) ** 4 * np.finfo(float).eps)
    records = []
    for (label, pt), a in zip(torsion, values):
        if label.alpha[0] * label.beta[0] == 0:
            kind = ScanKind.ODD_VANISHING
        else:
            kind = ScanKind.EVEN_VANISHING if a <= bound else ScanKind.NON_VANISHING
        records.append(ScanRecord(label, pt, a, kind))
    worst = max(r.abs_value for r in records if r.kind is not ScanKind.NON_VANISHING)
    return ScanResult(records, bound, worst)


# ---------------------------------------------------------------------------
# quasi-periodicity


def half_periods(Z: PeriodMatrix) -> dict[str, tuple[complex, complex]]:
    """The two generators of the order-2 part of the polarisation kernel,
    w1 = D(0,1/2) = (0,2) and w2 = Z(0,1/2), and their sum."""
    w1 = (0.0 + 0.0j, 2.0 + 0.0j)
    w2 = (Z.z12 / 2.0, Z.z22 / 2.0)
    return {"w1": w1, "w2": w2, "w1+w2": (w1[0] + w2[0], w1[1] + w2[1])}


@dataclass(frozen=True)
class HalfPeriodConstant:
    value: complex
    spread: float
    n_admissible: int


@dataclass
class QuasiPeriodicityReport:
    w1_max_residual: float
    constants: dict[str, HalfPeriodConstant]
    automorphy_max_residual: float
    scale: float
    floor: float


def quasi_periodicity_check(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    n_samples: int = 50,
    seed: int = 0,
) -> QuasiPeriodicityReport:
    """Verify the translation behaviour of the odd section.

    (i)  theta_A(v + w1) = -theta_A(v), reported as a max relative residual.
    (ii) exp(pi*i*v2) * theta_A(v + w2) / theta_A(v) is a constant M(Z);
         the same compensated ratio for w1 + w2 gives -M(Z).  The plain
         ratio is *not* constant: translation by w2 carries the canonical
         factor exp(-pi*i*v2) times M(Z), so the check removes it first.
    (iii) full lattice automorphy theta_A(v + Z m + D n) =
         exp(-pi*i m^T Z m - 2*pi*i m^T v) theta_A(v) for m, n in {-1,0,1}^2.

    Admissibility uses canonically weighted magnitudes (see
    canonical_weight): a sample is skipped when its weighted |theta_A(v)|
    falls below floor = 1e-8 * scale, where scale is the weighted maximum
    over the samples.  Weighting makes the cut depend on distance to the
    zero divisor rather than on where the sample sits relative to the
    automorphy factor, which can swing raw magnitudes by many orders when
    Im(Z) is far from isotropic.  DegenerateSample is raised if no sample
    survives.
    """
    rng = np.random.default_rng(seed)
    samples = _points([random_point(Z, rng) for _ in range(n_samples)])
    periods = half_periods(Z)
    # the samples and their three translates in one call
    vals = odd_theta(
        np.concatenate([samples] + [samples + np.array(w) for w in periods.values()]),
        Z, settings,
    )
    base, *translates = np.split(vals, 1 + len(periods))
    shifted = dict(zip(periods, translates))
    weights = canonical_weight(Z, samples)
    scale = float(np.max(weights * np.abs(base)))
    if scale == 0.0:
        raise DegenerateSample("odd section vanished at every sample point")
    floor = 1e-8 * scale

    local = np.maximum(np.abs(base), np.abs(shifted["w1"]))
    ok = weights * local >= floor
    w1_res = float((np.abs(shifted["w1"] + base)[ok] / local[ok]).max(initial=0.0))

    admissible = weights * np.abs(base) >= floor
    constants: dict[str, HalfPeriodConstant] = {}
    for name in ("w1", "w2", "w1+w2"):
        ratios = shifted[name][admissible] / base[admissible]
        if name != "w1":
            ratios *= np.exp(1j * np.pi * samples[admissible, 1])
        if not ratios.size:
            raise DegenerateSample(f"no admissible samples for the {name} ratio")
        mean = complex(ratios.mean())
        spread = float(np.max(np.abs(ratios - mean)))
        constants[name] = HalfPeriodConstant(mean, spread, int(ratios.size))

    # automorphy at the first (up to) three samples v over lam = Z m + D n,
    # m and n in {-1, 0, 1}^2: all 9 x 9 points v + lam per sample in one call
    Zm = Z.as_matrix()
    v = samples[:3]
    unit = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float)
    lam = (unit @ Zm.T)[:, None, :] + (unit * (1.0, 4.0))[None, :, :]  # (m, n, 2)
    vs = (v[:, None, None, :] + lam).reshape(-1, 2)                     # (v, m, n)
    got = odd_theta(vs, Z, settings).reshape(len(v), 9, 9)
    mZm = np.einsum("mi,ij,mj->m", unit, Zm, unit)
    factor = np.exp(-1j * np.pi * mZm - 2j * np.pi * (v @ unit.T))     # (v, m)
    want = factor[:, :, None] * base[:3, None, None]
    ws = canonical_weight(Z, vs).reshape(got.shape)
    local = np.maximum(np.maximum(ws * np.abs(got), ws * np.abs(want)), floor)
    auto_res = float(np.max(ws * np.abs(got - want) / local))

    return QuasiPeriodicityReport(w1_res, constants, auto_res, scale, floor)


# ---------------------------------------------------------------------------
# the linearised (-1)-action


# theta_0 and theta_2 are even; theta_1 and theta_3 swap under v -> -v
NEGATION_PERMUTATION = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


@dataclass
class NegationReport:
    matrix: np.ndarray
    permutation_residual: float
    eigenvalues: np.ndarray
    invariant_dim: int
    anti_invariant_dim: int
    condition: float


def minus_one_action(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    n_points: int = 12,
    seed: int = 0,
) -> NegationReport:
    """Fit the matrix of v -> -v on the four basis sections from samples.

    Solves theta_k(-v_j) = sum_l M[k, l] theta_l(v_j) in least squares over
    n_points random points and compares with the exact permutation
    (0)(2)(1 3).  Row j of both sample matrices is scaled by
    canonical_weight(Z, v_j), which is the same at v_j and -v_j, so the
    exact solution is unchanged while rows drawn at large Im v no longer
    swamp the rest.  Raises IllConditioned when the weighted sample matrix
    has condition number above 1e8.
    """
    rng = np.random.default_rng(seed)
    pts = _points([random_point(Z, rng) for _ in range(n_points)])
    w = canonical_weight(Z, pts)[:, None]
    B = theta_basis(np.concatenate([pts, -pts]), Z, settings)  # 2n x 4
    B_pos, B_neg = w * B[:n_points], w * B[n_points:]
    cond = float(np.linalg.cond(B_pos))
    if cond > 1e8:
        raise IllConditioned(f"sample matrix condition number {cond:.3g}")
    M, *_ = np.linalg.lstsq(B_pos, B_neg, rcond=None)
    M = M.T  # rows: output sections
    eig = np.linalg.eigvals(M)
    order = np.argsort(eig.real)
    eig = eig[order]
    return NegationReport(
        matrix=M,
        permutation_residual=float(np.max(np.abs(M - NEGATION_PERMUTATION))),
        eigenvalues=eig,
        invariant_dim=int(np.sum(np.abs(eig - 1.0) < 0.1)),
        anti_invariant_dim=int(np.sum(np.abs(eig + 1.0) < 0.1)),
        condition=cond,
    )


# ---------------------------------------------------------------------------
# product locus


@dataclass(frozen=True)
class ComponentRecord:
    label: str
    description: str
    n_samples: int
    max_abs: float          # |theta_A| along the component
    control_min_abs: float  # same parameters, displaced off the component


@dataclass
class ProductCaseReport:
    components: list[ComponentRecord]
    generic_scale: float
    scan: ScanResult
    node_labels: frozenset[TorsionLabel] = field(default_factory=frozenset)

    def expected_node_labels(self) -> frozenset[TorsionLabel]:
        """Intersections of the moving fibre with the four horizontal
        components: exactly the labels with alpha1 = beta1 = 1."""
        return frozenset(
            TorsionLabel((1, a2), (1, b2)) for a2 in (0, 1) for b2 in (0, 1)
        )


def product_case_components(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    n_samples: int = 50,
    seed: int = 0,
) -> ProductCaseReport:
    """Certify the five-component splitting of the curve over a product.

    For diagonal Z = diag(tau1, tau2) the odd section vanishes on one
    moving fibre v1 = (1 + tau1)/2 and the four horizontal components
    v2 in {0, 2, tau2/2, 2 + tau2/2}.  Each component is sampled at
    n_samples points; a displaced copy (shifted off the component) serves
    as negative control.  The torsion scan records the 12 simple points
    and the 4 nodes.  Raises NotDiagonal for non-diagonal Z.
    """
    if not Z.is_diagonal():
        raise NotDiagonal(f"z12 = {Z.z12} is nonzero")
    tau1, tau2 = Z.z11, Z.z22
    rng = np.random.default_rng(seed)

    fibre_v1 = 0.5 + tau1 / 2.0
    horizontals = [
        ("v2=0", 0.0 + 0.0j),
        ("v2=2", 2.0 + 0.0j),
        ("v2=tau2/2", tau2 / 2.0),
        ("v2=2+tau2/2", 2.0 + tau2 / 2.0),
    ]

    # each component's points and their displaced controls, then 20
    # generic points, all in one call; rng draws keep their order
    n = n_samples
    s, t = rng.uniform(0.0, 1.0, size=(n, 2)).T
    moving = np.column_stack([np.full(n, fibre_v1), s * tau2 + 4.0 * t])
    sets = [("moving", "v1 = (1+tau1)/2", moving, moving + (0.27, 0.0))]
    for label, v2star in horizontals:
        s, t = rng.uniform(0.0, 1.0, size=(n, 2)).T
        on = np.column_stack([s * tau1 + t, np.full(n, v2star)])
        sets.append((label, f"v2 = {v2star}", on, on + (0.0, 0.31)))
    generic = _points([random_point(Z, rng) for _ in range(20)])
    blocks = [b for _, _, on, ctrl in sets for b in (on, ctrl)]
    vals = np.abs(odd_theta(np.concatenate(blocks + [generic]), Z, settings))
    on_ctrl = vals[:-len(generic)].reshape(len(sets), 2, n)
    components = [
        ComponentRecord(label, desc, n, float(on.max()), float(ctrl.min()))
        for (label, desc, *_), (on, ctrl) in zip(sets, on_ctrl)
    ]
    generic_scale = float(vals[-len(generic):].max())
    scan = two_torsion_scan(Z, settings)
    report = ProductCaseReport(components, generic_scale, scan)
    report.node_labels = frozenset(scan.labels(ScanKind.EVEN_VANISHING))
    return report


# ---------------------------------------------------------------------------
# four copies of the curve through the sixteen torsion points


@dataclass(frozen=True)
class FourCopyRecord:
    shift_label: str
    shift: tuple[complex, complex]
    vanishing_labels: frozenset[TorsionLabel]
    even_labels: frozenset[TorsionLabel]
    values: dict[TorsionLabel, float] = field(hash=False)  # weighted |theta_A| by label


# coset representatives of the order-2 polarisation kernel inside the full
# 2-torsion, as torsion labels: 0, Z e1/2, D e1/2 and their sum
_COPY_SHIFTS = (
    ("0", TorsionLabel((0, 0), (0, 0))),
    ("Ze1/2", TorsionLabel((1, 0), (0, 0))),
    ("De1/2", TorsionLabel((0, 0), (1, 0))),
    ("Ze1/2+De1/2", TorsionLabel((1, 0), (1, 0))),
)


def four_copy_scan(scan: ScanResult) -> list[FourCopyRecord]:
    """The four translates of the curve by the _COPY_SHIFTS points s, read
    off a torsion scan with no evaluation: t_L + s is t_{L+s} plus a lattice
    vector, and weighted values are lattice-invariant, so the translate's
    value and kind at t_L are the scan's at t_{L+s}."""
    by_label = {r.label: r for r in scan.records}

    def plus(L: TorsionLabel, s: TorsionLabel) -> TorsionLabel:
        return TorsionLabel((L.alpha[0] ^ s.alpha[0], L.alpha[1] ^ s.alpha[1]),
                            (L.beta[0] ^ s.beta[0], L.beta[1] ^ s.beta[1]))

    out = []
    for name, s in _COPY_SHIFTS:
        moved = {L: by_label[plus(L, s)] for L in by_label}
        out.append(FourCopyRecord(
            name,
            tuple(by_label[s].point),
            frozenset(L for L, r in moved.items() if r.kind is not ScanKind.NON_VANISHING),
            frozenset(L for L, r in moved.items() if r.kind is ScanKind.EVEN_VANISHING),
            {L: r.abs_value for L, r in moved.items()},
        ))
    return out


def four_copy_summary(records: list[FourCopyRecord]) -> dict:
    """Distinctness/coverage facts for the four translates.

    The four (vanishing, even) profiles must be pairwise distinct, and the
    vanishing sets must jointly cover all sixteen torsion points.
    """
    profiles = [(r.vanishing_labels, r.even_labels) for r in records]
    union = frozenset().union(*(r.vanishing_labels for r in records))
    coverage = {}
    for r in records:
        for lab in r.vanishing_labels:
            coverage[lab] = coverage.get(lab, 0) + 1
    return {
        "pairwise_distinct": len(set(profiles)) == len(profiles),
        "union_count": len(union),
        "coverage_counts": sorted(coverage.values()),
    }
