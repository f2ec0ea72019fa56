"""Numerical certificates for the odd-theta curve on the (1,4) surface.

Operations here probe the zero divisor of the odd section through the 16
two-torsion points, its quasi-periodicity under the half-periods
w1 = (0, 2) and w2 = (z12/2, z22/2), the (-1)-action on the four basis
sections, the five-component splitting over a product of elliptic curves,
and the four distinct translates of the curve cut out by order-2 points of
the polarisation kernel.

Nothing is fitted and no threshold is tuned.  The torsion scan classifies
by characteristic parity: the curve is the pull-back of a genus-2 theta
divisor under the isogeny A -> J, so theta_A at t = (Z alpha + D beta)/2
is a multiple of a genus-2 theta constant whose characteristic is odd
exactly when alpha1 * beta1 = 0; those 12 points are simple zeros, and the
other four are multiples of one even theta constant, which vanishes
exactly on the product locus.  Every other check compares evaluations with
a transformation law in closed form (Mumford, Tata Lectures on Theta I,
II.1).  Values are read canonically weighted (see canonical_weight), and
each residual is compared with the bound _value_bound derives from the
truncation tolerance and the rounding of the sums: one weighted value is
off by at most that bound, so a law relating two values holds to twice it,
law_bound.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotDiagonal
from .siegel import (
    EvalSettings,
    PeriodMatrix,
    SurfacePoint,
    TorsionLabel,
    random_point,
    two_torsion_points,
)
from .theta import _BASIS, _gaussian_peak, _points, _rows, _unwrap, truncation_radius
from .theta import _weighted_odd, _weighted_sums


def canonical_weight(Z: PeriodMatrix, v):
    """The damping factor exp(-pi * y^T Y^{-1} y) with y = Im(v).

    Multiplying |theta| by it gives a magnitude invariant under lattice
    translations (the automorphy factor has modulus exactly the ratio of
    the weights).  The evaluator core returns weighted values, so this is
    only their oracle.  A float for a point, an (n,) array for an (n, 2)
    array of points.
    """
    rows, single = _rows(v)
    return _unwrap(np.exp(-_gaussian_peak(Z, rows)[1]), single)


def _value_bound(Z: PeriodMatrix, settings: EvalSettings) -> float:
    """Bound on the error of one weighted theta_A value: 2 (tol + n^2 u).

    Weighted theta_A is the difference of two sums taken relative to their
    Gaussian peak, each term at most 1.  At the value radius R, with
    n = (2R+1)^2 terms, each sum is off by less than tol (its tail) plus
    n u sum|terms| <= n^2 u (rounding, u machine epsilon; Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4).  A single weighted sum,
    as theta._weighted_sums returns, is within half of this.

    A law lhs = f rhs between two evaluations, v' the point of lhs, reads
    w(v') lhs = (f / |f|) w(v) rhs, since |f| = w(v) / w(v') exactly.  Its
    residual is off by at most the two values' errors, twice this bound,
    plus the rounding of f / |f|: a few u, relative, against a weighted
    value of at most n, which n^2 u dominates.
    """
    R = truncation_radius(Z.min_imag_eigenvalue(), 0.5, settings.tol, settings.max_radius)
    return 2.0 * (settings.tol + (2 * R + 1) ** 4 * np.finfo(float).eps)


def law_bound(Z: PeriodMatrix, settings: EvalSettings) -> float:
    """Bound on the weighted residual of a law between two evaluations:
    twice _value_bound (see its docstring for the rounding of the factor)."""
    return 2.0 * _value_bound(Z, settings)


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
    weighted |theta_A| is at most `bound`, the error bound on one weighted
    value (_value_bound), and NonVanishing otherwise.  `worst_zero` is the
    largest weighted value at a predicted zero; the scan is consistent
    when it is at most `bound`.
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
    odd) and read the weighted values from one value-only evaluation at the
    radius R it picks; see ScanResult for the bound."""
    torsion = two_torsion_points(Z)
    pts = _points([pt for _, pt in torsion])
    values = np.abs(_weighted_odd(pts, Z, settings)).tolist()
    bound = _value_bound(Z, settings)
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


def _translation_constant(Z: PeriodMatrix) -> complex:
    """M(Z) = -exp(-pi i z22 / 4), the constant of the w2 translation law."""
    return -cmath.exp(-1j * cmath.pi * Z.z22 / 4.0)


@dataclass(frozen=True)
class HalfPeriodConstant:
    """One half-period law: its closed-form constant, the largest weighted
    residual over the samples, and the number of samples."""

    value: complex
    spread: float
    n_admissible: int


@dataclass
class QuasiPeriodicityReport:
    w1_max_residual: float
    constants: dict[str, HalfPeriodConstant]
    automorphy_max_residual: float
    bound: float


def quasi_periodicity_check(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    n_samples: int = 50,
    seed: int = 0,
) -> QuasiPeriodicityReport:
    """Check the translation laws of the odd section at random points v.

    (i)   theta_A(v + w1) = -theta_A(v);
    (ii)  theta_A(v + w2) = M(Z) exp(-pi i v2) theta_A(v), with
          M(Z) = -exp(-pi i z22 / 4), and theta_A(v + w1 + w2) =
          -M(Z) exp(-pi i v2) theta_A(v);
    (iii) theta_A(v + Z m + D n) = exp(-pi i m^T Z m - 2 pi i m . v)
          theta_A(v) for m, n in {-1, 0, 1}^2, at the first (up to) three
          samples.

    On weighted values each factor becomes its phase: -1 for (i),
    (M / |M|) exp(-pi i Re v2) and its negative for (ii), and
    exp(-pi i (m^T X m + 2 m . Re v)), X = Re Z, for (iii).  Each law is
    read at every sample as the residual |lhs - phase theta_A(v)| between
    weighted values; it holds when no residual exceeds `bound`, law_bound.
    The constants carry the closed forms -1, M(Z) and -M(Z) and their
    law's largest residual; w1_max_residual is the one of (i).
    """
    rng = np.random.default_rng(seed)
    samples = _points([random_point(Z, rng) for _ in range(n_samples)])
    periods = half_periods(Z)
    # the samples and their three translates in one call
    pts = np.concatenate([samples] + [samples + np.array(w) for w in periods.values()])
    base, *shifted = np.split(_weighted_odd(pts, Z, settings), 1 + len(periods))
    M = _translation_constant(Z)
    e = (M / abs(M)) * np.exp(-1j * np.pi * samples[:, 1].real)
    predicted = {"w1": (-1.0 + 0.0j, -base), "w2": (M, e * base), "w1+w2": (-M, -e * base)}
    constants = {name: HalfPeriodConstant(value, float(np.max(np.abs(got - want))), n_samples)
                 for (name, (value, want)), got in zip(predicted.items(), shifted)}

    # automorphy at the first (up to) three samples v over lam = Z m + D n,
    # m and n in {-1, 0, 1}^2: all 9 x 9 points v + lam per sample in one call
    Zm = Z.as_matrix()
    v = samples[:3]
    unit = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float)
    lam = (unit @ Zm.T)[:, None, :] + (unit * (1.0, 4.0))[None, :, :]  # (m, n, 2)
    vs = (v[:, None, None, :] + lam).reshape(-1, 2)                     # (v, m, n)
    got = _weighted_odd(vs, Z, settings).reshape(len(v), 9, 9)
    mXm = np.einsum("mi,ij,mj->m", unit, Zm.real, unit)
    phase = np.exp(-1j * np.pi * (mXm + 2.0 * (v.real @ unit.T)))      # (v, m)
    auto_res = float(np.max(np.abs(got - phase[:, :, None] * base[:3, None, None])))

    return QuasiPeriodicityReport(constants["w1"].spread, constants, auto_res,
                                  law_bound(Z, settings))


# ---------------------------------------------------------------------------
# the (-1)-action


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
    permutation_residual: float
    invariant_dim: int
    anti_invariant_dim: int
    bound: float


def minus_one_action(
    Z: PeriodMatrix,
    settings: EvalSettings = EvalSettings(),
    n_points: int = 12,
    seed: int = 0,
) -> NegationReport:
    """Check the (-1)-action on the four basis sections at random points v.

    The law is theta_k(-v) = theta_sigma(k)(v), sigma = (0)(2)(1 3), whose
    matrix is P = NEGATION_PERMUTATION.  v and -v share one weight, so it is
    read as the residual |theta(-v) - P theta(v)| between weighted values,
    and holds when permutation_residual, the largest over the points and
    sections, is at most `bound`, law_bound.  P is an
    involution, so its invariant and anti-invariant dimensions follow from
    its trace: 3 and 1.
    """
    rng = np.random.default_rng(seed)
    pts = _points([random_point(Z, rng) for _ in range(n_points)])
    B = _weighted_sums(_BASIS, np.concatenate([pts, -pts]), Z, settings)  # 4 x 2n
    P = NEGATION_PERMUTATION
    residual = np.abs(B[:, n_points:] - P @ B[:, :n_points])
    trace = round(float(np.trace(P)))
    return NegationReport(
        permutation_residual=float(np.max(residual)),
        invariant_dim=(len(P) + trace) // 2,
        anti_invariant_dim=(len(P) - trace) // 2,
        bound=law_bound(Z, settings),
    )


# ---------------------------------------------------------------------------
# product locus


# the four horizontal components v2 = a + b tau2 of the curve over a product
_HORIZONTALS = (
    ("v2=0", 0.0, 0.0),
    ("v2=2", 2.0, 0.0),
    ("v2=tau2/2", 0.0, 0.5),
    ("v2=2+tau2/2", 2.0, 0.5),
)


@dataclass(frozen=True)
class ComponentRecord:
    label: str
    description: str
    n_samples: int
    max_abs: float          # weighted |theta_A| along the component
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

    For diagonal Z = diag(tau1, tau2), theta_A(v) is theta[0; 0](v1; tau1)
    times (theta[3/4; 0] - theta[1/4; 0])(v2; tau2), so it vanishes on one
    moving fibre v1 = (1 + tau1)/2 and on the four horizontal components
    v2 in {0, 2, tau2/2, 2 + tau2/2} (_HORIZONTALS).  Each component is
    sampled at n_samples points, with a displaced copy as negative control,
    and 20 generic points give generic_scale.  Every value is weighted: a
    component vanishes when its max_abs is at most scan.bound
    (_value_bound), and its control is nonzero when its control_min_abs is
    above it.  The torsion scan records the 12 simple points and the 4
    nodes.  Raises NotDiagonal for non-diagonal Z.
    """
    if not Z.is_diagonal():
        raise NotDiagonal(f"z12 = {Z.z12} is nonzero")
    tau1, tau2 = Z.z11, Z.z22
    rng = np.random.default_rng(seed)

    # each component's points and their displaced controls, then 20
    # generic points, all in one call; rng draws keep their order
    n = n_samples
    s, t = rng.uniform(0.0, 1.0, size=(n, 2)).T
    moving = np.column_stack([np.full(n, 0.5 + tau1 / 2.0), s * tau2 + 4.0 * t])
    sets = [("moving", "v1 = (1+tau1)/2", moving, moving + (0.27, 0.0))]
    for label, a, b in _HORIZONTALS:
        v2star = a + b * tau2
        s, t = rng.uniform(0.0, 1.0, size=(n, 2)).T
        on = np.column_stack([s * tau1 + t, np.full(n, v2star)])
        sets.append((label, f"v2 = {v2star}", on, on + (0.0, 0.31)))
    generic = _points([random_point(Z, rng) for _ in range(20)])
    pts = np.concatenate([b for _, _, on, ctrl in sets for b in (on, ctrl)] + [generic])
    vals = np.abs(_weighted_odd(pts, Z, settings))
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
