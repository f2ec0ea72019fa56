"""Numerical and exact tools for the odd theta curve on a (1,4)-polarised
abelian surface and for Klein coverings of hyperelliptic curves.

Layout
------
siegel / theta      period matrices, characteristics, certified theta sums
                    (one numpy lattice-sum kernel)
surface / trace     torsion scan, quasi-periodicity, (-1)-action, product
                    case, curve tracing
exact / lattice     rational linear algebra, Smith normal form, quotient
                    polarization types, genus feasibility
twotorsion          even-subset model of hyperelliptic 2-torsion, Klein
                    subgroups, covering combinatorics
decomposition       character theory of the Z2^3 action, boxplus
                    presentations of the Jacobians
cli / report        command-line driver and report emitters
"""

from .errors import (
    Degenerate,
    GenusMismatch,
    Inconsistent,
    NonIntegerGenus,
    NotDiagonal,
    NotHalfTorsion,
    NotIntegral,
    NotSiegel,
    NotWeightTwo,
    OutOfRange,
    RadiusExceeded,
    ThetaLabError,
    TooLarge,
    ZeroClass,
)
from .siegel import (
    OMEGA,
    EvalSettings,
    PeriodMatrix,
    SurfacePoint,
    ThetaCharacteristic,
    TorsionLabel,
    quarter_characteristic,
    random_period_matrix,
    random_point,
    two_torsion_points,
)
from .theta import (
    kernel_backend,
    odd_theta,
    odd_theta_gradient,
    odd_theta_with_gradient,
    theta_basis,
    theta_char,
    truncation_radius,
)
from .surface import (
    NEGATION_PERMUTATION,
    ScanKind,
    ScanResult,
    canonical_weight,
    four_copy_scan,
    four_copy_summary,
    half_periods,
    minus_one_action,
    product_case_components,
    quasi_periodicity_check,
    two_torsion_scan,
)
from .trace import TracePoint, TraceResult, trace_curve
from .lattice import (
    AlternatingForm,
    GenusCandidate,
    HalfTorsionSubgroup,
    KGroupInfo,
    PolarizationType,
    RationalLattice,
    feasible_genera,
    genus_feasibility_report,
    half_torsion_classes,
    half_torsion_dictionary,
    k_group_structure,
    lattice_weil_pairing,
    quotient_polarization_type,
    smith_type,
)
from .twotorsion import (
    CoverClass,
    CoveringDatum,
    KleinCensus,
    KleinSubgroup,
    TwoTorsionClass,
    Z23Report,
    all_classes,
    classify_klein_cover,
    covering_weierstrass_distribution,
    double_cover_is_hyperelliptic,
    enumerate_klein,
    etale_cover_genus,
    is_weierstrass_difference,
    nonzero_classes,
    orthogonal_complement,
    perp_basis,
    weil,
    z23_contains_isotropic,
)
from .decomposition import (
    ActionData,
    CharacterLabel,
    DecompositionPresentation,
    DecompositionResult,
    Slot,
    all_characters,
    assemble_decomposition,
    group_algebra_projector,
    isotypic_multiplicities,
    lefschetz_trace,
    quotient_genus,
    subgroup_from_names,
    subgroup_name,
    subgroups_z23,
    validate_presentation,
)
from .report import CheckResult, Report

__version__ = "0.1.0"

# convenience aliases matching the even-subset operation names
class_from_pair = TwoTorsionClass.from_pair
