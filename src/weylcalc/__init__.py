"""weylcalc: exact combinatorics of extended affine Weyl groups.

Lengths, Newton points, kappa invariants, straight conjugacy classes,
defects, virtual dimensions, and the dimension/nonemptiness evaluators for
cells in the affine flag variety and affine Grassmannian, all in exact
integer/rational arithmetic.
"""

from .errors import (
    BadAutomorphism,
    DatumMismatch,
    DecompositionFailure,
    DecompositionNotFound,
    ExplorationBudgetExceeded,
    HypothesisViolated,
    Inconclusive,
    InfinitePi1,
    InternalAssertion,
    MalformedConfig,
    NegativeDimension,
    NonIntegralDimension,
    NonIntegralHalf,
    NotDominant,
    NotFiniteType,
    NotMinimal,
    UnknownClass,
    WeylcalcError,
)
from .rootdata import (
    PRESETS,
    DiagramAutomorphism,
    RootDatum,
    build_root_datum,
    dominance_leq,
    dominant_rep,
    kappa_class,
    load_config,
)
from .finiteweyl import (
    FiniteWeylElt,
    delta_reduce_to_min,
    enumerate_w0,
    fw_from_word,
    fw_identity,
    fw_inverse,
    fw_simple,
    is_elliptic_delta,
    longest_element,
    supp,
    supp_delta,
)
from .affweyl import (
    AffineRoot,
    AffineWeylElt,
    EtaDecomposition,
    aw_identity,
    aw_inv,
    aw_mul,
    class_key,
    defect_of,
    eta_decomposition,
    from_finite,
    from_parts,
    is_straight,
    kappa_w,
    newton_point,
    omega_elements,
    simple_reflections,
    translation,
    transport_affine_root,
)
from .classes import (
    MinimizationResult,
    StraightClass,
    UxDecomposition,
    approx_closure,
    enumerate_straight_classes,
    is_spherical,
    length_ball,
    p_alcove_test,
    reduce_to_min,
    resolve_class,
    straight_class_of,
    ux_decompose,
)
from .dims import (
    EMPTY,
    DimValue,
    GammaDescriptor,
    dim_X_flag,
    dim_X_grass,
    dim_Y_flag,
    dim_Y_grass,
    dim_Y_superregular,
    finite,
    grass_fibration_max,
    springer_dim_from_invariants,
    virtual_dimension,
)
from .oracle import Ball, brute_min_length, brute_straight_check, cayley_ball

__version__ = "0.1.0"
