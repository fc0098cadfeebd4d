"""Exact topology of real elliptic surfaces over P^1 from Weierstrass data.

The public surface: binary forms and circle points (exact arithmetic),
validated Weierstrass triples with Kodaira fiber classification, the
real-locus topology pipeline, the twist and I0* transformations with
their verifiers, an extremal-component search, and an independent
cell-complex oracle that cross-checks every topological output.
"""

from .binform import BinForm, FormDegreeError
from .roots import (
    INFINITY,
    AlgebraicPoint,
    CirclePoint,
    FinitePoint,
    InfinityPoint,
    finite,
    sign_at,
    simplest_between,
)
from .weierstrass import (
    ConjugatePairTag,
    DeltaIdenticallyZero,
    FiberReport,
    KodairaType,
    NonMinimal,
    SurfaceInvariants,
    WeierstrassError,
    WeierstrassTriple,
    classify_fibers,
    normalize,
    validate,
)
from .topology import (
    Arc,
    ArcDecomposition,
    BoundChecks,
    NotRealGeneric,
    RealFiberType,
    RealTopologyReport,
    arc_decomposition,
    betti,
    check_bounds,
    smooth_fiber_components,
)
from .transforms import (
    I0StarParams,
    InvalidI0StarParams,
    SearchBudget,
    SearchResult,
    Verification,
    i0star_transform,
    make_params,
    search_extremal,
    twist,
    verify_i0star,
    verify_twist,
)
from .oracle import Agreement, OracleDisagreement, OracleResult, compare, oracle_topology

__version__ = "0.1.0"

__all__ = [
    "BinForm",
    "FormDegreeError",
    "INFINITY",
    "AlgebraicPoint",
    "CirclePoint",
    "FinitePoint",
    "InfinityPoint",
    "finite",
    "sign_at",
    "simplest_between",
    "ConjugatePairTag",
    "DeltaIdenticallyZero",
    "FiberReport",
    "KodairaType",
    "NonMinimal",
    "SurfaceInvariants",
    "WeierstrassError",
    "WeierstrassTriple",
    "classify_fibers",
    "normalize",
    "validate",
    "Arc",
    "ArcDecomposition",
    "BoundChecks",
    "NotRealGeneric",
    "RealFiberType",
    "RealTopologyReport",
    "arc_decomposition",
    "betti",
    "check_bounds",
    "smooth_fiber_components",
    "I0StarParams",
    "InvalidI0StarParams",
    "SearchBudget",
    "SearchResult",
    "Verification",
    "i0star_transform",
    "make_params",
    "search_extremal",
    "twist",
    "verify_i0star",
    "verify_twist",
    "Agreement",
    "OracleDisagreement",
    "OracleResult",
    "compare",
    "oracle_topology",
]
