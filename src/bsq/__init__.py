"""Bohr-Sommerfeld quantization toolkit.

Certified Verlinde dimensions, trivalent graph enumeration, admissible
integer weights, theta-function point-evaluation bases, and a desk-scale
model of the complexified Bohr-Sommerfeld locus, tied together by one
identity: the number of admissible weights at level k equals the dimension
of the level-k quantization.
"""

__version__ = "0.1.0"

from .theta import (
    ThetaBasisMatrix,
    ThetaCharacteristic,
    TruncationFailure,
    bpu_matrix,
    bs_points,
    characteristics,
    theta_value,
)
from .trigraph import (
    BUILTIN_GRAPHS,
    DUMBBELL_GRAPH,
    THETA_GRAPH,
    TrivalentGraph,
    bridges,
    generate_trivalent,
    graph_to_text,
    is_isomorphic,
    parse_graph_text,
)
from .ucurve import (
    SupercyclePoint,
    UCurveSlice,
    branch_residual,
    complex_bs_residual,
    deck_translate,
    trace_slice,
    zero_level_fiber,
)
from .verlinde import (
    DEFAULT_PRECISION,
    IntegralityFailure,
    VerlindeValue,
    verlinde_dim,
)
from .weights import (
    AdmissibilityReport,
    ShapeMismatch,
    Violation,
    WeightFunction,
    count_admissible,
    enumerate_admissible,
    is_admissible,
    polytope_contains,
)

__all__ = [
    "__version__",
    "AdmissibilityReport",
    "BUILTIN_GRAPHS",
    "DEFAULT_PRECISION",
    "DUMBBELL_GRAPH",
    "IntegralityFailure",
    "ShapeMismatch",
    "SupercyclePoint",
    "THETA_GRAPH",
    "ThetaBasisMatrix",
    "ThetaCharacteristic",
    "TrivalentGraph",
    "TruncationFailure",
    "UCurveSlice",
    "VerlindeValue",
    "Violation",
    "WeightFunction",
    "bpu_matrix",
    "branch_residual",
    "bridges",
    "bs_points",
    "characteristics",
    "complex_bs_residual",
    "count_admissible",
    "deck_translate",
    "enumerate_admissible",
    "generate_trivalent",
    "graph_to_text",
    "is_admissible",
    "is_isomorphic",
    "parse_graph_text",
    "polytope_contains",
    "theta_value",
    "trace_slice",
    "verlinde_dim",
    "zero_level_fiber",
]
