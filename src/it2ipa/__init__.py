"""Interval type-2 fuzzy importance-performance analysis.

Encode expert linguistic ratings as interval type-2 trapezoids, aggregate
them, defuzzify, place factors on a 3x3 importance-performance map, score and
rank critical success/failure factors, and validate the questionnaire (CVR,
Cronbach's alpha).
"""

from .defuzz import dtrat
from .ipamap import (
    MapRegion,
    MapThresholds,
    OutOfRangeError,
    PlacedFactor,
    partition,
    place,
)
from .numbers import (
    DivisorSpansZeroError,
    InvalidDivisorError,
    IT2TrapFN,
    NegativeSupportError,
    OrderingViolatedWarning,
    Trapezoid,
    add,
    div,
    it2,
    mean,
    mul,
    one_minus,
    scalar_div,
    sub,
)
from .report import PipelineConfig, Report, run_pipeline
from .scale import (
    LinguisticScale,
    UnknownTermError,
    default_scale,
    load_scale,
    lookup,
    validate_scale,
)
from .scoring import (
    FuzzyScore,
    MixedKindsError,
    RankBreakdown,
    RankedFactor,
    failure_score,
    rank_order,
    rank_value,
    success_score,
)
from .survey import (
    DegenerateDataError,
    EmptyMatrixError,
    Factor,
    FactorProfile,
    InvalidCountsError,
    Psychometrics,
    RatingMatrix,
    aggregate,
    cronbach_alpha,
    cvr,
    load_psychometrics,
    parse_aggregated,
    parse_ratings,
)
from .writer import emit, render_svg, render_text

__version__ = "0.1.0"

__all__ = [
    "IT2TrapFN",
    "Trapezoid",
    "it2",
    "add",
    "sub",
    "mul",
    "div",
    "scalar_div",
    "mean",
    "one_minus",
    "OrderingViolatedWarning",
    "NegativeSupportError",
    "DivisorSpansZeroError",
    "InvalidDivisorError",
    "dtrat",
    "LinguisticScale",
    "default_scale",
    "lookup",
    "validate_scale",
    "load_scale",
    "UnknownTermError",
    "Factor",
    "RatingMatrix",
    "FactorProfile",
    "aggregate",
    "cvr",
    "cronbach_alpha",
    "Psychometrics",
    "load_psychometrics",
    "parse_ratings",
    "parse_aggregated",
    "EmptyMatrixError",
    "InvalidCountsError",
    "DegenerateDataError",
    "MapThresholds",
    "MapRegion",
    "PlacedFactor",
    "place",
    "partition",
    "render_text",
    "render_svg",
    "OutOfRangeError",
    "FuzzyScore",
    "RankBreakdown",
    "RankedFactor",
    "success_score",
    "failure_score",
    "rank_value",
    "rank_order",
    "MixedKindsError",
    "PipelineConfig",
    "Report",
    "run_pipeline",
    "emit",
]
