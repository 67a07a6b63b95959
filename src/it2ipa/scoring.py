"""Critical success/failure scores and the Chen-Lee ranking value."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numbers
from .numbers import IT2TrapFN, Trapezoid
from .survey import Factor, factor_sort_key

SUCCESS = "success"
FAILURE = "failure"

AS_WRITTEN = "as_written"
AS_COMPUTED = "as_computed"
FAILURE_MODES = (AS_WRITTEN, AS_COMPUTED)


class MixedKindsError(ValueError):
    """rank_order was asked to order success and failure scores together."""


class NonFiniteScoreError(ValueError):
    """A score without a finite rank value: an endpoint is inf or NaN, or a term overflows."""


@dataclass(frozen=True)
class FuzzyScore:
    """A factor's fuzzy criticality score (success, or failure with its mode)."""

    factor: Factor
    kind: str
    value: IT2TrapFN
    mode: str | None = None

    def __post_init__(self):
        if self.kind not in (SUCCESS, FAILURE):
            raise ValueError(f"kind must be '{SUCCESS}' or '{FAILURE}', got {self.kind!r}")
        if self.kind == SUCCESS and self.mode is not None:
            raise ValueError("success scores are mode-free")
        if self.kind == FAILURE and self.mode not in FAILURE_MODES:
            raise ValueError(f"failure scores need a mode in {FAILURE_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class RankBreakdown:
    """Every term of the ranking value, auditable one by one.

    The total is the sum of the six pairwise endpoint means, minus a quarter
    of the sum of the eight endpoint deviations, plus the four heights.
    """

    m1u: float
    m2u: float
    m3u: float
    m1l: float
    m2l: float
    m3l: float
    s1u: float
    s2u: float
    s3u: float
    s4u: float
    s1l: float
    s2l: float
    s3l: float
    s4l: float
    h1u: float
    h2u: float
    h1l: float
    h2l: float
    rank: float


@dataclass(frozen=True)
class RankedFactor:
    """A factor with its fuzzy score and rank-value breakdown."""

    factor: Factor
    score: FuzzyScore
    breakdown: RankBreakdown

    @property
    def rank(self) -> float:
        return self.breakdown.rank


def success_score(factor: Factor, w: IT2TrapFN, r: IT2TrapFN) -> FuzzyScore:
    """Success criticality: fuzzy importance times fuzzy performance."""
    return FuzzyScore(factor, SUCCESS, numbers.mul(w, r))


def failure_score(factor: Factor, w: IT2TrapFN, r: IT2TrapFN, mode: str = AS_COMPUTED) -> FuzzyScore:
    """Failure criticality in one of two modes.

    ``as_written`` multiplies importance by the complement of performance;
    ``as_computed`` divides performance by importance, which is the rule the
    bundled reference score tuples actually follow.
    """
    if mode == AS_WRITTEN:
        value = numbers.mul(w, numbers.one_minus(r))
    elif mode == AS_COMPUTED:
        value = numbers.div(r, w)
    else:
        raise ValueError(f"mode must be one of {FAILURE_MODES}, got {mode!r}")
    return FuzzyScore(factor, FAILURE, value, mode=mode)


def _pair_deviation(x: float, y: float) -> float:
    # population standard deviation of a pair
    return abs(y - x) / 2.0


def _quad_deviation(endpoints: tuple[float, float, float, float]) -> float:
    mean = sum(endpoints) / 4.0
    try:
        return math.sqrt(sum((v - mean) ** 2 for v in endpoints) / 4.0)
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def rank_value(a: IT2TrapFN) -> RankBreakdown:
    """Chen-Lee ranking value of an interval type-2 trapezoid.

    Accepts raw (possibly non-monotone) tuples; every term is returned in
    the breakdown so the total can be audited.
    """
    def terms(t: Trapezoid):
        e = t.endpoints
        means = ((e[0] + e[1]) / 2.0, (e[1] + e[2]) / 2.0, (e[2] + e[3]) / 2.0)
        deviations = (
            _pair_deviation(e[0], e[1]),
            _pair_deviation(e[1], e[2]),
            _pair_deviation(e[2], e[3]),
            _quad_deviation(e),
        )
        return means, deviations

    (m1u, m2u, m3u), (s1u, s2u, s3u, s4u) = terms(a.upper)
    (m1l, m2l, m3l), (s1l, s2l, s3l, s4l) = terms(a.lower)
    h1u, h2u = a.upper.heights
    h1l, h2l = a.lower.heights
    total = (
        (m1u + m2u + m3u + m1l + m2l + m3l)
        - 0.25 * (s1u + s2u + s3u + s4u + s1l + s2l + s3l + s4l)
        + (h1u + h2u + h1l + h2l)
    )
    return RankBreakdown(
        m1u, m2u, m3u, m1l, m2l, m3l,
        s1u, s2u, s3u, s4u, s1l, s2l, s3l, s4l,
        h1u, h2u, h1l, h2l, total,
    )


def rank_order(scores: list[FuzzyScore]) -> list[RankedFactor]:
    """Order scores of one kind by descending rank value.

    Ties break by factor id ascending, so the ordering is total and
    deterministic regardless of input permutation. A score that has no finite
    rank value raises ``NonFiniteScoreError``.
    """
    kinds = {score.kind for score in scores}
    if len(kinds) > 1:
        raise MixedKindsError(f"cannot rank mixed kinds together: {sorted(kinds)}")
    ranked = [RankedFactor(s.factor, s, rank_value(s.value)) for s in scores]
    for rf in ranked:
        if not math.isfinite(rf.rank):
            kind = f"{rf.score.mode} {rf.score.kind}" if rf.score.mode else rf.score.kind
            raise NonFiniteScoreError(f"factor {rf.factor.id}: {kind} score: "
                                      f"{rf.score.value.to_text()} has no finite rank value")
    ranked.sort(key=lambda rf: (-rf.rank, factor_sort_key(rf.factor.id)))
    return ranked
