"""Critical success/failure scores and the Chen-Lee ranking value."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import compress

from . import numbers
from .numbers import IT2TrapFN
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


class FuzzyScore(namedtuple("FuzzyScore", "factor kind value mode")):
    """A factor's fuzzy criticality score (success, or failure with its mode)."""

    __slots__ = ()

    def __new__(cls, factor: Factor, kind: str, value: IT2TrapFN, mode: str | None = None):
        if kind not in (SUCCESS, FAILURE):
            raise ValueError(f"kind must be '{SUCCESS}' or '{FAILURE}', got {kind!r}")
        if kind == SUCCESS and mode is not None:
            raise ValueError("success scores are mode-free")
        if kind == FAILURE and mode not in FAILURE_MODES:
            raise ValueError(f"failure scores need a mode in {FAILURE_MODES}, got {mode!r}")
        return tuple.__new__(cls, (factor, kind, value, mode))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too


# The field order sets the ``breakdown`` keys and the ``ranking_*.csv`` header.
RankBreakdown = namedtuple(
    "RankBreakdown",
    "m1u m2u m3u m1l m2l m3l s1u s2u s3u s4u s1l s2l s3l s4l h1u h2u h1l h2l rank",
)
RankBreakdown.__doc__ = """Every term of the ranking value, auditable one by one.

The total is the sum of the six pairwise endpoint means, minus a quarter
of the sum of the eight endpoint deviations, plus the four heights.
"""


class RankedFactor(namedtuple("RankedFactor", "score breakdown")):
    """A factor's fuzzy score and its rank-value breakdown."""

    __slots__ = ()
    factor = property(lambda self: self.score.factor)
    rank = property(lambda self: self.breakdown.rank)


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


def _quad_deviation(a1: float, a2: float, a3: float, a4: float) -> float:
    # population standard deviation of four endpoints
    mean = (a1 + a2 + a3 + a4) / 4.0
    try:
        return math.sqrt(((a1 - mean) ** 2 + (a2 - mean) ** 2 + (a3 - mean) ** 2
                          + (a4 - mean) ** 2) / 4.0)
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def rank_value(a: IT2TrapFN) -> RankBreakdown:
    """Chen-Lee ranking value of an interval type-2 trapezoid.

    Accepts raw (possibly non-monotone) tuples; every term is returned in the breakdown so the
    total can be audited. A pair's deviation, its population standard deviation, is half its
    distance. Each group of terms is summed left to right in the breakdown's field order.
    """
    (u1, u2, u3, u4, h1u, h2u), (l1, l2, l3, l4, h1l, h2l) = a
    m1u, m2u, m3u = (u1 + u2) / 2.0, (u2 + u3) / 2.0, (u3 + u4) / 2.0
    m1l, m2l, m3l = (l1 + l2) / 2.0, (l2 + l3) / 2.0, (l3 + l4) / 2.0
    s1u, s2u, s3u = abs(u2 - u1) / 2.0, abs(u3 - u2) / 2.0, abs(u4 - u3) / 2.0
    s1l, s2l, s3l = abs(l2 - l1) / 2.0, abs(l3 - l2) / 2.0, abs(l4 - l3) / 2.0
    s4u, s4l = _quad_deviation(u1, u2, u3, u4), _quad_deviation(l1, l2, l3, l4)
    rank = ((m1u + m2u + m3u + m1l + m2l + m3l)
            - 0.25 * (s1u + s2u + s3u + s4u + s1l + s2l + s3l + s4l)
            + (h1u + h2u + h1l + h2l))
    return RankBreakdown(m1u, m2u, m3u, m1l, m2l, m3l, s1u, s2u, s3u, s4u, s1l, s2l, s3l, s4l,
                         h1u, h2u, h1l, h2l, rank)


def _negated_rank(rf: RankedFactor) -> float:
    return -rf.rank


def rank_order(scores: list[FuzzyScore]) -> list[RankedFactor]:
    """Order scores of one kind by descending rank value.

    Ties break by factor id ascending, so the ordering is total and
    deterministic regardless of input permutation. A score that has no finite
    rank value raises ``NonFiniteScoreError``.
    """
    kinds = {score.kind for score in scores}
    if len(kinds) > 1:
        raise MixedKindsError(f"cannot rank mixed kinds together: {sorted(kinds)}")
    ranked = [RankedFactor(s, rank_value(s.value)) for s in scores]
    for rf in ranked:
        if not math.isfinite(rf.rank):
            kind = f"{rf.score.mode} {rf.score.kind}" if rf.score.mode else rf.score.kind
            raise NonFiniteScoreError(f"factor {rf.factor.id}: {kind} score: "
                                      f"{rf.score.value.to_text()} has no finite rank value")
    # By rank alone, then each run of equal ranks by id: the order of the key
    # (-rank, factor_sort_key(id)), with a sort key only for the tied scores.
    ranked.sort(key=_negated_rank)
    keys = list(map(_negated_rank, ranked))
    for key in set(compress(keys, map(operator.eq, keys, keys[1:]))):  # each tied rank
        start, end = bisect_left(keys, key), bisect_right(keys, key)
        ranked[start:end] = sorted(ranked[start:end], key=lambda rf: factor_sort_key(rf.factor.id))
    return ranked
