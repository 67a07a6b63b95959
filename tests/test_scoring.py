"""Criticality scores and the Chen-Lee ranking value."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce
from statistics import pstdev

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import (
    Factor,
    FuzzyScore,
    IT2TrapFN,
    MixedKindsError,
    add,
    failure_score,
    fixtures,
    it2,
    rank_order,
    rank_value,
    success_score,
)
from it2ipa import numbers, scoring
from it2ipa.numbers import Trapezoid
from it2ipa.scoring import AS_COMPUTED, AS_WRITTEN, NonFiniteScoreError, RankBreakdown, RankedFactor
from it2ipa.survey import factor_sort_key
from helpers import (assert_it2_close, endpoints8, exact_score_ends, it2_values, random_it2,
                     same_bits)

F = Factor("f", "f", "d")


class TestSuccessScore:
    def test_reference_tuple_x2(self, bundled_profiles):
        p = bundled_profiles["x_2"]
        score = success_score(p.factor, p.w_fuzzy, p.r_fuzzy)
        assert score.kind == "success" and score.mode is None
        assert_it2_close(score.value, fixtures.reference_scores()["success"]["x_2"], 5e-3)

    def test_reference_tuple_x5(self, bundled_profiles):
        p = bundled_profiles["x_5"]
        score = success_score(p.factor, p.w_fuzzy, p.r_fuzzy)
        assert_it2_close(score.value, fixtures.reference_scores()["success"]["x_5"], 5e-3)

    def test_crisp_one_importance_returns_performance(self, terms):
        score = success_score(F, IT2TrapFN.crisp(1.0), terms["High"])
        assert score.value == terms["High"]

    def test_golden_suite_all_eight(self, bundled_profiles):
        reference = fixtures.reference_scores()["success"]
        assert len(reference) == 8
        for fid, expected in reference.items():
            p = bundled_profiles[fid]
            score = success_score(p.factor, p.w_fuzzy, p.r_fuzzy)
            assert_it2_close(score.value, expected, 5e-3)


class TestFailureScore:
    def test_as_computed_reference_tuple_x7(self, bundled_profiles):
        p = bundled_profiles["x_7"]
        score = failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode="as_computed")
        assert score.kind == "failure" and score.mode == "as_computed"
        assert_it2_close(score.value, fixtures.reference_scores()["failure"]["x_7"], 5e-3)

    def test_as_written_x1(self, bundled_profiles):
        # W x (1 - R): upper (0.333*0.533, 0.5*0.633, 0.5*0.633, 0.7*0.7)
        p = bundled_profiles["x_1"]
        score = failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode="as_written")
        expected = it2(
            (0.178, 0.317, 0.317, 0.49, 1, 1),
            (0.243, 0.317, 0.317, 0.40, 0.9, 0.9),
        )
        assert_it2_close(score.value, expected, 1e-3)

    def test_as_written_perfect_performance_zeroes_failure(self, terms):
        score = failure_score(F, terms["High"], IT2TrapFN.crisp(1.0), mode="as_written")
        assert score.value.upper.endpoints == (0.0, 0.0, 0.0, 0.0)
        assert score.value.lower.endpoints == (0.0, 0.0, 0.0, 0.0)

    def test_golden_suite_all_seven_as_computed(self, bundled_profiles):
        reference = fixtures.reference_scores()["failure"]
        assert len(reference) == 7
        for fid, expected in reference.items():
            p = bundled_profiles[fid]
            score = failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode="as_computed")
            assert_it2_close(score.value, expected, 5e-3)

    def test_unknown_mode_rejected(self, terms):
        with pytest.raises(ValueError, match="mode"):
            failure_score(F, terms["Low"], terms["Low"], mode="inverted")

    def test_success_scores_are_mode_free(self, terms):
        with pytest.raises(ValueError, match="mode-free"):
            FuzzyScore(F, "success", terms["Low"], mode="as_written")

    @pytest.mark.parametrize("kind,match", [("neutral", "kind must be"), ("failure", "need a mode")],
                             ids=["unknown-kind", "failure-without-mode"])
    def test_malformed_score_rejected(self, terms, kind, match):
        with pytest.raises(ValueError, match=match):
            FuzzyScore(F, kind, terms["Low"])


def rank_oracle(a: IT2TrapFN) -> float:
    """Step-by-step evaluation: pairwise means, pair/quad population
    standard deviations, heights."""
    total = 0.0
    for t in (a.upper, a.lower):
        e = t.endpoints
        total += sum((e[p] + e[p + 1]) / 2 for p in range(3))
        total -= 0.25 * (
            pstdev(e[0:2]) + pstdev(e[1:3]) + pstdev(e[2:4]) + pstdev(e)
        )
        total += t.h1 + t.h2
    return total


def _ordered_sum(values) -> float:
    return reduce(operator.add, values)


def _pair_deviation(x: float, y: float) -> float:
    # population standard deviation of a pair
    return abs(y - x) / 2.0


def _quad_deviation(endpoints: tuple[float, float, float, float]) -> float:
    mean = _ordered_sum(endpoints) / 4.0
    try:
        return math.sqrt(_ordered_sum((v - mean) ** 2 for v in endpoints) / 4.0)
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def rank_value_term_by_term(a: IT2TrapFN) -> RankBreakdown:
    """The ranking value with each of its 19 terms named: the bit-for-bit reference.

    It shares no code with ``rank_value``: the deviations and the left-to-right
    sums above are its own.
    """
    def terms(t):
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


def same_float(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def raw_trapezoids(ends):
    heights = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    return st.builds(Trapezoid, ends, ends, ends, ends, heights, heights)


UNIT_ROUNDOFF = Fraction(1, 2**53)  # one rounding of x is within UNIT_ROUNDOFF |x| of it
HALF_SUBNORMAL = Fraction(1, 2**1075)  # the most a product that underflows may be off


class TestExactScores:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(it2_values(), it2_values())
    def test_success_score_is_the_exact_product_rounded_once(self, w, r):
        got = endpoints8(success_score(F, w, r).value)
        assert all(map(same_bits, got, map(float, exact_score_ends(w, r))))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(it2_values(lo=1e-300), it2_values())
    def test_as_computed_failure_score_is_the_exact_quotient_rounded_once(self, w, r):
        got = endpoints8(failure_score(F, w, r, AS_COMPUTED).value)
        assert all(map(same_bits, got, map(float, exact_score_ends(w, r, AS_COMPUTED))))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(it2_values(), it2_values())
    def test_as_written_failure_score_is_within_its_two_roundings(self, w, r):
        # 1 - r is rounded, then the product: within (1 + u)**2 - 1 of the exact value, u the
        # unit roundoff, plus what the product loses if it underflows (a subtraction that
        # underflows is exact)
        got = endpoints8(failure_score(F, w, r, AS_WRITTEN).value)
        bound = (2 + UNIT_ROUNDOFF) * UNIT_ROUNDOFF
        for x, exact in zip(got, exact_score_ends(w, r, AS_WRITTEN)):
            assert abs(Fraction(x) - exact) <= bound * exact + HALF_SUBNORMAL


class TestRankValue:
    def test_crisp_law(self):
        # all means are c, all deviations zero, four unit heights
        for c in (0.0, 0.2, 0.5, 1.0, 3.0):
            assert rank_value(IT2TrapFN.crisp(c)).rank == pytest.approx(6 * c + 4, abs=1e-12)

    def test_reference_anchor_x7_failure(self, bundled_profiles):
        p = bundled_profiles["x_7"]
        score = failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode="as_computed")
        breakdown = rank_value(score.value)
        assert breakdown.rank == pytest.approx(rank_oracle(score.value), abs=1e-12)
        assert round(breakdown.rank, 3) == 9.573

    @given(it2_values())
    def test_matches_independent_oracle(self, a):
        assert rank_value(a).rank == pytest.approx(rank_oracle(a), abs=1e-12)

    @given(it2_values(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_shift_law(self, a, c):
        # means gain c each (6 terms); deviations and heights unchanged
        shifted = add(a, IT2TrapFN.crisp(c))
        assert rank_value(shifted).rank == pytest.approx(rank_value(a).rank + 6 * c, abs=1e-9)

    def test_strictly_increasing_on_crisp(self):
        values = [rank_value(IT2TrapFN.crisp(c / 100)).rank for c in range(101)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_breakdown_composition(self):
        rng = random.Random(11)
        for _ in range(50):
            b = rank_value(random_it2(rng))
            means = b.m1u + b.m2u + b.m3u + b.m1l + b.m2l + b.m3l
            deviations = b.s1u + b.s2u + b.s3u + b.s4u + b.s1l + b.s2l + b.s3l + b.s4l
            heights = b.h1u + b.h2u + b.h1l + b.h2l
            assert b.rank == means - 0.25 * deviations + heights

    def test_no_field_depends_on_how_builtin_sum_rounds(self, bundled_profiles, monkeypatch):
        # from Python 3.12 builtin sum compensates rounding, as a sum from math.fsum does
        def breakdowns():
            return [rank_value(score.value)._asdict()
                    for p in bundled_profiles.values()
                    for score in (success_score(p.factor, p.w_fuzzy, p.r_fuzzy),
                                  failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode="as_computed"),
                                  failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode="as_written"))]

        before = breakdowns()
        for module in (scoring, numbers):
            monkeypatch.setattr(module, "sum", lambda xs, start=0: math.fsum(xs) + start, raising=False)
        assert breakdowns() == before

    def test_accepts_raw_tuples(self):
        raw = it2((0.5, 0.4, 0.4, 0.4, 1, 1), (0.5, 0.4, 0.4, 0.4, 0.9, 0.9))
        assert rank_value(raw).rank == pytest.approx(rank_oracle(raw), abs=1e-12)

    @given(st.one_of(
        st.builds(IT2TrapFN, raw_trapezoids(st.floats(0.0, 1.0)), raw_trapezoids(st.floats(0.0, 1.0))),
        st.builds(IT2TrapFN, raw_trapezoids(st.floats()), raw_trapezoids(st.floats())),
    ))
    def test_every_field_equals_the_term_by_term_formula(self, a):
        got, want = rank_value(a), rank_value_term_by_term(a)
        assert all(map(same_float, got, want)), (got, want)

    @pytest.mark.parametrize("a", [
        it2((0.5, 0.4, 0.4, 0.4, 1, 1), (0.5, 0.4, 0.4, 0.4, 0.9, 0.9)),
        it2((0.9, 0.1, 0.7, 0.2, 0.3, 1), (0.6, 0.3, 0.5, 0.1, 0.2, 0.7)),
        # (v - mean) ** 2 overflows: the quad deviation is inf and the total -inf
        it2((-1e200, 1e200, -1e200, 1e200, 1, 1), (0.1, 0.2, 0.3, 0.4, 1, 1)),
        it2((0.0, 0.0, 0.0, 1e300, 1, 1), (-1e300, 0.0, 0.0, 0.0, 1, 1)),
    ], ids=["raw", "raw-shuffled", "quad-overflow", "quad-overflow-both"])
    def test_raw_and_overflowing_tuples_equal_the_term_by_term_formula(self, a):
        got, want = rank_value(a), rank_value_term_by_term(a)
        assert all(map(same_float, got, want)), (got, want)

    def test_overflowing_quad_deviation_is_infinite(self):
        b = rank_value(it2((-1e200, 1e200, -1e200, 1e200, 1, 1), (0.1, 0.2, 0.3, 0.4, 1, 1)))
        assert b.s4u == math.inf and b.rank == -math.inf

    def test_breakdown_fields_complete(self):
        names = set(rank_value(IT2TrapFN.crisp(0.1))._fields)
        assert names == {
            "m1u", "m2u", "m3u", "m1l", "m2l", "m3l",
            "s1u", "s2u", "s3u", "s4u", "s1l", "s2l", "s3l", "s4l",
            "h1u", "h2u", "h1l", "h2l", "rank",
        }


class TestRankOrder:
    def test_singleton(self, terms):
        ranked = rank_order([success_score(F, terms["Low"], terms["Low"])])
        assert len(ranked) == 1 and ranked[0].factor is F

    def test_crisp_scores_order_descending(self):
        # rank(0.5) = 7.0 beats rank(0.2) = 5.2
        low = FuzzyScore(Factor("a", "a", "d"), "success", IT2TrapFN.crisp(0.2))
        high = FuzzyScore(Factor("b", "b", "d"), "success", IT2TrapFN.crisp(0.5))
        ranked = rank_order([low, high])
        assert [rf.factor.id for rf in ranked] == ["b", "a"]
        assert ranked[0].rank == pytest.approx(7.0)
        assert ranked[1].rank == pytest.approx(5.2)

    def test_ties_break_by_factor_id_ascending(self, terms):
        tied = [
            FuzzyScore(Factor("x_11", "", "d"), "success", terms["Low"]),
            FuzzyScore(Factor("x_3", "", "d"), "success", terms["Low"]),
        ]
        ranked = rank_order(tied)
        assert [rf.factor.id for rf in ranked] == ["x_3", "x_11"]

    def test_permutation_invariant(self):
        rng = random.Random(3)
        scores = [
            FuzzyScore(Factor(f"x_{i}", "", "d"), "success", random_it2(rng))
            for i in range(12)
        ]
        reference = [rf.factor.id for rf in rank_order(scores)]
        for _ in range(10):
            shuffled = scores[:]
            rng.shuffle(shuffled)
            assert [rf.factor.id for rf in rank_order(shuffled)] == reference

    def test_mixed_kinds_rejected(self, terms):
        scores = [
            FuzzyScore(Factor("a", "", "d"), "success", terms["Low"]),
            FuzzyScore(Factor("b", "", "d"), "failure", terms["Low"], mode="as_computed"),
        ]
        with pytest.raises(MixedKindsError):
            rank_order(scores)

    # 1e200 overflows the squared deviations of the rank value; inf makes it NaN
    @pytest.mark.parametrize("top", [1e200, float("inf")])
    def test_score_without_finite_rank_rejected(self, terms, top):
        huge = FuzzyScore(F, "failure", it2((0, 0, 0.1, top, 1, 1), (0, 0, 0, 0.1, 1, 1)),
                          mode="as_computed")
        fine = FuzzyScore(Factor("g", "g", "d"), "failure", terms["Low"], mode="as_computed")
        with pytest.raises(NonFiniteScoreError, match="factor f: as_computed failure score"):
            rank_order([fine, huge])


def rank_order_by_composite_key(scores: list[FuzzyScore]) -> list[RankedFactor]:
    """``rank_order`` as it was before it sorted only the tied scores by id: the reference.

    One sort by the key ``(-rank, factor_sort_key(id))``, which computes a sort key for
    every score.
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
    ranked.sort(key=lambda rf: (-rf.rank, factor_sort_key(rf.factor.id)))
    return ranked


def outcome(rank, scores):
    """What ``rank`` gives for ``scores``: the scores in order, by identity, or its error."""
    try:
        return [id(rf.score) for rf in rank(scores)]
    except ValueError as exc:
        return type(exc), str(exc)


# Ids that sort apart only by their text (x2, x02, x٢) or by their numbers (x2, x10).
TIED_IDS = st.sampled_from(["x2", "x10", "x02", "x\u0662", "x1", "x01", "x\u0661", "x", "x_3",
                            "x\u00b2", "y", "", "10", "x2a"])
ENDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, 1e200, -1e200]))
RAW = st.builds(IT2TrapFN, raw_trapezoids(ENDS), raw_trapezoids(ENDS))
# 1e200 overflows the squared deviations of the rank value, and inf or NaN makes it not finite
OVERFLOWING = st.builds(IT2TrapFN, raw_trapezoids(st.floats()), raw_trapezoids(st.floats()))


@st.composite
def score_lists(draw):
    """Success or failure scores of one kind: raw values, a pool of five, or any floats."""
    kind = draw(st.sampled_from(["success", "failure"]))
    mode = None if kind == "success" else "as_computed"
    pool = draw(st.lists(RAW, min_size=5, max_size=5))
    values = draw(st.sampled_from([RAW, st.sampled_from(pool), st.one_of(RAW, OVERFLOWING)]))
    ids = draw(st.sampled_from([TIED_IDS, st.text(max_size=4)]))
    return [FuzzyScore(Factor(fid, "", "d"), kind, value, mode)
            for fid, value in draw(st.lists(st.tuples(ids, values), max_size=40))]


class TestRankOrderOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(score_lists(), st.randoms(use_true_random=False))
    def test_equals_the_composite_key_order(self, scores, rng):
        assert outcome(rank_order, scores) == outcome(rank_order_by_composite_key, scores)
        rng.shuffle(scores)
        assert outcome(rank_order, scores) == outcome(rank_order_by_composite_key, scores)

    def test_a_pool_of_tied_ranks_sorts_each_run_by_id(self):
        low = it2((0.1, 0.2, 0.3, 0.4, 1, 1), (0.2, 0.2, 0.3, 0.3, 0.9, 0.9))
        high = IT2TrapFN.crisp(0.5)
        ids = ["x10", "x2", "x02", "x\u0662", "x1"]
        scores = [FuzzyScore(Factor(fid, "", "d"), "success", value)
                  for fid in ids for value in (low, high)]
        order = [(rf.factor.id, rf.score.value is high) for rf in rank_order(scores)]
        assert order == [(fid, True) for fid in ["x1", "x02", "x2", "x\u0662", "x10"]] + [
            (fid, False) for fid in ["x1", "x02", "x2", "x\u0662", "x10"]]
