"""Arithmetic on interval type-2 trapezoids: frozen cases and algebra laws."""

import math
import operator
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from it2ipa import (
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
from helpers import assert_it2_close, it2_values, max_endpoint_gap, random_it2, sequential_mean

CRISP_ZERO = IT2TrapFN.crisp(0.0)
CRISP_ONE = IT2TrapFN.crisp(1.0)


def per_value_text(value: IT2TrapFN, decimals: int | None) -> str:
    """The canonical text formatted one value at a time, as the display rule reads.

    The reference for ``to_text``; its zero strip holds only where every number
    has a decimal point, so ``decimals`` is ``None`` or at least 1.
    """
    def fmt(v) -> str:
        if decimals is None:
            return repr(float(v))
        text = f"{v:.{decimals}f}".rstrip("0").rstrip(".")
        return "0" if text in ("", "-", "-0") else text

    parts = [f"({','.join(map(fmt, t.endpoints))};{','.join(map(fmt, t.heights))})"
             for t in (value.upper, value.lower)]
    return f"({parts[0]},{parts[1]})"


class TestConstruction:
    def test_height_range_enforced(self):
        with pytest.raises(ValueError, match="heights"):
            Trapezoid(0, 0, 0, 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="heights"):
            Trapezoid(0, 0, 0, 0, 1.0, 1.2)

    def test_ordering_is_soft(self):
        # raw tuples are representable; is_ordered flags them
        raw = it2((0.5, 0.4, 0.4, 0.4, 1, 1), (0.5, 0.4, 0.4, 0.4, 0.9, 0.9))
        assert not raw.is_ordered
        assert any("non-decreasing" in v for v in raw.violations())

    def test_violations_containment_and_heights(self):
        bad_support = it2((0.2, 0.3, 0.4, 0.5, 1, 1), (0.1, 0.3, 0.4, 0.5, 0.9, 0.9))
        assert any("support" in v for v in bad_support.violations())
        bad_heights = it2((0.2, 0.3, 0.4, 0.5, 0.8, 0.8), (0.2, 0.3, 0.4, 0.5, 0.9, 0.9))
        assert any("heights" in v for v in bad_heights.violations())

    def test_valid_number_has_no_violations(self, terms):
        assert terms["Medium"].violations() == []

    def test_replace_checks_the_heights(self):
        with pytest.raises(ValueError, match="heights"):
            Trapezoid(0, 0, 0, 0)._replace(h1=0.0)

    def test_not_a_tuple_in_arithmetic(self, terms):
        x = terms["Low"]
        with pytest.raises(TypeError):
            3 * x  # a tuple would repeat
        with pytest.raises(TypeError):
            (1,) + x  # a tuple would concatenate


class TestCanonicalText:
    def test_round_trip(self, terms):
        for value in terms.values():
            assert IT2TrapFN.from_text(value.to_text()) == value

    def test_display_rounding(self):
        n = it2((0.0066, 1.0, 1.0, 2.7453, 1, 1), (0.0221, 1.0, 1.0, 1.9057, 0.9, 0.9))
        assert n.to_text(3) == "((0.007,1,1,2.745;1,1),(0.022,1,1,1.906;0.9,0.9))"

    def test_exact_text_leaves_no_tuples_behind(self, terms):
        # Holding 12-tuples empties the interpreter's free list of them, which
        # otherwise keeps up to 2000 dropped 12-tuples (about 270 KiB) alive.
        held = [(*range(i, i + 12),) for i in range(2500)]
        values = list(terms.values()) * 400  # 2000 calls
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for value in values:
                value.to_text()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del held
        assert grown < 16 * 1024

    @pytest.mark.parametrize("value,decimals,text", [
        (10.0, 0, "10"), (20, 0, "20"), (100.0, 2, "100"), (-0.5, 0, "0"), (-100.5, 1, "-100.5"),
        (-0.0004, 3, "0"), (0.105, 4, "0.105"), (1e20, 1, "100000000000000000000"),
    ])
    def test_display_rounding_keeps_integer_zeros(self, value, decimals, text):
        trapezoid = f"({text},{text},{text},{text};1,1)"
        assert IT2TrapFN.crisp(value).to_text(decimals) == f"({trapezoid},{trapezoid})"

    @given(
        st.lists(st.one_of(st.floats(), st.integers(-10**6, 10**6),
                           st.sampled_from([-0.0, -0.0004, 0.0005, 0.00049, 1e-7, 100.0, 1e300])),
                 min_size=8, max_size=8),
        st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.just(1)),
                 min_size=4, max_size=4),
        st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
    )
    def test_text_equals_per_value_formatting(self, ends, heights, decimals):
        value = IT2TrapFN(Trapezoid(*ends[:4], *heights[:2]), Trapezoid(*ends[4:], *heights[2:]))
        assert value.to_text(decimals) == per_value_text(value, decimals)

    @pytest.mark.parametrize("text", ["", "(1,2,3,4)", "((1,2,3;1,1),(1,2,3,4;1,1))", "nonsense"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="canonical"):
            IT2TrapFN.from_text(text)


class TestAdd:
    def test_crisp_zero_is_identity(self, terms):
        for value in terms.values():
            assert add(value, CRISP_ZERO) == value  # min(h, 1) = h keeps heights

    def test_low_plus_medium(self, terms):
        # endpoint sums: (0+0.3, 0.1+0.5, 0.1+0.5, 0.3+0.7) etc.
        expected = it2((0.3, 0.6, 0.6, 1.0, 1, 1), (0.45, 0.6, 0.6, 0.8, 0.9, 0.9))
        assert_it2_close(add(terms["Low"], terms["Medium"]), expected, 1e-12)

    def test_commutative_100_random_pairs(self):
        rng = random.Random(42)
        for _ in range(100):
            a, b = random_it2(rng), random_it2(rng)
            assert add(a, b) == add(b, a)

    @given(it2_values(), it2_values(), it2_values())
    def test_associative(self, a, b, c):
        assert max_endpoint_gap(add(add(a, b), c), add(a, add(b, c))) <= 1e-12

    def test_operator(self, terms):
        assert terms["Low"] + terms["Medium"] == add(terms["Low"], terms["Medium"])


class TestSub:
    def test_crisp_zero_is_identity(self, terms):
        for value in terms.values():
            assert sub(value, CRISP_ZERO) == value

    def test_medium_minus_low_raw(self, terms):
        # (0.3-0, 0.5-0.1, 0.5-0.1, 0.7-0.3) -> monotone, no warning expected
        result = sub(terms["Medium"], terms["Low"])
        expected = it2((0.3, 0.4, 0.4, 0.4, 1, 1), (0.35, 0.4, 0.4, 0.4, 0.9, 0.9))
        assert_it2_close(result, expected, 1e-12)
        assert result.is_ordered

    def test_low_minus_medium_flags_ordering(self, terms):
        with pytest.warns(OrderingViolatedWarning):
            result = sub(terms["Low"], terms["Medium"])
        # raw tuple kept: first upper endpoint 0 - 0.3 = -0.3 > -0.4
        assert result.upper.a1 == pytest.approx(-0.3)
        assert result.upper.a2 == pytest.approx(-0.4)
        assert not result.is_ordered


class TestMul:
    def test_crisp_one_is_identity(self, terms):
        for value in terms.values():
            assert mul(value, CRISP_ONE) == value

    def test_medium_squared(self, terms):
        expected = it2((0.09, 0.25, 0.25, 0.49, 1, 1), (0.16, 0.25, 0.25, 0.36, 0.9, 0.9))
        assert_it2_close(mul(terms["Medium"], terms["Medium"]), expected, 1e-12)

    def test_reference_success_tuple_x2(self, bundled_profiles):
        p = bundled_profiles["x_2"]
        expected = IT2TrapFN.from_text(
            "((0.007,0.044,0.044,0.15;1,1),(0.022,0.044,0.044,0.09;0.9,0.9))"
        )
        assert_it2_close(mul(p.w_fuzzy, p.r_fuzzy), expected, 5e-3)

    def test_negative_support_rejected(self):
        negative = it2((-0.2, 0.1, 0.2, 0.3, 1, 1), (-0.1, 0.1, 0.2, 0.3, 0.9, 0.9))
        with pytest.raises(NegativeSupportError):
            mul(negative, CRISP_ONE)
        with pytest.raises(NegativeSupportError):
            mul(CRISP_ONE, negative)

    @given(it2_values(lo=0.0, hi=1.0), it2_values(lo=0.0, hi=1.0))
    def test_preserves_invariants_on_nonnegative_supports(self, a, b):
        assert mul(a, b).violations() == []


class TestDiv:
    def test_crisp_ratio_is_one(self):
        for c in (0.25, 1.0, 3.5):
            result = div(IT2TrapFN.crisp(c), IT2TrapFN.crisp(c))
            assert_it2_close(result, CRISP_ONE, 1e-12)

    def test_reference_failure_tuple_x15(self, bundled_profiles):
        p = bundled_profiles["x_15"]
        expected = IT2TrapFN.from_text(
            "((0.737,1.385,1.385,2.75;1,1),(1,1.385,1.385,1.905;0.9,0.9))"
        )
        assert_it2_close(div(p.r_fuzzy, p.w_fuzzy), expected, 5e-3)

    def test_reference_failure_tuple_x1(self, bundled_profiles):
        p = bundled_profiles["x_1"]
        expected = IT2TrapFN.from_text(
            "((0.429,0.733,0.733,1.402;1,1),(0.556,0.733,0.733,1;0.9,0.9))"
        )
        assert_it2_close(div(p.r_fuzzy, p.w_fuzzy), expected, 5e-3)

    def test_divisor_spanning_zero_rejected(self):
        zero_low = it2((0.0, 0.1, 0.2, 0.3, 1, 1), (0.05, 0.1, 0.2, 0.3, 0.9, 0.9))
        with pytest.raises(DivisorSpansZeroError):
            div(CRISP_ONE, zero_low)

    def test_divisor_with_an_inner_endpoint_at_zero_rejected(self):
        # a1 > 0, but a2 strays to 0 within the order slack
        stray = it2((1e-13, 0.0, 0.9, 0.9, 1, 1), (1e-13, 1e-13, 0.5, 0.9, 1, 1))
        with pytest.raises(DivisorSpansZeroError, match="got lower bound 0.0"):
            div(CRISP_ONE, stray)

    @given(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_div_then_mul_round_trip_on_crisp(self, c, d):
        result = mul(div(IT2TrapFN.crisp(c), IT2TrapFN.crisp(d)), IT2TrapFN.crisp(d))
        assert max_endpoint_gap(result, IT2TrapFN.crisp(c)) <= 1e-12


class TestScalarDiv:
    def test_identity_m1(self, terms):
        for value in terms.values():
            assert scalar_div(value, 1) == value

    def test_three_lows_average_back(self, terms):
        low = terms["Low"]
        mean = scalar_div(add(low, add(low, low)), 3)
        assert_it2_close(mean, low, 1e-12)

    def test_medium_halved(self, terms):
        expected = it2((0.15, 0.25, 0.25, 0.35, 1, 1), (0.2, 0.25, 0.25, 0.3, 0.9, 0.9))
        assert_it2_close(scalar_div(terms["Medium"], 2), expected, 1e-12)

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_divisor_rejected(self, terms, m):
        with pytest.raises(InvalidDivisorError):
            scalar_div(terms["Low"], m)

    @given(it2_values(), st.integers(min_value=1, max_value=20))
    def test_heights_preserved(self, a, m):
        result = scalar_div(a, m)
        assert result.upper.heights == a.upper.heights
        assert result.lower.heights == a.lower.heights


class TestMean:
    @given(st.data(), st.lists(it2_values(), min_size=1, max_size=50))
    def test_equals_sequential_sum_then_division_exactly(self, data, values):
        values = data.draw(st.permutations(values))
        assert mean(values) == sequential_mean(values)

    def test_mixed_terms_exactly(self, terms):
        values = [terms[label] for label in ("High", "Low", "Very High", "Medium", "High")] * 20
        assert mean(values) == sequential_mean(values)

    def test_heights_are_the_minimum(self):
        values = [it2((0, 0, 0, 0, 0.7, 1), (0, 0, 0, 0, 0.5, 0.9)),
                  it2((0, 0, 0, 0, 1, 0.6), (0, 0, 0, 0, 0.8, 0.3))]
        result = mean(values)
        assert result.upper.heights == (0.7, 0.6) and result.lower.heights == (0.5, 0.3)

    def test_negative_zero_survives(self):
        result = mean([IT2TrapFN.crisp(-0.0)] * 3)
        assert all(math.copysign(1.0, v) == -1.0 for v in result.upper.endpoints)

    def test_empty_rejected(self):
        with pytest.raises(InvalidDivisorError):
            mean([])


class TestOneMinus:
    def test_crisp_zero_to_one(self):
        assert one_minus(CRISP_ZERO) == CRISP_ONE

    def test_reference_performance_complement_x1(self, bundled_profiles):
        # 1 - (0.3,0.367,0.367,0.467) reversed = (0.533,0.633,0.633,0.7)
        expected = it2((0.533, 0.633, 0.633, 0.7, 1, 1), (0.583, 0.633, 0.633, 0.667, 0.9, 0.9))
        assert_it2_close(one_minus(bundled_profiles["x_1"].r_fuzzy), expected, 1e-9)

    @given(it2_values())
    def test_involution_and_heights(self, a):
        back = one_minus(one_minus(a))
        assert max_endpoint_gap(back, a) <= 1e-12
        assert back.upper.heights == a.upper.heights
        assert back.lower.heights == a.lower.heights


# Raw operands: endpoints in any order, heights anywhere in (0, 1]. The bounds keep
# every exact result inside the float range, so float(Fraction(...)) does not overflow.
def raw_it2(lo: float, hi: float):
    ends = st.floats(min_value=lo, max_value=hi)
    heights = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    trap = st.builds(Trapezoid, ends, ends, ends, ends, heights, heights)
    return st.builds(IT2TrapFN, trap, trap)


def assert_endpoint_rule(result, a, b, op, cross):
    """Each endpoint is the exact result of ``op`` rounded once; heights are minima.

    Within each trapezoid, endpoint k of ``a`` pairs with endpoint k of ``b``, or with
    endpoint 5-k when ``cross``. One IEEE operation is correctly rounded, so the float
    result must equal the exact rational result converted to float.
    """
    for r, x, y in zip(result, a, b):
        ys = y.endpoints[::-1] if cross else y.endpoints
        assert r.endpoints == tuple(float(op(Fraction(p), Fraction(q)))
                                    for p, q in zip(x.endpoints, ys))
        assert r.heights == (min(x.h1, y.h1), min(x.h2, y.h2))


class TestEndpointRule:
    @given(raw_it2(-1e6, 1e6), raw_it2(-1e6, 1e6))
    def test_add_and_sub_pair_like_endpoints(self, a, b):
        assert_endpoint_rule(add(a, b), a, b, operator.add, cross=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderingViolatedWarning)
            assert_endpoint_rule(sub(a, b), a, b, operator.sub, cross=False)

    @given(raw_it2(0.0, 1e6), raw_it2(0.0, 1e6))
    def test_mul_pairs_like_endpoints(self, a, b):
        assert_endpoint_rule(mul(a, b), a, b, operator.mul, cross=False)

    @given(raw_it2(-1e6, 1e6), raw_it2(1e-3, 1e6))
    def test_div_pairs_cross_reversed_endpoints(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderingViolatedWarning)
            assert_endpoint_rule(div(a, b), a, b, operator.truediv, cross=True)

    @given(raw_it2(-1e6, 1e6), st.integers(min_value=1, max_value=10**6))
    def test_scalar_div_divides_by_a_crisp_divisor(self, a, m):
        assert_endpoint_rule(scalar_div(a, m), a, IT2TrapFN.crisp(m), operator.truediv, cross=False)

    @given(raw_it2(-1e6, 1e6))
    def test_one_minus_is_crisp_one_minus_the_reversed_endpoints(self, a):
        assert_endpoint_rule(one_minus(a), CRISP_ONE, a, operator.sub, cross=True)

    @pytest.mark.parametrize("op", [sub, div])
    def test_ordering_warning_names_the_callers_file(self, op):
        raw = it2((0.5, 0.4, 0.4, 0.4, 1, 1), (0.5, 0.4, 0.4, 0.4, 0.9, 0.9))
        with pytest.warns(OrderingViolatedWarning) as record:
            op(raw, CRISP_ONE)
        assert [w.filename for w in record] == [__file__]

    def test_ordering_warning_through_an_operator_names_the_callers_file(self):
        raw = it2((0.5, 0.4, 0.4, 0.4, 1, 1), (0.5, 0.4, 0.4, 0.4, 0.9, 0.9))
        with pytest.warns(OrderingViolatedWarning) as record:
            raw - IT2TrapFN.crisp(0)
            raw / IT2TrapFN.crisp(1)
        assert [w.filename for w in record] == [__file__, __file__]


def same_bits(x: float, y: float) -> bool:
    """Equal as IEEE values: any NaN matches any NaN, and 0.0 differs from -0.0."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


# Any endpoints, NaN and infinities too, in any order; heights valid.
_ANY_ENDS = st.floats()
_HEIGHTS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_ANY_TRAP = st.builds(Trapezoid, _ANY_ENDS, _ANY_ENDS, _ANY_ENDS, _ANY_ENDS, _HEIGHTS, _HEIGHTS)


class TestMeanBits:
    @given(st.lists(raw_it2(-1e6, 1e6) | st.builds(IT2TrapFN, _ANY_TRAP, _ANY_TRAP),
                    min_size=1, max_size=60))
    def test_equals_sequential_mean_field_by_field(self, values):
        expected = sequential_mean(values)
        result = mean(values)
        for got, want in zip(result.upper + result.lower, expected.upper + expected.lower):
            assert same_bits(got, want), (got, want)


SLACK = 1e-12


class TestOrderTest:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("base", [0.0, 0.5, -3.0])
    def test_a_step_down_of_exactly_the_slack_is_ordered(self, base, k):
        ends = [base] * k + [base - SLACK] * (4 - k)
        assert Trapezoid(*ends).is_ordered

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("base", [0.0, 0.5, -3.0])
    def test_a_step_down_of_twice_the_slack_is_not(self, base, k):
        ends = [base] * k + [base - 2 * SLACK] * (4 - k)
        assert not Trapezoid(*ends).is_ordered

    @pytest.mark.parametrize("k", range(4))
    def test_nan_anywhere_is_not_ordered(self, k):
        ends = [0.0, 0.1, 0.2, 0.3]
        ends[k] = math.nan
        assert not Trapezoid(*ends).is_ordered

    @pytest.mark.parametrize("ends,ordered", [
        ((-math.inf, 0.0, 0.0, math.inf), True),
        ((math.inf,) * 4, True),
        ((-math.inf,) * 4, True),
        ((0.0, 0.0, math.inf, 1.0), False),
        ((0.0, -math.inf, 0.0, 0.0), False),
        ((math.inf, 0.0, 0.0, 0.0), False),
    ])
    def test_infinite_endpoints(self, ends, ordered):
        assert Trapezoid(*ends).is_ordered is ordered

    def test_violations_at_the_slack_boundary(self):
        at_slack = it2((0.0, 0.0, 0.5, 0.5, 1, 1), (-SLACK, 0.0, 0.5, 0.5 + SLACK, 1, 1))
        assert at_slack.violations() == []
        past_slack = it2((0.0, -2 * SLACK, 0.5, 0.5, 0.8, 1),
                         (-2 * SLACK, 0.0, -2 * SLACK, 0.5 + 2 * SLACK, 0.9, 1))
        assert past_slack.violations() == [
            "upper endpoints not non-decreasing: (0.0, -2e-12, 0.5, 0.5)",
            "lower endpoints not non-decreasing: (-2e-12, 0.0, -2e-12, 0.500000000002)",
            "lower support not contained in upper support",
            "lower heights exceed upper heights",
        ]

    def test_violations_with_nan_and_infinite_endpoints(self):
        value = it2((math.nan, 0.0, 0.0, math.inf, 1, 1), (0.0, 0.0, 0.0, math.nan, 1, 1))
        assert value.violations() == [
            "upper endpoints not non-decreasing: (nan, 0.0, 0.0, inf)",
            "lower endpoints not non-decreasing: (0.0, 0.0, 0.0, nan)",
        ]
