"""DTraT defuzzification: anchors, the golden crisp table, shift laws, and an exact oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import IT2TrapFN, Trapezoid, add, dtrat, fixtures, it2
from helpers import exact_dtrat, it2_values


def test_crisp_identity():
    for c in (0.0, 0.25, 1.0):
        assert dtrat(IT2TrapFN.crisp(c)) == pytest.approx(c, abs=1e-15)


def test_reference_importance_x1():
    # upper quarter-sum 0.50825, lower 0.47925, mean 0.49375
    w = it2((0.333, 0.5, 0.5, 0.7, 1, 1), (0.417, 0.5, 0.5, 0.6, 0.9, 0.9))
    assert dtrat(w) == pytest.approx(0.49375, abs=1e-12)
    assert dtrat(w) == pytest.approx(0.494, abs=1e-3)


def test_low_term_matches_reference_x3_performance(terms):
    value = dtrat(terms["Low"])
    assert value == pytest.approx(0.11625, abs=1e-12)
    assert value == pytest.approx(fixtures.reference_defuzzified()["x_3"][1], abs=1e-3)


def test_golden_crisp_table(bundled_profiles):
    """All 36 reference crisp values reproduce within 1e-3."""
    reference = fixtures.reference_defuzzified()
    assert len(reference) == 18
    for fid, (ref_w, ref_r) in reference.items():
        profile = bundled_profiles[fid]
        assert dtrat(profile.w_fuzzy) == pytest.approx(ref_w, abs=1e-3), fid
        assert dtrat(profile.r_fuzzy) == pytest.approx(ref_r, abs=1e-3), fid


@given(it2_values(unit_heights=True), st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_shift_law_exact_for_unit_heights(a, c):
    # with unit heights both quarter-sums shift by exactly c
    shifted = add(a, IT2TrapFN.crisp(c))
    assert dtrat(shifted) == pytest.approx(dtrat(a) + c, abs=1e-12)


@given(it2_values(), st.floats(min_value=1e-3, max_value=2.0, allow_nan=False))
def test_monotone_under_positive_shift(a, c):
    # heights below one damp the shift but never reverse it
    assert dtrat(add(a, IT2TrapFN.crisp(c))) > dtrat(a)


def test_scale_values_inside_unit_interval(scale):
    for _, value in scale.terms:
        assert 0.0 <= dtrat(value) <= 1.0


# Endpoints in any order, some -0.0 or subnormal or ints; heights in (0, 1], some the int 1.
ENDPOINTS = st.one_of(
    st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300), st.integers(-9, 9),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1.0, 0.1]),
)
HEIGHTS = st.one_of(st.just(1), st.floats(0.0, 1.0, exclude_min=True))
TRAPEZOIDS = st.builds(Trapezoid, ENDPOINTS, ENDPOINTS, ENDPOINTS, ENDPOINTS, HEIGHTS, HEIGHTS)

# DTraT rounds at most 17 times: per trapezoid two products, three differences and
# three sums, then the sum of the two quarter sums (÷4 and ×0.5 are exact above the
# subnormal range). No intermediate exceeds 3S in magnitude, S being the sum of the
# eight endpoints' magnitudes (heights are at most 1), and no later operation scales
# an error up, so the error is at most 17 × 3S × 2**-53 (+ 1 ulp of slack for the
# products of the rounding errors). Each of those 17 and the two exact-but-for-underflow
# scalings may also lose half the smallest subnormal: 19 × 2**-1075 in all.
DTRAT_ROUNDINGS = 17


def dtrat_error_bound(value: IT2TrapFN) -> Fraction:
    s = sum(abs(Fraction(x)) for x in value.upper[:4] + value.lower[:4])
    return Fraction(3 * DTRAT_ROUNDINGS + 1, 2**53) * s + Fraction(19, 2**1075)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.builds(IT2TrapFN, TRAPEZOIDS, TRAPEZOIDS))
def test_within_its_rounding_bound_of_the_exact_dtrat(value):
    assert abs(Fraction(dtrat(value)) - exact_dtrat(value)) <= dtrat_error_bound(value)
