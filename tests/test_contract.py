"""The library's error contract: a public call returns its documented result or
raises an exception its docstring names, whatever arguments of the documented
types it is given."""

import math
import re
import warnings
from xml.etree import ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import (
    DegenerateDataError, DivisorSpansZeroError, EmptyMatrixError, Factor, FactorProfile,
    IT2TrapFN, InvalidCountsError, InvalidDivisorError, LinguisticScale, MapRegion, MapThresholds,
    NegativeSupportError, OutOfRangeError, PlacedFactor, RatingMatrix, Trapezoid, UnknownTermError,
    add, aggregate, cronbach_alpha, cvr, default_scale, div, dtrat, lookup, mean, mul, one_minus,
    partition, place, render_svg, render_text, scalar_div,
)
from it2ipa.ipamap import BANDS, REGIONS
from helpers import assert_same_bits

CONTRACT = settings(max_examples=300, deadline=None, derandomize=True)

LIKERT = st.integers(1, 5)
# cells a grid of Likert answers may hold in place of one
ODD_CELLS = st.one_of(
    st.integers(-(2**26) - 1, -(2**26) + 1), st.integers(2**26 - 1, 2**26 + 1),
    st.sampled_from([10**400, -(10**400), 2**1024]),
    st.sampled_from([5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.booleans(),
    st.sampled_from(["3", " 2.5 ", "nan", "-inf", "1e400", "x"]),
    st.none(),
    st.lists(LIKERT, max_size=2),
)


def generator(row):
    return (cell for cell in row)


@st.composite
def grids(draw):
    """Likert answers with some cells replaced, some grids ragged, rows lists, tuples or generators."""
    n, k = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    rows = [draw(st.lists(LIKERT, min_size=k, max_size=k)) for _ in range(n)]
    if n and k:
        for _ in range(draw(st.integers(0, 3))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, k - 1))] = draw(ODD_CELLS)
        if draw(st.integers(0, 4)) == 4:  # one grid in five or so is ragged
            rows[draw(st.integers(0, n - 1))].pop()
    return [draw(st.sampled_from([list, tuple, generator]))(row) for row in rows]


@st.composite
def counts(draw):
    """``(n_essential, n_panel)`` ints around the valid range, some past the float range."""
    n_panel = draw(st.one_of(st.integers(-2, 60), st.sampled_from([2**53 + 1, 10**308, 10**400 + 1])))
    return draw(st.integers(-1, max(n_panel, 0) + 1)), n_panel


@CONTRACT
@given(grids())
def test_cronbach_alpha_is_a_finite_float_or_degenerate(grid):
    try:
        alpha = cronbach_alpha(grid)
    except DegenerateDataError:
        return
    assert type(alpha) is float and math.isfinite(alpha)


@CONTRACT
@given(counts())
def test_cvr_is_a_float_in_the_unit_range_or_invalid(pair):
    try:
        value = cvr(*pair)
    except InvalidCountsError:
        return
    assert type(value) is float and -1.0 <= value <= 1.0


# ids of any non-surrogate text, often holding a character XML 1.0 forbids,
# one it must escape, or a line end
IDS = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                        st.sampled_from("\x00\x01\x08\x0b\x0c\x1f\x7f\t\n\r\ufffe\uffff&<>]")))
UNIT = st.floats(0.0, 1.0)
THRESHOLDS = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2,
                      max_size=2, unique=True).map(lambda cuts: MapThresholds(*sorted(cuts)))
# one region in four or so is hand-built, and may not be one of the nine cells
HAND_BUILT = st.one_of(st.none(), st.none(), st.none(), st.builds(
    MapRegion, st.sampled_from(BANDS), st.sampled_from(BANDS),
    st.sampled_from(["weakness", "balanced", "strength", "x"])))
FORBIDDEN_IN_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


@st.composite
def placed_maps(draw):
    """Placed profiles, some with a hand-built region, and the thresholds they were placed by."""
    thresholds = draw(THRESHOLDS)
    one = IT2TrapFN.crisp(0.5)
    profiles = []
    for fid, e_w, e_r, region in draw(st.lists(st.tuples(IDS, UNIT, UNIT, HAND_BUILT), max_size=8)):
        region = region or place(e_w, e_r, thresholds)
        profiles.append(PlacedFactor(Factor(fid, fid, "d"), one, one, e_w, e_r, region))
    return profiles, thresholds


@CONTRACT
@given(placed_maps())
def test_render_svg_is_well_formed_with_each_id_as_a_label(placed):
    profiles, thresholds = placed
    svg = ElementTree.fromstring(render_svg(profiles, thresholds))
    texts = [e.text or "" for e in svg.iter() if e.tag.endswith("text")]
    # after the six band names and the two axis names, one label per profile in input order
    assert texts[8:] == [FORBIDDEN_IN_XML.sub("\ufffd", p.factor.id) for p in profiles]


@CONTRACT
@given(placed_maps())
def test_render_text_gives_the_grid_or_names_a_stray_region(placed):
    profiles, thresholds = placed
    stray = [p for p in profiles if p.region not in REGIONS]
    try:
        text = render_text(profiles, thresholds)
    except ValueError as exc:
        assert str(exc).startswith(f"factor {stray[0].factor.id}: region {stray[0].region!r}")
        return
    assert not stray and text.endswith("\n")


# Fuzzy values with endpoints of any float, in any order, and valid heights
ENDS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]))
HEIGHTS = st.floats(0.0, 1.0, exclude_min=True)
TRAPEZOIDS = st.builds(Trapezoid, ENDS, ENDS, ENDS, ENDS, HEIGHTS, HEIGHTS)
VALUES = st.builds(IT2TrapFN, TRAPEZOIDS, TRAPEZOIDS)
# ints up to past the float range, the first int ``float`` overflows on and the last it
# does not, and things that are not an int
DIVISORS = st.one_of(
    st.integers(max_value=10**400), st.sampled_from([2**1024 - 2**970, 2**1024 - 2**970 - 1]),
    st.floats(), st.booleans(),
)


def value_or_named_error(call, *args, named=()):
    """``call(*args)``'s value, checked to be a fuzzy value, or None when it raised one of
    ``named``; any other exception escapes and fails the test. Warnings are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            value = call(*args)
        except named:
            return None
    assert type(value) is IT2TrapFN and all(type(t) is Trapezoid for t in value)
    return value


@CONTRACT
@given(VALUES, VALUES)
def test_add_returns_a_value(a, b):
    value_or_named_error(add, a, b)


@CONTRACT
@given(VALUES, VALUES)
def test_mul_returns_a_value_or_refuses_a_negative_support(a, b):
    value_or_named_error(mul, a, b, named=NegativeSupportError)


@CONTRACT
@given(VALUES, VALUES)
def test_div_returns_a_value_or_refuses_a_divisor_not_above_zero(a, b):
    value_or_named_error(div, a, b, named=DivisorSpansZeroError)


@CONTRACT
@given(VALUES, DIVISORS)
def test_scalar_div_returns_a_value_only_for_a_positive_int(a, m):
    if value_or_named_error(scalar_div, a, m, named=InvalidDivisorError) is not None:
        assert type(m) is int and 1 <= m < 2**1024 - 2**970


@CONTRACT
@given(VALUES)
def test_one_minus_returns_a_value(a):
    value_or_named_error(one_minus, a)


@CONTRACT
@given(st.lists(VALUES, max_size=8))
def test_mean_returns_a_value_or_refuses_no_values(values):
    if value_or_named_error(mean, values, named=InvalidDivisorError) is None:
        assert values == []


@CONTRACT
@given(VALUES)
def test_dtrat_returns_a_float(a):
    assert type(dtrat(a)) is float


# Label texts: a few spellings of short words, with case and padding noise, and any text
WORDS = st.sampled_from(["Low", "high", "Medium", "x", "ß", "SS", "İ", "i̇", "", "ǅ"])
PADDING = st.sampled_from(["", " ", "\t", "\u2003", "\n "])
LABELS = st.one_of(
    st.builds(lambda pad, word, case, end: pad + case(word) + end,
              PADDING, WORDS, st.sampled_from([str, str.upper, str.lower, str.title]), PADDING),
    st.text(max_size=4),
)
# the built-in scale, or a hand-built one of up to five terms with any labels and values,
# two terms of one key included
SCALES = st.one_of(
    st.just(default_scale()),
    st.lists(st.tuples(LABELS, VALUES), max_size=5).map(LinguisticScale),
)


def key(label: str) -> str:
    return label.strip().casefold()


@CONTRACT
@given(SCALES, st.data())
def test_lookup_returns_the_first_term_of_its_key_or_refuses_it(scale, data):
    labels = [label for label, _ in scale.terms]
    label = data.draw(LABELS | st.sampled_from(labels) if labels else LABELS)
    want = [value for term, value in scale.terms if key(term) == key(label)]
    try:
        value = lookup(scale, label)
    except UnknownTermError as exc:
        assert not want and exc.label == label and exc.vocabulary == tuple(labels)
        return
    assert value is want[0]


@st.composite
def rating_matrices(draw):
    """A scale, and a matrix of its labels in any spelling, with a blank or unknown cell, a
    ragged row or a row too many or too few now and then, and now and then no factors or
    no experts."""
    scale = draw(SCALES)
    sizes = st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 0])
    n, m = draw(sizes), draw(sizes)
    labels = [label for label, _ in scale.terms]
    spelled = st.sampled_from(labels).flatmap(
        lambda label: st.sampled_from([label, label.upper(), f" {label.lower()}\t"])
    ) if labels else LABELS
    grids = [[draw(st.lists(spelled, min_size=m, max_size=m)) for _ in range(n)] for _ in range(2)]
    if n and m:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            row = draw(st.sampled_from(grids))[draw(st.integers(0, n - 1))]
            row[draw(st.integers(0, m - 1))] = draw(LABELS | st.sampled_from(["", " "]))
        if draw(st.integers(0, 5)) == 5:
            draw(st.sampled_from(grids))[draw(st.integers(0, n - 1))].pop()
    if draw(st.integers(0, 7)) == 7:  # a row too many or too few
        grid = draw(st.sampled_from(grids))
        if grid and draw(st.booleans()):
            grid.pop()
        else:
            grid.append(list(grid[0]) if grid else ["Low"])
    factors = [Factor(f"x{i}", f"x{i}", "d") for i in range(n)]
    return scale, RatingMatrix(factors, [f"E{j}" for j in range(m)], *grids)


@CONTRACT
@given(rating_matrices())
def test_aggregate_gives_each_rows_mean_or_refuses_the_matrix(generated):
    scale, matrix = generated
    try:
        profiles = aggregate(matrix, scale)
    except (EmptyMatrixError, UnknownTermError):
        return
    assert [type(p) for p in profiles] == [FactorProfile] * len(matrix.factors)
    for i, profile in enumerate(profiles):
        assert profile.factor is matrix.factors[i]
        for value, grid in zip(profile[1:], (matrix.importance, matrix.performance)):
            assert_same_bits(value, mean([lookup(scale, label) for label in grid[i]]))


COORDINATES = st.one_of(UNIT, st.floats(), st.sampled_from([-0.0, 5e-324, 1.0, 1.0000000000000002]))


@CONTRACT
@given(COORDINATES, COORDINATES, THRESHOLDS)
def test_place_gives_the_cell_of_its_bands_or_refuses_a_coordinate_off_the_map(e_w, e_r, cuts):
    try:
        region = place(e_w, e_r, cuts)
    except OutOfRangeError:
        assert not (0.0 <= e_w <= 1.0 and 0.0 <= e_r <= 1.0)
        return

    def band(value):
        return "low" if value < cuts.t1 else "medium" if value < cuts.t2 else "high"

    assert region in REGIONS and region[:2] == (band(e_w), band(e_r))


@CONTRACT
@given(placed_maps(), st.sampled_from(["region", "comparison", "Region", ""]))
def test_partition_splits_the_profiles_or_refuses_a_mode_or_a_stray_zone(placed, mode):
    profiles, _ = placed
    stray = [p for p in profiles if p.region.zone not in ("weakness", "balanced", "strength")]
    try:
        failure, success, balanced = partition(profiles, mode)
    except ValueError as exc:
        assert mode not in ("region", "comparison") or (
            mode == "region" and str(exc).startswith(f"factor {stray[0].factor.id}: region"))
        return
    assert mode == "comparison" or (mode == "region" and not stray)
    assert sorted(map(id, failure + success + balanced)) == sorted(map(id, profiles))
