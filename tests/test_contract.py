"""The library's error contract: a public call returns its documented result or
raises an exception its docstring names, whatever arguments of the documented
types it is given."""

import math
import re
from xml.etree import ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import (
    DegenerateDataError, Factor, IT2TrapFN, InvalidCountsError, MapRegion, MapThresholds,
    PlacedFactor, cronbach_alpha, cvr, place, render_svg, render_text,
)
from it2ipa.ipamap import BANDS, REGIONS

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
