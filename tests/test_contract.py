"""The library's error contract: a public call returns its documented result or
raises an exception its docstring names, whatever arguments of the documented
types it is given."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import DegenerateDataError, InvalidCountsError, cronbach_alpha, cvr

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
