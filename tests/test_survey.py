"""Rating ingestion, fuzzy aggregation, and psychometrics."""

import gc
import itertools
import json
import math
import random
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import variance

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import (
    DegenerateDataError,
    EmptyMatrixError,
    Factor,
    InvalidCountsError,
    LinguisticScale,
    RatingMatrix,
    UnknownTermError,
    aggregate,
    cronbach_alpha,
    cvr,
    it2,
    load_psychometrics,
    parse_aggregated,
    parse_ratings,
)
import it2ipa.survey
from it2ipa import default_scale, fixtures, lookup
from it2ipa.cli import main
from it2ipa.errors import InputFileError
from it2ipa.survey import factor_sort_key
from helpers import assert_it2_close, assert_same_bits, exact_alpha, exact_mean, same_bits


def matrix_of(rows, experts=("E1", "E2", "E3")):
    """rows: {factor_id: (importance labels, performance labels)}"""
    factors = [Factor(fid, fid, "dim") for fid in rows]
    return RatingMatrix(
        factors=factors,
        experts=list(experts),
        importance=[list(rows[f.id][0]) for f in factors],
        performance=[list(rows[f.id][1]) for f in factors],
    )


class TestAggregate:
    def test_identical_ratings_mean_is_the_rating(self, scale, terms):
        matrix = matrix_of({"f": (["Low"] * 3, ["High"] * 3)})
        profile = aggregate(matrix, scale)[0]
        assert_it2_close(profile.w_fuzzy, terms["Low"], 1e-12)
        assert_it2_close(profile.r_fuzzy, terms["High"], 1e-12)

    def test_mixed_ratings_mean(self, scale):
        # (VeryLow + Low + Medium)/3: upper (0.3,0.6,0.6,1.1)/3, lower (0.45,0.6,0.6,0.85)/3
        matrix = matrix_of({"f": (["Very Low", "Low", "Medium"], ["Medium"] * 3)})
        profile = aggregate(matrix, scale)[0]
        expected = it2(
            (0.1, 0.2, 0.2, 1.1 / 3, 1, 1),
            (0.15, 0.2, 0.2, 0.85 / 3, 0.9, 0.9),
        )
        assert_it2_close(profile.w_fuzzy, expected, 1e-12)

    def test_single_expert(self, scale, terms):
        matrix = matrix_of({"f": (["High"], ["Low"])}, experts=("only",))
        profile = aggregate(matrix, scale)[0]
        assert profile.w_fuzzy == terms["High"]

    def test_permutation_invariant_in_experts(self, scale):
        labels = ["Very Low", "Medium", "Very High", "Low", "High", "medium", " Low", "High"]
        experts = [f"e{j}" for j in range(len(labels))]
        reference = aggregate(matrix_of({"f": (labels, labels[::-1])}, experts), scale)[0]
        rng = random.Random(7)
        for _ in range(10):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            other = aggregate(matrix_of({"f": (shuffled, shuffled[::-1])}, experts), scale)[0]
            assert other == reference

    def test_unknown_term_carries_coordinates(self, scale):
        matrix = matrix_of({"x_9": (["Low", "Med", "Low"], ["Low"] * 3)})
        with pytest.raises(UnknownTermError) as excinfo:
            aggregate(matrix, scale)
        message = str(excinfo.value)
        assert "x_9" in message and "E2" in message and "importance" in message

    def test_unknown_term_names_the_first_bad_cell(self, scale):
        matrix = matrix_of({"f": (["Low"] * 3, ["Low", "Mid", "Hgh"])})
        with pytest.raises(UnknownTermError, match="expert E2, performance") as excinfo:
            aggregate(matrix, scale)
        assert excinfo.value.label == "Mid"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_the_exact_mean_oracle(self, scale, data):
        spellings = st.sampled_from((str, str.lower, str.upper, lambda s: f"  {s} "))
        cell = st.builds(lambda spell, label: spell(label), spellings, st.sampled_from(scale.labels))
        experts = [f"e{j}" for j in range(data.draw(st.integers(1, 40), "experts"))]
        row = st.lists(cell, min_size=len(experts), max_size=len(experts))
        rows = {f"f{i}": (data.draw(row), data.draw(row)) for i in range(data.draw(st.integers(1, 4)))}
        for profile in aggregate(matrix_of(rows, experts), scale):
            for labels, value in zip(rows[profile.factor.id], (profile.w_fuzzy, profile.r_fuzzy)):
                assert_same_bits(value, exact_mean([lookup(scale, label) for label in labels]))

    def test_a_custom_scale_takes_the_exact_rule(self):
        # -0.0 endpoints, zero sums, and values over other power-of-two denominators
        tiny = 2.0**-1074
        scale = LinguisticScale((
            ("neg", it2((-0.0, -0.0, 0.5, 0.5, 1, 1), (-0.0, -0.0, 0.5, 0.5, 0.9, 0.9))),
            ("pos", it2((0.0, tiny, 0.1, 1.0, 1, 1), (0.0, tiny, 0.1, 1.0, 0.8, 0.8))),
        ))
        rows = {"a": (["neg"] * 3, ["neg", "pos", "POS"]), "b": (["pos", "neg", "pos"], [" pos"] * 3)}
        profiles = aggregate(matrix_of(rows), scale)
        for profile in profiles:
            for labels, value in zip(rows[profile.factor.id], (profile.w_fuzzy, profile.r_fuzzy)):
                assert_same_bits(value, exact_mean([lookup(scale, label) for label in labels]))
        a = profiles[0]
        assert math.copysign(1.0, a.w_fuzzy.upper.a1) == -1.0  # every addend is -0.0
        assert math.copysign(1.0, a.r_fuzzy.upper.a1) == 1.0

    def test_empty_matrix_rejected(self, scale):
        with pytest.raises(EmptyMatrixError):
            aggregate(RatingMatrix([], ["E1"], [], []), scale)
        with pytest.raises(EmptyMatrixError):
            aggregate(RatingMatrix([Factor("f", "f", "d")], [], [[]], [[]]), scale)

    def test_sparse_row_rejected(self, scale):
        matrix = matrix_of({"f": (["Low", "", "Low"], ["Low"] * 3)})
        with pytest.raises(EmptyMatrixError, match="dense"):
            aggregate(matrix, scale)

    @pytest.mark.parametrize("blank", ["", "  ", None])
    def test_blank_cell_wins_over_an_earlier_unknown_label(self, scale, blank):
        # the whole row is checked for blanks before any label in it is resolved
        matrix = matrix_of({"f": (["Zzz", "Low", blank], ["Low"] * 3)})
        with pytest.raises(EmptyMatrixError, match="importance row is not dense"):
            aggregate(matrix, scale)

    @pytest.mark.parametrize("unknown", [["Zzz", "Aaa"], ["Zzz", "Zzz"]])
    def test_unknown_labels_name_the_first_in_expert_order(self, scale, unknown):
        matrix = matrix_of({"f": (["Low", *unknown], ["Low"] * 3)})
        with pytest.raises(UnknownTermError, match="expert E2, importance") as excinfo:
            aggregate(matrix, scale)
        assert excinfo.value.label == "Zzz"

    def test_labels_resolve_through_the_survey_modules_lookup(self, scale, terms, monkeypatch):
        # lookup is the one definition of how a label matches; aggregate resolves
        # every label through the name it imports, which tracing wraps
        seen = set()

        def high(scale_arg, label):
            assert scale_arg is scale
            seen.add(label)
            return terms["High"]

        monkeypatch.setattr(it2ipa.survey, "lookup", high)
        rows = {"f1": (["Low", "low"], ["Medium"] * 2), "f2": (["Very Low"] * 2, ["Low", "Low"])}
        profiles = aggregate(matrix_of(rows, experts=("a", "b")), scale)
        assert seen == {"Low", "low", "Medium", "Very Low"}
        assert all(p.w_fuzzy == p.r_fuzzy == terms["High"] for p in profiles)


class TestCvr:
    def test_unanimous_panel(self):
        assert cvr(11, 11) == pytest.approx(1.0)

    def test_exact_half(self):
        assert cvr(6, 12) == pytest.approx(0.0)

    def test_nine_of_eleven(self):
        # (9 - 5.5) / 5.5
        assert cvr(9, 11) == pytest.approx(0.6363636363636364, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 10, 40])
    def test_identities_for_even_panels(self, n):
        assert cvr(n, n) == pytest.approx(1.0)
        assert cvr(n // 2, n) == pytest.approx(0.0)

    @pytest.mark.parametrize("n_essential,n_panel", [(-1, 5), (6, 5), (0, 0)])
    def test_invalid_counts(self, n_essential, n_panel):
        with pytest.raises(InvalidCountsError):
            cvr(n_essential, n_panel)

    def test_equals_the_half_panel_formula(self):
        # one rounding of the same exact ratio, so every golden CVR stays the same float
        for n_panel in [*range(1, 301), 11.0]:
            half = n_panel / 2.0
            for n_essential in range(int(n_panel) + 1):
                assert cvr(n_essential, n_panel) == (n_essential - half) / half, (n_essential, n_panel)

    def test_counts_past_the_float_range(self):
        value = cvr(10**400, 10**400 + 1)
        assert type(value) is float and -1.0 <= value <= 1.0


def alpha_oracle(grid):
    """Straightforward variance-based computation, independent of numpy."""
    k = len(grid[0])
    item_vars = sum(variance([row[j] for row in grid]) for j in range(k))
    total_var = variance([sum(row) for row in grid])
    return k / (k - 1) * (1 - item_vars / total_var)


# Cells of the grids that ``cronbach_alpha`` is compared with its exact oracle on
ALPHA_CELLS = [
    lambda rng: rng.randint(1, 5),  # Likert answers
    lambda rng: rng.randrange(-(2**25), 2**25),  # mostly distinct ints
    lambda rng: rng.choice((-1, 1)) * rng.randrange(2**53, 2**80),  # ints past 2**53
    lambda rng: rng.choice((True, False, 1, 2, 3)),  # bool cells among ints
    lambda rng: rng.uniform(-100.0, 100.0),
    lambda rng: rng.choice((rng.randint(1, 5), rng.randint(2, 10) / 4, rng.uniform(1, 5))),
    # other numbers, read by ``float``
    lambda rng: rng.choice((rng.uniform(1, 5), rng.randint(1, 5), Fraction(rng.randint(1, 14), 3))),
    lambda rng: rng.choice((rng.randint(1, 5), Decimal(rng.randint(1, 50)) / 10)),
    lambda rng: rng.uniform(-1.7, 1.7) * 1e300,
    lambda rng: rng.uniform(-1.7, 1.7) * rng.choice((1e-300, 1e-310)),  # subnormals too
]


def generator(row):
    return (cell for cell in row)


@st.composite
def alpha_grids(draw):
    """A respondents x items grid, some columns constant, some grids with equal rows."""
    n, k = draw(st.integers(2, 40)), draw(st.integers(2, 10))
    cell = draw(st.sampled_from(ALPHA_CELLS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = [[cell(rng) for _ in range(k)] for _ in range(n)]
    for j in rng.sample(range(k), rng.choice((0, 0, 1, k - 1))):
        for row in grid:
            row[j] = grid[0][j]
    if rng.random() < 0.1:  # every respondent alike: no total variance
        grid = [list(grid[0]) for _ in range(n)]
    return grid


def alpha_or_error(grid):
    try:
        return cronbach_alpha(grid)
    except DegenerateDataError:
        return DegenerateDataError


def exact_alpha_or_error(grid):
    try:
        return exact_alpha(grid)
    except (ZeroDivisionError, OverflowError, ValueError):
        return DegenerateDataError


def assert_exact_alpha(got, want):
    assert got is want if want is DegenerateDataError else same_bits(got, want), (got, want)


class TestCronbachAlpha:
    def test_perfectly_correlated_items(self):
        # identical items with nonzero variance
        assert cronbach_alpha([[1, 1], [2, 2], [3, 3]]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_variance_is_degenerate(self):
        # both respondents total 3, so the coefficient is undefined
        with pytest.raises(DegenerateDataError, match="variance"):
            cronbach_alpha([[1, 2], [2, 1]])

    def test_negative_alpha_case(self):
        # totals (4, 3, 5): item variances 1 + 1, total variance 1 -> 2*(1-2) = -2
        assert cronbach_alpha([[1, 3], [2, 1], [3, 2]]) == pytest.approx(-2.0, abs=1e-12)

    def test_matches_brute_force_oracle_on_random_grids(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 30:
            grid = [[rng.randint(1, 5) for _ in range(4)] for _ in range(5)]
            totals = [sum(row) for row in grid]
            if variance(totals) < 0.5:
                continue
            assert cronbach_alpha(grid) == pytest.approx(alpha_oracle(grid), abs=1e-9)
            checked += 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(alpha_grids(), st.sampled_from([list, tuple, generator]))
    def test_equals_the_exact_alpha_rounded_once(self, grid, row_kind):
        want = exact_alpha_or_error(grid)
        assert_exact_alpha(alpha_or_error(list(map(row_kind, grid))), want)

    def test_golden_dimension_is_its_exact_alpha(self):
        path = Path(__file__).parent / "golden_aggregated" / "psychometrics.json"
        grid = load_psychometrics(path).dimension_scores["Fiabilité « D4 »"]
        assert cronbach_alpha(grid) == float(Fraction(433, 495)) == 0.8747474747474747

    @pytest.mark.parametrize("grid, want", [
        ([[1e200, 1], [1, 2e200]], -8.0),
        ([[1e308, 1e308], [1, 2], [3, 1]], 1.0),
        ([[10**400, 1], [1, 2], [3, 5]], -0.0),  # about -1e-399, rounded once
    ], ids=["overflow", "sum-overflow", "int-past-the-float-range"])
    def test_overflowing_sums_are_exact(self, grid, want):
        assert same_bits(cronbach_alpha(grid), want)
        assert same_bits(exact_alpha(grid), want)

    def test_finite_scores_that_overflow_give_the_exact_alpha(self):
        # the row totals 2e308 and the squares 1e616 pass the float range in any order
        grid = [[1e308, 1e308], [1, 2], [3, 1]]
        for rows in itertools.permutations(grid):
            assert cronbach_alpha(list(rows)) == 1.0
            assert cronbach_alpha([row[::-1] for row in rows]) == 1.0

    def test_invariant_under_item_constant_shift(self):
        grid = [[1, 4, 2], [3, 2, 5], [2, 5, 4], [5, 1, 3]]
        shifted = [[row[0] + 7.5, row[1], row[2]] for row in grid]
        assert cronbach_alpha(shifted) == pytest.approx(cronbach_alpha(grid), abs=1e-12)

    def test_a_later_true_counts_as_its_int(self):
        grid = [[1, 2], [True, 3], [3, 5]]
        want = float(Fraction(20, 21))
        assert cronbach_alpha(grid) == cronbach_alpha([[1, 2], [1, 3], [3, 5]]) == want

    @pytest.mark.parametrize("grid", [[[1, 2]], [[1], [2]], [[]]])
    def test_too_small_grids(self, grid):
        with pytest.raises(DegenerateDataError):
            cronbach_alpha(grid)

    @pytest.mark.parametrize("grid", [
        [[1, 2], [3]],
        [["a", "b"], ["c", "d"]],
        [[[1], 2], [2, 3], [3, 5]],
        [[1, 2], 3, [3, 5]],
        [[" 1", "2 "], ["3", "5"], ["4", "4"]],
        ["12", "34", "56"],
        [[Decimal("sNaN"), 1], [1, 2], [3, 5]],  # its ``__float__`` raises ValueError
    ], ids=["ragged", "non-numeric", "unhashable", "row-not-iterable", "numeric-text",
            "rows-of-digits", "signaling-nan"])
    def test_unusable_grids(self, grid):
        with pytest.raises(DegenerateDataError):
            cronbach_alpha(grid)

    @pytest.mark.parametrize("cell", [" 1", b"1", bytearray(b"1"), memoryview(b"1")],
                             ids=["str", "bytes", "bytearray", "memoryview"])
    def test_text_is_not_a_score(self, cell):
        # ``float`` would read each of these as 1.0
        with pytest.raises(DegenerateDataError, match="scores grid is not numeric: a cell of type"):
            cronbach_alpha([[cell, 2.5], [3, 5], [4, 4]])

    @pytest.mark.parametrize("grid", [
        [[math.nan, 1], [1, 2], [3, 4]],
        [[math.inf, 1], [1, 2], [3, 4]],
        [[math.inf, 1], [-math.inf, 2], [3, 4]],
        [[Decimal("1e400"), 1], [1, 2], [3, 4]],  # ``float`` makes it an infinity
    ], ids=["nan", "inf", "both-infinities", "decimal-past-the-float-range"])
    def test_non_finite_scores_are_named(self, grid):
        with pytest.raises(DegenerateDataError, match="a score is not a finite number"):
            cronbach_alpha(grid)

    def test_a_conversion_that_overflows_is_too_large(self):
        with pytest.raises(DegenerateDataError, match="scores too large for float arithmetic"):
            cronbach_alpha([[Fraction(10**400), 1], [1, 2], [3, 1]])

    def test_subnormal_total_variance_is_degenerate(self):
        # row totals 0 and 1e-161: a total variance of 5e-323 under item variances of 1e20
        with pytest.raises(DegenerateDataError, match="too small"):
            cronbach_alpha([[1e10, -1e10, 0.0], [-1e10, 1e10, 1e-161]])


def test_factor_sort_key_natural_order():
    ids = ["x_10", "x_2", "x_1", "x_18", "x_3"]
    assert sorted(ids, key=factor_sort_key) == ["x_1", "x_2", "x_3", "x_10", "x_18"]


def test_factor_sort_key_takes_any_digits():
    # superscript two is a digit but not a decimal; 5000 digits exceed int()'s default limit
    ids = ["x_" + "1" * 5000, "x_²", "x_10", "x_٣", "x_2"]
    assert sorted(ids, key=factor_sort_key) == ["x_2", "x_٣", "x_10", "x_" + "1" * 5000, "x_²"]


def test_factor_sort_key_is_total():
    # the same number written three ways, in every input order
    ids = ["x1", "x01", "x١", "x1a", "x2"]
    for order in itertools.permutations(ids):
        assert sorted(order, key=factor_sort_key) == ["x01", "x1", "x١", "x1a", "x2"]


RATINGS_CSV = """factor_id,name,dimension,facet,E1,E2,E3
x_1,Trust,Culture,importance,Medium,High,Medium
x_1,Trust,Culture,performance,Low,Medium,Low
x_2,Cooperation,Culture,importance,Low,Low,Low
x_2,Cooperation,Culture,performance, medium ,LOW,Medium
"""


class TestParseRatings:
    def test_parses_and_aggregates(self, tmp_path, scale):
        path = tmp_path / "ratings.csv"
        path.write_text(RATINGS_CSV)
        matrix = parse_ratings(path)
        assert [f.id for f in matrix.factors] == ["x_1", "x_2"]
        assert matrix.experts == ["E1", "E2", "E3"]
        profiles = aggregate(matrix, scale)  # labels with case/space noise resolve
        assert len(profiles) == 2

    def test_minimal_header_defaults_name_and_dimension(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "factor_id,facet,E1\nf1,importance,Low\nf1,performance,High\n"
        )
        matrix = parse_ratings(path)
        assert matrix.factors[0].name == "f1"
        assert matrix.factors[0].dimension == "general"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("")
        with pytest.raises(InputFileError, match="empty ratings file"):
            parse_ratings(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("factor_id,facet,E1\n")
        with pytest.raises(InputFileError, match="no data rows"):
            parse_ratings(path)

    def test_missing_facet_row(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("factor_id,facet,E1\nf1,importance,Low\n")
        with pytest.raises(InputFileError, match="missing performance"):
            parse_ratings(path)

    def test_duplicate_facet_row(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "factor_id,facet,E1\nf1,importance,Low\nf1,importance,High\n"
        )
        with pytest.raises(InputFileError, match="duplicate importance"):
            parse_ratings(path)

    def test_bad_facet_name_reports_row(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("factor_id,facet,E1\nf1,weight,Low\n")
        with pytest.raises(InputFileError) as excinfo:
            parse_ratings(path)
        assert excinfo.value.row == 2

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("factor_id,facet,E1,E2\nf1,importance,Low\n")
        with pytest.raises(InputFileError, match="cells"):
            parse_ratings(path)

    def test_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(RATINGS_CSV, encoding="utf-8-sig")
        assert [f.id for f in parse_ratings(path).factors] == ["x_1", "x_2"]

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_unicode_line_separator_stays_in_its_cell(self, tmp_path, separator):
        path = tmp_path / "ratings.csv"
        path.write_text(
            f"factor_id,name,facet,E1\nf1,a{separator}b,importance,Low\nf1,a{separator}b,performance,High\n",
            newline="",
        )
        assert parse_ratings(path).factors[0].name == f"a{separator}b"

    def test_rows_after_a_quoted_newline_are_named_by_their_line(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            'factor_id,name,facet,E1,E2\n'
            'f1,"two\nlines",importance,Low,High\n'
            'f1,x,performance,Low,High\n'
            'f2,y,importance,Low\n'
        )
        with pytest.raises(InputFileError, match="expected 5 cells") as excinfo:
            parse_ratings(path)
        assert excinfo.value.row == 5

    def test_field_over_the_csv_size_limit_is_located(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(f"factor_id,name,facet,E1\nf1,{'n' * 200_000},importance,Low\n")
        with pytest.raises(InputFileError, match="field larger than field limit") as excinfo:
            parse_ratings(path)
        assert (excinfo.value.file, excinfo.value.row) == (str(path), 2)

    @pytest.fixture
    def survey_300x100(self, tmp_path):
        """300 factors x 100 experts of seeded labels in three cases, some padded: 15 distinct texts."""
        rng = random.Random(300)
        variants = [form for label in default_scale().labels
                    for form in (label, label.upper(), label.lower())]
        lines = ["factor_id,facet," + ",".join(f"E{j}" for j in range(100))]
        for i in range(300):
            for facet in ("importance", "performance"):
                cells = (rng.choice(variants).center(rng.choice([0, 12])) for _ in range(100))
                lines.append(f"x_{i},{facet}," + ",".join(cells))
        path = tmp_path / "ratings.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_matrix_holds_one_string_per_distinct_label(self, survey_300x100):
        matrix = parse_ratings(survey_300x100)
        cells = [c for grid in (matrix.importance, matrix.performance) for row in grid for c in row]
        assert len(cells) == 300 * 100 * 2
        assert len({id(c) for c in cells}) == len(set(cells)) == 15

    def test_parse_peak_grows_by_a_pointer_per_cell(self, survey_300x100):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parse_ratings(survey_300x100)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a list slot is 8 bytes; one str object per cell would be about 60 more
        assert peak < 25 * 300 * 100 * 2


# A record defect on line 3, then about 100 kB of well-formed records, then a record
# that cannot be read at all: a byte that is not UTF-8, or a field over the csv limit.
STREAM_HEADS = {
    "--ratings": ("factor_id,facet,E1,E2\nf0,importance,Low,High\nf0,performance,Low\n",
                  "f{},importance,Low,High\n"),
    "--aggregated": ('factor_id,importance,performance\nf0,"{v}","{v}"\nf1,"{v}"\n',
                     'f{},"{v}","{v}"\n'),
}
STREAM_TAILS = {"non-utf8": b"f\xff,importance,Low,High\n",
                "long-field": b"f," + b"n" * 200_000 + b",Low,High\n"}


class TestStreamedRecords:
    @pytest.fixture(params=list(STREAM_HEADS))
    def flag(self, request):
        return request.param

    @pytest.fixture(params=list(STREAM_TAILS))
    def defective_file(self, tmp_path, flag, terms, request):
        head, filler = (text.replace("{v}", terms["Low"].to_text()) for text in STREAM_HEADS[flag])
        body = "".join(filler.format(i) for i in range(2, 5000))
        path = tmp_path / "input.csv"
        path.write_bytes((head + body).encode() + STREAM_TAILS[request.param])
        assert path.stat().st_size > 100_000
        return path

    def test_first_defect_in_reading_order_is_reported(self, defective_file, flag, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main([flag, str(defective_file)]) == 2
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert (diagnostic["file"], diagnostic["row"]) == (str(defective_file), 3)
        assert diagnostic["cause"].startswith("expected ")

    def test_file_is_closed_while_the_error_is_alive(self, defective_file, flag, monkeypatch):
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(it2ipa.survey, "open", tracking_open, raising=False)
        parse = parse_ratings if flag == "--ratings" else parse_aggregated
        with pytest.raises(InputFileError, match="expected") as excinfo:
            parse(defective_file)
        # the traceback keeps the parser's frame, and so its record stream, alive
        assert excinfo.value.row == 3
        assert len(opened) == 1 and opened[0].closed

    def test_a_bad_byte_gone_by_the_second_read_names_the_file(self, tmp_path, flag, monkeypatch):
        # the whole-file decode that locates the byte reads a file that has since been mended
        path = tmp_path / "input.csv"
        path.write_bytes(b"factor_id,\xff\n")
        monkeypatch.setattr(it2ipa.survey, "read_text", lambda path: "factor_id\n")
        parse = parse_ratings if flag == "--ratings" else parse_aggregated
        with pytest.raises(InputFileError) as excinfo:
            parse(path)
        assert (excinfo.value.file, excinfo.value.row) == (str(path), None)
        assert excinfo.value.cause.startswith("not UTF-8 text: ")
        assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)


LOW = "((0,0.1,0.1,0.3;1,1),(0.05,0.1,0.1,0.2;0.9,0.9))"
BAD_FACET = "facet must be one of ('importance', 'performance'), got {!r}"
NOT_CANONICAL = "factor f1 {}: not a canonical interval type-2 trapezoid: {!r}"

# case: (parser, file text, row, cause). An accepted header is followed by a
# row whose defect shows where its columns were found.
FACTOR_TABLE_DIAGNOSTICS = {
    "ratings-empty": (parse_ratings, "", None, "empty ratings file: no header row"),
    "aggregated-empty": (parse_aggregated, "", None, "empty aggregated file: no header row"),
    "ratings-comments-only": (parse_ratings, "# a\n\n# b\n", None,
                              "empty ratings file: no header row"),
    "aggregated-comments-only": (parse_aggregated, "# a\n\n# b\n", None,
                                 "empty aggregated file: no header row"),
    "ratings-header-start": (parse_ratings, "# a\nid,facet,E1\n", 2,
                             "header must start with 'factor_id'"),
    "aggregated-header-start": (parse_aggregated, "# a\nid,importance,performance\n", 2,
                                "header must start with 'factor_id'"),
    "ratings-missing-column": (parse_ratings, "factor_id,name,E1\n", 1,
                               "expected column 'facet' at position 3"),
    "aggregated-missing-column": (parse_aggregated, "factor_id,name,dimension,importance\n", 1,
                                  "expected column 'performance' at position 5"),
    "ratings-upper-case": (parse_ratings, "FACTOR_ID,Name,DIMENSION,Facet,E1\nf1,n,d,Weight,Low\n",
                           2, BAD_FACET.format("Weight")),
    "aggregated-upper-case": (parse_aggregated,
                              "Factor_ID,NAME,Dimension,IMPORTANCE,Performance\nf1,n,d,broken,x\n",
                              2, NOT_CANONICAL.format("importance", "broken")),
    "ratings-dimension-without-name": (parse_ratings,
                                       "factor_id,dimension,facet,E1\nf1,d,weight,Low\n",
                                       2, BAD_FACET.format("weight")),
    "aggregated-dimension-without-name": (
        parse_aggregated, f'factor_id,dimension,importance,performance\nf1,d,"{LOW}",x\n',
        2, NOT_CANONICAL.format("performance", "x")),
    "ratings-no-experts": (parse_ratings, "factor_id,name,facet\n", 1,
                           "no expert columns after 'facet'"),
    "aggregated-trailing-columns": (parse_aggregated, "factor_id,importance,performance,extra,More\n",
                                    1, "unexpected trailing columns: ['extra', 'More']"),
    "ratings-short-row-after-quoted-newline": (
        parse_ratings,
        'factor_id,name,facet,E1,E2\nf1,"two\nlines",importance,Low,High\nf2,"y\nz",importance,Low\n',
        4, "expected 5 cells, found 4"),
    "aggregated-short-row-after-quoted-newline": (
        parse_aggregated,
        f'factor_id,name,importance,performance\nf1,"two\nlines","{LOW}","{LOW}"\nf2,"y\nz","{LOW}"\n',
        4, "expected 4 cells, found 3"),
    "ratings-no-data-rows": (parse_ratings, "factor_id,facet,E1\n# none\n", None,
                             "empty ratings file: no data rows"),
    "aggregated-no-data-rows": (parse_aggregated, "factor_id,importance,performance\n\n", None,
                                "empty aggregated file: no data rows"),
    "ratings-empty-factor-id": (parse_ratings,
                                "factor_id,facet,E1,E2\n,importance,Low,High\n,performance,Medium,Low\n",
                                2, "empty factor_id cell"),
    "aggregated-empty-factor-id": (
        parse_aggregated, f'factor_id,importance,performance\n ,"{LOW}","{LOW}"\n,"{LOW}","{LOW}"\n',
        2, "empty factor_id cell"),
    "ratings-empty-expert-cell": (parse_ratings, "factor_id,facet,e1,e2\nx1,importance,High,\n",
                                  2, "factor x1: empty importance cell"),
}


@pytest.mark.parametrize("case", list(FACTOR_TABLE_DIAGNOSTICS))
def test_factor_table_diagnostics(tmp_path, case):
    parse, text, row, cause = FACTOR_TABLE_DIAGNOSTICS[case]
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(InputFileError) as excinfo:
        parse(path)
    error = excinfo.value
    assert (error.file, error.row, error.cause) == (str(path), row, cause)


class TestParseAggregated:
    def test_bundled_dataset(self, bundled_profiles):
        assert len(bundled_profiles) == 18
        assert bundled_profiles["x_15"].factor.name == "Collaborative technologies"
        assert bundled_profiles["x_15"].factor.dimension.startswith("Information Technology")

    def test_duplicate_factor_rejected(self, tmp_path, terms):
        value = terms["Low"].to_text()
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            f'f1,"{value}","{value}"\n'
            f'f1,"{value}","{value}"\n'
        )
        with pytest.raises(InputFileError, match="duplicate factor"):
            parse_aggregated(path)

    def test_malformed_tuple_reports_row(self, tmp_path, terms):
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            f'f1,"{terms["Low"].to_text()}","broken"\n'
        )
        with pytest.raises(InputFileError) as excinfo:
            parse_aggregated(path)
        assert excinfo.value.row == 2
        assert "performance" in excinfo.value.cause

    def test_structurally_invalid_value_rejected(self, tmp_path):
        # lower support leaks out of the upper support
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            'f1,"((0.2,0.3,0.4,0.5;1,1),(0.1,0.3,0.4,0.5;0.9,0.9))",'
            '"((0.2,0.3,0.4,0.5;1,1),(0.2,0.3,0.4,0.5;0.9,0.9))"\n'
        )
        with pytest.raises(InputFileError, match="support"):
            parse_aggregated(path)

    def test_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_bytes(b"\xef\xbb\xbf" + fixtures.aggregated_path().read_bytes())
        assert len(parse_aggregated(path)) == 18

    @pytest.mark.parametrize("value,cause", [
        ("((0,0.1,0.2,1e400;1,1),(0,0.1,0.2,0.3;0.9,0.9))", "support"),  # overflows to inf
        ("((0,0.1,0.2,0.3;1,1e400),(0,0.1,0.2,0.3;0.9,0.9))", "heights"),
        ("((0,0.1,0.2,1.5;1,1),(0,0.1,0.2,0.3;0.9,0.9))", "support"),
        ("((-0.5,0.1,0.2,0.3;1,1),(0,0.1,0.2,0.3;0.9,0.9))", "support"),
    ])
    def test_non_finite_or_out_of_range_rejected_with_row(self, tmp_path, terms, value, cause):
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            f'f1,"{terms["Low"].to_text()}","{terms["Low"].to_text()}"\n'
            f'f2,"{value}","{terms["Low"].to_text()}"\n'
        )
        with pytest.raises(InputFileError, match=cause) as excinfo:
            parse_aggregated(path)
        assert (excinfo.value.file, excinfo.value.row) == (str(path), 3)

    def test_equal_texts_share_one_value_within_a_call(self, tmp_path, terms):
        low, high = terms["Low"].to_text(), terms["High"].to_text()
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            f'f1,"{low}","{high}"\n'
            f'f2,"  {high} ","{low}"\n'  # the text is compared stripped
            f'f3,"{low}","{low}"\n'
        )
        f1, f2, f3 = parse_aggregated(path)
        assert f1.w_fuzzy is f2.r_fuzzy is f3.w_fuzzy is f3.r_fuzzy
        assert f1.r_fuzzy is f2.w_fuzzy
        assert f1.w_fuzzy == terms["Low"] and f1.r_fuzzy == terms["High"]

    def test_nothing_is_shared_across_calls(self, tmp_path, terms):
        low = terms["Low"].to_text()
        path = tmp_path / "agg.csv"
        path.write_text(f'factor_id,importance,performance\nf1,"{low}","{low}"\n')
        (first,), (second,) = parse_aggregated(path), parse_aggregated(path)
        assert first.w_fuzzy == second.w_fuzzy
        assert first.w_fuzzy is not second.w_fuzzy

    @pytest.mark.parametrize("bad,cause", [
        ("broken", "not a canonical"),
        ("((0,0.1,0.2,1.5;1,1),(0,0.1,0.2,0.3;0.9,0.9))", "support outside"),
    ], ids=["unparsed", "out-of-range"])
    def test_a_repeated_bad_text_names_its_first_row(self, tmp_path, terms, bad, cause):
        low = terms["Low"].to_text()
        rows = [f'f{i},"{bad if i in (2, 4) else low}","{low}"\n' for i in range(1, 6)]
        path = tmp_path / "agg.csv"
        path.write_text("factor_id,importance,performance\n" + "".join(rows))
        with pytest.raises(InputFileError, match=cause) as excinfo:
            parse_aggregated(path)
        assert excinfo.value.row == 3  # f2's line; f4 is on line 5
        assert excinfo.value.cause.startswith("factor f2 importance: ")


class TestLoadPsychometrics:
    def test_full_document(self, tmp_path):
        doc = {
            "content_validity": {
                "panel_size": 11,
                "essential_counts": {"x_1": 11, "x_2": 9},
                "threshold": 0.59,
            },
            "reliability": {
                "threshold": 0.7,
                "dimensions": {"Culture": [[1, 2], [2, 3], [3, 5]]},
            },
        }
        path = tmp_path / "psy.json"
        path.write_text(json.dumps(doc))
        data = load_psychometrics(path)
        assert data.panel_size == 11
        assert data.essential_counts["x_2"] == 9
        assert data.dimension_scores["Culture"][2] == [3.0, 5.0]

    def test_sections_optional(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text("{}")
        data = load_psychometrics(path)
        assert data.essential_counts == {} and data.dimension_scores == {}

    def test_bad_json(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text("[1, 2")
        with pytest.raises(InputFileError, match="invalid JSON"):
            load_psychometrics(path)

    @pytest.mark.parametrize("grid", ["[[Infinity, -Infinity]]", "[[1, 1%s]]" % ("0" * 400)],
                             ids=["infinities-of-both-signs", "int-past-the-float-range"])
    def test_scores_whose_sum_is_not_a_number_are_not_finite(self, tmp_path, grid):
        path = tmp_path / "psy.json"
        path.write_text('{"reliability": {"dimensions": {"Culture": %s}}}' % grid)
        with pytest.raises(InputFileError, match="Culture.*a score is not finite"):
            load_psychometrics(path)

    def test_finite_scores_whose_sum_overflows_are_accepted(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text('{"reliability": {"dimensions": {"Culture": [[1e308, 1e308], [1, 2]]}}}')
        assert load_psychometrics(path).dimension_scores == {"Culture": [[1e308, 1e308], [1, 2]]}

    @pytest.mark.parametrize("counts,cause", [
        ('{"x_1": 9, "x_2": 1%s, "x_3": 1%s}' % ("0" * 400, "0" * 401),
         "1%s is not finite" % ("0" * 400)),
        ('{"x_1": 9, "x_2": 9.5, "x_3": true}', "9.5 is not a whole number"),
        ('{"x_1": 9, "x_2": true, "x_3": 9.5}', "True is not a JSON number"),
    ], ids=["int-past-the-float-range", "fraction", "bool"])
    def test_the_first_bad_count_is_named(self, tmp_path, counts, cause):
        path = tmp_path / "psy.json"
        path.write_text('{"content_validity": {"panel_size": 11, "essential_counts": %s}}' % counts)
        with pytest.raises(InputFileError) as excinfo:
            load_psychometrics(path)
        assert excinfo.value.cause.endswith(f"'essential_counts': {cause}")

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "psy.json"
        path.write_text(
            '{"reliability": {"dimensions": {"Culture": [[1, 2], [2, %s], [3, 5]]}}}' % score
        )
        with pytest.raises(InputFileError, match="Culture.*not finite") as excinfo:
            load_psychometrics(path)
        assert excinfo.value.file == str(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(
            {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}}}).encode())
        assert load_psychometrics(path).dimension_scores == {"Culture": [[1.0, 2.0], [2.0, 3.0]]}

    def test_grids_keep_the_decoded_numbers(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text('{"reliability": {"dimensions": {"Culture": [[1, 2.5], [2, 3], [3, 5]]}}}')
        grid = load_psychometrics(path).dimension_scores["Culture"]
        assert [list(map(type, row)) for row in grid] == [[int, float], [int, int], [int, int]]
        assert cronbach_alpha(grid) == cronbach_alpha([[1.0, 2.5], [2.0, 3.0], [3.0, 5.0]])

    @pytest.mark.parametrize("grid", [
        "[[true, 2, 3], [2, 4, 3], [3, 3, 5]]",
        '[[1, 2, 3], [2, "4", 3], [3, 3, 5]]',
        '[[1, 2, 3], [2, 4, 3], [3, 3, " 5 "], [4, 5, "1_0"]]',
        "[[1, 2, 3], [2, null, 3]]",
        "[[1, 2, 3], [2, %s, 3]]" % ("9" * 401),
        '["12", "34"]',
        "[[1, 2], {}]",
        '{"a": [1, 2]}',
    ], ids=["bool", "string", "padded-string", "null", "401-digit-int", "string-rows",
            "object-row", "object-grid"])
    def test_grid_cells_must_be_json_numbers(self, tmp_path, grid):
        path = tmp_path / "psy.json"
        path.write_text('{"reliability": {"dimensions": {"Culture": %s}}}' % grid)
        with pytest.raises(InputFileError, match="dimension 'Culture'") as excinfo:
            load_psychometrics(path)
        assert excinfo.value.file == str(path)

    def test_integer_over_the_digit_limit_names_the_file(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text('{"reliability": {"dimensions": {"Culture": [[%s]]}}}' % ("9" * 4301))
        with pytest.raises(InputFileError, match="invalid JSON") as excinfo:
            load_psychometrics(path)
        assert excinfo.value.file == str(path)

    @pytest.mark.parametrize("text,kind,name", [
        ('{"reliability": {"dimensions": {"\\ud800": [[1, 2], [2, 4], [3, 3]]}}}',
         "dimension", "\ud800"),
        ('{"content_validity": {"panel_size": 11, "essential_counts": {"x_1": 9, "\\udc80x": 5}}}',
         "component id", "\udc80x"),
    ], ids=["dimension", "component-id"])
    def test_lone_surrogate_in_a_name_is_refused(self, tmp_path, text, kind, name):
        path = tmp_path / "psy.json"
        path.write_text(text)
        with pytest.raises(InputFileError, match="lone surrogate") as excinfo:
            load_psychometrics(path)
        assert excinfo.value.file == str(path)
        assert f"{kind} {name!r}" in excinfo.value.cause

    def test_missing_panel_size(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text(json.dumps({"content_validity": {"essential_counts": {"a": 1}}}))
        with pytest.raises(InputFileError, match="panel_size"):
            load_psychometrics(path)
