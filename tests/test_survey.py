"""Rating ingestion, fuzzy aggregation, and psychometrics."""

import json
import random
from statistics import variance

import pytest

from it2ipa import (
    DegenerateDataError,
    EmptyMatrixError,
    Factor,
    InvalidCountsError,
    RatingMatrix,
    UnknownTermError,
    aggregate,
    cronbach_alpha,
    cvr,
    load_psychometrics,
    parse_aggregated,
    parse_ratings,
)
from it2ipa import fixtures, lookup
from it2ipa.errors import InputFileError
from it2ipa.survey import factor_sort_key
from helpers import assert_it2_close, sequential_mean


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
        from it2ipa import it2
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
        labels = ["Very Low", "Medium", "Very High", "Low"]
        base = matrix_of({"f": (labels, labels)}, experts=list("abcd"))
        rng = random.Random(7)
        reference = aggregate(base, scale)[0]
        for _ in range(10):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            other = aggregate(
                matrix_of({"f": (shuffled, shuffled)}, experts=list("abcd")), scale
            )[0]
            assert_it2_close(other.w_fuzzy, reference.w_fuzzy, 1e-12)

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

    def test_equals_sequential_oracle_exactly(self, scale):
        rng = random.Random(11)
        spellings = (str, str.lower, str.upper, lambda s: f"  {s} ")
        experts = [f"e{j}" for j in range(37)]
        rows = {
            f"f{i}": tuple([rng.choice(spellings)(rng.choice(scale.labels)) for _ in experts]
                           for _ in range(2))
            for i in range(6)
        }
        for profile in aggregate(matrix_of(rows, experts), scale):
            for labels, value in zip(rows[profile.factor.id], (profile.w_fuzzy, profile.r_fuzzy)):
                assert value == sequential_mean([lookup(scale, label) for label in labels])

    def test_empty_matrix_rejected(self, scale):
        with pytest.raises(EmptyMatrixError):
            aggregate(RatingMatrix([], ["E1"], [], []), scale)
        with pytest.raises(EmptyMatrixError):
            aggregate(RatingMatrix([Factor("f", "f", "d")], [], [[]], [[]]), scale)

    def test_sparse_row_rejected(self, scale):
        matrix = matrix_of({"f": (["Low", "", "Low"], ["Low"] * 3)})
        with pytest.raises(EmptyMatrixError, match="dense"):
            aggregate(matrix, scale)


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


def alpha_oracle(grid):
    """Straightforward variance-based computation, independent of numpy."""
    k = len(grid[0])
    item_vars = sum(variance([row[j] for row in grid]) for j in range(k))
    total_var = variance([sum(row) for row in grid])
    return k / (k - 1) * (1 - item_vars / total_var)


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

    def test_invariant_under_item_constant_shift(self):
        grid = [[1, 4, 2], [3, 2, 5], [2, 5, 4], [5, 1, 3]]
        shifted = [[row[0] + 7.5, row[1], row[2]] for row in grid]
        assert cronbach_alpha(shifted) == pytest.approx(cronbach_alpha(grid), abs=1e-12)

    @pytest.mark.parametrize("grid", [[[1, 2]], [[1], [2]], [[]]])
    def test_too_small_grids(self, grid):
        with pytest.raises(DegenerateDataError):
            cronbach_alpha(grid)

    @pytest.mark.parametrize("grid", [
        [[1, 2], [3]],
        [["a", "b"], ["c", "d"]],
        [[1e200, 1], [1, 2e200]],  # variances overflow to a NaN coefficient
        [[1e308, 1e308], [1, 2], [3, 1]],  # row sums overflow
    ], ids=["ragged", "non-numeric", "overflow", "sum-overflow"])
    def test_unusable_grids(self, grid):
        with pytest.raises(DegenerateDataError):
            cronbach_alpha(grid)

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

    def test_missing_panel_size(self, tmp_path):
        path = tmp_path / "psy.json"
        path.write_text(json.dumps({"content_validity": {"essential_counts": {"a": 1}}}))
        with pytest.raises(InputFileError, match="panel_size"):
            load_psychometrics(path)
