"""Pipeline orchestration, report emission, and the command-line interface."""

import collections
import enum
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import it2ipa
from it2ipa import fixtures
from it2ipa.cli import main
from it2ipa.errors import InputFileError
from it2ipa.report import (
    DELIMITED, PipelineConfig, REPORT_FORMATS, STRUCTURED, SVG_MAP, emit, json_chunks,
    reference_comparison, run_pipeline,
)
from helpers import random_it2

TESTS = Path(__file__).parent

RATINGS_OK = (
    "factor_id,name,dimension,facet,E1,E2\n"
    "f1,First,Culture,importance,High,Medium\n"
    "f1,First,Culture,performance,Low,Low\n"
    "f2,Second,Culture,importance,Low,Very Low\n"
    "f2,Second,Culture,performance,High,Very High\n"
)


def run_default(**kwargs):
    return run_pipeline(PipelineConfig(**kwargs))


def dumps(doc) -> str:
    """The text ``json_chunks`` must give for ``doc``."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def chunks_text(doc: dict) -> str:
    return "".join(json_chunks(doc.items()))


class TestRunPipeline:
    def test_bundled_dataset_by_default(self):
        report = run_default()
        assert report.used_bundled_input
        assert len(report.profiles) == 18
        assert report.input_source == str(fixtures.aggregated_path())

    def test_factors_unique_per_table(self):
        doc = run_default().to_structured()
        for table in ("aggregated", "defuzzified"):
            ids = [row["factor"] for row in doc[table]]
            assert len(ids) == 18 and len(set(ids)) == 18
        partition = doc["partition"]
        all_ids = (
            partition["failure_candidates"]
            + partition["success_candidates"]
            + partition["balanced"]
        )
        assert sorted(all_ids) == sorted(ids)

    def test_defuzzified_matches_reference(self):
        doc = run_default().to_structured()
        reference = fixtures.reference_defuzzified()
        for row in doc["defuzzified"]:
            ref_w, ref_r = reference[row["factor"]]
            assert row["importance"] == pytest.approx(ref_w, abs=1e-3)
            assert row["performance"] == pytest.approx(ref_r, abs=1e-3)

    def test_rankings_carry_breakdowns(self):
        doc = run_default().to_structured()
        for kind in ("success", "failure"):
            for row in doc["rankings"][kind]:
                breakdown = row["breakdown"]
                assert len(breakdown) == 19
                composed = (
                    sum(breakdown[k] for k in ("m1u", "m2u", "m3u", "m1l", "m2l", "m3l"))
                    - 0.25 * sum(breakdown[f"s{i}{side}"] for i in range(1, 5) for side in "ul")
                    + sum(breakdown[k] for k in ("h1u", "h2u", "h1l", "h2l"))
                )
                assert row["rank"] == pytest.approx(composed, abs=1e-12)

    def test_notes_always_present(self):
        assert run_default().notes

    def test_as_written_mode_notes_divergence(self):
        report = run_default(cffs_mode="as_written")
        assert any("as_written" in note and "OUTSIDE" in note for note in report.notes)

    def test_comparison_partition_mode(self):
        doc = run_default(partition_mode="comparison").to_structured()
        assert doc["partition"]["balanced"] == []
        assert "x_15" in doc["partition"]["success_candidates"]

    def test_ratings_input(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(RATINGS_OK)
        report = run_pipeline(PipelineConfig(), ratings_path=path)
        assert [p.factor.id for p in report.profiles] == ["f1", "f2"]
        assert not report.used_bundled_input
        # f1: importance (High+Medium)/2 > performance Low: a weakness in region mode
        assert [p.factor.id for p in report.failure_candidates] == ["f1"]
        assert [p.factor.id for p in report.success_candidates] == ["f2"]

    @pytest.mark.parametrize("field", ["partition_mode", "cffs_mode"])
    def test_unknown_mode_rejected_on_construction(self, field):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig(**{field: "majority"})

    def test_reference_comparison_numbers(self):
        comparison = reference_comparison(run_default())
        assert comparison["success"]["deviation"] <= 5e-3
        assert comparison["failure"]["deviation"] <= 5e-3
        assert len(comparison["success"]["reference_candidates"]) == 8
        assert comparison["failure"]["candidates"] == ["x_4", "x_6", "x_8", "x_9", "x_13", "x_14"]
        assert comparison["unlisted"] == ["x_4", "x_13", "x_17"]

    def test_reversed_input_gives_the_same_tables(self, tmp_path):
        # run_pipeline is the one place that puts the factors in id order
        lines = fixtures.aggregated_path().read_text().splitlines(keepends=True)
        data = [line for line in lines if line.strip() and not line.startswith("#")]
        path = tmp_path / "reversed.csv"
        path.write_text(data[0] + "".join(reversed(data[1:])))
        forwards = run_default().to_structured()
        backwards = run_pipeline(PipelineConfig(), aggregated_path=path).to_structured()
        for key in ("aggregated", "defuzzified", "partition", "scores", "rankings", "map"):
            assert backwards[key] == forwards[key], key

    def test_unknown_term_in_ratings_names_the_file(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(RATINGS_OK.replace("Very High", "Very Hgh"))
        with pytest.raises(InputFileError, match="Very Hgh") as excinfo:
            run_pipeline(PipelineConfig(), ratings_path=path)
        assert excinfo.value.file == str(path)

    def test_both_inputs_rejected(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(RATINGS_OK)
        with pytest.raises(ValueError, match="not both"):
            run_pipeline(PipelineConfig(), ratings_path=path, aggregated_path=path)

    def test_psychometrics_summary(self, tmp_path):
        doc = {
            "content_validity": {
                "panel_size": 11,
                "essential_counts": {"x_1": 11, "x_2": 6},
            },
            "reliability": {
                "dimensions": {"Culture": [[1, 2, 3], [2, 4, 3], [3, 3, 5], [4, 5, 5]]},
            },
        }
        path = tmp_path / "psy.json"
        path.write_text(json.dumps(doc))
        report = run_pipeline(PipelineConfig(), psychometrics_path=path)
        content = report.psychometrics["content_validity"]
        by_id = {c["id"]: c for c in content["components"]}
        assert by_id["x_1"]["cvr"] == pytest.approx(1.0)
        assert by_id["x_1"]["passes"] is True
        assert by_id["x_2"]["cvr"] == pytest.approx(2 * 6 / 11 - 1)
        assert by_id["x_2"]["passes"] is False
        dimensions = report.psychometrics["reliability"]["dimensions"]
        assert dimensions[0]["dimension"] == "Culture"
        assert isinstance(dimensions[0]["alpha"], float)

    def test_custom_scale(self, tmp_path):
        scale_doc = {
            "terms": [
                {"label": "Bad", "value": "((0,0,0.1,0.2;1,1),(0.05,0.05,0.1,0.15;0.9,0.9))"},
                {"label": "Good", "value": "((0.8,0.9,0.9,1;1,1),(0.85,0.9,0.9,0.95;0.9,0.9))"},
            ]
        }
        scale_path = tmp_path / "scale.json"
        scale_path.write_text(json.dumps(scale_doc))
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            "factor_id,facet,E1\nf1,importance,Good\nf1,performance,Bad\n"
        )
        report = run_pipeline(
            PipelineConfig(scale_path=str(scale_path)), ratings_path=ratings
        )
        assert report.scale_source == str(scale_path)
        assert report.profiles[0].e_w > report.profiles[0].e_r


@pytest.fixture(scope="module")
def report_2000(tmp_path_factory):
    """A report on 2000 random factors, most of them scored and ranked."""
    rng = random.Random(2000)
    rows = "".join(
        f'f{i},"{random_it2(rng).to_text()}","{random_it2(rng).to_text()}"\n'
        for i in range(2000)
    )
    path = tmp_path_factory.mktemp("agg") / "agg.csv"
    path.write_text("factor_id,importance,performance\n" + rows)
    return run_pipeline(PipelineConfig(), aggregated_path=path)


def emit_peak(report, out_dir, formats) -> tuple[int, int]:
    """The traced memory peak of one ``emit`` above what it started with, and the bytes written."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        written = emit(report, out_dir, formats)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, sum(p.stat().st_size for p in written)


class TestEmit:
    def test_structured_report_has_18_factor_entries(self, tmp_path):
        report = run_default()
        written = emit(report, tmp_path, [STRUCTURED])
        assert [p.name for p in written] == ["report.json"]
        doc = json.loads(written[0].read_text())
        assert doc["input"]["factor_count"] == 18
        assert len(doc["aggregated"]) == 18

    def test_emit_is_deterministic(self, tmp_path):
        emit(run_default(), tmp_path / "a", [STRUCTURED])
        emit(run_default(), tmp_path / "b", [STRUCTURED])
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()

    def test_svg_map_emits_exactly_one_file(self, tmp_path):
        written = emit(run_default(), tmp_path, [SVG_MAP])
        assert [p.name for p in written] == ["map.svg"]

    def test_delimited_round_trip(self, tmp_path):
        report = run_default()
        emit(report, tmp_path / "first", [DELIMITED])
        again = run_pipeline(
            PipelineConfig(), aggregated_path=tmp_path / "first" / "aggregated.csv"
        )
        emit(again, tmp_path / "second", [DELIMITED])
        first = (tmp_path / "first" / "aggregated.csv").read_bytes()
        second = (tmp_path / "second" / "aggregated.csv").read_bytes()
        assert first == second  # display rounding is idempotent under re-parse

    def test_delimited_file_set(self, tmp_path):
        written = emit(run_default(), tmp_path, [DELIMITED])
        names = {p.name for p in written}
        assert names == {
            "aggregated.csv", "defuzzified.csv", "map.txt", "notes.txt",
            "scores_success.csv", "scores_failure.csv",
            "ranking_success.csv", "ranking_failure.csv",
        }

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit(run_default(), tmp_path, ["yaml"])

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_files_follow_the_umask(self, tmp_path, umask, mode):
        report = run_default()
        previous = os.umask(umask)
        try:
            written = emit(report, tmp_path, REPORT_FORMATS)
        finally:
            os.umask(previous)
        assert {p.stat().st_mode & 0o777 for p in written} == {mode}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)

    def test_json_is_strict(self):
        with pytest.raises(ValueError):
            chunks_text({"alpha": float("nan")})

    @pytest.mark.parametrize("inputs", [
        {},
        {"ratings_path": TESTS / "golden_ratings" / "ratings.csv"},
        {"aggregated_path": TESTS / "golden_aggregated" / "aggregated.csv",
         "psychometrics_path": TESTS / "golden_aggregated" / "psychometrics.json"},
    ], ids=["bundled", "ratings", "aggregated"])
    def test_section_chunks_join_to_the_structured_text(self, inputs):
        report = run_pipeline(PipelineConfig(), **inputs)
        assert "".join(json_chunks(report.sections())) == dumps(report.to_structured())

    def test_structured_emit_holds_one_section_at_a_time(self, tmp_path):
        rng = random.Random(2000)
        rows = "".join(
            f'f{i},"{random_it2(rng).to_text()}","{random_it2(rng).to_text()}"\n'
            for i in range(2000)
        )
        (tmp_path / "agg.csv").write_text("factor_id,importance,performance\n" + rows)
        report = run_pipeline(PipelineConfig(), aggregated_path=tmp_path / "agg.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            emit(report, tmp_path / "out", [STRUCTURED])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the whole document and its joined text come to about 3x the file
        assert peak < 1.5 * (tmp_path / "out" / "report.json").stat().st_size

    def test_structured_emit_holds_one_row_at_a_time(self, report_2000, tmp_path):
        # a whole section (the rankings) came to 1.3x the file
        peak, size = emit_peak(report_2000, tmp_path, [STRUCTURED])
        assert peak < 0.25 * size

    def test_delimited_emit_holds_one_file_at_a_time(self, report_2000, tmp_path):
        # every file built before the first was written came to 2.2x their bytes
        peak, size = emit_peak(report_2000, tmp_path, [DELIMITED])
        assert peak < 1.6 * size

    def test_failed_structured_emit_leaves_no_file(self, tmp_path):
        report = run_default()._replace(psychometrics={"alpha": float("nan")})
        with pytest.raises(ValueError, match="Out of range float"):
            emit(report, tmp_path, [STRUCTURED])
        assert list(tmp_path.iterdir()) == []

    def test_svg_escapes_factor_ids(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(RATINGS_OK.replace("f1,", '"a&b<c>",'))
        emit(run_pipeline(PipelineConfig(), ratings_path=ratings), tmp_path, [SVG_MAP])
        labels = [e.text for e in ElementTree.parse(tmp_path / "map.svg").iter()
                  if e.tag.endswith("text")]
        assert "a&b<c>" in labels and "f2" in labels


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308]),
    st.text(), st.text(alphabet='"\\/\x00\x1f\x7f\n\té☃\U0001f600\ud800'),
    st.sampled_from(["inf", "-inf", "nan"]),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=20,
)


class TestToJson:
    @settings(max_examples=300)
    @given(JSON_DOCS)
    def test_equals_indented_dumps(self, doc):
        doc = {"doc": doc}
        assert chunks_text(doc) == dumps(doc)

    @settings(max_examples=150)
    @given(st.dictionaries(st.text(max_size=5), JSON_DOCS, min_size=1, max_size=5))
    def test_chunks_join_to_the_document_text(self, doc):
        assert chunks_text(doc) == dumps(doc)

    def test_chunks_of_long_lists_and_iterators_join_to_the_document_text(self):
        # lists over many chunks, and one item longer than a chunk as the last of its list
        rows = [{"i": i, "text": "x" * (i % 50)} for i in range(3000)]
        doc = {"rows": rows, "nested": {"rows": iter(rows), "empty": iter(()), "big": ["y" * 20000]},
               "ids": tuple(map(str, range(5000)))}
        plain = {"rows": rows, "nested": {"rows": rows, "empty": [], "big": ["y" * 20000]},
                 "ids": list(map(str, range(5000)))}
        assert chunks_text(doc) == dumps(plain)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": (v,)}}],
                             ids=["bare", "list", "nested"])
    def test_non_finite_float_rejected(self, value, wrap):
        with pytest.raises(ValueError, match="Out of range float"):
            chunks_text({"doc": wrap(value)})

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", [{"a": 1j}], {1: "int key"}])
    def test_unsupported_type_or_key_rejected(self, value):
        with pytest.raises(TypeError):
            chunks_text({"doc": value})

    def test_subclasses_written_as_their_base_type(self):
        class Level(enum.IntEnum):
            HIGH = 3

        class Label(str):
            pass

        class Ratio(float):
            pass

        doc = {Label("k"): [Level.HIGH, Label("x"), Ratio(0.5), collections.OrderedDict(a=True)]}
        assert chunks_text(doc) == dumps(doc)
        with pytest.raises(ValueError):
            chunks_text({"doc": [Ratio("inf")]})


class TestCli:
    def test_default_run_prints_structured_report(self, capsys):
        assert main([]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "it2ipa-report/1"
        assert doc["input"]["bundled"] is True

    def test_stdout_deterministic_across_runs(self, capsys):
        assert main([]) == 0
        first = capsys.readouterr().out
        assert main([]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_directory_and_formats(self, tmp_path, capsys):
        code = main([
            "--out", str(tmp_path),
            "--format", "structured", "--format", "delimited", "--format", "svg-map",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "map.svg").exists()
        assert "report.json" in out

    def test_map_contains_every_factor_once(self, tmp_path):
        main(["--out", str(tmp_path), "--format", "svg-map", "--format", "delimited"])
        for name in ("map.svg", "map.txt"):
            document = (tmp_path / name).read_text()
            for i in range(1, 19):
                assert len(re.findall(rf"\bx_{i}\b", document)) == 1, (name, i)

    def test_empty_ratings_file_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text("")
        assert main(["--ratings", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        diagnostic = json.loads(err.removeprefix("error: "))
        assert diagnostic["file"] == str(path)
        assert "empty" in diagnostic["cause"]

    def test_unknown_term_diagnostic_names_coordinates(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "factor_id,facet,E1\nf1,importance,Med\nf1,performance,Low\n"
        )
        assert main(["--ratings", str(path)]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert "Med" in diagnostic["cause"] and "f1" in diagnostic["cause"]
        assert diagnostic["file"] == str(path)
        assert diagnostic["row"] is None

    def test_malformed_aggregated_row_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "agg.csv"
        path.write_text("factor_id,importance,performance\nf1,broken,also broken\n")
        assert main(["--aggregated", str(path)]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert diagnostic["row"] == 2

    def test_threshold_flag_changes_banding(self, capsys):
        assert main(["--thresholds", "0.05,0.95"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["thresholds"] == [0.05, 0.95]
        bands = {row["importance_band"] for row in doc["defuzzified"]}
        assert bands == {"medium"}  # everything lands mid-band with wide cuts

    def test_invalid_thresholds_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--thresholds", "0.9,0.1"])
        assert excinfo.value.code == 2

    def test_format_without_out_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--format", "svg-map"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--format needs --out" in captured.err

    def test_zero_importance_support_in_comparison_mode_is_located(self, tmp_path, capsys):
        # Low/Low importance has support starting at 0, the as_computed divisor
        path = tmp_path / "ratings.csv"
        path.write_text(
            "factor_id,facet,E1,E2\n"
            "f1,importance,Low,Low\n"
            "f1,performance,Very Low,Low\n"
        )
        assert main(["--ratings", str(path), "--partition-mode", "comparison"]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert diagnostic["file"] == str(path)
        assert "f1" in diagnostic["cause"] and "as_computed" in diagnostic["cause"]

    def test_inner_importance_endpoint_at_zero_is_located(self, tmp_path, capsys):
        # support starts at 1e-13, but the second endpoint is 0 within the order slack
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            'f1,"((1e-13,0,0.9,0.9;1,1),(0,1e-13,1e-13,0.9;1,1))",'
            '"((0,0,0,0;1,1),(0,0,0,0;1,1))"\n'
        )
        assert main(["--aggregated", str(path)]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert diagnostic["file"] == str(path)
        assert "f1" in diagnostic["cause"] and "as_computed" in diagnostic["cause"]

    # importance support starting just above 0: the as_computed score (performance /
    # importance) overflows the rank value at 1e-200 and is infinite at 1e-320
    @pytest.mark.parametrize("start", ["1e-200", "1e-320"])
    def test_tiny_importance_support_is_located(self, tmp_path, capsys, start):
        path = tmp_path / "agg.csv"
        path.write_text(
            "factor_id,importance,performance\n"
            f'f1,"(({start},0.9,0.9,1.0;1,1),(0.5,0.9,0.9,0.95;0.9,0.9))",'
            '"((0,0,0.1,0.2;1,1),(0.05,0.05,0.05,0.1;0.9,0.9))"\n'
        )
        assert main(["--aggregated", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        diagnostic = json.loads(err.removeprefix("error: "))
        assert diagnostic["file"] == str(path)
        assert "f1" in diagnostic["cause"] and "as_computed" in diagnostic["cause"]

    # a divisor with an inner endpoint at 0, and a rank value that overflows
    @pytest.mark.parametrize("importance", [
        "((1e-13,0,0.9,0.9;1,1),(0,1e-13,1e-13,0.9;1,1))",
        "((1e-200,0.9,0.9,1.0;1,1),(0.5,0.9,0.9,0.95;0.9,0.9))",
    ], ids=["divisor", "non-finite-rank"])
    def test_psychometrics_defect_is_reported_before_a_scoring_defect(self, tmp_path, capsys,
                                                                     importance):
        agg, psy = tmp_path / "agg.csv", tmp_path / "psy.json"
        agg.write_text(f'factor_id,importance,performance\nf1,"{importance}",'
                       '"((0,0,0.1,0.2;1,1),(0.05,0.05,0.05,0.1;0.9,0.9))"\n')
        assert main(["--aggregated", str(agg)]) == 2
        assert json.loads(capsys.readouterr().err.removeprefix("error: "))["file"] == str(agg)
        psy.write_text('{"content_validity": {"panel_size": 11.9, "essential_counts": {}}}')
        assert main(["--aggregated", str(agg), "--psychometrics", str(psy)]) == 2
        assert json.loads(capsys.readouterr().err.removeprefix("error: "))["file"] == str(psy)
        # a defect in reading the main input still comes first
        agg.write_text(agg.read_text() + "f2,broken,broken\n")
        assert main(["--aggregated", str(agg), "--psychometrics", str(psy)]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert (diagnostic["file"], diagnostic["row"]) == (str(agg), 3)

    def test_row_order_of_the_input_changes_no_output(self, tmp_path, capsys):
        # ids that read as the same number tie on score and rank within each group
        high = '"((0.7,0.8,0.8,0.9;1,1),(0.75,0.8,0.8,0.85;0.9,0.9))"'
        low = '"((0.1,0.2,0.2,0.3;1,1),(0.15,0.2,0.2,0.25;0.9,0.9))"'
        rows = [f"{fid},{high},{low}\n" for fid in ("x1", "x01", "x\u0661")]  # weaknesses
        rows += [f"{fid},{low},{high}\n" for fid in ("y1", "y01", "y\u0661")]  # strengths
        path = tmp_path / "agg.csv"
        outputs = set()
        for order in (rows, rows[::-1], rows[1::2] + rows[::2]):
            path.write_text("factor_id,importance,performance\n" + "".join(order), encoding="utf-8")
            assert main(["--aggregated", str(path)]) == 0
            out = tmp_path / "out"
            assert main(["--aggregated", str(path), "--out", str(out),
                         *(arg for fmt in REPORT_FORMATS for arg in ("--format", fmt))]) == 0
            files = tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
            outputs.add((capsys.readouterr().out, files))
        assert len(outputs) == 1
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [row["factor"] for row in doc["rankings"]["failure"]] == ["x01", "x1", "x\u0661"]
        assert [row["factor"] for row in doc["scores"]["success"]] == ["y01", "y1", "y\u0661"]

    @pytest.mark.parametrize("doc", [
        {"reliability": [1]},
        {"content_validity": {"panel_size": 3, "essential_counts": {"x_1": 3}, "threshold": [1]}},
        {"content_validity": {"panel_size": 3, "essential_counts": {"x_1": 3}, "threshold": "abc"}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}, "threshold": "nan"}},
        {"content_validity": {"panel_size": 11.9, "essential_counts": {"x_1": 9}}},
        {"content_validity": {"panel_size": 11, "essential_counts": {"x_1": 9.7}}},
        {"content_validity": {"panel_size": 11, "essential_counts": {"x_1": True}}},
        {"content_validity": {"panel_size": 11, "essential_counts": {"x_1": "9"}}},
        {"content_validity": {"panel_size": 11, "essential_counts": {"x_1": 9}, "threshold": True}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}, "threshold": False}},
        {"reliability": {"dimensions": {"Culture": [[True, 2, 3], [2, "4", 3], [3, 3, " 5 "],
                                                    [4, 5, "1_0"]]}}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 10**400]]}}},
        {"content_validity": {"panel_size": 3, "essential_counts": {"x_1": 3}, "threshold": 10**400}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}, "threshold": 10**400}},
        {"content_validity": {"panel_size": 3, "essential_counts": {"x_1": 3}, "threshold": "0.7"}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}, "threshold": "0.7"}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}, "threshold": True}},
        {"content_validity": {"panel_size": 3, "essential_counts": {"x_1": 3}, "threshold": None}},
        {"reliability": {"dimensions": {"Culture": [[1, 2], [2, 3]]}, "threshold": None}},
    ])
    def test_malformed_psychometrics_diagnostic_names_the_file(self, tmp_path, capsys, doc):
        path = tmp_path / "psy.json"
        path.write_text(json.dumps(doc))
        assert main(["--psychometrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert json.loads(err.removeprefix("error: "))["file"] == str(path)

    @pytest.mark.parametrize("label,value", [
        (None, "((0,0,0,0.1;1,1),(0,0,0,0.05;0.9,0.9))"),
        (7, "((0,0,0,0.1;1,1),(0,0,0,0.05;0.9,0.9))"),
        (["x"], "((0,0,0,0.1;1,1),(0,0,0,0.05;0.9,0.9))"),
        ("Nil", ["((0,0,0,0.1;1,1),(0,0,0,0.05;0.9,0.9))"]),
    ], ids=["null-label", "number-label", "array-label", "array-value"])
    def test_scale_term_that_is_not_a_string_is_located(self, tmp_path, capsys, label, value):
        # the other terms are labelled as str() spells the bad labels, and the ratings use them all
        terms = [{"label": label, "value": value},
                 {"label": "7", "value": "((0.3,0.5,0.5,0.7;1,1),(0.4,0.5,0.5,0.6;0.9,0.9))"},
                 {"label": "['x']", "value": "((0.9,1,1,1;1,1),(0.95,1,1,1;0.9,0.9))"}]
        scale, ratings = tmp_path / "scale.json", tmp_path / "ratings.csv"
        scale.write_text(json.dumps({"terms": terms}))
        ratings.write_text('factor_id,facet,E1,E2,E3\nf1,importance,None,7,"[\'x\']"\n'
                           'f1,performance,7,7,None\n')
        assert main(["--ratings", str(ratings), "--scale", str(scale)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        diagnostic = json.loads(err.removeprefix("error: "))
        assert diagnostic["file"] == str(scale) and diagnostic["cause"].startswith("term #1 ")

    @pytest.mark.parametrize("text,name", [
        ('{"reliability": {"dimensions": {"\\ud800": [[1, 2], [2, 4], [3, 3]]}}}', "\ud800"),
        ('{"content_validity": {"panel_size": 11, "essential_counts": {"x_1": 9, "\\udc80x": 5}}}',
         "\udc80x"),
    ], ids=["dimension", "component-id"])
    def test_lone_surrogate_name_is_located(self, tmp_path, capsys, text, name):
        path = tmp_path / "psy.json"
        path.write_text(text)
        argv = ["--psychometrics", str(path), "--out", str(tmp_path / "out"), "--format", "delimited"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        diagnostic = json.loads(err.removeprefix("error: "))
        assert diagnostic["file"] == str(path) and repr(name) in diagnostic["cause"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--psychometrics", "--scale"])
    @pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000,
                                      '{"a":' * 200_000 + "1" + "}" * 200_000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_json_is_located(self, tmp_path, capsys, flag, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main([flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        diagnostic = json.loads(err.removeprefix("error: "))
        assert diagnostic["file"] == str(path)
        assert diagnostic["cause"].startswith("invalid JSON: nested too deeply")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("flag,text", [
        ("--ratings", RATINGS_OK.replace("Second", "Sec\xe9nd")),
        ("--aggregated", fixtures.aggregated_path().read_text().replace("x_3,", "x_\xe93,")),
        ("--scale", '{"terms": [\n  {"label": "Low",\n   "value": "\xe9"}]}'),
        ("--psychometrics", '{"reliability": {\n "dimensions":\n {"D\xe9": [[1, 2], [2, 3]]}}}'),
    ], ids=["ratings", "aggregated", "scale", "psychometrics"])
    def test_non_utf8_input_names_the_file_and_line(self, tmp_path, capsys, flag, text, bom):
        path = tmp_path / "input"
        data = text.encode("latin-1")
        path.write_bytes(bom + data)
        assert main([flag, str(path)]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        line = data[:data.index(b"\xe9")].count(b"\n") + 1
        assert (diagnostic["file"], diagnostic["row"]) == (str(path), line)
        assert "0xe9" in diagnostic["cause"]

    @pytest.mark.parametrize("value", [
        "((0,0,0,0;1,1),(-1e-13,0,0,0;1,1))",
        "((1,1,1,1;1,1),(1,1,1,1.0000000000001;1,1))",
        "((0,-5e-13,-5e-13,0;1,1),(0,0,0,0;1,1))",
    ], ids=["lower-below", "lower-above", "inner-below"])
    def test_endpoint_outside_the_unit_interval_is_located(self, tmp_path, capsys, value):
        path = tmp_path / "agg.csv"
        path.write_text(f'factor_id,importance,performance\nx_1,"{value}","{value}"\n')
        assert main(["--aggregated", str(path)]) == 2
        diagnostic = json.loads(capsys.readouterr().err.removeprefix("error: "))
        assert (diagnostic["file"], diagnostic["row"]) == (str(path), 2)
        assert diagnostic["cause"] == "factor x_1 importance: support outside [0, 1]"

    # a digit that is not a decimal, and a digit run over int()'s default 4300-digit limit
    @pytest.mark.parametrize("fid", ["\u00b2", "x_" + "9" * 5000], ids=["superscript", "5000-digits"])
    def test_any_id_is_sorted(self, tmp_path, capsys, fid):
        agg, psy = tmp_path / "agg.csv", tmp_path / "psy.json"
        agg.write_text(fixtures.aggregated_path().read_text().replace("x_3,", f"{fid},"))
        psy.write_text(json.dumps({"content_validity": {
            "panel_size": 11, "essential_counts": {fid: 9, "x_3": 9}}}))
        assert main(["--aggregated", str(agg), "--psychometrics", str(psy)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert fid in [row["factor"] for row in doc["aggregated"]]
        assert fid in [c["id"] for c in doc["psychometrics"]["content_validity"]["components"]]

    def test_failed_stdout_write_is_located(self, tmp_path):
        # a pipe closed by its reader after 10 bytes of a report larger than its buffer
        header, row = fixtures.aggregated_path().read_text().split("\nx_1,")[0:2]
        row = row.splitlines()[0]
        agg = tmp_path / "agg.csv"
        agg.write_text(header + "".join(f"\ny_{i},{row}" for i in range(400)) + "\n")
        src = Path(it2ipa.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "it2ipa.cli", "--aggregated", str(agg)]
        child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        results = [(child.wait(timeout=60), child.stderr.read().decode())]
        child.stderr.close()
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                done = subprocess.run(argv[:3], env=env, stdout=full, stderr=subprocess.PIPE)
            results.append((done.returncode, done.stderr.decode()))
        for code, err in results:
            assert code == 2 and "Traceback" not in err and "Exception" not in err, err
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert json.loads(lines[0].removeprefix("error: "))["file"] == "<stdout>"

    def test_import_loads_no_numpy(self):
        # nor any other module that only the records or the optional numeric stack would need
        src = Path(it2ipa.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        unneeded = ["numpy", "dataclasses", "inspect", "ast", "dis", "tokenize", "copy"]
        code = f"import it2ipa.cli, sys; print(sorted(set({unneeded}) & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize("record,change", [
        (it2ipa.MapThresholds(), {"t1": 0.9}),
        (PipelineConfig(), {"cffs_mode": "majority"}),
        (it2ipa.FuzzyScore(it2ipa.Factor("f", "f", "d"), "success", it2ipa.IT2TrapFN.crisp(0.5)),
         {"mode": "as_written"}),
    ], ids=["thresholds", "config", "score"])
    def test_replace_checks_like_the_constructor(self, record, change):
        with pytest.raises(ValueError):
            record._replace(**change)

    def test_reproduce_tables_script_runs(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        result = subprocess.run(
            [sys.executable, str(root / "scripts" / "reproduce_tables.py"), "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "== Map ==" in result.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aggregated.csv", "defuzzified.csv", "map.svg", "map.txt", "notes.txt",
            "ranking_failure.csv", "ranking_success.csv", "report.json",
            "scores_failure.csv", "scores_success.csv",
        ]

    def test_cffs_mode_flag(self, capsys):
        assert main(["--cffs-mode", "as_written"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["cffs_mode"] == "as_written"
        assert all(row["mode"] == "as_written" for row in doc["scores"]["failure"])
