"""Tests of the benchmark's own code: generators, oracles, tracer and metric names."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from it2ipa import parse_ratings  # noqa: E402
from it2ipa.report import PipelineConfig, run_pipeline  # noqa: E402


def test_generators_are_deterministic_per_seed():
    assert inputs.ratings_csv(7, 5, seed=3) == inputs.ratings_csv(7, 5, seed=3)
    assert inputs.ratings_csv(7, 5, seed=3)[0] != inputs.ratings_csv(7, 5, seed=4)[0]
    assert inputs.aggregated_csv(7, seed=3) == inputs.aggregated_csv(7, seed=3)
    assert inputs.aggregated_csv(7, seed=3)[0] != inputs.aggregated_csv(7, seed=4)[0]
    shape = (7, 2, 6, 3)
    assert inputs.psychometrics_json(*shape, seed=3) == inputs.psychometrics_json(*shape, seed=3)
    assert inputs.psychometrics_json(*shape, seed=3)[0] != inputs.psychometrics_json(*shape, seed=4)[0]


def test_ratings_counts_match_the_file(tmp_path):
    text, counts = inputs.ratings_csv(6, 9, seed=1)
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    matrix = parse_ratings(path)
    labels = [label.casefold() for label, _ in inputs.SCALE]
    for i in range(6):
        for facet, grid in enumerate((matrix.importance, matrix.performance)):
            seen = [labels.index(cell.strip().casefold()) for cell in grid[i]]
            assert [seen.count(k) for k in range(len(labels))] == counts[i][facet]


def test_ratings_oracle_agrees_with_run_pipeline(tmp_path):
    text, counts = inputs.ratings_csv(12, 8, seed=5)
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    report = run_pipeline(PipelineConfig(), ratings_path=path).to_structured()
    expected = oracle.ratings_crisp(inputs.factor_ids(12), counts)
    assert oracle.check_crisp(report, expected, 1e-9) == []
    wrong = {fid: (w + 1e-6, r) for fid, (w, r) in expected.items()}
    assert oracle.check_crisp(report, wrong, 1e-9)


def test_aggregated_and_psychometrics_oracles_agree_with_run_pipeline(tmp_path):
    text, values = inputs.aggregated_csv(12, seed=5)
    agg = tmp_path / "aggregated.csv"
    agg.write_text(text)
    text, doc = inputs.psychometrics_json(12, 3, 40, 5, seed=5)
    psy = tmp_path / "psychometrics.json"
    psy.write_text(text)
    report = run_pipeline(PipelineConfig(), aggregated_path=agg,
                          psychometrics_path=psy).to_structured()
    expected = oracle.aggregated_crisp(inputs.factor_ids(12), values)
    assert oracle.check_crisp(report, expected, 1e-9) == []
    assert oracle.check_psychometrics(report, doc, 1e-9) == []


def test_bundled_oracle_accepts_the_bundled_report():
    report = run_pipeline(PipelineConfig()).to_structured()
    fixtures_dir = ROOT / "src" / "it2ipa" / "fixtures"
    assert oracle.check_bundled(report, fixtures_dir) == []
    report["defuzzified"][0]["importance"] += 0.01
    assert oracle.check_bundled(report, fixtures_dir)


def test_cronbach_alpha_oracle_on_a_known_grid():
    # Items are identical: alpha is exactly 1.
    assert oracle.cronbach_alpha([[1, 1], [2, 2], [4, 4]]) == pytest.approx(1.0, abs=1e-15)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_child_spans():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0, 10.0))

    def leaf():
        return None

    def inner():
        return tracer.call("leaf", leaf)

    def outer():
        tracer.call("inner", inner)  # 1.0 .. 3.0, with a leaf of 0.5
        tracer.call("inner", lambda: None)  # 4.0 .. 7.0
        return "done"

    assert tracer.call("outer", outer) == "done"
    by_name = {r.name: r for r in tracer.records}
    assert by_name["outer"].total_s == 10.0
    assert by_name["outer"].self_s == 10.0 - 2.0 - 3.0
    assert by_name["inner"].calls == 2
    assert (by_name["inner"].start, by_name["inner"].end) == (1.0, 7.0)
    assert by_name["inner"].self_s == 5.0 - 0.5
    assert by_name["leaf"].parent == by_name["inner"].id
    assert tracer.totals()["inner"] == {"calls": 2, "s": 5.0, "self_s": 4.5}


class FakeSpawner:
    """Answers every spawn with the next of the given wall times."""

    def __init__(self, *elapsed):
        self.elapsed = list(elapsed)

    def spawn(self, args, work):
        return self.elapsed.pop(0), 0.0, 0, b"", b""


def test_a_phase_is_scaled_by_the_calibration_runs_around_it(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_S", 0.25)
    calibrated = run.Calibrated(FakeSpawner(0.4, 0.6, 0.25), Path("."))
    # Calibration took 0.5 s on average around the phase, twice the
    # reference: the machine ran at half speed, so a 3 s mean reads 1.5 s.
    calibrated.close_phase("wall_s", [2.0, 4.0])
    # The next phase starts from the run that ended the last one.
    calibrated.close_phase("wall_s", [1.0])
    assert calibrated.scaled["wall_s"] == [pytest.approx(1.5), pytest.approx(0.5 / 0.85)]
    assert calibrated.calibration_s == [0.4, 0.6, 0.25]


def test_wrappers_sit_at_the_resolved_name_and_are_removed(tmp_path):
    import it2ipa.survey

    original = it2ipa.survey.lookup
    text, _ = inputs.ratings_csv(3, 4, seed=2)
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    tracer = Tracer()
    tracer.install([("it2ipa.survey:lookup", "scale.lookup"), ("it2ipa:no_such", "x")],
                   [("it2ipa.numbers:Trapezoid.__post_init__", "numbers.trapezoids")])
    try:
        run_pipeline(PipelineConfig(), ratings_path=path)
    finally:
        tracer.uninstall()
    assert it2ipa.survey.lookup is original
    assert tracer.totals()["scale.lookup"]["calls"] == 3 * 4 * 2
    assert tracer.counts["numbers.trapezoids"] > 0
    assert tracer.missing == ["it2ipa:no_such"]


def test_warnings_are_counted_where_they_happen():
    import warnings

    tracer = Tracer()

    def noisy():
        warnings.warn("raw tuple", UserWarning)

    tracer.traced("outer", lambda: tracer.call("noisy", noisy))
    tracer.traced("outer", lambda: tracer.call("noisy", noisy))
    assert tracer.warnings == {("UserWarning", "noisy"): 2}


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      2106 |     108445 |         numpy\n"
        "import time:      1544 |     140174 | it2ipa.cli\n"
    )
    assert run.parse_importtime(text) == {"numpy": 0.108445, "it2ipa.cli": 0.140174}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(path.startswith("bench") for path in spec["paths"])
