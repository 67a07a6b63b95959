"""Each pipeline stage is computed once: the call counts of one CLI run.

Every function that the benchmark's tracer wraps is counted at the module where
its caller resolves it (``it2ipa.report.dtrat``, not ``it2ipa.defuzz.dtrat``),
and so is each stage function of ``run_pipeline``. A stage that runs twice, or a
call that goes around the name the benchmark wraps, changes a count here.
"""

import collections
import importlib
from pathlib import Path

import pytest

from it2ipa.cli import main
from it2ipa.report import PipelineConfig, run_pipeline

TESTS = Path(__file__).parent

STAGES = ["_scale", "_read_input", "_summarize_psychometrics", "_place", "_partition",
          "_score_and_rank", "_reference_comparison"]
# The names bench/run.py wraps, as "module:attr" or "module:Class.attr", but
# ``ipamap.render_map``, which the program does not define.
WRAPPED = [
    "it2ipa.cli:run_pipeline", "it2ipa.cli:emit", "it2ipa.report:Report.to_structured",
    "it2ipa.report:parse_ratings", "it2ipa.report:aggregate", "it2ipa.report:parse_aggregated",
    "it2ipa.report:load_psychometrics", "it2ipa.report:cronbach_alpha", "it2ipa.report:cvr",
    "it2ipa.report:dtrat", "it2ipa.survey:lookup", "it2ipa.numbers:add",
    "it2ipa.numbers:scalar_div", "it2ipa.numbers:mul", "it2ipa.numbers:div",
    "it2ipa.ipamap:place", "it2ipa.ipamap:partition", "it2ipa.scoring:success_score",
    "it2ipa.scoring:failure_score", "it2ipa.scoring:rank_value", "it2ipa.scoring:rank_order",
    "it2ipa.fixtures:reference_defuzzified", "it2ipa.fixtures:reference_scores",
    "it2ipa.fixtures:reference_rankings",
    *(f"it2ipa.report:{stage}" for stage in STAGES),
]
FORMATS = ["--format", "structured", "--format", "delimited", "--format", "svg-map"]

CASES = {
    "bundled": ([], {}),
    "ratings": (["--ratings", str(TESTS / "golden_ratings" / "ratings.csv")],
                {"ratings_path": TESTS / "golden_ratings" / "ratings.csv"}),
    "aggregated": (["--aggregated", str(TESTS / "golden_aggregated" / "aggregated.csv"),
                    "--psychometrics", str(TESTS / "golden_aggregated" / "psychometrics.json")],
                   {"aggregated_path": TESTS / "golden_aggregated" / "aggregated.csv",
                    "psychometrics_path": TESTS / "golden_aggregated" / "psychometrics.json"}),
}


def counted(calls: collections.Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def calls(monkeypatch) -> collections.Counter:
    """The calls of each ``WRAPPED`` name from here to the end of the test."""
    calls = collections.Counter()
    for target in WRAPPED:
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        monkeypatch.setattr(owner, attr, counted(calls, target, getattr(owner, attr)))
    return calls


@pytest.mark.parametrize("case", CASES)
def test_each_stage_runs_once(calls, tmp_path, case):
    argv, paths = CASES[case]
    report = run_pipeline(PipelineConfig(), **paths)  # the expected sizes, before counting
    calls.clear()
    assert main([*argv, "--out", str(tmp_path), *FORMATS]) == 0

    bundled, ratings = case == "bundled", case == "ratings"
    factors = len(report.profiles)
    assert factors == {"bundled": 18, "ratings": 20, "aggregated": 40}[case]
    candidates = {kind: len(members) for kind, members in report.candidates.items()}
    # a run on the bundled file also scores each factor of the reference score tables
    compared = ({kind: len(report.comparison[kind]["reference_candidates"]) for kind in candidates}
                if bundled else {kind: 0 for kind in candidates})
    summary = report.psychometrics
    expected = {
        **{f"it2ipa.report:{stage}": 1 for stage in STAGES},
        "it2ipa.report:_reference_comparison": int(bundled),
        "it2ipa.cli:run_pipeline": 1,
        "it2ipa.cli:emit": 1,
        "it2ipa.report:Report.to_structured": 0,
        "it2ipa.report:parse_ratings": int(ratings),
        "it2ipa.report:aggregate": int(ratings),
        "it2ipa.report:parse_aggregated": int(not ratings),
        "it2ipa.report:load_psychometrics": int(summary is not None),
        "it2ipa.report:cvr": len(summary.components) if summary else 0,
        "it2ipa.report:cronbach_alpha": len(summary.dimensions) if summary else 0,
        "it2ipa.report:dtrat": 2 * factors,
        "it2ipa.ipamap:place": factors,
        "it2ipa.ipamap:partition": 1,
        "it2ipa.scoring:success_score": candidates["success"] + compared["success"],
        "it2ipa.scoring:failure_score": candidates["failure"] + compared["failure"],
        "it2ipa.scoring:rank_value": sum(candidates.values()),
        "it2ipa.scoring:rank_order": 2,
        # the reference comparison reads two fixture tables; the third is for tests only
        "it2ipa.fixtures:reference_defuzzified": 0,
        "it2ipa.fixtures:reference_scores": int(bundled),
        "it2ipa.fixtures:reference_rankings": int(bundled),
    }
    assert {name: calls[name] for name in expected} == expected
    assert (calls["it2ipa.survey:lookup"] > 0) == ratings  # how many per cell is not pinned
    if summary is not None:
        assert summary.components and summary.dimensions
