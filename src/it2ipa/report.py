"""End-to-end pipeline: input files to the records of a report, stage by stage."""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from pathlib import Path

from . import fixtures, ipamap, scoring, writer
from .defuzz import dtrat
from .errors import InputFileError
from .ipamap import MapThresholds, PlacedFactor
from .numbers import DivisorSpansZeroError
from .scale import UnknownTermError, default_scale, load_scale
from .survey import (
    cronbach_alpha,
    cvr,
    DegenerateDataError,
    InvalidCountsError,
    aggregate,
    factor_sort_key,
    load_psychometrics,
    parse_aggregated,
    parse_ratings,
)


class PipelineConfig(namedtuple("PipelineConfig", "scale_path thresholds partition_mode cffs_mode")):
    """Everything the pipeline needs besides the input files.

    An unknown mode raises ``ValueError``, and ``thresholds`` that are not a
    ``MapThresholds`` raise ``TypeError``, when built and on ``_replace`` alike.
    """

    __slots__ = ()

    def __new__(cls, scale_path: str | None = None, thresholds: MapThresholds = MapThresholds(),
                partition_mode: str = ipamap.REGION_MODE, cffs_mode: str = scoring.AS_COMPUTED):
        if partition_mode not in ipamap.PARTITION_MODES:
            raise ValueError(f"unknown partition mode: {partition_mode!r}")
        if cffs_mode not in scoring.FAILURE_MODES:
            raise ValueError(f"unknown failure-score mode: {cffs_mode!r}")
        if not isinstance(thresholds, MapThresholds):
            raise TypeError(f"thresholds must be a MapThresholds, got {thresholds!r}")
        return tuple.__new__(cls, (scale_path, thresholds, partition_mode, cffs_mode))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too


PsychometricsSummary = namedtuple(
    "PsychometricsSummary", "source panel_size cvr_threshold components alpha_threshold dimensions")
PsychometricsSummary.__doc__ = """The checks of the psychometrics file ``source``: ``components``
holds ``(id, essential, cvr, passes)`` rows in id order and ``dimensions``
``(dimension, respondents, items, alpha, passes)`` rows in name order, each empty when the file
gives none."""


class Report(namedtuple("Report", (
    "config input_source profiles candidates balanced rankings psychometrics comparison"
))):
    """All pipeline results, ``profiles`` in factor-id order. ``writer.sections`` mirrors the JSON.

    ``candidates`` and ``rankings`` map each kind, success first, to its factors. ``comparison``
    is the reference side of a run on the bundled dataset, else ``None``, so it also marks that run.
    """

    __slots__ = ()

    @property
    def notes(self) -> tuple[str, ...]:
        """The sentences on the failure-score rule, the rank values and the reference comparison."""
        notes = []
        if self.config.cffs_mode == scoring.AS_COMPUTED:
            notes.append(
                "Failure scores use the as_computed rule (performance / importance), "
                "the rule the bundled reference failure tuples follow."
            )
        else:
            notes.append(
                "Failure scores use the as_written rule (importance x (1 - performance)). "
                "The bundled reference failure tuples instead match performance / importance, "
                "so values here differ from that reference."
            )
        notes.append(
            "Rank values are freshly computed with the Chen-Lee formula. The bundled "
            "reference rank values are not reproducible from that formula applied to the "
            "reference score tuples and serve for order comparison only."
        )
        if self.comparison is None:
            return tuple(notes)

        success, failure = self.comparison[scoring.SUCCESS], self.comparison[scoring.FAILURE]
        computed = {kind: [p.factor.id for p in members] for kind, members in self.candidates.items()}
        notes.append(
            f"Success score tuples vs reference ({len(success['reference_candidates'])} factors): "
            f"max endpoint deviation {success['deviation']:.4f}."
        )
        agreement = "within" if failure["deviation"] <= 0.005 else "OUTSIDE"
        notes.append(
            f"Failure score tuples ({self.config.cffs_mode}) vs reference "
            f"({len(failure['reference_candidates'])} factors): "
            f"max endpoint deviation {failure['deviation']:.4f} ({agreement} the 0.005 "
            f"reproduction tolerance)."
        )
        if any(computed[kind] != self.comparison[kind]["reference_candidates"] for kind in computed):
            notes.append(
                f"The reference success/failure membership lists are not derivable from the "
                f"{self.config.partition_mode} partition rule on the defuzzified values: "
                f"computed failure candidates {computed[scoring.FAILURE]} vs "
                f"reference {failure['reference_candidates']}; computed success candidates "
                f"{computed[scoring.SUCCESS]} vs reference {success['reference_candidates']}. "
                f"Factors absent from both reference lists: {self.comparison['unlisted']}."
            )
        for kind, ranking in self.rankings.items():
            order = [rf.factor.id for rf in ranking]
            if order and order != self.comparison[kind]["reference_order"]:
                notes.append(
                    f"Computed {kind} ranking order {order} differs from the "
                    f"reference order {self.comparison[kind]['reference_order']}."
                )
        return tuple(notes)


    def to_structured(self) -> dict:
        """The structured report as ``json.loads`` reads the text that ``writer.json_chunks`` writes."""
        return json.loads("".join(writer.json_chunks(writer.sections(self))))



def _summarize_psychometrics(path: str | Path | None, sort_key) -> PsychometricsSummary | None:
    """The psychometrics stage: the checks of the file at ``path``, or ``None`` without one.

    Components are in ``sort_key`` order of their ids. ``cvr`` runs once per
    distinct essential count, and the components with that count share its value.
    """
    if path is None:
        return None
    data, source = load_psychometrics(path), str(path)
    components, ratios = [], {}  # ratios: each essential count's CVR
    for cid in sorted(data.essential_counts, key=sort_key):
        count = data.essential_counts[cid]
        value = ratios.get(count)
        if value is None:
            try:
                value = ratios[count] = cvr(count, data.panel_size)
            except InvalidCountsError as exc:
                raise InputFileError(source, f"component {cid}: {exc}") from exc
        components.append((cid, count, value, value > data.cvr_threshold))
    dimensions = []
    for name in sorted(data.dimension_scores):
        grid = data.dimension_scores[name]
        try:
            alpha = cronbach_alpha(grid)
        except DegenerateDataError as exc:
            raise InputFileError(source, f"dimension {name!r}: {exc}") from exc
        dimensions.append((name, len(grid), len(grid[0]), alpha, alpha >= data.alpha_threshold))
    return PsychometricsSummary(source, data.panel_size, data.cvr_threshold, components,
                                data.alpha_threshold, dimensions)


def _endpoint_deviation(computed, reference) -> float:
    """The largest distance of an endpoint of ``computed`` from that of ``reference``."""
    return max(abs(c - r) for t, u in zip(computed, reference) for c, r in zip(t[:4], u[:4]))


def _score_functions(cffs_mode: str) -> dict:
    """Each kind's score function, success first, as ``scoring`` holds them at the call."""
    return {scoring.SUCCESS: scoring.success_score,
            scoring.FAILURE: functools.partial(scoring.failure_score, mode=cffs_mode)}


def _reference_comparison(profiles, rankings: dict, cffs_mode: str) -> dict:
    """How far a run on the bundled dataset is from its reference tables.

    Per kind (``success``, ``failure``): the largest endpoint deviation of the
    score tuples, and the reference candidates and ranking order, which
    ``Report.notes`` sets beside the computed ones. A candidate's score is the
    one in ``rankings``; only the reference factors that are not candidates are
    scored here. ``unlisted`` names the factors in neither reference list.
    """
    scores, orders = fixtures.reference_scores(), fixtures.reference_rankings()
    comparison = {}
    for kind, score in _score_functions(cffs_mode).items():
        values = {rf.factor.id: rf.score.value for rf in rankings[kind]}
        comparison[kind] = {
            "deviation": max(
                _endpoint_deviation(
                    values[p.factor.id] if p.factor.id in values
                    else score(p.factor, p.w_fuzzy, p.r_fuzzy).value,
                    scores[kind][p.factor.id],
                )
                for p in profiles if p.factor.id in scores[kind]
            ),
            "reference_candidates": sorted(scores[kind], key=factor_sort_key),
            "reference_order": orders[kind],
        }
    listed = scores[scoring.SUCCESS].keys() | scores[scoring.FAILURE].keys()
    comparison["unlisted"] = sorted({p.factor.id for p in profiles} - listed, key=factor_sort_key)
    return comparison


def _scale(scale_path: str | None):
    """The scale stage: the built-in scale, or the one in the file at ``scale_path``."""
    return default_scale() if scale_path is None else load_scale(scale_path)


def _read_input(scale, ratings_path, aggregated_path) -> tuple[list, str, bool]:
    """The input stage: the profiles, the input as the report names it, whether it is bundled."""
    if ratings_path is not None:
        matrix = parse_ratings(ratings_path)
        try:
            return aggregate(matrix, scale), str(ratings_path), False
        except UnknownTermError as exc:
            raise InputFileError(str(ratings_path), exc.args[0]) from exc
    if aggregated_path is None:
        aggregated_path = fixtures.aggregated_path()
    profiles = parse_aggregated(aggregated_path)
    return profiles, str(aggregated_path), (
        Path(aggregated_path).resolve() == fixtures.aggregated_path().resolve())


def _place(profiles, thresholds: MapThresholds, sort_key) -> list[PlacedFactor]:
    """The place stage: each profile in ``sort_key`` order of its id, defuzzified and placed.

    ``dtrat`` runs once per fuzzy value object, and the profiles that share one,
    as ``parse_aggregated`` shares them, share its crisp value. The memo is keyed
    by identity, as in ``writer._texts``, and freed on return.
    """
    values = {id(value): value for p in profiles for value in (p.w_fuzzy, p.r_fuzzy)}
    crisp = {key: dtrat(value) for key, value in values.items()}
    placed = []
    for p in sorted(profiles, key=lambda p: sort_key(p.factor.id)):
        e_w, e_r = crisp[id(p.w_fuzzy)], crisp[id(p.r_fuzzy)]
        placed.append(PlacedFactor(*p, e_w, e_r, ipamap.place(e_w, e_r, thresholds)))
    return placed


def _partition(placed, mode: str) -> tuple[dict, list]:
    """The partition stage: each kind's candidates, success first, and the balanced factors."""
    failure, success, balanced = ipamap.partition(placed, mode)
    return {scoring.SUCCESS: success, scoring.FAILURE: failure}, balanced


def _score_and_rank(candidates: dict, cffs_mode: str, source: str) -> dict:
    """The score and rank stage: each kind's candidates scored and ranked, success first."""
    rankings = {}
    for kind, score in _score_functions(cffs_mode).items():
        scores = []
        for p in candidates[kind]:
            try:
                scores.append(score(p.factor, p.w_fuzzy, p.r_fuzzy))
            except DivisorSpansZeroError as exc:  # only a failure score divides
                raise InputFileError(
                    source, f"factor {p.factor.id}: {cffs_mode} failure score: {exc}") from exc
        try:
            rankings[kind] = scoring.rank_order(scores)
        except scoring.NonFiniteScoreError as exc:  # importance support starting just above 0
            raise InputFileError(source, str(exc)) from exc
    return rankings


def run_pipeline(
    config: PipelineConfig,
    ratings_path: str | Path | None = None,
    aggregated_path: str | Path | None = None,
    psychometrics_path: str | Path | None = None,
) -> Report:
    """Run the full pipeline and return the assembled report.

    Exactly one of ``ratings_path`` / ``aggregated_path`` may be given; with
    neither, the bundled reference dataset is used. The result is a pure
    function of the inputs and the configuration. The stages run once each, in
    this order, and each builds new immutable records from earlier ones: scale,
    input, psychometrics, place, partition, score and rank, and, on the bundled
    file, the reference comparison. So the first defect reported is in the scale
    file, then the main input, then the psychometrics file, and last a failure
    score that cannot be computed or ranked.
    """
    if ratings_path is not None and aggregated_path is not None:
        raise ValueError("give either a ratings file or an aggregated file, not both")
    profiles, source, bundled = _read_input(_scale(config.scale_path), ratings_path, aggregated_path)
    # One sort key per id for the two stages that sort ids, most of them the same.
    sort_key = functools.lru_cache(maxsize=None)(factor_sort_key)
    # Summarized before the factors are placed and scored, so that the score
    # grids are freed before those stages allocate.
    psychometrics = _summarize_psychometrics(psychometrics_path, sort_key)
    placed = _place(profiles, config.thresholds, sort_key)
    sort_key.cache_clear()  # its keys are freed before the later stages allocate
    candidates, balanced = _partition(placed, config.partition_mode)
    rankings = _score_and_rank(candidates, config.cffs_mode, source)
    return Report(config, source, placed, candidates, balanced, rankings, psychometrics,
                  _reference_comparison(placed, rankings, config.cffs_mode) if bundled else None)
