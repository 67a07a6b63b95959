"""End-to-end pipeline: input files to report tables, map, and notes."""

from __future__ import annotations

import functools
import json
import math
import os
from collections import Counter, namedtuple
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from . import fixtures, ipamap, scoring
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

STRUCTURED = "structured"
DELIMITED = "delimited"
SVG_MAP = "svg-map"
REPORT_FORMATS = (STRUCTURED, DELIMITED, SVG_MAP)

SCHEMA = "it2ipa-report/1"
DISPLAY_DECIMALS = 3


class Table:
    """A factor table of the structured report, which ``json_chunks`` writes as a list of objects.

    ``fields`` maps each key of a row object to a ``%`` format: ``"%s"`` for a
    string given as its JSON text, ``"%d"`` for an int, ``"%r"`` for a float,
    or a dict of fields for a nested object. ``rows`` yields one flat tuple per
    row, its values in the order of the formats.
    """

    __slots__ = ("fields", "rows")

    def __init__(self, fields: dict, rows):
        self.fields, self.rows = fields, rows


_str = encode_basestring_ascii  # a string's JSON text, for a table's "%s" field
_AGGREGATED = dict.fromkeys(("factor", "name", "dimension", "importance", "performance"), "%s")
# The crisp values here and the CVRs in _COMPONENT are "%s" fields that ``_texts`` formats ahead.
_DEFUZZIFIED = dict.fromkeys(("factor", "importance", "performance", *ipamap.MapRegion._fields),
                             "%s")
_SCORE = {"factor": "%s", "value": "%s"}
_RANKING = {"position": "%d", "factor": "%s", "rank": "%r", "value": "%s",
            "breakdown": dict.fromkeys(scoring.RankBreakdown._fields, "%r")}
_MAP_ENTRY = {"id": "%s", "importance": "%r", "performance": "%r"}
_COMPONENT = {"id": "%s", "essential": "%d", "cvr": "%s", "passes": "%s"}
_DIMENSION = {"dimension": "%s", "respondents": "%d", "items": "%d", "alpha": "%r", "passes": "%s"}
_FUZZY = attrgetter("w_fuzzy", "r_fuzzy")  # a profile's two fuzzy values


class IoFailureError(OSError):
    """A report file could not be written."""

    def __init__(self, path: str, cause: Exception):
        self.path = path
        super().__init__(f"cannot write {path}: {cause}")


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
    """All pipeline results, ``profiles`` in factor-id order. ``sections`` mirrors the JSON.

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

    def sections(self):
        """Each top-level ``(key, value)`` of the structured report, in schema order.

        A section is built when it is asked for. Every list of factor rows
        (``aggregated``, ``defuzzified``, each kind under ``scores`` and
        ``rankings``, each map cell's ``factors``, and the psychometrics
        ``components`` and ``dimensions``) is a ``Table`` that builds one row per
        step, so a writer that consumes each row before it asks for the next
        holds one row at a time.
        """
        yield "schema", SCHEMA
        scale_path = self.config.scale_path
        yield "config", {
            "scale": "builtin" if scale_path is None else str(scale_path),
            "thresholds": [self.config.thresholds.t1, self.config.thresholds.t2],
            "partition_mode": self.config.partition_mode,
            "cffs_mode": self.config.cffs_mode,
        }
        yield "input", {
            "source": self.input_source,
            "bundled": self.comparison is not None,
            "factor_count": len(self.profiles),
        }
        yield "aggregated", Table(_AGGREGATED, (
            (_str(p.factor.id), _str(p.factor.name), _str(p.factor.dimension),
             importance, performance)
            for p, importance, performance in _pair_texts(_fuzzy_json, self.profiles, _FUZZY)
        ))
        yield "defuzzified", Table(_DEFUZZIFIED, (
            (_str(p.factor.id), importance, performance, *map(_str, p.region))
            for p, importance, performance in _pair_texts(
                _finite_text, self.profiles, attrgetter("e_w", "e_r"))
        ))
        yield "partition", {
            "mode": self.config.partition_mode,
            "failure_candidates": [p.factor.id for p in self.candidates[scoring.FAILURE]],
            "success_candidates": [p.factor.id for p in self.candidates[scoring.SUCCESS]],
            "balanced": [p.factor.id for p in self.balanced],
        }
        rankings = self.rankings
        # each score's text, formatted once for both tables and freed after them
        values = {kind: [_str(rf.score.value.to_text()) for rf in ranking]
                  for kind, ranking in rankings.items()}
        yield "scores", {kind: _scores_table(kind, _SCORE, ranking, (
            (_str(rf.factor.id), value) for rf, value in zip(ranking, values[kind])
        )) for kind, ranking in rankings.items()}
        yield "rankings", {kind: _scores_table(kind, _RANKING, ranking, (
            (position, _str(rf.factor.id), rf.rank, value, *rf.breakdown)
            for position, (rf, value) in enumerate(zip(ranking, values[kind]), start=1)
        )) for kind, ranking in rankings.items()}
        del values
        yield "map", {
            "thresholds": [self.config.thresholds.t1, self.config.thresholds.t2],
            "regions": [{**cell._asdict(), "factors": Table(_MAP_ENTRY, (
                (_str(p.factor.id), p.e_w, p.e_r) for p in members
            ))} for cell, members in ipamap.by_cell(self.profiles).items()],
        }
        yield "psychometrics", _psychometrics_section(self.psychometrics)
        yield "notes", list(self.notes)

    def to_structured(self) -> dict:
        """The structured report as ``json.loads`` reads the text that ``json_chunks`` writes."""
        return json.loads("".join(json_chunks(self.sections())))


def _texts(format, values: list):
    """``format`` of each of ``values``, in order.

    An object that occurs more than once in ``values`` is formatted once: a fuzzy
    value that ``parse_aggregated`` shares between the cells of one text, the crisp
    value that the place stage gives each fuzzy value object, or the CVR that the
    psychometrics stage gives each distinct count. The memo is keyed by identity,
    not by equality, because ``0.0`` and ``-0.0`` compare equal but print
    differently. It holds only the repeated objects' texts, and it is freed with
    this iterator.
    """
    counts = Counter(map(id, values))
    # the repeated objects, each None until it is first formatted
    texts = dict.fromkeys(compress(counts, map((1).__lt__, counts.values())))
    del counts  # freed before any text is built
    for value in values:
        key = id(value)
        text = texts.get(key)
        if text is None:
            text = format(value)
            if key in texts:
                texts[key] = text
        yield text


def _pair_texts(format, profiles, pair: attrgetter):
    """Each profile, with ``format`` of each of the two values that ``pair`` reads from it."""
    texts = _texts(format, list(chain.from_iterable(map(pair, profiles))))
    return zip(profiles, texts, texts)  # two texts per profile, in order


def _fuzzy_json(value) -> str:
    return _str(value.to_text())


def _scores_table(kind: str, fields: dict, ranking, rows) -> Table:
    """A table of ``kind``'s scores, ``rows`` in ``ranking``'s order.

    A failure score's row ends with its mode, which a success score does not have.
    """
    if kind == scoring.SUCCESS:
        return Table(fields, rows)
    return Table({**fields, "mode": "%s"},
                 ((*row, _str(rf.score.mode)) for row, rf in zip(rows, ranking)))


def _psychometrics_section(summary: PsychometricsSummary | None) -> dict:
    """The ``psychometrics`` section, its components and dimensions as ``Table``s."""
    if summary is None:
        return {"provided": False}
    section = {"provided": True, "source": summary.source}
    if summary.components:
        section["content_validity"] = {
            "panel_size": summary.panel_size,
            "threshold": summary.cvr_threshold,
            "components": Table(_COMPONENT, (
                (_str(cid), essential, value, _BOOL[passes])
                for (cid, essential, _, passes), value in zip(summary.components, _texts(
                    _finite_text, [value for _, _, value, _ in summary.components]))
            )),
        }
    if summary.dimensions:
        section["reliability"] = {
            "threshold": summary.alpha_threshold,
            "dimensions": Table(_DIMENSION, (
                (_str(name), respondents, items, alpha, _BOOL[passes])
                for name, respondents, items, alpha, passes in summary.dimensions
            )),
        }
    return section


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
            "reference_order": [fid for fid, _ in orders[kind]],
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
    by identity, as in ``_texts``, and freed on return.
    """
    crisp = {}

    def defuzzified(value) -> float:
        key = id(value)
        e = crisp.get(key)
        if e is None:
            e = crisp[key] = dtrat(value)
        return e

    placed = []
    for p in sorted(profiles, key=lambda p: sort_key(p.factor.id)):
        e_w, e_r = defuzzified(p.w_fuzzy), defuzzified(p.r_fuzzy)
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


# ---------------------------------------------------------------------------
# Emission

def _write_atomic(path: str, chunks) -> None:
    """Write the text ``chunks`` as UTF-8, whatever the locale, through a new temp file and a rename.

    The umask sets the file mode.
    """
    directory, name = os.path.split(path)
    tmp_name = os.path.join(directory, f".{name}.{os.urandom(6).hex()}")
    try:
        os.makedirs(directory, exist_ok=True)
        try:
            with open(tmp_name, "x", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
            os.replace(tmp_name, path)
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoFailureError(path, exc) from exc


def _field(text: str) -> str:
    """``text`` as one delimited field: quoted, its quotes doubled, iff it holds ``,`` ``"`` CR or LF."""
    if '"' in text or "," in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _delimited(fields: dict, rows) -> str:
    """A delimited file: the header of ``fields``, then one line per row of their ``%`` formats.

    A row gives its texts through ``_field``, but for the fixed words this module writes
    (bands, zones, kinds, modes, metric names), which need no quotes.
    """
    line = ",".join(fields.values()) + "\n"
    return ",".join(fields) + "\n" + "".join(map(line.__mod__, rows))


def _delimited_files(report: Report):
    """Each delimited file as ``(name, text)``, built when it is asked for."""
    nd = DISPLAY_DECIMALS
    yield "aggregated.csv", _delimited(
        dict.fromkeys(("factor_id", "name", "dimension", "importance", "performance"), "%s"),
        ((_field(p.factor.id), _field(p.factor.name), _field(p.factor.dimension),
          importance, performance)
         for p, importance, performance in _pair_texts(
             lambda value: _field(value.to_text(nd)), report.profiles, _FUZZY)),
    )
    yield "defuzzified.csv", _delimited(
        {"factor_id": "%s", "name": "%s", "dimension": "%s", "importance": f"%.{nd}f",
         "performance": f"%.{nd}f", **dict.fromkeys(ipamap.MapRegion._fields, "%s")},
        ((_field(p.factor.id), _field(p.factor.name), _field(p.factor.dimension), p.e_w, p.e_r,
          *p.region)
         for p in report.profiles),
    )
    yield "map.txt", ipamap.render_text(report.profiles, report.config.thresholds)
    yield "notes.txt", "".join(f"{i}. {note}\n" for i, note in enumerate(report.notes, start=1))
    for kind, ranking in report.rankings.items():
        ranked = {rf.factor.id: rf for rf in ranking}
        yield f"scores_{kind}.csv", _delimited(
            {"factor_id": "%s", "kind": kind, "mode": "%s", "value": "%s"},
            ((_field(rf.factor.id), rf.score.mode or "", _field(rf.score.value.to_text(nd)))
             for rf in (ranked[p.factor.id] for p in report.candidates[kind])),  # in id order
        )
        yield f"ranking_{kind}.csv", _delimited(
            {"position": "%d", "factor_id": "%s",
             **dict.fromkeys(("rank", *scoring.RankBreakdown._fields[:-1]), "%.6f")},
            ((position, _field(rf.factor.id), rf.rank, *rf.breakdown[:-1])  # its last term is rank
             for position, rf in enumerate(ranking, start=1)),
        )
    summary = report.psychometrics
    if summary is not None:
        cvr_threshold = "%.6g" % summary.cvr_threshold
        alpha_threshold = "%.6g" % summary.alpha_threshold
        yield "psychometrics.csv", _delimited(
            {"metric": "%s", "id": "%s", "value": "%.6f", "threshold": "%s", "passes": "%s"},
            chain((("cvr", _field(cid), value, cvr_threshold, _BOOL[passes])
                   for cid, _, value, passes in summary.components),
                  (("cronbach_alpha", _field(name), alpha, alpha_threshold, _BOOL[passes])
                   for name, _, _, alpha, passes in summary.dimensions)),
        )


_BOOL = {True: "true", False: "false"}
# ``_chunks`` takes apart a dict, a ``Table``, and a list or tuple that holds one
# of _CONTAINERS; ``_ENCODER`` writes every other value, at indent 0.
_CONTAINERS = (dict, list, tuple, Table)
_ENCODER = json.JSONEncoder(indent=2, allow_nan=False)


def _finite_text(value: float) -> str:
    """What a ``%r`` field of a ``Table`` writes of ``value``, for ``_texts`` to format ahead."""
    return repr(value) if math.isfinite(value) else _ENCODER.encode(value)  # which raises


def _chunks(value, indent: str):
    """The text of ``value`` at ``indent`` in pieces, or in one from ``_ENCODER`` re-indented:
    each newline of JSON text starts a line, since a string holds none."""
    if isinstance(value, dict):
        return _object_chunks(value.items(), indent)
    if isinstance(value, Table):
        return _table_chunks(value, indent)
    if isinstance(value, (list, tuple)) and any(map(isinstance, value, repeat(_CONTAINERS))):
        return _array_chunks(value, indent)
    return (_ENCODER.encode(value).replace("\n", "\n" + indent),)


def _row_template(fields: dict, indent: str) -> tuple[str, list[str]]:
    """The ``%`` template of one row of ``fields`` at ``indent``, and its formats in order."""
    inner = indent + "  "
    items, formats = [], []
    for key, format in fields.items():
        if isinstance(format, dict):
            format, nested = _row_template(format, inner)
            formats += nested
        else:
            formats.append(format)
        items.append(f"{encode_basestring_ascii(key).replace('%', '%%')}: {format}")
    return "{\n" + inner + (",\n" + inner).join(items) + f"\n{indent}}}", formats


# A table's rows are taken this many at a time, so that the floats of a batch are
# checked in one pass in C and its rows are written as one piece.
_BATCH = 32


def _table_chunks(table: Table, indent: str):
    """The array of ``table``'s rows at ``indent``, ``_BATCH`` rows to a piece.
    A NaN or infinity raises ``ValueError``."""
    inner = indent + "  "
    template, formats = _row_template(table.fields, inner)
    floats = repeat([format == "%r" for format in formats])
    opening, separator = "[\n" + inner, ",\n" + inner
    rows = iter(table.rows)
    for batch in iter(lambda: list(islice(rows, _BATCH)), []):
        if not all(map(math.isfinite, chain.from_iterable(map(compress, batch, floats)))):
            list(map(_finite_text, chain.from_iterable(map(compress, batch, floats))))  # raises
        yield opening + separator.join(map(template.__mod__, batch))
        opening = separator
    yield "[]" if opening[0] == "[" else f"\n{indent}]"


def json_chunks(sections):
    """The text of ``json.dumps(dict(sections), indent=2, allow_nan=False) + "\\n"``, in pieces.

    Values are dicts, ``Table``s, lists and tuples, and scalars, but no
    iterators; keys must be strings, and a NaN or infinity raises
    ``ValueError``. A ``Table``'s rows go through one ``%`` template, built
    once for the table, ``_BATCH`` rows to a piece; a dict, and a list or tuple
    that holds a container, one value at a time; every other value through
    ``json.JSONEncoder``. So a caller that writes the pieces out as they come
    holds one piece and one batch of rows at a time.
    """
    yield from _object_chunks(sections, "")
    yield "\n"


def _object_chunks(pairs, indent: str):
    inner = indent + "  "
    opening, separator = "{\n" + inner, ",\n" + inner
    for key, value in pairs:
        yield f"{opening}{encode_basestring_ascii(key)}: "
        yield from _chunks(value, inner)
        opening = separator
    yield "{}" if opening[0] == "{" else f"\n{indent}}}"


def _array_chunks(items, indent: str):
    """The array of ``items``, of which there is at least one, at ``indent``."""
    inner = indent + "  "
    opening, separator = "[\n" + inner, ",\n" + inner
    for item in items:
        yield opening
        yield from _chunks(item, inner)
        opening = separator
    yield f"\n{indent}]"


def emit(report: Report, out_dir: str | Path, formats) -> list[str]:
    """Write the report to ``out_dir`` in each of ``formats``.

    Files are written atomically (temp file + rename). Returns the written
    paths in a fixed order, each ``out_dir`` as given joined with the file's
    name. An empty ``out_dir`` names no directory, not the working one, and is
    refused as an unknown format is, before any file is written.
    """
    if out_dir == "":
        raise ValueError("out_dir must not be empty")
    unknown = [f for f in formats if f not in REPORT_FORMATS]
    if unknown:
        raise ValueError(f"unknown report formats: {unknown}")

    written: list[str] = []
    for format in dict.fromkeys(formats):
        if format == STRUCTURED:
            files = [("report.json", json_chunks(report.sections()))]
        elif format == DELIMITED:
            files = ((name, [text]) for name, text in _delimited_files(report))
        else:
            files = [("map.svg", [ipamap.render_svg(report.profiles, report.config.thresholds)])]
        for name, chunks in files:  # each file is built after the one before it is written
            path = os.path.join(out_dir, name)
            _write_atomic(path, chunks)
            written.append(path)
    return written
