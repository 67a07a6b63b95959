"""End-to-end pipeline: input files to report tables, map, and notes."""

from __future__ import annotations

import functools
import json
import math
import os
from collections import namedtuple
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
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
_DEFUZZIFIED = {"factor": "%s", "importance": "%r", "performance": "%r",
                **dict.fromkeys(ipamap.MapRegion._fields, "%s")}
_SCORE = {"factor": "%s", "value": "%s"}
_RANKING = {"position": "%d", "factor": "%s", "rank": "%r", "value": "%s",
            "breakdown": dict.fromkeys(scoring.RankBreakdown._fields, "%r")}
_MAP_ENTRY = {"id": "%s", "importance": "%r", "performance": "%r"}
_COMPONENT = {"id": "%s", "essential": "%d", "cvr": "%r", "passes": "%s"}
_DIMENSION = {"dimension": "%s", "respondents": "%d", "items": "%d", "alpha": "%r", "passes": "%s"}


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
             _str(importance), _str(performance))
            for p, importance, performance in _fuzzy_texts(self.profiles)
        ))
        yield "defuzzified", Table(_DEFUZZIFIED, (
            (_str(p.factor.id), p.e_w, p.e_r, *map(_str, p.region)) for p in self.profiles
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


def _fuzzy_texts(profiles, decimals: int | None = None):
    """Each profile, with its importance's and its performance's ``to_text(decimals)``.

    The text of a value object that occurs more than once, as ``parse_aggregated``
    shares one per distinct cell text, is formatted once. The memo is keyed by
    identity, not by equality, because ``0.0`` and ``-0.0`` compare equal but
    print differently. It holds only the repeated objects, and it is freed with
    this iterator.
    """
    seen, repeated = set(), set()
    for p in profiles:
        for key in (id(p.w_fuzzy), id(p.r_fuzzy)):
            (repeated if key in seen else seen).add(key)
    del seen  # freed before any text is built
    texts = dict.fromkeys(repeated)  # None until the object is first formatted
    del repeated

    def text(value) -> str:
        key = id(value)
        formatted = texts.get(key)
        if formatted is None:
            formatted = value.to_text(decimals)
            if key in texts:
                texts[key] = formatted
        return formatted

    for p in profiles:
        yield p, text(p.w_fuzzy), text(p.r_fuzzy)


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
                for cid, essential, value, passes in summary.components
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


def _summarize_psychometrics(path: str | Path | None) -> PsychometricsSummary | None:
    """The psychometrics stage: the checks of the file at ``path``, or ``None`` without one."""
    if path is None:
        return None
    data, source = load_psychometrics(path), str(path)
    components = []
    for cid in sorted(data.essential_counts, key=factor_sort_key):
        count = data.essential_counts[cid]
        try:
            value = cvr(count, data.panel_size)
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


def _reference_comparison(profiles, cffs_mode: str) -> dict:
    """How far a run on the bundled dataset is from its reference tables.

    Per kind (``success``, ``failure``): the largest endpoint deviation of the
    score tuples, and the reference candidates and ranking order, which
    ``Report.notes`` sets beside the computed ones. ``unlisted`` names the
    factors in neither reference list.
    """
    scores, orders = fixtures.reference_scores(), fixtures.reference_rankings()
    comparison = {}
    for kind, score in _score_functions(cffs_mode).items():
        comparison[kind] = {
            "deviation": max(
                _endpoint_deviation(
                    score(p.factor, p.w_fuzzy, p.r_fuzzy).value, scores[kind][p.factor.id]
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


def _place(profiles, thresholds: MapThresholds) -> list[PlacedFactor]:
    """The place stage: each profile in factor-id order, defuzzified and placed on the map."""
    placed = []
    for p in sorted(profiles, key=lambda p: factor_sort_key(p.factor.id)):
        e_w, e_r = dtrat(p.w_fuzzy), dtrat(p.r_fuzzy)
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
    # Summarized before the factors are placed and scored, so that the score
    # grids are freed before those stages allocate.
    psychometrics = _summarize_psychometrics(psychometrics_path)
    placed = _place(profiles, config.thresholds)
    candidates, balanced = _partition(placed, config.partition_mode)
    return Report(config, source, placed, candidates, balanced,
                  _score_and_rank(candidates, config.cffs_mode, source), psychometrics,
                  _reference_comparison(placed, config.cffs_mode) if bundled else None)


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
          _field(importance), _field(performance))
         for p, importance, performance in _fuzzy_texts(report.profiles, nd)),
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
        yield "psychometrics.csv", _delimited(
            {"metric": "%s", "id": "%s", "value": "%.6f", "threshold": "%.6g", "passes": "%s"},
            chain((("cvr", _field(cid), value, summary.cvr_threshold, _BOOL[passes])
                   for cid, _, value, passes in summary.components),
                  (("cronbach_alpha", _field(name), alpha, summary.alpha_threshold, _BOOL[passes])
                   for name, _, _, alpha, passes in summary.dimensions)),
        )


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


_BOOL = {True: "true", False: "false"}
# How json.dumps writes a value of exactly this type; an instance of a subclass
# is written as the first type here that it is an instance of (bool before int).
_SCALAR_TEXT = {str: encode_basestring_ascii, float: _float_text, bool: _BOOL.get,
                int: int.__repr__, type(None): {None: "null"}.get}


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at ``indent``."""
    return "".join(_chunks(value, indent))


def _chunks(value, indent: str):
    """The text of ``value`` at ``indent`` in pieces: a scalar in one, a container as it streams."""
    inner = indent + "  "
    if isinstance(value, dict):
        return _object_chunks(value.items(), indent)
    if isinstance(value, Table):
        return _array_chunks(_table_texts(value, inner), indent)
    if isinstance(value, (list, tuple)):
        return _array_chunks(_scalar_texts(value) or map(_json_text, value, repeat(inner)), indent)
    for kind, write in _SCALAR_TEXT.items():
        if isinstance(value, kind):
            return (write(value),)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _scalar_texts(values: list | tuple):
    """The texts of ``values`` through one ``map`` if they are of one exact scalar type, else ``None``."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and (write := _SCALAR_TEXT.get(*kinds)):  # an inf or NaN raises in order
        return map(write, values)
    return None


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
# checked in one pass in C.
_BATCH = 32


def _table_texts(table: Table, indent: str):
    """The text of each row of ``table`` at ``indent``; a NaN or infinity raises ``ValueError``."""
    template, formats = _row_template(table.fields, indent)
    floats = repeat([format == "%r" for format in formats])
    rows = iter(table.rows)
    for batch in iter(lambda: list(islice(rows, _BATCH)), []):
        if not all(map(math.isfinite, chain.from_iterable(map(compress, batch, floats)))):
            list(map(_float_text, chain.from_iterable(map(compress, batch, floats))))  # raises
        yield from map(template.__mod__, batch)


# Items are joined into chunks of about this many characters before they are
# handed on: a write per item made the structured emit of aggregated-5000
# (50,000 pieces) about 3 % slower, and a chunk is small beside the report.
_CHUNK_CHARS = 16384


def json_chunks(sections):
    """The text of ``json.dumps(dict(sections), indent=2, allow_nan=False) + "\\n"``, in pieces.

    Values are dicts, ``Table``s, lists and tuples, and scalars, but no
    iterators; keys must be strings, and a NaN or infinity raises
    ``ValueError``. ``json.dumps``'s pure-Python indenting encoder is not used.
    Containers are written only by ``_object_chunks`` (one value at a time)
    and ``_array_chunks`` (one item at a time). A ``Table``'s rows go through
    one ``%`` template, built once for the table, ``_BATCH`` rows at a time,
    and a list of one exact scalar type through one ``map``. Item texts are
    joined into pieces of about ``_CHUNK_CHARS`` characters, so a caller that
    writes the pieces out as they come holds one piece and one batch of rows
    at a time.
    """
    yield from _object_chunks(sections, "")
    yield "\n"


def _object_chunks(pairs, indent: str):
    inner = indent + "  "
    opening, separator = "{\n" + inner, ",\n" + inner
    for key, value in pairs:
        write = _SCALAR_TEXT.get(type(value))  # a value of an exact scalar type in the same piece
        if write:
            yield f"{opening}{encode_basestring_ascii(key)}: {write(value)}"
        else:
            yield f"{opening}{encode_basestring_ascii(key)}: "
            yield from _chunks(value, inner)
        opening = separator
    yield "{}" if opening[0] == "{" else f"\n{indent}}}"


def _array_chunks(texts, indent: str):
    """The array of the item ``texts`` at ``indent``, in pieces of about ``_CHUNK_CHARS``."""
    inner = indent + "  "
    opening, separator = "[\n" + inner, ",\n" + inner
    rows, size = [], 0
    for text in texts:
        rows.append(text)
        size += len(text)
        if size >= _CHUNK_CHARS:
            yield opening + separator.join(rows)
            opening, rows, size = separator, [], 0
    if rows:
        yield f"{opening}{separator.join(rows)}\n{indent}]"
    else:
        yield "[]" if opening[0] == "[" else f"\n{indent}]"


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
