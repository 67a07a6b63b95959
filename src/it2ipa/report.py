"""End-to-end pipeline: input files to report tables, map, and notes."""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from collections import namedtuple
from collections.abc import Iterator
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import fixtures, ipamap, scoring
from .defuzz import dtrat
from .errors import InputFileError
from .ipamap import MapThresholds, PlacedFactor
from .numbers import DivisorSpansZeroError
from .scale import UnknownTermError, default_scale, load_scale
from .survey import (
    Psychometrics,
    cronbach_alpha,
    cvr,
    DegenerateDataError,
    EmptyMatrixError,
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


class IoFailureError(OSError):
    """A report file could not be written."""

    def __init__(self, path: Path, cause: Exception):
        self.path = Path(path)
        super().__init__(f"cannot write {path}: {cause}")


class PipelineConfig(namedtuple("PipelineConfig", "scale_path thresholds partition_mode cffs_mode")):
    """Everything the pipeline needs besides the input files."""

    __slots__ = ()

    def __new__(cls, scale_path: str | None = None, thresholds: MapThresholds = MapThresholds(),
                partition_mode: str = ipamap.REGION_MODE, cffs_mode: str = scoring.AS_COMPUTED):
        if partition_mode not in ipamap.PARTITION_MODES:
            raise ValueError(f"unknown partition mode: {partition_mode!r}")
        if cffs_mode not in scoring.FAILURE_MODES:
            raise ValueError(f"unknown failure-score mode: {cffs_mode!r}")
        return tuple.__new__(cls, (scale_path, thresholds, partition_mode, cffs_mode))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too


class Report(namedtuple("Report", (
    "config scale_source input_source used_bundled_input profiles failure_candidates"
    " success_candidates balanced success_ranking failure_ranking psychometrics map notes"
), defaults=((),))):
    """All pipeline results, ``profiles`` in factor-id order. ``sections`` mirrors the JSON."""

    __slots__ = ()

    def sections(self):
        """Each top-level ``(key, value)`` of the structured report, in schema order.

        A section is built when it is asked for, and the factor tables
        (``aggregated``, ``defuzzified`` and each kind under ``scores`` and
        ``rankings``) are iterators that build one row per step, so a writer
        that consumes each row before it asks for the next holds one row at a time.
        """
        yield "schema", SCHEMA
        yield "config", {
            "scale": self.scale_source,
            "thresholds": [self.config.thresholds.t1, self.config.thresholds.t2],
            "partition_mode": self.config.partition_mode,
            "cffs_mode": self.config.cffs_mode,
        }
        yield "input", {
            "source": self.input_source,
            "bundled": self.used_bundled_input,
            "factor_count": len(self.profiles),
        }
        yield "aggregated", (
            {
                "factor": p.factor.id,
                "name": p.factor.name,
                "dimension": p.factor.dimension,
                "importance": p.w_fuzzy.to_text(),
                "performance": p.r_fuzzy.to_text(),
            }
            for p in self.profiles
        )
        yield "defuzzified", (
            {
                "factor": p.factor.id,
                "importance": p.e_w,
                "performance": p.e_r,
                "importance_band": p.region.importance_band,
                "performance_band": p.region.performance_band,
                "zone": p.region.zone,
            }
            for p in self.profiles
        )
        yield "partition", {
            "mode": self.config.partition_mode,
            "failure_candidates": [p.factor.id for p in self.failure_candidates],
            "success_candidates": [p.factor.id for p in self.success_candidates],
            "balanced": [p.factor.id for p in self.balanced],
        }
        rankings = {scoring.SUCCESS: self.success_ranking, scoring.FAILURE: self.failure_ranking}
        # each score's text, formatted once for both tables and freed after them
        values = {kind: [rf.score.value.to_text() for rf in ranking] for kind, ranking in rankings.items()}
        yield "scores", {kind: _score_rows(ranking, values[kind]) for kind, ranking in rankings.items()}
        yield "rankings", {kind: _ranking_rows(ranking, values[kind])
                           for kind, ranking in rankings.items()}
        del values
        yield "map", self.map
        yield "psychometrics", self.psychometrics if self.psychometrics else {"provided": False}
        yield "notes", list(self.notes)

    def to_structured(self) -> dict:
        """The structured report as plain dicts, lists and scalars."""
        return {key: _listed(value) for key, value in self.sections()}


def _score_rows(ranking, values):
    for rf, value in zip(ranking, values):
        row = {"factor": rf.factor.id, "value": value}
        if rf.score.mode is not None:
            row["mode"] = rf.score.mode
        yield row


def _ranking_rows(ranking, values):
    for position, (rf, value) in enumerate(zip(ranking, values), start=1):
        row = {
            "position": position,
            "factor": rf.factor.id,
            "rank": rf.rank,
            "value": value,
            "breakdown": rf.breakdown._asdict(),
        }
        if rf.score.mode is not None:
            row["mode"] = rf.score.mode
        yield row


def _listed(value):
    """``value`` with each iterator in it, in dicts at any depth, made a list."""
    if isinstance(value, dict):
        return {key: _listed(v) for key, v in value.items()}
    return list(value) if isinstance(value, Iterator) else value


def _summarize_psychometrics(data: Psychometrics, source: str) -> dict:
    summary: dict = {"provided": True, "source": source}
    if data.essential_counts:
        components = []
        for cid in sorted(data.essential_counts, key=factor_sort_key):
            count = data.essential_counts[cid]
            try:
                value = cvr(count, data.panel_size)
            except InvalidCountsError as exc:
                raise InputFileError(source, f"component {cid}: {exc}") from exc
            components.append({
                "id": cid,
                "essential": count,
                "cvr": value,
                "passes": value > data.cvr_threshold,
            })
        summary["content_validity"] = {
            "panel_size": data.panel_size,
            "threshold": data.cvr_threshold,
            "components": components,
        }
    if data.dimension_scores:
        dimensions = []
        for name in sorted(data.dimension_scores):
            grid = data.dimension_scores[name]
            try:
                alpha = cronbach_alpha(grid)
            except DegenerateDataError as exc:
                raise InputFileError(source, f"dimension {name!r}: {exc}") from exc
            dimensions.append({
                "dimension": name,
                "respondents": len(grid),
                "items": len(grid[0]),
                "alpha": alpha,
                "passes": alpha >= data.alpha_threshold,
            })
        summary["reliability"] = {
            "threshold": data.alpha_threshold,
            "dimensions": dimensions,
        }
    return summary


def _endpoint_deviation(computed, reference) -> float:
    pairs = zip(
        computed.upper.endpoints + computed.lower.endpoints,
        reference.upper.endpoints + reference.lower.endpoints,
    )
    return max(abs(c - r) for c, r in pairs)


def reference_comparison(report: Report) -> dict:
    """How far a report on the bundled dataset is from its reference tables.

    Per kind (``success``, ``failure``): the largest endpoint deviation of the
    score tuples, and the computed candidates and ranking order beside the
    reference ones. ``unlisted`` names the factors in neither reference list.
    """
    scores, rankings = fixtures.reference_scores(), fixtures.reference_rankings()
    comparison = {}
    for kind, candidates, ranking, score in (
        (scoring.SUCCESS, report.success_candidates, report.success_ranking,
         scoring.success_score),
        (scoring.FAILURE, report.failure_candidates, report.failure_ranking,
         functools.partial(scoring.failure_score, mode=report.config.cffs_mode)),
    ):
        comparison[kind] = {
            "deviation": max(
                _endpoint_deviation(
                    score(p.factor, p.w_fuzzy, p.r_fuzzy).value, scores[kind][p.factor.id]
                )
                for p in report.profiles if p.factor.id in scores[kind]
            ),
            "candidates": [p.factor.id for p in candidates],
            "reference_candidates": sorted(scores[kind], key=factor_sort_key),
            "order": [rf.factor.id for rf in ranking],
            "reference_order": [fid for fid, _ in rankings[kind]],
        }
    listed = scores[scoring.SUCCESS].keys() | scores[scoring.FAILURE].keys()
    unlisted = {p.factor.id for p in report.profiles} - listed
    comparison["unlisted"] = sorted(unlisted, key=factor_sort_key)
    return comparison


def _build_notes(report: Report) -> tuple[str, ...]:
    notes = []
    if report.config.cffs_mode == scoring.AS_COMPUTED:
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
    if not report.used_bundled_input:
        return tuple(notes)

    comparison = reference_comparison(report)
    success, failure = comparison[scoring.SUCCESS], comparison[scoring.FAILURE]
    notes.append(
        f"Success score tuples vs reference ({len(success['reference_candidates'])} factors): "
        f"max endpoint deviation {success['deviation']:.4f}."
    )
    agreement = "within" if failure["deviation"] <= 0.005 else "OUTSIDE"
    notes.append(
        f"Failure score tuples ({report.config.cffs_mode}) vs reference "
        f"({len(failure['reference_candidates'])} factors): "
        f"max endpoint deviation {failure['deviation']:.4f} ({agreement} the 0.005 "
        f"reproduction tolerance)."
    )
    if any(c["candidates"] != c["reference_candidates"] for c in (success, failure)):
        notes.append(
            f"The reference success/failure membership lists are not derivable from the "
            f"{report.config.partition_mode} partition rule on the defuzzified values: "
            f"computed failure candidates {failure['candidates']} vs "
            f"reference {failure['reference_candidates']}; computed success candidates "
            f"{success['candidates']} vs reference {success['reference_candidates']}. "
            f"Factors absent from both reference lists: {comparison['unlisted']}."
        )
    for kind, c in ((scoring.SUCCESS, success), (scoring.FAILURE, failure)):
        if c["order"] and c["order"] != c["reference_order"]:
            notes.append(
                f"Computed {kind} ranking order {c['order']} differs from the "
                f"reference order {c['reference_order']}."
            )
    return tuple(notes)


def run_pipeline(
    config: PipelineConfig,
    ratings_path: str | Path | None = None,
    aggregated_path: str | Path | None = None,
    psychometrics_path: str | Path | None = None,
) -> Report:
    """Run the full pipeline and return the assembled report.

    Exactly one of ``ratings_path`` / ``aggregated_path`` may be given; with
    neither, the bundled reference dataset is used. The result is a pure
    function of the inputs and the configuration. Each stage runs once per
    factor and builds new immutable records. Of several defects, the first
    reported is in the scale file, then the main input, then the psychometrics
    file, and last a failure score that cannot be computed or ranked.
    """
    if ratings_path is not None and aggregated_path is not None:
        raise ValueError("give either a ratings file or an aggregated file, not both")

    if config.scale_path:
        scale = load_scale(config.scale_path)
        scale_source = str(config.scale_path)
    else:
        scale = default_scale()
        scale_source = "builtin"

    used_bundled = False
    if ratings_path is not None:
        input_source = str(ratings_path)
        matrix = parse_ratings(ratings_path)
        try:
            profiles = aggregate(matrix, scale)
        except (UnknownTermError, EmptyMatrixError) as exc:
            raise InputFileError(input_source, exc.args[0]) from exc
    else:
        if aggregated_path is None:
            aggregated_path = fixtures.aggregated_path()
        profiles = parse_aggregated(aggregated_path)
        input_source = str(aggregated_path)
        used_bundled = Path(aggregated_path).resolve() == fixtures.aggregated_path().resolve()

    # Summarized before the factors are placed and scored, so that the score
    # grids are freed before those stages allocate.
    psychometrics = None
    if psychometrics_path is not None:
        psychometrics = _summarize_psychometrics(load_psychometrics(psychometrics_path),
                                                 str(psychometrics_path))

    placed = []
    for p in sorted(profiles, key=lambda p: factor_sort_key(p.factor.id)):
        e_w, e_r = dtrat(p.w_fuzzy), dtrat(p.r_fuzzy)
        region = ipamap.place(e_w, e_r, config.thresholds)
        placed.append(PlacedFactor(*p, e_w, e_r, region))

    failure_candidates, success_candidates, balanced = ipamap.partition(
        placed, config.partition_mode
    )
    success_scores = [
        scoring.success_score(p.factor, p.w_fuzzy, p.r_fuzzy) for p in success_candidates
    ]
    failure_scores = []
    for p in failure_candidates:
        try:
            failure_scores.append(
                scoring.failure_score(p.factor, p.w_fuzzy, p.r_fuzzy, mode=config.cffs_mode)
            )
        except DivisorSpansZeroError as exc:
            raise InputFileError(
                input_source, f"factor {p.factor.id}: {config.cffs_mode} failure score: {exc}"
            ) from exc
    try:
        failure_ranking = scoring.rank_order(failure_scores)
    except scoring.NonFiniteScoreError as exc:  # importance support starting just above 0
        raise InputFileError(input_source, str(exc)) from exc

    report = Report(
        config=config,
        scale_source=scale_source,
        input_source=input_source,
        used_bundled_input=used_bundled,
        profiles=placed,
        failure_candidates=failure_candidates,
        success_candidates=success_candidates,
        balanced=balanced,
        success_ranking=scoring.rank_order(success_scores),
        failure_ranking=failure_ranking,
        psychometrics=psychometrics,
        map=ipamap.build_map(placed, config.thresholds),
    )
    return report._replace(notes=_build_notes(report))


# ---------------------------------------------------------------------------
# Emission

def _write_atomic(path: Path, chunks) -> None:
    """Write the text ``chunks`` as UTF-8, whatever the locale, through a new temp file and a rename.

    The umask sets the file mode.
    """
    tmp_name = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp_name, "x", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
            os.replace(tmp_name, path)
        except BaseException:
            tmp_name.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoFailureError(path, exc) from exc


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _crisp(value: float) -> str:
    return f"{value:.{DISPLAY_DECIMALS}f}"


def _delimited_files(report: Report):
    """Each delimited file as ``(name, text)``, built when it is asked for."""
    nd = DISPLAY_DECIMALS
    yield "aggregated.csv", _csv_text(
        ["factor_id", "name", "dimension", "importance", "performance"],
        ([p.factor.id, p.factor.name, p.factor.dimension,
          p.w_fuzzy.to_text(nd), p.r_fuzzy.to_text(nd)]
         for p in report.profiles),
    )
    yield "defuzzified.csv", _csv_text(
        ["factor_id", "name", "dimension", "importance", "performance",
         "importance_band", "performance_band", "zone"],
        ([p.factor.id, p.factor.name, p.factor.dimension,
          _crisp(p.e_w), _crisp(p.e_r),
          p.region.importance_band, p.region.performance_band, p.region.zone]
         for p in report.profiles),
    )
    yield "map.txt", ipamap.render_text(report.map)
    yield "notes.txt", "".join(f"{i}. {note}\n" for i, note in enumerate(report.notes, start=1))
    for kind, candidates, ranking in (
            (scoring.SUCCESS, report.success_candidates, report.success_ranking),
            (scoring.FAILURE, report.failure_candidates, report.failure_ranking)):
        ranked = {rf.factor.id: rf for rf in ranking}
        yield f"scores_{kind}.csv", _csv_text(
            ["factor_id", "kind", "mode", "value"],
            ([rf.factor.id, kind, rf.score.mode or "", rf.score.value.to_text(nd)]
             for rf in (ranked[p.factor.id] for p in candidates)),  # candidates are in id order
        )
        yield f"ranking_{kind}.csv", _csv_text(
            ["position", "factor_id", "rank", *scoring.RankBreakdown._fields[:-1]],
            ([str(i), rf.factor.id, f"{rf.rank:.6f}"]
             + [f"{term:.6f}" for term in rf.breakdown[:-1]]  # ``rank`` is the last field
             for i, rf in enumerate(ranking, start=1)),
        )
    if report.psychometrics:
        rows = []
        content = report.psychometrics.get("content_validity")
        if content:
            for component in content["components"]:
                rows.append([
                    "cvr", component["id"], f"{component['cvr']:.6f}",
                    f"{content['threshold']:.6g}", str(component["passes"]).lower(),
                ])
        reliability = report.psychometrics.get("reliability")
        if reliability:
            for dim in reliability["dimensions"]:
                rows.append([
                    "cronbach_alpha", dim["dimension"], f"{dim['alpha']:.6f}",
                    f"{reliability['threshold']:.6g}", str(dim["passes"]).lower(),
                ])
        yield "psychometrics.csv", _csv_text(["metric", "id", "value", "threshold", "passes"], rows)


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# How json.dumps writes a value of exactly this type; an instance of a subclass
# is written as the first type here that it is an instance of (bool before int).
_SCALAR_TEXT = {str: encode_basestring_ascii, float: _float_text,
                bool: {True: "true", False: "false"}.get, int: int.__repr__,
                type(None): {None: "null"}.get}


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at ``indent``."""
    if isinstance(value, dict):
        pairs, brackets = zip([encode_basestring_ascii(k) + ": " for k in value], value.values()), "{}"
    elif isinstance(value, (list, tuple)):
        pairs, brackets = zip(repeat(""), value), "[]"
    else:  # a scalar, or an instance of a subclass of one
        for kind, write in _SCALAR_TEXT.items():
            if isinstance(value, kind):
                return write(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return brackets
    inner = indent + "  "
    items = [key + (write(v) if (write := _SCALAR_TEXT.get(type(v))) else _json_text(v, inner))
             for key, v in pairs]
    # Brackets join the end items, so that only the join copies the whole text.
    items[0] = f"{brackets[0]}\n{inner}{items[0]}"
    items[-1] = f"{items[-1]}\n{indent}{brackets[1]}"
    return f",\n{inner}".join(items)


# Rows are joined into chunks of about this many characters before they are
# handed on: a write per row made the structured emit of aggregated-5000
# (50,000 pieces) about 3 % slower, and a chunk is small beside the report.
_CHUNK_CHARS = 16384


def json_chunks(sections):
    """The text of ``json.dumps(dict(sections), indent=2, allow_nan=False) + "\\n"``, in pieces.

    Keys must be strings, and a NaN or infinity raises ``ValueError``. Each
    iterator is written as a list, and ``json.dumps``'s pure-Python indenting
    encoder is not used.
    A dict is rendered one value at a time, and a list, tuple or iterator one
    item at a time; each item is rendered whole. Each piece is rendered only
    when the one before it has been handed on, so a caller that writes the
    pieces out as they come holds one piece, of about ``_CHUNK_CHARS``
    characters or one item, at a time.
    """
    yield from _object_chunks(sections, "")
    yield "\n"


def _object_chunks(pairs, indent: str):
    inner = indent + "  "
    opening, separator = "{\n" + inner, ",\n" + inner
    for key, value in pairs:
        yield f"{opening}{encode_basestring_ascii(key)}: "
        opening = separator
        if isinstance(value, dict):
            yield from _object_chunks(value.items(), inner)
        elif isinstance(value, (list, tuple, Iterator)):
            yield from _array_chunks(value, inner)
        else:
            yield _json_text(value, inner)
    yield "{}" if opening[0] == "{" else f"\n{indent}}}"


def _array_chunks(items, indent: str):
    inner = indent + "  "
    opening, separator = "[\n" + inner, ",\n" + inner
    rows, size = [], 0
    for item in items:
        rows.append(_json_text(item, inner))
        size += len(rows[-1])
        if size >= _CHUNK_CHARS:
            yield opening + separator.join(rows)
            opening, rows, size = separator, [], 0
    if rows:
        yield f"{opening}{separator.join(rows)}\n{indent}]"
    else:
        yield "[]" if opening[0] == "[" else f"\n{indent}]"


def emit(report: Report, out_dir: str | Path, formats) -> list[Path]:
    """Write the report to ``out_dir`` in each of ``formats``.

    Files are written atomically (temp file + rename). Returns the written
    paths in a fixed order.
    """
    out = Path(out_dir)
    unknown = [f for f in formats if f not in REPORT_FORMATS]
    if unknown:
        raise ValueError(f"unknown report formats: {unknown}")

    written: list[Path] = []
    for format in dict.fromkeys(formats):
        if format == STRUCTURED:
            files = [("report.json", json_chunks(report.sections()))]
        elif format == DELIMITED:
            files = ((name, [text]) for name, text in _delimited_files(report))
        else:
            files = [("map.svg", [ipamap.render_svg(report.profiles, report.config.thresholds)])]
        for name, chunks in files:  # each file is built after the one before it is written
            _write_atomic(out / name, chunks)
            written.append(out / name)
    return written
