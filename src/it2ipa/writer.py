"""Every output of a ``report.Report``, each parameter named ``report``: the structured report,
the delimited files and the map. This module imports nothing from ``report``."""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from . import ipamap, scoring
from .ipamap import BANDS, MapThresholds, PlacedFactor

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


def sections(report):
    """Each top-level ``(key, value)`` of the structured report, in schema order.

    A section is built when it is asked for. Every list of factor rows
    (``aggregated``, ``defuzzified``, each kind under ``scores`` and
    ``rankings``, each map cell's ``factors``, and the psychometrics
    ``components`` and ``dimensions``) is a ``Table`` that builds one row per
    step, so a writer that consumes each row before it asks for the next
    holds one row at a time.
    """
    yield "schema", SCHEMA
    scale_path = report.config.scale_path
    yield "config", {
        "scale": "builtin" if scale_path is None else str(scale_path),
        "thresholds": [report.config.thresholds.t1, report.config.thresholds.t2],
        "partition_mode": report.config.partition_mode,
        "cffs_mode": report.config.cffs_mode,
    }
    yield "input", {
        "source": report.input_source,
        "bundled": report.comparison is not None,
        "factor_count": len(report.profiles),
    }
    yield "aggregated", Table(_AGGREGATED, (
        (_str(p.factor.id), _str(p.factor.name), _str(p.factor.dimension),
         importance, performance)
        for p, importance, performance in _pair_texts(_fuzzy_json, report.profiles, _FUZZY)
    ))
    yield "defuzzified", Table(_DEFUZZIFIED, (
        (_str(p.factor.id), importance, performance, *map(_str, p.region))
        for p, importance, performance in _pair_texts(
            _finite_text, report.profiles, attrgetter("e_w", "e_r"))
    ))
    yield "partition", {
        "mode": report.config.partition_mode,
        "failure_candidates": [p.factor.id for p in report.candidates[scoring.FAILURE]],
        "success_candidates": [p.factor.id for p in report.candidates[scoring.SUCCESS]],
        "balanced": [p.factor.id for p in report.balanced],
    }
    rankings = report.rankings
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
        "thresholds": [report.config.thresholds.t1, report.config.thresholds.t2],
        "regions": [{**cell._asdict(), "factors": Table(_MAP_ENTRY, (
            (_str(p.factor.id), p.e_w, p.e_r) for p in members
        ))} for cell, members in ipamap.by_cell(report.profiles).items()],
    }
    yield "psychometrics", _psychometrics_section(report.psychometrics)
    yield "notes", list(report.notes)


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


def _psychometrics_section(summary) -> dict:
    """The ``psychometrics`` section of a ``report.PsychometricsSummary``, or of ``None``."""
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


def _delimited_files(report):
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
    yield "map.txt", render_text(report.profiles, report.config.thresholds)
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


def emit(report, out_dir: str | Path, formats) -> list[str]:
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
            files = [("report.json", json_chunks(sections(report)))]
        elif format == DELIMITED:
            files = ((name, [text]) for name, text in _delimited_files(report))
        else:
            files = [("map.svg", [render_svg(report.profiles, report.config.thresholds)])]
        for name, chunks in files:  # each file is built after the one before it is written
            path = os.path.join(out_dir, name)
            _write_atomic(path, chunks)
            written.append(path)
    return written


def render_text(profiles: list[PlacedFactor], thresholds: MapThresholds) -> str:
    """The map as a fixed-width text grid, each cell's factor ids in input order.

    A region that is not one of ``REGIONS`` raises ``ValueError``.
    """
    content = {cell[:2]: " ".join(p.factor.id for p in members)  # by the two bands
               for cell, members in ipamap.by_cell(profiles).items()}
    t1, t2 = thresholds
    row_label = "importance"
    widths = {
        p: max([len(p)] + [len(content[(i, p)]) for i in BANDS]) for p in BANDS
    }
    label_width = max(len(row_label), max(len(b) for b in BANDS))

    lines = []
    header = " | ".join([row_label.ljust(label_width)] + [p.ljust(widths[p]) for p in BANDS])
    lines.append(header)
    lines.append("-+-".join(["-" * label_width] + ["-" * widths[p] for p in BANDS]))
    for importance_band in reversed(BANDS):
        row = [importance_band.ljust(label_width)]
        row += [content[(importance_band, p)].ljust(widths[p]) for p in BANDS]
        lines.append(" | ".join(row))
    lines.append("")
    lines.append(f"columns: performance bands (cuts at {t1:.6g}, {t2:.6g})")
    return "\n".join(lines) + "\n"


# A label's text: ``&`` ``<`` ``>`` escaped; CR as a character reference, since
# an XML parser reads a bare CR, or CR LF, as LF; and U+FFFD for each character
# that XML 1.0 cannot carry at all, not even as a character reference: the C0
# controls but tab, LF and CR, and U+FFFE and U+FFFF.
_SVG_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;", **dict.fromkeys(
    [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF], "\ufffd")})


def render_svg(profiles: list[PlacedFactor], thresholds: MapThresholds) -> str:
    """The map as a self-contained SVG scatter over the band grid, points in input order.

    Each label is its factor id, a character XML 1.0 forbids written as U+FFFD,
    so the file is well-formed XML whatever the ids hold.
    """
    size, margin = 500.0, 70.0
    width = height = size + 2 * margin

    def sx(v: float) -> str:
        return f"{margin + v * size:.2f}"

    def sy(v: float) -> str:
        return f"{margin + (1.0 - v) * size:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "<style>text{font-family:monospace;font-size:12px;fill:#222}"
        ".grid{stroke:#999;stroke-dasharray:4 3}.frame{stroke:#222;fill:none}"
        ".pt{fill:#1a5fb4}.diag{stroke:#ccc}</style>",
        f'<rect class="frame" x="{margin:.2f}" y="{margin:.2f}" '
        f'width="{size:.2f}" height="{size:.2f}"/>',
        f'<line class="diag" x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}"/>',
    ]
    for cut in (thresholds.t1, thresholds.t2):
        parts.append(f'<line class="grid" x1="{sx(cut)}" y1="{sy(0)}" x2="{sx(cut)}" y2="{sy(1)}"/>')
        parts.append(f'<line class="grid" x1="{sx(0)}" y1="{sy(cut)}" x2="{sx(1)}" y2="{sy(cut)}"/>')

    band_centers = {
        "low": thresholds.t1 / 2,
        "medium": (thresholds.t1 + thresholds.t2) / 2,
        "high": (thresholds.t2 + 1.0) / 2,
    }
    for name, center in band_centers.items():
        parts.append(
            f'<text x="{sx(center)}" y="{height - 30:.2f}" text-anchor="middle">{name}</text>'
        )
        parts.append(
            f'<text x="{margin - 10:.2f}" y="{sy(center)}" text-anchor="end">{name}</text>'
        )
    parts.append(
        f'<text x="{margin + size / 2:.2f}" y="{height - 10:.2f}" '
        f'text-anchor="middle">performance</text>'
    )
    parts.append(
        f'<text x="15" y="{margin + size / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {margin + size / 2:.2f})">importance</text>'
    )
    # Each distinct coordinate's texts, the point's and its label's, made once. Equal
    # coordinates, 0.0 and -0.0 too, give equal texts.
    xs, ys = {}, {}
    for profile in profiles:
        if profile.e_r not in xs:
            x = sx(profile.e_r)
            xs[profile.e_r] = x, f"{float(x) + 5:.2f}"
        if profile.e_w not in ys:
            y = sy(profile.e_w)
            ys[profile.e_w] = y, f"{float(y) - 4:.2f}"
        (x, label_x), (y, label_y) = xs[profile.e_r], ys[profile.e_w]
        parts.append(f'<circle class="pt" cx="{x}" cy="{y}" r="3"/>')
        label = profile.factor.id.translate(_SVG_TEXT)
        parts.append(f'<text x="{label_x}" y="{label_y}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
