"""Expert rating ingestion, fuzzy aggregation, and questionnaire psychometrics."""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
from collections import Counter, namedtuple
from contextlib import closing, suppress
from pathlib import Path

from . import numbers
from .errors import InputFileError, read_json, read_text
from .numbers import IT2TrapFN
from .scale import LinguisticScale, UnknownTermError, lookup, value_problems

IMPORTANCE = "importance"
PERFORMANCE = "performance"
FACETS = (IMPORTANCE, PERFORMANCE)


class EmptyMatrixError(ValueError):
    """A rating matrix with no factors or no experts."""


class InvalidCountsError(ValueError):
    """Content-validity counts outside 0 <= n_essential <= n_panel, n_panel >= 1."""


class DegenerateDataError(ValueError):
    """A score grid too small or too uniform for a reliability coefficient."""


Factor = namedtuple("Factor", "id name dimension")
Factor.__doc__ = """One survey component: short code, display name, questionnaire dimension."""

RatingMatrix = namedtuple("RatingMatrix", "factors experts importance performance")
RatingMatrix.__doc__ = """Dense linguistic ratings, one row per factor, one column per expert."""

FactorProfile = namedtuple("FactorProfile", "factor w_fuzzy r_fuzzy")
FactorProfile.__doc__ = """A factor's aggregated fuzzy importance and performance."""


# A digit run is at most 640 long, the lowest int-conversion digit limit that Python
# allows, so that ``int`` takes every run; a longer run is split.
_DIGITS = re.compile(r"(\d{1,640})")


def factor_sort_key(factor_id: str):
    """Natural ordering key so x_2 sorts before x_10.

    Ids that read as the same number (``x1``, ``x01``, ``x١``) are ordered by
    their text, so that the order is total and no output follows the input order.
    """
    return tuple(int(p) if p.isdecimal() else p for p in _DIGITS.split(factor_id)), factor_id


def aggregate(matrix: RatingMatrix, scale: LinguisticScale) -> list[FactorProfile]:
    """Average the experts' fuzzy ratings per factor and facet.

    Implements the mean operator (``numbers.mean``): each endpoint is the exact
    sum over the experts, divided by the expert count and rounded once, and
    result heights are the minimum across experts. So a row's mean depends on
    the multiset of its ratings, not on the expert order. A row is checked for
    blank cells before any of its labels is resolved; then each cell is
    resolved with its own ``lookup`` call, in expert order, so an unknown
    label names its factor, expert and facet, and the first bad cell of a row
    is the one reported. The row is then counted by label text. The scale's
    values are turned into exact terms over one denominator once per call
    (``numbers.mean_terms``), so the sums run over the counts.
    """
    if not matrix.factors or not matrix.experts:
        raise EmptyMatrixError("rating matrix needs at least one factor and one expert")

    m = len(matrix.experts)
    scale_values = [value for _, value in scale.terms]
    denominator, scale_terms = numbers.mean_terms(scale_values)
    # ``lookup`` returns the scale's own value objects
    by_value = dict(zip(map(id, scale_values), scale_terms))
    terms = {}  # label text -> the mean terms of its value
    profiles = []
    for i, factor in enumerate(matrix.factors):
        means = {}
        for facet, grid in ((IMPORTANCE, matrix.importance), (PERFORMANCE, matrix.performance)):
            row = grid[i]
            # whole-row scans in C: a falsy cell (empty or None), then a blank one
            if len(row) != m or not all(row) or not all(map(str.strip, row)):
                raise EmptyMatrixError(
                    f"factor {factor.id}: {facet} row is not dense ({len(row)} cells for {m} experts)"
                )
            try:
                # one call per cell, as bench/test_bench.py counts them; the values
                # are read only for the texts not yet in ``terms``
                values = [lookup(scale, label) for label in row]
            except UnknownTermError as exc:
                # the lookups stop at the first bad cell; an earlier cell with
                # the same text would have failed first
                expert = matrix.experts[row.index(exc.label)]
                raise UnknownTermError(
                    exc.label, exc.vocabulary,
                    context=f"factor {factor.id}, expert {expert}, {facet}",
                ) from None
            counts = Counter(row)
            for label in counts.keys() - terms.keys():
                terms[label] = by_value[id(values[row.index(label)])]
            means[facet] = numbers.counted_mean(denominator, list(map(terms.__getitem__, counts)),
                                                counts.values())
        profiles.append(FactorProfile(factor, means[IMPORTANCE], means[PERFORMANCE]))
    return profiles


def cvr(n_essential: int, n_panel: int) -> float:
    """Lawshe content validity ratio (n_e - N/2) / (N/2), in [-1, 1], as one rounded
    int/int division, (2 n_e - N) / N, which counts past the float range do not overflow."""
    if n_panel < 1 or n_essential < 0 or n_essential > n_panel:
        raise InvalidCountsError(
            f"need 0 <= n_essential <= n_panel and n_panel >= 1, got ({n_essential}, {n_panel})"
        )
    return (2 * n_essential - n_panel) / n_panel


def cronbach_alpha(scores) -> float:
    """Internal-consistency coefficient over a respondents x items grid.

    The variance form with sample (N-1) variances, computed exactly and rounded
    once. Each cell is an integer over one power of two: an int as it is, any
    other number as ``float(cell)`` (``numbers.exact_integers``). With n
    respondents and k items, the column sums S_i and sums of squares Q_i give
    A = sum(n Q_i - S_i**2), the respondent totals T_r give B = n sum(T_r**2) -
    (sum T_r)**2, and alpha is the int/int true division k (B - A) / ((k - 1) B),
    whatever the order of the cells. A grid of fewer than two respondents or
    two items, a ragged one, one with a cell that is not a number, whose float
    is not finite or overflows, one with no total variance (B = 0), or one whose
    alpha lies beyond the float range raises ``DegenerateDataError``.
    """
    try:
        rows = [row if type(row) is list else list(row) for row in scores]
    except TypeError as exc:
        raise DegenerateDataError(f"scores grid is not numeric: {exc}") from exc
    n, k = len(rows), len(rows[0]) if rows else 0
    if n < 2 or k < 2 or set(map(len, rows)) != {k}:
        raise DegenerateDataError(
            f"need a rectangular grid of >= 2 respondents x >= 2 items, got {n} rows"
        )
    columns = list(zip(*rows))
    try:
        sums = list(map(sum, columns))
    except (TypeError, ArithmeticError):  # e.g. a text cell, or a signaling-NaN Decimal
        sums = [None]
    # a column sums to an int only when its cells are ints (or bools), and to a float
    # only when they are numbers that ``float`` takes
    kinds = set(map(type, sums))
    if not {int}.issuperset(kinds):
        cells = list(itertools.chain.from_iterable(columns))
        if not {int, float}.issuperset(kinds):
            # ``float`` reads text too: take only what it converts as a number
            odd = {kind.__name__ for kind in set(map(type, cells))
                   if not hasattr(kind, "__float__") and not hasattr(kind, "__index__")}
            if odd:
                raise DegenerateDataError(
                    f"scores grid is not numeric: a cell of type {min(odd)!r}"
                )
        try:
            _, numerators = numbers.exact_integers(cells)
        except (TypeError, ValueError) as exc:
            raise DegenerateDataError(f"scores grid is not numeric: {exc}") from exc
        except OverflowError as exc:  # e.g. a Fraction past the float range
            raise DegenerateDataError(f"scores too large for float arithmetic: {exc}") from exc
        if None in numerators:
            raise DegenerateDataError(
                f"a score is not a finite number: {cells[numerators.index(None)]!r}"
            )
        columns = [numerators[i:i + n] for i in range(0, n * k, n)]
        sums = list(map(sum, columns))
        rows = list(zip(*columns))
    totals = list(map(sum, rows))
    squares = sum(sum(map(operator.mul, c, c)) for c in columns)
    a = n * squares - sum(map(operator.mul, sums, sums))
    b = n * sum(map(operator.mul, totals, totals)) - sum(totals) ** 2
    if not b:
        raise DegenerateDataError("total-score variance is zero")
    try:
        return k * (b - a) / ((k - 1) * b)
    except OverflowError:
        raise DegenerateDataError(
            "total-score variance is too small against the item variances: "
            "alpha is beyond the float range"
        ) from None


# ---------------------------------------------------------------------------
# Input files

def data_rows(path: str | Path):
    """Yield each stripped CSV record with the line it starts on.

    Comments, blank records and a UTF-8 BOM are skipped. Records are read as
    the ``csv`` reader produces them, so an error further on in the file (a bad
    byte, an over-long field) is met only when the reader gets there.
    """
    lineno = 1
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                row = list(map(str.strip, row))
                if any(row) and not row[0].startswith("#"):
                    yield lineno, row
                lineno = reader.line_num + 1
    except OSError as exc:
        raise InputFileError(path, f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        read_text(path)  # decodes the whole file, so the error names the line of the bad byte
        # read_text found no bad byte: the file changed between the two reads
        raise InputFileError(path, f"not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise InputFileError(path, f"unreadable CSV record: {exc}", row=lineno) from exc


def _factor_table(path: str | Path, kind: str, columns: tuple[str, ...]):
    """Read a CSV table of factors, headed ``factor_id[,name][,dimension]`` and then ``columns``.

    Yields ``(line, the header's columns after columns)`` first, then ``(line,
    Factor, the cells from the first of columns on)`` for each data row. Header
    names match in any case; ``kind`` names the file when the table is empty.
    """
    with closing(data_rows(path)) as rows:
        header_line, header = next(rows, (None, None))
        if header is None:
            raise InputFileError(path, f"empty {kind} file: no header row")
        lowered = [h.lower() for h in header]
        if lowered[0] != "factor_id":
            raise InputFileError(path, "header must start with 'factor_id'", row=header_line)
        pos = 1
        name_at = dimension_at = 0  # 0: the column is absent
        if lowered[pos:pos + 1] == ["name"]:
            name_at, pos = pos, pos + 1
        if lowered[pos:pos + 1] == ["dimension"]:
            dimension_at, pos = pos, pos + 1
        first_cell = pos
        for required in columns:
            if lowered[pos:pos + 1] != [required]:
                raise InputFileError(
                    path, f"expected column {required!r} at position {pos + 1}", row=header_line
                )
            pos += 1
        yield header_line, header[pos:]

        found = False
        for lineno, row in rows:
            if len(row) != len(header):
                raise InputFileError(
                    path, f"expected {len(header)} cells, found {len(row)}", row=lineno
                )
            fid = row[0]
            if not fid:
                raise InputFileError(path, "empty factor_id cell", row=lineno)
            name = row[name_at] if name_at else fid
            dimension = row[dimension_at] if dimension_at else "general"
            yield lineno, Factor(fid, name or fid, dimension or "general"), row[first_cell:]
            found = True
    if not found:
        raise InputFileError(path, f"empty {kind} file: no data rows")


def parse_ratings(path: str | Path) -> RatingMatrix:
    """Read a linguistic ratings file.

    Layout: header ``factor_id[,name][,dimension],facet,<expert>...``, then one
    row per (factor, facet) with one scale label per expert. Every factor must
    appear with both facets and every cell must be filled. Records are read
    as a stream, and equal label texts share one ``str`` in the matrix.
    """
    with closing(_factor_table(path, "ratings", ("facet",))) as table:
        header_line, experts = next(table)
        if not experts:
            raise InputFileError(path, "no expert columns after 'facet'", row=header_line)

        labels: dict[str, str] = {}  # one string per distinct label text
        factors: list[Factor] = []
        by_id: dict[str, dict[str, list[str]]] = {}
        for lineno, factor, cells in table:
            fid = factor.id
            facet_text = cells.pop(0)
            facet = facet_text.lower()
            if facet not in FACETS:
                raise InputFileError(
                    path, f"facet must be one of {FACETS}, got {facet_text!r}", row=lineno
                )
            if not all(cells):
                raise InputFileError(path, f"factor {fid}: empty {facet} cell", row=lineno)
            if fid not in by_id:
                factors.append(factor)
                by_id[fid] = {}
            if facet in by_id[fid]:
                raise InputFileError(path, f"duplicate {facet} row for factor {fid}", row=lineno)
            by_id[fid][facet] = list(map(labels.setdefault, cells, cells))

    for factor in factors:
        missing = [f for f in FACETS if f not in by_id[factor.id]]
        if missing:
            raise InputFileError(path, f"factor {factor.id}: missing {missing[0]} row")

    return RatingMatrix(
        factors=factors,
        experts=experts,
        importance=[by_id[f.id][IMPORTANCE] for f in factors],
        performance=[by_id[f.id][PERFORMANCE] for f in factors],
    )


def parse_aggregated(path: str | Path) -> list[FactorProfile]:
    """Read pre-aggregated fuzzy ratings, one factor per row.

    Layout: header ``factor_id[,name][,dimension],importance,performance`` with
    both fuzzy values in the canonical textual form. Values must be
    structurally valid numbers with support inside [0, 1]. Each distinct
    (stripped) cell text is parsed and checked once per call, and its cells
    share one ``IT2TrapFN``; a bad text is reported on the first row it is on.
    """
    with closing(_factor_table(path, "aggregated", FACETS)) as table:
        header_line, extra = next(table)
        if extra:
            raise InputFileError(path, f"unexpected trailing columns: {extra}", row=header_line)

        profiles = []
        seen: set[str] = set()
        parsed: dict[str, IT2TrapFN] = {}  # one value per distinct text, only texts that passed
        for lineno, factor, cells in table:
            fid = factor.id
            if fid in seen:
                raise InputFileError(path, f"duplicate factor id {fid}", row=lineno)
            seen.add(fid)
            values = []
            for facet, text in zip(FACETS, cells):
                value = parsed.get(text)
                if value is None:
                    try:
                        value = IT2TrapFN.from_text(text)
                    except ValueError as exc:
                        raise InputFileError(
                            path, f"factor {fid} {facet}: {exc}", row=lineno
                        ) from exc
                    problems = value_problems(value)
                    if problems:
                        raise InputFileError(
                            path, f"factor {fid} {facet}: {'; '.join(problems)}", row=lineno
                        )
                    parsed[text] = value
                values.append(value)
            profiles.append(FactorProfile(factor, *values))
    return profiles


Psychometrics = namedtuple(
    "Psychometrics", "panel_size essential_counts dimension_scores cvr_threshold alpha_threshold"
)
Psychometrics.__doc__ = (
    """Optional questionnaire-validation inputs: CVR counts and score grids of the decoded JSON numbers."""
)


def _section(path: str | Path, doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise InputFileError(path, f"{name} must be a JSON object")
    return section


def _finite(rows) -> bool:
    """Whether each int or float in the iterables ``rows``, read at most twice, is finite."""
    with suppress(OverflowError, ValueError):  # the exact sum is finite only if every value is
        if math.isfinite(math.fsum(itertools.chain.from_iterable(rows))):
            return True
    with suppress(OverflowError):  # an integer past the float range is not finite
        return all(map(math.isfinite, itertools.chain.from_iterable(rows)))
    return False


def _check_numbers(rows: list, what: str) -> None:
    """Refuse unless each value in the lists ``rows`` is an exact int or float in the float range."""
    # whole passes in C; exact types, so no bool and no str
    if not {int, float}.issuperset(map(type, itertools.chain.from_iterable(rows))):
        raise TypeError(f"{what} is not a JSON number")
    if not _finite(rows):
        raise ValueError(f"{what} is not finite")


def _count(value) -> int:
    """A JSON whole number; ``int()`` alone would truncate 9.7 and take ``true`` as 1."""
    _check_numbers([[value]], repr(value))
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _threshold(path: str | Path, section: dict, name: str, default: float) -> float:
    threshold = section.get("threshold", default)
    try:
        _check_numbers([[threshold]], repr(threshold))
    except (TypeError, ValueError) as exc:
        raise InputFileError(path, f"{name} threshold must be a finite number: {exc}") from exc
    return float(threshold)


def _check_name(path: str | Path, kind: str, name: str) -> None:
    """Refuse a name that holds a lone surrogate, from a JSON escape such as ``\\ud800``.

    UTF-8 cannot encode it, so it would fail the write of ``psychometrics.csv``.
    """
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise InputFileError(
            path, f"{kind} {name!r} holds a lone surrogate, which UTF-8 cannot encode"
        ) from None


def load_psychometrics(path: str | Path) -> Psychometrics:
    """Read the psychometrics JSON document (both sections optional)."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputFileError(path, "document must be a JSON object")

    panel_size, essential_counts, cvr_threshold = 0, {}, 0.59
    content = _section(path, doc, "content_validity")
    if content:
        try:
            panel_size = _count(content["panel_size"])
            counts = content["essential_counts"]
            if type(counts) is not dict:
                raise TypeError("'essential_counts' must be a JSON object")
            values = counts.values()
            if {int}.issuperset(map(type, values)) and _finite([values]):
                essential_counts = dict(counts)
            else:  # the first bad count is the one named
                essential_counts = {k: _count(v) for k, v in counts.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFileError(
                path, f"content_validity needs 'panel_size' and 'essential_counts': {exc}"
            ) from exc
        for component in essential_counts:
            _check_name(path, "component id", component)
        cvr_threshold = _threshold(path, content, "content_validity", cvr_threshold)

    dimension_scores, alpha_threshold = {}, 0.7
    reliability = _section(path, doc, "reliability")
    if reliability:
        grids = reliability.get("dimensions")
        if not isinstance(grids, dict):
            raise InputFileError(path, "reliability needs a 'dimensions' object")
        for dim, grid in grids.items():
            _check_name(path, "dimension", dim)
            # checked and kept as decoded: ``cronbach_alpha`` takes each int as it is
            try:
                if type(grid) is not list or not {list}.issuperset(map(type, grid)):
                    raise TypeError("the grid and each row must be JSON arrays")
                _check_numbers(grid, "a score")
            except (TypeError, ValueError) as exc:
                raise InputFileError(
                    path, f"dimension {dim!r}: reliability grid must be finite numbers: {exc}"
                ) from exc
            dimension_scores[dim] = grid
        alpha_threshold = _threshold(path, reliability, "reliability", alpha_threshold)
    return Psychometrics(panel_size, essential_counts, dimension_scores, cvr_threshold, alpha_threshold)
