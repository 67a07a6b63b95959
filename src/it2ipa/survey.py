"""Expert rating ingestion, fuzzy aggregation, and questionnaire psychometrics."""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections import namedtuple
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
    """Natural ordering key so x_2 sorts before x_10."""
    return tuple(int(p) if p.isdecimal() else p for p in _DIGITS.split(factor_id))


def aggregate(matrix: RatingMatrix, scale: LinguisticScale) -> list[FactorProfile]:
    """Average the experts' fuzzy ratings per factor and facet.

    Implements the mean operator (``numbers.mean``): the fuzzy sum over
    experts, in expert order, divided by the expert count. Result heights are
    the minimum across experts. An unknown label names its factor, expert and
    facet; the first bad cell of a row is the one reported.
    """
    if not matrix.factors or not matrix.experts:
        raise EmptyMatrixError("rating matrix needs at least one factor and one expert")

    m = len(matrix.experts)
    profiles = []
    for i, factor in enumerate(matrix.factors):
        means = {}
        for facet, grid in ((IMPORTANCE, matrix.importance), (PERFORMANCE, matrix.performance)):
            row = grid[i]
            if len(row) != m or any(not cell or not cell.strip() for cell in row):
                raise EmptyMatrixError(
                    f"factor {factor.id}: {facet} row is not dense ({len(row)} cells for {m} experts)"
                )
            try:
                values = [lookup(scale, label) for label in row]
            except UnknownTermError as exc:
                # the lookups stop at the first bad cell; an earlier cell with
                # the same text would have failed first
                expert = matrix.experts[row.index(exc.label)]
                raise UnknownTermError(
                    exc.label, exc.vocabulary,
                    context=f"factor {factor.id}, expert {expert}, {facet}",
                ) from None
            means[facet] = numbers.mean(values)
        profiles.append(FactorProfile(factor, means[IMPORTANCE], means[PERFORMANCE]))
    return profiles


def cvr(n_essential: int, n_panel: int) -> float:
    """Lawshe content validity ratio: (n_e - N/2) / (N/2), in [-1, 1]."""
    if n_panel < 1 or n_essential < 0 or n_essential > n_panel:
        raise InvalidCountsError(
            f"need 0 <= n_essential <= n_panel and n_panel >= 1, got ({n_essential}, {n_panel})"
        )
    half = n_panel / 2.0
    return (n_essential - half) / half


def _sample_variance(values) -> float:
    # two-pass form: the mean first, then the squared deviations from it
    mean = math.fsum(values) / len(values)
    deviations = [v - mean for v in values]
    return math.fsum(d * d for d in deviations) / (len(values) - 1)


def cronbach_alpha(scores) -> float:
    """Internal-consistency coefficient over a respondents x items grid.

    Uses the variance form with sample (N-1) variances. Requires at least
    two respondents, two items, and nonzero total-score variance.
    """
    try:
        grid = [list(map(float, row)) for row in scores]
    except (TypeError, ValueError) as exc:
        raise DegenerateDataError(f"scores grid is not numeric: {exc}") from exc
    k = len(grid[0]) if grid else 0
    if len(grid) < 2 or k < 2 or any(len(row) != k for row in grid):
        raise DegenerateDataError(
            f"need a rectangular grid of >= 2 respondents x >= 2 items, got {len(grid)} rows"
        )
    try:
        item_variance = math.fsum(_sample_variance(column) for column in zip(*grid))
        total_variance = _sample_variance([math.fsum(row) for row in grid])
        if not math.isfinite(item_variance + total_variance):
            raise OverflowError("a variance is not finite")
    except (OverflowError, ValueError) as exc:
        raise DegenerateDataError(f"scores too large for float arithmetic: {exc}") from exc
    if total_variance <= 0:
        raise DegenerateDataError("total-score variance is zero")
    alpha = k / (k - 1) * (1.0 - item_variance / total_variance)
    if not math.isfinite(alpha):  # the item variances over a subnormal total variance
        raise DegenerateDataError(f"total-score variance {total_variance!r} is too small to divide by")
    return alpha


# ---------------------------------------------------------------------------
# Input files

def data_rows(path: Path) -> list[tuple[int, list[str]]]:
    """Stripped CSV records with the line each starts on; skips comments, blanks and a UTF-8 BOM."""
    rows, lineno = [], 1
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if any(cell.strip() for cell in row) and not row[0].lstrip().startswith("#"):
                    rows.append((lineno, [cell.strip() for cell in row]))
                lineno = reader.line_num + 1
    except OSError as exc:
        raise InputFileError(str(path), f"cannot read file: {exc}") from exc
    except UnicodeDecodeError:
        read_text(path)  # decodes the whole file, so the error names the line of the bad byte
        raise
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise InputFileError(str(path), f"unreadable CSV record: {exc}", row=lineno) from exc
    return rows


def _split_header(path: Path, header: list[str], lineno: int, tail: list[str]) -> tuple[dict, list[str]]:
    """Map optional leading columns, return (column index map, remaining headers)."""
    lowered = [h.lower() for h in header]
    if not lowered or lowered[0] != "factor_id":
        raise InputFileError(str(path), "header must start with 'factor_id'", row=lineno)
    idx = {"factor_id": 0}
    pos = 1
    for optional in ("name", "dimension"):
        if pos < len(lowered) and lowered[pos] == optional:
            idx[optional] = pos
            pos += 1
    for required in tail:
        if pos >= len(lowered) or lowered[pos] != required:
            raise InputFileError(
                str(path), f"expected column {required!r} at position {pos + 1}", row=lineno
            )
        idx[required] = pos
        pos += 1
    return idx, header[pos:]


def parse_ratings(path: str | Path) -> RatingMatrix:
    """Read a linguistic ratings file.

    Layout: header ``factor_id[,name][,dimension],facet,<expert>...``, then one
    row per (factor, facet) with one scale label per expert. Every factor must
    appear with both facets and every cell must be filled.
    """
    path = Path(path)
    rows = data_rows(path)
    if not rows:
        raise InputFileError(str(path), "empty ratings file: no header row")
    header_line, header = rows[0]
    idx, experts = _split_header(path, header, header_line, ["facet"])
    if not experts:
        raise InputFileError(str(path), "no expert columns after 'facet'", row=header_line)
    if len(rows) == 1:
        raise InputFileError(str(path), "empty ratings file: no data rows")

    factors: list[Factor] = []
    by_id: dict[str, dict[str, list[str]]] = {}
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputFileError(
                str(path), f"expected {len(header)} cells, found {len(row)}", row=lineno
            )
        fid = row[idx["factor_id"]]
        facet = row[idx["facet"]].lower()
        if facet not in FACETS:
            raise InputFileError(
                str(path), f"facet must be one of {FACETS}, got {row[idx['facet']]!r}", row=lineno
            )
        cells = row[len(header) - len(experts):]
        if any(not c for c in cells):
            raise InputFileError(str(path), f"factor {fid}: empty {facet} cell", row=lineno)
        if fid not in by_id:
            name = row[idx["name"]] if "name" in idx else fid
            dimension = row[idx["dimension"]] if "dimension" in idx else "general"
            factors.append(Factor(fid, name or fid, dimension or "general"))
            by_id[fid] = {}
        if facet in by_id[fid]:
            raise InputFileError(str(path), f"duplicate {facet} row for factor {fid}", row=lineno)
        by_id[fid][facet] = cells

    for factor in factors:
        missing = [f for f in FACETS if f not in by_id[factor.id]]
        if missing:
            raise InputFileError(str(path), f"factor {factor.id}: missing {missing[0]} row")

    return RatingMatrix(
        factors=factors,
        experts=list(experts),
        importance=[by_id[f.id][IMPORTANCE] for f in factors],
        performance=[by_id[f.id][PERFORMANCE] for f in factors],
    )


def parse_aggregated(path: str | Path) -> list[FactorProfile]:
    """Read pre-aggregated fuzzy ratings, one factor per row.

    Layout: header ``factor_id[,name][,dimension],importance,performance`` with
    both fuzzy values in the canonical textual form. Values must be
    structurally valid numbers with support inside [0, 1].
    """
    path = Path(path)
    rows = data_rows(path)
    if not rows:
        raise InputFileError(str(path), "empty aggregated file: no header row")
    header_line, header = rows[0]
    idx, extra = _split_header(path, header, header_line, [IMPORTANCE, PERFORMANCE])
    if extra:
        raise InputFileError(
            str(path), f"unexpected trailing columns: {extra}", row=header_line
        )
    if len(rows) == 1:
        raise InputFileError(str(path), "empty aggregated file: no data rows")

    profiles = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputFileError(
                str(path), f"expected {len(header)} cells, found {len(row)}", row=lineno
            )
        fid = row[idx["factor_id"]]
        if fid in seen:
            raise InputFileError(str(path), f"duplicate factor id {fid}", row=lineno)
        seen.add(fid)
        name = row[idx["name"]] if "name" in idx else fid
        dimension = row[idx["dimension"]] if "dimension" in idx else "general"
        values = {}
        for facet in FACETS:
            try:
                value = IT2TrapFN.from_text(row[idx[facet]])
            except ValueError as exc:
                raise InputFileError(str(path), f"factor {fid} {facet}: {exc}", row=lineno) from exc
            problems = value_problems(value)
            if problems:
                raise InputFileError(
                    str(path), f"factor {fid} {facet}: {'; '.join(problems)}", row=lineno
                )
            values[facet] = value
        profiles.append(FactorProfile(
            Factor(fid, name or fid, dimension or "general"),
            values[IMPORTANCE], values[PERFORMANCE],
        ))
    return profiles


Psychometrics = namedtuple(
    "Psychometrics", "panel_size essential_counts dimension_scores cvr_threshold alpha_threshold"
)
Psychometrics.__doc__ = (
    """Optional questionnaire-validation inputs: CVR counts and score grids of the decoded JSON numbers."""
)


def _section(path: Path, doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise InputFileError(str(path), f"{name} must be a JSON object")
    return section


def _count(value) -> int:
    """A JSON whole number; ``int()`` alone would truncate 9.7 and take ``true`` as 1."""
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _threshold(path: Path, section: dict, name: str, default: float) -> float:
    if "threshold" not in section:
        return default
    try:
        if isinstance(section["threshold"], bool):
            raise TypeError("a boolean is not a number")
        threshold = float(section["threshold"])
        if not math.isfinite(threshold):
            raise ValueError(f"{threshold} is not finite")
    except (TypeError, ValueError) as exc:
        raise InputFileError(str(path), f"{name} threshold must be a finite number: {exc}") from exc
    return threshold


def load_psychometrics(path: str | Path) -> Psychometrics:
    """Read the psychometrics JSON document (both sections optional)."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputFileError(str(path), "document must be a JSON object")

    panel_size, essential_counts, cvr_threshold = 0, {}, 0.59
    content = _section(path, doc, "content_validity")
    if content:
        try:
            panel_size = _count(content["panel_size"])
            essential_counts = {
                str(k): _count(v) for k, v in dict(content["essential_counts"]).items()
            }
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputFileError(
                str(path), f"content_validity needs 'panel_size' and 'essential_counts': {exc}"
            ) from exc
        cvr_threshold = _threshold(path, content, "content_validity", cvr_threshold)

    dimension_scores, alpha_threshold = {}, 0.7
    reliability = _section(path, doc, "reliability")
    if reliability:
        grids = reliability.get("dimensions")
        if not isinstance(grids, dict):
            raise InputFileError(str(path), "reliability needs a 'dimensions' object")
        for dim, grid in grids.items():
            # checked where it was decoded: ``cronbach_alpha`` converts one grid at a time
            try:
                if type(grid) is not list or not {list}.issuperset(map(type, grid)):
                    raise TypeError("the grid and each row must be JSON arrays")
                if not {int, float}.issuperset(map(type, itertools.chain.from_iterable(grid))):
                    raise TypeError("a score is not a JSON number")
                if not all(map(math.isfinite, itertools.chain.from_iterable(grid))):
                    raise ValueError("a score is not finite")
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputFileError(
                    str(path), f"dimension {dim!r}: reliability grid must be finite numbers: {exc}"
                ) from exc
            dimension_scores[str(dim)] = grid
        alpha_threshold = _threshold(path, reliability, "reliability", alpha_threshold)
    return Psychometrics(panel_size, essential_counts, dimension_scores, cvr_threshold, alpha_threshold)
