"""Bundled reference dataset and its published downstream tables."""

from __future__ import annotations

from pathlib import Path

from ..numbers import IT2TrapFN
from ..survey import data_rows

_DIR = Path(__file__).resolve().parent

AGGREGATED = _DIR / "reference_aggregated.csv"
DEFUZZIFIED = _DIR / "reference_defuzzified.csv"
SCORES = _DIR / "reference_scores.csv"
RANKS = _DIR / "reference_ranks.csv"


def _rows(path: Path) -> list[dict]:
    rows = data_rows(path)
    _, header = next(rows)
    return [dict(zip(header, row)) for _, row in rows]


def aggregated_path() -> Path:
    """Path of the bundled pre-aggregated ratings (the default pipeline input)."""
    return AGGREGATED


def reference_defuzzified() -> dict[str, tuple[float, float]]:
    """Published crisp (importance, performance) per factor id."""
    return {
        row["factor_id"]: (float(row["importance"]), float(row["performance"]))
        for row in _rows(DEFUZZIFIED)
    }


def reference_scores() -> dict[str, dict[str, IT2TrapFN]]:
    """Published score tuples, keyed by kind ('success'/'failure') then factor id."""
    out: dict[str, dict[str, IT2TrapFN]] = {"success": {}, "failure": {}}
    for row in _rows(SCORES):
        out[row["kind"]][row["factor_id"]] = IT2TrapFN.from_text(row["value"])
    return out


def reference_rankings() -> dict[str, list[tuple[str, float]]]:
    """Published ranked orderings, keyed by kind, as (factor id, rank) lists."""
    out: dict[str, list[tuple[str, float]]] = {"success": [], "failure": []}
    for row in sorted(_rows(RANKS), key=lambda r: (r["kind"], int(r["position"]))):
        out[row["kind"]].append((row["factor_id"], float(row["rank"])))
    return out
