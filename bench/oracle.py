"""Correctness oracles computed by the benchmark itself, independently of ``src/``.

Each ``check_*`` function takes the program's output and the generator's
ground truth and returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

from inputs import SCALE

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def dtrat(value) -> float:
    """DTraT of ``(upper, lower)`` 6-tuples ``(a1, a2, a3, a4, h1, h2)``.

    Half the sum, over both trapezoids, of
    ``(a4 - a1 + h1*a2 - a1 + h2*a3 - a1) / 4 + a1``.
    """
    total = 0.0
    for a1, a2, a3, a4, h1, h2 in value:
        total += ((a4 - a1) + (h1 * a2 - a1) + (h2 * a3 - a1)) / 4.0 + a1
    return 0.5 * total


def mean_from_counts(counts: list[int]):
    """Mean of scale terms given how often each term was used (mean operator)."""
    m = sum(counts)
    used = [k for k, n in enumerate(counts) if n]
    out = []
    for side in (0, 1):
        ends = tuple(
            math.fsum(n * SCALE[k][1][side][j] for k, n in enumerate(counts)) / m
            for j in range(4)
        )
        heights = tuple(min(SCALE[k][1][side][j] for k in used) for j in (4, 5))
        out.append(ends + heights)
    return tuple(out)


def ratings_crisp(factor_ids: list[str], counts) -> dict[str, tuple[float, float]]:
    """Expected crisp (importance, performance) from generated term counts."""
    return {
        fid: (dtrat(mean_from_counts(c[0])), dtrat(mean_from_counts(c[1])))
        for fid, c in zip(factor_ids, counts)
    }


def aggregated_crisp(factor_ids: list[str], values) -> dict[str, tuple[float, float]]:
    """Expected crisp (importance, performance) from generated tuples."""
    return {fid: (dtrat(v[0]), dtrat(v[1])) for fid, v in zip(factor_ids, values)}


def cronbach_alpha(grid: list[list[float]]) -> float:
    """Alpha with sample variances, every sum taken with ``fsum``."""
    k = len(grid[0])

    def variance(xs):
        mean = math.fsum(xs) / len(xs)
        return math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)

    items = math.fsum(variance([row[j] for row in grid]) for j in range(k))
    totals = variance([math.fsum(row) for row in grid])
    return k / (k - 1) * (1.0 - items / totals)


def check_crisp(report: dict, expected: dict[str, tuple[float, float]], tol: float) -> list[str]:
    rows = report.get("defuzzified", [])
    problems = []
    seen = [row["factor"] for row in rows]
    if sorted(seen) != sorted(expected):
        problems.append(f"defuzzified factors differ: {len(seen)} reported, {len(expected)} expected")
    for row in rows:
        want = expected.get(row["factor"])
        if want is None:
            continue
        got = (row["importance"], row["performance"])
        gap = max(abs(g - w) for g, w in zip(got, want))
        if not gap <= tol:
            problems.append(f"factor {row['factor']}: crisp {got} vs oracle {want} (gap {gap:.3g})")
    return problems[:10]


def check_psychometrics(report: dict, doc: dict, tol: float) -> list[str]:
    psy = report.get("psychometrics", {})
    problems = []
    grids = doc["reliability"]["dimensions"]
    dims = psy.get("reliability", {}).get("dimensions", [])
    if sorted(d["dimension"] for d in dims) != sorted(grids):
        problems.append("reliability dimensions differ from the input")
    for d in dims:
        want = cronbach_alpha(grids[d["dimension"]])
        if not abs(d["alpha"] - want) <= tol:
            problems.append(f"dimension {d['dimension']}: alpha {d['alpha']} vs oracle {want}")
    content = doc["content_validity"]
    half = content["panel_size"] / 2.0
    comps = psy.get("content_validity", {}).get("components", [])
    if len(comps) != len(content["essential_counts"]):
        problems.append("content-validity components differ from the input")
    for c in comps:
        want = (content["essential_counts"][c["id"]] - half) / half
        if not abs(c["cvr"] - want) <= tol:
            problems.append(f"component {c['id']}: cvr {c['cvr']} vs {want}")
    return problems[:10]


def _fixture_rows(path: Path) -> list[dict]:
    lines = [
        line for line in path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return list(csv.DictReader(lines))


def _endpoints(text: str) -> list[float]:
    """The eight endpoints of a canonical IT2 tuple, heights left out."""
    nums = [float(x) for x in re.findall(_NUM, text)]
    if len(nums) != 12:
        raise ValueError(f"not a canonical IT2 tuple: {text!r}")
    return nums[0:4] + nums[6:10]


def check_bundled(report: dict, fixtures_dir: Path) -> list[str]:
    """Crisp values within 0.001 and success scores within 0.005 of the fixture tables."""
    expected = {
        row["factor_id"]: (float(row["importance"]), float(row["performance"]))
        for row in _fixture_rows(fixtures_dir / "reference_defuzzified.csv")
    }
    problems = check_crisp(report, expected, 1e-3)
    reference = {
        row["factor_id"]: _endpoints(row["value"])
        for row in _fixture_rows(fixtures_dir / "reference_scores.csv")
        if row["kind"] == "success"
    }
    compared = 0
    for score in report.get("scores", {}).get("success", []):
        want = reference.get(score["factor"])
        if want is None:
            continue
        compared += 1
        gap = max(abs(g - w) for g, w in zip(_endpoints(score["value"]), want))
        if not gap <= 5e-3:
            problems.append(f"success score {score['factor']}: endpoint gap {gap:.4f}")
    if compared == 0:
        problems.append("no success score to compare with the reference table")
    return problems
