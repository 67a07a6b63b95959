"""The benchmark's workloads: inputs from a seed, CLI arguments and output checks.

Why each workload exists:

- ``bundled`` is the documented default command (no arguments, report to
  stdout) on the 18-factor reference dataset. Interpreter start and import
  take almost all of its wall time; it is the only workload that runs the
  reference comparison in the notes, and it bypasses ``aggregate``.
- ``ratings-500x100`` is read-heavy: 100k linguistic cells that ``parse_ratings``
  and ``aggregate`` spend most of the time on. It exercises per-cell lookup and
  fuzzy addition, the target of term-count aggregation.
- ``aggregated-5000`` is write-heavy: it bypasses ``aggregate`` and ``lookup``;
  parsing, placing, scoring and emitting all formats do the work, and the
  psychometrics file exercises ``cronbach_alpha``.

Both synthetic workloads use region mode, the CLI default. Comparison mode
can crash on valid ratings (a divisor whose support starts at 0); that is a
robustness defect, not load, so no workload uses it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle

ALL_FORMATS = ["--format", "structured", "--format", "delimited", "--format", "svg-map"]
FACTORS = 5000
RATINGS_FACTORS = 500
EXPERTS = 100
PSYCHOMETRICS_SHAPE = (20, 1000, 20)  # dimensions x respondents x items
# Sizes of the small input of the same kind that warms the interpreter up.
WARMUP_FACTORS = 20
WARMUP_EXPERTS = 5
WARMUP_PSYCHOMETRICS_SHAPE = (2, 10, 3)
CRISP_TOL = 1e-9
ALPHA_TOL = 1e-9


@dataclass
class Workload:
    """One workload, ready to run: the CLI arguments and how to check a report."""

    name: str
    argv: list[str]
    cells: int
    factors: int
    check: Callable[[dict], list[str]]
    out_dir: Path | None = None
    inputs: dict[str, dict] = field(default_factory=dict)
    warmup_argv: list[str] = field(default_factory=list)


def _describe(path: Path, cells: int) -> dict:
    data = path.read_bytes()
    return {"path": str(path), "bytes": len(data), "cells": cells,
            "sha256": hashlib.sha256(data).hexdigest()}


def _write(path: Path, text: str, cells: int) -> dict:
    path.write_text(text)
    return _describe(path, cells)


def bundled(work: Path, seed: int, root: Path) -> Workload:
    fixtures_dir = root / "src" / "it2ipa" / "fixtures"
    data = fixtures_dir / "reference_aggregated.csv"
    factors = sum(
        1 for line in data.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ) - 1
    return Workload(
        name="bundled",
        argv=[],
        cells=factors * 2,
        factors=factors,
        check=lambda report: oracle.check_bundled(report, fixtures_dir),
        inputs={"reference_aggregated.csv": _describe(data, factors * 2)},
    )


def ratings(work: Path, seed: int, root: Path,
            factors: int = RATINGS_FACTORS, experts: int = EXPERTS) -> Workload:
    text, counts = inputs.ratings_csv(factors, experts, seed)
    path = work / "ratings.csv"
    cells = factors * experts * 2
    described = _write(path, text, cells)
    del text
    expected = oracle.ratings_crisp(inputs.factor_ids(factors), counts)
    out = work / "out"
    return Workload(
        name="ratings-500x100",
        argv=["--ratings", str(path), "--out", str(out), *ALL_FORMATS],
        cells=cells,
        factors=factors,
        check=lambda report: oracle.check_crisp(report, expected, CRISP_TOL),
        out_dir=out,
        inputs={"ratings.csv": described},
    )


def aggregated(work: Path, seed: int, root: Path,
               factors: int = FACTORS, shape: tuple = PSYCHOMETRICS_SHAPE) -> Workload:
    text, values = inputs.aggregated_csv(factors, seed)
    agg_path = work / "aggregated.csv"
    described = {"aggregated.csv": _write(agg_path, text, factors * 2)}
    dims, respondents, items = shape
    text, doc = inputs.psychometrics_json(factors, dims, respondents, items, seed)
    psy_path = work / "psychometrics.json"
    described["psychometrics.json"] = _write(psy_path, text, dims * respondents * items + factors)
    expected = oracle.aggregated_crisp(inputs.factor_ids(factors), values)

    def check(report: dict) -> list[str]:
        return (oracle.check_crisp(report, expected, CRISP_TOL)
                + oracle.check_psychometrics(report, doc, ALPHA_TOL))

    out = work / "out"
    return Workload(
        name="aggregated-5000",
        argv=["--aggregated", str(agg_path), "--psychometrics", str(psy_path),
              "--out", str(out), *ALL_FORMATS],
        cells=factors * 2,
        factors=factors,
        check=check,
        out_dir=out,
        inputs=described,
    )


BUILDERS = {"bundled": bundled, "ratings-500x100": ratings, "aggregated-5000": aggregated}
WARMUP_SIZES = {
    "bundled": {},
    "ratings-500x100": {"factors": WARMUP_FACTORS, "experts": WARMUP_EXPERTS},
    "aggregated-5000": {"factors": WARMUP_FACTORS, "shape": WARMUP_PSYCHOMETRICS_SHAPE},
}


def build(name: str, seed: int, work: Path, root: Path) -> Workload:
    """Generate the workload's inputs under ``work`` and describe how to run it.

    ``warmup_argv`` runs the same code paths on a small input of the same
    kind, so that the warm phase starts warm without paying for a full run.
    """
    (work / "warmup").mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[name](work, seed, root)
    workload.warmup_argv = BUILDERS[name](work / "warmup", seed, root, **WARMUP_SIZES[name]).argv
    return workload


def report_of(stdout: bytes, out_dir: Path | None) -> dict:
    """The structured report an invocation produced."""
    if out_dir is None:
        return json.loads(stdout)
    return json.loads((out_dir / "report.json").read_bytes())
