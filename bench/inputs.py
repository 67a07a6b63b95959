"""Seeded generators for the benchmark's synthetic input files.

Every generator takes the seed as an argument and returns plain Python data:
the file text that the program receives, plus the ground truth the oracles
need (term counts, generated tuples, score grids). Nothing here imports the
program under test, so the oracles stay independent of ``src/``.
"""

from __future__ import annotations

import json
import math
import random

# The Chen-Lee five-term scale, weakest to strongest, as
# (upper a1..a4, h1, h2), (lower a1..a4, h1, h2). It is the scale the paper
# rates with and the program's default; the benchmark keeps its own copy.
SCALE = (
    ("Very Low", ((0.0, 0.0, 0.0, 0.1, 1.0, 1.0), (0.0, 0.0, 0.0, 0.05, 0.9, 0.9))),
    ("Low", ((0.0, 0.1, 0.1, 0.3, 1.0, 1.0), (0.05, 0.1, 0.1, 0.2, 0.9, 0.9))),
    ("Medium", ((0.3, 0.5, 0.5, 0.7, 1.0, 1.0), (0.4, 0.5, 0.5, 0.6, 0.9, 0.9))),
    ("High", ((0.7, 0.9, 0.9, 1.0, 1.0, 1.0), (0.8, 0.9, 0.9, 0.95, 0.9, 0.9))),
    ("Very High", ((0.9, 1.0, 1.0, 1.0, 1.0, 1.0), (0.95, 1.0, 1.0, 1.0, 0.9, 0.9))),
)
FACETS = ("importance", "performance")
DIMENSIONS = 5

# How a spreadsheet export may spell a label: mostly as defined, sometimes in
# another case or with padding, which the program must casefold and strip.
_SPELLINGS = (str, str.lower, str.upper, lambda s: " " + s, lambda s: s + "  ")
_SPELLING_WEIGHTS = (80, 8, 4, 4, 4)
_VARIANTS = tuple(tuple(spell(label) for spell in _SPELLINGS) for label, _ in SCALE)


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"{kind}:{seed}")


def factor_ids(n: int) -> list[str]:
    return [f"f_{i}" for i in range(1, n + 1)]


def ratings_csv(factors: int, experts: int, seed: int) -> tuple[str, list[list[list[int]]]]:
    """A ratings CSV and its term counts.

    Each factor and facet draws a centre term; every expert rates it the
    centre term or a neighbour. Returns the file text and, per factor and
    facet, how often each scale term was used.
    """
    rng = _rng("ratings", seed)
    experts_header = ",".join(f"e_{j}" for j in range(1, experts + 1))
    lines = [f"factor_id,name,dimension,facet,{experts_header}"]
    counts = []
    top = len(SCALE) - 1
    offsets = (-1, 0, 1)
    for i, fid in enumerate(factor_ids(factors)):
        per_facet = []
        for facet in FACETS:
            centre = rng.randrange(len(SCALE))
            terms = [min(top, max(0, centre + o)) for o in rng.choices(offsets, k=experts)]
            styles = rng.choices(range(len(_SPELLINGS)), weights=_SPELLING_WEIGHTS, k=experts)
            cells = ",".join(_VARIANTS[t][s] for t, s in zip(terms, styles))
            lines.append(f"{fid},Factor {i + 1},D{i % DIMENSIONS + 1},{facet},{cells}")
            per_facet.append([terms.count(k) for k in range(len(SCALE))])
        counts.append(per_facet)
    return "\n".join(lines) + "\n", counts


def mean_of_terms(term_indices: list[int]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Endpoint-wise mean of scale terms; heights are the minimum over the terms."""
    n = len(term_indices)
    out = []
    for side in (0, 1):
        rows = [SCALE[k][1][side] for k in term_indices]
        ends = tuple(math.fsum(r[j] for r in rows) / n for j in range(4))
        heights = tuple(min(r[j] for r in rows) for j in (4, 5))
        out.append(ends + heights)
    return out[0], out[1]


def to_text(value: tuple[tuple[float, ...], tuple[float, ...]]) -> str:
    """Canonical form ``((a1,a2,a3,a4;h1,h2),(b1,b2,b3,b4;g1,g2))``, exact floats."""
    parts = []
    for t in value:
        parts.append(f"({','.join(map(repr, t[:4]))};{repr(t[4])},{repr(t[5])})")
    return f"({parts[0]},{parts[1]})"


def aggregated_csv(factors: int, seed: int) -> tuple[str, list[tuple]]:
    """A pre-aggregated CSV whose every value is the mean of 2 to 6 scale terms.

    Returns the file text and, per factor, the (importance, performance)
    tuples written.
    """
    rng = _rng("aggregated", seed)
    lines = ["factor_id,name,dimension,importance,performance"]
    values = []
    for i, fid in enumerate(factor_ids(factors)):
        pair = tuple(
            mean_of_terms([rng.randrange(len(SCALE)) for _ in range(rng.randint(2, 6))])
            for _ in FACETS
        )
        values.append(pair)
        lines.append(f'{fid},Factor {i + 1},D{i % DIMENSIONS + 1},"{to_text(pair[0])}","{to_text(pair[1])}"')
    return "\n".join(lines) + "\n", values


def psychometrics_json(factors: int, dimensions: int, respondents: int, items: int,
                       seed: int, panel: int = 11) -> tuple[str, dict]:
    """CVR counts per factor and Likert (1..5) grids per dimension.

    Each respondent has a latent level per dimension and answers every item
    near it, so the grids are internally consistent but not degenerate.
    """
    rng = _rng("psychometrics", seed)
    counts = {fid: rng.randint(0, panel) for fid in factor_ids(factors)}
    grids = {}
    for d in range(1, dimensions + 1):
        grid = []
        for _ in range(respondents):
            level = rng.uniform(1.0, 5.0)
            grid.append([min(5, max(1, round(level + rng.gauss(0.0, 0.8)))) for _ in range(items)])
        grids[f"Dimension {d:02d}"] = grid
    doc = {
        "content_validity": {"panel_size": panel, "essential_counts": counts},
        "reliability": {"dimensions": grids},
    }
    return json.dumps(doc), doc
