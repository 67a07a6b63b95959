"""Shared test helpers: random generators and fuzzy-number assertions."""

from __future__ import annotations

import random
from functools import reduce

from hypothesis import strategies as st

from it2ipa import IT2TrapFN, add, it2, scalar_div


def random_it2(rng: random.Random, lo: float = 0.0, hi: float = 1.0,
               unit_heights: bool = False) -> IT2TrapFN:
    """A structurally valid random number with support inside [lo, hi]."""
    u = sorted(rng.uniform(lo, hi) for _ in range(4))
    low = sorted(rng.uniform(u[0], u[3]) for _ in range(4))
    if unit_heights:
        uh1 = uh2 = lh1 = lh2 = 1.0
    else:
        uh1, uh2 = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        lh1, lh2 = rng.uniform(0.05, uh1), rng.uniform(0.05, uh2)
    return it2((*u, uh1, uh2), (*low, lh1, lh2))


@st.composite
def it2_values(draw, lo: float = 0.0, hi: float = 1.0, unit_heights: bool = False) -> IT2TrapFN:
    finite = dict(allow_nan=False, allow_infinity=False)
    u = sorted(draw(st.lists(st.floats(min_value=lo, max_value=hi, **finite),
                             min_size=4, max_size=4)))
    low = sorted(draw(st.lists(st.floats(min_value=u[0], max_value=u[3], **finite),
                               min_size=4, max_size=4)))
    if unit_heights:
        uh1 = uh2 = lh1 = lh2 = 1.0
    else:
        uh1 = draw(st.floats(min_value=0.5, max_value=1.0, **finite))
        uh2 = draw(st.floats(min_value=0.5, max_value=1.0, **finite))
        lh1 = draw(st.floats(min_value=0.05, max_value=uh1, **finite))
        lh2 = draw(st.floats(min_value=0.05, max_value=uh2, **finite))
    return it2((*u, uh1, uh2), (*low, lh1, lh2))


def sequential_mean(values) -> IT2TrapFN:
    """The mean as its definition reads: pairwise fuzzy sums, then one division."""
    return scalar_div(reduce(add, values), len(values))


def endpoints8(a: IT2TrapFN) -> tuple[float, ...]:
    return a.upper.endpoints + a.lower.endpoints


def max_endpoint_gap(a: IT2TrapFN, b: IT2TrapFN) -> float:
    return max(abs(x - y) for x, y in zip(endpoints8(a), endpoints8(b)))


def assert_it2_close(a: IT2TrapFN, b: IT2TrapFN, tol: float, heights_tol: float | None = None):
    gap = max_endpoint_gap(a, b)
    assert gap <= tol, f"endpoint gap {gap} > {tol}: {a.to_text()} vs {b.to_text()}"
    hgap = max(
        abs(x - y)
        for x, y in zip(a.upper.heights + a.lower.heights, b.upper.heights + b.lower.heights)
    )
    assert hgap <= (heights_tol if heights_tol is not None else tol), (
        f"height gap {hgap}: {a.to_text()} vs {b.to_text()}"
    )
