"""Shared test helpers: random generators and fuzzy-number assertions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from it2ipa import IT2TrapFN, Trapezoid, it2
from it2ipa.scoring import AS_COMPUTED


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


def exact_mean(values) -> IT2TrapFN:
    """The mean in exact arithmetic: each endpoint's ``Fraction`` sum over ``values``,
    divided by their count and rounded once; heights are the minimum.

    A zero sum is -0.0 exactly when every addend is -0.0, as in IEEE addition. A NaN,
    or both infinities, give NaN; an infinity alone among the non-finite gives itself.
    """
    def endpoint(column) -> float:
        if any(map(math.isnan, column)) or {math.inf, -math.inf} <= set(column):
            return math.nan
        for infinity in (math.inf, -math.inf):
            if infinity in column:
                return infinity
        total = sum(map(Fraction, column))
        if total == 0:
            return -0.0 if all(math.copysign(1.0, x) < 0 for x in column) else 0.0
        return float(total / len(column))

    def trap(traps) -> Trapezoid:
        *ends, h1, h2 = zip(*traps)
        return Trapezoid(*map(endpoint, ends), min(h1), min(h2))

    uppers, lowers = zip(*values)
    return IT2TrapFN(trap(uppers), trap(lowers))


def exact_alpha(grid) -> float:
    """Cronbach's alpha in exact arithmetic, rounded once: each cell a ``Fraction``, an
    int as it is and any other number as ``float(cell)``, and sample variances.

    Raises ``ZeroDivisionError`` with no total variance, ``OverflowError`` when alpha is
    beyond the float range, and ``ValueError`` for a NaN or infinite cell.
    """
    rows = [[Fraction(v if type(v) is int else float(v)) for v in row] for row in grid]
    n, k = len(rows), len(rows[0])

    def variance(xs) -> Fraction:
        mean = sum(xs) / n
        return sum((x - mean) ** 2 for x in xs) / (n - 1)

    items = sum(map(variance, zip(*rows)))
    total = variance(list(map(sum, rows)))
    return float(Fraction(k, k - 1) * (1 - items / total))


def exact_dtrat(value: IT2TrapFN) -> Fraction:
    """DTraT in exact arithmetic: the mean of each trapezoid's height-weighted quarter sum."""
    def quarter(trap) -> Fraction:
        a1, a2, a3, a4, h1, h2 = map(Fraction, trap)
        return ((a4 - a1) + (h1 * a2 - a1) + (h2 * a3 - a1)) / 4 + a1

    return (quarter(value.upper) + quarter(value.lower)) / 2


def exact_score_ends(w: IT2TrapFN, r: IT2TrapFN, mode: str | None = None) -> list[Fraction]:
    """The eight endpoints of a score in exact arithmetic, upper trapezoid first: of the
    success score (``mode`` None) w_k r_k, and of the failure score r_k / w_(5-k) as
    computed or w_k (1 - r_(5-k)) as written, k = 1..4 within each trapezoid."""
    ends = []
    for a, b in zip(w, r):
        a, b = list(map(Fraction, a[:4])), list(map(Fraction, b[:4]))
        if mode is None:
            ends += [x * y for x, y in zip(a, b)]
        elif mode == AS_COMPUTED:
            ends += [y / x for x, y in zip(reversed(a), b)]
        else:
            ends += [x * (1 - y) for x, y in zip(a, reversed(b))]
    return ends


def same_bits(x: float, y: float) -> bool:
    """Equal as IEEE values: any NaN matches any NaN, and 0.0 differs from -0.0."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_same_bits(got: IT2TrapFN, want: IT2TrapFN) -> None:
    """Every endpoint and height of ``got`` is ``want``'s, bit for bit."""
    for x, y in zip(got.upper + got.lower, want.upper + want.lower):
        assert same_bits(x, y), (got.to_text(), want.to_text())


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
