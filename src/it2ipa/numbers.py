"""Interval type-2 trapezoidal fuzzy numbers and their arithmetic.

A value is a pair of trapezoids (upper and lower membership functions), each
described by four endpoints and two heights. Arithmetic is component-wise on
the endpoints (division cross-reverses the divisor's endpoints) and heights
combine by minimum. Subtraction and division can yield endpoint tuples that
are no longer non-decreasing; those raw tuples are returned unchanged with an
``OrderingViolatedWarning`` instead of being sorted, because the downstream
closed-form defuzzification and ranking formulas are defined on the raw
tuples.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
import warnings
from collections import namedtuple
from functools import cache


class NegativeSupportError(ValueError):
    """Multiplication requires both operands to have non-negative support."""


class DivisorSpansZeroError(ValueError):
    """Division requires the divisor's support to be strictly positive."""


class InvalidDivisorError(ValueError):
    """Scalar division requires a positive integer divisor."""


class OrderingViolatedWarning(UserWarning):
    """Non-fatal signal: an operation produced non-monotone endpoints."""


# Endpoint comparisons allow this much slack so that floating-point dust
# (e.g. 0.7 - 0.3 < 0.4 by one ulp) is not flagged as a genuine violation.
_ORDER_SLACK = 1e-12


class Trapezoid(namedtuple("Trapezoid", "a1 a2 a3 a4 h1 h2")):
    """One membership trapezoid: endpoints a1..a4 with heights h1, h2."""

    __slots__ = ()

    def __new__(cls, a1, a2, a3, a4, h1=1.0, h2=1.0):
        self = tuple.__new__(cls, (a1, a2, a3, a4, h1, h2))
        # Looked up through the instance, so that a wrapper set on the class sees
        # every trapezoid built: bench/run.py counts them by wrapping this method.
        self.__post_init__()
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __post_init__(self):
        if not (0.0 < self.h1 <= 1.0 and 0.0 < self.h2 <= 1.0):
            raise ValueError(f"heights must lie in (0, 1], got ({self.h1}, {self.h2})")

    @property
    def endpoints(self) -> tuple[float, float, float, float]:
        return self[:4]

    @property
    def heights(self) -> tuple[float, float]:
        return self[4:]

    @property
    def is_ordered(self) -> bool:
        return (self.a2 >= self.a1 - _ORDER_SLACK and self.a3 >= self.a2 - _ORDER_SLACK
                and self.a4 >= self.a3 - _ORDER_SLACK)


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_TRAP = rf"\(\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*;\s*({_NUM})\s*,\s*({_NUM})\s*\)"
_CANONICAL = re.compile(rf"^\s*\(\s*{_TRAP}\s*,\s*{_TRAP}\s*\)\s*$")


_TEXT = "(({0},{0},{0},{0};{0},{0}),({0},{0},{0},{0};{0},{0}))"
_EXACT_TEXT = _TEXT.format("%r")
# Display rounding: -0 is 0.
_NEGATIVE_ZERO = re.compile(r"-0(?=[,;)])")


@cache
def _rounded_text(decimals: int) -> str:
    return _TEXT.format(f"%.{decimals}f")


class IT2TrapFN(namedtuple("IT2TrapFN", "upper lower")):
    """An interval type-2 trapezoidal fuzzy number (upper + lower trapezoid)."""

    __slots__ = ()

    @classmethod
    def crisp(cls, value: float) -> "IT2TrapFN":
        t = Trapezoid(value, value, value, value, 1.0, 1.0)
        return cls(t, t)

    @classmethod
    def from_text(cls, text: str) -> "IT2TrapFN":
        """Parse the canonical form ``((a1,a2,a3,a4;h1,h2),(b1,b2,b3,b4;g1,g2))``."""
        match = _CANONICAL.match(text)
        if match is None:
            raise ValueError(f"not a canonical interval type-2 trapezoid: {text!r}")
        nums = [float(g) for g in match.groups()]
        return cls(Trapezoid(*nums[:6]), Trapezoid(*nums[6:]))

    def to_text(self, decimals: int | None = None) -> str:
        """The canonical text, exact or rounded to ``decimals`` places (no trailing zeros, no -0)."""
        values = self.upper + self.lower
        if decimals is None:
            return _EXACT_TEXT % (*map(float, values),)
        text = _rounded_text(decimals) % values
        if decimals > 0:
            # Every number has a point and exactly ``decimals`` places after it, so
            # each round drops at most one zero that ends a number, and ``decimals``
            # rounds drop them all; then a bare point goes.
            for _ in range(decimals):
                text = text.replace("0,", ",").replace("0;", ";").replace("0)", ")")
            text = text.replace(".,", ",").replace(".;", ";").replace(".)", ")")
        return _NEGATIVE_ZERO.sub("0", text) if "-0" in text else text

    @property
    def is_ordered(self) -> bool:
        return self.upper.is_ordered and self.lower.is_ordered

    def violations(self) -> list[str]:
        """Structural invariant violations (empty list when well-formed)."""
        problems = []
        if not self.upper.is_ordered:
            problems.append(f"upper endpoints not non-decreasing: {self.upper.endpoints}")
        if not self.lower.is_ordered:
            problems.append(f"lower endpoints not non-decreasing: {self.lower.endpoints}")
        if (self.lower.a1 < self.upper.a1 - _ORDER_SLACK
                or self.lower.a4 > self.upper.a4 + _ORDER_SLACK):
            problems.append("lower support not contained in upper support")
        if self.lower.h1 > self.upper.h1 or self.lower.h2 > self.upper.h2:
            problems.append("lower heights exceed upper heights")
        return problems

    def __add__(self, other: "IT2TrapFN") -> "IT2TrapFN":
        return add(self, other)

    def __sub__(self, other: "IT2TrapFN") -> "IT2TrapFN":
        return sub(self, other)

    def __mul__(self, other: "IT2TrapFN") -> "IT2TrapFN":
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, IT2TrapFN):
            return div(self, other)
        if isinstance(other, int) and not isinstance(other, bool):
            return scalar_div(self, other)
        return NotImplemented

    def __radd__(self, other):
        """Refuse ``(1,) + x`` and ``3 * x``: a fuzzy number is not a tuple to join or repeat."""
        raise TypeError(f"unsupported operand types: {type(other).__name__!r} and 'IT2TrapFN'")

    __rmul__ = __radd__


def it2(upper: tuple, lower: tuple) -> IT2TrapFN:
    """Compact constructor from two 6-tuples ``(a1, a2, a3, a4, h1, h2)``."""
    return IT2TrapFN(Trapezoid(*upper), Trapezoid(*lower))


_ONE = IT2TrapFN.crisp(1.0)


def _pairwise(a: IT2TrapFN, b: IT2TrapFN, op, cross: bool = False) -> IT2TrapFN:
    """The one endpoint-wise rule: ``op`` on each endpoint pair, heights by minimum.

    ``mul`` and ``div`` write it out, operation for operation, for speed.

    Within the upper and within the lower trapezoid, endpoint k of ``a`` pairs
    with endpoint k of ``b`` or, when ``cross``, with endpoint 5-k.
    """
    def trap(x: Trapezoid, y: Trapezoid) -> Trapezoid:
        ys = y[3::-1] if cross else y[:4]
        return Trapezoid(*map(op, x[:4], ys), min(x.h1, y.h1), min(x.h2, y.h2))

    return IT2TrapFN(trap(a.upper, b.upper), trap(a.lower, b.lower))


def _warn_if_unordered(result: IT2TrapFN, op: str) -> IT2TrapFN:
    if not result.is_ordered:
        # Name the first caller outside this module, whether it called sub/div
        # or went through an operator such as ``x - y``.
        level = 3
        while sys._getframe(level - 1).f_globals is globals():
            level += 1
        warnings.warn(
            f"{op} produced non-monotone endpoints; raw tuple returned",
            OrderingViolatedWarning,
            stacklevel=level,
        )
    return result


def add(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Component-wise endpoint sums; heights combine by minimum."""
    return _pairwise(a, b, operator.add)


def sub(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Component-wise endpoint differences in like index order.

    The result can be non-monotone; it is returned raw with an
    ``OrderingViolatedWarning`` rather than re-sorted.
    """
    return _warn_if_unordered(_pairwise(a, b, operator.sub), "sub")


def mul(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Component-wise endpoint products (approximate IT2 product).

    Only valid for non-negative supports, where the component-wise rule is
    monotone.
    """
    if a.upper.a1 < 0 or b.upper.a1 < 0:
        raise NegativeSupportError(
            f"multiplication needs non-negative supports, got lower bounds "
            f"{a.upper.a1} and {b.upper.a1}"
        )
    # ``_pairwise(a, b, operator.mul)`` written out, the same operations in the same
    # order: a's upper and lower trapezoid, then b's
    (a1, a2, a3, a4, ah1, ah2), (b1, b2, b3, b4, bh1, bh2) = a
    (c1, c2, c3, c4, ch1, ch2), (d1, d2, d3, d4, dh1, dh2) = b
    return IT2TrapFN(Trapezoid(a1 * c1, a2 * c2, a3 * c3, a4 * c4, min(ah1, ch1), min(ah2, ch2)),
                     Trapezoid(b1 * d1, b2 * d2, b3 * d3, b4 * d4, min(bh1, dh1), min(bh2, dh2)))


def div(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Cross-reversed component-wise quotients (approximate IT2 quotient).

    Endpoint k of the result divides a's endpoint k by b's endpoint 5-k
    within each trapezoid. The divisor's support must be strictly positive:
    all eight endpoints, since an inner one may stray below ``a1`` by the
    order slack.
    """
    # ``_pairwise(a, b, operator.truediv, cross=True)`` written out, as in ``mul``
    (c1, c2, c3, c4, ch1, ch2), (d1, d2, d3, d4, dh1, dh2) = b
    low = min(c1, c2, c3, c4, d1, d2, d3, d4)
    if low <= 0:
        raise DivisorSpansZeroError(
            f"divisor support must be strictly positive, got lower bound {low}"
        )
    (a1, a2, a3, a4, ah1, ah2), (b1, b2, b3, b4, bh1, bh2) = a
    return _warn_if_unordered(IT2TrapFN(
        Trapezoid(a1 / c4, a2 / c3, a3 / c2, a4 / c1, min(ah1, ch1), min(ah2, ch2)),
        Trapezoid(b1 / d4, b2 / d3, b3 / d2, b4 / d1, min(bh1, dh1), min(bh2, dh2)),
    ), "div")


def scalar_div(a: IT2TrapFN, m: int) -> IT2TrapFN:
    """Divide every endpoint by a positive integer; heights unchanged."""
    if m < 1:
        raise InvalidDivisorError(f"divisor must be a positive integer, got {m}")
    return _pairwise(a, IT2TrapFN.crisp(m), operator.truediv)


def _non_finite_sum(ends) -> float:
    """The sum of ``ends``, at least one of them NaN or infinite: NaN if one is NaN, or
    if both infinities are there; otherwise the one infinity."""
    odd = [x for x in ends if not math.isfinite(x)]
    return odd[0] if all(x == odd[0] for x in odd) else math.nan  # NaN equals nothing


def _float_ratio(x) -> tuple:
    x = float(x)
    return x.as_integer_ratio() if math.isfinite(x) else (None, 1)


def exact_integers(values) -> tuple[int, list]:
    """``values`` as exact integers over one power of two, each int as it is and any other
    number as ``float(x)``: the largest of their denominators, and each value's numerator
    over it (None for a NaN or an infinity). Every finite float is an integer over a power
    of two. ``float`` may raise ``TypeError``, ``ValueError`` or ``OverflowError``.
    """
    ratios = [x.as_integer_ratio() if type(x) is float and math.isfinite(x) or type(x) is int
              else _float_ratio(x) for x in values]
    denominator = max(map(operator.itemgetter(1), ratios), default=1)
    shift = denominator.bit_length()
    return denominator, [n and n << (shift - d.bit_length()) for n, d in ratios]


def mean_terms(values) -> tuple[int, list]:
    """What ``counted_mean`` adds of each of ``values``: one denominator for them all
    (``exact_integers`` of every endpoint), and per value a tuple of its eight endpoints
    as integers over it (None where NaN or infinite), its four heights, then its eight
    endpoints as they are.

    One endpoint over a large denominator puts every value there: a subnormal endpoint
    puts them all over 2**1074, and each sum then adds integers of over 1000 bits.
    """
    ends = [value.upper[:4] + value.lower[:4] for value in values]
    denominator, numerators = exact_integers(itertools.chain.from_iterable(ends))
    return denominator, [(*numerators[8 * i:8 * i + 8], *value.upper[4:], *value.lower[4:], *e)
                         for i, (value, e) in enumerate(zip(values, ends))]


def counted_mean(denominator: int, terms, counts) -> IT2TrapFN:
    """The mean of ``counts[i]`` copies of the value of each ``terms[i]``, all from one
    ``mean_terms`` call, whose denominator is ``denominator``.

    Each endpoint is the exact sum ``Σ count × numerator`` over Python ints, divided once
    by the total count times ``denominator``: an int/int true division, so it is the
    exact mean rounded once, whatever the order of ``terms``. A zero sum is ``-0.0``
    exactly when every addend is ``-0.0``, as in IEEE addition. A NaN, or both
    infinities, give NaN, and one infinity gives itself. Heights are the minimum.
    ``counts`` is read twice.
    """
    columns = list(zip(*terms))
    denominator *= sum(counts)
    ends = []
    for j, numerators in enumerate(columns[:8]):
        try:
            total = sum(map(operator.mul, counts, numerators))
        except TypeError:  # a None: a NaN or an infinity
            ends.append(_non_finite_sum(columns[12 + j]))
            continue
        if total:
            ends.append(total / denominator)
        else:
            ends.append(-0.0 if all(math.copysign(1.0, x) < 0 for x in columns[12 + j]) else 0.0)
    h1u, h2u, h1l, h2l = map(min, columns[8:12])
    return IT2TrapFN(Trapezoid(*ends[:4], h1u, h2u), Trapezoid(*ends[4:], h1l, h2l))


def mean(values) -> IT2TrapFN:
    """The mean operator: each endpoint's exact sum over ``values``, divided by their count
    and rounded once; heights are the minimum over ``values``.

    ``values`` is a non-empty sequence. This is ``counted_mean`` with a count of one per
    value, so the result does not depend on the order of ``values`` (see ``counted_mean``
    for zeros, NaN and infinities).
    """
    m = len(values)
    if m < 1:
        raise InvalidDivisorError("the mean needs at least one value")
    return counted_mean(*mean_terms(values), [1] * m)


def one_minus(a: IT2TrapFN) -> IT2TrapFN:
    """Crisp one minus fuzzy: endpoint k becomes 1 - endpoint 5-k; heights kept.

    Applying it twice returns the input (involution).
    """
    return _pairwise(_ONE, a, operator.sub, cross=True)
