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

import operator
import re
import warnings
from collections import namedtuple
from functools import cache, reduce


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
        pairs = ((self.a1, self.a2), (self.a2, self.a3), (self.a3, self.a4))
        return all(right >= left - _ORDER_SLACK for left, right in pairs)


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_TRAP = rf"\(\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*;\s*({_NUM})\s*,\s*({_NUM})\s*\)"
_CANONICAL = re.compile(rf"^\s*\(\s*{_TRAP}\s*,\s*{_TRAP}\s*\)\s*$")


_TEXT = "(({0},{0},{0},{0};{0},{0}),({0},{0},{0},{0};{0},{0}))"
_EXACT_TEXT = _TEXT.format("%r")
# Display rounding: drop the zeros that end a number with a point (and a bare point); -0 is 0.
_TRAILING_ZEROS = re.compile(r"\.?0+(?=[,;)])")
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
            return _EXACT_TEXT % tuple(map(float, values))
        text = _rounded_text(decimals) % values
        if decimals > 0:  # every number has a point, so only zeros after it can end one
            text = _TRAILING_ZEROS.sub("", text)
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


def _min_heights(x: Trapezoid, y: Trapezoid) -> tuple[float, float]:
    return (min(x.h1, y.h1), min(x.h2, y.h2))


def _warn_if_unordered(result: IT2TrapFN, op: str) -> IT2TrapFN:
    if not result.is_ordered:
        warnings.warn(
            f"{op} produced non-monotone endpoints; raw tuple returned",
            OrderingViolatedWarning,
            stacklevel=3,
        )
    return result


def add(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Component-wise endpoint sums; heights combine by minimum."""
    def trap(x: Trapezoid, y: Trapezoid) -> Trapezoid:
        return Trapezoid(x.a1 + y.a1, x.a2 + y.a2, x.a3 + y.a3, x.a4 + y.a4,
                         *_min_heights(x, y))

    return IT2TrapFN(trap(a.upper, b.upper), trap(a.lower, b.lower))


def sub(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Component-wise endpoint differences in like index order.

    The result can be non-monotone; it is returned raw with an
    ``OrderingViolatedWarning`` rather than re-sorted.
    """
    def trap(x: Trapezoid, y: Trapezoid) -> Trapezoid:
        return Trapezoid(x.a1 - y.a1, x.a2 - y.a2, x.a3 - y.a3, x.a4 - y.a4,
                         *_min_heights(x, y))

    return _warn_if_unordered(IT2TrapFN(trap(a.upper, b.upper), trap(a.lower, b.lower)), "sub")


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

    def trap(x: Trapezoid, y: Trapezoid) -> Trapezoid:
        return Trapezoid(x.a1 * y.a1, x.a2 * y.a2, x.a3 * y.a3, x.a4 * y.a4,
                         *_min_heights(x, y))

    return IT2TrapFN(trap(a.upper, b.upper), trap(a.lower, b.lower))


def div(a: IT2TrapFN, b: IT2TrapFN) -> IT2TrapFN:
    """Cross-reversed component-wise quotients (approximate IT2 quotient).

    Endpoint k of the result divides a's endpoint k by b's endpoint 5-k
    within each trapezoid. The divisor's support must be strictly positive.
    """
    if b.upper.a1 <= 0:
        raise DivisorSpansZeroError(
            f"divisor support must be strictly positive, got lower bound {b.upper.a1}"
        )

    def trap(x: Trapezoid, y: Trapezoid) -> Trapezoid:
        return Trapezoid(x.a1 / y.a4, x.a2 / y.a3, x.a3 / y.a2, x.a4 / y.a1,
                         *_min_heights(x, y))

    return _warn_if_unordered(IT2TrapFN(trap(a.upper, b.upper), trap(a.lower, b.lower)), "div")


def scalar_div(a: IT2TrapFN, m: int) -> IT2TrapFN:
    """Divide every endpoint by a positive integer; heights unchanged."""
    if m < 1:
        raise InvalidDivisorError(f"divisor must be a positive integer, got {m}")

    def trap(t: Trapezoid) -> Trapezoid:
        return Trapezoid(t.a1 / m, t.a2 / m, t.a3 / m, t.a4 / m, t.h1, t.h2)

    return IT2TrapFN(trap(a.upper), trap(a.lower))


def mean(values) -> IT2TrapFN:
    """The mean operator: endpoint sums over ``values`` divided by their count.

    ``values`` is a non-empty sequence. Each endpoint is summed left to right, seeded with the first value, and
    heights are the minimum over ``values``, so the result equals
    ``scalar_div(reduce(add, values), len(values))`` bit for bit while
    building no partial sums. (Builtin ``sum`` is not used: from Python 3.12
    it compensates rounding and so can differ in the last ulp.)
    """
    m = len(values)
    if m < 1:
        raise InvalidDivisorError("the mean needs at least one value")

    def trap(traps) -> Trapezoid:
        *ends, h1, h2 = zip(*traps)
        return Trapezoid(*(reduce(operator.add, column) / m for column in ends), min(h1), min(h2))

    return IT2TrapFN(trap(v.upper for v in values), trap(v.lower for v in values))


def one_minus(a: IT2TrapFN) -> IT2TrapFN:
    """Crisp one minus fuzzy: endpoint k becomes 1 - endpoint 5-k; heights kept.

    Applying it twice returns the input (involution).
    """
    def trap(t: Trapezoid) -> Trapezoid:
        return Trapezoid(1.0 - t.a4, 1.0 - t.a3, 1.0 - t.a2, 1.0 - t.a1, t.h1, t.h2)

    return IT2TrapFN(trap(a.upper), trap(a.lower))
