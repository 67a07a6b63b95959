"""The 3x3 importance-performance map: banding, zoning, and partitioning."""

from __future__ import annotations

from collections import namedtuple

from .survey import FactorProfile

BANDS = ("low", "medium", "high")
WEAKNESS = "weakness"
BALANCED = "balanced"
STRENGTH = "strength"

REGION_MODE = "region"
COMPARISON_MODE = "comparison"
PARTITION_MODES = (REGION_MODE, COMPARISON_MODE)


class OutOfRangeError(ValueError):
    """A crisp coordinate outside [0, 1]."""


class MapThresholds(namedtuple("MapThresholds", "t1 t2")):
    """Cut points splitting each axis into low / medium / high bands, stored as floats."""

    __slots__ = ()

    def __new__(cls, t1=1.0 / 3.0, t2=2.0 / 3.0):
        if not (0.0 < t1 < t2 < 1.0):
            raise ValueError(f"need 0 < t1 < t2 < 1, got ({t1}, {t2})")
        return tuple.__new__(cls, (float(t1), float(t2)))

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too


MapRegion = namedtuple("MapRegion", "importance_band performance_band zone")
MapRegion.__doc__ = """One of the nine map cells plus its diagonal zone."""

PlacedFactor = namedtuple("PlacedFactor", FactorProfile._fields + ("e_w", "e_r", "region"))
PlacedFactor.__doc__ = """A profile with its crisp importance and performance and its map cell."""


def _band(value: float, thresholds: MapThresholds) -> int:
    """The index in ``BANDS`` of the band of [0, t1), [t1, t2), [t2, 1] that ``value`` is in."""
    if not (0.0 <= value <= 1.0):
        raise OutOfRangeError(f"map coordinates must lie in [0, 1], got {value}")
    return (value >= thresholds.t1) + (value >= thresholds.t2)


def _zone(gap: float) -> str:
    return WEAKNESS if gap > 0 else (BALANCED if gap == 0 else STRENGTH)


# The nine cells, high importance first and low performance first within a row.
# Cells above the main diagonal (importance band exceeding performance band)
# are weaknesses, the diagonal is balanced, below is strength.
REGIONS = tuple(
    MapRegion(BANDS[i], BANDS[p], _zone(i - p)) for i in reversed(range(3)) for p in range(3)
)


def place(e_w: float, e_r: float, thresholds: MapThresholds) -> MapRegion:
    """The member of ``REGIONS`` that a crisp importance and performance fall in.

    A coordinate outside [0, 1], NaN included, raises ``OutOfRangeError``.
    """
    return REGIONS[3 * (2 - _band(e_w, thresholds)) + _band(e_r, thresholds)]


def partition(
    profiles: list[PlacedFactor],
    mode: str = REGION_MODE,
) -> tuple[list[PlacedFactor], list[PlacedFactor], list[PlacedFactor]]:
    """Split placed profiles into (failure candidates, success candidates, balanced).

    ``region`` mode follows the map zone; ``comparison`` mode compares the
    crisp values directly (importance above performance means a failure
    candidate). Each output list keeps the order of ``profiles``. Another
    ``mode``, or in ``region`` mode a region whose zone is none of the three,
    raises ``ValueError``.
    """
    if mode not in PARTITION_MODES:
        raise ValueError(f"mode must be '{REGION_MODE}' or '{COMPARISON_MODE}', got {mode!r}")
    parts: dict[str, list[PlacedFactor]] = {WEAKNESS: [], STRENGTH: [], BALANCED: []}
    for profile in profiles:
        zone = profile.region.zone if mode == REGION_MODE else _zone(profile.e_w - profile.e_r)
        try:
            parts[zone].append(profile)
        except KeyError:
            raise ValueError(f"factor {profile.factor.id}: region {profile.region!r} "
                             f"has a zone that is not {WEAKNESS}, {BALANCED} or {STRENGTH}") from None
    return parts[WEAKNESS], parts[STRENGTH], parts[BALANCED]


def by_cell(profiles: list[PlacedFactor]) -> dict[MapRegion, list[PlacedFactor]]:
    """The ``REGIONS`` in order, each with its profiles in input order; any other raises ``ValueError``."""
    cells = {cell: [] for cell in REGIONS}
    for profile in profiles:
        try:
            cells[profile.region].append(profile)
        except KeyError:
            raise ValueError(f"factor {profile.factor.id}: region {profile.region!r} "
                             "is not one of the nine ipamap.REGIONS") from None
    return cells
