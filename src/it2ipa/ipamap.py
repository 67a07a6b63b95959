"""The 3x3 importance-performance map: banding, zoning, and rendering."""

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


def band(value: float, thresholds: MapThresholds) -> str:
    """Band assignment over [0, t1), [t1, t2), [t2, 1]."""
    if not (0.0 <= value <= 1.0):
        raise OutOfRangeError(f"map coordinates must lie in [0, 1], got {value}")
    if value < thresholds.t1:
        return "low"
    if value < thresholds.t2:
        return "medium"
    return "high"


def _zone(gap: float) -> str:
    return WEAKNESS if gap > 0 else (BALANCED if gap == 0 else STRENGTH)


# The nine cells, high importance first and low performance first within a row.
# Cells above the main diagonal (importance band exceeding performance band)
# are weaknesses, the diagonal is balanced, below is strength.
REGIONS = tuple(
    MapRegion(BANDS[i], BANDS[p], _zone(i - p)) for i in reversed(range(3)) for p in range(3)
)


def place(e_w: float, e_r: float, thresholds: MapThresholds) -> MapRegion:
    """The member of ``REGIONS`` that a crisp importance and performance fall in."""
    row = 2 - BANDS.index(band(e_w, thresholds))
    return REGIONS[3 * row + BANDS.index(band(e_r, thresholds))]


def partition(
    profiles: list[PlacedFactor],
    mode: str = REGION_MODE,
) -> tuple[list[PlacedFactor], list[PlacedFactor], list[PlacedFactor]]:
    """Split placed profiles into (failure candidates, success candidates, balanced).

    ``region`` mode follows the map zone; ``comparison`` mode compares the
    crisp values directly (importance above performance means a failure
    candidate). Each output list keeps the order of ``profiles``.
    """
    if mode not in PARTITION_MODES:
        raise ValueError(f"mode must be '{REGION_MODE}' or '{COMPARISON_MODE}', got {mode!r}")
    parts: dict[str, list[PlacedFactor]] = {WEAKNESS: [], STRENGTH: [], BALANCED: []}
    for profile in profiles:
        zone = profile.region.zone if mode == REGION_MODE else _zone(profile.e_w - profile.e_r)
        parts[zone].append(profile)
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


def render_text(profiles: list[PlacedFactor], thresholds: MapThresholds) -> str:
    """The map as a fixed-width text grid, each cell's factor ids in input order.

    A region that is not one of ``REGIONS`` raises ``ValueError``.
    """
    content = {cell[:2]: " ".join(p.factor.id for p in members)  # by the two bands
               for cell, members in by_cell(profiles).items()}
    t1, t2 = thresholds
    row_label = "importance"
    widths = {
        p: max([len(p)] + [len(content[(i, p)]) for i in BANDS]) for p in BANDS
    }
    label_width = max(len(row_label), max(len(b) for b in BANDS))

    lines = []
    header = " | ".join([row_label.ljust(label_width)] + [p.ljust(widths[p]) for p in BANDS])
    lines.append(header)
    lines.append("-+-".join(["-" * label_width] + ["-" * widths[p] for p in BANDS]))
    for importance_band in reversed(BANDS):
        row = [importance_band.ljust(label_width)]
        row += [content[(importance_band, p)].ljust(widths[p]) for p in BANDS]
        lines.append(" | ".join(row))
    lines.append("")
    lines.append(f"columns: performance bands (cuts at {t1:.6g}, {t2:.6g})")
    return "\n".join(lines) + "\n"


# A label's text: ``&`` ``<`` ``>`` escaped; CR as a character reference, since
# an XML parser reads a bare CR, or CR LF, as LF; and U+FFFD for each character
# that XML 1.0 cannot carry at all, not even as a character reference: the C0
# controls but tab, LF and CR, and U+FFFE and U+FFFF.
_SVG_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;", **dict.fromkeys(
    [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF], "\ufffd")})


def render_svg(profiles: list[PlacedFactor], thresholds: MapThresholds) -> str:
    """The map as a self-contained SVG scatter over the band grid, points in input order.

    Each label is its factor id, a character XML 1.0 forbids written as U+FFFD,
    so the file is well-formed XML whatever the ids hold.
    """
    size, margin = 500.0, 70.0
    width = height = size + 2 * margin

    def sx(v: float) -> str:
        return f"{margin + v * size:.2f}"

    def sy(v: float) -> str:
        return f"{margin + (1.0 - v) * size:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "<style>text{font-family:monospace;font-size:12px;fill:#222}"
        ".grid{stroke:#999;stroke-dasharray:4 3}.frame{stroke:#222;fill:none}"
        ".pt{fill:#1a5fb4}.diag{stroke:#ccc}</style>",
        f'<rect class="frame" x="{margin:.2f}" y="{margin:.2f}" '
        f'width="{size:.2f}" height="{size:.2f}"/>',
        f'<line class="diag" x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}"/>',
    ]
    for cut in (thresholds.t1, thresholds.t2):
        parts.append(f'<line class="grid" x1="{sx(cut)}" y1="{sy(0)}" x2="{sx(cut)}" y2="{sy(1)}"/>')
        parts.append(f'<line class="grid" x1="{sx(0)}" y1="{sy(cut)}" x2="{sx(1)}" y2="{sy(cut)}"/>')

    band_centers = {
        "low": thresholds.t1 / 2,
        "medium": (thresholds.t1 + thresholds.t2) / 2,
        "high": (thresholds.t2 + 1.0) / 2,
    }
    for name, center in band_centers.items():
        parts.append(
            f'<text x="{sx(center)}" y="{height - 30:.2f}" text-anchor="middle">{name}</text>'
        )
        parts.append(
            f'<text x="{margin - 10:.2f}" y="{sy(center)}" text-anchor="end">{name}</text>'
        )
    parts.append(
        f'<text x="{margin + size / 2:.2f}" y="{height - 10:.2f}" '
        f'text-anchor="middle">performance</text>'
    )
    parts.append(
        f'<text x="15" y="{margin + size / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {margin + size / 2:.2f})">importance</text>'
    )
    # Each distinct coordinate's texts, the point's and its label's, made once. Equal
    # coordinates, 0.0 and -0.0 too, give equal texts.
    xs, ys = {}, {}
    for profile in profiles:
        if profile.e_r not in xs:
            x = sx(profile.e_r)
            xs[profile.e_r] = x, f"{float(x) + 5:.2f}"
        if profile.e_w not in ys:
            y = sy(profile.e_w)
            ys[profile.e_w] = y, f"{float(y) - 4:.2f}"
        (x, label_x), (y, label_y) = xs[profile.e_r], ys[profile.e_w]
        parts.append(f'<circle class="pt" cx="{x}" cy="{y}" r="3"/>')
        label = profile.factor.id.translate(_SVG_TEXT)
        parts.append(f'<text x="{label_x}" y="{label_y}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
