"""Map banding, zone assignment, partitioning, and rendering."""

import json
import re
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from it2ipa import (
    Factor,
    IT2TrapFN,
    MapRegion,
    MapThresholds,
    OutOfRangeError,
    PipelineConfig,
    PlacedFactor,
    Report,
    ipamap,
    dtrat,
    partition,
    place,
    render_svg,
    render_text,
)
from it2ipa.report import run_pipeline
from it2ipa.scoring import FAILURE, SUCCESS
from it2ipa.writer import REPORT_FORMATS, Table, emit, json_chunks, sections

THIRDS = MapThresholds()

# direct comparison of the crisp values of the bundled dataset
COMPARISON_FAILURE = [
    "x_1", "x_3", "x_4", "x_6", "x_7", "x_8", "x_9",
    "x_10", "x_12", "x_13", "x_14", "x_17",
]
COMPARISON_SUCCESS = ["x_2", "x_5", "x_11", "x_15", "x_16", "x_18"]

# band arithmetic with cuts at 1/3 and 2/3 on the same values
REGION_WEAKNESS = ["x_4", "x_6", "x_8", "x_9", "x_13", "x_14"]
REGION_STRENGTH = ["x_5", "x_11", "x_16", "x_18"]
REGION_BALANCED = ["x_1", "x_2", "x_3", "x_7", "x_10", "x_12", "x_15", "x_17"]


def placed(factor, w_fuzzy, r_fuzzy, e_w, e_r):
    return PlacedFactor(factor, w_fuzzy, r_fuzzy, e_w, e_r, place(e_w, e_r, THIRDS))


@pytest.fixture(scope="module")
def placed_profiles(bundled_profiles):
    return [
        placed(p.factor, p.w_fuzzy, p.r_fuzzy, dtrat(p.w_fuzzy), dtrat(p.r_fuzzy))
        for p in bundled_profiles.values()
    ]


def crisp_profile(fid, e_w, e_r):
    one = IT2TrapFN.crisp(0.5)
    return placed(Factor(fid, fid, "d"), one, one, e_w, e_r)


class TestThresholds:
    def test_defaults_are_thirds(self):
        assert THIRDS.t1 == pytest.approx(1 / 3)
        assert THIRDS.t2 == pytest.approx(2 / 3)

    @pytest.mark.parametrize("t1,t2", [(0.5, 0.5), (0.7, 0.3), (0.0, 0.5), (0.4, 1.0)])
    def test_invalid_cuts_rejected(self, t1, t2):
        with pytest.raises(ValueError):
            MapThresholds(t1, t2)

    def test_cuts_of_any_real_type_are_stored_as_floats(self, tmp_path):
        def outputs(thresholds, out) -> dict:
            emit(run_pipeline(PipelineConfig(thresholds=thresholds)), out, REPORT_FORMATS)
            return {path.name: path.read_bytes() for path in out.iterdir()}

        thirds = MapThresholds(Fraction(1, 3), Fraction(2, 3))
        assert thirds == THIRDS and all(type(cut) is float for cut in thirds)
        assert outputs(thirds, tmp_path / "fraction") == outputs(THIRDS, tmp_path / "default")
        assert outputs(MapThresholds(Decimal("0.3"), Decimal("0.6")), tmp_path / "decimal")


class TestPlace:
    def test_reference_values_x13(self):
        region = place(0.585, 0.110, THIRDS)
        assert (region.importance_band, region.performance_band) == ("medium", "low")
        assert region.zone == "weakness"

    def test_center_is_balanced(self):
        region = place(0.5, 0.5, THIRDS)
        assert region == place(0.5, 0.5, THIRDS)
        assert (region.importance_band, region.performance_band, region.zone) == (
            "medium", "medium", "balanced",
        )

    def test_reference_values_x2(self):
        region = place(0.143, 0.331, THIRDS)
        assert (region.importance_band, region.performance_band) == ("low", "low")
        assert region.zone == "balanced"

    def test_band_boundaries_half_open(self):
        cuts = MapThresholds(0.25, 0.75)
        assert place(0.25, 0.0, cuts).importance_band == "medium"  # lower edge of band
        assert place(0.75, 0.0, cuts).importance_band == "high"
        assert place(0.0, 1.0, cuts).performance_band == "high"  # top band closed at 1

    def test_every_cell_is_a_member_of_regions(self):
        centers = (1 / 6, 1 / 2, 5 / 6)
        cells = [place(e_w, e_r, THIRDS) for e_w in centers for e_r in centers]
        for cell in cells:
            assert any(cell is region for region in ipamap.REGIONS), cell
        assert len({id(cell) for cell in cells}) == 9 == len(ipamap.REGIONS)

    @pytest.mark.parametrize("e_w,e_r", [(-0.01, 0.5), (0.5, 1.01), (2.0, 0.0)])
    def test_out_of_range(self, e_w, e_r):
        with pytest.raises(OutOfRangeError):
            place(e_w, e_r, THIRDS)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_zone_consistent_with_band_indices(self, e_w, e_r):
        region = place(e_w, e_r, THIRDS)
        bands = ("low", "medium", "high")
        gap = bands.index(region.importance_band) - bands.index(region.performance_band)
        expected = "weakness" if gap > 0 else ("balanced" if gap == 0 else "strength")
        assert region.zone == expected


class TestPartition:
    def test_comparison_mode_on_bundled_data(self, placed_profiles):
        failure, success, balanced = partition(placed_profiles, "comparison")
        assert [p.factor.id for p in failure] == COMPARISON_FAILURE
        assert [p.factor.id for p in success] == COMPARISON_SUCCESS
        assert balanced == []

    def test_region_mode_on_bundled_data(self, placed_profiles):
        failure, success, balanced = partition(placed_profiles, "region")
        assert [p.factor.id for p in failure] == REGION_WEAKNESS
        assert [p.factor.id for p in success] == REGION_STRENGTH
        assert [p.factor.id for p in balanced] == REGION_BALANCED

    def test_comparison_anchors(self, placed_profiles):
        by_id = {p.factor.id: p for p in placed_profiles}
        assert by_id["x_8"].e_w > by_id["x_8"].e_r  # failure candidate
        assert by_id["x_11"].e_w < by_id["x_11"].e_r  # success candidate

    def test_equal_values_are_balanced(self):
        profile = crisp_profile("f", 0.41, 0.41)
        failure, success, balanced = partition([profile], "comparison")
        assert (failure, success) == ([], [])
        assert balanced == [profile]

    def test_counts_sum_to_profile_count(self, placed_profiles):
        for mode in ("region", "comparison"):
            parts = partition(placed_profiles, mode)
            assert sum(len(part) for part in parts) == len(placed_profiles)

    def test_unknown_mode(self, placed_profiles):
        with pytest.raises(ValueError, match="mode"):
            partition(placed_profiles, "majority")

    @pytest.mark.parametrize("mode", ["region", "comparison"])
    def test_keeps_input_order(self, placed_profiles, mode):
        backwards = placed_profiles[::-1]
        forwards = partition(placed_profiles, mode)
        assert partition(backwards, mode) == tuple(part[::-1] for part in forwards)


def map_of(profiles) -> dict:
    """The ``map`` section of a report on ``profiles``, as ``writer.sections`` gives it."""
    report = Report(PipelineConfig(), "in.csv", profiles, {SUCCESS: [], FAILURE: []}, [], {},
                    None, None)
    return dict(sections(report))["map"]


def map_text(profiles) -> str:
    """The ``map`` section as ``report.json`` holds it."""
    return "".join(json_chunks([("map", map_of(profiles))]))


def map_section(profiles) -> dict:
    return json.loads(map_text(profiles))["map"]


# the map documents a report writes, from placed profiles
RENDERERS = {
    "text": lambda profiles: render_text(profiles, THIRDS),
    "structured": map_text,
    "svg": lambda profiles: render_svg(profiles, THIRDS),
}


class TestRenderMap:
    def test_empty_profiles_render_everywhere(self):
        for render in RENDERERS.values():
            assert render([])  # valid empty grid document
        structured = map_section([])
        assert len(structured["regions"]) == 9
        assert all(region["factors"] == [] for region in structured["regions"])

    @pytest.mark.parametrize("fmt", list(RENDERERS))
    def test_every_factor_exactly_once(self, placed_profiles, fmt):
        document = RENDERERS[fmt](placed_profiles)
        for profile in placed_profiles:
            token = re.escape(profile.factor.id)
            assert len(re.findall(rf"\b{token}\b", document)) == 1, profile.factor.id

    def test_text_deterministic(self, placed_profiles):
        first = RENDERERS["text"](placed_profiles)
        second = RENDERERS["text"](placed_profiles)
        assert first == second

    def test_structured_regions_partition_profiles(self, placed_profiles):
        cells = [region["factors"] for region in map_section(placed_profiles)["regions"]]
        assert sum(map(len, cells)) == len(placed_profiles)
        # each cell lists its factors in input order
        backwards = map_section(placed_profiles[::-1])
        for cell, reversed_cell in zip(cells, backwards["regions"]):
            assert reversed_cell["factors"] == cell[::-1]

    def test_lazy_map_builds_the_same_entries_when_iterated(self, placed_profiles):
        lazy = map_of(placed_profiles)
        tables = [region["factors"] for region in lazy["regions"]]
        assert all(isinstance(t, Table) and isinstance(t.rows, Iterator) for t in tables)
        expected = [
            {**cell._asdict(), "factors": [
                {"id": p.factor.id, "importance": p.e_w, "performance": p.e_r}
                for p in placed_profiles if p.region == cell
            ]}
            for cell in ipamap.REGIONS
        ]
        assert map_section(placed_profiles) == {"thresholds": [THIRDS.t1, THIRDS.t2],
                                                "regions": expected}

    def test_svg_is_self_contained(self, placed_profiles):
        svg = render_svg(placed_profiles, THIRDS)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg  # no external assets

    @pytest.mark.parametrize("fmt", ["structured", "text"])
    def test_a_region_outside_the_nine_cells_is_named(self, fmt):
        region = MapRegion("high", "low", "strength")  # the high/low cell is a weakness
        stray = crisp_profile("x_1", 0.9, 0.1)._replace(region=region)
        with pytest.raises(ValueError, match=re.escape(f"factor x_1: region {region!r}")):
            RENDERERS[fmt]([crisp_profile("x_2", 0.5, 0.5), stray])
