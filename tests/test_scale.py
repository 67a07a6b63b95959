"""Linguistic scale definition, lookup, validation, and file loading."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from it2ipa import (
    LinguisticScale,
    UnknownTermError,
    default_scale,
    dtrat,
    it2,
    load_scale,
    lookup,
    validate_scale,
)
from it2ipa.errors import InputFileError

EXPECTED_LABELS = ("Very Low", "Low", "Medium", "High", "Very High")

# quarter-sum averages of the five terms, computed by hand
EXPECTED_CRISP = (0.01875, 0.11625, 0.4875, 0.85875, 0.95625)


def test_term_count_and_order(scale):
    assert scale.labels == EXPECTED_LABELS
    assert len(scale.terms) == 5


def test_medium_encoding(scale):
    expected = it2((0.3, 0.5, 0.5, 0.7, 1, 1), (0.4, 0.5, 0.5, 0.6, 0.9, 0.9))
    assert lookup(scale, "Medium") == expected


def test_defuzzified_sequence_strictly_increasing(scale):
    crisp = [dtrat(value) for _, value in scale.terms]
    assert crisp == pytest.approx(EXPECTED_CRISP, abs=1e-12)
    assert all(a < b for a, b in zip(crisp, crisp[1:]))


def test_lookup_case_and_whitespace(scale, terms):
    assert lookup(scale, "low") == terms["Low"]
    assert lookup(scale, "  Very High ") == terms["Very High"]
    assert lookup(scale, "MEDIUM") == terms["Medium"]


def test_lookup_rejects_partial_match(scale):
    with pytest.raises(UnknownTermError) as excinfo:
        lookup(scale, "Med")
    message = str(excinfo.value)
    assert "Med" in message and "Very High" in message  # vocabulary listed


def test_lookup_round_trips_every_label(scale):
    for label, value in scale.terms:
        assert lookup(scale, label) == value


# Labels whose keys collide: the first term with a key wins, whatever spelling is looked up.
_COLLIDING = tuple((label, it2((k / 10,) * 4 + (1, 1), (k / 10,) * 4 + (1, 1)))
                   for k, label in enumerate(("Low", "LOW", "  high", "High", "ß", "SS", "ss ")))
_SPELLINGS = (str, str.lower, str.upper, str.title, str.casefold,
              lambda s: f" {s}", lambda s: f"{s}\t ", lambda s: s.strip())


@given(st.sampled_from([label for label, _ in _COLLIDING]) | st.text(max_size=6),
       st.sampled_from(_SPELLINGS))
def test_lookup_returns_the_first_term_with_the_same_key(text, spell):
    scale = LinguisticScale(_COLLIDING)
    text = spell(text)
    key = text.strip().casefold()
    matches = [value for label, value in _COLLIDING if label.strip().casefold() == key]
    if matches:
        assert lookup(scale, text) is matches[0]
    else:
        with pytest.raises(UnknownTermError):
            lookup(scale, text)


def test_validate_default_scale_clean(scale):
    assert validate_scale(scale) == []


def test_validate_flags_duplicate_label(terms):
    dup = LinguisticScale((("Low", terms["Low"]), ("low", terms["Medium"])))
    problems = validate_scale(dup)
    assert len([p for p in problems if "duplicate" in p]) == 1


def test_validate_flags_non_increasing_terms(terms):
    # two identical terms share a defuzzified value
    flat = LinguisticScale((("A", terms["Low"]), ("B", terms["Low"])))
    assert any("strictly increasing" in p for p in validate_scale(flat))


def test_validate_flags_support_outside_unit_interval():
    wide = it2((-0.1, 0.2, 0.3, 0.4, 1, 1), (0.0, 0.2, 0.3, 0.4, 0.9, 0.9))
    problems = validate_scale(LinguisticScale((("Wide", wide),)))
    assert any("outside [0, 1]" in p for p in problems)


@pytest.mark.parametrize("upper,lower", [
    ((0, 0, 0, 0), (-1e-13, 0, 0, 0)),  # the lower support, within the containment slack
    ((1, 1, 1, 1), (1, 1, 1, 1.0000000000001)),
    ((0, -5e-13, -5e-13, 0), (0, 0, 0, 0)),  # inner endpoints, within the order slack
])
def test_validate_flags_any_endpoint_outside_unit_interval(upper, lower):
    value = it2((*upper, 1, 1), (*lower, 1, 1))
    assert value.violations() == []
    problems = validate_scale(LinguisticScale((("Edge", value),)))
    assert problems == ["term 'Edge': support outside [0, 1]"]


def test_replace_rebuilds_the_label_index(scale, terms):
    renamed = scale._replace(terms=(("Lo", terms["Low"]),))
    assert lookup(renamed, "lo") == terms["Low"]
    assert renamed == LinguisticScale((("Lo", terms["Low"]),))


class TestLoadScale:
    def _write(self, path, terms):
        path.write_text(json.dumps({"terms": terms}))

    def test_loads_valid_file(self, tmp_path, scale):
        path = tmp_path / "scale.json"
        self._write(path, [
            {"label": label, "value": value.to_text()} for label, value in scale.terms
        ])
        loaded = load_scale(path)
        assert loaded.labels == scale.labels
        assert lookup(loaded, "medium") == lookup(scale, "Medium")

    def test_byte_order_mark_accepted(self, tmp_path, scale):
        path = tmp_path / "scale.json"
        terms = [{"label": label, "value": value.to_text()} for label, value in scale.terms]
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"terms": terms}).encode())
        assert load_scale(path) == scale

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scale.json"
        path.write_text("{not json")
        with pytest.raises(InputFileError, match="invalid JSON"):
            load_scale(path)

    def test_integer_over_the_digit_limit_names_the_file(self, tmp_path):
        path = tmp_path / "scale.json"
        path.write_text('{"terms": [%s]}' % ("9" * 4301))
        with pytest.raises(InputFileError, match="invalid JSON") as excinfo:
            load_scale(path)
        assert excinfo.value.file == str(path)

    def test_rejects_missing_terms(self, tmp_path):
        path = tmp_path / "scale.json"
        path.write_text(json.dumps({"terms": []}))
        with pytest.raises(InputFileError, match="non-empty 'terms'"):
            load_scale(path)

    def test_rejects_malformed_value(self, tmp_path):
        path = tmp_path / "scale.json"
        self._write(path, [{"label": "Low", "value": "(1,2,3)"}])
        with pytest.raises(InputFileError, match="Low"):
            load_scale(path)

    def test_rejects_invalid_scale(self, tmp_path, scale):
        # same term twice: duplicate label + flat defuzzified sequence
        low = dict(label="Low", value=lookup(scale, "Low").to_text())
        path = tmp_path / "scale.json"
        self._write(path, [low, low])
        with pytest.raises(InputFileError, match="invalid scale"):
            load_scale(path)
