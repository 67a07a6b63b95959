"""Byte-for-byte regression of every output; the runs are defined in ``golden_cases``."""

import pytest

from golden_cases import ASCII_LOCALE, CASES, HERE, mismatches


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_outputs_match_golden(case, tmp_path):
    assert mismatches(case, tmp_path) == []


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    assert mismatches(ASCII_LOCALE, tmp_path, ascii_locale=True) == []


def test_every_golden_set_is_a_case():
    sets = sorted(path.parent for path in HERE.rglob("report.json"))
    assert sorted(HERE / case.golden for case in CASES) == sets
