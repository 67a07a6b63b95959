"""Byte-for-byte regression of every output; the runs are defined in ``golden_cases``."""

import shutil

import pytest

import golden_cases
from golden_cases import ASCII_LOCALE, CASES, HERE, Case, mismatches, write


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_outputs_match_golden(case, tmp_path):
    assert mismatches(case, tmp_path) == []


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    assert mismatches(ASCII_LOCALE, tmp_path, ascii_locale=True) == []


def test_every_golden_set_is_a_case():
    sets = sorted(path.parent for path in HERE.rglob("report.json"))
    assert sorted(HERE / case.golden for case in CASES) == sets


def files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_writing_into_a_copy_reproduces_every_golden_set(tmp_path):
    for case in CASES:
        shutil.copytree(HERE / case.golden, tmp_path / case.golden)
    (tmp_path / CASES[0].golden / "stale.txt").write_text("from an older run")
    assert write(tmp_path) == []
    for case in CASES:
        assert files(tmp_path / case.golden) == files(HERE / case.golden), case.name


def test_nothing_is_written_when_a_case_fails(tmp_path, monkeypatch):
    broken = Case("broken", "broken", ".", ("--ratings", "missing.csv"), "missing.csv", "<missing>")
    monkeypatch.setattr(golden_cases, "CASES", (CASES[0], broken))
    assert write(tmp_path) == ["broken: exit status 2"]
    assert list(tmp_path.iterdir()) == []
