"""Byte-for-byte regression of every output on the bundled dataset.

``golden/`` holds the files of ``it2ipa --out DIR --format structured
--format delimited --format svg-map``. The report names its input by
absolute path, so the golden copy carries a placeholder in its place.
"""

import json
from pathlib import Path

from it2ipa import fixtures
from it2ipa.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ["--format", "structured", "--format", "delimited", "--format", "svg-map"]


def portable(data: bytes) -> bytes:
    here = json.dumps(str(fixtures.aggregated_path())).encode()
    return data.replace(here, json.dumps("<bundled>").encode())


def test_outputs_match_golden(tmp_path, capsys):
    assert main([]) == 0
    stdout = capsys.readouterr().out.encode()
    assert portable(stdout) == (GOLDEN / "report.json").read_bytes()

    assert main(["--out", str(tmp_path), *FORMATS]) == 0
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert portable((tmp_path / name).read_bytes()) == (GOLDEN / name).read_bytes(), name
