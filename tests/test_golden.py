"""Byte-for-byte regression of every output on two inputs.

``golden/`` holds the files of ``it2ipa --out DIR --format structured
--format delimited --format svg-map`` on the bundled (already aggregated)
dataset. ``golden_ratings/out/`` holds the same files for ``--ratings
golden_ratings/ratings.csv``: 20 factors x 100 experts of seeded linguistic
ratings in mixed case and padding, so the run goes through ``lookup`` and
``aggregate``. ``golden_aggregated/out/`` holds them for ``--aggregated
aggregated.csv --psychometrics psychometrics.json`` run inside
``golden_aggregated/``: 40 pre-aggregated factors (the benchmark's
aggregated generator, seed ``"golden"``, with non-ASCII, quoted, tab and
backslash names and one ``-0.0`` endpoint) and CVR counts with three Likert
grids, so the psychometrics section, the rank breakdowns and
``psychometrics.csv`` are pinned too. ``golden_flags/`` pins the non-default
flags: ``bundled/`` and ``aggregated/`` hold the files of the bundled and the
``golden_aggregated`` inputs run with ``--cffs-mode as_written
--partition-mode comparison --thresholds 0.2,0.5``, and ``scale/`` those of
``golden_ratings/ratings.csv`` run with ``--scale scale.json``, a five-term
scale with other values, whose labels are spelled in another case or with
padding. A report names its input by path, so the golden copies carry a
placeholder in its place, or the relative path the run was given. The same files come out under a locale whose encoding is
ASCII: outputs are written as UTF-8 whatever the locale.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import it2ipa
from it2ipa import fixtures
from it2ipa.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
GOLDEN_RATINGS = HERE / "golden_ratings"
GOLDEN_AGGREGATED = HERE / "golden_aggregated"
GOLDEN_FLAGS = HERE / "golden_flags"
FORMATS = ["--format", "structured", "--format", "delimited", "--format", "svg-map"]
FLAGS = ["--cffs-mode", "as_written", "--partition-mode", "comparison", "--thresholds", "0.2,0.5"]


def portable(data: bytes, source: Path, placeholder: str) -> bytes:
    return data.replace(json.dumps(str(source)).encode(), json.dumps(placeholder).encode())


def assert_outputs_match(golden: Path, source: Path, placeholder: str, args: list[str],
                         out_dir: Path, capsys) -> None:
    assert main(args) == 0
    stdout = capsys.readouterr().out.encode()
    assert portable(stdout, source, placeholder) == (golden / "report.json").read_bytes()

    assert main([*args, "--out", str(out_dir), *FORMATS]) == 0
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        written = portable((out_dir / name).read_bytes(), source, placeholder)
        assert written == (golden / name).read_bytes(), name


def test_outputs_match_golden(tmp_path, capsys):
    assert_outputs_match(GOLDEN, fixtures.aggregated_path(), "<bundled>", [], tmp_path, capsys)


def test_ratings_outputs_match_golden(tmp_path, capsys):
    ratings = GOLDEN_RATINGS / "ratings.csv"
    assert_outputs_match(GOLDEN_RATINGS / "out", ratings, "<ratings>",
                         ["--ratings", str(ratings)], tmp_path, capsys)


def test_aggregated_psychometrics_outputs_match_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_AGGREGATED)
    source = Path("aggregated.csv")
    assert_outputs_match(GOLDEN_AGGREGATED / "out", source, str(source),
                         ["--aggregated", str(source), "--psychometrics", "psychometrics.json"],
                         tmp_path, capsys)


def test_non_default_flags_outputs_match_golden(tmp_path, capsys):
    assert_outputs_match(GOLDEN_FLAGS / "bundled", fixtures.aggregated_path(), "<bundled>", FLAGS,
                         tmp_path, capsys)


def test_non_default_flags_aggregated_outputs_match_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_AGGREGATED)
    source = Path("aggregated.csv")
    assert_outputs_match(GOLDEN_FLAGS / "aggregated", source, str(source),
                         ["--aggregated", str(source), "--psychometrics", "psychometrics.json",
                          *FLAGS], tmp_path, capsys)


def test_custom_scale_outputs_match_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_FLAGS)
    source = Path("../golden_ratings/ratings.csv")
    assert_outputs_match(GOLDEN_FLAGS / "scale", source, str(source),
                         ["--ratings", str(source), "--scale", "scale.json"], tmp_path, capsys)


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    # LC_ALL=C without UTF-8 mode: the preferred encoding is ASCII, and the
    # factor names and a dimension of this input are not
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(it2ipa.__file__).resolve().parents[1])}
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert encoding.lower().replace("-", "") != "utf8", encoding
    done = subprocess.run(
        [sys.executable, "-m", "it2ipa.cli", "--aggregated", "aggregated.csv",
         "--psychometrics", "psychometrics.json", "--out", str(tmp_path), *FORMATS],
        cwd=GOLDEN_AGGREGATED, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    golden = GOLDEN_AGGREGATED / "out"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
