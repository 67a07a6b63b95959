"""The report is a function of its inputs' content, not of how the files spell it.

Metamorphic tests (Chen, Cheung & Yiu 1998): a generated input is run through
the CLI in-process, then rewritten without changing what it says and run again
in another working directory. Every ``--out`` file, and the stdout of a run
without ``--out``, must stay byte-identical. The rewrites: factor rows
shuffled; the expert columns of a ratings file shuffled; CRLF line ends; a
BOM; blank and ``#`` comment lines; the psychometrics file's keys, respondent
rows and item columns shuffled and the file re-indented; and ``--out`` spelled
``o``, ``./o``, ``o/`` or ``o//``. Two things differ by design, so both runs
name their files alike: the report names its input as given, and the
``--out`` listing on stdout names each file as ``--out`` was written, so only
the files are compared there.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import default_scale
from it2ipa.cli import main
from helpers import it2_values

TESTS = Path(__file__).parent
FORMATS = ["--format", "structured", "--format", "delimited", "--format", "svg-map"]
LABELS = default_scale().labels
# a label whose value starts above 0, so that each importance can divide a failure score
ABOVE_ZERO = ("Medium", "High", "Very High")
INPUT = "in.csv"
PSYCHOMETRICS = "psy.json"


@st.composite
def factor_rows(draw, kind: str) -> tuple[list[str], list[list[str]]]:
    """A header and data rows of ``kind``: unique ids that sort by number and by text."""
    ids = draw(st.lists(st.text(alphabet="x01_9", min_size=1, max_size=3), min_size=1,
                        max_size=6, unique=True))
    rows = []
    if kind == "aggregated":
        header = ["factor_id", "name", "dimension", "importance", "performance"]
        for fid in ids:
            rows.append([fid, draw(st.text(alphabet='ab ,"é', max_size=4)),
                         draw(st.sampled_from(["D1", "D2", "D, 3"])),
                         draw(it2_values(lo=0.01)).to_text(), draw(it2_values()).to_text()])
        return header, rows
    experts = draw(st.integers(1, 12))
    header = ["factor_id", "name", "dimension", "facet", *(f"E{j}" for j in range(experts))]
    cells = st.sampled_from(LABELS).flatmap(
        lambda label: st.sampled_from([label, label.upper(), label.lower(), f" {label} "]))
    for fid in ids:
        name = draw(st.text(alphabet='ab ,"é', max_size=4))
        dimension = draw(st.sampled_from(["D1", "D2"]))
        importance = draw(st.lists(cells, min_size=experts, max_size=experts))
        importance[draw(st.integers(0, experts - 1))] = draw(st.sampled_from(ABOVE_ZERO))
        rows.append([fid, name, dimension, "importance", *importance])
        rows.append([fid, name, dimension, "performance",
                     *draw(st.lists(cells, min_size=experts, max_size=experts))])
    return header, rows


@st.composite
def psychometrics(draw) -> dict:
    """A psychometrics document with one or both sections."""
    doc = {}
    if draw(st.booleans()):
        panel = draw(st.integers(1, 12))
        ids = draw(st.lists(st.sampled_from(["c1", "c2", "c10", "x_3"]), min_size=1, unique=True))
        counts = {cid: draw(st.integers(0, panel)) for cid in ids}
        doc["content_validity"] = {"panel_size": panel, "essential_counts": counts}
        if draw(st.booleans()):
            doc["content_validity"]["threshold"] = 0.5
    if not doc or draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(["Culture", "People", "Dim 2", "Dim 10"]),
                              min_size=1, max_size=3, unique=True))
        respondents, items = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        score = st.integers(1, 5) | st.floats(1, 5)
        grid = st.lists(st.lists(score, min_size=items, max_size=items),
                        min_size=respondents, max_size=respondents)
        # two respondents at either end of the scale, so that the total scores vary
        doc["reliability"] = {"dimensions": {name: [[1] * items, [5] * items, *draw(grid)]
                                             for name in names}}
    return doc


def csv_text(header: list[str], rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


@st.composite
def rewritten_csv(draw, header: list[str], rows: list[list[str]]) -> str:
    """The same table with its rows shuffled, blank and comment lines added, a BOM or CRLF."""
    lines = csv_text(header, draw(st.permutations(rows))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# a comment", "#, with, cells", ",,", "   "])))
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return "\ufeff" + text if draw(st.booleans()) else text


def shuffled(draw, value):
    """``value`` with the keys of every object, and the rows and item columns of every
    grid, in a drawn order."""
    if isinstance(value, dict):
        return {key: shuffled(draw, value[key]) for key in draw(st.permutations(list(value)))}
    if isinstance(value, list) and value and isinstance(value[0], list):
        items = draw(st.permutations(range(len(value[0]))))
        return [[row[j] for j in items] for row in draw(st.permutations(value))]
    return value


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run(directory: Path, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process CLI run in ``directory``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with working_directory(directory), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def outputs(directory: Path, argv: list[str], out: str) -> tuple:
    """The stdout of a run without ``--out``, and each file of a run with ``--out out``."""
    code, stdout, stderr = run(directory, argv)
    assert (code, stderr) == (0, ""), stderr
    code, _, stderr = run(directory, [*argv, "--out", out, *FORMATS])
    assert (code, stderr) == (0, ""), stderr
    files = {path.name: path.read_bytes() for path in sorted((directory / "o").iterdir())}
    return stdout, files


@pytest.mark.parametrize("kind", ["aggregated", "ratings"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_rewritten_inputs_give_the_same_outputs(kind, data):
    header, rows = data.draw(factor_rows(kind), "rows")
    table = [header, *rows]
    if kind == "ratings":  # the expert columns in another order
        order = [0, 1, 2, 3, *data.draw(st.permutations(range(4, len(header))), "expert order")]
        table = [[line[k] for k in order] for line in table]
    doc = data.draw(st.none() | psychometrics(), "psychometrics")
    argv = [f"--{kind}", INPUT] + ([] if doc is None else ["--psychometrics", PSYCHOMETRICS])
    with tempfile.TemporaryDirectory() as tmp:
        given_dir, rewritten_dir = Path(tmp, "given"), Path(tmp, "rewritten")
        given_dir.mkdir(), rewritten_dir.mkdir()
        (given_dir / INPUT).write_text(csv_text(header, rows), encoding="utf-8", newline="")
        (rewritten_dir / INPUT).write_text(
            data.draw(rewritten_csv(table[0], table[1:]), "rewritten rows"), encoding="utf-8",
            newline="")
        if doc is not None:
            (given_dir / PSYCHOMETRICS).write_text(json.dumps(doc), encoding="utf-8")
            indent = data.draw(st.sampled_from([None, 0, 1, 4, "\t"]), "indent")
            (rewritten_dir / PSYCHOMETRICS).write_text(
                json.dumps(shuffled(data.draw, doc), indent=indent), encoding="utf-8")
        out = data.draw(st.sampled_from(["o", "./o", "o/", "o//"]), "--out")
        assert outputs(rewritten_dir, argv, out) == outputs(given_dir, argv, "o")


def test_hash_seed_changes_no_output(tmp_path):
    """Two interpreters with other string hashes write the same files."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["--aggregated", "aggregated.csv", "--psychometrics", "psychometrics.json", *FORMATS]
    files = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        result = subprocess.run([sys.executable, "-m", "it2ipa.cli", *argv, "--out", str(out)],
                                cwd=TESTS / "golden_aggregated", env=env, capture_output=True)
        assert result.returncode == 0, result.stderr
        files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert files[0] == files[1] and len(files[0]) == 11
