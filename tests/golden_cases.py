"""The golden runs: byte-for-byte regression of every output, one case each.

Each golden directory holds the files of ``it2ipa ARGS --out DIR --format
structured --format delimited --format svg-map``, and its ``report.json`` is
also the stdout of ``it2ipa ARGS``. The inputs: the bundled (already
aggregated) dataset; ``golden_ratings/ratings.csv``, 20 factors x 100 experts
of seeded linguistic ratings in mixed case and padding, so the run goes
through ``lookup`` and ``aggregate``; ``golden_aggregated/``, 40 pre-aggregated
factors (the benchmark's aggregated generator, seed ``"golden"``, with
non-ASCII, quoted, tab and backslash names and one ``-0.0`` endpoint) and CVR
counts with three Likert grids, so the psychometrics section, the rank
breakdowns and ``psychometrics.csv`` are pinned too. ``golden_flags/`` pins the
non-default flags, and ``scale.json``, a five-term scale with other values
whose labels are spelled in another case or with padding. A report names its
input as given, so a golden report carries that relative path, or a
placeholder. The aggregated run is repeated under a locale whose encoding is
ASCII: outputs are written as UTF-8 whatever the locale.

This module imports nothing from pytest. It runs every case against the
``it2ipa`` that it imports, and exits 1 naming the case and file of each
mismatch:

    PYTHONPATH=src python tests/golden_cases.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
FORMATS = ("--format", "structured", "--format", "delimited", "--format", "svg-map")
FLAGS = ("--cffs-mode", "as_written", "--partition-mode", "comparison", "--thresholds", "0.2,0.5")
PSYCHOMETRICS = ("--aggregated", "aggregated.csv", "--psychometrics", "psychometrics.json")


class Case(NamedTuple):
    name: str
    golden: str  # the golden directory, under tests/
    cwd: str  # the run's working directory, under tests/
    args: tuple
    source: str | None  # the input as the report names it; None: the bundled fixture
    placeholder: str  # what the golden report names the input by


CASES = (
    Case("bundled", "golden", ".", (), None, "<bundled>"),
    Case("ratings", "golden_ratings/out", "golden_ratings", ("--ratings", "ratings.csv"),
         "ratings.csv", "<ratings>"),
    Case("aggregated", "golden_aggregated/out", "golden_aggregated", PSYCHOMETRICS,
         "aggregated.csv", "aggregated.csv"),
    Case("flags-bundled", "golden_flags/bundled", ".", FLAGS, None, "<bundled>"),
    Case("flags-aggregated", "golden_flags/aggregated", "golden_aggregated", PSYCHOMETRICS + FLAGS,
         "aggregated.csv", "aggregated.csv"),
    Case("custom-scale", "golden_flags/scale", "golden_flags",
         ("--ratings", "../golden_ratings/ratings.csv", "--scale", "scale.json"),
         "../golden_ratings/ratings.csv", "../golden_ratings/ratings.csv"),
)
ASCII_LOCALE = CASES[2]  # its factor names and a dimension are not ASCII


def mismatches(case: Case, out_dir: Path, ascii_locale: bool = False) -> list[str]:
    """Run ``case`` and name each output that differs from its golden file; [] when none.

    ``it2ipa.cli.main`` runs in this process, once to stdout and once with ``--out
    out_dir`` and every format. With ``ascii_locale``, only the second run is made,
    as ``python -m it2ipa.cli`` under ``LC_ALL=C PYTHONUTF8=0``.
    """
    import it2ipa
    from it2ipa import cli, fixtures

    out = [*case.args, "--out", str(out_dir), *FORMATS]
    swap = (json.dumps(case.source or str(fixtures.aggregated_path())).encode(),
            json.dumps(case.placeholder).encode())
    got = {}
    if ascii_locale:
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(it2ipa.__file__).resolve().parents[1])}
        encoding = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if encoding.lower().replace("-", "") == "utf8":
            return [f"the locale's encoding is {encoding}, not ASCII"]
        done = subprocess.run([sys.executable, "-m", "it2ipa.cli", *out], cwd=HERE / case.cwd,
                              env=env, capture_output=True, text=True)
        if done.returncode:
            return [f"exit status {done.returncode}: {done.stderr}"]
    else:
        previous = os.getcwd()
        os.chdir(HERE / case.cwd)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                status = cli.main(list(case.args))
            with contextlib.redirect_stdout(io.StringIO()):
                status = status or cli.main(out)
        finally:
            os.chdir(previous)
        if status:
            return [f"exit status {status}"]
        got["stdout"] = stdout.getvalue().encode().replace(*swap)
    golden = {path.name: path.read_bytes() for path in (HERE / case.golden).iterdir()}
    if "stdout" in got:
        golden["stdout"] = golden["report.json"]
    got.update((path.name, path.read_bytes().replace(*swap)) for path in out_dir.iterdir())
    return sorted(name for name in golden.keys() | got.keys() if golden.get(name) != got.get(name))


def main() -> int:
    """Run every case, and the ASCII-locale one; 1 if any output differs."""
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for case, ascii_locale in [(case, False) for case in CASES] + [(ASCII_LOCALE, True)]:
            name = f"{case.name} under an ASCII locale" if ascii_locale else case.name
            for problem in mismatches(case, Path(tmp, name), ascii_locale):
                print(f"{name}: {problem} (golden set tests/{case.golden})", file=sys.stderr)
                failed = True
    print("some golden outputs differ" if failed else f"all {len(CASES) + 1} golden runs match")
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
