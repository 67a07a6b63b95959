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
whose labels are spelled in another case or with padding. ``golden_quoting/``
pins the quoting of delimited fields on every Python: its factor ids, names
and dimensions hold CR (alone and before LF), commas and double quotes, and
its CVR component ids and dimension names hold NUL and CR. A report names its
input as given, so a golden report carries that relative path, or a
placeholder. The aggregated run is repeated under a locale whose encoding is
ASCII: outputs are written as UTF-8 whatever the locale.

This module imports nothing from pytest. It runs every case against the
``it2ipa`` that it imports, and exits 1 naming the case and file of each
mismatch. With ``--write`` it rewrites each case's golden directory from the
outputs of that ``it2ipa`` instead, with the same placeholder swap, and writes
nothing if a case exits non-zero:

    PYTHONPATH=src python tests/golden_cases.py
    PYTHONPATH=src python tests/golden_cases.py --write
"""

import argparse
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
    Case("quoting", "golden_quoting/out", "golden_quoting", PSYCHOMETRICS,
         "aggregated.csv", "aggregated.csv"),
)
ASCII_LOCALE = CASES[2]  # its factor names and a dimension are not ASCII


class RunFailed(Exception):
    """A case's run exited non-zero, or could not be made as the case asks."""


def outputs(case: Case, out_dir: Path, ascii_locale: bool = False) -> dict[str, bytes]:
    """Run ``case``; each output's bytes, the input's name swapped for the placeholder.

    ``it2ipa.cli.main`` runs in this process, once to stdout (the ``"stdout"``
    entry) and once with ``--out out_dir`` and every format. With
    ``ascii_locale``, only the second run is made, as ``python -m it2ipa.cli``
    under ``LC_ALL=C PYTHONUTF8=0``. Raises ``RunFailed`` if a run exits non-zero.
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
            raise RunFailed(f"the locale's encoding is {encoding}, not ASCII")
        done = subprocess.run([sys.executable, "-m", "it2ipa.cli", *out], cwd=HERE / case.cwd,
                              env=env, capture_output=True, text=True)
        if done.returncode:
            raise RunFailed(f"exit status {done.returncode}: {done.stderr}")
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
            raise RunFailed(f"exit status {status}")
        got["stdout"] = stdout.getvalue().encode().replace(*swap)
    got.update((path.name, path.read_bytes().replace(*swap)) for path in out_dir.iterdir())
    return got


def mismatches(case: Case, out_dir: Path, ascii_locale: bool = False) -> list[str]:
    """Run ``case`` (see ``outputs``) and name each output that differs from its golden
    file, or why the run failed; [] when none."""
    try:
        got = outputs(case, out_dir, ascii_locale)
    except RunFailed as exc:
        return [str(exc)]
    golden = {path.name: path.read_bytes() for path in (HERE / case.golden).iterdir()}
    if "stdout" in got:
        golden["stdout"] = golden["report.json"]
    return sorted(name for name in golden.keys() | got.keys() if golden.get(name) != got.get(name))


def write(root: Path = HERE) -> list[str]:
    """Rewrite each case's golden directory under ``root`` from its outputs; the problems.

    Every case runs first. If one fails, or its stdout is not its ``report.json``,
    nothing is written and the problems are returned, each naming its case.
    Otherwise each golden directory holds exactly the new files, and [] is returned.
    """
    results, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            try:
                results[case] = outputs(case, Path(tmp, case.name))
            except RunFailed as exc:
                problems.append(f"{case.name}: {exc}")
                continue
            if results[case].pop("stdout") != results[case].get("report.json"):
                problems.append(f"{case.name}: stdout is not report.json")
    if problems:
        return problems
    for case, files in results.items():
        golden = root / case.golden
        golden.mkdir(parents=True, exist_ok=True)
        for path in golden.iterdir():
            path.unlink()
        for name, data in files.items():
            (golden / name).write_bytes(data)
    return []


def main(argv: list[str] | None = None) -> int:
    """Run every case, and the ASCII-locale one; 1 if any output differs.

    With ``--write``, rewrite the golden sets instead; 1 if nothing was written.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite each golden directory from the outputs of the it2ipa imported")
    if parser.parse_args(argv).write:
        problems = write()
        for problem in problems:
            print(problem, file=sys.stderr)
        print("no golden set written" if problems else f"all {len(CASES)} golden sets written")
        return int(bool(problems))
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
