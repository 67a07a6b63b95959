#!/usr/bin/env python3
"""List the lines of ``src/it2ipa`` that no in-process tier-1 test runs.

Runs the tier-1 suite (``tests/`` and ``bench/test_bench.py``) in this
process under the standard library's ``trace`` and compares the executable
lines that never ran with ``ALLOWED``. Exits 1 when a line not on that list
went unexecuted, or when a listed line now runs, so that the list can only
shrink; exits 2 when the suite itself fails. Lines that only a subprocess
runs count as unexecuted. Takes a few minutes:

    python scripts/unexecuted_lines.py
"""

import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "it2ipa"

# Lines that only a subprocess test reaches, by file under src/it2ipa.
ALLOWED = {
    # a failed stdout write, which test_failed_stdout_write_is_located gives a subprocess
    "cli.py": {*range(97, 104),
               108},  # ``python -m it2ipa.cli``
}


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    # no ``ignoredirs``: ``trace`` caches what it ignores by bare module name, so
    # one ignored ``__init__.py`` would hide the package's own
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT)])
    if status != 0:
        print(f"the tier-1 suite failed (pytest exit status {int(status)})", file=sys.stderr)
        return 2
    ran = {(Path(filename).resolve(), line) for filename, line in tracer.results().counts}

    problems = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        # the executable lines as ``python -m trace --missing`` finds them
        executable = set(trace._find_executable_linenos(str(path))) - {0}  # 0: a module's entry
        unexecuted = {line for line in executable if (path, line) not in ran}
        allowed = ALLOWED.get(name, set()) & executable
        for line in sorted(unexecuted - allowed):
            print(f"src/it2ipa/{name}:{line}: not run by any in-process test: {source[line - 1].strip()}")
            problems += 1
        for line in sorted(allowed - unexecuted):
            print(f"src/it2ipa/{name}:{line}: runs now; take it off ALLOWED: {source[line - 1].strip()}")
            problems += 1
    print(f"{problems} problem(s)" if problems else "every executable line outside ALLOWED ran")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
