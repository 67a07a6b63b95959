#!/usr/bin/env python3
"""List the lines of ``src/it2ipa`` that no in-process tier-1 test runs.

Runs the tier-1 suite (``tests/`` and ``bench/test_bench.py``) in this
process with a line tracer on the frames of ``src/it2ipa`` alone, and
compares the executable lines that never ran with those marked ``# subprocess
only``. Exits 1 when an unmarked line went unexecuted, or when a marked line
now runs, so that the marks can only go; exits 2 when the suite itself fails.
Lines that only a subprocess runs count as unexecuted. Takes about two minutes:

    python scripts/unexecuted_lines.py
"""

import os
import sys
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "it2ipa"
MARKER = "# subprocess only"  # a comment on each line that only a subprocess test reaches


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    prefix = f"{PACKAGE}{os.sep}"
    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):  # every other frame runs untraced
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"the tier-1 suite failed (pytest exit status {int(status)})", file=sys.stderr)
        return 2

    problems = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        # the executable lines as ``python -m trace --missing`` finds them
        # (0: a module's entry; None, from 3.13: an instruction with no line)
        executable = set(trace._find_executable_linenos(str(path))) - {0, None}
        unexecuted = {line for line in executable if (str(path), line) not in ran}
        marked = {line for line in executable if MARKER in source[line - 1]}
        for line in sorted(unexecuted - marked):
            print(f"src/it2ipa/{name}:{line}: not run by any in-process test: {source[line - 1].strip()}")
            problems += 1
        for line in sorted(marked - unexecuted):
            print(f"src/it2ipa/{name}:{line}: runs now; take off its {MARKER!r}: {source[line - 1].strip()}")
            problems += 1
    print(f"{problems} problem(s)" if problems else f"every executable line not marked {MARKER!r} ran")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
