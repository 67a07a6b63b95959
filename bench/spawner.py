"""Launches the benchmark's child interpreters from a small process of its own.

The kernel folds the memory high-water mark of the process that spawns a
child into the child's max RSS. The benchmark process grows while it makes
inputs and runs the pipeline in-process, so it would inflate every child's
``peak_rss_mib``; this process stays small and does the spawning instead.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "stdout",
"stderr", "timeout"}``; one JSON reply per line on stdout, ``{"elapsed",
"maxrss_kib", "code"}``, where ``elapsed`` is spawn-to-exit wall time and a
child killed at its timeout has a negative ``code``. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"elapsed": elapsed, "maxrss_kib": usage.ru_maxrss, "code": code}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
