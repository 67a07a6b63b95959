#!/usr/bin/env python3
"""Benchmark of the it2ipa CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off:
``setup_s`` (fresh interpreter importing ``it2ipa.cli``), ``wall_s`` (cold
CLI invocation, spawn to exit), ``cells_per_s`` (input cells per second of a
warm in-process ``cli.main`` call), ``peak_rss_mib`` (child max RSS) and
``failed_ratio``. Times are scaled to the reference machine's speed with a
fixed calibration task run between the phases of samples. With ``--trace 1``
it runs ``cli.main`` in-process with wrappers around each layer's functions
and reports per-layer counts and times. Every output is checked against the
benchmark's own oracles. The last line of stdout is one JSON object; the full
results, with samples, input digests, provenance and spans, go to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 2
MAX_ROUNDS = 200
# setup_s samples in a round: at least one, and more while they take less than
# this share of the round's cold and warm time.
SETUP_SHARE = 0.1
TRACE_IMPORTS_PER_ROUND = 3
# Shortest phase of cold runs between two calibration runs, and the time of
# calibrate.py on the reference machine, to which end-to-end times are scaled.
MIN_PHASE_S = 1.0
REFERENCE_CALIBRATION_S = 0.25
CHILD_TIMEOUT_S = 60.0

# (target the caller resolves, layer.function) for every timed wrapper.
TIMED = [
    ("it2ipa.cli:run_pipeline", "report.run_pipeline"),
    ("it2ipa.cli:emit", "report.emit"),
    ("it2ipa.report:Report.to_structured", "report.to_structured"),
    ("it2ipa.report:parse_ratings", "survey.parse_ratings"),
    ("it2ipa.report:aggregate", "survey.aggregate"),
    ("it2ipa.report:parse_aggregated", "survey.parse_aggregated"),
    ("it2ipa.report:load_psychometrics", "survey.load_psychometrics"),
    ("it2ipa.report:cronbach_alpha", "survey.cronbach_alpha"),
    ("it2ipa.report:cvr", "survey.cvr"),
    ("it2ipa.report:dtrat", "defuzz.dtrat"),
    ("it2ipa.survey:lookup", "scale.lookup"),
    ("it2ipa.numbers:add", "numbers.add"),
    ("it2ipa.numbers:scalar_div", "numbers.scalar_div"),
    ("it2ipa.numbers:mul", "numbers.mul"),
    ("it2ipa.numbers:div", "numbers.div"),
    ("it2ipa.ipamap:place", "ipamap.place"),
    ("it2ipa.ipamap:partition", "ipamap.partition"),
    ("it2ipa.ipamap:render_map", "ipamap.render_map"),
    ("it2ipa.scoring:success_score", "scoring.success_score"),
    ("it2ipa.scoring:failure_score", "scoring.failure_score"),
    ("it2ipa.scoring:rank_value", "scoring.rank_value"),
    ("it2ipa.scoring:rank_order", "scoring.rank_order"),
    ("it2ipa.fixtures:reference_defuzzified", "fixtures.reference_defuzzified"),
    ("it2ipa.fixtures:reference_scores", "fixtures.reference_scores"),
    ("it2ipa.fixtures:reference_rankings", "fixtures.reference_rankings"),
]
COUNTED = [("it2ipa.numbers:Trapezoid.__post_init__", "numbers.trapezoids")]
FIXTURE_READS = ("fixtures.reference_defuzzified", "fixtures.reference_scores",
                 "fixtures.reference_rankings")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cells_per_s": "cells/s", "peak_rss_mib": "MiB",
}


class Run:
    """Samples, failures and output digests of one benchmark run."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_digest: dict | None = None

    def check(self, label: str, code: int, stdout: bytes, note: str = "") -> None:
        """Count one invocation and record it as failed if it exited non-zero or
        its output is wrong: the first output goes through the oracles, every
        later one must be byte-identical to it."""
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{label}: exit {code} {note}".strip())
            return
        digest = output_digest(stdout, self.workload.out_dir)
        if self.reference_digest is None:
            try:
                problems = self.workload.check(workloads.report_of(stdout, self.workload.out_dir))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            if problems:
                self.failures.append(f"{label}: " + "; ".join(problems))
            else:
                self.reference_digest = digest
        elif digest != self.reference_digest:
            self.failures.append(f"{label}: output differs from the first checked output")


def output_digest(stdout: bytes, out_dir: Path | None) -> dict:
    digest = {"<stdout>": hashlib.sha256(stdout).hexdigest()}
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def clear(out_dir: Path | None) -> None:
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)


class Spawner:
    """Client of ``spawner.py``, the small process that runs every child interpreter."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
        )

    def spawn(self, args: list[str], work: Path) -> tuple[float, float, int, bytes, bytes]:
        """Run ``python args``; return (wall s, max RSS MiB, exit code, stdout, stderr)."""
        out_path, err_path = work / "child.stdout", work / "child.stderr"
        request = {"argv": [sys.executable, *args], "cwd": str(work), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return (reply["elapsed"], reply["maxrss_kib"] / 1024.0, reply["code"],
                out_path.read_bytes(), err_path.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def warm_call(cli, argv: list[str], out_dir: Path | None, run=None) -> tuple[float, int, bytes]:
    """One in-process ``cli.main(argv)`` with stdout and stderr captured."""
    clear(out_dir)
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    call = run or (lambda: cli.main(argv))
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return elapsed, code, stdout.getvalue().encode()


def warm_up(wl: workloads.Workload):
    """Import the CLI in-process and run it once on the workload's small input.

    The benchmark's own objects (inputs, oracles) are then frozen out of the
    garbage collector's reach, so that warm runs do not pay to scan them.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import it2ipa.cli as cli

    _, code, out = warm_call(cli, wl.warmup_argv, None)
    if code != 0:
        raise RuntimeError(f"warm-up run failed with exit {code}")
    gc.collect()
    gc.freeze()
    return cli


def summary(samples: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1]}
    if n >= 4:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["tail"] = {"percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return out


def rounds(seconds: float, minimum: int):
    """Yield round numbers: ``minimum`` rounds, then more while they fit in ``seconds``.

    A round is started only if one as long as the last still ends within
    ``seconds``, so a run overshoots its measuring time only to complete its
    ``minimum`` rounds. Every round samples every metric, so each metric is
    sampled across the whole run rather than in one stretch of it: on a
    shared machine the speed drifts over seconds.
    """
    start = time.perf_counter()
    last = 0.0
    for i in range(MAX_ROUNDS):
        began = time.perf_counter()
        if i >= minimum and began - start + last > seconds:
            return
        yield i
        last = time.perf_counter() - began


def spawn_import(spawner: Spawner, work: Path, *flags: str) -> tuple[float, bytes]:
    """A fresh interpreter that only imports the CLI module; (wall s, stderr)."""
    elapsed, _, code, _, err = spawner.spawn([*flags, "-c", "import it2ipa.cli"], work)
    if code != 0:
        raise RuntimeError(f"import it2ipa.cli failed: {err.decode(errors='replace')[-500:]}")
    return elapsed, err


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)

class Calibrated:
    """Phases of samples, each between two runs of ``calibrate.py``.

    The machine's speed varies by 1.5x and more, in stretches of seconds to
    minutes, and every measured time moves with it. ``calibrate.py`` is a
    fixed task that depends on the machine alone. A phase of samples is scaled
    by the calibration runs just before and after it, so that it reads as the
    time it takes on the reference machine, where the task takes
    ``REFERENCE_CALIBRATION_S``.
    """

    def __init__(self, spawner: Spawner, work: Path):
        self.spawner, self.work = spawner, work
        self.calibration_s: list[float] = []
        self.scaled: dict[str, list[float]] = {}
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        elapsed, _, code, _, err = self.spawner.spawn([str(BENCH / "calibrate.py")], self.work)
        if code != 0:
            raise RuntimeError(f"calibrate.py failed: {err.decode(errors='replace')[-500:]}")
        self.calibration_s.append(elapsed)
        return elapsed

    def close_phase(self, name: str, samples: list[float]) -> None:
        """End a phase of ``samples``, taken since the last calibration run,
        with another run; record their mean time, scaled."""
        before, self.last = self.last, self._calibrate()
        scale = 2 * REFERENCE_CALIBRATION_S / (before + self.last)
        self.scaled.setdefault(name, []).append(statistics.fmean(samples) * scale)


def end_to_end(run: Run, seconds: float, work: Path, spawner: Spawner) -> tuple[dict, dict]:
    wl = run.workload
    cli = warm_up(wl)
    calibrated = Calibrated(spawner, work)
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "warm_s": [], "peak_rss_mib": []}
    for _ in rounds(seconds, MIN_ROUNDS):
        cold: list[float] = []
        while not cold or sum(cold) < MIN_PHASE_S:
            clear(wl.out_dir)
            elapsed, peak, code, out, err = spawner.spawn(["-m", "it2ipa.cli", *wl.argv], work)
            run.check(f"cold #{len(raw['wall_s']) + len(cold)}", code, out,
                      err.decode(errors="replace")[-300:])
            cold.append(elapsed)
            raw["peak_rss_mib"].append(peak)
        calibrated.close_phase("wall_s", cold)

        warm: list[float] = []
        while not warm or sum(warm) + warm[-1] / 2 < sum(cold):  # about the cold time
            took, code, out = warm_call(cli, wl.argv, wl.out_dir)
            run.check(f"warm #{len(raw['warm_s']) + len(warm)}", code, out)
            warm.append(took)
        calibrated.close_phase("warm_s", warm)

        setup: list[float] = []
        while not setup or sum(setup) < SETUP_SHARE * (sum(cold) + sum(warm)):
            setup.append(spawn_import(spawner, work)[0])
        calibrated.close_phase("setup_s", setup)

        for name, values in (("wall_s", cold), ("warm_s", warm), ("setup_s", setup)):
            raw[name].extend(values)

    # Medians over the phases of the run, each phase scaled by its own
    # calibration runs.
    scaled = {name: statistics.median(values) for name, values in calibrated.scaled.items()}
    metrics = {
        "setup_s": scaled["setup_s"],
        "wall_s": scaled["wall_s"],
        "cells_per_s": wl.cells / scaled["warm_s"],
        "peak_rss_mib": statistics.median(raw["peak_rss_mib"]),
    }
    raw["calibration_s"] = calibrated.calibration_s
    samples = {name: summary(values) for name, values in raw.items()}
    samples["scaled_phases"] = calibrated.scaled
    samples["raw"] = raw
    return metrics, samples


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)

# Per-layer metric name -> unit. Times of layers a workload does not reach are 0.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "survey.parse_ratings.s": "s",
    "survey.aggregate.s": "s",
    "scale.lookup.calls": "count",
    "scale.lookup.per_cell": "calls/cell",
    "numbers.add.calls": "count",
    "numbers.scalar_div.calls": "count",
    "numbers.trapezoids": "count",
    "survey.parse_aggregated.s": "s",
    "defuzz.dtrat.calls": "count",
    "defuzz.dtrat.s": "s",
    "ipamap.place.calls": "count",
    "ipamap.place.per_factor": "calls/factor",
    "ipamap.partition.s": "s",
    "ipamap.render_map.s": "s",
    "ipamap.render_map.calls": "count",
    "scoring.success_score.calls": "count",
    "scoring.failure_score.calls": "count",
    "scoring.rank_value.calls": "count",
    "scoring.rank_order.s": "s",
    "report.run_pipeline.s": "s",
    "report.run_pipeline.self_s": "s",
    "report.to_structured.s": "s",
    "report.to_structured.calls": "count",
    "report.emit.s": "s",
    "report.emit.self_s": "s",
    "report.emit.bytes": "bytes",
    "report.emit.files": "count",
    "numbers.mul.calls": "count",
    "numbers.div.calls": "count",
    "numbers.ordering_warnings": "count",
    "survey.load_psychometrics.s": "s",
    "survey.cronbach_alpha.s": "s",
    "survey.cronbach_alpha.calls": "count",
    "survey.cvr.calls": "count",
    "fixtures.reads": "count",
    "trace.overhead_s": "s",
}


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            out[fields[2].strip()] = int(fields[1]) / 1e6
        except ValueError:
            continue  # the column header
    return out


def layer_metrics(tracer: Tracer, wl: workloads.Workload) -> dict[str, float]:
    """Per-layer metrics of one traced call (``trace.overhead_s`` and imports excluded)."""
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    written = []
    if wl.out_dir is not None and wl.out_dir.is_dir():
        written = [p for p in wl.out_dir.iterdir() if p.is_file()]
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer_fn, _, kind = name.rpartition(".")
        if kind == "s":
            metrics[name] = get(layer_fn, "s")
        elif kind == "self_s":
            metrics[name] = get(layer_fn, "self_s")
        elif kind == "calls":
            metrics[name] = get(layer_fn, "calls")
    metrics.update({
        "scale.lookup.per_cell": get("scale.lookup", "calls") / wl.cells,
        "ipamap.place.per_factor": get("ipamap.place", "calls") / wl.factors,
        "numbers.trapezoids": tracer.counts.get("numbers.trapezoids", 0),
        "report.emit.bytes": sum(p.stat().st_size for p in written),
        "report.emit.files": len(written),
        "numbers.ordering_warnings": sum(
            n for (category, _), n in tracer.warnings.items()
            if category == "OrderingViolatedWarning"
        ),
        "fixtures.reads": sum(get(name, "calls") for name in FIXTURE_READS),
    })
    return metrics


def traced(run: Run, seconds: float, work: Path, spawner: Spawner) -> tuple[dict, dict]:
    wl = run.workload
    cli = warm_up(wl)
    imports: dict[str, list[float]] = {"cli.import_s": [], "cli.import_numpy_s": []}
    untraced, traced_s, reps = [], [], []
    first = None
    for i in rounds(seconds, MIN_ROUNDS):
        for _ in range(TRACE_IMPORTS_PER_ROUND):
            cumulative = parse_importtime(spawn_import(spawner, work, "-X", "importtime")[1].decode())
            imports["cli.import_s"].append(cumulative.get("it2ipa.cli", 0.0))
            imports["cli.import_numpy_s"].append(cumulative.get("numpy", 0.0))

        took, code, out = warm_call(cli, wl.argv, wl.out_dir)
        run.check(f"untraced #{i}", code, out)
        untraced.append(took)

        tracer = Tracer()
        tracer.install(TIMED, COUNTED)
        try:
            took, code, out = warm_call(
                cli, wl.argv, wl.out_dir, run=lambda: tracer.traced("cli.main", cli.main, wl.argv))
        finally:
            tracer.uninstall()
        run.check(f"traced #{i}", code, out)
        traced_s.append(took)
        reps.append(layer_metrics(tracer, wl))
        first = first or tracer

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in reps[0]:
            metrics[name] = statistics.median(rep[name] for rep in reps) if unit == "s" else reps[0][name]
    for name, values in imports.items():
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced)
    details = {
        "untraced_s": summary(untraced), "traced_s": summary(traced_s),
        "import": {name: summary(values) for name, values in imports.items()},
        "counts_repeat": all(
            rep[name] == reps[0][name]
            for rep in reps for name in rep if PER_LAYER_UNITS[name] != "s"
        ),
        "reps": reps,
        "missing_wrappers": first.missing,
        "warnings": [{"category": c, "where": w, "count": n} for (c, w), n in first.warnings.items()],
        "spans": [r.as_dict() for r in first.records],
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Provenance and reporting

def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """One digest over the program's source and data files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and p.suffix in (".py", ".csv")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(SRC),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the it2ipa CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; rounds of samples repeat while they fit in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "it2ipa" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'it2ipa'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # Pin the benchmark, and with it every child, to one CPU: the speed of the
    # two CPUs differs from moment to moment, and a calibration run says how
    # fast the CPU it ran on was.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_before = os.getloadavg()[0]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    clear(work)
    spawner = Spawner()  # first, while this process is still small
    try:
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, work, ROOT)
        input_s = time.perf_counter() - start
        run = Run(wl)
        measure = traced if args.trace else end_to_end
        metrics, details = measure(run, args.seconds, work, spawner)
    finally:
        spawner.close()
        clear(work)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(run.failures)
    failed_ratio = failed / run.attempted

    results = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": wl.argv, "inputs": wl.inputs, "input_cells": wl.cells, "input_gen_s": input_s,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": run.attempted, "failed": failed, "failed_ratio": failed_ratio,
        "failures": run.failures, "details": details,
        "provenance": {**provenance(), "loadavg_1m_before": load_before,
                       "loadavg_1m_after": os.getloadavg()[0]},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1) + "\n")

    print(f"workload {wl.name}, seed {args.seed}, {wl.cells} input cells; "
          f"results in {results_path.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_ratio':32s} {failed_ratio:.6g} fraction ({failed} of {run.attempted})")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": results["metrics"],
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
