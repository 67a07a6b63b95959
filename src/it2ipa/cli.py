"""Command-line entry point for the importance-performance pipeline."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ipamap, report as report_mod, scoring
from .errors import InputFileError
from .ipamap import MapThresholds
from .report import PipelineConfig, REPORT_FORMATS, emit, run_pipeline


def _thresholds(text: str) -> MapThresholds:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated cut points, e.g. 0.333,0.667")
    try:
        return MapThresholds(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="it2ipa",
        description=(
            "Interval type-2 fuzzy importance-performance analysis: aggregate expert "
            "ratings, defuzzify, map factors, and rank critical success/failure factors. "
            "Without an input file the bundled reference dataset is analyzed."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--ratings", metavar="CSV",
                        help="per-expert linguistic ratings file")
    source.add_argument("--aggregated", metavar="CSV",
                        help="pre-aggregated fuzzy ratings file (canonical tuples)")
    parser.add_argument("--psychometrics", metavar="JSON",
                        help="optional CVR counts and reliability score grids")
    parser.add_argument("--scale", metavar="JSON",
                        help="custom linguistic scale (default: built-in five-term scale)")
    parser.add_argument("--thresholds", type=_thresholds, default=MapThresholds(),
                        metavar="T1,T2", help="map band cut points (default: 1/3,2/3)")
    parser.add_argument("--partition-mode", choices=ipamap.PARTITION_MODES,
                        default=ipamap.REGION_MODE,
                        help="how factors become success/failure candidates (default: region)")
    parser.add_argument("--cffs-mode", choices=scoring.FAILURE_MODES,
                        default=scoring.AS_COMPUTED,
                        help="failure-score rule (default: as_computed)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory; without it the structured report goes to stdout")
    parser.add_argument("--format", action="append", choices=REPORT_FORMATS, dest="formats",
                        metavar="FMT", help="report format under --out, repeatable (default: structured)")
    return parser


def _diagnostic(file: str | None, row: int | None, cause: str) -> int:
    print("error: " + json.dumps({"file": file, "row": row, "cause": cause}),
          file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.formats and not args.out:
        parser.error("--format needs --out: without it the structured report goes to stdout")
    config = PipelineConfig(
        scale_path=args.scale,
        thresholds=args.thresholds,
        partition_mode=args.partition_mode,
        cffs_mode=args.cffs_mode,
    )
    try:
        result = run_pipeline(
            config,
            ratings_path=args.ratings,
            aggregated_path=args.aggregated,
            psychometrics_path=args.psychometrics,
        )
    except InputFileError as exc:
        return _diagnostic(exc.file, exc.row, exc.cause)

    if args.out:
        try:
            written = emit(result, args.out, args.formats or [report_mod.STRUCTURED])
        except report_mod.IoFailureError as exc:
            return _diagnostic(str(exc.path), None, str(exc))
        lines = [f"{path}\n" for path in written]
    else:
        lines = report_mod.json_chunks(result.sections())
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except OSError as exc:  # subprocess only: e.g. a full disk, or a pipe whose reader has gone
        # Nothing more can reach stdout: send what is left in its buffer to the null
        # device, so that the interpreter's own flush at exit fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)  # subprocess only
        os.dup2(devnull, sys.stdout.fileno())  # subprocess only
        os.close(devnull)  # subprocess only
        return _diagnostic("<stdout>", None, f"cannot write the report: {exc}")  # subprocess only
    return 0


if __name__ == "__main__":
    raise SystemExit(main())  # subprocess only: ``python -m it2ipa.cli``
