#!/usr/bin/env python3
"""Rerun the whole pipeline on the bundled reference dataset and show, stage
by stage, how closely each reference table is reproduced."""

import argparse

from it2ipa import fixtures, render_text, scoring
from it2ipa.report import PipelineConfig, run_pipeline
from it2ipa.survey import factor_sort_key
from it2ipa.writer import REPORT_FORMATS, emit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="DIR", help="also emit the full report here")
    parser.add_argument("--cffs-mode", choices=scoring.FAILURE_MODES, default=scoring.AS_COMPUTED)
    args = parser.parse_args()

    report = run_pipeline(PipelineConfig(cffs_mode=args.cffs_mode))
    comparison = report.comparison
    by_id = {p.factor.id: p for p in report.profiles}

    print("== Crisp importance/performance vs reference ==")
    reference = fixtures.reference_defuzzified()
    worst = 0.0
    for fid in sorted(reference, key=factor_sort_key):
        p = by_id[fid]
        ref_w, ref_r = reference[fid]
        worst = max(worst, abs(p.e_w - ref_w), abs(p.e_r - ref_r))
        print(f"  {fid:5s} importance {p.e_w:.5f} (ref {ref_w:.3f})  "
              f"performance {p.e_r:.5f} (ref {ref_r:.3f})")
    print(f"  worst deviation: {worst:.5f} (tolerance 0.001)\n")

    print("== Score tuples vs reference ==")
    for kind in (scoring.SUCCESS, scoring.FAILURE):
        print(f"  {kind}: {len(comparison[kind]['reference_candidates'])} factors, "
              f"max endpoint deviation {comparison[kind]['deviation']:.4f} (tolerance 0.005)")
    print()

    print("== Rankings (computed rank values; reference values are not derivable) ==")
    for kind in (scoring.FAILURE, scoring.SUCCESS):
        ranking = report.rankings[kind]
        print(f"  {kind}: computed order {[rf.factor.id for rf in ranking]} | "
              f"reference order {comparison[kind]['reference_order']}")
        for i, rf in enumerate(ranking, start=1):
            print(f"    {i}. {rf.factor.id:5s} rank {rf.rank:.3f}")
    print()

    print("== Map ==")
    print(render_text(report.profiles, report.config.thresholds))

    print("== Notes ==")
    for i, note in enumerate(report.notes, start=1):
        print(f"  {i}. {note}")

    if args.out:
        for path in emit(report, args.out, REPORT_FORMATS):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
