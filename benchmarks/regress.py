"""Benchmark-regression gate: current run vs committed baselines.

Re-runs the standalone benches (``bench_evaluator_cache.py`` and
``bench_reorder.py``), compares every (model, method, config) cell of
the fresh reports against the committed ``BENCH_*.json`` baselines,
and exits nonzero on any violation — this is the CI ``perf-gate`` job.

The comparison core lives in :mod:`repro.obs.ledger` and is shared
with ``repro compare`` — :class:`Tolerance`, the default tolerance
table, and the cell-by-cell diff are the same judgement in both tools;
this module re-exports them and adapts the structured verdict to the
gate's (violations, notes) shape.

Per-metric tolerances, chosen for what each number *is*:

* ``iterations`` — exact.  The engines are deterministic; a different
  iteration count means behavior changed, not noise.
* ``peak_nodes`` / ``max_iterate_nodes`` — ratio bound (default
  1.10x).  Node counts are deterministic too, but GC timing makes the
  allocated peak mildly schedule-sensitive; small drift is tolerated,
  a 2x blowup is not.
* ``seconds`` — generous ratio bound (default 5x) *plus* an absolute
  slack (default 1s): ``limit = max(base * ratio, base + slack)``.
  Shared CI runners jitter wall time badly; this only catches
  order-of-magnitude slowdowns, by design.

Anything absent from the baseline (new cell, new metric) passes with a
note; a cell present in the baseline but missing from the current run
fails — silently dropping coverage must not read as green.

**Noise-aware mode** (``--history LEDGER``): instead of the blunt 5x
wall-time bound, each cell with enough recorded trajectory in the perf
history store (``<ledger>/perf/history.jsonl``) gates ``seconds``
against its own bootstrap confidence interval via
:func:`repro.obs.perf.seconds_tolerances_from_history` — the gate
tightens as evidence accumulates.  ``--record`` appends the fresh
reports to the same store, so a scheduled CI job both feeds and
consumes the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/regress.py            # full rounds
    PYTHONPATH=src python benchmarks/regress.py --quick    # 1 round, CI
    PYTHONPATH=src python benchmarks/regress.py --update-baselines
    PYTHONPATH=src python benchmarks/regress.py --json verdict.json
    PYTHONPATH=src python benchmarks/regress.py --quick \\
        --history perf-ledger --record
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import benchjson, perf  # noqa: E402
from repro.obs.ledger import DEFAULT_TOLERANCES, Tolerance, \
    diff_reports  # noqa: E402

import bench_evaluator_cache  # noqa: E402
import bench_reorder  # noqa: E402

__all__ = ["Tolerance", "DEFAULT_TOLERANCES", "compare_reports",
           "diff_reports", "main"]


def compare_reports(baseline: Dict[str, Any], current: Dict[str, Any],
                    tolerances: Optional[Dict[str, Tolerance]] = None
                    ) -> Tuple[List[str], List[str]]:
    """Compare two benchjson reports cell by cell.

    Returns ``(violations, notes)``: violations fail the gate, notes
    are informational (new cells, new metrics).  Thin adapter over
    :func:`repro.obs.ledger.diff_reports`, kept for compatibility with
    existing callers and tests.
    """
    diff = diff_reports(baseline, current, tolerances)
    return diff["violations"], diff["notes"]


#: (baseline filename, module with build_report) for every gated bench.
BENCHES = (
    ("BENCH_evaluator.json", bench_evaluator_cache),
    ("BENCH_reorder.json", bench_reorder),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one round per cell (CI mode; the default "
                             "tolerances absorb the extra noise)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override repetitions per cell")
    parser.add_argument("--update-baselines", action="store_true",
                        help="write the fresh reports over the "
                             "committed BENCH_*.json files instead of "
                             "comparing")
    parser.add_argument("--baseline-dir", type=Path, default=REPO_ROOT,
                        help="where the committed baselines live")
    parser.add_argument("--json", type=Path, default=None,
                        metavar="FILE",
                        help="also write the machine-readable verdict "
                             "(per-cell pass/fail with metric deltas) "
                             "as JSON")
    parser.add_argument("--history", type=Path, default=None,
                        metavar="LEDGER",
                        help="noise-aware mode: gate seconds against "
                             "each cell's bootstrap CI from the perf "
                             "history store under LEDGER/perf/ "
                             "(cells with thin history keep the "
                             "default bound)")
    parser.add_argument("--record", action="store_true",
                        help="append the fresh reports to the perf "
                             "history store (requires --history)")
    parser.add_argument("--min-history", type=int, default=5,
                        help="observations before the noise-aware gate "
                             "engages for a cell")
    args = parser.parse_args(argv)
    rounds = args.rounds if args.rounds is not None \
        else (1 if args.quick else 3)
    if args.record and args.history is None:
        parser.error("--record requires --history LEDGER")
    history = perf.load_history(args.history) \
        if args.history is not None else []

    all_violations: List[str] = []
    verdicts: List[Dict[str, Any]] = []
    for filename, module in BENCHES:
        baseline_path = args.baseline_dir / filename
        print(f"== {filename} (rounds={rounds}) ==")
        report = module.build_report(scale="quick", rounds=rounds)
        if args.record:
            index, _point = perf.record_report_point(args.history,
                                                     report)
            print(f"  recorded history point #{index} in "
                  f"{perf.history_path(args.history)}")
        if args.update_baselines:
            benchjson.write_report(report, baseline_path)
            print(f"updated {baseline_path}")
            continue
        if not baseline_path.exists():
            violation = (f"{filename}: baseline missing — run with "
                         "--update-baselines and commit it")
            all_violations.append(violation)
            verdicts.append({"benchmark": filename, "cells": [],
                             "violations": [violation], "notes": [],
                             "passed": False})
            continue
        baseline = benchjson.load_report(baseline_path)
        cell_tolerances = None
        if history:
            cell_tolerances = perf.seconds_tolerances_from_history(
                history, report.get("benchmark", "?"),
                min_points=args.min_history)
            if cell_tolerances:
                print(f"  noise-aware gate armed for "
                      f"{len(cell_tolerances)} cell(s)")
        diff = diff_reports(baseline, report,
                            cell_tolerances=cell_tolerances)
        verdicts.append(diff)
        for note in diff["notes"]:
            print(f"  note: {note}")
        if diff["violations"]:
            for violation in diff["violations"]:
                print(f"  REGRESSION: {violation}")
            all_violations.extend(diff["violations"])
        else:
            print("  ok: all cells within tolerance")
    if args.json is not None:
        document = {"passed": not all_violations,
                    "regressions": len(all_violations),
                    "reports": verdicts}
        args.json.write_text(
            json.dumps(document, indent=2, sort_keys=True,
                       default=str) + "\n", encoding="utf-8")
        print(f"wrote verdict to {args.json}")
    if all_violations:
        print(f"\n{len(all_violations)} regression(s) detected")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
