"""Compare two benchmark result files against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json [--benchmark FILE]

``A.json`` and ``B.json`` are ``run.py --out`` files (``{workload:
result}``); A is the baseline.  For every end-to-end metric and every
workload, one row shows both values, the change of B against A, the
metric's bound and a verdict:

* ``within``     B is not worse than A by more than the bound;
* ``outside``    B is worse than A by more than the bound;
* ``unresolved`` a value is missing, or A is 0 so no share exists.

The exit code is 1 when any row is ``outside``.  The check is one-sided,
like the bound itself; to check that two runs agree, compare both ways.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: Optional[float], b: Optional[float], bound: float,
            better: str) -> str:
    """``within``, ``outside`` or ``unresolved`` for one metric."""
    if a is None or b is None or a == 0:
        return "unresolved"
    change = (b - a) / abs(a)
    worse = change if better == "lower" else -change
    return "outside" if worse > bound else "within"


def _value(results: Dict[str, Any], workload: str,
           metric: str) -> Optional[float]:
    entry = results.get(workload, {}).get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def compare(a: Dict[str, Any], b: Dict[str, Any],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            value_a = _value(a, workload, metric["name"])
            value_b = _value(b, workload, metric["name"])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": value_a, "b": value_b,
                "change": ((value_b - value_a) / abs(value_a)
                           if value_a and value_b is not None else None),
                "bound": metric["bound"],
                "verdict": verdict(value_a, value_b, metric["bound"],
                                   metric["better"])})
    return rows


def _number(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline result file (run.py --out)")
    parser.add_argument("b", help="result file to check against it")
    parser.add_argument("--benchmark", default=str(BENCHMARK),
                        help="benchmark definition (default: the "
                             "repository's BENCHMARK.json)")
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    rows = compare(json.loads(Path(args.a).read_text()),
                   json.loads(Path(args.b).read_text()), benchmark)
    print(f"{'workload':<15} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for row in rows:
        change = "-" if row["change"] is None else f"{row['change']:+.1%}"
        print(f"{row['workload']:<15} {row['metric']:<18} "
              f"{_number(row['a']):>12} {_number(row['b']):>12} "
              f"{change:>8} {row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "outside" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
