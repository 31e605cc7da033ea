"""Perf trajectory observatory: history store, trends, attribution.

This module turns the write-only observability stack into decisions.
Three layers:

* **History store** — an append-only, schema-versioned JSONL file at
  ``<ledger>/perf/history.jsonl``.  Each line is one *perf point*: a
  timestamped snapshot of one benchjson report (``source: "bench"``) or
  one archived verification run (``source: "service"`` / ``"cli"``),
  keyed by the content-addressed ``request_hash`` where available plus
  the git revision and a host fingerprint, so trajectories from
  different machines or commits never blur into one series.

* **Trend analysis** — per-(benchmark, model, method, config) cell
  series over any metric, with L1 changepoint detection and sparkline
  rendering from :mod:`repro.obs.trend`.

* **Attribution** — when a cell regresses, a diff of the two bracketing
  points' metric dicts through :func:`repro.obs.ledger.diff_metrics`,
  ranking span-phase self-times and ``BDD.stats`` counter deltas to
  name which phase/op moved.

The store also feeds back into gating:
:func:`seconds_tolerances_from_history` derives per-cell wall-time
limits from each cell's own bootstrap confidence interval, replacing
the blunt global ``5x + 1s`` bound in ``benchmarks/regress.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from . import benchjson, ledger, trend

__all__ = [
    "PERF_SCHEMA_VERSION", "history_path", "host_fingerprint", "git_rev",
    "point_from_report", "point_from_run", "append_point", "load_history",
    "record_report_point", "record_run_point", "cell_key", "cell_label",
    "parse_cell_label", "cell_series", "trend_cells", "trend_rows",
    "render_trend", "attribute", "render_attribution", "point_as_report",
    "HistoryTolerance", "seconds_tolerances_from_history", "render_report",
]

#: Bump on any incompatible change to the perf-point shape.
PERF_SCHEMA_VERSION = 1

#: Subdirectory of the ledger holding the history store.
PERF_DIR = "perf"

#: The append-only history file inside :data:`PERF_DIR`.
HISTORY_FILENAME = "history.jsonl"

#: Cell-key benchmark slot for points fed from archived runs.
RUN_BENCHMARK = "run"


def history_path(ledger_dir: Union[str, Path]) -> Path:
    """Where the history store lives under one ledger directory."""
    return Path(ledger_dir) / PERF_DIR / HISTORY_FILENAME


# ----------------------------------------------------------------------
# Point identity: git revision + host fingerprint
# ----------------------------------------------------------------------

def git_rev(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """Short git revision of ``cwd`` (or the process cwd); None offstage.

    Best-effort on purpose: a missing git binary or a non-repo working
    directory must not block recording a point.  Asked once per process
    and directory: a running process's code does not change when HEAD
    moves, and a server archives a point for every executed job.
    """
    try:
        directory = os.path.abspath(cwd if cwd is not None else os.getcwd())
    except OSError:
        return None
    return _git_rev_in(directory)


@functools.lru_cache(maxsize=None)
def _git_rev_in(directory: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=directory, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def host_fingerprint() -> Dict[str, Any]:
    """A stable identity for the measuring machine.

    Wall-clock trajectories are only comparable on one host; the ``id``
    (8 hex chars over node/arch/python/cpu-count) lets trend consumers
    partition or at least flag cross-host series.
    """
    node = platform.node()
    machine = platform.machine()
    python = platform.python_version()
    cpus = os.cpu_count() or 0
    raw = "|".join([node, machine, python, str(cpus)])
    return {
        "id": hashlib.sha256(raw.encode("utf-8")).hexdigest()[:8],
        "node": node,
        "machine": machine,
        "python": python,
        "cpus": cpus,
    }


def _new_point(source: str,
               git: Optional[str] = None,
               host: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return {
        "schema_version": PERF_SCHEMA_VERSION,
        "kind": "perf_point",
        "recorded_unix": round(time.time(), 3),
        "git_rev": git if git is not None else git_rev(),
        "host": dict(host) if host is not None else host_fingerprint(),
        "source": source,
        "cells": [],
    }


# ----------------------------------------------------------------------
# Building points from the two feeders
# ----------------------------------------------------------------------

def point_from_report(report: Dict[str, Any], source: str = "bench",
                      git: Optional[str] = None,
                      host: Optional[Dict[str, Any]] = None,
                      include_samples: bool = False) -> Dict[str, Any]:
    """One perf point from a benchjson report (any supported schema).

    Every entry becomes a cell carrying the full metrics block; raw
    samples stay in the report artifact unless ``include_samples`` asks
    for them (the store favours long histories over fat points).
    """
    point = _new_point(source, git=git, host=host)
    point["benchmark"] = report.get("benchmark", "?")
    point["scale"] = report.get("scale")
    point["rounds"] = report.get("rounds")
    for entry in report.get("entries", []):
        cell = {"model": entry["model"], "method": entry["method"],
                "config": entry["config"],
                "metrics": dict(entry["metrics"])}
        if include_samples and entry.get("samples"):
            cell["samples"] = [dict(s) for s in entry["samples"]]
        point["cells"].append(cell)
    return point


def _config_label(config: Dict[str, Any],
                  request_hash: Optional[str]) -> str:
    if request_hash:
        return request_hash[:12]
    canonical = json.dumps(config or {}, sort_keys=True,
                           separators=(",", ":"), default=str)
    return "cfg-" + hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()[:8]


def run_cell_metrics(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The trend-comparable metrics of one ledger run document.

    :func:`repro.obs.ledger.run_metrics` (core five + termination tiers
    + ``span_<name>_self_seconds`` phase times) plus one ``stat_<name>``
    metric per ``BDD.stats`` counter snapshot, so attribution can name
    the op that moved, not just the phase.
    """
    metrics = ledger.run_metrics(doc)
    stats = (doc.get("result") or {}).get("bdd_stats") or {}
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f"stat_{key}"] = value
    return metrics


def point_from_run(doc: Dict[str, Any],
                   run_id: Optional[str] = None,
                   request_hash: Optional[str] = None,
                   source: str = "service",
                   git: Optional[str] = None,
                   host: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """One perf point from an archived verification run document.

    The single cell is keyed (model, method, config-label) where the
    config label is the content-addressed ``request_hash`` prefix when
    the feeder knows it (the job server always does), else a hash of
    the recorded config dict — two differently-configured runs of the
    same model/method never share a trajectory.
    """
    point = _new_point(source, git=git, host=host)
    point["benchmark"] = RUN_BENCHMARK
    if run_id is not None:
        point["run_id"] = run_id
    if request_hash is not None:
        point["request_hash"] = request_hash
    point["cells"].append({
        "model": doc.get("model", "?"),
        "method": doc.get("method", "?"),
        "config": _config_label(doc.get("config") or {}, request_hash),
        "metrics": run_cell_metrics(doc),
    })
    return point


# ----------------------------------------------------------------------
# The append-only store
# ----------------------------------------------------------------------

def append_point(ledger_dir: Union[str, Path],
                 point: Dict[str, Any]) -> int:
    """Append one point to the history; returns its zero-based index."""
    path = history_path(ledger_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    index = len(load_history(ledger_dir))
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(point, sort_keys=True,
                                separators=(",", ":"),
                                default=str) + "\n")
    return index


def load_history(ledger_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """All readable points, oldest first.

    Tolerant by design: a torn final line (killed writer) or a point
    from a different schema version is skipped, never fatal — the store
    is append-only and must stay readable across versions.
    """
    path = history_path(ledger_dir)
    if not path.is_file():
        return []
    points: List[Dict[str, Any]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            point = json.loads(line)
        except ValueError:
            continue
        if not isinstance(point, dict):
            continue
        if point.get("schema_version") != PERF_SCHEMA_VERSION:
            continue
        if point.get("kind") != "perf_point":
            continue
        points.append(point)
    return points


def record_report_point(ledger_dir: Union[str, Path],
                        report: Dict[str, Any], source: str = "bench",
                        git: Optional[str] = None,
                        host: Optional[Dict[str, Any]] = None
                        ) -> Tuple[int, Dict[str, Any]]:
    """Build and append a point from a benchjson report."""
    point = point_from_report(report, source=source, git=git, host=host)
    return append_point(ledger_dir, point), point


def record_run_point(ledger_dir: Union[str, Path],
                     doc: Dict[str, Any],
                     run_id: Optional[str] = None,
                     request_hash: Optional[str] = None,
                     source: str = "service",
                     git: Optional[str] = None,
                     host: Optional[Dict[str, Any]] = None
                     ) -> Tuple[int, Dict[str, Any]]:
    """Build and append a point from a ledger run document."""
    point = point_from_run(doc, run_id=run_id, request_hash=request_hash,
                           source=source, git=git, host=host)
    return append_point(ledger_dir, point), point


# ----------------------------------------------------------------------
# Cell series and trends
# ----------------------------------------------------------------------

CellKey = Tuple[str, str, str, str]


def cell_key(point: Dict[str, Any],
             cell: Dict[str, Any]) -> CellKey:
    """(benchmark, model, method, config) — the trajectory identity."""
    return (point.get("benchmark") or RUN_BENCHMARK,
            cell.get("model", "?"), cell.get("method", "?"),
            cell.get("config", "?"))


def cell_label(key: CellKey) -> str:
    """Human/CLI form of a cell key: ``bench:model/method/config``."""
    return f"{key[0]}:{key[1]}/{key[2]}/{key[3]}"


def parse_cell_label(label: str) -> CellKey:
    """Inverse of :func:`cell_label`; raises ValueError on bad shape."""
    bench, sep, rest = label.partition(":")
    parts = rest.split("/") if sep else []
    if not sep or len(parts) != 3 or not all([bench] + parts):
        raise ValueError(
            f"malformed cell label {label!r} "
            "(expected benchmark:model/method/config)")
    return (bench, parts[0], parts[1], parts[2])


def cell_series(points: Sequence[Dict[str, Any]], key: CellKey,
                metric: str = "seconds") -> List[Dict[str, Any]]:
    """The chronological observations of one cell.

    One row per point carrying the cell: ``{"point_index", "value",
    "metrics", "git_rev", "host_id", "source", "recorded_unix"}``.
    Points where the cell lacks a numeric ``metric`` are skipped.
    """
    series: List[Dict[str, Any]] = []
    for index, point in enumerate(points):
        for cell in point.get("cells", []):
            if cell_key(point, cell) != key:
                continue
            value = (cell.get("metrics") or {}).get(metric)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                continue
            series.append({
                "point_index": index,
                "value": float(value),
                "metrics": cell.get("metrics") or {},
                "git_rev": point.get("git_rev"),
                "host_id": (point.get("host") or {}).get("id"),
                "source": point.get("source"),
                "recorded_unix": point.get("recorded_unix"),
            })
    return series


def trend_cells(points: Sequence[Dict[str, Any]],
                benchmark: Optional[str] = None
                ) -> List[CellKey]:
    """Every cell key in the history, first-seen order."""
    keys: List[CellKey] = []
    seen = set()
    for point in points:
        if benchmark is not None \
                and (point.get("benchmark") or RUN_BENCHMARK) != benchmark:
            continue
        for cell in point.get("cells", []):
            key = cell_key(point, cell)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def trend_rows(points: Sequence[Dict[str, Any]],
               metric: str = "seconds",
               benchmark: Optional[str] = None,
               **changepoint_kwargs: Any) -> List[Dict[str, Any]]:
    """One trend verdict per cell over ``metric``.

    Each row: cell key/label, observation count, latest/median/MAD,
    sparkline, and the :func:`repro.obs.trend.detect_changepoint`
    verdict dict.
    """
    rows: List[Dict[str, Any]] = []
    for key in trend_cells(points, benchmark=benchmark):
        series = cell_series(points, key, metric=metric)
        if not series:
            continue
        values = [row["value"] for row in series]
        verdict = trend.detect_changepoint(values, **changepoint_kwargs)
        rows.append({
            "key": key,
            "label": cell_label(key),
            "count": len(values),
            "latest": values[-1],
            "median": trend.median(values),
            "mad": trend.mad(values),
            "sparkline": trend.sparkline(values),
            "changepoint": verdict,
            "status": verdict["status"],
            "values": values,
            "series": series,
        })
    return rows


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _verdict_text(verdict: Dict[str, Any]) -> str:
    status = verdict["status"]
    if status == "insufficient":
        return (f"insufficient data ({verdict['points']} < "
                f"{verdict['needed']} points)")
    if status == "stable":
        return "stable"
    direction = verdict.get("direction", "shift")
    ratio = verdict.get("ratio")
    pct = f"{(ratio - 1.0) * 100.0:+.0f}%" if ratio else "n/a"
    return (f"**{direction.upper()}** at #{verdict['index']} "
            f"({pct}, {_fmt(verdict['before'])} → "
            f"{_fmt(verdict['after'])})")


def render_trend(rows: Sequence[Dict[str, Any]],
                 metric: str = "seconds") -> str:
    """Markdown trend table with sparklines for one metric."""
    lines = [f"| cell | n | latest | median | MAD | trend | verdict |",
             f"|---|---:|---:|---:|---:|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['label']} | {row['count']} | {_fmt(row['latest'])} "
            f"| {_fmt(row['median'])} | {_fmt(row['mad'])} "
            f"| `{row['sparkline']}` | {_verdict_text(row['changepoint'])} |")
    if len(lines) == 2:
        lines.append("| _no observations_ | | | | | | |")
    return "\n".join([f"## Trend — `{metric}`", ""] + lines)


# ----------------------------------------------------------------------
# Regression attribution
# ----------------------------------------------------------------------

def _attribution_tolerances(metrics_a: Dict[str, Any],
                            metrics_b: Dict[str, Any]
                            ) -> Dict[str, ledger.Tolerance]:
    # run_tolerances covers the core five, tier tallies and *_seconds
    # phases; everything else the cells carry (stat_* counters, sample
    # aggregates) gets a moderate growth bound so diff_metrics reports a
    # delta cell for it.
    tolerances = ledger.run_tolerances(metrics_a, metrics_b)
    for key in sorted(set(metrics_a) | set(metrics_b)):
        if key not in tolerances:
            tolerances[key] = ledger.Tolerance(ratio=1.25, abs_slack=1.0)
    return tolerances


def attribute(points: Sequence[Dict[str, Any]], key: CellKey,
              metric: str = "seconds",
              before: Optional[int] = None,
              after: Optional[int] = None,
              **changepoint_kwargs: Any) -> Dict[str, Any]:
    """Name what moved when one cell's trajectory stepped.

    Picks the two bracketing observations — by default the last point
    before and the first point after the detected changepoint; callers
    may pin ``before``/``after`` (indices into the cell's own series,
    negatives allowed) — and diffs their full metric dicts through
    :func:`repro.obs.ledger.diff_metrics`.  Span-phase self-times are
    ranked by absolute delta and counter metrics (``stat_*``,
    ``termination_tier_*``) by relative growth, so the verdict names
    the phase and the op, not just "seconds moved".
    """
    series = cell_series(points, key, metric=metric)
    verdict = trend.detect_changepoint(
        [row["value"] for row in series], **changepoint_kwargs)
    result: Dict[str, Any] = {
        "key": key,
        "label": cell_label(key),
        "metric": metric,
        "observations": len(series),
        "changepoint": verdict,
    }
    if before is None or after is None:
        if verdict["status"] != "changepoint":
            result["status"] = verdict["status"]
            return result
        split = int(verdict["index"])
        before = split - 1
        after = split
    try:
        row_before = series[before]
        row_after = series[after]
    except IndexError:
        raise ValueError(
            f"cell {cell_label(key)} has {len(series)} observations; "
            f"indices {before}/{after} out of range")
    metrics_a = row_before["metrics"]
    metrics_b = row_after["metrics"]
    checks = ledger.diff_metrics(
        metrics_a, metrics_b,
        _attribution_tolerances(metrics_a, metrics_b))
    deltas = [c for c in checks
              if isinstance(c.get("delta"), (int, float))]
    phases = sorted(
        (c for c in deltas
         if c["metric"].startswith("span_")
         and c["metric"].endswith("_self_seconds")),
        key=lambda c: abs(c["delta"]), reverse=True)
    counters = sorted(
        (c for c in deltas
         if c["metric"].startswith(("stat_", "termination_tier_"))),
        key=lambda c: abs(c["delta"]) / max(abs(c["base"] or 0), 1.0),
        reverse=True)
    result.update({
        "status": "attributed",
        "before": {k: row_before[k] for k in
                   ("point_index", "value", "git_rev", "source")},
        "after": {k: row_after[k] for k in
                  ("point_index", "value", "git_rev", "source")},
        "checks": checks,
        "phases": phases,
        "counters": counters,
    })
    parts = []
    if phases and phases[0]["delta"]:
        top = phases[0]
        name = top["metric"][len("span_"):-len("_self_seconds")]
        parts.append(f"phase `{name}` self time moved "
                     f"{top['delta']:+.4g}s "
                     f"({_fmt(top['base'])} → {_fmt(top['current'])})")
    if counters and counters[0]["delta"]:
        top = counters[0]
        parts.append(f"counter `{top['metric']}` moved "
                     f"{top['delta']:+.4g} "
                     f"({_fmt(top['base'])} → {_fmt(top['current'])})")
    if not parts:
        parts.append("no span-phase or counter metrics recorded for "
                     "this cell; record run points (repro verify "
                     "--ledger / repro serve) for phase attribution")
    result["summary"] = "; ".join(parts)
    return result


def render_attribution(result: Dict[str, Any]) -> str:
    """Markdown report of one :func:`attribute` verdict."""
    lines = [f"## Attribution — {result['label']} "
             f"(`{result['metric']}`)", ""]
    verdict = result.get("changepoint") or {}
    status = result.get("status")
    if status == "insufficient":
        lines.append(f"- {_verdict_text(verdict)}")
        return "\n".join(lines)
    if status == "stable":
        lines.append("- trajectory is stable; nothing to attribute")
        return "\n".join(lines)
    before = result["before"]
    after = result["after"]
    lines.append(f"- verdict: {_verdict_text(verdict)}"
                 if verdict.get("status") == "changepoint"
                 else "- verdict: explicit point pair")
    lines.append(
        f"- before: series #{before['point_index']} "
        f"(git {before['git_rev'] or '?'}, {before['source']}) — "
        f"{_fmt(before['value'])}")
    lines.append(
        f"- after: series #{after['point_index']} "
        f"(git {after['git_rev'] or '?'}, {after['source']}) — "
        f"{_fmt(after['value'])}")
    lines.append(f"- **{result['summary']}**")
    lines.append("")
    lines.append("| metric | before | after | Δ | status |")
    lines.append("|---|---:|---:|---:|---|")
    ranked = (result["phases"] + result["counters"]
              or result["checks"])
    for check in ranked[:12]:
        lines.append(
            f"| {check['metric']} | {_fmt(check['base'])} "
            f"| {_fmt(check['current'])} | {_fmt(check['delta'])} "
            f"| {check['status']} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# History points as baselines and gates
# ----------------------------------------------------------------------

def point_as_report(point: Dict[str, Any]) -> Dict[str, Any]:
    """Re-materialize one bench point as a benchjson report.

    This is what lets ``repro bench-report --against perf:<n>`` reuse
    the exact same :func:`repro.obs.ledger.diff_reports` path as a file
    baseline.
    """
    report = benchjson.new_report(
        point.get("benchmark", "?"),
        scale=point.get("scale") or "quick",
        rounds=point.get("rounds") or 1)
    for cell in point.get("cells", []):
        entry = benchjson.add_entry(
            report, cell["model"], cell["method"], cell["config"],
            cell.get("metrics") or {})
        if cell.get("samples"):
            entry["samples"] = [dict(s) for s in cell["samples"]]
    report["derived"]["perf_point"] = {
        "git_rev": point.get("git_rev"),
        "recorded_unix": point.get("recorded_unix"),
        "source": point.get("source"),
    }
    return report


class HistoryTolerance(ledger.Tolerance):
    """Wall-time tolerance derived from a cell's own history.

    Instead of ``base * 5 + 1s``, the limit is the upper bound of the
    cell's bootstrap confidence interval over recorded history, widened
    by a margin — a noise-aware gate that tightens as the trajectory
    accumulates evidence.  The baseline value is ignored on purpose:
    the history, not one arbitrary prior report, is the reference.
    """

    def __init__(self, limit: float, ci_low: float, ci_high: float,
                 points: int, margin: float) -> None:
        super().__init__(ratio=1.0, abs_slack=0.0)
        self.limit = limit
        self.ci_low = ci_low
        self.ci_high = ci_high
        self.points = points
        self.margin = margin

    def check(self, base: float, current: float) -> Optional[str]:
        if current > self.limit:
            return (f"{current} exceeds history limit {self.limit:.4g} "
                    f"(CI [{self.ci_low:.4g}, {self.ci_high:.4g}] over "
                    f"{self.points} points, margin {self.margin})")
        return None


def seconds_tolerances_from_history(
        points: Sequence[Dict[str, Any]], benchmark: str,
        metric: str = "seconds", min_points: int = 5,
        margin: float = 1.5, abs_slack: float = 0.05,
        ) -> Dict[Tuple[str, str, str], Dict[str, ledger.Tolerance]]:
    """Per-cell wall-time tolerances from the history store.

    For every cell of ``benchmark`` with at least ``min_points``
    observations, the gate limit is ``ci_high * margin + abs_slack``.
    Cells with thin history get no override and keep the default
    (blunt) bound — the noise-aware gate only engages once there is
    enough evidence to trust.  Keys are benchjson entry keys, ready for
    :func:`repro.obs.ledger.diff_reports`'s ``cell_tolerances``.
    """
    overrides: Dict[Tuple[str, str, str],
                    Dict[str, ledger.Tolerance]] = {}
    for key in trend_cells(points, benchmark=benchmark):
        series = cell_series(points, key, metric=metric)
        values = [row["value"] for row in series]
        if len(values) < min_points:
            continue
        lo, hi = trend.bootstrap_ci(values)
        limit = hi * margin + abs_slack
        overrides[(key[1], key[2], key[3])] = {
            metric: HistoryTolerance(limit, lo, hi, len(values), margin),
        }
    return overrides


# ----------------------------------------------------------------------
# Full markdown report
# ----------------------------------------------------------------------

def render_report(points: Sequence[Dict[str, Any]],
                  metric: str = "seconds",
                  **changepoint_kwargs: Any) -> str:
    """The ``repro perf report`` document: overview, trends, attribution.

    One trend table per benchmark group in the history, then an
    attribution section for every cell flagged as a changepoint.
    """
    lines = ["# Perf trajectory report", ""]
    if not points:
        lines.append("_history store is empty — record points with "
                     "`repro perf record` or `regress.py --record`_")
        return "\n".join(lines)
    sources: Dict[str, int] = {}
    for point in points:
        sources[point.get("source", "?")] = \
            sources.get(point.get("source", "?"), 0) + 1
    hosts = {(p.get("host") or {}).get("id") for p in points}
    revs = [p.get("git_rev") for p in points if p.get("git_rev")]
    lines.append(f"- points: {len(points)} "
                 f"({', '.join(f'{k}: {v}' for k, v in sorted(sources.items()))})")
    lines.append(f"- hosts: {len(hosts)}; latest git rev: "
                 f"{revs[-1] if revs else '?'}")
    lines.append("")
    benches = []
    for point in points:
        bench = point.get("benchmark") or RUN_BENCHMARK
        if bench not in benches:
            benches.append(bench)
    flagged: List[Dict[str, Any]] = []
    for bench in benches:
        rows = trend_rows(points, metric=metric, benchmark=bench,
                          **changepoint_kwargs)
        if not rows:
            continue
        lines.append(f"# `{bench}`")
        lines.append("")
        lines.append(render_trend(rows, metric=metric))
        lines.append("")
        flagged.extend(row for row in rows
                       if row["status"] == "changepoint")
    for row in flagged:
        result = attribute(points, row["key"], metric=metric,
                           **changepoint_kwargs)
        lines.append(render_attribution(result))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
