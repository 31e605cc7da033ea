"""In-process workload worker: ``repro.build_model`` + ``repro.verify``.

``run.py`` starts this file as a fresh interpreter, one workload at a
time, and writes a JSON job description to its standard input::

    {"mode": "probe",   "cells": [...], "spawned_at": <monotonic s>}
    {"mode": "measure", "cells": [...], "seed": 1, "seconds": 20,
     "trace": 0, "trace_file": "..."}

It prints one JSON document as the last line of its standard output.

* ``probe`` times one set-up: interpreter start, ``import repro`` and
  one ``build_model`` per cell, measured from ``spawned_at``.
* ``measure`` runs rounds until ``seconds`` are spent (at least
  :data:`MIN_ROUNDS`); each round builds and verifies every cell once,
  in an order shuffled by ``seed``, and a cell's time is that of its
  fastest round.  With ``trace`` set, every second round runs under
  :class:`~layertrace.LayerRecorder`; end-to-end numbers come from the
  untraced rounds only.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

import repro
from repro.bench.tables import DEFAULT_BUDGET

from layertrace import LayerRecorder, aggregate, write_chrome_trace

__all__ = ["probe", "measure", "check", "MIN_ROUNDS"]

#: Fewest rounds a measurement runs, whatever ``seconds`` says: each
#: cell's fastest round is a pick among several, and a traced run gets
#: at least one traced round.
MIN_ROUNDS = 3


def _build(cell: Dict[str, Any]) -> Any:
    return repro.build_model(cell["model"], bug=cell["bug"],
                             **cell["params"])


def probe(spec: Dict[str, Any]) -> Dict[str, Any]:
    for cell in spec["cells"]:
        _build(cell)
    return {"setup_s": time.monotonic() - spec["spawned_at"]}


def check(cell: Dict[str, Any], sample: Dict[str, Any]) -> List[str]:
    """The failure rules for one verified cell (empty when correct)."""
    label = cell["label"]
    failures = []
    if sample["outcome"] != cell["outcome"]:
        failures.append(f"{label}: outcome {sample['outcome']!r}, "
                        f"expected {cell['outcome']!r}")
    if sample["iterations"] != cell["iterations"]:
        failures.append(f"{label}: {sample['iterations']} iterations, "
                        f"expected {cell['iterations']}")
    if sample["outcome"] == "violated" and sample["replays"] is not True:
        failures.append(f"{label}: counterexample missing or does not "
                        f"replay")
    return failures


def _run_cell(cell: Dict[str, Any],
              recorder: Optional[LayerRecorder]) -> Dict[str, Any]:
    """Build and verify one cell; time only the ``repro.verify`` call."""
    # Garbage of the previous cell is freed here, not inside the timing.
    gc.collect()
    if recorder is not None:
        recorder.cell, recorder.phase = cell["label"], "setup"
    started = time.perf_counter()
    problem = _build(cell)
    build_s = time.perf_counter() - started
    if recorder is not None:
        recorder.phase = "verify"
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = repro.verify(problem, cell["method"], DEFAULT_BUDGET,
                          assisted=cell["assisted"])
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if recorder is not None:
        recorder.phase = "check"
    replays = None
    if result.trace is not None:
        replays = result.trace.replay_check(problem.machine)
    return {"outcome": result.outcome, "iterations": result.iterations,
            "peak_nodes": result.peak_nodes, "wall_s": wall,
            "cpu_s": cpu, "build_s": build_s, "replays": replays,
            "bdd_stats": dict(result.bdd_stats),
            "evaluation": _evaluation_counts(result.extra)}


def _evaluation_counts(extra: Dict[str, Any]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    stats = extra.get("evaluation_stats")
    if stats is not None:
        counts["merges"] = stats.merges
        counts["pairs_built"] = stats.pairs_built
    for key in ("product_hits", "product_misses"):
        counts[key] = extra.get("pair_cache_stats", {}).get(key, 0)
    return counts


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    cells = spec["cells"]
    trace = bool(spec.get("trace"))
    rng = random.Random(spec["seed"])
    samples: Dict[str, List[Dict[str, Any]]] = {c["label"]: [] for c in cells}
    traced: Dict[str, List[Dict[str, Any]]] = {c["label"]: [] for c in cells}
    failures: List[str] = []
    attempted = failed = 0
    recorder = LayerRecorder() if trace else None
    started = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        in_trace = trace and rounds % 2 == 1
        order = list(cells)
        rng.shuffle(order)
        round_start = time.perf_counter()
        if in_trace:
            recorder.install()
        try:
            for cell in order:
                attempted += 1
                try:
                    sample = _run_cell(cell, recorder if in_trace else None)
                except Exception as error:  # noqa: BLE001 - a failed cell
                    failures.append(f"{cell['label']}: "
                                    f"{type(error).__name__}: {error}")
                    failed += 1
                    continue
                wrong = check(cell, sample)
                failures.extend(wrong)
                failed += bool(wrong)
                (traced if in_trace else samples)[cell["label"]] \
                    .append(sample)
        finally:
            if in_trace:
                recorder.uninstall()
        rounds += 1
        longest = max(longest, time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if rounds >= MIN_ROUNDS and elapsed + longest > spec["seconds"]:
            break
    disagreements = _consistency(cells, samples, traced)
    failures.extend(disagreements)
    failed += len(disagreements)
    document = {"attempted": attempted, "failed": failed,
                "failures": failures, "rounds": rounds,
                "metrics": _end_to_end(cells, samples),
                "cells": _cell_rows(cells, samples)}
    if trace:
        document["layers"] = _layers(cells, samples, traced, recorder)
        document["missing"] = recorder.missing
        if spec.get("trace_file"):
            write_chrome_trace(recorder.spans, spec["trace_file"])
    return document


def _consistency(cells: List[Dict[str, Any]],
                 samples: Dict[str, List[Dict[str, Any]]],
                 traced: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """Every run of a cell, traced or not, must give the same answer."""
    failures = []
    for cell in cells:
        runs = samples[cell["label"]] + traced[cell["label"]]
        answers = {(s["outcome"], s["iterations"], s["peak_nodes"])
                   for s in runs}
        if len(answers) > 1:
            failures.append(f"{cell['label']}: runs disagree on "
                            f"(outcome, iterations, peak_nodes): "
                            f"{sorted(answers)}")
    return failures


def _fastest(runs: List[Dict[str, Any]], key: str) -> float:
    """The fastest of a cell's runs.

    A cell is deterministic work: other load on the host can only slow
    it.  On a shared 2-core host the run-to-run spread of the per-cell
    minimum was 3.9% where that of the per-cell median was 6.5%, on the
    same samples, and the median lost up to a quarter in a busy phase.
    """
    return min(run[key] for run in runs) if runs else 0.0


def _end_to_end(cells: List[Dict[str, Any]],
                samples: Dict[str, List[Dict[str, Any]]]
                ) -> Dict[str, float]:
    walls = [_fastest(samples[c["label"]], "wall_s") for c in cells]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(_fastest(samples[c["label"]], "cpu_s") for c in cells),
        "peak_nodes": sum(samples[c["label"]][0]["peak_nodes"]
                          for c in cells if samples[c["label"]]),
        # ru_maxrss is in KiB on Linux.
        "rss_peak_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Verifications per second of verify time.
        "jobs_per_s": len(walls) / sum(walls) if sum(walls) else 0.0,
        # A library user waits for one cell at a time: the latency
        # percentiles are taken over the cells' times, and with fewer
        # than ten cells the 90th percentile is the slowest cell.
        "job_latency_p50_s": statistics.median(walls),
        "job_latency_p90_s": max(walls),
    }


def _cell_rows(cells: List[Dict[str, Any]],
               samples: Dict[str, List[Dict[str, Any]]]
               ) -> List[Dict[str, Any]]:
    rows = []
    for cell in cells:
        runs = samples[cell["label"]]
        first = runs[0] if runs else {}
        rows.append({"label": cell["label"],
                     "outcome": first.get("outcome"),
                     "iterations": first.get("iterations"),
                     "peak_nodes": first.get("peak_nodes"),
                     "wall_s": _fastest(runs, "wall_s"),
                     "samples": len(runs)})
    return rows


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _layers(cells: List[Dict[str, Any]],
            samples: Dict[str, List[Dict[str, Any]]],
            traced: Dict[str, List[Dict[str, Any]]],
            recorder: LayerRecorder) -> Dict[str, float]:
    """Per-layer metrics for one round of the workload.

    Span totals are averaged over the traced rounds; counters from the
    results are deterministic, so the first untraced run of each cell
    gives them.
    """
    traced_rounds = min(len(traced[c["label"]]) for c in cells)
    rows, rooted = aggregate(recorder.spans)
    per_round = max(traced_rounds, 1)
    layers: Dict[str, float] = {}
    for name, row in rows.items():
        layers[f"{name}.calls"] = row["calls"] / per_round
        layers[f"{name}.self_s"] = row["self_s"] / per_round
        layers[f"{name}.total_s"] = row["total_s"] / per_round
    traced_wall = sum(s["wall_s"] for runs in traced.values() for s in runs)
    layers["core.unattributed_s"] = (traced_wall - rooted) / per_round
    layers["trace.overhead_s"] = (
        sum(_fastest(traced[c["label"]], "wall_s") for c in cells)
        - sum(_fastest(samples[c["label"]], "wall_s") for c in cells))
    layers["models.build_s"] = sum(_fastest(samples[c["label"]], "build_s")
                                   for c in cells)
    firsts = [samples[c["label"]][0] for c in cells if samples[c["label"]]]
    stats: Dict[str, int] = {}
    evaluation: Dict[str, int] = {}
    for first in firsts:
        for key, value in first["bdd_stats"].items():
            stats[key] = stats.get(key, 0) + value
        for key, value in first["evaluation"].items():
            evaluation[key] = evaluation.get(key, 0) + value
    layers["core.iterations"] = sum(first["iterations"] for first in firsts)
    layers["bdd.nodes_created"] = stats.get("nodes_created", 0)
    layers["bdd.gc_freed"] = stats.get("gc_freed", 0)
    for op, key in (("ite", "ite"), ("quantify", "quantify"),
                    ("relprod", "and_exists"), ("restrict", "restrict")):
        layers[f"bdd.{op}_hit_ratio"] = _ratio(stats.get(f"{key}_hits", 0),
                                               stats.get(f"{key}_misses", 0))
    pairs = evaluation.get("pairs_built", 0)
    layers["iclist.merge_ratio"] = \
        evaluation.get("merges", 0) / pairs if pairs else 0.0
    layers["iclist.pair_cache_hit_ratio"] = _ratio(
        evaluation.get("product_hits", 0),
        evaluation.get("product_misses", 0))
    return layers


def main() -> int:
    spec = json.load(sys.stdin)
    result = probe(spec) if spec["mode"] == "probe" else measure(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
