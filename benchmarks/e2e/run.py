"""End-to-end benchmark of the verifier, as a library and as a service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1 [--workload NAME|all]
        [--seconds 20] [--trace 0|1] [--out FILE] [--smoke]

Each workload runs alone, one at a time: the in-process ones in a
fresh interpreter (``inproc.py``), the served one against a fresh
``repro serve`` process (``served.py``).  The command prints, per
workload, every metric with its unit, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
traced pass) with ``--trace 1``.  Any wrong verdict, wrong iteration
count, unreplayable counterexample, failed job or wrong cache answer
is printed and makes the exit code 1.  With ``--workload all`` the
last line holds one such object per workload under ``"workloads"``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import IN_PROCESS, SMOKE_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run writes (trace files, scratch ledgers) goes here.
OUT = HERE / "out"

#: End-to-end metric -> unit (the order they are printed in).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_nodes": "nodes",
    "rss_peak_mb": "MiB",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
}

#: Per-layer metric -> unit.  A metric a workload does not exercise
#: reads 0 (for example the serve.* ones on in-process workloads).
PER_LAYER = {
    "models.build_s": "s",
    "core.iterations": "count",
    "core.unattributed_s": "s",
    "bdd.compose.calls": "count",
    "bdd.compose.self_s": "s",
    "bdd.relprod.calls": "count",
    "bdd.relprod.self_s": "s",
    "bdd.apply.calls": "count",
    "bdd.apply.self_s": "s",
    "bdd.quantify.self_s": "s",
    "bdd.restrict.self_s": "s",
    "bdd.constrain.self_s": "s",
    "bdd.rename.self_s": "s",
    "bdd.size.calls": "count",
    "bdd.size.self_s": "s",
    "bdd.gc.calls": "count",
    "bdd.gc.self_s": "s",
    "bdd.nodes_created": "nodes",
    "bdd.gc_freed": "nodes",
    "bdd.ite_hit_ratio": "ratio",
    "bdd.quantify_hit_ratio": "ratio",
    "bdd.relprod_hit_ratio": "ratio",
    "bdd.restrict_hit_ratio": "ratio",
    "fsm.image.calls": "count",
    "fsm.image.self_s": "s",
    "fsm.clustered_image.self_s": "s",
    "fsm.back_image.calls": "count",
    "fsm.back_image.total_s": "s",
    "fsm.counterexample.total_s": "s",
    "iclist.simplify.self_s": "s",
    "iclist.evaluate.calls": "count",
    "iclist.evaluate.self_s": "s",
    "iclist.lists_equal.calls": "count",
    "iclist.lists_equal.self_s": "s",
    "iclist.merge_ratio": "ratio",
    "iclist.pair_cache_hit_ratio": "ratio",
    "serve.submit_s_p50": "s",
    "serve.queue_wait_s_p50": "s",
    "serve.queue_wait_s_p90": "s",
    "serve.cache_probe_s_p50": "s",
    "serve.build_s_p50": "s",
    "serve.run_s_p50": "s",
    "serve.archive_s_p50": "s",
    "serve.stream_lag_s_p50": "s",
    "serve.hit_latency_s_p50": "s",
    "serve.miss_latency_s_p50": "s",
    "serve.cache_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}

#: Set-ups timed per run (fresh interpreters, or fresh servers); the
#: median is reported.
SETUP_REPEATS = 5
#: Requests in the served measured phase under ``--smoke``.
SMOKE_REQUESTS = 20


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The source tree goes first on ``PYTHONPATH``; kernel overrides are
    dropped so the library and service defaults are what is measured;
    a fixed hash seed keeps set iteration order the same in every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_KERNEL", "REPRO_APPLY"):
        env.pop(name, None)
    return env


def _worker(spec: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run ``inproc.py`` on one job description; return its document."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "inproc.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        cwd=ROOT, env=child_env(), timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(f"in-process worker failed "
                           f"(exit {completed.returncode}):\n"
                           f"{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_in_process(name: str, cells: List[Dict[str, Any]], seed: int,
                   seconds: float, trace: bool) -> Dict[str, Any]:
    timeout = seconds + 150
    setups = [_worker({"mode": "probe", "cells": cells,
                       "spawned_at": time.monotonic()}, timeout)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    spec = {"mode": "measure", "cells": cells, "seed": seed,
            "seconds": seconds, "trace": int(trace)}
    if trace:
        OUT.mkdir(exist_ok=True)
        spec["trace_file"] = str(OUT / f"{name}.trace.json")
    document = _worker(spec, timeout)
    document["metrics"]["setup_s"] = statistics.median(setups)
    return document


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    if spec["kind"] == IN_PROCESS:
        return run_in_process(name, spec["cells"], seed, seconds, trace)
    sys.path.insert(0, str(SRC))
    from served import run_served
    workdir = OUT / f"served-{os.getpid()}"
    try:
        return run_served(spec["cells"], seed, seconds, ROOT, workdir,
                          child_env(), SETUP_REPEATS,
                          max_requests=SMOKE_REQUESTS if smoke else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(document: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line result object for one workload."""
    if trace:
        layers = document.get("layers", {})
        metrics = {key: {"value": layers.get(key, 0.0), "unit": unit}
                   for key, unit in PER_LAYER.items()}
    else:
        metrics = {key: {"value": document["metrics"][key], "unit": unit}
                   for key, unit in END_TO_END.items()}
    return {"correct": document["failed"] == 0,
            "attempted": document["attempted"],
            "failed": document["failed"], "metrics": metrics}


def report(name: str, document: Dict[str, Any],
           line: Dict[str, Any]) -> None:
    """Print one workload's metrics, cells and failures for humans."""
    print(f"== {name}: {document['rounds']} rounds, "
          f"{document['attempted']} attempted, {document['failed']} failed")
    for row in document.get("cells", []):
        print(f"   {row['label']:<48} {row['outcome']}/{row['iterations']}"
              f"/{row['peak_nodes']}  fastest {row['wall_s']:.4f} s of "
              f"{row['samples']}")
    if document.get("kernel"):
        print(f"   served kernel: {', '.join(document['kernel'])}; "
              f"{document['samples']} timed requests")
    for key, metric in line["metrics"].items():
        print(f"   {key:<30} {metric['value']:>16.6f} {metric['unit']}")
    for target in document.get("missing", []):
        print(f"   missing trace target: {target}")
    for failure in document["failures"]:
        print(f"   FAILED {failure}")
    sys.stdout.flush()


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles cell and request order")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report the per-layer "
                             "metrics of a traced pass")
    parser.add_argument("--out", metavar="FILE",
                        help="also write {workload: result} as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells and 20 served requests (tests)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines: Dict[str, Dict[str, Any]] = {}
    documents: Dict[str, Dict[str, Any]] = {}
    for name in names:
        document = run_workload(name, args.seed, args.seconds,
                                bool(args.trace), args.smoke)
        lines[name] = summary(document, bool(args.trace))
        documents[name] = dict(document, **lines[name])
        report(name, document, lines[name])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(documents, handle, indent=1, sort_keys=True)
    correct = all(line["correct"] for line in lines.values())
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "workloads": lines}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
