"""Characterization of what an instrumented run reports.

Each run below has a trace, a metrics registry and a span profiler all
attached, with eager garbage collection so that the ``gc`` path
reports too.  The test pins the shape
of the three outputs, not their timing:

* the sequence of trace event types, and the field names of each type;
* the counter, gauge and histogram names;
* every histogram's sample count;
* every span name with its count.

BDD leaf operations (``apply``, ``restrict``, ...) are pinned by name
only, and so are the sampler's rate-limited timeline histograms: their
counts follow the algorithm or the clock, not the instrumentation.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

import repro
from repro import MetricsRegistry, Options, RecordingTracer, SpanProfiler

#: Span and metric rows of the BDD manager's leaf operations.
LEAF_OPS = ("apply", "restrict", "constrain", "relprod", "compose",
            "quantify", "rename")

#: Histograms whose sample count depends on wall-clock rate limiting.
CLOCKED_HISTOGRAMS = ("sampled_live_nodes",)

RUN_START = "method model options"
RUN_END = ("elapsed_seconds holds iterations max_iterate_nodes outcome "
           "peak_nodes")
ITERATION = "index list_length nodes nodes_created nodes_current profile " \
    "sizes"
GC = "epoch freed live"
IMAGE = "input_size mode output_size seconds"
TERMINATION = "converged tiers"
EXACT_TERMINATION = "converged max_depth seconds tiers"
MERGE = "list_length pair_size product_size ratio"
BUDGET_CHECK = "elapsed kind limit"

RUN_COUNTERS = ["iterations", "runs_completed", "samples_taken"]
GAUGES = ["cache_hit_rate", "cpu_seconds", "gc_min_nodes",
          "max_level_size", "nodes_allocated", "nodes_live", "nodes_peak",
          "rss_kb", "run_iterations", "run_max_iterate_nodes",
          "run_peak_nodes", "run_seconds", "sampler_dropped"]

#: name -> (model, params, bug, method, extra options)
RUNS: Dict[str, tuple] = {
    "fwd": ("fifo", {"depth": 3}, None, "fwd", {}),
    "bkwd": ("fifo", {"depth": 3}, None, "bkwd", {}),
    "ici": ("fifo", {"depth": 3}, None, "ici", {}),
    "xici": ("fifo", {"depth": 3}, None, "xici", {}),
    "fd": ("network", {"procs": 2}, None, "fd", {}),
    "xici-violated": ("fifo", {"depth": 3}, "1", "xici", {}),
    "xici-time-limit": ("fifo", {"depth": 3}, None, "xici",
                        {"time_limit": 60}),
    "xici-merges": ("network", {"procs": 2}, None, "xici", {}),
}

EXPECTED: Dict[str, Dict[str, Any]] = {
    "fwd": {
        "events": "run_start gc iteration gc image iteration "
                  "termination_test image iteration gc termination_test "
                  "image iteration gc termination_test image iteration gc "
                  "termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "image": IMAGE,
                   "termination_test": TERMINATION, "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "bdd_apply_calls", "bdd_quantify_calls", "bdd_relprod_calls",
            "bdd_rename_calls", "image_calls", "termination_tests",
            "termination_tier_canonical"]),
        "histograms": {
            "bdd_apply_seconds": None, "bdd_quantify_seconds": None,
            "bdd_relprod_seconds": None, "bdd_rename_seconds": None,
            "conjunct_list_length": 5, "conjunct_nodes": 5,
            "image_output_nodes": 4, "image_seconds": 4, "iterate_nodes": 5,
            "sampled_live_nodes": None, "termination_test_seconds": 4},
        "spans": {"apply": None, "gc": 5, "image": 4, "iteration": 4,
                  "quantify": None, "relprod": None, "rename": None, "run": 1,
                  "termination_test": 4},
    },
    "bkwd": {
        "events": "run_start gc iteration gc back_image iteration "
                  "gc termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "back_image": IMAGE,
                   "termination_test": TERMINATION, "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "back_image_calls", "bdd_apply_calls", "bdd_compose_calls",
            "bdd_quantify_calls", "termination_tests",
            "termination_tier_canonical"]),
        "histograms": {
            "back_image_output_nodes": 1, "back_image_seconds": 1,
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_quantify_seconds": None, "conjunct_list_length": 2,
            "conjunct_nodes": 2, "iterate_nodes": 2,
            "sampled_live_nodes": None, "termination_test_seconds": 1},
        "spans": {"apply": None, "back_image": 1, "compose": None, "gc": 3,
                  "iteration": 1, "quantify": None, "run": 1,
                  "termination_test": 1},
    },
    "ici": {
        "events": "run_start gc iteration gc back_image*3 "
                  "iteration gc termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "back_image": IMAGE,
                   "termination_test": TERMINATION, "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "back_image_calls", "bdd_apply_calls", "bdd_compose_calls",
            "bdd_quantify_calls", "bdd_restrict_calls", "termination_tests",
            "termination_tier_positional"]),
        "histograms": {
            "back_image_output_nodes": 3, "back_image_seconds": 3,
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_quantify_seconds": None, "bdd_restrict_seconds": None,
            "conjunct_list_length": 2, "conjunct_nodes": 6, "iterate_nodes": 2,
            "sampled_live_nodes": None, "termination_test_seconds": 1},
        "spans": {"apply": None, "back_image": 3, "compose": None, "gc": 3,
                  "iteration": 1, "quantify": None, "restrict": None, "run": 1,
                  "termination_test": 1},
    },
    "xici": {
        "events": "run_start gc*2 iteration gc back_image*3 "
                  "iteration gc termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "back_image": IMAGE,
                   "termination_test": EXACT_TERMINATION, "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "back_image_calls", "bdd_apply_calls", "bdd_compose_calls",
            "bdd_quantify_calls", "bdd_restrict_calls", "evaluate_rounds",
            "termination_tests", "termination_tier_complement"]),
        "histograms": {
            "back_image_output_nodes": 3, "back_image_seconds": 3,
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_quantify_seconds": None, "bdd_restrict_seconds": None,
            "conjunct_list_length": 2, "conjunct_nodes": 6,
            "evaluate_round_seconds": 2, "iterate_nodes": 2,
            "phase_simplify_seconds": 2, "sampled_live_nodes": None,
            "termination_test_seconds": 1},
        "spans": {"apply": None, "back_image": 3, "compose": None, "gc": 4,
                  "iteration": 1, "merge_round": 2, "quantify": None,
                  "restrict": None, "run": 1, "simplify": 2,
                  "termination_test": 1},
    },
    "fd": {
        "events": "run_start gc iteration gc image iteration "
                  "termination_test image iteration gc termination_test "
                  "image iteration gc termination_test image iteration gc "
                  "termination_test image iteration gc termination_test "
                  "image iteration gc termination_test image iteration gc "
                  "termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "image": IMAGE,
                   "termination_test": TERMINATION, "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "bdd_apply_calls", "bdd_compose_calls", "bdd_constrain_calls",
            "bdd_relprod_calls", "bdd_rename_calls", "bdd_restrict_calls",
            "image_calls", "termination_tests",
            "termination_tier_canonical"]),
        "histograms": {
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_constrain_seconds": None, "bdd_relprod_seconds": None,
            "bdd_rename_seconds": None, "bdd_restrict_seconds": None,
            "conjunct_list_length": 8, "conjunct_nodes": 40,
            "image_output_nodes": 7, "image_seconds": 7, "iterate_nodes": 8,
            "sampled_live_nodes": None, "termination_test_seconds": 7},
        "spans": {"apply": None, "compose": None, "constrain": None, "gc": 8,
                  "image": 7, "iteration": 7, "relprod": None, "rename": None,
                  "restrict": None, "run": 1,
                  "termination_test": 7},
    },
    "xici-violated": {
        "events": "run_start gc*2 iteration gc back_image*3 "
                  "iteration run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "back_image": IMAGE,
                   "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "back_image_calls", "bdd_apply_calls", "bdd_compose_calls",
            "bdd_constrain_calls", "bdd_quantify_calls", "bdd_restrict_calls",
            "evaluate_rounds"]),
        "histograms": {
            "back_image_output_nodes": 3, "back_image_seconds": 3,
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_constrain_seconds": None, "bdd_quantify_seconds": None,
            "bdd_restrict_seconds": None, "conjunct_list_length": 2,
            "conjunct_nodes": 4, "evaluate_round_seconds": 1,
            "iterate_nodes": 2, "phase_simplify_seconds": 2,
            "sampled_live_nodes": None, },
        "spans": {"apply": None, "back_image": 3, "compose": None,
                  "constrain": None, "gc": 3, "iteration": 1, "merge_round": 1,
                  "quantify": None, "restrict": None, "run": 1,
                  "simplify": 2},
    },
    "xici-time-limit": {
        "events": "run_start gc*2 iteration gc budget_check "
                  "back_image*3 iteration gc termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "iteration": ITERATION, "budget_check": BUDGET_CHECK,
                   "back_image": IMAGE, "termination_test": EXACT_TERMINATION,
                   "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "back_image_calls", "bdd_apply_calls", "bdd_compose_calls",
            "bdd_quantify_calls", "bdd_restrict_calls", "evaluate_rounds",
            "termination_tests", "termination_tier_complement"]),
        "histograms": {
            "back_image_output_nodes": 3, "back_image_seconds": 3,
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_quantify_seconds": None, "bdd_restrict_seconds": None,
            "conjunct_list_length": 2, "conjunct_nodes": 6,
            "evaluate_round_seconds": 2, "iterate_nodes": 2,
            "phase_simplify_seconds": 2, "sampled_live_nodes": None,
            "termination_test_seconds": 1},
        "spans": {"apply": None, "back_image": 3, "compose": None, "gc": 4,
                  "iteration": 1, "merge_round": 2, "quantify": None,
                  "restrict": None, "run": 1, "simplify": 2,
                  "termination_test": 1},
    },
    "xici-merges": {
        "events": "run_start gc*2 merge iteration back_image gc "
                  "merge iteration termination_test run_end",
        "fields": {"run_start": RUN_START, "gc": GC,
                   "merge": MERGE, "iteration": ITERATION, "back_image": IMAGE,
                   "termination_test": EXACT_TERMINATION, "run_end": RUN_END},
        "counters": sorted(RUN_COUNTERS + [
            "back_image_calls", "bdd_apply_calls", "bdd_compose_calls",
            "bdd_quantify_calls", "bdd_restrict_calls", "evaluate_merges",
            "evaluate_rounds", "termination_tests",
            "termination_tier_canonical"]),
        "histograms": {
            "back_image_output_nodes": 1, "back_image_seconds": 1,
            "bdd_apply_seconds": None, "bdd_compose_seconds": None,
            "bdd_quantify_seconds": None, "bdd_restrict_seconds": None,
            "conjunct_list_length": 2, "conjunct_nodes": 2,
            "evaluate_round_seconds": 2, "iterate_nodes": 2,
            "merge_product_nodes": 2, "merge_ratio": 2,
            "phase_simplify_seconds": 2, "sampled_live_nodes": None,
            "termination_test_seconds": 1},
        "spans": {"apply": None, "back_image": 1, "compose": None, "gc": 3,
                  "iteration": 1, "merge_round": 2, "quantify": None,
                  "restrict": None, "run": 1, "simplify": 2,
                  "termination_test": 1},
    },
}


def _run_length(types: List[str]) -> str:
    """``a a b`` -> ``a*2 b``."""
    words: List[str] = []
    count = 0
    for index, kind in enumerate(types):
        count += 1
        if index + 1 < len(types) and types[index + 1] == kind:
            continue
        words.append(kind if count == 1 else f"{kind}*{count}")
        count = 0
    return " ".join(words)


def _observe(name: str) -> Dict[str, Any]:
    model, params, bug, method, extra = RUNS[name]
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    spans = SpanProfiler()
    problem = repro.build_model(model, bug=bug, **params)
    repro.verify(problem, method, Options(
        tracer=tracer, metrics=metrics, spans=spans, gc_min_nodes=1,
        **extra))
    fields: Dict[str, str] = {}
    for event in tracer.events:
        names = " ".join(sorted(key for key in event
                                if key not in ("t", "event")))
        assert fields.setdefault(event["event"], names) == names, \
            f"{event['event']} events disagree on their fields"
    leaf_histograms = {f"bdd_{op}_seconds" for op in LEAF_OPS}
    return {
        "events": _run_length([event["event"] for event in tracer.events]),
        "fields": fields,
        "counters": sorted(metrics.counters),
        "gauges": sorted(metrics.gauges),
        "histograms": {
            key: (None if key in leaf_histograms
                  or key in CLOCKED_HISTOGRAMS else hist.count)
            for key, hist in sorted(metrics.histograms.items())},
        "spans": {key: None if key in LEAF_OPS else row["count"]
                  for key, row in spans.rollup().items()},
    }


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_instrumented_run_reports_the_pinned_shape(name):
    observed = _observe(name)
    expected = dict(EXPECTED[name], gauges=GAUGES)
    for view in ("events", "fields", "counters", "gauges", "histograms",
                 "spans"):
        assert observed[view] == expected[view], view

