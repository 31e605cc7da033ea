"""Uniform result record for all engines — one row of the paper's tables.

The paper reports, per run: Time, Iter, Mem, and "BDD Nodes" (the
largest number of nodes representing any iterate ``R_i``/``G_i``, with
per-conjunct sizes in parentheses for the implicit methods).
:class:`VerificationResult` carries exactly those, plus the verdict,
the counterexample (if any), and engine-specific extras.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..bdd.manager import BDD, BudgetExceededError, Function
from ..fsm.trace import Trace
from ..obs.registry import NULL_REGISTRY
from ..obs.sampler import ResourceSampler
from ..obs.spans import NULL_SPANS
from ..obs.watchdog import Watchdog
from ..trace import BUDGET_CHECK, GC, ITERATION, NULL_TRACER, REORDER, \
    RUN_END, RUN_START
from .options import Options

__all__ = ["VerificationResult", "Outcome", "RunRecorder"]


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of result extras to JSON-safe values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    return str(value)


class Outcome:
    """String constants for the verdict field."""

    VERIFIED = "verified"
    VIOLATED = "violated"
    NODE_BUDGET = "node budget exceeded"
    TIME_BUDGET = "time budget exceeded"
    NO_CONVERGENCE = "iteration cap reached"


@dataclass
class VerificationResult:
    """Everything a table row (and a user) needs about one run."""

    method: str
    model: str
    outcome: str
    holds: Optional[bool]
    iterations: int
    elapsed_seconds: float
    peak_nodes: int
    estimated_memory_kb: int
    max_iterate_nodes: int
    max_iterate_profile: str
    iterate_profiles: List[str] = field(default_factory=list)
    trace: Optional[Trace] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Manager-wide operation statistics for *this run* (delta of
    #: :meth:`repro.bdd.BDD.stats` between start and finish; the
    #: ``nodes_current``/``nodes_peak`` gauges are end-of-run values).
    bdd_stats: Dict[str, int] = field(default_factory=dict)
    #: Aggregate view of the run's structured trace (see
    #: :mod:`repro.trace.summary`); None when the run was untraced.
    trace_summary: Optional[Dict[str, Any]] = None
    #: Per-run dynamic-reordering totals (sift sessions, swaps,
    #: variables sifted, live nodes saved, time spent).  All zero when
    #: ``Options.reorder`` was "none" and nothing sifted the manager.
    reorder_stats: Dict[str, Any] = field(default_factory=dict)
    #: Snapshot of the run's :class:`~repro.obs.MetricsRegistry`
    #: (counters, gauges, histogram digests, sample count); None when
    #: the run was unmetered.  The full sample timeline stays on the
    #: registry object — export it with :func:`repro.obs.write_jsonl`.
    metrics: Optional[Dict[str, Any]] = None
    #: Per-span-name aggregates (count, inclusive/self seconds, node
    #: growth, GC runs, cache hits) from this run's
    #: :class:`~repro.obs.SpanProfiler`; None when the run was not
    #: span-profiled.  The full span records stay on the profiler —
    #: export them with :meth:`~repro.obs.SpanProfiler.write_chrome_trace`.
    span_rollup: Optional[Dict[str, Any]] = None

    @property
    def verified(self) -> bool:
        """True exactly when the property was proven to hold."""
        return self.outcome == Outcome.VERIFIED

    @property
    def violated(self) -> bool:
        """True exactly when a counterexample exists."""
        return self.outcome == Outcome.VIOLATED

    @property
    def exhausted(self) -> bool:
        """True when a resource budget stopped the run."""
        return self.outcome in (Outcome.NODE_BUDGET, Outcome.TIME_BUDGET,
                                Outcome.NO_CONVERGENCE)

    def time_string(self) -> str:
        """Minutes:seconds, like the paper's Time column."""
        total = int(round(self.elapsed_seconds))
        return f"{total // 60}:{total % 60:02d}"

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.exhausted:
            return f"{self.method}: {self.outcome}"
        verdict = "holds" if self.verified else "VIOLATED"
        return (f"{self.method}: {verdict} after {self.iterations} "
                f"iterations in {self.elapsed_seconds:.2f}s; largest "
                f"iterate {self.max_iterate_profile} nodes")

    def to_dict(self, include_profiles: bool = True,
                include_counterexample: bool = True) -> Dict[str, Any]:
        """The machine-readable result — the JSON schema of ``--json``.

        Everything a table row, a benchmark harness, or a downstream
        dashboard needs, as plain JSON-safe values.  Engine-specific
        ``extra`` entries (evaluation stats, tautology stats, cache
        counters) are converted best-effort; the counterexample is
        serialized as its step list.
        """
        data: Dict[str, Any] = {
            "method": self.method,
            "model": self.model,
            "outcome": self.outcome,
            "holds": self.holds,
            "verified": self.verified,
            "violated": self.violated,
            "exhausted": self.exhausted,
            "iterations": self.iterations,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "time": self.time_string(),
            "peak_nodes": self.peak_nodes,
            "estimated_memory_kb": self.estimated_memory_kb,
            "max_iterate_nodes": self.max_iterate_nodes,
            "max_iterate_profile": self.max_iterate_profile,
            "bdd_stats": dict(self.bdd_stats),
            "trace_summary": self.trace_summary,
            "reorder_stats": _jsonable(self.reorder_stats),
            "extra": _jsonable(self.extra),
        }
        # Only metered runs carry the key at all: an unmetered run's
        # --json output is byte-identical to pre-metrics builds.
        if self.metrics is not None:
            data["metrics"] = _jsonable(self.metrics)
        # Same contract for spans: no key unless the run was profiled.
        if self.span_rollup is not None:
            data["span_rollup"] = _jsonable(self.span_rollup)
        if include_profiles:
            data["iterate_profiles"] = list(self.iterate_profiles)
        if include_counterexample:
            data["counterexample"] = None
            if self.trace is not None:
                data["counterexample"] = {
                    "length": len(self.trace),
                    "steps": [{"state": dict(step.state),
                               "inputs": (dict(step.inputs)
                                          if step.inputs is not None
                                          else None)}
                              for step in self.trace.steps],
                }
        return data

    def to_json(self, indent: Optional[int] = None, **kwargs: Any) -> str:
        """JSON text of :meth:`to_dict` (``--json`` prints this)."""
        return json.dumps(self.to_dict(**kwargs), indent=indent,
                          default=str)


class RunRecorder:
    """Shared engine bookkeeping: timing, budgets, iterate profiles.

    Engines wrap their main loop in :meth:`budgeted`; a
    :class:`BudgetExceededError` raised anywhere inside (including deep
    in the BDD manager) is converted into a budget outcome.
    """

    def __init__(self, method: str, model: str, manager: BDD,
                 options: Options) -> None:
        options.validate()
        self.method = method
        self.model = model
        self.manager = manager
        self.options = options
        self.tracer = options.tracer if options.tracer is not None \
            else NULL_TRACER
        self.metrics = options.metrics if options.metrics is not None \
            else NULL_REGISTRY
        self.spans = options.spans if options.spans is not None \
            else NULL_SPANS
        self.iterations = 0
        self.iterate_profiles: List[str] = []
        self.max_iterate_nodes = 0
        self.max_iterate_profile = "0"
        self.extra: Dict[str, Any] = {}
        self._start = time.monotonic()
        self._stats_before = manager.stats()
        self._saved_budget = (manager.max_nodes, manager._deadline,
                              manager.auto_gc_min_nodes)
        if options.max_nodes is not None:
            manager.max_nodes = options.max_nodes
        if options.time_limit is not None:
            manager._deadline = self._start + options.time_limit
        manager.auto_gc_min_nodes = options.gc_min_nodes
        # Dynamic reordering: arm the growth trigger for "auto" (the
        # one-shot "sift" pass runs via initial_reorder(), *inside* the
        # engine's budget handling) and observe every sift session —
        # whatever triggered it — for per-run totals + trace events.
        self._saved_reorder = (manager.auto_sift_trigger,
                               manager._auto_sift_baseline,
                               manager.reorder_observer)
        if options.reorder == "auto":
            manager.auto_sift_trigger = options.reorder_trigger
            manager._auto_sift_baseline = None
        self.reorder_stats: Dict[str, Any] = {
            "runs": 0, "swaps": 0, "vars_sifted": 0,
            "nodes_saved": 0, "seconds": 0.0}

        def _on_reorder(info: Dict[str, Any]) -> None:
            totals = self.reorder_stats
            totals["runs"] += 1
            totals["swaps"] += info.get("swaps", 0)
            totals["vars_sifted"] += info.get("vars_sifted", 0)
            totals["nodes_saved"] += (info.get("nodes_before", 0)
                                      - info.get("nodes_after", 0))
            totals["seconds"] += info.get("seconds", 0.0)
            if self.tracer.enabled:
                self.tracer.emit(
                    REORDER, reason=info.get("reason"),
                    vars_sifted=info.get("vars_sifted"),
                    swaps=info.get("swaps"),
                    nodes_before=info.get("nodes_before"),
                    nodes_after=info.get("nodes_after"),
                    seconds=round(info.get("seconds", 0.0), 6),
                    aborted=info.get("aborted"))

        manager.reorder_observer = _on_reorder
        self._gc_callback = None
        if self.tracer.enabled:
            tracer = self.tracer

            def _on_gc(freed: int, live: int, epoch: int) -> None:
                tracer.emit(GC, freed=freed, live=live, epoch=epoch)

            manager.add_gc_observer(_on_gc)
            self._gc_callback = _on_gc
            self._last_iterate_stats = self._stats_before
            tracer.emit(RUN_START, method=method, model=model,
                        options=self._options_summary())
        # Metrics: point the manager's op-level sink at this run's
        # registry and install the resource sampler on the safe points.
        # Both are restored/uninstalled in finish(); all of it is
        # observational only.
        self._saved_metrics = manager.metrics
        self._sampler = None
        if self.metrics.enabled:
            manager.metrics = self.metrics
            self.metrics.gauge("gc_min_nodes", options.gc_min_nodes or 0)
            self._sampler = ResourceSampler(manager, self.metrics)
            self._sampler.install()
        # Spans: point the manager's leaf-operation sink at this run's
        # profiler and open the root "run" span that everything else
        # nests under.  Restored/closed in finish().
        self._saved_spans = manager.spans
        self._run_span = None
        if self.spans.enabled:
            self.spans.attach(manager)
            manager.spans = self.spans
            self._run_span = self.spans.open_span(
                "run", method=method, model=model)
        # Heartbeat: an opt-in daemon thread printing progress lines.
        # The manager's safe points stamp liveness through the
        # ``heartbeat`` slot; record_iterate() reports real progress.
        self._saved_heartbeat = manager.heartbeat
        self._watchdog = None
        if options.heartbeat is not None:
            self._watchdog = Watchdog(
                interval=options.heartbeat,
                stall_window=options.heartbeat_stall,
                time_limit=options.time_limit,
                label=f"{method}/{model}",
                stream=options.heartbeat_stream)
            manager.heartbeat = self._watchdog
            self._watchdog.start()

    def _options_summary(self) -> Dict[str, Any]:
        """The engine-relevant knobs, for the ``run_start`` event."""
        return self.options.summary()

    def span(self, name: str, **attrs: Any):
        """Open a nested span (a no-op context manager when disabled)."""
        return self.spans.span(name, **attrs)

    def initial_reorder(self) -> None:
        """Run the one-shot pre-loop sift when ``reorder="sift"``.

        Engines call this as the first statement of their budgeted
        region — not in ``__init__`` — so that a sift that exhausts a
        node or time budget flows through the same
        :class:`BudgetExceededError` handling as the fixpoint loop.
        """
        if self.options.reorder == "sift" \
                and self.manager.num_vars >= 2:
            self.manager.sift(reason="sift")

    def record_iterate(self, nodes: int, profile: str,
                       conjuncts: Optional[Iterable[Function]] = None
                       ) -> None:
        """Log the size of one iterate R_i / G_i.

        Also the engines' garbage-collection point: every iterate
        boundary is operation-free, so edges held only in manager
        caches can be reclaimed safely.

        ``conjuncts`` (the iterate's list, for implicit engines; a
        singleton for monolithic ones) is only consulted when a tracer
        or a metrics registry is active, to report per-conjunct sizes —
        unobserved runs never walk the BDDs for it.
        """
        conjunct_list = None
        if conjuncts is not None and (self.tracer.enabled
                                      or self.metrics.enabled):
            conjunct_list = list(conjuncts)
        if self.tracer.enabled:
            stats_now = self.manager.stats()
            created = stats_now["nodes_created"] \
                - self._last_iterate_stats["nodes_created"]
            self._last_iterate_stats = stats_now
            self.tracer.emit(
                ITERATION,
                index=len(self.iterate_profiles),
                nodes=nodes,
                profile=profile,
                list_length=(len(conjunct_list)
                             if conjunct_list is not None else None),
                sizes=([fn.size() for fn in conjunct_list]
                       if conjunct_list is not None else None),
                nodes_created=created,
                nodes_current=stats_now["nodes_current"])
        if self.metrics.enabled:
            metrics = self.metrics
            metrics.inc("iterations")
            metrics.observe_size("iterate_nodes", nodes)
            conjunct_lengths = None
            if conjunct_list is not None:
                conjunct_lengths = [fn.size() for fn in conjunct_list]
                metrics.observe_size("conjunct_list_length",
                                     len(conjunct_list))
                for size in conjunct_lengths:
                    metrics.observe_size("conjunct_nodes", size)
            if self._sampler is not None:
                self._sampler.sample(reason="iterate",
                                     conjunct_lengths=conjunct_lengths)
        self.iterate_profiles.append(profile)
        if nodes > self.max_iterate_nodes:
            self.max_iterate_nodes = nodes
            self.max_iterate_profile = profile
        if self._watchdog is not None:
            self._watchdog.beat(iteration=len(self.iterate_profiles),
                                nodes=nodes, profile=profile)
        self.manager.auto_collect()

    def check_time(self) -> None:
        """Engine-level wall-clock check (manager checks are coarse)."""
        if self.options.time_limit is None:
            return
        elapsed = time.monotonic() - self._start
        if self.tracer.enabled:
            self.tracer.emit(BUDGET_CHECK, kind="time",
                             elapsed=round(elapsed, 6),
                             limit=self.options.time_limit)
        if elapsed > self.options.time_limit:
            raise BudgetExceededError("time", self.options.time_limit)

    def budget_outcome(self, error: BudgetExceededError) -> str:
        """Map a budget error to its outcome string."""
        return (Outcome.NODE_BUDGET if error.kind == "node"
                else Outcome.TIME_BUDGET)

    def finish_budget(self, error: BudgetExceededError) -> VerificationResult:
        """Finish a run that hit a resource budget."""
        return self.finish(self.budget_outcome(error), holds=None)

    def finish(self, outcome: str, holds: Optional[bool],
               trace: Optional[Trace] = None) -> VerificationResult:
        """Assemble the result and restore the manager's budgets."""
        # Close the root span (force-closing anything an exception left
        # open) *before* stamping elapsed, so the run's span self-times
        # are guaranteed to sum to no more than the reported wall time.
        span_rollup = None
        if self.spans.enabled:
            self.spans.close_span(self._run_span, outcome=outcome)
            span_rollup = self.spans.rollup()
            self.manager.spans = self._saved_spans
            self.spans.detach()
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        self.manager.heartbeat = self._saved_heartbeat
        elapsed = time.monotonic() - self._start
        (self.manager.max_nodes, self.manager._deadline,
         self.manager.auto_gc_min_nodes) = self._saved_budget
        (self.manager.auto_sift_trigger,
         self.manager._auto_sift_baseline,
         self.manager.reorder_observer) = self._saved_reorder
        if self._gc_callback is not None:
            self.manager.remove_gc_observer(self._gc_callback)
            self._gc_callback = None
        metrics_snapshot = None
        if self.metrics.enabled:
            if self._sampler is not None:
                self._sampler.uninstall()
                self._sampler = None
            metrics = self.metrics
            metrics.inc("runs_completed")
            metrics.gauge("run_seconds", round(elapsed, 6))
            metrics.gauge("run_iterations", self.iterations)
            metrics.gauge("run_peak_nodes", self.manager.peak_nodes)
            metrics.gauge("run_max_iterate_nodes", self.max_iterate_nodes)
            metrics_snapshot = metrics.snapshot()
        self.manager.metrics = self._saved_metrics
        trace_summary = None
        if self.tracer.enabled:
            self.tracer.emit(RUN_END, outcome=outcome, holds=holds,
                             iterations=self.iterations,
                             elapsed_seconds=round(elapsed, 6),
                             peak_nodes=self.manager.peak_nodes,
                             max_iterate_nodes=self.max_iterate_nodes)
            trace_summary = self.tracer.summary()
        return VerificationResult(
            method=self.method,
            model=self.model,
            outcome=outcome,
            holds=holds,
            iterations=self.iterations,
            elapsed_seconds=elapsed,
            peak_nodes=self.manager.peak_nodes,
            estimated_memory_kb=self.manager.estimated_memory_bytes() // 1024,
            max_iterate_nodes=self.max_iterate_nodes,
            max_iterate_profile=self.max_iterate_profile,
            iterate_profiles=self.iterate_profiles,
            trace=trace,
            extra=self.extra,
            bdd_stats=BDD.stats_delta(self._stats_before,
                                      self.manager.stats()),
            trace_summary=trace_summary,
            reorder_stats=dict(self.reorder_stats),
            metrics=metrics_snapshot,
            span_rollup=span_rollup,
        )
