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
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..bdd.manager import BDD, BudgetExceededError, Function
from ..fsm.trace import Trace
from ..obs.probe import NULL_PROBE, Probe
from ..obs.watchdog import Watchdog
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

    Engines run their body through :meth:`run`: a
    :class:`BudgetExceededError` raised anywhere inside (including deep
    in the BDD manager) becomes a budget outcome, and on every exit
    path the manager gets its budgets back and loses the run's probe.

    The recorder builds the run's :class:`~repro.obs.probe.Probe` from
    ``Options.tracer``, ``Options.metrics``, ``Options.spans`` and the
    heartbeat, installs it as ``manager.probe`` and exposes it as
    :attr:`probe`; everything the run reports goes through it.
    """

    def __init__(self, method: str, model: str, manager: BDD,
                 options: Options) -> None:
        options.validate()
        self.method = method
        self.model = model
        self.manager = manager
        self.options = options
        self.iterations = 0
        self.iterate_profiles: List[str] = []
        self.max_iterate_nodes = 0
        self.max_iterate_profile = "0"
        self.extra: Dict[str, Any] = {}
        self._start = time.monotonic()
        self._stats_before = manager.stats()
        self._saved: Optional[tuple] = (
            manager.max_nodes, manager._deadline, manager.auto_gc_min_nodes)
        if options.max_nodes is not None:
            manager.max_nodes = options.max_nodes
        if options.time_limit is not None:
            manager._deadline = self._start + options.time_limit
        manager.auto_gc_min_nodes = options.gc_min_nodes
        watchdog = None
        if options.heartbeat is not None:
            watchdog = Watchdog(
                interval=options.heartbeat,
                stall_window=options.heartbeat_stall,
                time_limit=options.time_limit,
                label=f"{method}/{model}",
                stream=options.heartbeat_stream)
        self.probe = Probe.build(manager, options.tracer, options.metrics,
                                 options.spans, watchdog)
        manager.probe = self.probe
        self.probe.start()
        self.probe.event("run_start", method=method, model=model,
                         options=options.summary())
        # The root span everything else nests under; release() closes it.
        self._run_span = self.probe.span("run", method=method,
                                         model=model).open()

    def run(self, body: Callable[..., VerificationResult],
            *args: Any) -> VerificationResult:
        """Run ``body(*args, self)``: the engine's whole run.

        When collection is enabled (``Options.gc_min_nodes`` is not
        None) the run first collects once, so its first iteration
        starts from a table that holds only live nodes, not the model
        builder's garbage.  A budget error becomes a budget outcome;
        any other exception propagates.  Either way :meth:`release`
        runs.
        """
        try:
            if self.options.gc_min_nodes is not None:
                self.manager.garbage_collect()
            return body(*args, self)
        except BudgetExceededError as error:
            return self.finish_budget(error)
        finally:
            self.release()

    def release(self) -> None:
        """Close the run span, stop the probe, restore the manager.

        The manager gets back its pre-run budgets and collection
        threshold, and :data:`~repro.obs.probe.NULL_PROBE`.  Idempotent.
        """
        if self._saved is None:
            return
        self._run_span.close()
        self.probe.stop()
        manager = self.manager
        (manager.max_nodes, manager._deadline,
         manager.auto_gc_min_nodes) = self._saved
        self._saved = None
        manager.probe = NULL_PROBE

    def record_iterate(self, nodes: int, profile: str,
                       conjuncts: Optional[Iterable[Function]] = None
                       ) -> None:
        """Log the size of one iterate R_i / G_i.

        Also the engines' garbage-collection point: every iterate
        boundary is operation-free, so edges held only in manager
        caches can be reclaimed safely.

        ``conjuncts`` (the iterate's list, for implicit engines; a
        singleton for monolithic ones) is only measured when the probe
        reports per-conjunct sizes — unobserved runs never walk the
        BDDs for it.
        """
        self.probe.event("iterate", index=len(self.iterate_profiles),
                         nodes=nodes, profile=profile, conjuncts=conjuncts)
        self.iterate_profiles.append(profile)
        if nodes > self.max_iterate_nodes:
            self.max_iterate_nodes = nodes
            self.max_iterate_profile = profile
        self.manager.auto_collect()

    def check_time(self) -> None:
        """Engine-level wall-clock check (manager checks are coarse)."""
        if self.options.time_limit is None:
            return
        elapsed = time.monotonic() - self._start
        self.probe.event("budget_check", kind="time",
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
        """Assemble the result and restore the manager."""
        # Close the root span (force-closing anything an exception left
        # open) *before* stamping elapsed, so the run's span self-times
        # are guaranteed to sum to no more than the reported wall time.
        self._run_span.note(outcome=outcome)
        self.release()
        elapsed = time.monotonic() - self._start
        self.probe.event("run_end", outcome=outcome, holds=holds,
                         iterations=self.iterations,
                         elapsed_seconds=round(elapsed, 6),
                         peak_nodes=self.manager.peak_nodes,
                         max_iterate_nodes=self.max_iterate_nodes)
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
            **self.probe.summaries(),
        )
