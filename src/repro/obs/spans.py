"""Hierarchical span profiler: nested wall-time/resource attribution.

Where :mod:`repro.trace` streams flat *events* and the metrics registry
aggregates *global* counters, spans answer the attribution question the
flat views cannot: *which* iteration's ``back_image`` on *which*
conjunct ate the time and the nodes.  The profiler maintains one open
stack per run —

    run > iteration > back_image / simplify / merge_round
        / termination_test > compose / quantify / rename / apply
        / restrict / constrain / relprod / sift / gc

— and each closed span carries its wall time plus three manager deltas
(nodes created, GC runs, op-cache hits) measured between open and
close.  Self time (inclusive minus children) is accumulated per span
name, so a rollup shows where the run's seconds actually went.

Contract (same as the tracer and the metrics registry):

* **Observational only.**  A span-profiled run is edge-identical to a
  bare run; the profiler never touches BDDs or control flow.
* **Disabled means free.**  The default sink is the shared
  :data:`NULL_SPANS` instance whose every method is a no-op, and the
  engines reach it only through the run's
  :class:`~repro.obs.probe.Probe`, which opens no span when nothing
  listens.
* **Exception safe.**  :meth:`SpanProfiler.close_span` pops the open
  stack *until* the given handle, force-closing any children a
  :class:`~repro.bdd.manager.BudgetExceededError` unwound past, and
  ignores handles that were already force-closed — so budget aborts
  leave no leaked frames and the rollup stays consistent.

Exporters: :meth:`~SpanProfiler.to_chrome_trace` emits the Chrome
Trace Event JSON that Perfetto / ``chrome://tracing`` load directly,
:meth:`~SpanProfiler.to_speedscope` the evented profile
https://www.speedscope.app renders as a flamegraph.  Aggregates are
exact even when the per-span record list hits ``max_records`` (new
spans stop being *recorded* but are still *accounted*; ``dropped``
says how many, so a truncated timeline never silently reads as
complete).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

__all__ = ["NullSpanSink", "SpanProfiler", "NULL_SPANS",
           "render_rollup"]


class _NullSpan:
    """The do-nothing context manager :meth:`NullSpanSink.span` returns.

    One shared instance; ``note()`` swallows annotations so call sites
    never need an enabled check just to attach attributes.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def note(self, **attrs: Any) -> None:
        """Attach attributes to the span (no-op here)."""


_NULL_SPAN = _NullSpan()


class NullSpanSink:
    """Span sink base class; also the do-nothing null sink.

    The run's :class:`~repro.obs.probe.Probe` calls :meth:`open_span`
    / :meth:`close_span`; anyone else may use the :meth:`span` context
    manager.  The base class drops everything; :class:`SpanProfiler`
    records.
    """

    #: Whether this sink consumes spans.  The probe checks this before
    #: opening a span.
    enabled: bool = False

    def attach(self, manager: Any) -> None:
        """Bind a BDD manager so spans carry its counter deltas."""

    def detach(self) -> None:
        """Drop the manager binding."""

    def open_span(self, name: str, **attrs: Any) -> Optional[int]:
        """Open a nested span; returns a handle for :meth:`close_span`."""
        return None

    def close_span(self, handle: Optional[int], **attrs: Any) -> None:
        """Close the span ``handle`` (and any children left open)."""

    def annotate(self, handle: Optional[int], **attrs: Any) -> None:
        """Merge attributes into an open span."""

    def span(self, name: str, **attrs: Any) -> Any:
        """Context-manager form of open/close (shared no-op here)."""
        return _NULL_SPAN

    def rollup(self) -> Dict[str, Dict[str, Any]]:
        """Per-name aggregate table (empty for the null sink)."""
        return {}


#: Shared do-nothing instance; the manager and the recorder default to
#: this so emit sites never need a None check.
NULL_SPANS = NullSpanSink()


class _Frame:
    """One open span on the stack."""

    __slots__ = ("sid", "name", "depth", "t0", "child_seconds", "attrs",
                 "nodes0", "gc0", "hits0", "recorded")

    def __init__(self, sid: int, name: str, depth: int, t0: float,
                 attrs: Dict[str, Any], nodes0: int, gc0: int,
                 hits0: int, recorded: bool) -> None:
        self.sid = sid
        self.name = name
        self.depth = depth
        self.t0 = t0
        self.child_seconds = 0.0
        self.attrs = attrs
        self.nodes0 = nodes0
        self.gc0 = gc0
        self.hits0 = hits0
        self.recorded = recorded


class _LiveSpan:
    """Context manager wrapping one open span of a live profiler."""

    __slots__ = ("_profiler", "_sid")

    def __init__(self, profiler: "SpanProfiler", sid: Optional[int]) -> None:
        self._profiler = profiler
        self._sid = sid

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._profiler.close_span(self._sid)

    def note(self, **attrs: Any) -> None:
        """Merge attributes into the span while it is open."""
        self._profiler.annotate(self._sid, **attrs)


class SpanProfiler(NullSpanSink):
    """Records a tree of nested spans with resource deltas.

    One instance profiles one or more runs (spans from consecutive runs
    simply append).  Not thread-safe — the engines are single-threaded
    and the watchdog thread never opens spans.

    ``max_records`` caps the per-span record list (and therefore the
    exported timeline); the per-name ``aggregates`` stay exact past the
    cap, and :attr:`dropped` counts the unrecorded spans.
    """

    enabled = True

    def __init__(self, max_records: int = 20_000) -> None:
        self.max_records = max_records
        #: Closed spans in close order (capped; see ``dropped``).
        self.records: List[Dict[str, Any]] = []
        #: name -> exact totals over *all* spans, recorded or not.
        self.aggregates: Dict[str, Dict[str, Any]] = {}
        #: Spans that closed without a record (cap reached at open).
        self.dropped = 0
        self._stack: List[_Frame] = []
        self._next_sid = 1
        self._epoch = time.perf_counter()
        self._manager: Optional[Any] = None

    # -- manager binding ------------------------------------------------

    def attach(self, manager: Any) -> None:
        """Bind ``manager`` so spans carry node/GC/cache-hit deltas."""
        self._manager = manager

    def detach(self) -> None:
        self._manager = None

    def _counters(self) -> tuple:
        manager = self._manager
        if manager is None:
            return (0, 0, 0)
        return (manager._nodes_created, manager._gc_runs,
                manager._ite_hits + manager._quant_hits
                + manager._andex_hits + manager._restrict_hits
                + manager._constrain_hits)

    # -- span lifecycle -------------------------------------------------

    def open_span(self, name: str, **attrs: Any) -> Optional[int]:
        sid = self._next_sid
        self._next_sid += 1
        nodes0, gc0, hits0 = self._counters()
        recorded = len(self.records) + len(self._stack) < self.max_records
        if not recorded:
            self.dropped += 1
        self._stack.append(_Frame(sid, name, len(self._stack),
                                  time.perf_counter() - self._epoch,
                                  dict(attrs) if attrs else {},
                                  nodes0, gc0, hits0, recorded))
        return sid

    def annotate(self, handle: Optional[int], **attrs: Any) -> None:
        if handle is None:
            return
        for frame in reversed(self._stack):
            if frame.sid == handle:
                frame.attrs.update(attrs)
                return

    def close_span(self, handle: Optional[int], **attrs: Any) -> None:
        if handle is None:
            return
        if not any(frame.sid == handle for frame in self._stack):
            return  # already force-closed by an ancestor
        t1 = time.perf_counter() - self._epoch
        nodes1, gc1, hits1 = self._counters()
        while self._stack:
            frame = self._stack.pop()
            if frame.sid == handle and attrs:
                frame.attrs.update(attrs)
            self._close_frame(frame, t1, nodes1, gc1, hits1)
            if frame.sid == handle:
                return

    def _close_frame(self, frame: _Frame, t1: float, nodes1: int,
                     gc1: int, hits1: int) -> None:
        seconds = max(0.0, t1 - frame.t0)
        self_seconds = max(0.0, seconds - frame.child_seconds)
        if self._stack:
            self._stack[-1].child_seconds += seconds
        agg = self.aggregates.get(frame.name)
        if agg is None:
            agg = {"count": 0, "seconds": 0.0, "self_seconds": 0.0,
                   "nodes_created": 0, "gc_runs": 0, "cache_hits": 0}
            self.aggregates[frame.name] = agg
        agg["count"] += 1
        agg["seconds"] += seconds
        agg["self_seconds"] += self_seconds
        agg["nodes_created"] += nodes1 - frame.nodes0
        agg["gc_runs"] += gc1 - frame.gc0
        agg["cache_hits"] += hits1 - frame.hits0
        if not frame.recorded:
            return
        parent = self._stack[-1].sid if self._stack else None
        self.records.append({
            "id": frame.sid,
            "parent": parent,
            "name": frame.name,
            "depth": frame.depth,
            "t0": round(frame.t0, 6),
            "seconds": round(seconds, 6),
            "self_seconds": round(self_seconds, 6),
            "nodes_created": nodes1 - frame.nodes0,
            "gc_runs": gc1 - frame.gc0,
            "cache_hits": hits1 - frame.hits0,
            "attrs": frame.attrs,
        })

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        return _LiveSpan(self, self.open_span(name, **attrs))

    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 between runs)."""
        return len(self._stack)

    # -- rollup ---------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, Any]]:
        """Exact per-name totals: count, inclusive/self seconds, deltas.

        This is what :attr:`VerificationResult.span_rollup` carries and
        what the ledger diffs phase-by-phase.  Self seconds over all
        names sum to the inclusive time of the root span(s), which is
        bounded by the run's wall time.
        """
        table: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self.aggregates):
            agg = self.aggregates[name]
            table[name] = {
                "count": agg["count"],
                "seconds": round(agg["seconds"], 6),
                "self_seconds": round(agg["self_seconds"], 6),
                "nodes_created": agg["nodes_created"],
                "gc_runs": agg["gc_runs"],
                "cache_hits": agg["cache_hits"],
            }
        return table

    # -- exporters ------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome Trace Event JSON object (Perfetto-loadable).

        One complete ("X") event per recorded span, timestamps and
        durations in microseconds, span id / parent / attrs / resource
        deltas in ``args``.
        """
        events: List[Dict[str, Any]] = [{
            "ph": "M", "pid": 1, "tid": 1, "name": "process_name",
            "args": {"name": "repro"},
        }]
        for record in self.records:
            args: Dict[str, Any] = {
                "id": record["id"],
                "parent": record["parent"],
                "nodes_created": record["nodes_created"],
                "gc_runs": record["gc_runs"],
                "cache_hits": record["cache_hits"],
            }
            args.update(record["attrs"])
            events.append({
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round(record["t0"] * 1e6, 3),
                "dur": round(record["seconds"] * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}

    def _ordered_events(self) -> List[tuple]:
        """(time, order, frame_name) open/close pairs, properly nested.

        Opens sort before closes at equal timestamps, parents before
        children on open and after them on close (depth tiebreak), so a
        replay is always balanced.
        """
        events: List[tuple] = []
        for record in self.records:
            t0 = record["t0"]
            t1 = record["t0"] + record["seconds"]
            depth = record["depth"]
            events.append((t0, 0, depth, "O", record["name"]))
            events.append((t1, 1, -depth, "C", record["name"]))
        events.sort(key=lambda item: (item[0], item[1], item[2]))
        return events

    def to_speedscope(self, name: str = "repro run") -> Dict[str, Any]:
        """The speedscope evented-profile file for the recorded spans."""
        frames: List[Dict[str, Any]] = []
        frame_index: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        end_value = 0.0
        for t, _order, _depth, kind, span_name in self._ordered_events():
            idx = frame_index.get(span_name)
            if idx is None:
                idx = len(frames)
                frame_index[span_name] = idx
                frames.append({"name": span_name})
            events.append({"type": kind, "frame": idx,
                           "at": round(t, 6)})
            if t > end_value:
                end_value = t
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "exporter": "repro",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": round(end_value, 6),
                "events": events,
            }],
        }

    def write_chrome_trace(self, path: str) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")

    def write_speedscope(self, path: str,
                         name: str = "repro run") -> None:
        """Serialize :meth:`to_speedscope` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_speedscope(name=name), handle)
            handle.write("\n")


def render_rollup(rollup: Dict[str, Dict[str, Any]]) -> str:
    """Terminal table of a span rollup, heaviest self-time first."""
    if not rollup:
        return "span rollup: (no spans recorded)"
    lines = ["span rollup (self time, heaviest first):"]
    header = (f"  {'span':<18} {'count':>7} {'total s':>9} "
              f"{'self s':>9} {'nodes+':>9} {'gc':>4} {'hits':>9}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    names = sorted(rollup, key=lambda n: rollup[n]["self_seconds"],
                   reverse=True)
    for name in names:
        agg = rollup[name]
        lines.append(
            f"  {name:<18} {agg['count']:>7} {agg['seconds']:>9.4f} "
            f"{agg['self_seconds']:>9.4f} {agg['nodes_created']:>9} "
            f"{agg['gc_runs']:>4} {agg['cache_hits']:>9}")
    return "\n".join(lines)
