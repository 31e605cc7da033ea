"""The probe: the one channel every layer reports through.

The engines, the greedy evaluator, the list comparison, sifting and the
BDD manager never call a sink themselves.  They report to the run's
:class:`Probe`, which fans each report out, once, to the sinks the run
attached: the span profiler, the metrics registry (with its resource
sampler), the tracer and the heartbeat watchdog.

* ``with probe.span(name, **attrs) as s: ...; s.note(**attrs)`` times
  one phase, reading the clock once on enter and once on exit.  A
  BDD-valued attribute (``input=``, ``output=``) is reported as
  ``<key>_size``, measured at exit.  A span left by an exception keeps
  its span record and reports nothing else.
* ``probe.event(name, **fields)`` is a point report: ``run_start``,
  ``iterate`` (the iterate boundary), ``budget_check``, ``run_end``.
* ``probe.safe_point()``, called by :meth:`repro.bdd.BDD.auto_collect`,
  drives the resource sampler and stamps the watchdog's liveness.

:data:`VIEWS` is the name table, the one place that knows which metrics
and which trace event each name produces; every span name also produces
a span record.  :data:`NULL_PROBE` is the disabled probe: its spans are
one shared no-op, so an unobserved run reads no clock and measures no
BDD.  Like every sink behind it, the probe is observational only.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..trace import BACK_IMAGE, BUDGET_CHECK, GC, IMAGE, ITERATION, \
    MERGE, NULL_TRACER, REORDER, RUN_END, RUN_START, TERMINATION, Tracer
from .registry import NULL_REGISTRY, NullRegistry
from .sampler import ResourceSampler
from .spans import NULL_SPANS, NullSpanSink

__all__ = ["Probe", "NULL_PROBE", "VIEWS"]

Attrs = Dict[str, Any]
#: A span's duration; None for a point event.
Seconds = Optional[float]
#: ``view(probe, seconds, attrs)``.
View = Callable[["Probe", Seconds, Attrs], Any]


class _Row(NamedTuple):
    """What one name produces besides its span record."""

    #: Updates ``probe.metrics`` (and its sampler).
    metrics: Optional[View] = None
    #: (trace event type, view returning its fields, or None for none).
    trace: Optional[Tuple[str, View]] = None
    #: Reports progress to the watchdog.
    heartbeat: Optional[View] = None


# -- views --------------------------------------------------------------

def _pick(*names: str) -> View:
    """A trace view copying ``names`` from the attributes; ``seconds``
    is the span's own duration."""
    def view(probe: "Probe", seconds: Seconds, attrs: Attrs) -> Attrs:
        return {name: round(seconds, 6) if name == "seconds"
                else attrs[name] for name in names}
    return view


def _conjunct_sizes(attrs: Attrs) -> Optional[list]:
    """Per-conjunct node counts of an iterate, measured once."""
    if "sizes" not in attrs:
        conjuncts = attrs["conjuncts"]
        attrs["sizes"] = (None if conjuncts is None
                          else [fn.size() for fn in conjuncts])
    return attrs["sizes"]


def _run_start_metrics(probe: "Probe", seconds: Seconds,
                       attrs: Attrs) -> None:
    probe.metrics.gauge("gc_min_nodes",
                        attrs["options"]["gc_min_nodes"] or 0)
    probe.sampler.install()


def _run_end_metrics(probe: "Probe", seconds: Seconds,
                     attrs: Attrs) -> None:
    probe.sampler.uninstall()
    metrics = probe.metrics
    metrics.inc("runs_completed")
    metrics.gauge("run_seconds", attrs["elapsed_seconds"])
    metrics.gauge("run_iterations", attrs["iterations"])
    metrics.gauge("run_peak_nodes", attrs["peak_nodes"])
    metrics.gauge("run_max_iterate_nodes", attrs["max_iterate_nodes"])


def _iterate_metrics(probe: "Probe", seconds: Seconds,
                     attrs: Attrs) -> None:
    metrics = probe.metrics
    metrics.inc("iterations")
    metrics.observe_size("iterate_nodes", attrs["nodes"])
    sizes = _conjunct_sizes(attrs)
    if sizes is not None:
        metrics.observe_size("conjunct_list_length", len(sizes))
        for size in sizes:
            metrics.observe_size("conjunct_nodes", size)
    probe.sampler.sample(reason="iterate", conjunct_lengths=sizes)


def _iterate_fields(probe: "Probe", seconds: Seconds, attrs: Attrs) -> Attrs:
    stats = probe.manager.stats()
    created = stats["nodes_created"] - probe._created_mark
    probe._created_mark = stats["nodes_created"]
    sizes = _conjunct_sizes(attrs)
    return {"index": attrs["index"], "nodes": attrs["nodes"],
            "profile": attrs["profile"],
            "list_length": None if sizes is None else len(sizes),
            "sizes": sizes, "nodes_created": created,
            "nodes_current": stats["nodes_current"]}


def _iterate_beat(probe: "Probe", seconds: Seconds, attrs: Attrs) -> None:
    probe.watchdog.beat(iteration=attrs["index"] + 1, nodes=attrs["nodes"],
                        profile=attrs["profile"])


def _image_metrics(name: str) -> View:
    calls, timing, output = (f"{name}_calls", f"{name}_seconds",
                             f"{name}_output_nodes")

    def view(probe: "Probe", seconds: Seconds, attrs: Attrs) -> None:
        probe.metrics.inc(calls)
        probe.metrics.observe_time(timing, seconds)
        probe.metrics.observe_size(output, attrs["output_size"])
    return view


def _merge_metrics(probe: "Probe", seconds: Seconds, attrs: Attrs) -> None:
    metrics = probe.metrics
    metrics.inc("evaluate_rounds")
    if attrs["merged"]:
        metrics.inc("evaluate_merges")
    metrics.observe_time("evaluate_round_seconds", seconds)
    if attrs["merged"]:
        metrics.observe_ratio("merge_ratio", attrs["ratio"])
        metrics.observe_size("merge_product_nodes", attrs["product_size"])


def _merge_fields(probe: "Probe", seconds: Seconds,
                  attrs: Attrs) -> Optional[Attrs]:
    if not attrs["merged"]:
        return None
    return {"ratio": round(attrs["ratio"], 4),
            "pair_size": attrs["pair_size"],
            "product_size": attrs["product_size"],
            "cached": attrs["cached"], "list_length": attrs["list_length"]}


def _simplify_metrics(probe: "Probe", seconds: Seconds,
                      attrs: Attrs) -> None:
    probe.metrics.observe_time("phase_simplify_seconds", seconds)


def _termination_metrics(probe: "Probe", seconds: Seconds,
                         attrs: Attrs) -> None:
    metrics = probe.metrics
    metrics.inc("termination_tests")
    metrics.observe_time("termination_test_seconds", seconds)
    for tier, count in attrs["tiers"].items():
        if count:
            metrics.inc("termination_tier_" + str(tier), count)


def _termination_fields(probe: "Probe", seconds: Seconds,
                        attrs: Attrs) -> Attrs:
    fields = {"converged": attrs["converged"], "tiers": attrs["tiers"]}
    # Only the exact (tautology) test reports its depth, and the time
    # with it; the fast tests never did.
    if "max_depth" in attrs:
        fields["max_depth"] = attrs["max_depth"]
        fields["seconds"] = round(seconds, 6)
    return fields


def _leaf_metrics(op: str) -> View:
    calls, timing = f"bdd_{op}_calls", f"bdd_{op}_seconds"

    def view(probe: "Probe", seconds: Seconds, attrs: Attrs) -> None:
        probe.metrics.inc(calls)
        probe.metrics.observe_time(timing, seconds)
    return view


def _sift_metrics(probe: "Probe", seconds: Seconds, attrs: Attrs) -> None:
    metrics = probe.metrics
    metrics.inc("sift_sessions")
    metrics.inc("sift_swaps", attrs["swaps"])
    metrics.inc("sift_vars_sifted", attrs["vars_sifted"])
    metrics.observe_time("sift_seconds", seconds)
    metrics.observe_size("sift_nodes_after", attrs["nodes_after"])
    saved = attrs["nodes_before"] - attrs["nodes_after"]
    if saved > 0:
        metrics.inc("sift_nodes_saved", saved)


def _gc_sample(probe: "Probe", seconds: Seconds, attrs: Attrs) -> None:
    probe.sampler.maybe_sample(reason="gc")


_IMAGE_FIELDS = _pick("mode", "input_size", "output_size", "seconds")

#: The name table.  Spans: ``run``, ``iteration`` (one engine loop
#: body), ``image``/``back_image``, ``merge_round``, ``simplify``,
#: ``termination_test``, the BDD leaf operations, ``sift`` and ``gc``.
#: Events: ``run_start``, ``iterate``, ``budget_check``, ``run_end``.
VIEWS: Dict[str, _Row] = {
    "run": _Row(),
    "iteration": _Row(),
    "run_start": _Row(_run_start_metrics,
                      (RUN_START, _pick("method", "model", "options"))),
    "iterate": _Row(_iterate_metrics, (ITERATION, _iterate_fields),
                    heartbeat=_iterate_beat),
    "image": _Row(_image_metrics("image"), (IMAGE, _IMAGE_FIELDS)),
    "back_image": _Row(_image_metrics("back_image"),
                       (BACK_IMAGE, _IMAGE_FIELDS)),
    "merge_round": _Row(_merge_metrics, (MERGE, _merge_fields)),
    "simplify": _Row(_simplify_metrics),
    "termination_test": _Row(_termination_metrics,
                             (TERMINATION, _termination_fields)),
    "apply": _Row(_leaf_metrics("apply")),
    "restrict": _Row(_leaf_metrics("restrict")),
    "constrain": _Row(_leaf_metrics("constrain")),
    "relprod": _Row(_leaf_metrics("relprod")),
    "compose": _Row(_leaf_metrics("compose")),
    "quantify": _Row(_leaf_metrics("quantify")),
    "rename": _Row(_leaf_metrics("rename")),
    "sift": _Row(_sift_metrics, (REORDER, _pick(
        "reason", "vars_sifted", "swaps", "nodes_before", "nodes_after",
        "seconds", "aborted"))),
    "gc": _Row(_gc_sample, (GC, _pick("freed", "live", "epoch"))),
    "budget_check": _Row(trace=(BUDGET_CHECK,
                                _pick("kind", "elapsed", "limit"))),
    "run_end": _Row(_run_end_metrics, (RUN_END, _pick(
        "outcome", "holds", "iterations", "elapsed_seconds", "peak_nodes",
        "max_iterate_nodes"))),
}


# -- spans --------------------------------------------------------------

class _NullSpan:
    """The shared do-nothing span of a disabled probe."""

    __slots__ = ()

    def open(self) -> "_NullSpan":
        return self

    def note(self, **attrs: Any) -> None:
        """Attach attributes (dropped here)."""

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _is_bdd(value: Any) -> bool:
    return callable(getattr(value, "size", None))


class _LiveSpan:
    """One open span of an enabled probe."""

    __slots__ = ("_probe", "_name", "_attrs", "_handle", "_t0")

    def __init__(self, probe: "Probe", name: str, attrs: Attrs) -> None:
        self._probe = probe
        self._name = name
        self._attrs = attrs
        self._handle: Optional[int] = None
        self._t0 = 0.0

    def open(self) -> "_LiveSpan":
        spans = self._probe.spans
        if spans.enabled:
            # Plain attributes go in at open, so a span force-closed by
            # an ancestor still carries them; BDD sizes wait for close.
            self._handle = spans.open_span(self._name, **{
                key: value for key, value in self._attrs.items()
                if not _is_bdd(value)})
        self._t0 = time.perf_counter()
        return self

    def note(self, **attrs: Any) -> None:
        """Merge attributes into the span while it is open."""
        self._attrs.update(attrs)

    def close(self) -> None:
        """Close the span and fan it out to every view of its name."""
        seconds = time.perf_counter() - self._t0
        attrs: Attrs = {}
        for key, value in self._attrs.items():
            if _is_bdd(value):
                attrs[key + "_size"] = value.size()
            else:
                attrs[key] = value
        self._probe.spans.close_span(self._handle, **attrs)
        self._probe._fan_out(VIEWS[self._name], seconds, attrs)

    def __enter__(self) -> "_LiveSpan":
        return self.open()

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is None:
            self.close()
        else:
            self._probe.spans.close_span(self._handle)


# -- the probe ----------------------------------------------------------

class Probe:
    """Fans every report of one run out to that run's sinks.

    ``tracer``, ``metrics`` and ``spans`` default to the null sinks;
    ``watchdog`` is an optional :class:`~repro.obs.Watchdog`.  A live
    registry gets a :class:`~repro.obs.ResourceSampler` on ``manager``.
    """

    def __init__(self, manager: Any = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[NullRegistry] = None,
                 spans: Optional[NullSpanSink] = None,
                 watchdog: Any = None) -> None:
        self.manager = manager
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spans = spans if spans is not None else NULL_SPANS
        self.watchdog = watchdog
        #: Whether any sink consumes spans or events.  A probe with only
        #: a watchdog is disabled: it beats and touches, nothing more.
        self.enabled = (self.tracer.enabled or self.metrics.enabled
                        or self.spans.enabled)
        self.sampler = (ResourceSampler(manager, self.metrics)
                        if self.metrics.enabled else None)
        # ``nodes_created`` at the previous iterate boundary.
        self._created_mark = (manager.stats()["nodes_created"]
                              if manager is not None else 0)

    @classmethod
    def build(cls, manager: Any, tracer: Optional[Tracer] = None,
              metrics: Optional[NullRegistry] = None,
              spans: Optional[NullSpanSink] = None,
              watchdog: Any = None) -> "Probe":
        """A probe over the given sinks, or :data:`NULL_PROBE` when
        nothing would receive a report."""
        probe = cls(manager, tracer, metrics, spans, watchdog)
        if not probe.enabled and watchdog is None:
            return NULL_PROBE
        return probe

    def start(self) -> None:
        """Bind the span profiler to the manager; start the watchdog."""
        self.spans.attach(self.manager)
        if self.watchdog is not None:
            self.watchdog.start()

    def stop(self) -> None:
        """Stop the watchdog thread and unbind the profiler."""
        if self.watchdog is not None:
            self.watchdog.stop()
        self.spans.detach()

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing one phase (see the module doc)."""
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def event(self, name: str, **fields: Any) -> None:
        """Report one point event to every view of ``name``."""
        row = VIEWS[name]
        if self.enabled:
            self._fan_out(row, None, fields)
        if row.heartbeat is not None and self.watchdog is not None:
            row.heartbeat(self, None, fields)

    def safe_point(self) -> None:
        """A library safe point: maybe sample, and stamp liveness."""
        if self.sampler is not None:
            self.sampler.maybe_sample()
        if self.watchdog is not None:
            self.watchdog.touch()

    def summaries(self) -> Dict[str, Any]:
        """The result fields this run's sinks fill (None when absent)."""
        return {"trace_summary": self.tracer.summary(),
                "metrics": self.metrics.snapshot(),
                "span_rollup": (self.spans.rollup() if self.spans.enabled
                                else None)}

    def _fan_out(self, row: _Row, seconds: Seconds, attrs: Attrs) -> None:
        if row.metrics is not None and self.metrics.enabled:
            row.metrics(self, seconds, attrs)
        if row.trace is not None and self.tracer.enabled:
            event_type, view = row.trace
            fields = view(self, seconds, attrs)
            if fields is not None:
                self.tracer.emit(event_type, **fields)


#: The disabled probe: every BDD manager's default, and every run's
#: when no sink is attached.
NULL_PROBE = Probe()
