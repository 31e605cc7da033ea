"""Outside-in layer tracing: time every call into each layer's public API.

:class:`LayerRecorder` rebinds each public function in :data:`TARGETS`
to a wrapper that records one span per call: name, start, end, parent
span, cell and phase.  A method is rebound on its class; a module-level
function is rebound in its defining module and in every ``repro.*``
module that imported it by name, so callers that hold the name see the
wrapper.  Nothing inside the program changes: results of traced runs
must equal untraced ones, which the benchmark checks.

A target that no longer exists (renamed or deleted by a later change)
is listed in :attr:`LayerRecorder.missing` instead of failing the run,
and :meth:`LayerRecorder.uninstall` restores every binding it changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["TARGETS", "MARKER", "LayerRecorder", "aggregate",
           "write_chrome_trace"]

#: (span name, defining module, qualified name) of every traced call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("models.build", "repro.models", "build_model"),
    ("bdd.apply", "repro.bdd.manager", "Function.__and__"),
    ("bdd.apply", "repro.bdd.manager", "Function.__or__"),
    ("bdd.apply", "repro.bdd.manager", "Function.__xor__"),
    ("bdd.apply", "repro.bdd.manager", "Function.implies"),
    ("bdd.apply", "repro.bdd.manager", "Function.iff"),
    ("bdd.quantify", "repro.bdd.manager", "Function.exists"),
    ("bdd.quantify", "repro.bdd.manager", "Function.forall"),
    ("bdd.relprod", "repro.bdd.manager", "Function.and_exists"),
    ("bdd.compose", "repro.bdd.manager", "Function.compose"),
    ("bdd.restrict", "repro.bdd.manager", "Function.restrict"),
    ("bdd.constrain", "repro.bdd.manager", "Function.constrain"),
    ("bdd.rename", "repro.bdd.manager", "Function.rename"),
    ("bdd.size", "repro.bdd.manager", "Function.size"),
    ("bdd.gc", "repro.bdd.manager", "BDD.garbage_collect"),
    ("fsm.image", "repro.fsm.image", "ImageComputer.image"),
    ("fsm.back_image", "repro.fsm.image", "back_image"),
    ("fsm.clustered_image", "repro.fsm.image", "clustered_image"),
    ("iclist.simplify", "repro.iclist.conjlist", "ConjList.simplify"),
    ("iclist.evaluate", "repro.iclist.evaluate", "greedy_evaluate"),
    ("iclist.lists_equal", "repro.iclist.compare", "lists_equal"),
    ("fsm.counterexample", "repro.fsm.trace", "backward_counterexample"),
    ("fsm.counterexample", "repro.fsm.trace", "forward_counterexample"),
    ("fsm.counterexample", "repro.core.implicit_trace",
     "implicit_backward_counterexample"),
)

#: Attribute set on every wrapper (its span name); lets a test prove
#: that no wrapped binding outlives :meth:`LayerRecorder.uninstall`.
MARKER = "__e2e_layer_span__"

_ABSENT = object()

#: One span: [name, start, end, parent index (-1 = none), cell, phase].
Span = List[Any]


class LayerRecorder:
    """Installs the span wrappers and collects spans in memory.

    ``cell`` and ``phase`` are set by the caller between calls and are
    stamped onto every span opened meanwhile; the benchmark uses phase
    ``"setup"`` around ``build_model`` and ``"verify"`` around
    ``repro.verify``, so build-time spans never count as verify time.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.cell = ""
        self.phase = "verify"
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerRecorder":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        """Rebind every target that exists; note the ones that do not."""
        self.missing = []
        for name, module_name, qualname in TARGETS:
            owner_name, _, attr = qualname.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name \
                    else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] \
                        == "repro" \
                        and vars(module).get(attr) is original:
                    self._rebind(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` changed."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr,
                              vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    recorder.cell, recorder.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(wrapper, MARKER, name)
        return wrapper


def aggregate(spans: List[Span], phase: str = "verify"
              ) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per span name: calls, self seconds and total seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Total time counts a span only when no ancestor has the
    same name, so recursion is not counted twice.  Also returns the
    summed duration of the root spans, the traced share of the phase.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    rows: Dict[str, Dict[str, float]] = {}
    rooted = 0.0
    for index, (name, start, end, parent, _cell, span_phase) \
            in enumerate(spans):
        if span_phase != phase:
            continue
        duration = end - start
        row = rows.setdefault(name, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += duration - child[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += duration
        if parent < 0:
            rooted += duration
    return rows, rooted


def write_chrome_trace(spans: List[Span], path: str) -> None:
    """Write the spans as Chrome Trace Event JSON (``chrome://tracing``)."""
    origin = spans[0][1] if spans else 0.0
    events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
               "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
               "args": {"cell": cell, "phase": phase}}
              for name, start, end, _parent, cell, phase in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
