"""Tracer implementations: null, in-memory recording, JSONL streaming.

The contract with the engines:

* Tracing is **observational only** — a traced run and an untraced run
  produce edge-identical verification results; a tracer must never
  touch BDDs or influence control flow.
* The null tracer costs ~nothing: its :meth:`Tracer.emit` is an empty
  method, and engines never call it directly — they report through
  the run's :class:`~repro.obs.probe.Probe`, which prepares event data
  (node counts, stats snapshots) only for an enabled sink, so the
  untraced hot paths never pay for data they would throw away.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from .summary import TraceSummaryBuilder

__all__ = ["Tracer", "NullTracer", "RecordingTracer", "JsonlTracer",
           "NULL_TRACER"]


class Tracer:
    """Event sink base class; also the do-nothing null tracer.

    Engines call :meth:`emit` with an event type (see
    :mod:`repro.trace.events`) and its fields.  The base class drops
    everything; subclasses record or stream.
    """

    #: Whether this tracer consumes events.  The probe checks this
    #: before computing anything (sizes, stats deltas) that only exists
    #: to be traced.
    enabled: bool = False

    def emit(self, event: str, **fields: Any) -> None:
        """Receive one event (no-op here)."""

    def summary(self) -> Optional[Dict[str, Any]]:
        """Aggregate view of the latest run, or None for the null tracer."""
        return None

    def close(self) -> None:
        """Release any resources (no-op by default)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Alias so ``NullTracer()`` reads naturally at call sites.
NullTracer = Tracer

#: Shared do-nothing instance; engines use this when options carry no
#: tracer so the emit sites never need a None check.
NULL_TRACER = Tracer()


class _ActiveTracer(Tracer):
    """Shared plumbing: timestamping and incremental summarization."""

    enabled = True

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._summary = TraceSummaryBuilder()

    def emit(self, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "t": round(time.monotonic() - self._t0, 6),
            "event": event,
        }
        record.update(fields)
        self._summary.observe(record)
        self._write(record)

    def summary(self) -> Dict[str, Any]:
        return self._summary.as_dict()

    def _write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError


class RecordingTracer(_ActiveTracer):
    """Keeps every event in memory (tests, ``--trace-summary``)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict[str, Any]] = []

    def _write(self, record: Dict[str, Any]) -> None:
        self.events.append(record)

    def events_of(self, event_type: str) -> List[Dict[str, Any]]:
        """All recorded events of one type, in emission order."""
        return [e for e in self.events if e["event"] == event_type]


class JsonlTracer(_ActiveTracer):
    """Streams events to a file, one JSON object per line.

    Every event is flushed as soon as it is written, so a run killed by
    a budget (or a crash) still leaves every completed event on disk —
    the point of streaming instead of recording.  At worst the final
    line is partial, which :func:`repro.obs.read_jsonl`-style readers
    skip with a warning.  Use as a context manager to close the file
    deterministically.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._handle = open(path, "w", buffering=1, encoding="utf-8")

    def _write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
