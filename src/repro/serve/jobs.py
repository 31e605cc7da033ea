"""Job lifecycle: bounded priority queue, worker pool, event logs.

A **job** wraps one :class:`~repro.serve.schema.VerifyRequest` through
the states::

    queued -> running -> done | failed | cancelled
         \\--------------------------------^  (cancel while queued)

Each job carries an append-only **event log** — heartbeat lines from
the run's :class:`~repro.obs.watchdog.Watchdog` (wired through
``Options.heartbeat_stream``) plus structured engine trace events —
that ``GET /v1/jobs/{id}/events`` streams as NDJSON.  The log is
bounded (:data:`MAX_EVENTS`); overflow drops the oldest middle and
counts what was dropped, so a pathological run cannot hold the server
hostage on memory.  :meth:`Job.finish` appends the terminal ``state``
event and closes the log in one step, so a follower blocked in
:meth:`JobEventLog.follow` wakes on every event and learns the job is
over from the log itself, with the terminal event in hand.

**Cancellation is cooperative, via the engines' existing budget
hooks**: :meth:`Job.cancel` marks the job and moves the live manager's
wall-clock deadline into the past, so the next budget check inside any
BDD operation raises :class:`~repro.bdd.manager.BudgetExceededError`
and the engine unwinds through its normal budget path — a consistent
manager, a finished result, no killed threads.  The pipeline then
reports the job ``cancelled`` instead of recording the partial run.

The **queue** orders by ``(priority, arrival)`` — lower priority value
first, FIFO within a class — and is bounded: a full queue refuses new
work immediately (:class:`QueueFullError` → HTTP 429 + Retry-After)
rather than accepting unbounded backlog.  That explicit backpressure
is what lets clients implement honest retry policies.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import traceback
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..trace import Tracer

__all__ = ["JobState", "Job", "JobEventLog", "JobEventTracer",
           "QueueFullError", "JobQueue", "WorkerPool", "MAX_EVENTS",
           "RetentionPolicy"]

#: Per-job event-log bound; beyond it the middle is dropped (the head
#: keeps the submit/start context, the tail keeps the ending).
MAX_EVENTS = 4096


class JobState:
    """String constants for the job lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


class JobEventLog:
    """Thread-safe append-only event log with a drop-middle bound.

    Followers block in :meth:`follow` until an event lands or the log
    is closed; :meth:`close` appends the last event and closes the log
    under one lock hold, so no follower sees one without the other.

    Also quacks like a write stream (``write``/``flush``) so it can be
    handed to the watchdog as ``Options.heartbeat_stream``: complete
    lines written to it become ``{"kind": "heartbeat", ...}`` events.
    """

    def __init__(self, max_events: int = MAX_EVENTS,
                 request_id: Optional[str] = None) -> None:
        self._events: List[Dict[str, Any]] = []
        self._dropped = 0
        self._max = max_events
        # Reentrant: close() appends while it holds the lock.
        self._lock = threading.RLock()
        #: Made by the first follower that has to block, dropped on
        #: close: a closed log never blocks, and most jobs a server
        #: retains are closed.
        self._changed: Optional[threading.Condition] = None
        self._closed = False
        self._seq = 0
        self._pending_line = ""
        #: Stamped onto every event so a single NDJSON line is enough
        #: to correlate with the access log and the ledger sidecar.
        self.request_id = request_id

    def append(self, kind: str, **fields: Any) -> None:
        """Record one event (stamped with a sequence number and time)."""
        with self._lock:
            event = {"seq": self._seq, "ts": round(time.time(), 3),
                     "kind": kind}
            if self.request_id is not None:
                event["request_id"] = self.request_id
            event.update(fields)
            self._seq += 1
            self._events.append(event)
            if len(self._events) > self._max:
                # Keep the first quarter and the trailing rest; count
                # the cut so readers know the log is not gapless.
                keep_head = self._max // 4
                cut = len(self._events) - self._max
                del self._events[keep_head:keep_head + cut]
                self._dropped += cut
            if self._changed is not None:
                self._changed.notify_all()

    def close(self, kind: str, **fields: Any) -> None:
        """Append the log's last event and mark the log closed."""
        with self._lock:
            self.append(kind, **fields)
            self._closed = True
            self._changed = None

    def snapshot(self, since_seq: int = 0) -> List[Dict[str, Any]]:
        """Events with ``seq >= since_seq`` (a consistent copy)."""
        with self._lock:
            return [dict(e) for e in self._events
                    if e["seq"] >= since_seq]

    def follow(self, since_seq: int = 0
               ) -> Tuple[List[Dict[str, Any]], bool]:
        """Block until an event with ``seq >= since_seq`` exists or the
        log is closed; return those events and whether it is closed.

        Both are read under one lock hold: a closed log's batch ends
        with the event :meth:`close` appended.
        """
        with self._lock:
            while self._seq <= since_seq and not self._closed:
                if self._changed is None:
                    self._changed = threading.Condition(self._lock)
                self._changed.wait()
            return self.snapshot(since_seq), self._closed

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._seq

    # -- write-stream protocol (the watchdog sink) ----------------------

    def write(self, text: str) -> int:
        """Accumulate text; each complete line becomes a heartbeat event."""
        self._pending_line += text
        while "\n" in self._pending_line:
            line, self._pending_line = self._pending_line.split("\n", 1)
            if line.strip():
                self.append("heartbeat", line=line)
        return len(text)

    def flush(self) -> None:
        """No-op (lines are committed on newline)."""


#: Keys the event log stamps on every line itself.
_LOG_KEYS = ("seq", "ts", "kind", "request_id")


class JobEventTracer(Tracer):
    """A :class:`~repro.trace.Tracer` that records into the event log.

    Gives service clients the same structured engine events the JSONL
    tracer streams to disk, one ``{"kind": "trace", "event": ...}``
    per emit.  An engine field named like one of the log's own keys
    (``seq``, ``ts``, ``kind``, ``request_id``) gets a ``trace_``
    prefix, so ``budget_check``'s ``kind="time"`` arrives as
    ``trace_kind``.  Observational only, like every tracer.
    """

    enabled = True

    def __init__(self, log: JobEventLog) -> None:
        self._log = log

    def emit(self, event: str, **fields: Any) -> None:
        for key in _LOG_KEYS:
            if key in fields:
                fields["trace_" + key] = fields.pop(key)
        self._log.append("trace", event=event, **fields)


class Job:
    """One queued/running/finished verification request."""

    def __init__(self, request: Any, priority: int = 0,
                 request_id: Optional[str] = None) -> None:
        self.id = uuid.uuid4().hex[:12]
        self.request = request
        self.request_hash = request.request_hash()
        self.priority = priority
        self.state = JobState.QUEUED
        #: The correlation id of the submitting HTTP request (inbound
        #: ``X-Request-Id`` or server-generated); stamped on every
        #: event line and archived with the run.
        self.request_id = request_id or uuid.uuid4().hex[:12]
        self.events = JobEventLog(request_id=self.request_id)
        #: Phase rollup written by the pipeline (queue_wait / build /
        #: run / archive seconds) — service wall-clock, never part of
        #: the content-addressed run document.
        self.phases: Dict[str, float] = {}
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cached = False
        self.run_id: Optional[str] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._cancel_requested = False
        #: The live manager while the engine runs (pipeline-set); the
        #: cancellation hook pokes its deadline.
        self._manager: Any = None

    # -- state transitions (pipeline/worker side) -----------------------

    def mark_running(self) -> None:
        with self._lock:
            self.state = JobState.RUNNING
            self.started_at = time.time()
        self.events.append("state", state=JobState.RUNNING)

    def finish(self, state: str, **fields: Any) -> None:
        """Turn terminal: the ``state`` event closes the event log."""
        with self._lock:
            self.state = state
            self.finished_at = time.time()
            self.events.close("state", state=state, **fields)

    def attach_manager(self, manager: Any) -> bool:
        """Expose the live manager to the cancel hook.

        Returns False when cancellation already came in — the pipeline
        then aborts before starting the engine (the queued-job race:
        a DELETE landing between build and run must still win).
        """
        with self._lock:
            self._manager = manager
            if self._cancel_requested:
                self._poke_budget_locked()
                return False
            return True

    def detach_manager(self) -> None:
        with self._lock:
            self._manager = None

    def record_phase(self, name: str, seconds: float) -> None:
        """Record one service-side phase duration (pipeline-set)."""
        with self._lock:
            self.phases[name] = round(float(seconds), 6)

    # -- cancellation (HTTP side) ---------------------------------------

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def cancel(self) -> bool:
        """Request cooperative cancellation; True if newly requested.

        A queued job is simply marked (the worker skips it); a running
        job gets its manager's deadline moved into the past so the
        engine's very next budget check raises and unwinds cleanly.
        """
        with self._lock:
            if self.state in JobState.TERMINAL or self._cancel_requested:
                return False
            self._cancel_requested = True
            self._poke_budget_locked()
            # Under the job lock, so it cannot follow the terminal
            # event that finish() appends under the same lock.
            self.events.append("cancel_requested")
        return True

    def _poke_budget_locked(self) -> None:
        manager = self._manager
        if manager is not None:
            # The engines' existing budget hook: any BDD operation
            # checks the deadline within a few thousand node visits.
            manager._deadline = 0.0
            manager._time_check_countdown = 0

    # -- reading (HTTP side) --------------------------------------------

    def snapshot(self, include_result: bool = True) -> Dict[str, Any]:
        """The public JSON document of this job."""
        with self._lock:
            doc: Dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "request_id": self.request_id,
                "request_hash": self.request_hash,
                "priority": self.priority,
                "label": self.request.label,
                "model": self.request.model,
                "method": self.request.method,
                "created_at": round(self.created_at, 3),
                "started_at": (round(self.started_at, 3)
                               if self.started_at else None),
                "finished_at": (round(self.finished_at, 3)
                                if self.finished_at else None),
                "queue_wait_seconds": (
                    round(self.started_at - self.created_at, 6)
                    if self.started_at else None),
                "run_seconds": (
                    round(self.finished_at - self.started_at, 6)
                    if self.started_at and self.finished_at else None),
                "cached": self.cached,
                "run_id": self.run_id,
                "cancel_requested": self._cancel_requested,
                "events": self.events.next_seq,
                "events_dropped": self.events.dropped,
            }
            if self.phases:
                doc["phases"] = dict(self.phases)
            if self.error is not None:
                doc["error"] = dict(self.error)
            if include_result and self.result is not None:
                doc["result"] = self.result
            return doc

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL


class RetentionPolicy:
    """Which terminal jobs a long-running server should forget.

    Two independent bounds, both optional:

    * ``max_finished`` — keep at most this many terminal jobs;
      the oldest (by arrival) are retired first.  ``None`` disables
      the count bound.
    * ``ttl`` — retire a terminal job once ``now - finished_at``
      reaches this many seconds.  ``None`` disables the age bound.

    Queued and running jobs are never retired — retention trims
    completed history, it is not admission control (the bounded queue
    is).  The policy is a pure decision function over a job list, so
    the owner (the service) keeps locking and storage to itself.
    """

    def __init__(self, max_finished: Optional[int] = 1024,
                 ttl: Optional[float] = None) -> None:
        if max_finished is not None and max_finished < 0:
            raise ValueError("max_finished must be >= 0 (or None)")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.max_finished = max_finished
        self.ttl = ttl

    def retire(self, jobs: List[Job],
               now: Optional[float] = None) -> List[Job]:
        """The jobs (given in arrival order) that should be dropped.

        TTL expiry is applied first, then the count bound on the
        survivors — so a tight TTL can keep a server well under
        ``max_finished``, and a burst of fresh finishes still trims
        to the count bound even when nothing has aged out yet.
        """
        if now is None:
            now = time.time()
        aged: List[Job] = []
        kept: List[Job] = []
        for job in jobs:
            if not job.terminal:
                continue
            if (self.ttl is not None and job.finished_at is not None
                    and now - job.finished_at >= self.ttl):
                aged.append(job)
            else:
                kept.append(job)
        if self.max_finished is not None \
                and len(kept) > self.max_finished:
            aged.extend(kept[:len(kept) - self.max_finished])
        return aged


class QueueFullError(Exception):
    """The bounded queue refused a submission (HTTP 429)."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"job queue full ({limit} pending)")
        self.limit = limit


class JobQueue:
    """Bounded, priority-ordered (then FIFO) job queue."""

    def __init__(self, limit: int = 64) -> None:
        if limit < 1:
            raise ValueError("queue limit must be at least 1")
        self.limit = limit
        self._heap: List[Any] = []
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False

    def put(self, job: Job) -> None:
        """Enqueue or raise :class:`QueueFullError` immediately."""
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if len(self._heap) >= self.limit:
                raise QueueFullError(self.limit)
            heapq.heappush(self._heap,
                           (job.priority, next(self._counter), job))
            self._available.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the next job; None on timeout or after close."""
        with self._lock:
            while not self._heap and not self._closed:
                if not self._available.wait(timeout):
                    return None
            if not self._heap:
                return None
            _, _, job = heapq.heappop(self._heap)
            return job

    def close(self) -> None:
        """Wake all waiters; subsequent ``get`` drains then yields None."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def oldest_created_at(self) -> Optional[float]:
        """Arrival time of the longest-queued job (the age gauge)."""
        with self._lock:
            if not self._heap:
                return None
            return min(entry[2].created_at for entry in self._heap)


class WorkerPool:
    """N daemon threads draining the queue through one executor.

    ``executor(job)`` is the pipeline's run function; it owns all
    job-state transitions for the jobs it executes.  The pool only
    guarantees that an exception escaping the executor marks the job
    ``failed`` (with the traceback in the job's error document)
    instead of killing the worker thread.
    """

    def __init__(self, queue: JobQueue,
                 executor: Callable[[Job], None],
                 workers: int = 2,
                 on_failure: Optional[Callable[[Job], None]] = None
                 ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self._queue = queue
        self._executor = executor
        #: Called (outside any pool lock) after a job the executor let
        #: escape is marked failed — the service counts these.
        self._on_failure = on_failure
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._loop,
                             name=f"repro-serve-worker-{index}",
                             daemon=True)
            for index in range(workers)]
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for thread in self._threads:
            thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Close the queue and join the workers."""
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)

    @property
    def alive(self) -> int:
        """Number of worker threads currently alive."""
        return sum(thread.is_alive() for thread in self._threads)

    @property
    def busy(self) -> int:
        """Number of workers currently inside the executor."""
        with self._busy_lock:
            return self._busy

    def _loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job.cancel_requested:
                job.finish(JobState.CANCELLED, where="queued")
                continue
            with self._busy_lock:
                self._busy += 1
            try:
                self._executor(job)
            except Exception as error:  # noqa: BLE001 - worker survives
                job.error = {"code": "internal",
                             "message": str(error),
                             "traceback": traceback.format_exc()}
                job.finish(JobState.FAILED, error=str(error))
                if self._on_failure is not None:
                    self._on_failure(job)
            finally:
                with self._busy_lock:
                    self._busy -= 1
