"""The verification pipeline: cache probe -> build -> run -> ledger.

This is the layer between the transport (``api.py``) and the engine
(``repro.core``), and the only place the two meet.  One job flows
through:

1. **Cache probe** — the job's canonical request hash is looked up in
   the ledger's request index (:func:`repro.obs.ledger.lookup_request`).
   A hit finishes the job immediately with the archived run document:
   one engine execution per distinct request, ever, per ledger.
2. **Build** — the model registry constructs the problem.
3. **Run** — ``repro.verify`` with the request's Options, plus the
   job's observability sinks attached: a
   :class:`~repro.serve.jobs.JobEventTracer` for structured engine
   events, the job event log as ``heartbeat_stream`` for watchdog
   progress lines, and a :class:`~repro.obs.SpanProfiler` when the
   run will be archived.  The engine itself is byte-identical to a
   CLI run — sinks are observational only.
4. **Archive** — the finished run is recorded content-addressed in
   the ledger and indexed by request hash (with the job's
   ``request_id`` for audit), making it the cache entry for every
   future identical request and diffable via ``repro compare``.

Every job additionally runs under a *service-side*
:class:`~repro.obs.SpanProfiler` covering those pipeline phases
(``cache_probe`` / ``build`` / ``run`` / ``archive``, plus the
measured ``queue_wait``).  The rollup lands in the job document
(``phases``, ``queue_wait_seconds``, ``run_seconds``), in the
server-lifetime metrics (``job_queue_wait_seconds`` /
``job_run_seconds`` histograms, cache/executed/cancelled counters),
and — for archived runs — in a ``service.json`` sidecar next to
``run.json`` (:func:`repro.obs.ledger.record_service`).  The sidecar
keeps wall-clock and request ids *out* of the content-addressed run
document, so identical runs still collide.  All of it is recorded
before the job turns terminal, so a client that reads the job the
moment its terminal event arrives sees the whole rollup and sidecar.

A job cancelled mid-run (cooperative, through the budget hook — see
:mod:`repro.serve.jobs`) is *not* archived: its partial budget outcome
must never be served as the cached answer to an honest request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from ..core import verify
from ..models import build_model
from ..obs import SpanProfiler, ledger, perf
from .jobs import Job, JobEventTracer, JobState
from .telemetry import ServiceMetrics

__all__ = ["VerificationPipeline"]


class VerificationPipeline:
    """Executes jobs; owns the ledger cache and the run counters."""

    def __init__(self, ledger_dir: Optional[str] = None,
                 use_cache: bool = True,
                 job_heartbeat: Optional[float] = 1.0,
                 metrics: Optional[ServiceMetrics] = None) -> None:
        self.ledger_dir = str(ledger_dir) if ledger_dir else None
        self.use_cache = bool(use_cache) and self.ledger_dir is not None
        #: Heartbeat cadence injected into jobs that do not set one
        #: (None leaves requests without progress lines).
        self.job_heartbeat = job_heartbeat
        #: The server-lifetime metrics sink (shared with the HTTP
        #: layer); a disabled instance makes every emit a no-op.
        self.metrics = metrics if metrics is not None \
            else ServiceMetrics(enabled=False)
        self._lock = threading.Lock()
        self._counters = {"jobs_executed": 0, "cache_hits": 0,
                          "jobs_failed": 0, "jobs_cancelled": 0}

    # -- stats ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def _bump(self, counter: str, metric: Optional[str] = None) -> None:
        with self._lock:
            self._counters[counter] += 1
        if metric is not None:
            self.metrics.inc(metric)

    def note_failure(self, job: Job) -> None:
        """Account one job whose exception escaped the executor
        (the :class:`~repro.serve.jobs.WorkerPool` failure hook)."""
        self._bump("jobs_failed", "jobs_failed")

    # -- the executor (WorkerPool calls this on a worker thread) --------

    def run_job(self, job: Job) -> None:
        """Run one job, record its telemetry, then finish it."""
        spans = SpanProfiler()
        job.mark_running()
        queue_wait = job.started_at - job.created_at
        job.record_phase("queue_wait", queue_wait)
        self.metrics.observe_time("job_queue_wait_seconds", queue_wait)
        try:
            state, fields = self._run_job_phases(job, spans)
        finally:
            self._finalize_telemetry(job, spans)
        self.metrics.observe_time("job_run_seconds",
                                  time.time() - job.started_at)
        job.finish(state, **fields)

    def _run_job_phases(self, job: Job, spans: SpanProfiler
                        ) -> Tuple[str, Dict[str, Any]]:
        """The job's phases; returns its terminal state and the fields
        of its terminal event."""
        with spans.span("cache_probe"):
            hit = self._serve_from_cache(job)
        if hit:
            return JobState.DONE, {
                "outcome": (job.result or {}).get("outcome"),
                "cached": True}
        request = job.request
        options = self._job_options(job)
        job.events.append("build_start", model=request.model)
        with spans.span("build"):
            problem = build_model(request.model, bug=request.bug,
                                  **request.params)
        if not job.attach_manager(problem.machine.manager):
            # Cancelled between dequeue and build finish.
            self._bump("jobs_cancelled", "jobs_cancelled")
            return JobState.CANCELLED, {"where": "built"}
        engine_spans = options.spans
        try:
            with spans.span("run"):
                result = verify(problem, request.method, options,
                                assisted=request.assisted)
        finally:
            job.detach_manager()
        if job.cancel_requested:
            # The budget hook unwound the engine; report cancelled and
            # keep the partial outcome out of the cache.
            self._bump("jobs_cancelled", "jobs_cancelled")
            job.result = result.to_dict(include_profiles=False)
            return JobState.CANCELLED, {"where": "running",
                                        "outcome": result.outcome}
        self._bump("jobs_executed", "jobs_executed")
        # Serialize exactly as the ledger document does (no iterate
        # profiles, no counterexample steps): a cache-served result
        # must be indistinguishable from a live one.
        job.result = result.to_dict(include_profiles=False,
                                    include_counterexample=False)
        if self.ledger_dir is not None:
            with spans.span("archive"):
                run_id = ledger.record_run(self.ledger_dir, result,
                                           config=options.summary(),
                                           spans=engine_spans)
                ledger.record_request(self.ledger_dir, job.request_hash,
                                      run_id, request=request.to_dict(),
                                      request_id=job.request_id)
                # Every executed (non-cached) archive also contributes
                # one trajectory point to the perf history store, keyed
                # by the same content-addressed request hash.
                # Best-effort: a broken history file must never fail
                # the job — the run itself is already archived.
                try:
                    perf.record_run_point(
                        self.ledger_dir,
                        ledger.run_document(result,
                                            config=options.summary()),
                        run_id=run_id,
                        request_hash=job.request_hash,
                        source="service")
                except OSError:
                    pass
            job.run_id = run_id
            job.events.append("archived", run_id=run_id,
                              request_hash=job.request_hash)
        return JobState.DONE, {"outcome": result.outcome,
                               "cached": False}

    def _finalize_telemetry(self, job: Job, spans: SpanProfiler) -> None:
        """Fold the service-phase rollup into the job and (for
        archived runs) the ledger sidecar."""
        for name, row in spans.rollup().items():
            job.record_phase(name, row["seconds"])
        if self.ledger_dir is not None and job.run_id is not None \
                and not job.cached:
            ledger.record_service(self.ledger_dir, job.run_id, {
                "request_id": job.request_id,
                "job_id": job.id,
                "request_hash": job.request_hash,
                "phases": dict(job.phases),
            })

    # -- helpers --------------------------------------------------------

    def _serve_from_cache(self, job: Job) -> bool:
        """Fill the job from the ledger when its hash is indexed."""
        if not self.use_cache:
            return False
        run_id = ledger.lookup_request(self.ledger_dir, job.request_hash)
        if run_id is None:
            self.metrics.inc("ledger_cache_misses")
            return False
        run_id, document = ledger.load_run(self.ledger_dir, run_id)
        self._bump("cache_hits", "ledger_cache_hits")
        job.cached = True
        job.run_id = run_id
        job.result = document.get("result")
        job.events.append("cache_hit", run_id=run_id,
                          request_hash=job.request_hash)
        return True

    def _job_options(self, job: Job) -> Any:
        """The request's Options plus this job's observability sinks."""
        options = job.request.options
        heartbeat = options.heartbeat
        if heartbeat is None:
            heartbeat = self.job_heartbeat
        return replace(
            options,
            tracer=JobEventTracer(job.events),
            heartbeat=heartbeat,
            heartbeat_stream=job.events,
            spans=(SpanProfiler() if self.ledger_dir is not None
                   else None),
        )
