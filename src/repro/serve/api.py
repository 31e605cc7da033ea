"""HTTP transport for verification-as-a-service (stdlib only).

Layering (mirroring the api / auth / rate_limiter / pipeline shape of
production detection services):

* :class:`ServerConfig` — everything tunable in one dataclass.
* :class:`VerificationService` — the transport-free application core:
  authenticate -> rate-limit -> parse -> enqueue, plus job lookup,
  cancel, and stats.  All HTTP-visible failures are
  :class:`ServiceError` (status + structured JSON body); tests can
  drive this class directly without a socket.
* :class:`VerificationServer` — a ``ThreadingHTTPServer`` bolted onto
  the service, with ``start()``/``stop()`` for embedding (tests bind
  port 0) and :meth:`serve_forever` for the CLI.

Endpoints (all JSON unless noted; auth = ``Authorization: Bearer
<token>`` when tokens are configured)::

    GET    /v1/healthz            liveness + queue/worker/cache stats
    GET    /v1/stats              healthz document + metrics snapshot
    GET    /v1/metrics            Prometheus textfile of the server's
                                  MetricsRegistry (text/plain; 0.0.4)
    GET    /v1/models             model registry (params, help)
    GET    /v1/methods            verification methods
    POST   /v1/jobs               submit a request  -> 202 job document
    GET    /v1/jobs               list job documents (no result bodies)
    GET    /v1/jobs/{id}          one job document (result included)
    GET    /v1/jobs/{id}/events   NDJSON event log; ``?since=N`` to
                                  resume, ``?follow=1`` to stream each
                                  event as it lands, ending right after
                                  the terminal ``state`` event
    DELETE /v1/jobs/{id}          cooperative cancel

Telemetry contract: every request is assigned a **request id** —
the inbound ``X-Request-Id`` header when present and well-formed,
else server-generated — echoed in the ``X-Request-Id`` response
header, stamped on every NDJSON event line of a job it submits,
written to the structured JSONL access log, and archived with the
run's ledger record.  Request accounting (one counter increment +
one latency observation per request, keyed by
:func:`~repro.serve.telemetry.route_key`) happens *after* the
response is written, so a ``/v1/metrics`` scrape never includes
itself — a scrape after N requests reflects exactly N observations.

Backpressure contract: a full queue or a drained rate-limit bucket
answers **429 with a Retry-After header** — the server never buffers
unbounded work and never silently drops a request.
"""

from __future__ import annotations

import json
import math
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..core import METHODS
from ..core.options import OPTIONS_SCHEMA_VERSION
from ..models import MODELS
from ..obs.exporters import PROM_CONTENT_TYPE
from .auth import Authenticator
from .jobs import Job, JobQueue, JobState, QueueFullError, \
    RetentionPolicy, WorkerPool
from .pipeline import VerificationPipeline
from .rate_limiter import RateLimiter
from .schema import REQUEST_SCHEMA_VERSION, RequestError, parse_request, \
    valid_request_id
from .telemetry import AccessLog, ServiceMetrics, route_key

__all__ = ["ServerConfig", "ServiceError", "VerificationService",
           "VerificationServer"]


@dataclass
class ServerConfig:
    """Everything the server can be told from the CLI or a test."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Accepted bearer tokens; empty = open server (development only).
    tokens: Tuple[str, ...] = ()
    #: Job submissions per second per principal (None/0 = unlimited).
    rate: Optional[float] = None
    #: Rate-limit burst capacity.
    burst: float = 10.0
    #: Worker threads executing jobs.
    workers: int = 2
    #: Bounded queue depth; beyond it POST answers 429.
    queue_limit: int = 16
    #: Ledger directory for result persistence + request-hash cache
    #: (None disables both).
    ledger_dir: Optional[str] = None
    #: Serve identical requests from the ledger without re-running.
    cache: bool = True
    #: Default heartbeat cadence injected into jobs (seconds).
    job_heartbeat: Optional[float] = 1.0
    #: Write the structured access log to stderr (the CLI default;
    #: ``access_log`` takes precedence when both are set).
    log_requests: bool = False
    #: Append structured JSONL access-log records to this file.
    access_log: Optional[str] = None
    #: Collect server-lifetime metrics (/v1/metrics, /v1/stats).
    metrics: bool = True
    #: Retire terminal jobs beyond this many, oldest first
    #: (None = unbounded by count).
    max_finished_jobs: Optional[int] = 1024
    #: Retire terminal jobs this many seconds after they finish
    #: (None = keep until the count bound evicts them).
    job_ttl: Optional[float] = None


class ServiceError(Exception):
    """An HTTP-visible failure: status code + structured JSON error."""

    def __init__(self, status: int, code: str, message: str,
                 headers: Optional[Dict[str, str]] = None,
                 **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.headers = dict(headers or {})
        self.extra = extra

    def body(self) -> Dict[str, Any]:
        error = {"code": self.code, "message": str(self)}
        error.update(self.extra)
        return {"error": error}


class VerificationService:
    """The application core behind the HTTP handler."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.telemetry = ServiceMetrics(enabled=config.metrics)
        self.access_log = AccessLog.open(config.access_log,
                                         to_stderr=config.log_requests)
        self.auth = Authenticator(config.tokens)
        self.limiter = RateLimiter(config.rate, config.burst,
                                   metrics=self.telemetry)
        self.queue = JobQueue(config.queue_limit)
        self.pipeline = VerificationPipeline(
            ledger_dir=config.ledger_dir,
            use_cache=config.cache,
            job_heartbeat=config.job_heartbeat,
            metrics=self.telemetry)
        self.pool = WorkerPool(self.queue, self.pipeline.run_job,
                               workers=config.workers,
                               on_failure=self.pipeline.note_failure)
        self.retention = RetentionPolicy(
            max_finished=config.max_finished_jobs,
            ttl=config.job_ttl)
        self._jobs: Dict[str, Job] = {}
        self._jobs_order: List[str] = []
        self._lock = threading.Lock()
        self._started = time.time()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self.pool.start()

    def stop(self) -> None:
        self.pool.stop()
        self.access_log.close()

    # -- request handling -----------------------------------------------

    def authenticate(self, authorization: Optional[str]) -> str:
        principal = self.auth.authenticate(authorization)
        if principal is None:
            self.telemetry.inc("auth_failures")
            raise ServiceError(
                401, "unauthorized",
                "missing or invalid bearer token",
                headers={"WWW-Authenticate": "Bearer"})
        return principal

    def submit(self, raw: Any, principal: str,
               request_id: Optional[str] = None) -> Job:
        """Parse, admission-control, and enqueue one request.

        ``request_id`` is the transport-level correlation id (inbound
        ``X-Request-Id`` or generated); an explicit ``request_id``
        field inside the document wins over it.
        """
        allowed, retry_after = self.limiter.check(principal)
        if not allowed:
            raise ServiceError(
                429, "rate_limited",
                f"rate limit exceeded for this token; retry in "
                f"{retry_after:.2f}s",
                headers={"Retry-After":
                         str(max(1, math.ceil(retry_after)))},
                retry_after=round(retry_after, 3))
        try:
            request = parse_request(raw)
        except RequestError as error:
            raise ServiceError(400, error.code, str(error),
                               **({"field": error.field}
                                  if error.field else {})) from None
        job = Job(request, priority=request.priority,
                  request_id=request.request_id or request_id)
        job.events.append("submitted",
                          authenticated=self.auth.enabled,
                          request_hash=job.request_hash)
        with self._lock:
            self._jobs[job.id] = job
            self._jobs_order.append(job.id)
        try:
            self.queue.put(job)
        except QueueFullError as error:
            with self._lock:
                self._jobs.pop(job.id, None)
                self._jobs_order.remove(job.id)
            self.telemetry.inc("queue_full_rejections")
            raise ServiceError(
                429, "queue_full",
                f"{error} — backpressure: retry later",
                headers={"Retry-After": "2"}) from None
        self._retire_finished()
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(404, "unknown_job",
                               f"no job {job_id!r}")
        return job

    def cancel(self, job_id: str) -> Dict[str, Any]:
        job = self.job(job_id)
        self.telemetry.inc("cancel_requests")
        newly = job.cancel()
        doc = job.snapshot(include_result=False)
        doc["cancelled"] = newly or job.state == JobState.CANCELLED
        return doc

    def list_jobs(self) -> List[Dict[str, Any]]:
        self._retire_finished()
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._jobs_order]
        return [job.snapshot(include_result=False) for job in jobs]

    def stats(self) -> Dict[str, Any]:
        self._retire_finished()
        self.refresh_gauges()
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        stats = {
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started, 3),
            "workers": self.pool.alive,
            "workers_busy": self.pool.busy,
            "queue_depth": len(self.queue),
            "queue_limit": self.queue.limit,
            "auth_enabled": self.auth.enabled,
            "rate_limit_enabled": self.limiter.enabled,
            "cache_enabled": self.pipeline.use_cache,
            "metrics_enabled": self.telemetry.enabled,
            "ledger_dir": self.pipeline.ledger_dir,
            "jobs_by_state": states,
            "retention": {
                "max_finished_jobs": self.retention.max_finished,
                "job_ttl": self.retention.ttl,
            },
            "schema_version": REQUEST_SCHEMA_VERSION,
            "request_schema_version": REQUEST_SCHEMA_VERSION,
            "options_schema_version": OPTIONS_SCHEMA_VERSION,
        }
        stats.update(self.pipeline.stats())
        return stats

    def stats_with_metrics(self) -> Dict[str, Any]:
        """The healthz document plus the metrics snapshot
        (``GET /v1/stats``)."""
        doc = self.stats()
        doc["metrics"] = self.telemetry.snapshot()
        return doc

    def refresh_gauges(self) -> None:
        """Update the point-in-time saturation gauges (called before
        every scrape/stats read — gauges describe *now*)."""
        if not self.telemetry.enabled:
            return
        now = time.time()
        self.telemetry.gauge("uptime_seconds",
                             round(now - self._started, 3))
        self.telemetry.gauge("queue_depth", float(len(self.queue)))
        self.telemetry.gauge("queue_limit", float(self.queue.limit))
        self.telemetry.gauge("workers_alive", float(self.pool.alive))
        self.telemetry.gauge("workers_busy", float(self.pool.busy))
        oldest = self.queue.oldest_created_at()
        self.telemetry.gauge(
            "queue_oldest_age_seconds",
            round(now - oldest, 3) if oldest is not None else 0.0)

    def metrics_prometheus(self) -> str:
        """The Prometheus textfile body, or 404 when metrics are off."""
        if not self.telemetry.enabled:
            raise ServiceError(404, "metrics_disabled",
                               "server started without metrics "
                               "(drop --no-metrics to enable)")
        self.refresh_gauges()
        return self.telemetry.to_prometheus()

    def _retire_finished(self) -> None:
        """Apply the retention policy (TTL + count bound).

        Runs at submit time (where growth happens) and on list/stats
        reads (so TTL expiry is visible on an otherwise idle server).
        Direct ``GET /v1/jobs/{id}`` polls deliberately do not GC —
        a client polling a just-finished job should not race its own
        retention.
        """
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._jobs_order]
            for job in self.retention.retire(jobs):
                self._jobs.pop(job.id, None)
                self._jobs_order.remove(job.id)


def _make_handler(service: VerificationService):
    """Build the request-handler class bound to one service."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1"

        # -- plumbing ---------------------------------------------------

        def log_message(self, fmt: str, *args: Any) -> None:
            """Silenced: the structured access log replaces it."""

        def _send_json(self, status: int, payload: Any,
                       headers: Optional[Dict[str, str]] = None) -> None:
            body = (json.dumps(payload, indent=2, default=str)
                    + "\n").encode("utf-8")
            self._status = status
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", self._request_id)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str,
                       content_type: str) -> None:
            body = text.encode("utf-8")
            self._status = status
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", self._request_id)
            self.end_headers()
            self.wfile.write(body)

        def _send_error_doc(self, error: ServiceError) -> None:
            self._send_json(error.status, error.body(),
                            headers=error.headers)

        def _read_json(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ServiceError(400, "empty_body",
                                   "request body must be a JSON object")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ServiceError(400, "bad_json",
                                   f"request body is not valid JSON: "
                                   f"{err}") from None

        def _route(self) -> Tuple[str, Dict[str, List[str]]]:
            parsed = urlparse(self.path)
            return parsed.path.rstrip("/") or "/", parse_qs(parsed.query)

        def _principal(self) -> str:
            return service.authenticate(
                self.headers.get("Authorization"))

        def _inbound_request_id(self) -> str:
            """The request's correlation id: a well-formed inbound
            ``X-Request-Id``, else freshly generated (a malformed one
            is ignored, not an error — correlation must never break a
            request)."""
            supplied = self.headers.get("X-Request-Id")
            if supplied and valid_request_id(supplied):
                return supplied
            return uuid.uuid4().hex[:12]

        # -- verbs ------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._handle("POST")

        def do_DELETE(self) -> None:  # noqa: N802
            self._handle("DELETE")

        def _handle(self, verb: str) -> None:
            """One request: dispatch, then account and access-log it.

            The telemetry write happens after the response bytes are
            out, so a metrics scrape reflects every *prior* request
            and never itself.
            """
            started = time.perf_counter()
            path, query = self._route()
            self._request_id = self._inbound_request_id()
            self._status = 500
            self._log_extra: Dict[str, Any] = {}
            try:
                try:
                    self._dispatch(verb, path, query)
                except ServiceError as error:
                    self._send_error_doc(error)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response
            finally:
                seconds = time.perf_counter() - started
                route = route_key(verb, path)
                service.telemetry.observe_request(route, self._status,
                                                  seconds)
                record = {"ts": round(time.time(), 3),
                          "request_id": self._request_id,
                          "remote": self.address_string(),
                          "method": verb,
                          "path": path,
                          "route": route,
                          "status": self._status,
                          "seconds": round(seconds, 6)}
                record.update(self._log_extra)
                service.access_log.log(record)

        def _dispatch(self, verb: str, path: str,
                      query: Dict[str, List[str]]) -> None:
            if verb == "POST":
                principal = self._principal()
                if path != "/v1/jobs":
                    raise ServiceError(404, "unknown_endpoint",
                                       f"no POST endpoint {path!r}")
                job = service.submit(self._read_json(), principal,
                                     request_id=self._request_id)
                self._log_extra["job_id"] = job.id
                self._send_json(202, job.snapshot(include_result=False),
                                headers={"Location":
                                         f"/v1/jobs/{job.id}"})
                return
            if verb == "DELETE":
                self._principal()
                if not path.startswith("/v1/jobs/"):
                    raise ServiceError(404, "unknown_endpoint",
                                       f"no DELETE endpoint {path!r}")
                doc = service.cancel(path[len("/v1/jobs/"):])
                self._log_extra["job_id"] = doc.get("id")
                self._send_json(200, doc)
                return
            # GET
            if path == "/v1/healthz":
                self._send_json(200, service.stats())
                return
            self._principal()
            if path == "/v1/metrics":
                self._send_text(200, service.metrics_prometheus(),
                                PROM_CONTENT_TYPE)
            elif path == "/v1/stats":
                self._send_json(200, service.stats_with_metrics())
            elif path == "/v1/models":
                self._send_json(200, {
                    name: {"help": spec.help,
                           "params": sorted(spec.params),
                           "bug_kind": spec.bug_kind}
                    for name, spec in MODELS.items()})
            elif path == "/v1/methods":
                self._send_json(200, {"methods": list(METHODS)})
            elif path == "/v1/jobs":
                self._send_json(200, {"jobs": service.list_jobs()})
            elif path.startswith("/v1/jobs/") \
                    and path.endswith("/events"):
                job_id = path[len("/v1/jobs/"):-len("/events")]
                job = service.job(job_id)
                self._log_extra["job_id"] = job.id
                self._stream_events(job, query)
            elif path.startswith("/v1/jobs/"):
                job = service.job(path[len("/v1/jobs/"):])
                self._log_extra["job_id"] = job.id
                self._send_json(200, job.snapshot())
            else:
                raise ServiceError(404, "unknown_endpoint",
                                   f"no endpoint {path!r}")

        # -- event streaming -------------------------------------------

        def _stream_events(self, job: Job,
                           query: Dict[str, List[str]]) -> None:
            try:
                since = int(query.get("since", ["0"])[0])
            except ValueError:
                raise ServiceError(400, "bad_since",
                                   "'since' must be an integer") from None
            follow = query.get("follow", ["0"])[0] in ("1", "true")
            self._status = 200
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("X-Job-State", job.state)
            self.send_header("X-Request-Id", self._request_id)
            self.end_headers()
            seq = since
            dropped = 0
            try:
                while True:
                    # A follower blocks in the log until an event lands;
                    # a closed log's batch ends with the terminal event.
                    if follow:
                        batch, last = job.events.follow(seq)
                    else:
                        batch, last = job.events.snapshot(seq), True
                    lines = []
                    current = job.events.dropped
                    if current != dropped:
                        # Surface buffer truncation inline so a tailing
                        # client knows the log is not gapless.
                        lines.append({"kind": "events_dropped",
                                      "dropped": current,
                                      "request_id": job.request_id})
                        dropped = current
                    lines.extend(batch)
                    if batch:
                        seq = batch[-1]["seq"] + 1
                    if lines:
                        self.wfile.write("".join(
                            json.dumps(line, default=str) + "\n"
                            for line in lines).encode("utf-8"))
                    if last:
                        return
            except (BrokenPipeError, ConnectionResetError):
                return  # client went away; nothing to clean up

    return Handler


class VerificationServer:
    """ThreadingHTTPServer + worker pool, embeddable and CLI-runnable.

    ``ServerConfig.port = 0`` binds an ephemeral port (tests);
    :attr:`port` always reports the real one.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.service = VerificationService(config)
        self._httpd = ThreadingHTTPServer(
            (config.host, config.port), _make_handler(self.service))
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Run workers + HTTP loop on background threads (tests)."""
        self.service.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()

    def serve_forever(self) -> None:
        """Blocking run (the ``repro serve`` CLI path)."""
        self.service.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self.service.stop()
