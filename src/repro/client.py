"""Tiny stdlib client for the verification job server.

Wraps the HTTP API of :mod:`repro.serve` in a handful of methods so
scripts never hand-roll ``urllib`` calls::

    from repro.client import ServiceClient
    client = ServiceClient("http://127.0.0.1:8080", token="s3cret")
    job = client.submit("fifo", method="xici", params={"depth": 3},
                        bug="overflow")
    done = client.wait(job["id"])
    print(done["result"]["outcome"], "cached:", done["cached"])

Every method returns the server's parsed JSON document.  HTTP errors
raise :class:`ServiceClientError` carrying the status code and the
structured error body (including ``retry_after`` on 429s), so callers
can implement honest backoff — or opt into the client's own bounded
retry loop with ``max_retries``: 429 responses are then retried with
jittered exponential backoff that honors the server's ``Retry-After``,
and the error surfaced after the budget is spent reports how many
attempts were made (``ServiceClientError.attempts``).

Requests can carry a correlation id: ``submit(request_id=...)`` sends
it as ``X-Request-Id``, the server echoes it on every response and
stamps it through the job's events and ledger record.

``wait`` follows the job's event stream (``?follow=1``), which the
server ends right after the terminal ``state`` event, and then fetches
the job document once.
"""

from __future__ import annotations

import json
import random
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Optional

from .core.options import Options

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(Exception):
    """An HTTP-level failure; carries the server's error document."""

    def __init__(self, status: int, body: Any,
                 headers: Optional[Dict[str, str]] = None,
                 attempts: int = 1) -> None:
        error = (body or {}).get("error", {}) \
            if isinstance(body, dict) else {}
        message = error.get("message") or f"HTTP {status}"
        suffix = f" (after {attempts} attempts)" if attempts > 1 else ""
        super().__init__(f"{status}: {message}{suffix}")
        self.status = status
        self.body = body
        self.headers = dict(headers or {})
        self.code = error.get("code")
        self.retry_after = error.get("retry_after") \
            or self.headers.get("Retry-After")
        #: How many HTTP attempts were made before giving up (1 when
        #: retries are disabled or the error is not retryable).
        self.attempts = attempts


def _client_error(error: urllib.error.HTTPError) -> ServiceClientError:
    raw = error.read().decode("utf-8", "replace")
    try:
        body = json.loads(raw)
    except json.JSONDecodeError:
        body = {"error": {"code": "opaque", "message": raw}}
    return ServiceClientError(error.code, body, headers=dict(error.headers))


class ServiceClient:
    """A minimal synchronous client for one job server.

    ``max_retries`` (default 0: fail fast, the historical behavior)
    bounds how many times a 429 — rate-limited or queue-full — is
    retried before the error is raised.  Each wait honors the server's
    ``Retry-After`` when present, else exponential backoff from
    ``backoff`` capped at ``max_backoff``, with up to 25% random
    jitter so a fleet of clients does not retry in lockstep.
    ``sleep``/``rng`` are injectable for tests.
    """

    def __init__(self, base_url: str, token: Optional[str] = None,
                 timeout: float = 30.0, max_retries: int = 0,
                 backoff: float = 0.25, max_backoff: float = 30.0,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    # -- transport ------------------------------------------------------

    def _call_once(self, method: str, path: str,
                   payload: Optional[Dict[str, Any]] = None,
                   headers: Optional[Dict[str, str]] = None) -> Any:
        request = urllib.request.Request(
            self.base_url + path, method=method)
        if self.token:
            request.add_header("Authorization", f"Bearer {self.token}")
        for name, value in (headers or {}).items():
            request.add_header(name, value)
        data = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, data=data,
                                        timeout=self.timeout) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise _client_error(error) from None

    def _retry_delay(self, error: ServiceClientError,
                     attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        delay: Optional[float] = None
        if error.retry_after is not None:
            try:
                delay = float(error.retry_after)
            except (TypeError, ValueError):
                delay = None
        if delay is None:
            delay = self.backoff * (2.0 ** (attempt - 1))
        delay = min(max(delay, 0.0), self.max_backoff)
        return delay * (1.0 + 0.25 * self._rng.random())

    def _call(self, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None,
              headers: Optional[Dict[str, str]] = None) -> Any:
        """One API call, with the bounded 429 retry loop when armed."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._call_once(method, path, payload=payload,
                                       headers=headers)
            except ServiceClientError as error:
                if error.status != 429 or attempt > self.max_retries:
                    error.attempts = attempt
                    if attempt > 1:
                        # Rebuild the message so it reports the count.
                        raise ServiceClientError(
                            error.status, error.body,
                            headers=error.headers,
                            attempts=attempt) from None
                    raise
                self._sleep(self._retry_delay(error, attempt))

    # -- the API --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/stats")

    def models(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/models")

    def metrics(self) -> str:
        """The raw Prometheus textfile from ``GET /v1/metrics``."""
        request = urllib.request.Request(self.base_url + "/v1/metrics")
        if self.token:
            request.add_header("Authorization", f"Bearer {self.token}")
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as reply:
                return reply.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise _client_error(error) from None

    def submit(self, model: str, method: str = "xici",
               params: Optional[Dict[str, int]] = None,
               bug: Optional[str] = None, assisted: bool = False,
               options: Optional[Options] = None, priority: int = 0,
               label: Optional[str] = None,
               request_id: Optional[str] = None) -> Dict[str, Any]:
        """POST one verification request; returns the job document."""
        payload: Dict[str, Any] = {
            "model": model, "method": method,
            "params": dict(params or {}), "assisted": assisted,
            "priority": priority,
        }
        if bug is not None:
            payload["bug"] = bug
        if options is not None:
            payload["options"] = options.to_dict()
        if label is not None:
            payload["label"] = label
        headers = {"X-Request-Id": request_id} if request_id else None
        return self._call("POST", "/v1/jobs", payload, headers=headers)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._call("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._call("DELETE", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0,
               follow: bool = False) -> Iterator[Dict[str, Any]]:
        """Yield the job's NDJSON events (streams until terminal when
        ``follow`` is set)."""
        return self._events(job_id, since, follow, self.timeout)

    def _events(self, job_id: str, since: int, follow: bool,
                timeout: float) -> Iterator[Dict[str, Any]]:
        path = f"/v1/jobs/{job_id}/events?since={since}" \
               + ("&follow=1" if follow else "")
        request = urllib.request.Request(self.base_url + path)
        if self.token:
            request.add_header("Authorization", f"Bearer {self.token}")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                for line in reply:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise _client_error(error) from None

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Follow the job's event stream to its terminal event, then
        return the job document (one ``GET /v1/jobs/{id}``).

        Raises :class:`TimeoutError` when the job is still live
        ``timeout`` seconds in, late by at most about a second: each
        stream is opened with a socket timeout that ends by the
        deadline, and is reopened after the last event read when a
        read could run more than a second past it.  A stream silent
        for the client's own ``timeout`` is reopened the same way.
        """
        deadline = time.monotonic() + timeout
        state, since = "queued", 0
        while state not in ("done", "failed", "cancelled"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {state!r} after {timeout:.0f}s")
            read_timeout = min(self.timeout, remaining)
            try:
                for event in self._events(job_id, since, True,
                                          read_timeout):
                    if "seq" in event:  # events_dropped lines have none
                        since = event["seq"] + 1
                    if event["kind"] == "state":
                        state = event["state"]
                    if deadline - time.monotonic() < read_timeout - 1.0:
                        break
            except socket.timeout:
                pass
            except urllib.error.URLError as error:
                if not isinstance(error.reason, socket.timeout):
                    raise
        return self.job(job_id)
