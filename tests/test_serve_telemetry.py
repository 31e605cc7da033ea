"""Service telemetry: metrics endpoint, request ids, access log, report.

Unit layers first (route keys, the thread-safe metrics facade, the
Prometheus parse round-trip, the access log, the ledger service
sidecar), then end-to-end over a real server: ``/v1/metrics``
auth-gating / content-type / exact-N accounting / monotonicity,
``X-Request-Id`` propagation HTTP -> job -> NDJSON events -> ledger,
per-job phase timing in job documents, event-drop surfacing in the
stream, ``?follow=1`` surviving a client disconnect, the client's
bounded 429 retry loop, and the metrics-off byte-identity contract.
"""

import io
import json
import socket
import time

import pytest

from repro.client import ServiceClient, ServiceClientError
from repro.obs import Histogram, MetricsRegistry, ledger, \
    parse_prometheus, to_prometheus
from repro.obs.exporters import PROM_CONTENT_TYPE
from repro.serve import (
    AccessLog, Job, JobEventLog, RequestError, ServerConfig,
    ServiceMetrics, VerificationServer, parse_request,
    render_service_report, route_key, valid_request_id,
)

FAST_JOB = dict(model="fifo", method="xici",
                params={"depth": 3, "width": 4}, bug="1")


def _start_server(**overrides):
    defaults = dict(port=0, workers=1, queue_limit=8, job_heartbeat=None)
    defaults.update(overrides)
    server = VerificationServer(ServerConfig(**defaults))
    server.start()
    return server


# ----------------------------------------------------------------------
# Unit: route vocabulary + metrics facade
# ----------------------------------------------------------------------

class TestRouteKey:
    @pytest.mark.parametrize("verb,path,key", [
        ("POST", "/v1/jobs", "submit"),
        ("GET", "/v1/jobs", "list_jobs"),
        ("GET", "/v1/jobs/abc123", "get_job"),
        ("GET", "/v1/jobs/abc123/events", "events"),
        ("DELETE", "/v1/jobs/abc123", "cancel"),
        ("GET", "/v1/healthz", "healthz"),
        ("GET", "/v1/stats", "stats"),
        ("GET", "/v1/metrics", "metrics"),
        ("GET", "/v1/models", "models"),
        ("GET", "/v1/methods", "methods"),
        ("GET", "/nope", "other"),
    ])
    def test_mapping(self, verb, path, key):
        assert route_key(verb, path) == key


class TestServiceMetrics:
    def test_observe_request_counts_and_times(self):
        metrics = ServiceMetrics()
        metrics.observe_request("submit", 202, 0.01)
        metrics.observe_request("submit", 429, 0.001)
        assert metrics.counter("http_requests_submit") == 2
        assert metrics.counter("http_status_2xx") == 1
        assert metrics.counter("http_status_4xx") == 1
        snap = metrics.snapshot()
        assert snap["histograms"]["http_request_seconds_submit"][
            "count"] == 2

    def test_disabled_is_all_noops(self):
        metrics = ServiceMetrics(enabled=False)
        metrics.inc("x")
        metrics.gauge("g", 1.0)
        metrics.observe_request("submit", 200, 0.1)
        assert metrics.counter("x") == 0
        assert metrics.snapshot() is None
        assert metrics.to_prometheus() == ""

    def test_prometheus_rendering_carries_totals(self):
        metrics = ServiceMetrics()
        metrics.inc("ledger_cache_hits", 3)
        text = metrics.to_prometheus()
        assert "repro_ledger_cache_hits_total 3" in text


class TestAccessLog:
    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog.open(str(path))
        assert log.enabled
        log.log({"request_id": "r1", "status": 200})
        log.log({"request_id": "r2", "status": 404})
        log.close()
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert [line["request_id"] for line in lines] == ["r1", "r2"]

    def test_disabled_sink_is_a_noop(self):
        log = AccessLog.open(None)
        assert not log.enabled
        log.log({"anything": 1})  # must not raise
        log.close()

    def test_stream_sink(self):
        stream = io.StringIO()
        log = AccessLog(stream)
        log.log({"a": 1})
        assert json.loads(stream.getvalue()) == {"a": 1}


# ----------------------------------------------------------------------
# Unit: histogram round-trip + prometheus parse
# ----------------------------------------------------------------------

class TestHistogramFromDict:
    def test_round_trips_as_dict(self):
        hist = Histogram((0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        clone = Histogram.from_dict(hist.as_dict())
        assert clone.as_dict() == hist.as_dict()

    def test_quantile_without_max_falls_back_to_last_edge(self):
        clone = Histogram.from_dict({
            "edges": [0.1, 1.0], "bucket_counts": [0, 0, 5],
            "count": 5, "sum": 10.0})
        assert clone.max is None
        assert clone.quantile(0.5) == 1.0

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            Histogram.from_dict({"edges": [1.0], "bucket_counts": [1]})


class TestParsePrometheus:
    def test_round_trips_a_registry(self):
        registry = MetricsRegistry()
        registry.inc("jobs_executed", 4)
        registry.gauge("queue_depth", 2.0)
        for value in (0.0002, 0.004, 0.09, 120.0):
            registry.observe_time("http_request_seconds_submit", value)
        parsed = parse_prometheus(to_prometheus(registry))
        assert parsed["counters"]["jobs_executed"] == 4
        assert parsed["gauges"]["queue_depth"] == 2.0
        hist = parsed["histograms"]["http_request_seconds_submit"]
        original = registry.histograms["http_request_seconds_submit"]
        assert hist["edges"] == list(original.edges)
        assert hist["bucket_counts"] == list(original.bucket_counts)
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(original.total)

    def test_quantiles_survive_the_round_trip(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.3):
            registry.observe_time("lat", value)
        parsed = parse_prometheus(to_prometheus(registry))
        clone = Histogram.from_dict(parsed["histograms"]["lat"])
        assert clone.quantile(0.5) == \
            registry.histograms["lat"].quantile(0.5)


# ----------------------------------------------------------------------
# Unit: the ops report
# ----------------------------------------------------------------------

class TestServeReport:
    def _sample_metrics(self):
        metrics = ServiceMetrics()
        for _ in range(8):
            metrics.observe_request("submit", 202, 0.002)
        metrics.observe_request("healthz", 200, 0.0004)
        metrics.inc("ledger_cache_hits", 3)
        metrics.inc("ledger_cache_misses", 1)
        metrics.inc("jobs_executed", 5)
        metrics.gauge("uptime_seconds", 100.0)
        metrics.gauge("queue_depth", 2.0)
        metrics.gauge("queue_limit", 16.0)
        metrics.gauge("workers_busy", 1.0)
        metrics.gauge("workers_alive", 2.0)
        metrics.observe_time("job_run_seconds", 0.5)
        metrics.observe_time("job_queue_wait_seconds", 0.01)
        return metrics

    def test_report_from_snapshot(self):
        report = render_service_report(self._sample_metrics().snapshot(),
                                       source="test")
        assert "# repro serve report" in report
        assert "9 total" in report
        assert "hit rate 75.0%" in report
        assert "| submit | 8 |" in report
        assert "## job phases" in report
        assert "queue 2/16" in report

    def test_report_from_prometheus_scrape(self):
        text = self._sample_metrics().to_prometheus()
        report = render_service_report(parse_prometheus(text))
        assert "| submit | 8 |" in report
        assert "0.09 req/s" in report

    def test_report_tolerates_empty_data(self):
        report = render_service_report({})
        assert "0 total" in report

    def test_cli_serve_report_renders_a_prom_file(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        path = tmp_path / "scrape.prom"
        path.write_text(self._sample_metrics().to_prometheus())
        assert main(["serve-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# repro serve report" in out
        assert "| submit | 8 |" in out


# ----------------------------------------------------------------------
# Unit: request ids in schema, events, ledger
# ----------------------------------------------------------------------

class TestRequestIdSchema:
    def test_valid_ids(self):
        assert valid_request_id("abc-123.X_z")
        assert not valid_request_id("")
        assert not valid_request_id("has space")
        assert not valid_request_id("x" * 129)
        assert not valid_request_id(42)

    def test_parse_request_accepts_and_round_trips(self):
        request = parse_request({"model": "fifo",
                                 "request_id": "trace-me-1"})
        assert request.request_id == "trace-me-1"
        assert request.to_dict()["request_id"] == "trace-me-1"
        # ids never perturb the cache key
        bare = parse_request({"model": "fifo"})
        assert request.request_hash() == bare.request_hash()
        assert "request_id" not in bare.to_dict()

    def test_parse_request_rejects_malformed_id(self):
        with pytest.raises(RequestError) as excinfo:
            parse_request({"model": "fifo", "request_id": "no way"})
        assert excinfo.value.code == "bad_request_id"

    def test_job_stamps_request_id_on_every_event(self):
        job = Job(parse_request({"model": "fifo"}), request_id="rid-7")
        job.events.append("submitted")
        job.mark_running()
        events = job.events.snapshot()
        assert events
        assert all(event["request_id"] == "rid-7" for event in events)
        assert job.snapshot()["request_id"] == "rid-7"

    def test_generated_id_when_none_supplied(self):
        job = Job(parse_request({"model": "fifo"}))
        assert valid_request_id(job.request_id)


class TestLedgerServiceSidecar:
    def test_record_and_load_service(self, tmp_path):
        class FakeResult:
            model = "fifo"
            method = "xici"

            def to_dict(self, **_kwargs):
                return {"outcome": "verified"}

        run_id = ledger.record_run(tmp_path, FakeResult())
        path = ledger.record_service(tmp_path, run_id, {
            "request_id": "rid-1", "job_id": "j1",
            "phases": {"run": 0.5}})
        assert path.name == "service.json"
        doc = ledger.load_service(tmp_path, run_id)
        assert doc["request_id"] == "rid-1"
        assert doc["phases"] == {"run": 0.5}
        assert doc["kind"] == "service"
        # the sidecar must not change the content address
        assert ledger.run_id_of(ledger.load_run(tmp_path, run_id)[1]) \
            == run_id

    def test_record_service_requires_the_run(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ledger.record_service(tmp_path, "nope", {})

    def test_load_service_none_when_absent(self, tmp_path):
        assert ledger.load_service(tmp_path, "nope") is None

    def test_record_request_keeps_request_id(self, tmp_path):
        class FakeResult:
            model = "fifo"
            method = "xici"

            def to_dict(self, **_kwargs):
                return {"outcome": "verified"}

        run_id = ledger.record_run(tmp_path, FakeResult())
        ledger.record_request(tmp_path, "a" * 64, run_id,
                              request_id="rid-9")
        entry = ledger.load_request(tmp_path, "a" * 64)
        assert entry["request_id"] == "rid-9"
        assert ledger.lookup_request(tmp_path, "a" * 64) == run_id


# ----------------------------------------------------------------------
# Unit: the client retry loop (fake transport, fake sleep)
# ----------------------------------------------------------------------

class TestClientRetry:
    def _client(self, responses, max_retries):
        sleeps = []
        client = ServiceClient("http://test", max_retries=max_retries,
                               backoff=0.25, sleep=sleeps.append)
        calls = {"n": 0}

        def fake_call_once(method, path, payload=None, headers=None):
            calls["n"] += 1
            outcome = responses[min(calls["n"] - 1,
                                    len(responses) - 1)]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._call_once = fake_call_once
        return client, sleeps, calls

    @staticmethod
    def _throttled(retry_after=None):
        body = {"error": {"code": "rate_limited", "message": "slow down"}}
        if retry_after is not None:
            body["error"]["retry_after"] = retry_after
        return ServiceClientError(429, body)

    def test_retries_then_succeeds(self):
        client, sleeps, calls = self._client(
            [self._throttled(), self._throttled(), {"ok": True}],
            max_retries=3)
        assert client._call("POST", "/v1/jobs", {}) == {"ok": True}
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_honors_retry_after_with_bounded_jitter(self):
        client, sleeps, _ = self._client(
            [self._throttled(retry_after=2.0), {"ok": True}],
            max_retries=1)
        client._call("POST", "/v1/jobs", {})
        assert 2.0 <= sleeps[0] <= 2.5  # Retry-After + <=25% jitter

    def test_exhausted_budget_surfaces_attempts(self):
        client, sleeps, calls = self._client(
            [self._throttled()], max_retries=2)
        with pytest.raises(ServiceClientError) as excinfo:
            client._call("POST", "/v1/jobs", {})
        assert excinfo.value.attempts == 3
        assert "after 3 attempts" in str(excinfo.value)
        assert calls["n"] == 3

    def test_default_is_fail_fast(self):
        client, sleeps, calls = self._client(
            [self._throttled()], max_retries=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client._call("POST", "/v1/jobs", {})
        assert excinfo.value.attempts == 1
        assert calls["n"] == 1
        assert sleeps == []

    def test_non_429_never_retries(self):
        client, sleeps, calls = self._client(
            [ServiceClientError(401, {"error": {"code": "unauthorized",
                                                "message": "no"}})],
            max_retries=5)
        with pytest.raises(ServiceClientError):
            client._call("GET", "/v1/jobs")
        assert calls["n"] == 1


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_auth_gated_content_type_and_exact_counts(self, tmp_path):
        server = _start_server(tokens=("tok",), ledger_dir=str(tmp_path))
        try:
            anon = ServiceClient(server.url)
            with pytest.raises(ServiceClientError) as excinfo:
                anon.metrics()
            assert excinfo.value.status == 401

            client = ServiceClient(server.url, token="tok")
            for _ in range(3):
                client.health()
            client.wait(client.submit(**FAST_JOB)["id"], timeout=60)
            client.wait(client.submit(**FAST_JOB)["id"], timeout=60)

            import urllib.request
            request = urllib.request.Request(server.url + "/v1/metrics")
            request.add_header("Authorization", "Bearer tok")
            with urllib.request.urlopen(request, timeout=10) as reply:
                assert reply.headers["Content-Type"] == PROM_CONTENT_TYPE
                text = reply.read().decode("utf-8")

            parsed = parse_prometheus(text)
            counters = parsed["counters"]
            # exactly N observations per endpoint, scrape not included
            assert counters["http_requests_healthz"] == 3
            assert counters["http_requests_submit"] == 2
            # the anon 401 above was a metrics-route request; this
            # authed scrape itself is not yet visible
            assert counters["http_requests_metrics"] == 1
            assert counters["auth_failures"] == 1
            assert counters["ledger_cache_hits"] == 1
            assert counters["ledger_cache_misses"] == 1
            assert counters["jobs_executed"] == 1
            hist = parsed["histograms"]["http_request_seconds_submit"]
            assert hist["count"] == 2
            assert sum(hist["bucket_counts"]) == 2

            # monotonic: another request only moves counters up
            client.health()
            second = parse_prometheus(client.metrics())
            assert second["counters"]["http_requests_healthz"] == 4
            assert second["counters"]["http_requests_submit"] == 2
            # the first scrape is now visible (observed post-response)
            assert second["counters"]["http_requests_metrics"] == 2
            assert "uptime_seconds" in second["gauges"]
            assert second["gauges"]["queue_limit"] == 8.0
        finally:
            server.stop()

    def test_metrics_disabled_answers_404(self):
        server = _start_server(metrics=False)
        try:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.metrics()
            assert excinfo.value.status == 404
            assert excinfo.value.code == "metrics_disabled"
            health = client.health()
            assert health["metrics_enabled"] is False
        finally:
            server.stop()

    def test_stats_endpoint_folds_in_the_snapshot(self):
        server = _start_server()
        try:
            client = ServiceClient(server.url)
            client.health()
            stats = client.stats()
            assert stats["status"] == "ok"
            assert stats["metrics"]["counters"][
                "http_requests_healthz"] == 1
        finally:
            server.stop()

    def test_healthz_reports_versions_and_uptime(self):
        from repro.core.options import OPTIONS_SCHEMA_VERSION
        from repro.serve import REQUEST_SCHEMA_VERSION
        server = _start_server()
        try:
            health = ServiceClient(server.url).health()
            assert health["request_schema_version"] \
                == REQUEST_SCHEMA_VERSION
            assert health["options_schema_version"] \
                == OPTIONS_SCHEMA_VERSION
            assert "kernel" not in health and "apply" not in health
            assert health["uptime_seconds"] >= 0
            assert health["workers_busy"] == 0
        finally:
            server.stop()


class TestRequestIdEndToEnd:
    def test_header_propagates_to_job_events_and_ledger(self, tmp_path):
        server = _start_server(ledger_dir=str(tmp_path))
        try:
            client = ServiceClient(server.url)
            job = client.submit(request_id="trace-abc-1", **FAST_JOB)
            assert job["request_id"] == "trace-abc-1"
            done = client.wait(job["id"], timeout=60)
            assert done["request_id"] == "trace-abc-1"

            # echoed on the response header
            import urllib.request
            request = urllib.request.Request(
                server.url + f"/v1/jobs/{job['id']}")
            request.add_header("X-Request-Id", "poll-xyz")
            with urllib.request.urlopen(request, timeout=10) as reply:
                assert reply.headers["X-Request-Id"] == "poll-xyz"

            # stamped on every NDJSON event line
            events = list(client.events(job["id"]))
            assert events
            assert all(event["request_id"] == "trace-abc-1"
                       for event in events)

            # archived: request index and the service sidecar
            entry = ledger.load_request(tmp_path, done["request_hash"])
            assert entry["request_id"] == "trace-abc-1"
            sidecar = ledger.load_service(tmp_path, done["run_id"])
            assert sidecar["request_id"] == "trace-abc-1"
            assert sidecar["job_id"] == job["id"]
            assert sidecar["request_hash"] == done["request_hash"]
            assert sidecar["phases"]["run"] > 0
        finally:
            server.stop()

    def test_server_generates_an_id_when_none_sent(self):
        server = _start_server()
        try:
            client = ServiceClient(server.url)
            job = client.submit(**FAST_JOB)
            assert valid_request_id(job["request_id"])
            client.wait(job["id"], timeout=60)
        finally:
            server.stop()

    def test_body_request_id_wins_over_header(self):
        server = _start_server()
        try:
            import urllib.request
            payload = dict(FAST_JOB)
            payload["params"] = dict(payload["params"])
            payload["request_id"] = "body-id"
            request = urllib.request.Request(
                server.url + "/v1/jobs",
                data=json.dumps(payload).encode("utf-8"),
                method="POST")
            request.add_header("Content-Type", "application/json")
            request.add_header("X-Request-Id", "header-id")
            with urllib.request.urlopen(request, timeout=10) as reply:
                doc = json.loads(reply.read().decode("utf-8"))
                assert doc["request_id"] == "body-id"
                # the transport echo is still the header's id
                assert reply.headers["X-Request-Id"] == "header-id"
            ServiceClient(server.url).wait(doc["id"], timeout=60)
        finally:
            server.stop()


class TestJobPhaseTelemetry:
    def test_job_document_carries_timing_fields(self, tmp_path):
        server = _start_server(ledger_dir=str(tmp_path))
        try:
            client = ServiceClient(server.url)
            done = client.wait(client.submit(**FAST_JOB)["id"],
                               timeout=60)
            assert done["queue_wait_seconds"] >= 0
            assert done["run_seconds"] > 0
            phases = done["phases"]
            assert phases["queue_wait"] >= 0
            for name in ("cache_probe", "build", "run", "archive"):
                assert name in phases
            # the cached replay records a probe but no build/run
            replay = client.wait(client.submit(**FAST_JOB)["id"],
                                 timeout=60)
            assert replay["cached"]
            assert "cache_probe" in replay["phases"]
            assert "build" not in replay["phases"]
        finally:
            server.stop()

    def test_access_log_records_requests(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        server = _start_server(access_log=str(log_path))
        try:
            client = ServiceClient(server.url)
            job = client.submit(request_id="logged-1", **FAST_JOB)
            client.wait(job["id"], timeout=60)
        finally:
            server.stop()
        records = [json.loads(line) for line in
                   log_path.read_text().splitlines()]
        submits = [r for r in records if r["route"] == "submit"]
        assert len(submits) == 1
        assert submits[0]["request_id"] == "logged-1"
        assert submits[0]["status"] == 202
        assert submits[0]["job_id"] == job["id"]
        assert submits[0]["seconds"] >= 0
        # wait() follows the event stream, then fetches the job once.
        assert [(r["route"], r["status"]) for r in records] == [
            ("submit", 202), ("events", 200), ("get_job", 200)]
        assert all(r["job_id"] == job["id"] for r in records)

    def test_metrics_off_results_identical_modulo_wall_clock(self):
        metered = _start_server(metrics=True)
        bare = _start_server(metrics=False)
        try:
            first = ServiceClient(metered.url)
            second = ServiceClient(bare.url)
            result_a = first.wait(first.submit(**FAST_JOB)["id"],
                                  timeout=60)["result"]
            result_b = second.wait(second.submit(**FAST_JOB)["id"],
                                   timeout=60)["result"]
            for doc in (result_a, result_b):
                assert "metrics" not in doc  # service metrics never leak
                doc.pop("elapsed_seconds")
                doc.pop("time")
            assert result_a == result_b
        finally:
            metered.stop()
            bare.stop()


class TestEventStreamRobustness:
    def test_dropped_count_surfaces_in_stream_and_status(self):
        server = _start_server()
        try:
            client = ServiceClient(server.url)
            job_doc = client.submit(**FAST_JOB)
            client.wait(job_doc["id"], timeout=60)
            job = server.service.job(job_doc["id"])
            # Shrink the buffer and overflow it.
            job.events._max = 8
            for index in range(32):
                job.events.append("trace", event="synthetic",
                                  index=index)
            assert job.events.dropped > 0
            events = list(client.events(job_doc["id"]))
            drop_lines = [e for e in events
                          if e["kind"] == "events_dropped"]
            assert drop_lines
            assert drop_lines[0]["dropped"] == job.events.dropped
            assert drop_lines[0]["request_id"] == job.request_id
            assert client.job(job_doc["id"])["events_dropped"] \
                == job.events.dropped
        finally:
            server.stop()

    def test_follow_stream_survives_client_disconnect(self, tmp_path):
        from repro import Options
        server = _start_server(queue_limit=4)
        client = ServiceClient(server.url)
        try:
            slow = client.submit(
                "pipeline", method="ici", params={"regs": 2, "bits": 1},
                options=Options(heartbeat=0.05), label="slow")
            deadline = time.monotonic() + 30
            while client.job(slow["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.02)

            # Open a follow stream raw, read a bit, then hang up.
            sock = socket.create_connection(
                (server.host, server.port), timeout=10)
            sock.sendall(
                (f"GET /v1/jobs/{slow['id']}/events?follow=1 "
                 f"HTTP/1.1\r\nHost: {server.host}\r\n\r\n"
                 ).encode("ascii"))
            assert sock.recv(4096)  # headers + first bytes arrived
            sock.close()

            # The server must keep serving after the disconnect.
            time.sleep(0.2)
            assert client.health()["status"] == "ok"
            fast = client.submit(**FAST_JOB)
            cancel = client.cancel(slow["id"])
            assert cancel["cancelled"]
            assert client.wait(slow["id"], timeout=60)["state"] \
                == "cancelled"
            assert client.wait(fast["id"], timeout=60)["state"] == "done"
        finally:
            server.stop()
        workers = [t for t in __import__("threading").enumerate()
                   if t.name.startswith("repro-serve-worker")]
        assert all(not t.is_alive() for t in workers)
