"""The verification job server, unit to end-to-end.

Unit layers first (auth, rate limiting, queue, event log, request
parsing — no sockets), then full-stack tests over a real
ThreadingHTTPServer on an ephemeral port driven through
:class:`repro.client.ServiceClient`: auth rejection, rate-limit and
queue-full backpressure (429 + Retry-After), the ledger-backed
request cache (one engine execution for two identical requests),
streamed heartbeat events, and cooperative mid-run cancellation
through the engines' budget hooks (pipeline/ici unassisted is the
workload — the paper's Table 3 shows it does not converge, so it
reliably outlives the test's cancel).
"""

import json
import sys
import threading
import time

import pytest

from repro import Options
from repro.client import ServiceClient, ServiceClientError
from repro.obs import ledger
from repro.serve import (
    Authenticator, Job, JobEventLog, JobQueue, JobState, QueueFullError,
    RateLimiter, RequestError, RetentionPolicy, ServerConfig,
    ServiceError, TokenBucket, VerificationServer, VerificationService,
    parse_request, tokens_from_env,
)


# ----------------------------------------------------------------------
# Unit: auth
# ----------------------------------------------------------------------

class TestAuth:
    def test_open_mode_without_tokens(self):
        auth = Authenticator(())
        assert not auth.enabled
        assert auth.authenticate(None) == "anonymous"
        assert auth.authenticate("Bearer whatever") == "anonymous"

    def test_valid_token_is_the_principal(self):
        auth = Authenticator(("s3cret",))
        assert auth.enabled
        assert auth.authenticate("Bearer s3cret") == "s3cret"

    @pytest.mark.parametrize("header", [
        None, "", "Bearer", "Bearer ", "Bearer wrong",
        "Basic s3cret", "s3cret",
    ])
    def test_bad_credentials_rejected(self, header):
        assert Authenticator(("s3cret",)).authenticate(header) is None

    def test_tokens_from_env(self):
        environ = {"REPRO_SERVE_TOKENS": "a, b ,,c"}
        assert tokens_from_env(environ) == ["a", "b", "c"]
        assert tokens_from_env({}) == []


# ----------------------------------------------------------------------
# Unit: rate limiting (fake clock — no sleeps)
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRateLimiter:
    def test_burst_then_refusal_with_exact_retry(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.acquire() == (True, 0.0)
        assert bucket.acquire() == (True, 0.0)
        ok, retry = bucket.acquire()
        assert not ok
        assert retry == pytest.approx(0.5)  # 1 token at 2/s
        clock.now += 0.5
        assert bucket.acquire()[0]

    def test_bucket_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.now += 1000.0
        grants = sum(bucket.acquire()[0] for _ in range(10))
        assert grants == 3

    def test_principals_have_independent_buckets(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.check("alice")[0]
        assert not limiter.check("alice")[0]
        assert limiter.check("bob")[0]

    def test_disabled_limiter_always_passes(self):
        limiter = RateLimiter(rate=None)
        assert not limiter.enabled
        assert all(limiter.check("x")[0] for _ in range(1000))


# ----------------------------------------------------------------------
# Unit: queue + event log
# ----------------------------------------------------------------------

def _job(priority=0):
    return Job(parse_request({"model": "fifo"}), priority=priority)


def _finished(state=JobState.DONE, at=None):
    job = _job()
    job.finish(state, **{})
    if at is not None:
        job.finished_at = at
    return job


class TestRetentionPolicy:
    def test_count_bound_retires_oldest_first(self):
        jobs = [_finished() for _ in range(5)]
        policy = RetentionPolicy(max_finished=3, ttl=None)
        assert policy.retire(jobs) == jobs[:2]

    def test_ttl_retires_only_aged_jobs(self):
        now = 1000.0
        fresh = _finished(at=now - 1.0)
        stale = _finished(at=now - 60.0)
        policy = RetentionPolicy(max_finished=None, ttl=30.0)
        assert policy.retire([stale, fresh], now=now) == [stale]

    def test_live_jobs_are_never_retired(self):
        queued = _job()
        running = _job()
        running.mark_running()
        done = _finished(at=0.0)
        policy = RetentionPolicy(max_finished=0, ttl=1.0)
        retired = policy.retire([queued, running, done], now=1e9)
        assert retired == [done]

    def test_ttl_then_count_compose(self):
        now = 1000.0
        stale = _finished(at=now - 60.0)
        kept = [_finished(at=now - 1.0) for _ in range(3)]
        policy = RetentionPolicy(max_finished=2, ttl=30.0)
        # TTL takes the stale one; the count bound trims the oldest
        # survivor.
        assert policy.retire([stale] + kept, now=now) \
            == [stale, kept[0]]

    def test_disabled_policy_retires_nothing(self):
        policy = RetentionPolicy(max_finished=None, ttl=None)
        assert policy.retire([_finished(at=0.0)], now=1e9) == []

    @pytest.mark.parametrize("kwargs", [
        {"max_finished": -1}, {"ttl": 0.0}, {"ttl": -5.0},
    ])
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetentionPolicy(**kwargs)

    def test_service_retires_on_list_and_reports_in_stats(self):
        service = VerificationService(ServerConfig(
            queue_limit=8, max_finished_jobs=1, job_ttl=None))
        # Never start the pool: drain the queue by hand and finish the
        # jobs so retention sees terminal history without running
        # engines.
        jobs = [service.submit({"model": "fifo"}, "anonymous")
                for _ in range(3)]
        for job in jobs:
            service.queue.get(timeout=1.0)
            job.finish(JobState.DONE)
        listed = service.list_jobs()
        assert [doc["id"] for doc in listed] == [jobs[-1].id]
        stats = service.stats()
        assert stats["retention"] == {"max_finished_jobs": 1,
                                      "job_ttl": None}
        assert stats["jobs_by_state"] == {"done": 1}

    def test_service_ttl_expiry_visible_on_idle_reads(self):
        service = VerificationService(ServerConfig(
            queue_limit=8, max_finished_jobs=None, job_ttl=10.0))
        job = service.submit({"model": "fifo"}, "anonymous")
        service.queue.get(timeout=1.0)
        job.finish(JobState.DONE)
        assert len(service.list_jobs()) == 1  # fresh: retained
        job.finished_at = time.time() - 60.0  # age it past the TTL
        assert service.list_jobs() == []
        with pytest.raises(ServiceError) as excinfo:
            service.job(job.id)
        assert excinfo.value.status == 404


class TestJobQueue:
    def test_priority_then_fifo_order(self):
        queue = JobQueue(limit=8)
        first_high = _job(priority=1)
        low = _job(priority=0)
        second_high = _job(priority=1)
        for job in (first_high, low, second_high):
            queue.put(job)
        assert queue.get() is low
        assert queue.get() is first_high
        assert queue.get() is second_high

    def test_bounded_queue_refuses_overflow(self):
        queue = JobQueue(limit=2)
        queue.put(_job())
        queue.put(_job())
        with pytest.raises(QueueFullError):
            queue.put(_job())

    def test_close_wakes_getters(self):
        queue = JobQueue(limit=2)
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(queue.get()))
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen == [None]


class TestJobEventLog:
    def test_append_and_snapshot_since(self):
        log = JobEventLog()
        log.append("a")
        log.append("b", detail=1)
        events = log.snapshot()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert log.snapshot(since_seq=events[-1]["seq"] + 1) == []

    def test_bounded_with_drop_middle(self):
        log = JobEventLog(max_events=16)
        for index in range(100):
            log.append("e", index=index)
        events = log.snapshot()
        assert len(events) == 16
        indices = [e["index"] for e in events]
        assert indices[:4] == [0, 1, 2, 3]   # head survives
        assert indices[-1] == 99             # tail survives
        assert log.dropped == 84

    def test_write_stream_protocol_makes_heartbeat_events(self):
        log = JobEventLog()
        log.write("iter 3 | nodes")
        assert log.snapshot() == []          # incomplete line buffered
        log.write(" 1200\npartial")
        log.flush()
        events = log.snapshot()
        assert len(events) == 1
        assert events[0]["kind"] == "heartbeat"
        assert events[0]["line"] == "iter 3 | nodes 1200"

    def test_follower_wakes_when_an_event_is_appended(self):
        log = JobEventLog()
        log.append("submitted")
        results = []
        follower = threading.Thread(
            target=lambda: results.append(log.follow(since_seq=1)),
            daemon=True)
        follower.start()
        log.append("state", state=JobState.RUNNING)
        follower.join(timeout=10)
        assert not follower.is_alive()
        [(batch, closed)] = results
        assert [event["kind"] for event in batch] == ["state"]
        assert batch[0]["seq"] == 1
        assert not closed

    def test_follower_never_sees_closed_without_the_terminal_event(self):
        job = _job()
        seen, closing_batches = [], []

        def follow():
            seq = 0
            while True:
                batch, closed = job.events.follow(seq)
                seen.extend(batch)
                if batch:
                    seq = batch[-1]["seq"] + 1
                if closed:
                    closing_batches.append(batch)
                    return

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        canceller = threading.Thread(target=job.cancel)
        for index in range(50):
            job.events.append("trace", event="synthetic", index=index)
        canceller.start()
        job.finish(JobState.DONE, outcome="verified")
        canceller.join(timeout=10)
        follower.join(timeout=10)
        assert not follower.is_alive()
        [batch] = closing_batches
        assert batch[-1]["kind"] == "state"
        assert batch[-1]["state"] == JobState.DONE
        assert seen == job.events.snapshot()   # nothing after it

    def test_followers_see_every_event_under_contention(self):
        log = JobEventLog()
        appenders, per_appender = 4, 200
        seen = {}

        def follow(name):
            seq, events = 0, []
            while True:
                batch, closed = log.follow(seq)
                events.extend(batch)
                if batch:
                    seq = batch[-1]["seq"] + 1
                if closed:
                    seen[name] = events
                    return

        def append(name):
            for index in range(per_appender):
                log.append("trace", event=name, index=index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            followers = [threading.Thread(target=follow, args=(i,),
                                          daemon=True) for i in range(4)]
            writers = [threading.Thread(target=append, args=(i,))
                       for i in range(appenders)]
            for thread in followers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=30)
            log.close("state", state=JobState.DONE)
            for thread in followers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in followers + writers)
        total = appenders * per_appender + 1
        for events in seen.values():
            assert [event["seq"] for event in events] == list(range(total))
            assert events[-1]["state"] == JobState.DONE
        assert len(seen) == 4

    def test_cancel_cannot_land_after_the_terminal_event(self):
        """A finish racing a cancel waits for the cancel's event."""
        job = _job()
        append = job.events.append
        finisher = threading.Thread(
            target=job.finish, args=(JobState.DONE,), daemon=True)

        def append_racing_finish(kind, **fields):
            if kind == "cancel_requested":
                finisher.start()
                finisher.join(timeout=0.2)
            append(kind, **fields)

        job.events.append = append_racing_finish
        assert job.cancel()
        finisher.join(timeout=10)
        kinds = [event["kind"] for event in job.events.snapshot()]
        assert kinds == ["cancel_requested", "state"]


# ----------------------------------------------------------------------
# Unit: request parsing
# ----------------------------------------------------------------------

class TestParseRequest:
    def test_minimal_request(self):
        request = parse_request({"model": "fifo"})
        assert request.method == "xici"
        assert request.options == Options()
        assert len(request.request_hash()) == 64

    def test_round_trips_through_to_dict(self):
        request = parse_request({
            "model": "fifo", "method": "fwd",
            "params": {"depth": 3, "width": 4}, "bug": "overflow",
            "assisted": False, "priority": 2, "label": "x",
            "options": {"evaluator": "matching"}})
        again = parse_request(request.to_dict())
        assert again == request
        assert again.request_hash() == request.request_hash()

    @pytest.mark.parametrize("document,code", [
        ("not an object", "bad_request"),
        ({"model": "fifo", "bogus": 1}, "unknown_field"),
        ({"model": "fifo", "schema_version": 9}, "bad_schema_version"),
        ({}, "bad_model"),
        ({"model": "nosuch"}, "unknown_model"),
        ({"model": "fifo", "method": "magic"}, "unknown_method"),
        ({"model": "fifo", "params": {"procs": 2}}, "unknown_param"),
        ({"model": "fifo", "params": {"depth": "four"}}, "bad_param"),
        ({"model": "fifo", "params": {"depth": True}}, "bad_param"),
        ({"model": "fifo", "bug": 7}, "bad_bug"),
        ({"model": "fifo", "assisted": "yes"}, "bad_assisted"),
        ({"model": "fifo", "options": {"kernel": "gpu"}}, "bad_options"),
        ({"model": "fifo", "options": {"tracer": None}}, "bad_options"),
        ({"model": "fifo", "priority": 1.5}, "bad_priority"),
        ({"model": "fifo", "label": 0}, "bad_label"),
    ])
    def test_malformed_requests_raise_structured_errors(self, document,
                                                        code):
        with pytest.raises(RequestError) as excinfo:
            parse_request(document)
        assert excinfo.value.code == code
        assert "message" in excinfo.value.to_dict()


# ----------------------------------------------------------------------
# Service level (no sockets, no workers: deterministic queue behavior)
# ----------------------------------------------------------------------

class TestServiceLevel:
    def test_queue_full_is_429_with_jobs_forgotten(self):
        service = VerificationService(ServerConfig(queue_limit=1))
        service.submit({"model": "fifo"}, "anonymous")
        with pytest.raises(ServiceError) as excinfo:
            service.submit({"model": "fifo"}, "anonymous")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "queue_full"
        assert "Retry-After" in excinfo.value.headers
        assert len(service.list_jobs()) == 1  # refused job not kept

    def test_cancel_queued_job_never_runs(self):
        service = VerificationService(ServerConfig(queue_limit=4))
        job = service.submit({"model": "fifo"}, "anonymous")
        assert service.cancel(job.id)["cancelled"]
        service.start()
        try:
            deadline = time.monotonic() + 10
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert job.state == JobState.CANCELLED
            assert job.result is None
        finally:
            service.stop()

    def test_bad_request_is_400_not_traceback(self):
        service = VerificationService(ServerConfig())
        with pytest.raises(ServiceError) as excinfo:
            service.submit({"model": "fifo", "params": {"depth": "x"}},
                           "anonymous")
        assert excinfo.value.status == 400
        body = excinfo.value.body()
        assert body["error"]["code"] == "bad_param"


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------

def _start_server(**overrides):
    defaults = dict(port=0, workers=1, queue_limit=8, job_heartbeat=None)
    defaults.update(overrides)
    server = VerificationServer(ServerConfig(**defaults))
    server.start()
    return server


FAST_JOB = dict(model="fifo", method="xici",
                params={"depth": 3, "width": 4}, bug="1")


class TestServerEndToEnd:
    def test_auth_rejects_and_accepts(self):
        server = _start_server(tokens=("good",))
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(server.url).submit(**FAST_JOB)
            assert excinfo.value.status == 401
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(server.url, token="bad").jobs()
            assert excinfo.value.status == 401
            client = ServiceClient(server.url, token="good")
            assert client.health()["status"] == "ok"  # healthz is open
            job = client.submit(**FAST_JOB)
            assert client.wait(job["id"], timeout=60)["state"] == "done"
        finally:
            server.stop()

    def test_rate_limit_answers_429_with_retry_after(self):
        server = _start_server(rate=0.001, burst=1.0)
        try:
            client = ServiceClient(server.url)
            client.submit(**FAST_JOB)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(**FAST_JOB)
            error = excinfo.value
            assert error.status == 429
            assert error.code == "rate_limited"
            assert float(error.retry_after) > 0
            assert "Retry-After" in error.headers
        finally:
            server.stop()

    def test_cache_hit_on_identical_request(self, tmp_path):
        server = _start_server(ledger_dir=str(tmp_path))
        try:
            client = ServiceClient(server.url)
            first = client.wait(client.submit(**FAST_JOB)["id"],
                                timeout=60)
            second = client.wait(client.submit(**FAST_JOB)["id"],
                                 timeout=60)
            assert first["state"] == second["state"] == "done"
            assert not first["cached"]
            assert second["cached"]
            assert second["request_hash"] == first["request_hash"]
            assert second["run_id"] == first["run_id"]
            assert second["result"] == first["result"]
            stats = client.health()
            assert stats["jobs_executed"] == 1  # one engine run, ever
            assert stats["cache_hits"] == 1
            # The ledger holds one archived run + its request index.
            assert len(ledger.list_runs(str(tmp_path))) == 1
            assert ledger.lookup_request(
                str(tmp_path), first["request_hash"]) == first["run_id"]
            # A different request misses the cache.
            other = client.submit(model="fifo", method="fwd",
                                  params={"depth": 3, "width": 4},
                                  bug="1")
            assert not client.wait(other["id"], timeout=60)["cached"]
        finally:
            server.stop()

    def test_events_stream_parses_and_supports_since(self):
        server = _start_server()
        try:
            client = ServiceClient(server.url)
            job = client.submit(**FAST_JOB)
            client.wait(job["id"], timeout=60)
            events = list(client.events(job["id"], follow=True))
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "submitted"
            assert "state" in kinds
            assert kinds.count("state") >= 2  # running + terminal
            sequences = [event["seq"] for event in events]
            assert sequences == sorted(sequences)
            tail = list(client.events(job["id"],
                                      since=sequences[-1] + 1))
            assert tail == []
        finally:
            server.stop()

    def test_time_limit_job_streams_budget_checks(self):
        # budget_check carries its own ``kind`` field; it must not
        # collide with the event log's ``kind`` and kill the job.
        server = _start_server()
        try:
            client = ServiceClient(server.url)
            job = client.submit("fifo", method="xici",
                                params={"depth": 3, "width": 4},
                                options=Options(time_limit=60))
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done", done.get("error")
            assert done["result"]["outcome"] == "verified"
            checks = [event for event in client.events(job["id"])
                      if event["kind"] == "trace"
                      and event["event"] == "budget_check"]
            assert checks
            assert all(event["trace_kind"] == "time" for event in checks)
        finally:
            server.stop()

    def test_malformed_http_requests_get_structured_400s(self):
        server = _start_server()
        try:
            import urllib.error
            import urllib.request
            request = urllib.request.Request(
                server.url + "/v1/jobs", data=b"{not json",
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["error"]["code"] == "bad_json"
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(server.url).submit("fifo",
                                                 params={"depth": "x"})
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_param"
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(server.url).job("nope")
            assert excinfo.value.status == 404
        finally:
            server.stop()


class TestJobCompletion:
    """A terminal job is announced once, last, and complete."""

    def test_follow_stream_ends_with_the_terminal_event(
            self, tmp_path, monkeypatch):
        # Slow the terminal append down: a follower that decided the
        # job was over from anything but the log would end without it.
        append = JobEventLog.append

        def slow_terminal_append(log, kind, **fields):
            if kind == "state" and fields.get("state") \
                    in JobState.TERMINAL:
                time.sleep(0.2)
            append(log, kind, **fields)

        monkeypatch.setattr(JobEventLog, "append", slow_terminal_append)
        server = _start_server(ledger_dir=str(tmp_path))
        try:
            client = ServiceClient(server.url)
            for cached in (False, True):
                job = client.submit(**FAST_JOB)
                events = list(client.events(job["id"], follow=True))
                last = events[-1]
                assert (last["kind"], last.get("state"),
                        last.get("cached")) == ("state", "done", cached)
        finally:
            server.stop()

    def test_terminal_job_holds_its_telemetry(self, tmp_path,
                                              monkeypatch):
        seen = {}
        finish = Job.finish

        def recording_finish(job, state, **fields):
            sidecar = (None if job.cached else
                       ledger.load_service(str(tmp_path), job.run_id))
            seen[job.id] = (sorted(job.phases), sidecar)
            finish(job, state, **fields)

        monkeypatch.setattr(Job, "finish", recording_finish)
        server = _start_server(ledger_dir=str(tmp_path))
        try:
            client = ServiceClient(server.url)
            miss = client.wait(client.submit(**FAST_JOB)["id"],
                               timeout=60)
            hit = client.wait(client.submit(**FAST_JOB)["id"],
                              timeout=60)
        finally:
            server.stop()
        phases, sidecar = seen[miss["id"]]
        assert phases == sorted(["queue_wait", "cache_probe", "build",
                                 "run", "archive"])
        assert sidecar["job_id"] == miss["id"]
        assert sorted(sidecar["phases"]) == phases
        assert seen[hit["id"]] == (["cache_probe", "queue_wait"], None)
        assert hit["cached"]

    def test_wait_fetches_the_job_once(self, monkeypatch):
        # Hold the job in the queue a while, so wait() meets it live.
        mark_running = Job.mark_running

        def late_mark_running(job):
            time.sleep(0.3)
            mark_running(job)

        monkeypatch.setattr(Job, "mark_running", late_mark_running)
        server = _start_server()
        try:
            client = ServiceClient(server.url)
            job = client.submit(**FAST_JOB)
            calls = []
            call_once = client._call_once

            def recording_call_once(method, path, **kwargs):
                calls.append((method, path))
                return call_once(method, path, **kwargs)

            client._call_once = recording_call_once
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            assert done["result"]["outcome"] == "violated"
            assert calls == [("GET", f"/v1/jobs/{job['id']}")]
        finally:
            server.stop()

    def test_wait_times_out_on_a_queued_job(self):
        server = _start_server(queue_limit=4)
        client = ServiceClient(server.url)   # socket timeout 30 s
        try:
            # Fwd on default movavg blows up (the paper's monolithic
            # case) and keeps allocating, so the cancel below lands.
            slow = client.submit("movavg", method="fwd", label="slow")
            queued = client.submit(**FAST_JOB)
            started = time.monotonic()
            with pytest.raises(TimeoutError) as excinfo:
                client.wait(queued["id"], timeout=1.0)
            assert time.monotonic() - started < 2.5
            assert str(excinfo.value) == \
                f"job {queued['id']} still 'queued' after 1s"
            # Overflow the queued job's log, so its stream carries an
            # events_dropped line (no seq) before its events.
            server.service.job(queued["id"]).events._max = 4
            client.cancel(slow["id"])
            assert client.wait(queued["id"], timeout=60)["state"] \
                == "done"
            assert client.job(queued["id"])["events_dropped"] > 0
            assert client.wait(slow["id"], timeout=60)["state"] \
                == "cancelled"
        finally:
            server.stop()


class TestBackpressureAndCancel:
    def test_queue_full_cancel_midrun_and_heartbeats(self, tmp_path):
        """One scenario, three acceptance criteria.

        A single worker runs pipeline/ici unassisted (which does not
        converge — Table 3), so: the bounded queue overflows into a
        429, the running job streams heartbeat events, and DELETE
        cancels it mid-run through the budget hook without leaking the
        worker thread or archiving the partial run.
        """
        server = _start_server(queue_limit=1, ledger_dir=str(tmp_path))
        client = ServiceClient(server.url)
        try:
            slow = client.submit(
                "pipeline", method="ici",
                params={"regs": 2, "bits": 1},
                options=Options(heartbeat=0.05), label="slow")
            deadline = time.monotonic() + 30
            while client.job(slow["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert client.job(slow["id"])["state"] == "running"

            # Fill the queue, then overflow it.
            queued = client.submit(**FAST_JOB)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(**FAST_JOB, label="overflow")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue_full"
            assert "Retry-After" in excinfo.value.headers

            # Heartbeat lines appear in the event stream.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                beats = [event for event
                         in client.events(slow["id"])
                         if event["kind"] == "heartbeat"]
                if beats:
                    break
                time.sleep(0.05)
            assert beats, "no heartbeat events streamed"
            assert all(beat["line"] for beat in beats)

            # Cooperative cancel: the budget hook unwinds the engine.
            assert client.cancel(slow["id"])["cancel_requested"]
            done = client.wait(slow["id"], timeout=60)
            assert done["state"] == "cancelled"
            assert done["run_id"] is None        # never archived

            # The worker survived and drains the queued fast job.
            assert client.wait(queued["id"], timeout=60)["state"] \
                == "done"
            assert client.health()["workers"] == 1
            stats = client.health()
            assert stats["jobs_by_state"].get("cancelled") == 1
        finally:
            server.stop()
        # No leaked worker threads after shutdown.
        leaked = [thread.name for thread in threading.enumerate()
                  if thread.name.startswith("repro-serve-worker")
                  and thread.is_alive()]
        assert leaked == []
