"""The served-mix workload: ``repro serve`` driven over HTTP.

The server runs as its own process (``python -m repro serve --port 0
--ledger <fresh dir> --quiet``: two worker threads, default options, so
``kernel=auto`` resolves to the array kernel).  One client process
drives it with :class:`repro.client.ServiceClient`:

1. **Set-up**, timed: spawn to the first 200 from ``/v1/healthz``,
   repeated ``setup_repeats`` times with a fresh server each time; the
   last server stays up.
2. **Prefill**, untimed: every pool request once, so the ledger holds
   its answer.
3. **Measured phase**: batches until the time is spent.  A batch holds
   every pool request :data:`HITS_PER_MISS` times unchanged (ledger
   cache hits) and once with ``options.max_iterations = 10001 + i``
   (a unique request hash doing identical work: a miss that runs and
   archives).  The seed shuffles each batch, and a closed loop of one
   client sends it: each request is sent when the previous one has
   completed.  Every batch holds the same requests, so runs with
   different seeds measure the same work.  (With two client threads,
   client and server saturate a 2-core host, and the run-to-run spread
   of the latency and throughput metrics rose from 1-3% to 6-20%.)

A request's latency runs from submit to the end of
``events(follow=True)``; the job document is fetched after that, to
check the answer and read the server's phase timings.

Budgeted requests are left out: any request whose options set
``time_limit`` fails inside the server (see README.md, "Finding").
"""

from __future__ import annotations

import itertools
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.client import ServiceClient
from repro.core.options import Options

__all__ = ["run_served", "HITS_PER_MISS", "MIN_BATCHES"]

HITS_PER_MISS = 3
#: Fewest batches a measurement sends, whatever ``seconds`` says.
MIN_BATCHES = 3
#: Seconds a server may take to report its address and answer healthz.
START_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on (http://\S+)")


class Server:
    """One ``repro serve`` subprocess with its own ledger directory."""

    def __init__(self, root: Path, workdir: Path, env: Dict[str, str]):
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self._log_path = workdir / "serve.log"
        self._log = open(self._log_path, "w", encoding="utf-8")
        spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--ledger", str(workdir / "ledger"), "--quiet"],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=self._log)
        try:
            self.url = self._wait_for_address()
            self.client = ServiceClient(self.url)
            self._wait_for_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - spawned

    def _wait_for_address(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            match = _LISTENING.search(self._log_path.read_text())
            if match:
                return match.group(1)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not start: "
                           f"{self._log_path.read_text()[-2000:]}")

    def _wait_for_health(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                self.client.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status") \
                .read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the server (its clean shutdown path) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _submit(client: ServiceClient, item: Dict[str, Any],
            options: Optional[Options]) -> Dict[str, Any]:
    """One request, timed from submit to the end of its event stream."""
    started = time.perf_counter()
    job = client.submit(item["model"], method=item["method"],
                        params=item["params"], bug=item["bug"],
                        assisted=item["assisted"], options=options)
    submitted = time.perf_counter()
    for _event in client.events(job["id"], follow=True):
        pass
    ended = time.perf_counter()
    ended_wall = time.time()
    document = client.job(job["id"])
    return {"latency_s": ended - started, "submit_s": submitted - started,
            "stream_lag_s": ended_wall - (document.get("finished_at")
                                          or ended_wall),
            "document": document}


def _check(item: Dict[str, Any], record: Dict[str, Any], cached: bool,
           reference: Optional[Dict[str, Any]]) -> List[str]:
    """The failure rules for one served request."""
    label = f"{item['label']} ({'hit' if cached else 'miss'})"
    document = record["document"]
    if document.get("state") != "done":
        return [f"{label}: job {document.get('state')!r}: "
                f"{document.get('error', {}).get('message')}"]
    failures = []
    if document.get("cached") is not cached:
        failures.append(f"{label}: cached={document.get('cached')}, "
                        f"planned {cached}")
    result = document.get("result") or {}
    if result.get("outcome") != item["outcome"]:
        failures.append(f"{label}: outcome {result.get('outcome')!r}, "
                        f"expected {item['outcome']!r}")
    if result.get("iterations") != item["iterations"]:
        failures.append(f"{label}: {result.get('iterations')} iterations, "
                        f"expected {item['iterations']}")
    if cached and reference is not None and result != reference:
        failures.append(f"{label}: cache hit differs from the prefill "
                        f"result")
    return failures


def _quantile(values: List[float], index: int) -> float:
    """Decile ``index`` of ``values`` (5 = median); 0.0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[index - 1]


def run_served(pool: List[Dict[str, Any]], seed: int, seconds: float,
               root: Path, workdir: Path, env: Dict[str, str],
               setup_repeats: int,
               max_requests: Optional[int] = None) -> Dict[str, Any]:
    """Run the whole workload; returns the same document shape as the
    in-process worker."""
    setups: List[float] = []
    server = None
    try:
        for attempt in range(setup_repeats):
            if server is not None:
                server.stop()
            server = Server(root, workdir / f"server-{attempt}", env)
            setups.append(server.setup_s)
        return _drive(server, pool, seed, seconds, max_requests, setups)
    finally:
        if server is not None:
            server.stop()


def _drive(server: Server, pool: List[Dict[str, Any]], seed: int,
           seconds: float, max_requests: Optional[int],
           setups: List[float]) -> Dict[str, Any]:
    client = server.client
    failures: List[str] = []
    failed = 0
    references: Dict[str, Dict[str, Any]] = {}
    kernels = set()
    peak_nodes = 0
    for item in pool:
        try:
            record = _submit(client, item, None)
        except Exception as error:  # noqa: BLE001 - a failed request
            failures.append(f"{item['label']} (prefill): "
                            f"{type(error).__name__}: {error}")
            failed += 1
            continue
        wrong = _check(item, record, False, None)
        failures.extend(wrong)
        failed += bool(wrong)
        result = record["document"].get("result") or {}
        references[item["label"]] = result
        peak_nodes += result.get("peak_nodes") or 0
        kernels.add((result.get("extra") or {}).get("kernel"))

    rng = random.Random(seed)
    unique = itertools.count(10001)
    records: List[Tuple[Dict[str, Any], bool, Dict[str, Any]]] = []
    batch_walls: List[float] = []
    batch_rates: List[float] = []
    measured = 0
    started, cpu_started = time.perf_counter(), server.cpu_s()
    while True:
        plan: List[Tuple[Dict[str, Any], Optional[Options]]] = [
            (item, None) for item in pool for _ in range(HITS_PER_MISS)]
        plan += [(item, Options(max_iterations=next(unique)))
                 for item in pool]
        rng.shuffle(plan)
        if max_requests is not None:
            plan = plan[:max_requests - measured]
        wall0 = time.perf_counter()
        for item, options in plan:
            cached = options is None
            try:
                record = _submit(client, item, options)
            except Exception as error:  # noqa: BLE001 - a failed request
                failures.append(f"{item['label']}: "
                                f"{type(error).__name__}: {error}")
                failed += 1
                continue
            wrong = _check(item, record, cached,
                           references.get(item["label"]))
            failures.extend(wrong)
            failed += bool(wrong)
            records.append((item, cached, record))
        wall = time.perf_counter() - wall0
        batch_walls.append(wall)
        batch_rates.append(len(plan) / wall)
        measured += len(plan)
        elapsed = time.perf_counter() - started
        if max_requests is not None and measured >= max_requests:
            break
        if len(batch_walls) >= MIN_BATCHES \
                and elapsed + max(batch_walls) > seconds:
            break
    # The server's CPU clock ticks in 10 ms steps: the whole phase's
    # total per batch resolves it far better than any single batch.
    cpu_per_batch = (server.cpu_s() - cpu_started) / len(batch_walls)
    latencies = [record["latency_s"] for _, _, record in records]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(batch_walls),
        "cpu_s": cpu_per_batch,
        "peak_nodes": peak_nodes,
        "rss_peak_mb": server.rss_peak_mb(),
        "jobs_per_s": statistics.median(batch_rates),
        "job_latency_p50_s": _quantile(latencies, 5),
        "job_latency_p90_s": _quantile(latencies, 9),
    }
    return {"attempted": len(pool) + measured, "failed": failed,
            "failures": failures, "rounds": len(batch_walls),
            "metrics": metrics, "layers": _layers(records),
            "kernel": sorted(str(kernel) for kernel in kernels),
            "samples": len(latencies)}


def _layers(records: List[Tuple[Dict[str, Any], bool, Dict[str, Any]]]
            ) -> Dict[str, float]:
    """Service-layer metrics from client timing and job documents."""
    def phase(name: str) -> List[float]:
        """One pipeline phase's durations, over the jobs that ran it
        (cache hits skip build, run and archive)."""
        return [record["document"]["phases"][name]
                for _, _, record in records
                if name in record["document"].get("phases", {})]

    waits = [record["document"].get("queue_wait_seconds") or 0.0
             for _, _, record in records]
    hit_latency = [r["latency_s"] for _, cached, r in records if cached]
    miss_latency = [r["latency_s"] for _, cached, r in records
                    if not cached]
    return {
        "serve.submit_s_p50":
            _quantile([r["submit_s"] for _, _, r in records], 5),
        "serve.queue_wait_s_p50": _quantile(waits, 5),
        "serve.queue_wait_s_p90": _quantile(waits, 9),
        "serve.cache_probe_s_p50":
            _quantile(phase("cache_probe"), 5),
        "serve.build_s_p50": _quantile(phase("build"), 5),
        "serve.run_s_p50": _quantile(phase("run"), 5),
        "serve.archive_s_p50": _quantile(phase("archive"), 5),
        "serve.stream_lag_s_p50":
            _quantile([r["stream_lag_s"] for _, _, r in records], 5),
        "serve.hit_latency_s_p50": _quantile(hit_latency, 5),
        "serve.miss_latency_s_p50": _quantile(miss_latency, 5),
        "serve.cache_hit_ratio":
            len(hit_latency) / len(records) if records else 0.0,
    }
