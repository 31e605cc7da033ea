"""Tests for the metrics & profiling subsystem (repro.obs).

The contract under test mirrors :mod:`repro.trace`: metrics are
observational only — a metered run must produce an identical
verification result to a bare one (the only differences in the JSON
are wall-clock fields and the ``metrics`` block itself) — and the
:class:`NullRegistry` keeps every emit site a no-op behind a single
attribute check.
"""

import json

import pytest

from repro.bdd import BDD
from repro.core import METHODS, Options, verify
from repro.models import build_model
from repro.obs import (Histogram, MetricsRegistry, NullRegistry,
                       ResourceSampler, SpanProfiler, benchjson)
from repro.obs.exporters import (METRICS_SCHEMA_VERSION, read_jsonl,
                                 render_report, to_prometheus,
                                 write_jsonl)
from repro.obs.probe import NULL_PROBE
from repro.obs.registry import (NULL_REGISTRY, RATIO_BUCKETS,
                                SIZE_BUCKETS, TIME_BUCKETS_S)
from repro.obs.sampler import SAMPLE_FIELDS, read_rss_kb


def _problem(method):
    if method == "fd":
        return build_model("network", procs=2)
    return build_model("movavg", depth=2, width=4)


class TestHistogram:
    def test_bucketing_on_edges_and_overflow(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0):
            hist.observe(value)
        # Edges are inclusive upper bounds (bisect_left): 1.0 lands in
        # the <=1 bucket, 100.0 overflows past the last edge.
        assert hist.bucket_counts == [2, 2, 2, 1]
        assert hist.count == 7
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.total == pytest.approx(112.0)

    def test_edges_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_mean_and_quantiles(self):
        hist = Histogram((10.0, 20.0, 30.0))
        for value in (5, 5, 15, 25):
            hist.observe(value)
        assert hist.mean == pytest.approx(12.5)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 30.0

    def test_overflow_quantile_answers_with_max(self):
        hist = Histogram((1.0,))
        hist.observe(50.0)
        assert hist.quantile(0.99) == 50.0

    def test_empty_histogram(self):
        hist = Histogram((1.0,))
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.as_dict()["count"] == 0

    def test_as_dict_round_trips_through_json(self):
        hist = Histogram(TIME_BUCKETS_S)
        hist.observe(0.003)
        data = json.loads(json.dumps(hist.as_dict()))
        assert data["count"] == 1
        assert len(data["bucket_counts"]) == len(TIME_BUCKETS_S) + 1

    def test_fixed_bucket_families_are_increasing(self):
        for edges in (TIME_BUCKETS_S, SIZE_BUCKETS, RATIO_BUCKETS):
            assert all(b > a for a, b in zip(edges, edges[1:]))


class TestNullRegistry:
    def test_is_inert(self):
        registry = NullRegistry()
        assert not registry.enabled
        registry.inc("a")
        registry.gauge("b", 1.0)
        registry.observe("c", 2.0)
        registry.observe_time("d", 0.1)
        registry.observe_size("e", 10)
        registry.observe_ratio("f", 1.2)
        registry.record_sample({"t": 0})
        with registry.phase("anything"):
            pass
        assert registry.snapshot() is None

    def test_shared_instance_and_shared_phase_timer(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.phase("x") is NULL_REGISTRY.phase("y")

    def test_live_registry_is_a_null_registry(self):
        # Emit sites type against the null base; the live registry
        # must substitute everywhere.
        assert isinstance(MetricsRegistry(), NullRegistry)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        assert registry.enabled
        registry.inc("runs")
        registry.inc("runs", 2)
        registry.gauge("level", 7.0)
        registry.gauge("level", 9.0)
        registry.observe_size("nodes", 100)
        snap = registry.snapshot()
        assert snap["counters"]["runs"] == 3
        assert snap["gauges"]["level"] == 9.0
        assert snap["histograms"]["nodes"]["count"] == 1
        assert snap["sample_count"] == 0

    def test_phase_timer_records_histogram(self):
        registry = MetricsRegistry()
        with registry.phase("simplify"):
            pass
        hist = registry.histograms["phase_simplify_seconds"]
        assert hist.count == 1
        assert hist.edges == TIME_BUCKETS_S

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe_ratio("r", 1.4)
        registry.record_sample({"t": 0.0, "kind": "sample"})
        json.dumps(registry.snapshot())


class TestPrometheusExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("image_calls", 4)
        registry.gauge("nodes_live", 123)
        hist = Histogram((1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        registry.histograms["iterate_nodes"] = hist
        return registry

    def test_counter_gauge_histogram_series(self):
        text = to_prometheus(self._registry())
        assert "# TYPE repro_image_calls_total counter" in text
        assert "repro_image_calls_total 4" in text
        assert "repro_nodes_live 123" in text
        # Buckets are cumulated on the way out and closed with +Inf.
        assert 'repro_iterate_nodes_bucket{le="1"} 1' in text
        assert 'repro_iterate_nodes_bucket{le="2"} 2' in text
        assert 'repro_iterate_nodes_bucket{le="+Inf"} 3' in text
        assert "repro_iterate_nodes_count 3" in text
        assert "repro_iterate_nodes_sum 11.0" in text
        assert text.endswith("\n")

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("weird-name.with chars")
        text = to_prometheus(registry)
        assert "repro_weird_name_with_chars_total 1" in text

    def test_label_hostile_names_cannot_break_series_syntax(self):
        # A name carrying label/quote syntax must come out as plain
        # identifier characters — nothing can inject a label pair.
        registry = MetricsRegistry()
        registry.inc('evil{label="x"}')
        registry.gauge('quote"back\\slash', 1)
        text = to_prometheus(registry)
        assert "repro_evil_label__x___total 1" in text
        assert "repro_quote_back_slash 1" in text
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split()[0]
            # le="..." buckets are the only place quotes may appear.
            if "{" not in name:
                assert '"' not in name and "\\" not in name

    def test_empty_registry_renders_empty_exposition(self):
        text = to_prometheus(MetricsRegistry())
        assert text == "\n"
        assert "# TYPE" not in text

    def test_cumulative_buckets_are_monotone_and_closed(self):
        registry = MetricsRegistry()
        hist = Histogram((1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 3.0, 3.5, 9.0, 100.0, 0.1):
            hist.observe(value)
        registry.histograms["spread"] = hist
        text = to_prometheus(registry)
        counts = []
        for line in text.splitlines():
            if line.startswith('repro_spread_bucket{le="') \
                    and "+Inf" not in line:
                counts.append(int(line.split()[-1]))
            elif 'le="+Inf"' in line:
                inf_count = int(line.split()[-1])
        assert counts == sorted(counts)
        assert counts[-1] <= inf_count
        assert inf_count == hist.count


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("iterations", 3)
        registry.record_sample({"t": 0.0, "kind": "sample",
                                "reason": "install"})
        path = tmp_path / "m.jsonl"
        write_jsonl(registry, str(path), meta={"model": "fifo"})
        data = read_jsonl(str(path))
        assert data["meta"]["schema_version"] == METRICS_SCHEMA_VERSION
        assert data["meta"]["model"] == "fifo"
        assert len(data["samples"]) == 1
        assert data["summary"]["counters"]["iterations"] == 3

    def test_partial_last_line_skipped_with_warning(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("iterations", 3)
        registry.record_sample({"t": 0.0, "kind": "sample"})
        path = tmp_path / "m.jsonl"
        write_jsonl(registry, str(path), meta={"model": "fifo"})
        # Chop the file mid-way through its final line, as a kill or
        # crash during the summary write would.
        text = path.read_text()
        path.write_text(text[:-20])
        with pytest.warns(UserWarning, match="partial last line"):
            data = read_jsonl(str(path))
        assert data["meta"]["model"] == "fifo"
        assert len(data["samples"]) == 1
        assert data["summary"] is None

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "meta"}\nnot json at all\n'
                        '{"kind": "summary"}\n')
        with pytest.raises(ValueError, match="not JSON"):
            read_jsonl(str(path))

    def test_render_report_mentions_everything(self):
        registry = MetricsRegistry()
        registry.inc("iterations", 5)
        registry.gauge("run_peak_nodes", 900)
        registry.observe_size("iterate_nodes", 33)
        report = render_report(registry)
        assert "iterations" in report
        assert "run_peak_nodes" in report
        assert "iterate_nodes" in report
        assert "timeline samples: 0" in report


class TestGcObserverFanOut:
    def _manager_with_garbage(self):
        manager = BDD()
        for name in "abcd":
            manager.new_var(name)
        fn = manager.var("a") & manager.var("b") & manager.var("c")
        del fn
        return manager

    def test_legacy_single_slot_attribute_is_gone(self):
        # The gc_observer deprecation shim completed its cycle: the
        # attribute no longer exists as an API (assignment would just
        # create a dead instance attribute nothing reads).  Collections
        # report through the manager's probe (tests/test_probe.py).
        manager = self._manager_with_garbage()
        assert not hasattr(type(manager), "gc_observer")


class TestResourceSampler:
    def _manager(self):
        manager = BDD()
        for name in "ab":
            manager.new_var(name)
        return manager

    def test_sample_fields_are_complete(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(self._manager(), registry)
        sample = sampler.sample(reason="test")
        assert tuple(sample) == SAMPLE_FIELDS
        assert sample["kind"] == "sample"
        assert sample["nodes_live"] >= 0
        json.dumps(sample)

    def test_install_uninstall_lifecycle(self):
        manager = self._manager()
        registry = MetricsRegistry()
        sampler = ResourceSampler(manager, registry)
        sampler.install()
        # The sampler never attaches itself; the run's probe drives it.
        assert manager.probe is NULL_PROBE
        sampler.uninstall()
        assert manager.probe is NULL_PROBE
        reasons = [s["reason"] for s in registry.samples]
        assert reasons[0] == "install"
        assert reasons[-1] == "uninstall"
        # Nothing samples on the manager's behalf: collecting adds none.
        count = len(registry.samples)
        manager.garbage_collect()
        assert len(registry.samples) == count

    def test_rate_limit_bounds_periodic_samples(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(self._manager(), registry,
                                  min_interval=3600.0)
        assert sampler.maybe_sample()
        for _ in range(100):
            assert not sampler.maybe_sample()
        assert len(registry.samples) == 1

    def test_max_samples_caps_timeline_and_counts_drops(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(self._manager(), registry,
                                  min_interval=0.0, max_samples=3)
        for _ in range(10):
            sampler.sample(reason="forced")
        assert len(registry.samples) == 3
        assert sampler.dropped == 7

    def test_uninstall_exports_dropped_gauge(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(self._manager(), registry,
                                  min_interval=0.0, max_samples=1)
        sampler.install()
        sampler.sample(reason="forced")
        sampler.uninstall()
        assert registry.gauges["sampler_dropped"] == 2


class TestReadRssFallback:
    def test_linux_proc_path(self):
        # On this CI image /proc exists; the value is a positive KiB.
        value = read_rss_kb()
        assert value is None or value > 0

    def test_falls_back_to_getrusage_without_proc(self, monkeypatch):
        # Simulate macOS/BSD: no /proc/self/status.  getrusage's
        # ru_maxrss high-water mark takes over (positive on any
        # platform the suite runs on).
        monkeypatch.setattr("repro.obs.sampler._PROC_STATUS",
                            "/nonexistent/proc/self/status")
        value = read_rss_kb()
        assert isinstance(value, int)
        assert value > 0

    def test_proc_without_vmrss_also_falls_back(self, monkeypatch,
                                                tmp_path):
        fake = tmp_path / "status"
        fake.write_text("Name:\tpython\nState:\tR (running)\n")
        monkeypatch.setattr("repro.obs.sampler._PROC_STATUS", str(fake))
        value = read_rss_kb()
        assert isinstance(value, int)
        assert value > 0


#: to_dict keys a metered run is allowed to differ on: wall-clock, the
#: metrics block, and the span rollup.  Everything else must be
#: byte-identical.
_VOLATILE_KEYS = ("elapsed_seconds", "time", "metrics", "span_rollup")


def _comparable(result):
    data = result.to_dict()
    for key in _VOLATILE_KEYS:
        data.pop(key, None)
    return json.dumps(data, sort_keys=True, default=str)


class TestObservationalContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_metered_run_is_edge_identical(self, method):
        metered = verify(_problem(method), method,
                         Options(metrics=MetricsRegistry()))
        plain = verify(_problem(method), method, Options())
        assert plain.metrics is None
        assert "metrics" not in plain.to_dict()
        assert metered.metrics is not None
        assert _comparable(metered) == _comparable(plain)

    @pytest.mark.parametrize("method", ["xici", "bkwd"])
    def test_second_model_fifo(self, method):
        problem = build_model("fifo", depth=3, width=4)
        metered = verify(problem, method,
                         Options(metrics=MetricsRegistry()))
        plain = verify(build_model("fifo", depth=3, width=4), method,
                       Options())
        assert _comparable(metered) == _comparable(plain)

    def test_metered_run_populates_expected_metrics(self):
        registry = MetricsRegistry()
        result = verify(_problem("xici"), "xici",
                        Options(metrics=registry))
        assert result.verified
        snap = result.metrics
        assert snap["counters"]["iterations"] == result.iterations + 1
        assert snap["counters"]["runs_completed"] == 1
        assert snap["gauges"]["run_peak_nodes"] == result.peak_nodes
        assert snap["histograms"]["iterate_nodes"]["count"] \
            == result.iterations + 1
        # One forced sample per iterate boundary, plus install/uninstall.
        assert snap["sample_count"] >= result.iterations + 3
        iterate_samples = [s for s in registry.samples
                           if s["reason"] == "iterate"]
        assert len(iterate_samples) == result.iterations + 1
        for sample in iterate_samples:
            assert sample["conjunct_lengths"]

    def test_manager_registry_restored_after_run(self):
        problem = _problem("xici")
        verify(problem, "xici", Options(metrics=MetricsRegistry()))
        assert problem.machine.manager.probe is NULL_PROBE

    def test_registry_spans_runs_when_reused(self):
        registry = MetricsRegistry()
        verify(_problem("xici"), "xici", Options(metrics=registry))
        verify(_problem("xici"), "xici", Options(metrics=registry))
        assert registry.counters["runs_completed"] == 2

    @pytest.mark.parametrize("method", METHODS)
    def test_span_profiled_run_is_edge_identical(self, method):
        profiled = verify(_problem(method), method,
                          Options(spans=SpanProfiler()))
        plain = verify(_problem(method), method, Options())
        assert plain.span_rollup is None
        assert "span_rollup" not in plain.to_dict()
        assert profiled.span_rollup
        assert _comparable(profiled) == _comparable(plain)

    def test_fully_instrumented_run_is_edge_identical(self):
        # Metrics + spans + heartbeat together must still not perturb
        # the engine: same iterations, same nodes, same outcome.
        instrumented = verify(_problem("xici"), "xici",
                              Options(metrics=MetricsRegistry(),
                                      spans=SpanProfiler(),
                                      heartbeat=3600.0))
        plain = verify(_problem("xici"), "xici", Options())
        assert _comparable(instrumented) == _comparable(plain)


class TestBenchJson:
    def test_report_round_trip(self, tmp_path):
        report = benchjson.new_report("demo", scale="quick", rounds=2,
                                      params={"knob": 1})
        benchjson.add_entry(report, "fifo", "xici", "on",
                            {"outcome": "verified", "peak_nodes": 10})
        path = tmp_path / "BENCH_demo.json"
        benchjson.write_report(report, path)
        loaded = benchjson.load_report(path)
        assert loaded == report
        index = benchjson.entry_index(loaded)
        assert index[("fifo", "xici", "on")]["peak_nodes"] == 10

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99,
                                    "benchmark": "x", "entries": []}))
        with pytest.raises(ValueError, match="schema_version"):
            benchjson.load_report(path)

    def test_load_rejects_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema_version": 1, "benchmark": "x",
             "entries": [{"model": "fifo", "method": "xici"}]}))
        with pytest.raises(ValueError, match="config"):
            benchjson.load_report(path)

    def test_result_metrics_block(self):
        result = verify(_problem("xici"), "xici", Options())
        block = benchjson.result_metrics(result, seconds=1.23456)
        assert block == {"outcome": "verified",
                         "iterations": result.iterations,
                         "seconds": 1.2346,
                         "peak_nodes": result.peak_nodes,
                         "max_iterate_nodes": result.max_iterate_nodes}


class TestCliMetrics:
    def test_metrics_file_and_summary(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "m.jsonl"
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici",
                     "--metrics", str(path), "--metrics-summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "## metrics" in out
        data = read_jsonl(str(path))
        assert data["meta"]["model"] == "fifo"
        assert data["summary"]["counters"]["runs_completed"] == 1
        assert any(s["reason"] == "iterate" for s in data["samples"])

    def test_prom_suffix_selects_textfile_format(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "m.prom"
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici",
                     "--metrics", str(path)])
        assert code == 0
        text = path.read_text()
        assert "repro_runs_completed_total 1" in text
        assert 'le="+Inf"' in text

    def test_no_flags_means_no_metrics(self, capsys):
        from repro.cli import main
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "metrics" not in data
