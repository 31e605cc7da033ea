"""Tests for the structured engine-tracing subsystem (repro.trace).

Tracing is observational only: a traced run must produce exactly the
same verification result as an untraced one, and the null tracer must
keep every emit site a no-op.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import METHODS, Options, verify
from repro.models import build_model
from repro.trace import EVENT_TYPES, JsonlTracer, NullTracer, \
    RecordingTracer, Tracer

REPO_ROOT = Path(__file__).resolve().parents[1]


def _problem(method):
    if method == "fd":
        return build_model("network", procs=2)
    return build_model("movavg", depth=2, width=4)


class TestRecordingTracer:
    def test_xici_event_stream(self):
        tracer = RecordingTracer()
        result = verify(_problem("xici"), "xici", Options(tracer=tracer))
        assert result.verified
        kinds = [event["event"] for event in tracer.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert set(kinds) <= set(EVENT_TYPES)
        iterations = tracer.events_of("iteration")
        assert len(iterations) == result.iterations + 1
        for event in iterations:
            assert event["nodes"] >= 1
            assert event["list_length"] == len(event["sizes"])
            assert "t" in event

    def test_iteration_indices_are_sequential(self):
        tracer = RecordingTracer()
        verify(_problem("xici"), "xici", Options(tracer=tracer))
        indices = [e["index"] for e in tracer.events_of("iteration")]
        assert indices == list(range(len(indices)))

    def test_merge_events_carry_greedy_decision(self):
        tracer = RecordingTracer()
        verify(_problem("xici"), "xici", Options(tracer=tracer))
        merges = tracer.events_of("merge")
        assert merges, "greedy evaluation should merge at least once"
        for event in merges:
            assert event["ratio"] > 0
            assert event["product_size"] >= 1
            assert "cached" not in event

    def test_termination_event_has_tier_tally(self):
        tracer = RecordingTracer()
        result = verify(_problem("xici"), "xici", Options(tracer=tracer))
        assert result.verified
        tests = tracer.events_of("termination_test")
        assert tests
        final = tests[-1]
        assert final["converged"] is True
        assert set(final["tiers"]) >= {"constant", "complement", "shannon"}
        assert "max_depth" in final

    def test_gc_events_when_collecting(self):
        tracer = RecordingTracer()
        verify(_problem("xici"), "xici",
               Options(tracer=tracer, gc_min_nodes=1))
        gcs = tracer.events_of("gc")
        assert gcs
        for event in gcs:
            assert event["freed"] >= 0
            assert event["live"] >= 1

    def test_budget_check_events(self):
        tracer = RecordingTracer()
        result = verify(_problem("xici"), "xici",
                        Options(tracer=tracer, time_limit=600.0))
        assert result.verified
        checks = tracer.events_of("budget_check")
        assert checks
        assert all(event["kind"] == "time" for event in checks)

    def test_summary_resets_between_runs(self):
        tracer = RecordingTracer()
        verify(_problem("xici"), "xici", Options(tracer=tracer))
        first = tracer.summary()
        verify(_problem("xici"), "xici", Options(tracer=tracer))
        second = tracer.summary()
        assert second["event_counts"]["run_start"] == 1
        assert first["event_counts"]["run_start"] == 1


class TestAllMethods:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_engine_emits_run_and_iterations(self, method):
        tracer = RecordingTracer()
        result = verify(_problem(method), method, Options(tracer=tracer))
        assert result.verified
        kinds = [event["event"] for event in tracer.events]
        assert kinds.count("run_start") == 1
        assert kinds.count("run_end") == 1
        assert kinds.count("iteration") >= 1
        assert result.trace_summary is not None
        assert result.trace_summary["outcome"]["outcome"] == "verified"

    @pytest.mark.parametrize("method", METHODS)
    def test_traced_run_is_edge_identical(self, method):
        traced = verify(_problem(method), method,
                        Options(tracer=RecordingTracer()))
        plain = verify(_problem(method), method, Options())
        assert traced.outcome == plain.outcome
        assert traced.iterations == plain.iterations
        assert traced.iterate_profiles == plain.iterate_profiles
        assert traced.max_iterate_profile == plain.max_iterate_profile
        assert plain.trace_summary is None


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.emit("iteration", nodes=1)
        assert tracer.summary() is None
        tracer.close()

    def test_tracer_base_is_the_null_tracer(self):
        assert NullTracer is Tracer


class TestJsonlTracer:
    def test_stream_is_line_parseable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            result = verify(_problem("xici"), "xici",
                            Options(tracer=tracer))
        assert result.verified
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines if line]
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        assert all("t" in event for event in events)
        # the stream and the summary agree
        iteration_count = sum(1 for e in events if e["event"] == "iteration")
        assert result.trace_summary["event_counts"]["iteration"] \
            == iteration_count

    def test_trace_report_renders(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            verify(_problem("xici"), "xici", Options(tracer=tracer))
        script = REPO_ROOT / "benchmarks" / "trace_report.py"
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, str(script), str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "outcome verified" in proc.stdout
        assert "termination tiers" in proc.stdout

    def test_trace_report_grouping_logic(self, tmp_path):
        import importlib.util
        script = REPO_ROOT / "benchmarks" / "trace_report.py"
        spec = importlib.util.spec_from_file_location("trace_report",
                                                      script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            result = verify(_problem("xici"), "xici",
                            Options(tracer=tracer))
        grouped = module.group_by_iteration(module.read_events(str(path)))
        assert grouped["run"]["outcome"] == "verified"
        assert len(grouped["rows"]) == result.iterations + 1
        # termination tiers attach to the row they tested
        assert any(row["tiers"] for row in grouped["rows"])


class TestJsonlDurability:
    def test_events_on_disk_before_close(self, tmp_path):
        # Per-event flush: a crash after emit must lose nothing.
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        tracer.emit("iteration", nodes=5)
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["event"] == "iteration"
        tracer.close()
        tracer.close()  # idempotent


class TestTraceReportInputs:
    """The .gz / partial-tail / --spans input paths of trace_report."""

    def _module(self):
        import importlib.util
        script = REPO_ROOT / "benchmarks" / "trace_report.py"
        spec = importlib.util.spec_from_file_location(
            "trace_report_inputs", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            verify(_problem("xici"), "xici", Options(tracer=tracer))
        return path

    def test_gz_input(self, tmp_path):
        import gzip
        module = self._module()
        path = self._trace(tmp_path)
        gz_path = tmp_path / "trace.jsonl.gz"
        gz_path.write_bytes(gzip.compress(path.read_bytes()))
        assert module.read_events(str(gz_path)) \
            == module.read_events(str(path))

    def test_partial_last_line_skipped_with_warning(self, tmp_path):
        import pytest
        module = self._module()
        path = self._trace(tmp_path)
        text = path.read_text()
        path.write_text(text[:-15])
        with pytest.warns(UserWarning, match="partial last line"):
            events = module.read_events(str(path))
        assert events  # everything before the torn line survives

    def test_spans_column_and_rollup_table(self, tmp_path):
        from repro.obs import SpanProfiler
        module = self._module()
        spans = SpanProfiler()
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            result = verify(_problem("xici"), "xici",
                            Options(tracer=tracer, spans=spans))
        spans_path = tmp_path / "spans.json"
        spans.write_chrome_trace(str(spans_path))
        events = module.read_events(str(path))
        span_events = module.read_span_events(str(spans_path))
        report = module.format_report(events, None, span_events)
        assert "span s" in report
        assert "span rollup (self time, heaviest first):" in report
        assert "back_image" in report
        by_index = module.iteration_span_seconds(span_events)
        assert set(by_index) == set(range(1, result.iterations + 1))
        rollup = module.span_rollup(span_events)
        assert rollup["run"]["count"] == 1
        for agg in rollup.values():
            assert agg["self_seconds"] <= agg["seconds"] + 1e-9
