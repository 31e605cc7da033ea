"""Tests for the hierarchical span profiler (repro.obs.spans).

Three contracts pinned here: the null sink is free and inert; the live
profiler's attribution is exact (self time = inclusive minus children,
aggregates exact past ``max_records``, forced closes leak nothing);
and the exporters emit structurally valid Chrome Trace Event JSON and
speedscope profiles (the latter with a balanced open/close replay).
"""

import io
import json

import pytest

import repro.obs.spans as spans_mod
from repro.core import Options, verify
from repro.models import build_model
from repro.obs.probe import NULL_PROBE
from repro.obs import NULL_SPANS, NullSpanSink, SpanProfiler, \
    render_rollup


class _Clock:
    """Deterministic stand-in for the ``time`` module in spans."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(spans_mod, "time", fake)
    return fake


def _problem():
    return build_model("movavg", depth=2, width=4)


class TestNullSpanSink:
    def test_is_inert(self):
        sink = NullSpanSink()
        assert not sink.enabled
        assert sink.open_span("anything", attr=1) is None
        sink.close_span(None)
        sink.close_span(42)
        sink.annotate(None, x=1)
        sink.attach(object())
        sink.detach()
        assert sink.rollup() == {}

    def test_shared_instance_and_shared_null_span(self):
        assert not NULL_SPANS.enabled
        assert NULL_SPANS.span("a") is NULL_SPANS.span("b")
        with NULL_SPANS.span("x") as span:
            span.note(anything=1)

    def test_live_profiler_substitutes_for_the_null_sink(self):
        assert isinstance(SpanProfiler(), NullSpanSink)
        assert SpanProfiler().enabled


class TestSpanNesting:
    def test_self_time_is_inclusive_minus_children(self, clock):
        profiler = SpanProfiler()
        run = profiler.open_span("run")
        clock.now = 1.0
        child = profiler.open_span("child")
        clock.now = 3.0
        profiler.close_span(child)
        clock.now = 4.0
        profiler.close_span(run)
        rollup = profiler.rollup()
        assert rollup["child"]["seconds"] == pytest.approx(2.0)
        assert rollup["child"]["self_seconds"] == pytest.approx(2.0)
        assert rollup["run"]["seconds"] == pytest.approx(4.0)
        assert rollup["run"]["self_seconds"] == pytest.approx(2.0)

    def test_records_carry_parent_and_depth(self, clock):
        profiler = SpanProfiler()
        run = profiler.open_span("run")
        child = profiler.open_span("child", index=3)
        profiler.close_span(child)
        profiler.close_span(run)
        by_name = {r["name"]: r for r in profiler.records}
        assert by_name["child"]["parent"] == run
        assert by_name["child"]["depth"] == 1
        assert by_name["child"]["attrs"] == {"index": 3}
        assert by_name["run"]["parent"] is None
        assert by_name["run"]["depth"] == 0

    def test_context_manager_and_note(self, clock):
        profiler = SpanProfiler()
        with profiler.span("phase", kind="test") as span:
            span.note(extra=7)
        record = profiler.records[0]
        assert record["attrs"] == {"kind": "test", "extra": 7}
        assert profiler.open_depth == 0

    def test_close_attrs_merge(self, clock):
        profiler = SpanProfiler()
        handle = profiler.open_span("sift", reason="auto")
        profiler.close_span(handle, swaps=12)
        assert profiler.records[0]["attrs"] == {"reason": "auto",
                                                "swaps": 12}


class TestForcedClose:
    """Exception safety: an ancestor close pops the children too."""

    def test_ancestor_close_force_closes_children(self, clock):
        profiler = SpanProfiler()
        outer = profiler.open_span("outer")
        inner = profiler.open_span("inner")
        clock.now = 2.0
        profiler.close_span(outer)
        assert profiler.open_depth == 0
        assert profiler.aggregates["inner"]["count"] == 1
        assert profiler.aggregates["outer"]["count"] == 1
        # Closing the already-force-closed child later is a no-op.
        profiler.close_span(inner)
        assert profiler.aggregates["inner"]["count"] == 1

    def test_close_none_and_unknown_handles_are_noops(self, clock):
        profiler = SpanProfiler()
        profiler.close_span(None)
        profiler.close_span(999)
        assert profiler.records == []


class TestMaxRecords:
    def test_aggregates_exact_past_cap(self, clock):
        profiler = SpanProfiler(max_records=2)
        for _ in range(5):
            handle = profiler.open_span("op")
            profiler.close_span(handle)
        assert len(profiler.records) == 2
        assert profiler.dropped == 3
        assert profiler.aggregates["op"]["count"] == 5
        assert profiler.to_chrome_trace()["otherData"]["dropped_spans"] \
            == 3


class TestExporters:
    def _profiled(self, clock):
        profiler = SpanProfiler()
        run = profiler.open_span("run")
        clock.now = 0.5
        a = profiler.open_span("iteration", index=0)
        clock.now = 1.5
        profiler.close_span(a)
        b = profiler.open_span("iteration", index=1)
        clock.now = 2.0
        profiler.close_span(b)
        profiler.close_span(run)
        return profiler

    def test_chrome_trace_is_valid_trace_event_json(self, clock,
                                                    tmp_path):
        profiler = self._profiled(clock)
        path = tmp_path / "trace.json"
        profiler.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        for event in xs:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid",
                                  "tid", "args"}
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        iteration = [e for e in xs if e["name"] == "iteration"]
        assert iteration[0]["args"]["index"] == 0
        # ts/dur are microseconds.
        assert iteration[0]["ts"] == pytest.approx(0.5e6)
        assert iteration[0]["dur"] == pytest.approx(1.0e6)

    def test_speedscope_profile_replays_balanced(self, clock, tmp_path):
        profiler = self._profiled(clock)
        path = tmp_path / "profile.speedscope.json"
        profiler.write_speedscope(str(path), name="test run")
        doc = json.loads(path.read_text())
        assert doc["$schema"].endswith("file-format-schema.json")
        profile = doc["profiles"][0]
        assert profile["type"] == "evented"
        assert profile["unit"] == "seconds"
        stack = []
        last_at = 0.0
        for event in profile["events"]:
            assert event["at"] >= last_at
            last_at = event["at"]
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert event["type"] == "C"
                assert stack and stack[-1] == event["frame"]
                stack.pop()
        assert stack == []
        names = {frame["name"] for frame in doc["shared"]["frames"]}
        assert names == {"run", "iteration"}

    def test_render_rollup(self, clock):
        profiler = self._profiled(clock)
        text = render_rollup(profiler.rollup())
        assert "span rollup" in text
        assert "run" in text and "iteration" in text
        assert render_rollup({}) == "span rollup: (no spans recorded)"


class TestVerifyIntegration:
    def test_profiled_run_carries_rollup(self):
        profiler = SpanProfiler()
        result = verify(_problem(), "xici", Options(spans=profiler))
        assert result.verified
        rollup = result.span_rollup
        assert rollup is not None
        assert {"run", "iteration", "back_image"} <= set(rollup)
        assert rollup["run"]["count"] == 1
        assert rollup["iteration"]["count"] == result.iterations
        json.dumps(result.to_dict())  # rollup must be JSON-safe

    def test_self_times_sum_within_wall_time(self):
        profiler = SpanProfiler()
        result = verify(_problem(), "xici", Options(spans=profiler))
        self_sum = sum(agg["self_seconds"]
                       for agg in result.span_rollup.values())
        assert self_sum <= result.elapsed_seconds + 1e-3

    def test_profiler_detached_and_stack_empty_after_run(self):
        profiler = SpanProfiler()
        problem = _problem()
        verify(problem, "xici", Options(spans=profiler))
        assert profiler.open_depth == 0
        assert problem.machine.manager.probe is NULL_PROBE

    def test_unprofiled_result_has_no_rollup(self):
        result = verify(_problem(), "xici", Options())
        assert result.span_rollup is None
        assert "span_rollup" not in result.to_dict()

    @pytest.mark.parametrize("method", ["fwd", "bkwd", "fd", "ici"])
    def test_all_engines_emit_iteration_spans(self, method):
        problem = build_model("network", procs=2) if method == "fd" \
            else _problem()
        profiler = SpanProfiler()
        result = verify(problem, method, Options(spans=profiler))
        assert result.span_rollup["iteration"]["count"] >= 1

    def test_termination_and_merge_spans_on_xici(self):
        profiler = SpanProfiler()
        problem = build_model("fifo", depth=3, width=4)
        verify(problem, "xici", Options(spans=profiler))
        names = set(profiler.rollup())
        assert "termination_test" in names
        assert "merge_round" in names


class TestCliSpans:
    def test_spans_file_and_summary(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "trace.json"
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici",
                     "--spans", str(path), "--spans-summary"])
        assert code == 0
        out = capsys.readouterr().out
        assert "span rollup" in out
        doc = json.loads(path.read_text())
        assert any(e.get("name") == "run"
                   for e in doc["traceEvents"])

    def test_speedscope_suffix_selects_speedscope(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        path = tmp_path / "run.speedscope.json"
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici",
                     "--spans", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert "speedscope" in doc["$schema"]
