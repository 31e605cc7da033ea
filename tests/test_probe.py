"""Tests for the probe (repro.obs.probe), the one instrumentation channel.

Pinned here: the disabled probe never measures anything; one closed
span reaches every attached sink exactly once; collections report to
both the tracer and the resource sampler; and a run that dies of an
unexpected exception still leaves the manager as it found it.
"""

import functools
import io
import threading

import pytest

import repro
import repro.obs.probe as probe_mod
from repro import MetricsRegistry, Options, RecordingTracer, SpanProfiler
from repro.bdd import BDD, Function
from repro.obs import ResourceSampler, Watchdog
from repro.obs.probe import NULL_PROBE, Probe
from repro.trace import BACK_IMAGE, GC


def _manager():
    manager = BDD()
    for name in "abcd":
        manager.new_var(name)
    return manager


@pytest.fixture
def size_calls(monkeypatch):
    calls = []
    original = Function.size

    def counting_size(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Function, "size", counting_size)
    return calls


class TestNullProbe:
    def test_disabled_and_shares_one_span(self):
        assert not NULL_PROBE.enabled
        assert NULL_PROBE.span("a") is NULL_PROBE.span("b")

    def test_never_measures_a_bdd(self, size_calls):
        manager = _manager()
        fn = manager.var("a") & manager.var("b")
        NULL_PROBE.span("back_image", input=fn).note(output=fn)
        with NULL_PROBE.span("back_image", mode="compose", input=fn) as s:
            s.note(output=fn)
        NULL_PROBE.event("iterate", index=0, nodes=3, profile="3",
                         conjuncts=[fn])
        assert size_calls == []

    def test_manager_default_and_build_without_sinks(self):
        manager = _manager()
        assert manager.probe is NULL_PROBE
        assert Probe.build(manager) is NULL_PROBE

    def test_watchdog_only_probe_beats_but_records_nothing(self):
        manager = _manager()
        watchdog = Watchdog(interval=3600.0)
        probe = Probe.build(manager, watchdog=watchdog)
        assert probe is not NULL_PROBE and not probe.enabled
        assert probe.span("back_image") is NULL_PROBE.span("x")
        probe.event("iterate", index=0, nodes=3, profile="3",
                    conjuncts=None)
        probe.safe_point()
        assert (watchdog.beats, watchdog.safe_points) == (1, 1)


class TestLiveProbe:
    def test_one_back_image_span_reaches_every_sink_once(self):
        manager = _manager()
        fn = manager.var("a") & manager.var("b")
        tracer, metrics, spans = (RecordingTracer(), MetricsRegistry(),
                                  SpanProfiler())
        probe = Probe(manager, tracer, metrics, spans)
        with probe.span("back_image", mode="compose", input=fn) as s:
            s.note(output=~fn)
        assert [record["name"] for record in spans.records] \
            == ["back_image"]
        assert spans.records[0]["attrs"] == {
            "mode": "compose", "input_size": fn.size(),
            "output_size": fn.size()}
        assert metrics.counters == {"back_image_calls": 1}
        assert {name: hist.count
                for name, hist in metrics.histograms.items()} \
            == {"back_image_seconds": 1, "back_image_output_nodes": 1}
        assert [event["event"] for event in tracer.events] == [BACK_IMAGE]
        assert set(tracer.events[0]) == {"t", "event", "mode",
                                         "input_size", "output_size",
                                         "seconds"}

    def test_span_left_by_an_exception_reports_only_its_record(self):
        tracer, metrics, spans = (RecordingTracer(), MetricsRegistry(),
                                  SpanProfiler())
        probe = Probe(_manager(), tracer, metrics, spans)
        with pytest.raises(RuntimeError):
            with probe.span("back_image", mode="compose"):
                raise RuntimeError("boom")
        assert [record["name"] for record in spans.records] \
            == ["back_image"]
        assert spans.open_depth == 0
        assert metrics.counters == {} and tracer.events == []

    def test_collection_yields_trace_event_and_sampler_sample(
            self, monkeypatch):
        # Without the rate limit, every collection takes a sample.
        monkeypatch.setattr(probe_mod, "ResourceSampler", functools.partial(
            ResourceSampler, min_interval=0.0))
        tracer, metrics = RecordingTracer(), MetricsRegistry()
        problem = repro.build_model("fifo", depth=3)
        result = repro.verify(problem, "xici", Options(
            tracer=tracer, metrics=metrics, gc_min_nodes=1))
        assert result.verified
        gc_events = tracer.events_of(GC)
        gc_samples = [sample for sample in metrics.samples
                      if sample["reason"] == "gc"]
        assert gc_events
        assert len(gc_samples) == len(gc_events)
        assert [event["epoch"] for event in gc_events] \
            == list(range(1, len(gc_events) + 1))


class _FailingTracer(RecordingTracer):
    """Raises on the first back-image report, as a broken sink would."""

    def emit(self, event, **fields):
        if event == BACK_IMAGE:
            raise RuntimeError("sink failed")
        super().emit(event, **fields)


def _heartbeat_threads():
    return [thread for thread in threading.enumerate()
            if thread.name == "repro-heartbeat" and thread.is_alive()]


class TestEveryExitPath:
    def test_unexpected_exception_leaves_the_manager_as_found(self):
        problem = repro.build_model("movavg", depth=4, width=4)
        manager = problem.machine.manager
        budgets = (manager.max_nodes, manager._deadline,
                   manager.auto_gc_min_nodes, manager.auto_sift_trigger)
        with pytest.raises(RuntimeError, match="sink failed"):
            repro.verify(problem, "xici", Options(
                tracer=_FailingTracer(), spans=SpanProfiler(),
                time_limit=60.0, max_nodes=10_000_000, heartbeat=0.05,
                heartbeat_stream=io.StringIO()))
        assert (manager.max_nodes, manager._deadline,
                manager.auto_gc_min_nodes,
                manager.auto_sift_trigger) == budgets
        assert manager.probe is NULL_PROBE
        assert _heartbeat_threads() == []
        assert repro.verify(problem, "xici", Options()).verified

