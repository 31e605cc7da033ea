"""Tests for the heartbeat watchdog (repro.obs.watchdog).

The formatting and stall logic are tested deterministically with an
injected clock and a StringIO stream; one short real-thread test and
one end-to-end edge-identity check cover the wiring.
"""

import io
import json
import time

import pytest

from repro.core import Options, verify
from repro.models import build_model
from repro.obs import Watchdog
from repro.obs.probe import NULL_PROBE


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _watchdog(**kwargs):
    clock = _Clock()
    stream = io.StringIO()
    kwargs.setdefault("interval", 1.0)
    kwargs.setdefault("stall_window", 10.0)
    wd = Watchdog(stream=stream, clock=clock, **kwargs)
    return wd, clock, stream


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Watchdog(interval=0)
        with pytest.raises(ValueError):
            Watchdog(interval=-1.0)

    def test_stall_window_defaults_generously(self):
        assert Watchdog(interval=2.0).stall_window == 30.0
        assert Watchdog(interval=60.0).stall_window == 300.0


class TestFormatLine:
    def test_before_first_beat_says_starting(self):
        wd, clock, _ = _watchdog()
        clock.now = 3.0
        line = wd.format_line()
        assert line.startswith("[repro:heartbeat]")
        assert "3.0s" in line
        assert "starting" in line

    def test_progress_line_after_beat(self):
        wd, clock, _ = _watchdog(label="XICI/fifo")
        clock.now = 6.0
        wd.beat(iteration=3, nodes=120)
        line = wd.format_line()
        assert "XICI/fifo:" in line
        assert "iter 3" in line
        assert "frontier 120 nodes" in line
        assert "2.00 s/iter" in line

    def test_eta_from_time_limit(self):
        wd, clock, _ = _watchdog(time_limit=100.0)
        clock.now = 40.0
        wd.touch()
        assert "ETA budget 60s" in wd.format_line()
        clock.now = 150.0
        wd.touch()
        assert "ETA budget exhausted" in wd.format_line()

    def test_stall_when_no_safe_point_within_window(self):
        wd, clock, _ = _watchdog(stall_window=10.0)
        clock.now = 11.0
        line = wd.format_line()
        assert "STALL" in line
        assert "no safe point for 11.0s" in line
        assert wd.stalls == 1
        # A safe point clears the stall.
        wd.touch()
        assert "STALL" not in wd.format_line()

    def test_beat_also_clears_stall(self):
        wd, clock, _ = _watchdog(stall_window=10.0)
        clock.now = 11.0
        wd.beat(iteration=1)
        assert "STALL" not in wd.format_line()


class TestEmit:
    def test_emit_writes_one_flushed_line(self):
        wd, _clock, stream = _watchdog()
        wd.emit()
        assert stream.getvalue().startswith("[repro:heartbeat]")
        assert wd.lines_emitted == 1

    def test_emit_survives_a_broken_stream(self):
        class Broken:
            def write(self, *_a):
                raise OSError("closed")

        wd = Watchdog(interval=1.0, stream=Broken(), clock=_Clock())
        wd.emit()  # must not raise
        assert wd.lines_emitted == 1

    def test_thread_lifecycle_and_periodic_emission(self):
        stream = io.StringIO()
        wd = Watchdog(interval=0.02, stall_window=10.0, stream=stream)
        wd.start()
        wd.start()  # idempotent
        time.sleep(0.1)
        wd.stop()
        wd.stop()  # idempotent
        assert wd.lines_emitted >= 1
        assert stream.getvalue().count("[repro:heartbeat]") \
            == wd.lines_emitted

    def test_context_manager(self):
        with Watchdog(interval=5.0, stream=io.StringIO()) as wd:
            assert wd._thread is not None
        assert wd._thread is None


class TestVerifyIntegration:
    def _problem(self):
        return build_model("movavg", depth=2, width=4)

    def _comparable(self, result):
        data = result.to_dict()
        data.pop("elapsed_seconds", None)
        data.pop("time", None)
        return json.dumps(data, sort_keys=True, default=str)

    def test_heartbeat_run_is_edge_identical(self):
        # Interval far beyond the runtime: the thread exists but never
        # prints; the result must match a bare run byte for byte.
        monitored = verify(self._problem(), "xici",
                           Options(heartbeat=3600.0))
        plain = verify(self._problem(), "xici", Options())
        assert self._comparable(monitored) == self._comparable(plain)

    def test_manager_heartbeat_slot_restored(self):
        problem = self._problem()
        verify(problem, "xici", Options(heartbeat=3600.0))
        assert problem.machine.manager.probe is NULL_PROBE

    def test_watchdog_sees_beats_and_safe_points(self):
        problem = self._problem()
        options = Options(heartbeat=3600.0)
        result = verify(problem, "xici", options)
        assert result.verified

    def test_invalid_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            Options(heartbeat=-1.0).validate()
        with pytest.raises(ValueError):
            Options(heartbeat=1.0, heartbeat_stall=0.0).validate()
