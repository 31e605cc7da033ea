"""Live progress heartbeat and stall detection for long runs.

A fixpoint run that blows up gives no sign of life: the paper's own
"Exceeded 40 minutes" rows are the output of staring at a silent
process.  The :class:`Watchdog` is a daemon thread that prints one
progress line per ``interval`` seconds to stderr — elapsed time, the
current iteration, the frontier (iterate) size, the per-iteration rate
and the remaining time budget — and flags a **stall** when the engine
reaches no library safe point within ``stall_window`` seconds (a sign
it is stuck inside one monstrous BDD operation).

Thread-safety discipline: the engine thread only *writes* primitive
snapshot state (:meth:`beat` swaps in a fresh dict, :meth:`touch`
stamps a float) and the watchdog thread only *reads* it — single
attribute loads and stores, atomic under the GIL.  The watchdog never
touches BDD structures, so it cannot observe a half-built manager no
matter when it wakes.

Wiring (all opt-in, via ``Options(heartbeat=SECS)`` / CLI
``--heartbeat SECS``):

* :class:`~repro.core.result.RunRecorder` creates the watchdog and
  hands it to the run's :class:`~repro.obs.probe.Probe`, which starts
  and stops it and calls :meth:`beat` at every iterate boundary;
* :meth:`repro.bdd.BDD.auto_collect` — the library safe points —
  calls :meth:`touch` through the probe, so progress is visible even
  mid-iteration.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, Optional

__all__ = ["Watchdog"]


class Watchdog:
    """Heartbeat thread: progress lines to stderr, stall warnings.

    ``interval`` is the seconds between progress lines;
    ``stall_window`` (default ``max(5 * interval, 30)``) is how long
    the engine may go without reaching a safe point before the line
    turns into a STALL warning.  ``stream`` defaults to the *current*
    ``sys.stderr`` at print time, so redirection (and pytest capture)
    works.
    """

    def __init__(self, interval: float,
                 stall_window: Optional[float] = None,
                 time_limit: Optional[float] = None,
                 label: str = "",
                 stream: Any = None,
                 clock=time.monotonic) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.interval = float(interval)
        self.stall_window = (float(stall_window) if stall_window
                             else max(5.0 * self.interval, 30.0))
        if self.stall_window <= 0:
            raise ValueError("stall window must be positive")
        self.time_limit = time_limit
        self.label = label
        self._stream = stream
        self._clock = clock
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = clock()
        self._last_progress = self._t0
        self._state: Dict[str, Any] = {}
        #: How many iterate boundaries reported in (engine thread).
        self.beats = 0
        #: How many safe points stamped progress (engine thread).
        self.safe_points = 0
        #: Stall warnings emitted (watchdog thread).
        self.stalls = 0
        #: Progress lines printed, stalls included (watchdog thread).
        self.lines_emitted = 0

    # -- engine-side signals (cheap; called from hot-ish paths) ---------

    def touch(self) -> None:
        """Stamp liveness from a library safe point."""
        self.safe_points += 1
        self._last_progress = self._clock()

    def beat(self, **state: Any) -> None:
        """Report iterate-boundary progress (iteration, nodes, ...).

        The new state dict is built fresh and swapped in with one
        store, so the watchdog thread always reads a complete snapshot.
        """
        merged = dict(self._state)
        merged.update(state)
        self._state = merged
        self.beats += 1
        self._last_progress = self._clock()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=self.interval + 1.0)
        self._thread = None

    def __enter__(self) -> "Watchdog":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.emit()

    # -- reporting (watchdog thread; public for deterministic tests) ----

    def format_line(self) -> str:
        """One progress (or stall) line for the current snapshot."""
        now = self._clock()
        elapsed = now - self._t0
        quiet = now - self._last_progress
        prefix = "[repro:heartbeat]"
        if self.label:
            prefix += f" {self.label}:"
        if quiet > self.stall_window:
            self.stalls += 1
            return (f"{prefix} STALL — no safe point for {quiet:.1f}s "
                    f"(window {self.stall_window:.1f}s); the engine may "
                    "be stuck inside one BDD operation")
        state = self._state  # one read: a complete snapshot dict
        iteration = state.get("iteration")
        nodes = state.get("nodes")
        parts = [f"{elapsed:.1f}s"]
        if iteration is None:
            parts.append("starting")
        else:
            parts.append(f"iter {iteration}")
            if nodes is not None:
                parts.append(f"frontier {nodes} nodes")
            if iteration > 0:
                parts.append(f"{elapsed / iteration:.2f} s/iter")
        if self.time_limit is not None:
            remaining = self.time_limit - elapsed
            parts.append(f"ETA budget {remaining:.0f}s"
                         if remaining > 0 else "ETA budget exhausted")
        return f"{prefix} " + ", ".join(parts)

    def emit(self) -> None:
        """Print one line; never raises into the daemon loop."""
        line = self.format_line()
        self.lines_emitted += 1
        stream = self._stream if self._stream is not None else sys.stderr
        try:
            print(line, file=stream, flush=True)
        except Exception:
            pass
