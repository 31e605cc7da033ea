"""Periodic resource snapshots at the manager's library safe points.

External-memory BDD engines (Adiar) and IC3 convergence studies both
show that per-operation instrumentation plus *tracked iterate metrics*
are what make such engines tunable; the :class:`ResourceSampler` is the
tracked-metrics half.  The run's :class:`~repro.obs.probe.Probe`
drives it: at the safe points of :meth:`repro.bdd.BDD.auto_collect` —
every call site there already guarantees that no raw integer edges are
held across the call, so a sampler walking the live structure can never
observe a half-built state — after every garbage collection, and (a
forced sample) at every iterate boundary.

Each sample is one flat JSON-safe dict (see :data:`SAMPLE_FIELDS`)
appended to the owning registry's timeline; the JSONL exporter streams
them out, ``benchmarks/trace_report.py --metrics`` folds them into the
per-iteration table.

Sampling is observational only and rate-limited: ``min_interval``
seconds must pass between periodic samples (forced samples ignore the
clock but still count toward ``max_samples``), so instrumented-run
overhead stays bounded no matter how hot the safe points are.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional

from .registry import MetricsRegistry

__all__ = ["ResourceSampler", "read_rss_kb", "SAMPLE_FIELDS"]

#: Where the Linux point-in-time RSS lives; a module constant so tests
#: can monkeypatch the /proc path away and exercise the fallback.
_PROC_STATUS = "/proc/self/status"

#: The keys every timeline sample carries (documentation + tests).
SAMPLE_FIELDS = (
    "t", "kind", "reason", "wall_seconds", "cpu_seconds", "rss_kb",
    "nodes_allocated", "nodes_live", "nodes_peak", "unique_entries",
    "num_levels", "max_level_size", "cache_hits", "cache_misses",
    "cache_hit_rate", "conjunct_lengths")

#: stats() keys summed into the aggregate op-cache hit/miss numbers.
_HIT_KEYS = ("ite_hits", "quantify_hits", "and_exists_hits",
             "restrict_hits", "constrain_hits")
_MISS_KEYS = ("ite_misses", "quantify_misses", "and_exists_misses",
              "restrict_misses", "constrain_misses")


def read_rss_kb() -> Optional[int]:
    """Resident set size in KiB, or None when unmeasurable.

    Reads ``/proc/self/status`` (Linux) for a point-in-time value; no
    psutil dependency.  Where /proc is absent (macOS, BSDs) it falls
    back to ``resource.getrusage`` — note ``ru_maxrss`` is a *high-water
    mark*, not point-in-time, so a fallback timeline is monotone (the
    exporters still get a usable memory figure on every platform).
    """
    try:
        with open(_PROC_STATUS, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        return None
    if peak <= 0:
        return None
    # ru_maxrss is bytes on macOS, KiB on Linux/BSD.
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


class ResourceSampler:
    """Snapshots wall/CPU time, RSS, and manager state into a registry.

    :meth:`install` and :meth:`uninstall` bracket the observed region
    with its first and last sample; in between, whoever owns the
    sampler (the run's probe) calls :meth:`maybe_sample` and
    :meth:`sample`.  The sampler never attaches itself to the manager.
    """

    def __init__(self, manager: "Any", registry: MetricsRegistry,
                 min_interval: float = 0.05,
                 max_samples: int = 10_000) -> None:
        self.manager = manager
        self.registry = registry
        self.min_interval = min_interval
        self.max_samples = max_samples
        self._t0 = time.monotonic()
        self._cpu0 = time.process_time()
        self._last_sample_at = -float("inf")
        self._installed = False
        self._stats_prev: Optional[Dict[str, int]] = None
        #: Samples dropped because max_samples was reached — exported
        #: so a truncated timeline never silently reads as complete.
        self.dropped = 0

    # -- lifecycle ------------------------------------------------------

    def install(self) -> None:
        """Open the timeline with its first sample."""
        if self._installed:
            return
        self._installed = True
        self.sample(reason="install")

    def uninstall(self) -> None:
        """Close the timeline with a final sample."""
        if not self._installed:
            return
        self.sample(reason="uninstall")
        self._installed = False
        self.registry.gauge("sampler_dropped", self.dropped)

    # -- sampling -------------------------------------------------------

    def maybe_sample(self, reason: str = "safe_point") -> bool:
        """Take a sample if ``min_interval`` elapsed; returns whether."""
        now = time.monotonic()
        if now - self._last_sample_at < self.min_interval:
            return False
        self.sample(reason=reason, _now=now)
        return True

    def sample(self, reason: str = "forced",
               conjunct_lengths: Optional[list] = None,
               _now: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Take one snapshot unconditionally (subject to max_samples).

        ``conjunct_lengths`` lets the engine attach the current
        conjunct-list length(s) to an iterate-boundary sample.
        """
        if len(self.registry.samples) >= self.max_samples:
            self.dropped += 1
            return None
        now = time.monotonic() if _now is None else _now
        self._last_sample_at = now
        manager = self.manager
        stats = manager.stats()
        hits = sum(stats[key] for key in _HIT_KEYS)
        misses = sum(stats[key] for key in _MISS_KEYS)
        level_sizes = manager.level_sizes()
        sample: Dict[str, Any] = {
            "t": round(now - self._t0, 6),
            "kind": "sample",
            "reason": reason,
            "wall_seconds": round(now - self._t0, 6),
            "cpu_seconds": round(time.process_time() - self._cpu0, 6),
            "rss_kb": read_rss_kb(),
            "nodes_allocated": stats["nodes_current"],
            "nodes_live": manager.num_live_nodes(),
            "nodes_peak": stats["nodes_peak"],
            "unique_entries": len(manager._unique),
            "num_levels": len(level_sizes),
            "max_level_size": max(level_sizes, default=0),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": round(hits / (hits + misses), 6)
            if hits + misses else None,
            "conjunct_lengths": conjunct_lengths,
        }
        self.registry.record_sample(sample)
        # Keep the point-in-time gauges current so a Prometheus scrape
        # of the registry sees the latest resource state.
        registry = self.registry
        registry.inc("samples_taken")
        registry.gauge("nodes_allocated", sample["nodes_allocated"])
        registry.gauge("nodes_live", sample["nodes_live"])
        registry.gauge("nodes_peak", sample["nodes_peak"])
        registry.gauge("max_level_size", sample["max_level_size"])
        registry.gauge("cpu_seconds", sample["cpu_seconds"])
        if sample["rss_kb"] is not None:
            registry.gauge("rss_kb", sample["rss_kb"])
        if sample["cache_hit_rate"] is not None:
            registry.gauge("cache_hit_rate", sample["cache_hit_rate"])
        registry.observe_size("sampled_live_nodes", sample["nodes_live"])
        return sample
