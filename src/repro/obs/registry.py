"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The DAC 1994 technique lives or dies by *sizes over time* — conjunct
node counts, Restrict/AND work, tautology-tier hits, sift savings.
This module is the single sink those numbers flow into: engines and the
BDD manager report through the run's :class:`~repro.obs.probe.Probe`,
which records into a :class:`MetricsRegistry`; exporters
(:mod:`repro.obs.exporters`) turn one registry into a JSONL timeline, a
Prometheus textfile, or a terminal report.

The hot-path contract mirrors :mod:`repro.trace`:

* Metrics are **observational only** — an instrumented run and a bare
  run produce edge-identical verification results; nothing here may
  touch BDDs or influence control flow.
* The default :class:`NullRegistry` costs ~nothing: a run without a
  registry reports to a probe that never computes a value (a size
  walk, a ``time.perf_counter()`` pair) only to throw it away.

Histograms use **fixed bucket edges** (:data:`TIME_BUCKETS_S`,
:data:`SIZE_BUCKETS`, :data:`RATIO_BUCKETS`) so that two runs — or two
commits — are always bucket-compatible: a regression gate can compare
distributions without re-binning.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Histogram", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
           "TIME_BUCKETS_S", "SIZE_BUCKETS", "RATIO_BUCKETS"]

#: Edges (upper bounds, seconds) for operation/phase timing histograms.
TIME_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Edges (upper bounds, node counts) for BDD-size histograms: powers of
#: two from 1 to 2^20, matching how table blowups are usually eyeballed.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(1 << k) for k in range(21))

#: Edges for the greedy evaluator's merge ratios (Figure 1's ``r``);
#: GrowThreshold defaults to 1.5, so the interesting mass is near 1.0.
RATIO_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    ``edges`` are upper bounds of the finite buckets, strictly
    increasing; one implicit overflow bucket catches everything above
    the last edge.  Bucket counts are *non-cumulative* here; the
    Prometheus exporter cumulates them on the way out.
    """

    __slots__ = ("edges", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram edges must be strictly increasing")
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.bucket_counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper edge of the q-th bucket).

        Exact enough for reports; the overflow bucket answers with the
        observed maximum when known (a histogram rebuilt from a
        Prometheus scrape has no exact max — the last finite edge is
        the honest lower bound then).
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.bucket_counts):
            running += bucket
            if running >= target:
                if index < len(self.edges):
                    return self.edges[index]
                break
        return self.max if self.max is not None else self.edges[-1]

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`as_dict` output (or from a
        parsed Prometheus scrape, where min/max are unknown)."""
        hist = cls(data["edges"])
        counts = [int(c) for c in data.get("bucket_counts", [])]
        if len(counts) != len(hist.bucket_counts):
            raise ValueError("bucket_counts does not match edges")
        hist.bucket_counts = counts
        hist.count = int(data.get("count", sum(counts)))
        hist.total = float(data.get("sum", 0.0))
        hist.min = None if data.get("min") is None else float(data["min"])
        hist.max = None if data.get("max") is None else float(data["max"])
        return hist

    def as_dict(self) -> Dict[str, Any]:
        return {"edges": list(self.edges),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean}


class _PhaseTimer:
    """Context manager produced by :meth:`MetricsRegistry.phase`."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._registry.observe_time(f"phase_{self._name}_seconds",
                                    time.perf_counter() - self._t0)


class _NullPhaseTimer:
    """Shared no-op context manager for the null registry."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_PHASE_TIMER = _NullPhaseTimer()


class NullRegistry:
    """The do-nothing registry (the default everywhere).

    Mirrors the null tracer's contract: :attr:`enabled` is False and
    every method is an empty no-op.
    """

    enabled: bool = False

    def inc(self, name: str, value: int = 1) -> None:
        """Increment a counter (no-op)."""

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (no-op)."""

    def observe(self, name: str, value: float,
                edges: Sequence[float] = SIZE_BUCKETS) -> None:
        """Record a histogram sample (no-op)."""

    def observe_time(self, name: str, seconds: float) -> None:
        """Record a timing sample (no-op)."""

    def observe_size(self, name: str, nodes: float) -> None:
        """Record a size sample (no-op)."""

    def observe_ratio(self, name: str, ratio: float) -> None:
        """Record a ratio sample (no-op)."""

    def phase(self, name: str) -> _NullPhaseTimer:
        """Time a phase (no-op context manager, shared instance)."""
        return _NULL_PHASE_TIMER

    def record_sample(self, sample: Dict[str, Any]) -> None:
        """Append a timeline sample (no-op)."""

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """Null registries have nothing to report."""
        return None


#: Shared do-nothing instance; code paths use this when options carry
#: no registry so the emit sites never need a None check.
NULL_REGISTRY = NullRegistry()


class MetricsRegistry(NullRegistry):
    """A live metrics sink: named counters, gauges, histograms, samples.

    One registry spans one region of interest — typically one
    verification run (``Options(metrics=...)``) or one benchmark
    process.  All mutators are O(1); nothing is aggregated until
    :meth:`snapshot` or an exporter asks.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Timeline samples appended by the :class:`ResourceSampler`
        #: (and anything else with a timestamped dict to contribute).
        self.samples: List[Dict[str, Any]] = []

    # -- mutators -------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float,
                edges: Sequence[float] = SIZE_BUCKETS) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(edges)
        hist.observe(value)

    def observe_time(self, name: str, seconds: float) -> None:
        self.observe(name, seconds, edges=TIME_BUCKETS_S)

    def observe_size(self, name: str, nodes: float) -> None:
        self.observe(name, nodes, edges=SIZE_BUCKETS)

    def observe_ratio(self, name: str, ratio: float) -> None:
        self.observe(name, ratio, edges=RATIO_BUCKETS)

    def phase(self, name: str) -> _PhaseTimer:
        """Context manager timing one phase into
        ``phase_<name>_seconds``."""
        return _PhaseTimer(self, name)

    def record_sample(self, sample: Dict[str, Any]) -> None:
        self.samples.append(sample)

    # -- views ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-safe dict of everything recorded so far.

        This is what lands in :attr:`VerificationResult.metrics`; the
        timeline samples are summarized by count here (the full list is
        the JSONL exporter's job — result dicts must stay bounded).
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: hist.as_dict()
                           for name, hist in self.histograms.items()},
            "sample_count": len(self.samples),
        }
