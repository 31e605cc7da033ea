"""Conjunction evaluation — the greedy algorithm of Figure 1.

Given an implicitly conjoined list, decide which pairwise conjunctions
to *evaluate* (explicitly AND, shortening the list by one).  The paper
frames the exact problem as NP-hard Minimum Weight Cover, shows the
pairwise restriction is polynomial (Theorem 2, see
:mod:`repro.iclist.cover`), and then argues node sharing makes a greedy
heuristic the practical choice:

    Find the i, j (with i != j) that minimizes the ratio
    ``r = BDDSize(Pij) / BDDSize(Xi, Xj)`` where BDDSize of the pair
    takes node-sharing into account.  If ``r_min > GrowThreshold``
    (1.5), exit; otherwise replace Xi and Xj with Pij and repeat.

The paper's Section V additionally wishes for conjunctions that abort
once they exceed a known-useless size; ``use_bounded=True`` enables
exactly that via :func:`repro.bdd.bounded_and` — any pair whose product
overruns ``bound_factor * GrowThreshold * BDDSize(Xi, Xj)`` is priced
at infinity without being finished.

All per-pair artifacts (products, shared sizes, abort verdicts, node
counts) are memoized in a :class:`repro.iclist.paircache.PairCache`
keyed by canonical edge pairs.  Passing a persistent cache makes the
incremental structure explicit: a merge replaces one list entry, so
only the O(n) pairs involving the new product are actually built — the
O(n^2) surviving pairs hit the cache — and an engine reusing the cache
across fixpoint iterations pays nothing for conjuncts that recur
between iterates.  With no cache given, a private one is created per
call (the memoization then only spans merge rounds, matching the
original table-based implementation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bdd.manager import Function
from ..bdd.bounded import bounded_and
from ..obs.probe import NULL_PROBE, Probe
from .conjlist import ConjList
from .paircache import PairCache

__all__ = ["greedy_evaluate", "EvaluationStats", "GROW_THRESHOLD",
           "RATIO_RESERVOIR_CAP"]

#: The paper's "arbitrarily set" default, "with satisfactory results".
GROW_THRESHOLD = 1.5

#: Upper bound on retained ratio samples (see EvaluationStats.ratios).
RATIO_RESERVOIR_CAP = 256


@dataclass
class EvaluationStats:
    """Bookkeeping from one evaluation run (for the ablation benches).

    Engines accumulate into a single instance across all fixpoint
    iterations, so the per-merge ratio log must not grow without bound:
    ``ratios`` is a deterministic strided reservoir capped at
    :data:`RATIO_RESERVOIR_CAP` samples (once full, it is thinned to
    every second element and the sampling stride doubles), while exact
    count/min/max/sum summaries are always maintained.
    """

    pairs_built: int = 0
    pairs_aborted: int = 0
    merges: int = 0
    ratios: List[float] = field(default_factory=list)
    ratio_count: int = 0
    ratio_min: float = math.inf
    ratio_max: float = -math.inf
    ratio_sum: float = 0.0
    _ratio_stride: int = 1

    def record_ratio(self, ratio: float) -> None:
        """Log one accepted merge ratio (bounded memory)."""
        if self.ratio_count % self._ratio_stride == 0:
            if len(self.ratios) >= RATIO_RESERVOIR_CAP:
                del self.ratios[1::2]
                self._ratio_stride *= 2
            if self.ratio_count % self._ratio_stride == 0:
                self.ratios.append(ratio)
        self.ratio_count += 1
        self.ratio_sum += ratio
        if ratio < self.ratio_min:
            self.ratio_min = ratio
        if ratio > self.ratio_max:
            self.ratio_max = ratio

    def ratio_summary(self) -> Dict[str, float]:
        """Exact count/min/mean/max of all ratios ever recorded."""
        if self.ratio_count == 0:
            return {"count": 0, "min": 0.0, "mean": 0.0, "max": 0.0}
        return {"count": self.ratio_count,
                "min": self.ratio_min,
                "mean": self.ratio_sum / self.ratio_count,
                "max": self.ratio_max}


def _pair_product(x: Function, y: Function, use_bounded: bool,
                  bound: int, stats: EvaluationStats) -> Optional[Function]:
    if use_bounded:
        product = bounded_and(x, y, bound)
        if product is None:
            stats.pairs_aborted += 1
            return None
        stats.pairs_built += 1
        return product
    stats.pairs_built += 1
    return x & y


def greedy_evaluate(conjlist: ConjList,
                    grow_threshold: float = GROW_THRESHOLD,
                    use_bounded: bool = False,
                    bound_factor: float = 4.0,
                    stats: Optional[EvaluationStats] = None,
                    cache: Optional[PairCache] = None,
                    probe: Probe = NULL_PROBE) -> EvaluationStats:
    """Run Figure 1 in place on ``conjlist``; returns statistics.

    A smaller ``grow_threshold`` "holds BDD size down, but can get
    caught in a local minimum, whereas any threshold greater than 1
    could theoretically allow us to build exponentially-sized BDDs" —
    the GrowThreshold ablation bench sweeps this knob.

    ``cache`` is an optional persistent :class:`PairCache`; results are
    edge-identical with and without one (canonicity guarantees a cached
    product equals a recomputed one), only the amount of work differs.

    Each merge round is one ``merge_round`` span on ``probe``.  An
    accepted merge notes the winning ratio, the pair's shared size, the
    product size, whether the product came from the pair cache, and
    the list length after the merge.  Observing never changes which
    merges happen.
    """
    if stats is None:
        stats = EvaluationStats()
    if len(conjlist) < 2:
        return stats
    if cache is None:
        cache = PairCache(conjlist.manager)
    conjuncts = conjlist.conjuncts
    while len(conjuncts) >= 2:
        with probe.span("merge_round") as round_span:
            # Safe point: all live BDDs are held as Functions here.  A
            # collection renumbers edges, so the cache must resync before
            # any lookup below.
            conjlist.manager.auto_collect()
            cache.note_epoch()
            best_ratio = math.inf
            best_pair = None
            best_product: Optional[Function] = None
            best_product_size = 0
            best_pair_size = 0
            best_cached = False
            n = len(conjuncts)
            for i in range(n):
                xi = conjuncts[i]
                for j in range(i + 1, n):
                    xj = conjuncts[j]
                    key = cache.pair_key(xi, xj)
                    pair_size = cache.shared_pair_size(xi, xj)
                    bound = max(16, int(bound_factor * grow_threshold
                                        * pair_size))
                    if use_bounded:
                        known_abort = cache.aborted_at(key)
                        if known_abort is not None and known_abort >= bound:
                            # Known useless at this bound: price at infinity
                            # without re-running the recursion.
                            cache.stats.abort_hits += 1
                            continue
                    product = cache.cached_product(key)
                    was_cached = product is not None
                    if product is None:
                        product = _pair_product(xi, xj, use_bounded, bound,
                                                stats)
                        if product is None:
                            cache.record_abort(key, bound)
                            continue
                        cache.store_product(key, product)
                    product_size = cache.sizes.size(product)
                    ratio = product_size / pair_size
                    if ratio < best_ratio:
                        best_ratio = ratio
                        best_pair = (i, j)
                        best_product = product
                        best_product_size = product_size
                        best_pair_size = pair_size
                        best_cached = was_cached
            if best_pair is None or best_ratio > grow_threshold:
                round_span.note(merged=False, list_length=len(conjuncts))
                break
            stats.merges += 1
            stats.record_ratio(best_ratio)
            # Replace Xi and Xj with Pij.  Pairs among the survivors stay
            # valid in the cache; only the new product's pairs are misses
            # on the next round.
            i, j = best_pair
            conjuncts[i] = best_product
            del conjuncts[j]
            # The product was already priced during pair selection;
            # noting that size keeps an observed run's cache counters
            # identical to a bare run's.
            round_span.note(merged=True, ratio=best_ratio,
                            pair_size=best_pair_size,
                            product_size=best_product_size,
                            cached=best_cached, list_length=len(conjuncts))
    # Re-normalize (the product might have produced constants/duplicates).
    rebuilt = ConjList(conjlist.manager, conjuncts)
    conjlist.conjuncts = rebuilt.conjuncts
    return stats
