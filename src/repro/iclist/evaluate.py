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

Pricing a pair is exactly the paper's formula: ``count_nodes`` of the
pair, the product ``Xi & Xj`` and the product's ``size()``.  Every
round prices every pair again, as Figure 1 writes it, and the
manager's computed tables make the repeats cheap: until the next
garbage collection, a pair priced before — in an earlier round or an
earlier fixpoint iteration — finds its product in the ITE table and
both node counts in the count table.  :func:`~repro.bdd.bounded_and`
keeps no table between calls, so bounded mode reruns its recursion for
every pair in every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bdd.bounded import bounded_and
from ..obs.probe import NULL_PROBE, Probe
from .conjlist import ConjList

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

    #: Pairs priced, one per pair per merge round — including the
    #: pairs whose product was a computed-table hit.
    pairs_built: int = 0
    #: Pairs whose bounded conjunction aborted (bounded mode only).
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


def greedy_evaluate(conjlist: ConjList,
                    grow_threshold: float = GROW_THRESHOLD,
                    use_bounded: bool = False,
                    bound_factor: float = 4.0,
                    stats: Optional[EvaluationStats] = None,
                    probe: Probe = NULL_PROBE) -> EvaluationStats:
    """Run Figure 1 in place on ``conjlist``; returns statistics.

    A smaller ``grow_threshold`` "holds BDD size down, but can get
    caught in a local minimum, whereas any threshold greater than 1
    could theoretically allow us to build exponentially-sized BDDs" —
    the GrowThreshold ablation bench sweeps this knob.

    Each merge round is one ``merge_round`` span on ``probe``.  An
    accepted merge notes the winning ratio, the pair's shared size, the
    product size and the list length after the merge.  Observing never
    changes which merges happen.
    """
    if stats is None:
        stats = EvaluationStats()
    if len(conjlist) < 2:
        return stats
    manager = conjlist.manager
    conjuncts = conjlist.conjuncts
    while len(conjuncts) >= 2:
        with probe.span("merge_round") as round_span:
            # Safe point: all live BDDs are held as Functions here.
            manager.auto_collect()
            best_ratio = math.inf
            best = None
            n = len(conjuncts)
            for i in range(n):
                xi = conjuncts[i]
                for j in range(i + 1, n):
                    xj = conjuncts[j]
                    pair_size = manager.count_nodes((xi, xj))
                    if use_bounded:
                        bound = max(16, int(bound_factor * grow_threshold
                                            * pair_size))
                        product = bounded_and(xi, xj, bound)
                        if product is None:
                            stats.pairs_aborted += 1
                            continue
                    else:
                        product = xi & xj
                    stats.pairs_built += 1
                    product_size = product.size()
                    ratio = product_size / pair_size
                    if ratio < best_ratio:
                        best_ratio = ratio
                        best = (i, j, product, product_size, pair_size)
            if best is None or best_ratio > grow_threshold:
                round_span.note(merged=False, list_length=len(conjuncts))
                break
            stats.merges += 1
            stats.record_ratio(best_ratio)
            # Replace Xi and Xj with Pij.
            i, j, product, product_size, pair_size = best
            conjuncts[i] = product
            del conjuncts[j]
            round_span.note(merged=True, ratio=best_ratio,
                            pair_size=pair_size, product_size=product_size,
                            list_length=len(conjuncts))
    # Re-normalize (the product might have produced constants/duplicates).
    rebuilt = ConjList(conjlist.manager, conjuncts)
    conjlist.conjuncts = rebuilt.conjuncts
    return stats
