"""Implicit-conjunction machinery — the paper's core contribution (S4).

* :class:`ConjList` — an implicitly conjoined list of BDDs with the
  Section II.C care-set simplification.
* :func:`greedy_evaluate` — the Figure 1 evaluation policy.
* :func:`optimal_pairwise_cover` — Theorem 2 (min-weight matching).
* :class:`TautologyChecker` — implicit-disjunction tautology engine
  (Section III.B Steps 1-4 with the Theorem 3 optimization).
* :func:`lists_equal` / :func:`implies_list` — the exact termination
  test.
"""

from .conjlist import ConjList
from .evaluate import EvaluationStats, GROW_THRESHOLD, greedy_evaluate
from .cover import PairwiseCover, apply_cover, matching_evaluate, \
    optimal_pairwise_cover
from .tautology import TautologyChecker, TautologyStats, VAR_CHOICES
from .compare import implies_list, lists_equal
from .decompose import decompose_conjunction

__all__ = [
    "ConjList",
    "EvaluationStats",
    "GROW_THRESHOLD",
    "greedy_evaluate",
    "PairwiseCover",
    "apply_cover",
    "matching_evaluate",
    "optimal_pairwise_cover",
    "TautologyChecker",
    "TautologyStats",
    "VAR_CHOICES",
    "implies_list",
    "lists_equal",
    "decompose_conjunction",
]
