"""Optimal pairwise cover — Theorem 2, via minimum-weight matching.

The paper frames conjunction evaluation as Minimum Weight Cover
(NP-hard in general) and proves the pairwise restriction polynomial
with a matching construction credited to Eric Torng:

    Draw a complete graph with a vertex for each conjunct.  Label each
    edge with the size of the BDD for the conjunction of the BDDs on
    the two incident vertices.  Next, make a copy of each vertex.
    Connect each original vertex to its copy; label that edge with the
    minimum of the size of the BDD at that vertex and the labels of all
    other incident edges.  Connect all the copy vertices to each other
    with weight 0 edges.  Minimum weighted matching on this graph gives
    the optimum cover.

The paper immediately notes this is "of limited practical value"
because real BDD sizes do not add (node sharing) — which is why the
shipping evaluator is the greedy heuristic of Figure 1.  We implement
Theorem 2 anyway: it is part of the paper, it cross-checks the greedy
policy, and the ablation benches compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.manager import Function
from .conjlist import ConjList

__all__ = ["PairwiseCover", "optimal_pairwise_cover", "apply_cover",
           "matching_evaluate"]


@dataclass(frozen=True)
class PairwiseCover:
    """The solution: which subsets (singletons/pairs) cover the list.

    ``subsets`` holds index tuples — ``(i,)`` keeps conjunct i as is,
    ``(i, j)`` evaluates the conjunction of i and j.  ``cost`` is the
    additive-model cost the matching minimized.
    """

    subsets: Tuple[Tuple[int, ...], ...]
    cost: int


def optimal_pairwise_cover(conjlist: ConjList) -> PairwiseCover:
    """Solve min-weight pairwise cover exactly (Theorem 2).

    Needs the optional ``networkx`` dependency (``repro[cover]``).
    """
    try:
        import networkx as nx
    except ImportError as error:
        raise ImportError(
            "the matching evaluator needs networkx; install the "
            "optional extra with: pip install 'repro[cover]'") from error
    conjuncts = conjlist.conjuncts
    n = len(conjuncts)
    if n == 0:
        return PairwiseCover(subsets=(), cost=0)
    if n == 1:
        return PairwiseCover(subsets=((0,),), cost=conjuncts[0].size())
    pair_size: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair_size[(i, j)] = (conjuncts[i] & conjuncts[j]).size()
    graph = nx.Graph()
    # Originals are 0..n-1; copies are n..2n-1.
    for (i, j), weight in pair_size.items():
        graph.add_edge(i, j, weight=weight)
    self_label: Dict[int, int] = {}
    best_partner: Dict[int, Optional[int]] = {}
    for i in range(n):
        label = conjuncts[i].size()
        partner: Optional[int] = None
        for j in range(n):
            if j == i:
                continue
            key = (i, j) if i < j else (j, i)
            if pair_size[key] < label:
                label = pair_size[key]
                partner = j
        self_label[i] = label
        best_partner[i] = partner
        graph.add_edge(i, n + i, weight=label)
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(n + i, n + j, weight=0)
    matching = nx.min_weight_matching(graph)
    subsets: List[Tuple[int, ...]] = []
    cost = 0
    for u, v in matching:
        if u > v:
            u, v = v, u
        if v < n:
            subsets.append((u, v))
            cost += pair_size[(u, v)]
        elif u < n:
            # Matched to its copy: cheapest inclusion of u alone.
            cost += self_label[u]
            partner = best_partner[u]
            if partner is None:
                subsets.append((u,))
            else:
                key = (u, partner) if u < partner else (partner, u)
                subsets.append(key)
        # copy-copy edges contribute nothing
    return PairwiseCover(subsets=tuple(subsets), cost=cost)


def apply_cover(conjlist: ConjList, cover: PairwiseCover) -> ConjList:
    """Evaluate the cover's pair subsets, producing a new list."""
    conjuncts = conjlist.conjuncts
    products: List[Function] = []
    for subset in cover.subsets:
        if len(subset) == 1:
            products.append(conjuncts[subset[0]])
        else:
            i, j = subset
            products.append(conjuncts[i] & conjuncts[j])
    return ConjList(conjlist.manager, products)


def matching_evaluate(conjlist: ConjList) -> None:
    """Drop-in alternative to the greedy evaluator: one exact pairwise
    cover step, applied in place (for the ablation benches)."""
    cover = optimal_pairwise_cover(conjlist)
    result = apply_cover(conjlist, cover)
    conjlist.conjuncts = result.conjuncts
