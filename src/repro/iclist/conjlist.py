"""Implicitly conjoined lists of BDDs — the paper's central data type.

A :class:`ConjList` represents the conjunction ``X1 and ... and Xn``
without ever building the (presumably huge) BDD for the whole product.
The representation is *not canonical*; all the interesting machinery of
the paper exists to manipulate and compare these lists anyway:

* :meth:`simplify` — the don't-care optimization of Section II.C: each
  conjunct defines a care set for the others, so conjuncts may be
  rewritten with ``Restrict`` as long as the implied conjunction keeps
  denoting the same set.
* :mod:`repro.iclist.evaluate` — deciding which pairwise conjunctions
  to evaluate explicitly (Figure 1).
* :mod:`repro.iclist.compare` — the exact equality test (Section III.B).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from ..bdd.manager import BDD, Function
from ..bdd.simplify import restrict_multi
from ..bdd.sizing import format_profile, individual_sizes, shared_size

__all__ = ["ConjList"]


class ConjList:
    """An implicit conjunction of BDDs.

    The list is kept normalized: constant True conjuncts are dropped,
    duplicates are dropped, and a constant False collapses the whole
    list to the canonical empty-set form ``[False]``.
    """

    __slots__ = ("manager", "conjuncts")

    def __init__(self, manager: BDD,
                 conjuncts: Iterable[Function] = ()) -> None:
        self.manager = manager
        self.conjuncts: List[Function] = []
        for conjunct in conjuncts:
            self.append(conjunct)

    # -- construction -----------------------------------------------------

    def copy(self) -> "ConjList":
        """Shallow copy (Functions are immutable)."""
        fresh = ConjList(self.manager)
        fresh.conjuncts = list(self.conjuncts)
        return fresh

    def append(self, conjunct: Function) -> None:
        """Add a conjunct, maintaining normalization."""
        self.manager._check_manager(conjunct)
        if self.is_empty_set():
            return
        if conjunct.is_false:
            self.conjuncts = [self.manager.false]
            return
        if conjunct.is_true or conjunct in self.conjuncts:
            return
        # A conjunct and its complement make the conjunction empty.
        for existing in self.conjuncts:
            if existing.is_complement_of(conjunct):
                self.conjuncts = [self.manager.false]
                return
        self.conjuncts.append(conjunct)

    def extend(self, conjuncts: Iterable[Function]) -> None:
        """Add several conjuncts."""
        for conjunct in conjuncts:
            self.append(conjunct)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.conjuncts)

    def __iter__(self) -> Iterator[Function]:
        return iter(self.conjuncts)

    def __getitem__(self, index: int) -> Function:
        return self.conjuncts[index]

    def is_empty_set(self) -> bool:
        """Whether the implied conjunction is the empty set (False)."""
        return (len(self.conjuncts) == 1
                and self.conjuncts[0].is_false)

    def is_universe(self) -> bool:
        """Whether the implied conjunction is everything (True)."""
        return not self.conjuncts

    def shared_size(self) -> int:
        """The paper's BDDSize of the whole list (sharing counted once)."""
        if not self.conjuncts:
            return 0
        return shared_size(self.conjuncts)

    def sizes(self) -> List[int]:
        """Per-conjunct node counts."""
        return individual_sizes(self.conjuncts)

    def profile(self) -> str:
        """Table-style size string, e.g. ``638 (81, 169, 390)``."""
        return format_profile(self.conjuncts)

    def contains_set(self, subset: Function) -> bool:
        """Whether ``subset`` is contained in the implied conjunction.

        This is the paper's violation check ``S <= G_i`` "broken down
        into individual checks ``S <= G_i[j]`` for each j" — no product
        BDD is built.
        """
        return all(subset.entails(conjunct) for conjunct in self.conjuncts)

    def evaluate_explicitly(self) -> Function:
        """Build the explicit conjunction (tests and tiny examples only).

        This defeats the whole point of the representation — it exists
        so small-scale tests can cross-check the implicit algorithms.
        """
        return self.manager.conj(self.conjuncts)

    # -- the Section II.C don't-care optimization -----------------------------

    def simplify(self, simplifier: str = "restrict",
                 only_by_smaller: bool = True,
                 max_passes: int = 4) -> None:
        """Care-set simplification of every conjunct by its peers.

        Following Section III.A: "we first simplify each BDD X_i by
        every other BDD X_j that's smaller than it.  (Simplifying a
        small BDD by a large BDD, in our experience, does little
        good.)"  Passes repeat while anything changes (new constants or
        smaller conjuncts can enable more simplification), up to
        ``max_passes``.

        ``simplifier`` selects ``"restrict"`` (the paper's choice),
        ``"constrain"`` (both satisfy Theorem 3), or ``"multiway"`` —
        the Section V wish implemented in
        :func:`repro.bdd.simplify.restrict_multi`, which applies all
        peer care sets simultaneously and therefore ignores
        ``only_by_smaller``.

        The many node counts taken here (every conjunct against every
        peer, every pass) are answered from the manager's count table
        when a conjunct recurs.
        """
        if simplifier not in ("restrict", "constrain", "multiway"):
            raise ValueError(f"unknown simplifier {simplifier!r}")
        for _ in range(max_passes):
            if simplifier == "multiway":
                changed = self._simplify_pass_multiway()
            else:
                changed = self._simplify_pass(simplifier, only_by_smaller)
            if not changed:
                break

    def _simplify_pass(self, simplifier: str, only_by_smaller: bool) -> bool:
        if len(self.conjuncts) < 2 or self.is_empty_set():
            return False
        changed = False
        sizes = [fn.size() for fn in self.conjuncts]
        order = sorted(range(len(self.conjuncts)), key=lambda i: sizes[i])
        new_conjuncts = list(self.conjuncts)
        for i in order:
            # Safe point: everything live is in Function handles.
            self.manager.auto_collect()
            target = new_conjuncts[i]
            target_size = target.size()
            for j in order:
                if i == j:
                    continue
                care = new_conjuncts[j]
                if care.is_constant:
                    continue
                if only_by_smaller and care.size() > target_size:
                    continue
                simplified = (target.restrict(care)
                              if simplifier == "restrict"
                              else target.constrain(care))
                if simplified.edge != target.edge \
                        and simplified.size() <= target_size:
                    target = simplified
                    target_size = target.size()
                    changed = True
            new_conjuncts[i] = target
        if changed:
            rebuilt = ConjList(self.manager, new_conjuncts)
            self.conjuncts = rebuilt.conjuncts
        return changed

    def _simplify_pass_multiway(self) -> bool:
        if len(self.conjuncts) < 2 or self.is_empty_set():
            return False
        changed = False
        new_conjuncts = list(self.conjuncts)
        for i in range(len(new_conjuncts)):
            self.manager.auto_collect()
            target = new_conjuncts[i]
            peers = [new_conjuncts[j] for j in range(len(new_conjuncts))
                     if j != i and not new_conjuncts[j].is_constant]
            if not peers:
                continue
            simplified = restrict_multi(target, peers)
            if simplified.edge != target.edge \
                    and simplified.size() <= target.size():
                new_conjuncts[i] = simplified
                changed = True
        if changed:
            rebuilt = ConjList(self.manager, new_conjuncts)
            self.conjuncts = rebuilt.conjuncts
        return changed

    def __repr__(self) -> str:
        if self.is_universe():
            return "ConjList(True)"
        if self.is_empty_set():
            return "ConjList(False)"
        return f"ConjList(n={len(self)}, size={self.profile()})"
