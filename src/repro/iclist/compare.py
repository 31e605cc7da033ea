"""Exact comparison of implicitly conjoined lists (Section III.B).

The decomposition, verbatim from the paper: ``X = Y`` iff ``X => Y``
and ``Y => X``; ``X => Y`` iff ``X => Yj`` for every j; and checking
``X => Y1`` "is equivalent to checking whether
``not X1 or ... or not Xn or Y1`` is a tautology" — an implicit
*disjunction*, handled by :class:`~repro.iclist.TautologyChecker`.

Complement edges make building the ``not Xi`` disjuncts free.
"""

from __future__ import annotations

from typing import Optional

from ..obs.probe import NULL_PROBE, Probe
from .conjlist import ConjList
from .tautology import TautologyChecker

__all__ = ["implies_list", "lists_equal"]


def implies_list(antecedent: ConjList, consequent: ConjList,
                 checker: Optional[TautologyChecker] = None) -> bool:
    """Exact test of ``antecedent => consequent`` (set inclusion)."""
    if antecedent.manager is not consequent.manager:
        raise ValueError("lists live in different managers")
    if checker is None:
        checker = TautologyChecker(antecedent.manager)
    negated = [~conjunct for conjunct in antecedent.conjuncts]
    for conjunct in consequent.conjuncts:
        if not checker.is_tautology(negated + [conjunct]):
            return False
    return True


def lists_equal(left: ConjList, right: ConjList,
                checker: Optional[TautologyChecker] = None,
                assume_right_subset: bool = False,
                probe: Probe = NULL_PROBE) -> bool:
    """Exact test of ``left = right``.

    ``assume_right_subset=True`` skips the ``right => left`` direction.
    This is the monotonicity optimization the paper mentions but does
    not implement ("checking implication suffices since these sequences
    are monotonic.  The current implementation does not exploit this
    optimization.") — engines keep it off by default to match the paper
    and expose it as an option for the ablation bench.

    Each call is one ``termination_test`` span on ``probe``, noting the
    per-tier effort tally of the whole equality check (constant /
    complement / Step 3 / Shannon-with-depth — see
    :meth:`~repro.iclist.tautology.TautologyChecker.tier_tally`).
    """
    if checker is None:
        checker = TautologyChecker(left.manager)
    with probe.span("termination_test") as span:
        before = checker.stats.snapshot()
        converged = implies_list(left, right, checker)
        if converged and not assume_right_subset:
            converged = implies_list(right, left, checker)
        span.note(converged=converged, tiers=checker.tier_tally(before),
                  max_depth=checker.stats.max_depth)
    return converged
