"""Original implicitly conjoined invariants — "ICI" in the tables.

This is a *reconstruction* of the CAV 1993 method [17] from what this
paper says about it, since the heuristics' details "do not concern us
here" beyond their key weaknesses (Section II.C):

* The property must be **user-supplied as an implicit conjunction**;
  the evaluation policy is **positional** and fixed-length — on each
  iteration conjunct j becomes ``G_0[j] and BackImage(G_i[j])``, which
  is a sound regrouping of the global conjunction by Theorem 1, so the
  list never grows and no search for good conjunctions happens.
* Care-set simplification by peers is applied (the source of the
  method's efficiency).
* The termination test is **fast but not proven complete**: it
  declares convergence when every position is syntactically unchanged,
  or when every new conjunct is entailed by some old conjunct (a
  per-pair single-BDD check; by Theorem 1 the global sequence is
  monotone, so witnessing ``G_i => G_{i+1}`` conjunct-by-conjunct
  proves equality).  Both checks are sound, but the lists are not
  canonical, so the implied sets can converge while no per-conjunct
  witness exists — then this engine spins until ``max_iterations`` and
  reports NO_CONVERGENCE, which is exactly the failure mode the
  paper's exact test (XICI) eliminates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bdd.manager import Function
from ..bdd.sizing import SizeMemo, format_profile, shared_size
from ..fsm.machine import Machine
from ..fsm.image import back_image
from .options import Options
from .result import Outcome, RunRecorder, VerificationResult
from .implicit_trace import find_failing_conjunct, \
    implicit_backward_counterexample

__all__ = ["verify_ici"]


def verify_ici(machine: Machine, good_conjuncts: Sequence[Function],
               options: Optional[Options] = None) -> VerificationResult:
    """Backward traversal with the original positional ICI policy.

    ``good_conjuncts`` is the user-split property (plus any assisting
    invariants); with a single conjunct this degenerates to ordinary
    backward traversal, exactly as the paper notes.
    """
    if options is None:
        options = Options()
    recorder = RunRecorder("ICI", machine.name, machine.manager, options)
    return recorder.run(_run, machine, list(good_conjuncts), options)


def _simplify_positional(manager, conjuncts: List[Function],
                         options: Options,
                         size_memo: Optional[SizeMemo] = None
                         ) -> List[Function]:
    """Peer simplification that strictly preserves list positions.

    Position j of the result always corresponds to position j of the
    input (constant-True results stay in place) — the fast termination
    test compares positionwise, so any reshuffling would make
    convergence undetectable and the method would spin forever.

    ``size_memo`` persists across fixpoint iterations: the positional
    policy revisits mostly-unchanged conjuncts every step, so their
    node counts are answered from the epoch-aware memo instead of being
    re-walked.
    """
    measure = (size_memo.size if size_memo is not None
               else (lambda fn: fn.size()))
    result = list(conjuncts)
    order = sorted(range(len(result)), key=lambda i: measure(result[i]))
    for i in order:
        target = result[i]
        if target.is_constant:
            continue
        target_size = measure(target)
        for j in order:
            if i == j:
                continue
            care = result[j]
            if care.is_constant:
                continue
            if options.simplify_only_by_smaller \
                    and measure(care) > target_size:
                continue
            simplified = (target.constrain(care)
                          if options.simplifier == "constrain"
                          else target.restrict(care))
            if simplified.edge != target.edge \
                    and measure(simplified) <= target_size:
                target = simplified
                target_size = measure(target)
        result[i] = target
    return result


def _fast_termination(stepped: List[Function],
                      current: List[Function]) -> Optional[str]:
    """The reconstruction of the fast CAV 1993 termination test.

    Sound: the iteration is globally monotone (``G_{i+1} <= G_i`` by
    Theorem 1), so if every new conjunct is entailed by some old
    conjunct then ``G_i => G_{i+1}`` and the sets are equal.  Not
    complete: equality can hold with no per-conjunct witness, which is
    the weakness Section III.B's exact test removes.

    Returns the tier that declared convergence (``"positional"`` for
    the syntactic identity check, ``"entailment"`` for the per-pair
    witness check) or None when neither fired.
    """
    if all(new.edge == old.edge for new, old in zip(stepped, current)):
        return "positional"
    if all(any(old.entails(new) for old in current)
           for new in stepped):
        return "entailment"
    return None


def _run(machine: Machine, good_conjuncts: List[Function],
         options: Options, recorder: RunRecorder) -> VerificationResult:
    recorder.initial_reorder()
    manager = machine.manager
    probe = recorder.probe
    size_memo = SizeMemo(manager) if options.use_pair_cache else None
    current = _simplify_positional(manager, list(good_conjuncts), options,
                                   size_memo)
    history: List[List[Function]] = [list(good_conjuncts)]
    recorder.record_iterate(shared_size(current), format_profile(current),
                            conjuncts=current)
    recorder.extra["list_length"] = len(current)
    if find_failing_conjunct(machine.init, current) is not None:
        return _violation(machine, history, options, recorder)
    while recorder.iterations < options.max_iterations:
        recorder.check_time()
        recorder.iterations += 1
        with probe.span("iteration", index=recorder.iterations):
            stepped = []
            for good, conjunct in zip(good_conjuncts, current):
                image = back_image(machine, conjunct,
                                   options.back_image_mode,
                                   options.cluster_limit)
                stepped.append(good & image)
            stepped = _simplify_positional(manager, stepped, options,
                                           size_memo)
            history.append(stepped)
            recorder.record_iterate(shared_size(stepped),
                                    format_profile(stepped),
                                    conjuncts=stepped)
            if size_memo is not None:
                recorder.extra["size_memo_stats"] = size_memo.stats()
            with probe.span("termination_test") as s:
                tier = _fast_termination(stepped, current)
                s.note(converged=tier is not None,
                       tiers={tier: 1} if tier is not None
                       else {"positional": 0, "entailment": 0})
            if tier is not None:
                return recorder.finish(Outcome.VERIFIED, holds=True)
            if find_failing_conjunct(machine.init, stepped) is not None:
                return _violation(machine, history, options, recorder)
            current = stepped
    return recorder.finish(Outcome.NO_CONVERGENCE, holds=None)


def _violation(machine: Machine, history: List[List[Function]],
               options: Options,
               recorder: RunRecorder) -> VerificationResult:
    trace = None
    if options.want_trace:
        trace = implicit_backward_counterexample(machine, history)
    return recorder.finish(Outcome.VIOLATED, holds=False, trace=trace)
