"""Extended implicitly conjoined invariants — "XICI", the paper's method.

Backward traversal over :class:`~repro.iclist.ConjList` iterates with
the two DAC 1994 contributions wired in:

* **Evaluation and simplification policy** (Section III.A).  Each new
  iterate starts as the concatenation ``G_0 ++ BackImage(G_i)``
  (Theorem 1 applied conjunct-by-conjunct), is care-set-simplified
  (each conjunct by its smaller peers, using Restrict), and is then
  shortened by the greedy pairwise evaluator of Figure 1 (or, as an
  option, Theorem 2's exact matching cover).  Nothing requires the
  user to pre-split the property: any conjunct that *should* be split
  simply never gets merged, and the policy discovers the useful
  groupings — this is what "derives the assisting invariants fully
  automatically" in Table 2.
* **Exact termination test** (Section III.B).  Iterates are compared
  with the implicit-disjunction tautology engine; no reliance on the
  representation, no false convergence, guaranteed-correct
  termination.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bdd.manager import Function
from ..obs.probe import Probe
from ..fsm.machine import Machine
from ..fsm.image import back_image
from ..iclist.conjlist import ConjList
from ..iclist.evaluate import EvaluationStats, greedy_evaluate
from ..iclist.cover import matching_evaluate
from ..iclist.tautology import TautologyChecker
from ..iclist.compare import lists_equal
from ..iclist.decompose import decompose_conjunction
from .options import Options
from .result import Outcome, RunRecorder, VerificationResult
from .implicit_trace import find_failing_conjunct, \
    implicit_backward_counterexample

__all__ = ["verify_xici"]


def verify_xici(machine: Machine, good_conjuncts: Sequence[Function],
                options: Optional[Options] = None) -> VerificationResult:
    """Backward traversal with the DAC 1994 policy and exact test."""
    if options is None:
        options = Options()
    recorder = RunRecorder("XICI", machine.name, machine.manager, options)
    return recorder.run(_run, machine, list(good_conjuncts), options)


def _condition(conjlist: ConjList, options: Options,
               eval_stats: EvaluationStats, probe: Probe) -> None:
    """One simplify-and-evaluate pass (Section III.A).

    The goal conjuncts and near-fixpoint iterates recur between calls,
    so iteration N+1 finds most of iteration N's pair products and node
    counts in the manager's computed tables.
    """
    with probe.span("simplify"):
        conjlist.simplify(
            simplifier=options.simplifier,
            only_by_smaller=options.simplify_only_by_smaller)
    if options.evaluator == "matching":
        matching_evaluate(conjlist)
    else:
        greedy_evaluate(conjlist,
                        grow_threshold=options.grow_threshold,
                        use_bounded=options.use_bounded_and,
                        stats=eval_stats,
                        probe=probe)


def _run(machine: Machine, good_conjuncts: List[Function],
         options: Options, recorder: RunRecorder) -> VerificationResult:
    manager = machine.manager
    # The tautology engine only knows the two Theorem 3 simplifiers;
    # with the multiway list simplifier it falls back to Restrict.
    checker_simplifier = (options.simplifier
                          if options.simplifier in ("restrict", "constrain")
                          else "restrict")
    checker = TautologyChecker(manager,
                               var_choice=options.var_choice,
                               pairwise_step3=options.pairwise_step3,
                               simplifier=checker_simplifier)
    eval_stats = EvaluationStats()
    if options.auto_decompose:
        split: List[Function] = []
        for conjunct in good_conjuncts:
            split.extend(decompose_conjunction(conjunct))
        good_conjuncts = split
    probe = recorder.probe
    goal = ConjList(manager, good_conjuncts)
    current = goal.copy()
    _condition(current, options, eval_stats, probe)
    history: List[List[Function]] = [list(goal.conjuncts)]
    recorder.record_iterate(current.shared_size(), current.profile(),
                            conjuncts=current.conjuncts)
    recorder.extra["evaluation_stats"] = eval_stats
    if find_failing_conjunct(machine.init, current.conjuncts) is not None:
        return _violation(machine, history, options, recorder)
    while recorder.iterations < options.max_iterations:
        recorder.check_time()
        recorder.iterations += 1
        # A return inside the span closes it through finish() (the root
        # close force-closes open children); the __exit__ then no-ops.
        with probe.span("iteration", index=recorder.iterations):
            stepped = ConjList(manager, goal.conjuncts)
            for conjunct in current:
                stepped.append(back_image(machine, conjunct,
                                          options.back_image_mode,
                                          options.cluster_limit))
                manager.auto_collect()
            _condition(stepped, options, eval_stats, probe)
            history.append(list(stepped.conjuncts))
            recorder.record_iterate(stepped.shared_size(),
                                    stepped.profile(),
                                    conjuncts=stepped.conjuncts)
            recorder.extra["tautology_stats"] = checker.stats
            recorder.extra["evaluation_stats"] = eval_stats
            if find_failing_conjunct(machine.init,
                                     stepped.conjuncts) is not None:
                return _violation(machine, history, options, recorder)
            if lists_equal(current, stepped, checker,
                           assume_right_subset=options.exploit_monotonicity,
                           probe=probe):
                return recorder.finish(Outcome.VERIFIED, holds=True)
            current = stepped
    return recorder.finish(Outcome.NO_CONVERGENCE, holds=None)


def _violation(machine: Machine, history: List[List[Function]],
               options: Options,
               recorder: RunRecorder) -> VerificationResult:
    trace = None
    if options.want_trace:
        trace = implicit_backward_counterexample(machine, history)
    return recorder.finish(Outcome.VIOLATED, holds=False, trace=trace)
