"""The trace event vocabulary.

Every event is one flat JSON-serializable dict with two mandatory
keys — ``"t"`` (seconds since the tracer was created, stamped by the
tracer) and ``"event"`` (one of the constants below) — plus
event-specific fields:

``run_start``
    ``method``, ``model``, ``options`` (the engine-relevant knobs as a
    sub-dict).  Emitted by :class:`repro.core.result.RunRecorder` when
    an engine starts.
``iteration``
    One fixpoint iterate ``R_i`` / ``G_i``: ``index`` (0 is the initial
    iterate), ``nodes`` (shared node count), ``profile`` (the table
    string), ``list_length`` and ``sizes`` (per-conjunct node counts)
    when the iterate is an implicit conjunction, plus ``nodes_created``
    (manager allocations since the previous iterate) and
    ``nodes_current``.
``back_image`` / ``image``
    One image-operator call: ``mode``, ``input_size``, ``output_size``,
    ``seconds``.
``merge``
    One accepted greedy-evaluator merge (Figure 1): ``ratio``,
    ``pair_size``, ``product_size``, ``list_length`` (after the merge).
``termination_test``
    One engine-level convergence check: ``converged`` plus ``tiers``, a
    tally of which tier(s) of the test did the work.  For the exact
    XICI test the tiers are ``constant`` / ``complement`` /
    ``pairwise`` / ``restrict_subsumption`` / ``shannon`` (with
    ``max_depth``, the deepest Shannon recursion so far); for the fast
    ICI test they are ``positional`` / ``entailment``; the monolithic
    engines report ``canonical`` (constant-time pointer comparison).
``gc``
    One manager garbage collection: ``freed``, ``live``, ``epoch``.
``budget_check``
    One engine-level budget check: ``kind``, ``elapsed``, ``limit``.
``run_end``
    ``outcome``, ``holds``, ``iterations``, ``elapsed_seconds``,
    ``peak_nodes``, ``max_iterate_nodes``.
"""

from __future__ import annotations

__all__ = ["RUN_START", "RUN_END", "ITERATION", "BACK_IMAGE", "IMAGE",
           "MERGE", "TERMINATION", "GC", "BUDGET_CHECK",
           "EVENT_TYPES"]

RUN_START = "run_start"
RUN_END = "run_end"
ITERATION = "iteration"
BACK_IMAGE = "back_image"
IMAGE = "image"
MERGE = "merge"
TERMINATION = "termination_test"
GC = "gc"
BUDGET_CHECK = "budget_check"

#: Every event type a tracer can receive.
EVENT_TYPES = (RUN_START, RUN_END, ITERATION, BACK_IMAGE, IMAGE, MERGE,
               TERMINATION, GC, BUDGET_CHECK)
