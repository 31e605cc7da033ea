"""Rudell sifting on the in-place adjacent-level swap primitive.

The paper ran on David Long's BDD package, which "could also sift
dynamically"; this module supplies that capability for our manager.
:func:`sift` moves each variable — largest level first — through the
whole order with :meth:`BDD._swap_adjacent`, leaves it at the position
where the table was smallest, and moves on (Rudell, ICCAD 1993).

Session discipline
------------------

A sift is a *reordering session*: many raw swaps, one cache flush.
Mid-session no BDD operations run, so the op caches are simply left
stale until the close; ``gc_epoch`` bumps at the close so external
edge-keyed caches (PairCache, SizeMemo, the tautology memo) flush too.

Sizes are measured as *allocated* per-level counts (``level_sizes``),
which include the garbage that in-place swaps shed — this manager has
no reference counts, so live-only counts would cost a reachability
sweep per swap.  The session therefore collects garbage at its start
and end, and mid-session whenever the table outgrows twice the live
baseline (or a node budget forces it); a mid-session collection
re-baselines the current measurement, which is rare and slightly
pessimistic but always consistent.

Budgets are enforced at swap *boundaries* only (a half-finished swap
must never be observable).  On :class:`BudgetExceededError` the session
still closes normally — final collection, cache flush, statistics, the
probe's ``sift`` report — and then re-raises, so the engines' existing
budget handling sees a consistent manager with the partially-improved
order left in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .manager import BDD, BudgetExceededError

__all__ = ["SiftResult", "sift"]


@dataclass
class SiftResult:
    """Summary of one sifting session."""

    reason: str          #: what triggered the session (manual/sift/auto)
    vars_sifted: int     #: variables fully repositioned
    swaps: int           #: adjacent-level swaps performed
    nodes_before: int    #: live nodes at session start (post-GC)
    nodes_after: int     #: live nodes at session close (post-GC)
    seconds: float       #: wall-clock duration of the session
    aborted: Optional[str] = None  #: budget kind that cut it short


class _Session:
    """Running allocated-size total shared by all walks of one sift."""

    __slots__ = ("total", "start_live")

    def __init__(self, total: int, start_live: int) -> None:
        self.total = total
        self.start_live = start_live


def _build_refs(manager: BDD) -> None:
    """(Re)install exact reference counts for the session.

    References are internal edges plus one per live Function handle;
    with these, a swap unlinks nodes the instant they die and the
    per-level sizes track the live structure (see BDD._deref).
    """
    refs = [0] * len(manager._level)
    highs, lows = manager._high, manager._low
    for node in range(1, len(manager._level)):
        refs[highs[node] >> 1] += 1
        refs[lows[node] >> 1] += 1
    for fn in manager._live_functions():
        refs[fn.edge >> 1] += 1
    manager._sift_refs = refs


def _swap_step(manager: BDD, i: int, session: _Session) -> bool:
    """One raw swap plus the boundary bookkeeping.

    Returns True when a mid-session collection re-baselined
    ``session.total`` (the caller must reset its best-so-far).
    """
    manager._swap_adjacent(i)
    # Recompute from the member lists: cascade deaths can shrink levels
    # far below the swapped pair.  O(num_vars), cheap next to the swap.
    session.total = sum(manager.level_sizes())
    rebaselined = False
    allocated = len(manager._level)  # includes tombstones until GC
    over_budget = (manager.max_nodes is not None
                   and allocated - 1 > manager.max_nodes)
    if over_budget or allocated > max(2 * session.start_live, 4096):
        manager.garbage_collect()
        _build_refs(manager)  # ids were remapped
        session.total = sum(manager.level_sizes())
        rebaselined = True
    manager._check_budgets()
    return rebaselined


def _sift_one(manager: BDD, name: str, max_growth: float,
              session: _Session) -> None:
    """Move one variable to its best position and leave it there."""
    n = manager.num_vars
    start = manager.level_of(name)
    pos = start
    best_size = session.total
    best_pos = start

    def walk(direction: int, stop: int) -> None:
        nonlocal pos, best_size, best_pos
        while pos != stop:
            i = pos - 1 if direction < 0 else pos
            rebaselined = _swap_step(manager, i, session)
            pos += direction
            if rebaselined or session.total < best_size:
                best_size = session.total
                best_pos = pos
            if session.total > best_size * max_growth:
                break

    # Nearer boundary first, then back through the start to the other.
    if start <= (n - 1) - start:
        walk(-1, 0)
        walk(+1, n - 1)
    else:
        walk(+1, n - 1)
        walk(-1, 0)
    while pos > best_pos:
        _swap_step(manager, pos - 1, session)
        pos -= 1
    while pos < best_pos:
        _swap_step(manager, pos, session)
        pos += 1


def sift(manager: BDD, max_growth: float = 1.2,
         max_vars: Optional[int] = None,
         reason: str = "manual") -> SiftResult:
    """Run one Rudell sifting pass over the manager, in place.

    Variables are processed largest level first; each walks the whole
    order (abandoning a direction once the table grows past
    ``max_growth`` times the best size seen) and settles at its best
    position.  ``max_vars`` bounds how many variables are processed.

    Live :class:`Function` handles keep denoting the same functions
    throughout; raw integer edges held by callers become stale (the
    session both swaps and collects), exactly as for
    :meth:`BDD.garbage_collect`.
    """
    if manager._in_reorder:
        raise RuntimeError("sift re-entered")
    if len(manager._compose_caches) > 0:
        raise RuntimeError("sift during vector compose")
    started = time.monotonic()
    swaps_before = manager._reorder_swaps
    if manager.num_vars < 2:
        return SiftResult(reason=reason, vars_sifted=0, swaps=0,
                          nodes_before=len(manager._level),
                          nodes_after=len(manager._level), seconds=0.0)
    manager._in_reorder = True
    vars_sifted = 0
    abort: Optional[BudgetExceededError] = None
    try:
        with manager.probe.span("sift", reason=reason) as span:
            manager.garbage_collect()
            _build_refs(manager)
            nodes_before = len(manager._level)
            session = _Session(total=sum(manager.level_sizes()),
                               start_live=nodes_before)
            members = manager._level_members
            names = sorted(
                manager.var_names,
                key=lambda v: len(members[manager.level_of(v)]),
                reverse=True)
            if max_vars is not None:
                names = names[:max_vars]
            try:
                for name in names:
                    _sift_one(manager, name, max_growth, session)
                    vars_sifted += 1
            except BudgetExceededError as error:
                abort = error
            # Session close: one flush for the whole swap batch, then a
            # collection so the caller resumes on a garbage-free table.
            manager._flush_after_reorder()
            manager.garbage_collect()
            nodes_after = len(manager._level)
            result = SiftResult(
                reason=reason, vars_sifted=vars_sifted,
                swaps=manager._reorder_swaps - swaps_before,
                nodes_before=nodes_before, nodes_after=nodes_after,
                seconds=time.monotonic() - started,
                aborted=abort.kind if abort is not None else None)
            manager._reorder_runs += 1
            manager._reorder_vars_sifted += vars_sifted
            manager._reorder_seconds += result.seconds
            manager._reorder_time_ms += int(result.seconds * 1000)
            manager._reorder_nodes_before += nodes_before
            manager._reorder_nodes_after += nodes_after
            span.note(vars_sifted=vars_sifted, swaps=result.swaps,
                      nodes_before=nodes_before, nodes_after=nodes_after,
                      aborted=result.aborted)
    finally:
        manager._in_reorder = False
        manager._sift_refs = None
    if abort is not None:
        raise abort
    return result
