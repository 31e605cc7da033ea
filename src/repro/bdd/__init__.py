"""ROBDD package with complement edges (substrate S1).

Public surface:

* :class:`BDD` — the manager (unique table, caches, budgets).
* :class:`Function` — an immutable Boolean function handle.
* :func:`shared_size` / :func:`profile` — the paper's ``BDDSize`` with
  node sharing.
* :func:`bounded_and` — size-bounded conjunction (paper Section V).
* :func:`sat_count` / :func:`pick_one` / :func:`iter_assignments`.
* :func:`interleaved` / :func:`blocked` — variable-order recipes.
* :func:`to_dot` — Graphviz export.
"""

from .manager import BDD, BudgetExceededError, EpochGuard, Function, \
    TERMINAL_LEVEL
from .sizing import format_profile, individual_sizes, profile, shared_size
from .bounded import bounded_and
from .simplify import restrict_multi
from .satisfy import iter_assignments, pick_one, sat_count
from .order import blocked, interleaved
from .dot import to_dot

__all__ = [
    "BDD",
    "EpochGuard",
    "Function",
    "BudgetExceededError",
    "TERMINAL_LEVEL",
    "shared_size",
    "individual_sizes",
    "profile",
    "format_profile",
    "bounded_and",
    "restrict_multi",
    "sat_count",
    "pick_one",
    "iter_assignments",
    "interleaved",
    "blocked",
    "to_dot",
]
