"""Node counting helpers — the paper's ``BDDSize`` with sharing.

The key subtlety the paper calls out when motivating its greedy
evaluation heuristic (Figure 1) is that "for efficient BDD
implementations, BDD sizes do not add, since all BDDs in the system can
share nodes with each other".  ``shared_size`` is therefore the right
denominator for the heuristic's ratio, and ``profile`` is what the
tables' "BDD Nodes" column reports for implicit conjunctions:
``total (n1, n2, ...)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .manager import Function

__all__ = ["shared_size", "individual_sizes", "profile", "format_profile"]


def shared_size(functions: Sequence[Function]) -> int:
    """Distinct node count over all roots, sharing counted once."""
    if not functions:
        return 0
    manager = functions[0].bdd
    return manager.count_nodes(functions)


def individual_sizes(functions: Sequence[Function]) -> List[int]:
    """Per-function node counts (each including the terminal)."""
    return [fn.size() for fn in functions]


def profile(functions: Sequence[Function]) -> Tuple[int, List[int]]:
    """Return ``(shared_total, sorted per-BDD sizes)`` for a list."""
    return shared_size(functions), sorted(individual_sizes(functions))


def format_profile(functions: Sequence[Function]) -> str:
    """Format like the paper's tables, e.g. ``638 (81, 169, 390)``.

    When all conjuncts have the same size the paper abbreviates to
    ``(i x j nodes)``; we do the same.
    """
    total, sizes = profile(functions)
    if not sizes:
        return "0"
    if len(sizes) == 1:
        return str(total)
    if len(set(sizes)) == 1:
        return f"{total} ({len(sizes)} x {sizes[0]} nodes)"
    return f"{total} ({', '.join(str(s) for s in sizes)})"
