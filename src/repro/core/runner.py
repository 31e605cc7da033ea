"""Method dispatch — the "Meth." column of the paper's tables.

``verify(problem, method)`` runs one of:

* ``"fwd"`` — conventional forward traversal,
* ``"bkwd"`` — conventional backward traversal,
* ``"fd"`` — forward traversal with user-declared functional
  dependencies (requires ``problem.fd_dependent_bits``),
* ``"ici"`` — the original implicitly conjoined invariants method,
* ``"xici"`` — this paper's extended method.
"""

from __future__ import annotations

from typing import Optional

from .options import Options
from .problem import Problem
from .result import VerificationResult
from .forward import verify_forward
from .backward import verify_backward
from .fd import verify_fd
from .ici import verify_ici
from .xici import verify_xici

__all__ = ["verify", "METHODS"]

METHODS = ("fwd", "bkwd", "fd", "ici", "xici")


def verify(problem: Problem, method: str,
           options: Optional[Options] = None,
           assisted: bool = False) -> VerificationResult:
    """Run one verification method on a problem."""
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick from {METHODS}")
    conjuncts = problem.conjuncts(assisted=assisted)
    if method == "fwd":
        result = verify_forward(problem.machine, conjuncts, options)
    elif method == "bkwd":
        result = verify_backward(problem.machine, conjuncts, options)
    elif method == "fd":
        if not problem.fd_dependent_bits:
            raise ValueError(
                f"problem {problem.name!r} declares no dependent bits; "
                "the FD method needs them")
        result = verify_fd(problem.machine, conjuncts,
                           problem.fd_dependent_bits, options)
    elif method == "ici":
        result = verify_ici(problem.machine, conjuncts, options)
    else:
        result = verify_xici(problem.machine, conjuncts, options)
    result.model = problem.name
    result.extra["assisted"] = assisted
    return result
