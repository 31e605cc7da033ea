"""The benchmark's workloads and the outcomes every run must reproduce.

A *cell* is one verification as a library user runs it: a model built
by ``repro.build_model`` and checked by ``repro.verify`` with the
paper tables' ``DEFAULT_BUDGET``.  Each cell carries its expected
outcome and iteration count (the correctness oracle); any other answer
is a failed cell.  The served pool uses the same record shape, run
through ``repro serve`` with the server's default options.

Cells are sized so one round of a workload takes about three seconds
on a 2-core host: a run of ``--seconds 20`` then gets five or more
rounds, and the per-cell medians are steady across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["cell", "WORKLOADS", "SMOKE_WORKLOADS", "IN_PROCESS", "SERVED"]

IN_PROCESS = "in-process"
SERVED = "served"


def cell(model: str, method: str, outcome: str, iterations: int,
         bug: Optional[str] = None, assisted: bool = False,
         **params: int) -> Dict[str, Any]:
    """One cell (or served request) with its expected answer."""
    words = [model] + [f"{key}={value}" for key, value in params.items()]
    if bug is not None:
        words.append(f"bug={bug}")
    words.append(method + ("+assisted" if assisted else ""))
    return {"label": " ".join(words), "model": model, "params": params,
            "bug": bug, "method": method, "assisted": assisted,
            "outcome": outcome, "iterations": iterations}


V, X = "verified", "violated"


def _served_pool() -> List[Dict[str, Any]]:
    """22 requests over every model and bug kind, each running in under
    0.1 s, so the service layers, not BDD work, set the pace."""
    return [
        cell("fifo", "xici", V, 1, depth=3),
        cell("fifo", "fwd", V, 4, depth=3),
        cell("fifo", "bkwd", V, 1, depth=3),
        cell("fifo", "xici", V, 1, depth=4),
        cell("fifo", "bkwd", V, 1, depth=4),
        cell("fifo", "xici", V, 1, depth=5),
        cell("fifo", "bkwd", V, 1, depth=5),
        cell("network", "xici", V, 1, procs=2),
        cell("network", "fwd", V, 7, procs=2),
        cell("network", "xici", V, 1, procs=3),
        cell("movavg", "xici", V, 1, depth=2),
        cell("ring", "xici", V, 3),
        cell("ring", "fwd", V, 5),
        cell("philosophers", "xici", V, 5),
        cell("philosophers", "fwd", V, 5),
        cell("coherence", "xici", V, 1),
        cell("abp", "xici", V, 2),
        cell("fifo", "xici", X, 1, bug="1", depth=3),
        cell("network", "fwd", X, 3, bug="1", procs=2),
        cell("movavg", "xici", X, 3, bug="1", depth=2),
        cell("coherence", "xici", X, 2, bug="no-invalidate"),
        cell("ring", "xici", X, 3, bug="1"),
    ]


#: name -> {"kind", "why", "cells"}.  Peak nodes in the comments are
#: the dict kernel's, measured when the cells were chosen.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "xici-tables": {
        "kind": IN_PROCESS,
        "why": "The paper's XICI method where it iterates (Tables 1-3); "
               "time goes to bdd.compose inside back_image and to the "
               "iclist evaluator.",
        "cells": [
            cell("movavg", "xici", V, 3, depth=8, width=8),     # 438371
            cell("movavg", "xici", V, 1, assisted=True,
                 depth=8, width=4),                             # 74582
            cell("pipeline", "xici", V, 3, regs=2, bits=1),     # 202114
            cell("pipeline", "xici", V, 1, assisted=True,
                 regs=2, bits=1),                               # 20769
        ],
    },
    "forward-tables": {
        "kind": IN_PROCESS,
        "why": "Table 1 forward and FD baselines: relprod and the image "
               "layer, bypassing back_image and the iclist layer.",
        "cells": [
            cell("fifo", "fwd", V, 8, depth=7, width=8),        # 129931
            cell("network", "fwd", V, 13, procs=4),             # 104596
            cell("network", "fd", V, 10, procs=3),              # 99085
            cell("fifo", "fwd", V, 6, depth=5, width=8),        # 26568
        ],
    },
    "bug-hunt": {
        "kind": IN_PROCESS,
        "why": "Violated properties: early exit, a monolithic bkwd "
               "iterate, and counterexample extraction plus replay.",
        "cells": [
            cell("pipeline", "xici", X, 3, bug="no-bypass",
                 assisted=True, regs=2, bits=1),                # 163529
            cell("movavg", "xici", X, 5, bug="1",
                 depth=8, width=6),                             # 172093
            cell("movavg", "xici", X, 3, bug="1", assisted=True,
                 depth=8, width=4),                             # 71813
            cell("movavg", "bkwd", X, 5, bug="1",
                 depth=8, width=4),                             # 47809
            cell("network", "fwd", X, 3, bug="1", procs=5),     # 72920
        ],
    },
    "served-mix": {
        "kind": SERVED,
        "why": "repro serve over HTTP from one closed-loop client: 75% "
               "ledger cache hits beside misses that run and archive; "
               "little BDD work per job.",
        "cells": _served_pool(),
    },
}

#: Tiny stand-ins with the same names, for ``--smoke`` (tests).
_SMOKE_CELLS = [cell("fifo", "xici", V, 1, depth=3),
                cell("movavg", "xici", V, 1, depth=2)]
SMOKE_WORKLOADS: Dict[str, Dict[str, Any]] = {
    name: dict(spec, cells=[dict(item) for item in _SMOKE_CELLS])
    for name, spec in WORKLOADS.items()
}
