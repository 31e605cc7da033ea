"""The paper's four example designs (S7) plus extras, as problems.

Besides the individual builder functions, this module is the **model
registry**: :data:`MODELS` maps every public model name to a
:class:`ModelSpec` describing how to build it (builder, CLI parameter
names, bug-injection style).  The CLI, the top-level facade
(:func:`repro.available_models`) and the benchmark harness all consume
the registry instead of hand-wiring the name → builder mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..core.problem import Problem
from .fifo import typed_fifo
from .network import message_network
from .movavg import moving_average
from .pipeline import pipelined_processor, OPCODES
from .ring import mutex_ring
from .philosophers import dining_philosophers
from .coherence import msi_coherence
from .linkproto import alternating_bit

__all__ = ["typed_fifo", "message_network", "moving_average",
           "pipelined_processor", "OPCODES", "mutex_ring",
           "dining_philosophers", "msi_coherence", "alternating_bit",
           "ModelSpec", "MODELS", "available_models", "build_model"]


@dataclass(frozen=True)
class ModelSpec:
    """How to build one named model.

    ``params`` maps the public (CLI) parameter name to the builder's
    keyword; ``bug_kind`` is ``"flag"`` when the builder takes
    ``buggy: bool`` and ``"label"`` when it takes a bug-name string.
    """

    name: str
    builder: Callable[..., Problem]
    help: str
    params: Mapping[str, str] = field(default_factory=dict)
    bug_kind: str = "flag"

    def build(self, bug: Optional[str] = None, **params: object) -> Problem:
        """Build the problem from public parameter names."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise TypeError(
                f"model {self.name!r} takes no parameter(s) {unknown}; "
                f"valid: {sorted(self.params)}")
        kwargs = {self.params[name]: value
                  for name, value in params.items()}
        if self.bug_kind == "flag":
            kwargs["buggy"] = bool(bug)
        else:
            kwargs["buggy"] = bug or ""
        return self.builder(**kwargs)


#: Every public model, keyed by its CLI name.
MODELS: Dict[str, ModelSpec] = {
    spec.name: spec for spec in (
        ModelSpec("fifo", typed_fifo,
                  "typed FIFO queue (--depth, --width, --bug)",
                  {"depth": "depth", "width": "width"}),
        ModelSpec("network", message_network,
                  "processors + message network (--procs, --bug)",
                  {"procs": "num_procs"}),
        ModelSpec("movavg", moving_average,
                  "moving-average filter (--depth, --width, --bug)",
                  {"depth": "depth", "width": "width"}),
        ModelSpec("pipeline", pipelined_processor,
                  "pipelined processor (--regs, --bits, "
                  "--bug no-bypass|wrong-bypass)",
                  {"regs": "num_regs", "bits": "datapath"},
                  bug_kind="label"),
        ModelSpec("ring", mutex_ring,
                  "token-ring mutual exclusion (--nodes, --bug)",
                  {"nodes": "num_nodes"}),
        ModelSpec("philosophers", dining_philosophers,
                  "dining philosophers (--phils, --bug)",
                  {"phils": "num_phils"}),
        ModelSpec("coherence", msi_coherence,
                  "MSI cache coherence (--caches, "
                  "--bug no-invalidate|double-owner)",
                  {"caches": "num_caches"},
                  bug_kind="label"),
        ModelSpec("abp", alternating_bit,
                  "alternating-bit link protocol (--width, --bug)",
                  {"width": "width"}),
    )
}


def available_models() -> Tuple[str, ...]:
    """Names of every buildable model, sorted."""
    return tuple(sorted(MODELS))


def build_model(name: str, bug: Optional[str] = None,
                **params: object) -> Problem:
    """Build a model by registry name (the facade's entry point)."""
    try:
        spec = MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; "
                         f"pick from {available_models()}") from None
    return spec.build(bug=bug, **params)
