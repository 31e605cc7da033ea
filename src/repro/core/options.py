"""Engine configuration knobs.

Defaults reproduce the paper's settings; everything the paper marks as
tunable (GrowThreshold, cofactor-variable choice, simplifier, the
unexploited monotonicity optimization) is a field here so the ablation
benches can sweep it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Union

from ..fsm.image import BACK_IMAGE_MODES
from ..iclist.evaluate import GROW_THRESHOLD
from ..iclist.tautology import VAR_CHOICES
from ..obs.registry import MetricsRegistry
from ..obs.spans import SpanProfiler
from ..trace import Tracer

__all__ = ["Options", "OPTIONS_SCHEMA_VERSION", "request_hash"]

#: Version of the serialized Options shape (:meth:`Options.to_dict`).
#: Bump on any incompatible rename, retype or removal of a
#: serializable field.
OPTIONS_SCHEMA_VERSION = 4


@dataclass
class Options:
    """Options shared by all verification engines.

    Budget fields emulate the paper's resource ceilings ("Exceeded
    60MB", "Exceeded 40 minutes"): when hit, the engine reports a
    budget outcome instead of running forever.
    """

    #: Hard cap on allocated BDD nodes (None = unlimited).
    max_nodes: Optional[int] = None
    #: Wall-clock limit in seconds (None = unlimited).
    time_limit: Optional[float] = None
    #: Iteration cap; a safety net, mostly for the reconstruction of the
    #: original ICI method whose termination test may fail to converge.
    max_iterations: int = 10_000
    #: Extract a concrete counterexample trace on violation.
    want_trace: bool = True
    #: Garbage collection: a run collects once before its first
    #: iteration, then at iterate boundaries once the node table
    #: exceeds this size (and has doubled since the last collection).
    #: None disables both.  A collection renumbers edges, so a run that
    #: collects changes the hash of every live Function.
    gc_min_nodes: Optional[int] = 200_000

    # -- image computation ---------------------------------------------------
    #: Node limit when clustering the partitioned transition relation.
    cluster_limit: int = 2500
    #: BackImage strategy: "auto" (the default: per conjunct, the
    #: relational product over the conjunct's cone when compose would
    #: be costly, else vector compose), "compose" (vector compose +
    #: forall) or "relational" (dual of PreImage over the clustered
    #: partitioned relation).  All three give the same iterates.
    back_image_mode: str = "auto"

    # -- implicit-conjunction engines ---------------------------------------
    #: Figure 1's GrowThreshold.
    grow_threshold: float = GROW_THRESHOLD
    #: Conjunction-evaluation policy: "greedy" (Figure 1) or "matching"
    #: (Theorem 2's exact pairwise cover).
    evaluator: str = "greedy"
    #: Abort pairwise products that exceed a useful size (Section V wish).
    use_bounded_and: bool = False
    #: BDDSimplify operator: "restrict" (paper) or "constrain".
    simplifier: str = "restrict"
    #: Only simplify a conjunct by smaller peers (Section III.A).
    simplify_only_by_smaller: bool = True
    #: Cofactor-variable choice in the termination test (Step 4).
    var_choice: str = "first-top"
    #: Step 3 realization: "simplify" (Theorem 3), "direct", or "off".
    pairwise_step3: str = "simplify"
    #: Use one-directional implication for termination (the paper's
    #: unimplemented monotonicity optimization).
    exploit_monotonicity: bool = False
    #: Split each initial property conjunct into independent factors
    #: before starting (XICI only) — lets a *monolithic* property enter
    #: the implicit-conjunction machinery with no user assistance.
    auto_decompose: bool = False

    # -- observability -------------------------------------------------------
    #: Structured event sink (see :mod:`repro.trace`).  None means the
    #: shared null tracer: every emit site is a no-op and all
    #: event-data preparation is skipped.  Tracing is observational
    #: only — results are edge-identical with any tracer.
    tracer: Optional[Tracer] = None
    #: Metrics sink (see :mod:`repro.obs`).  None means the shared null
    #: registry: every hot-path emit reduces to one attribute check and
    #: :attr:`VerificationResult.metrics` stays None.  Pass a
    #: :class:`~repro.obs.MetricsRegistry` to collect counters, phase
    #: timers, histograms, and the resource-sampler timeline for one
    #: run.  Like tracing, metrics are observational only — results are
    #: edge-identical with any registry.
    metrics: Optional[MetricsRegistry] = None
    #: Hierarchical span sink (see :mod:`repro.obs.spans`).  None means
    #: the shared null sink: every ``open_span``/``close_span`` site is
    #: one attribute check and :attr:`VerificationResult.span_rollup`
    #: stays None.  Pass a :class:`~repro.obs.SpanProfiler` to attribute
    #: wall time, node growth, GC runs and cache hits to the nested
    #: phases (``run > iteration > back_image/merge_round/...``).  Like
    #: tracing and metrics, spans are observational only.
    spans: Optional[SpanProfiler] = None
    #: Print a live progress heartbeat to stderr every this-many
    #: seconds (None disables it).  The watchdog thread flags a stall
    #: when the engine reaches no safe point within
    #: ``heartbeat_stall`` seconds.
    heartbeat: Optional[float] = None
    #: Stall-warning window for the heartbeat; None derives the default
    #: ``max(5 * heartbeat, 30)``.
    heartbeat_stall: Optional[float] = None
    #: Where the heartbeat's progress lines go: any ``write()``-able
    #: object (None means the current ``sys.stderr`` at print time).
    #: The job server points this at the per-job event log so clients
    #: can stream progress; like the other sinks it is a live object,
    #: never serialized.
    heartbeat_stream: Optional[Any] = None

    #: CLI flag name → Options field, for every flag that is a plain
    #: rename (shared by :meth:`from_args` and the argparse setup).
    ARG_FIELDS = {
        "max_nodes": "max_nodes",
        "time_limit": "time_limit",
        "grow_threshold": "grow_threshold",
        "evaluator": "evaluator",
        "simplifier": "simplifier",
        "bounded_and": "use_bounded_and",
        "back_image": "back_image_mode",
        "monotone": "exploit_monotonicity",
        "auto_decompose": "auto_decompose",
        "heartbeat": "heartbeat",
        "heartbeat_stall": "heartbeat_stall",
    }

    @classmethod
    def from_args(cls, args: argparse.Namespace,
                  tracer: Optional[Tracer] = None,
                  metrics: Optional[MetricsRegistry] = None,
                  spans: Optional[SpanProfiler] = None) -> "Options":
        """Build Options from CLI-style arguments.

        Accepts any namespace carrying (a subset of) the ``repro
        verify`` flags: missing attributes keep their dataclass
        defaults, so programmatic callers can pass a bare
        ``argparse.Namespace`` with just the flags they care about.
        """
        defaults = {f.name: f.default for f in fields(cls)}
        values = {}
        for arg_name, field_name in cls.ARG_FIELDS.items():
            values[field_name] = getattr(args, arg_name,
                                         defaults[field_name])
        values["tracer"] = tracer
        values["metrics"] = metrics
        values["spans"] = spans
        return cls(**values)

    #: Fields that hold live sink objects (observability plumbing).
    #: They never serialize: :meth:`to_dict` skips them and
    #: :meth:`from_dict` rejects them with a pointed error — attach
    #: sinks to the deserialized object afterwards.
    SINK_FIELDS = ("tracer", "metrics", "spans", "heartbeat_stream")

    #: Serializable field -> accepted JSON types.  ``bool`` is listed
    #: explicitly where allowed because it subclasses ``int``;
    #: :meth:`from_dict` rejects a bool wherever only ``int`` appears.
    FIELD_TYPES = {
        "max_nodes": (int, type(None)),
        "time_limit": (int, float, type(None)),
        "max_iterations": (int,),
        "want_trace": (bool,),
        "gc_min_nodes": (int, type(None)),
        "cluster_limit": (int,),
        "back_image_mode": (str,),
        "grow_threshold": (int, float),
        "evaluator": (str,),
        "use_bounded_and": (bool,),
        "simplifier": (str,),
        "simplify_only_by_smaller": (bool,),
        "var_choice": (str,),
        "pairwise_step3": (str,),
        "exploit_monotonicity": (bool,),
        "auto_decompose": (bool,),
        "heartbeat": (int, float, type(None)),
        "heartbeat_stall": (int, float, type(None)),
    }

    def to_dict(self) -> Dict[str, Any]:
        """Every serializable field, plus ``schema_version``.

        The faithful wire form of this Options object: JSON-safe, and
        :meth:`from_dict` round-trips it exactly.  The sink fields
        (:attr:`SINK_FIELDS`) are live objects and are skipped — a
        deserialized Options starts with null sinks.
        """
        data: Dict[str, Any] = {"schema_version": OPTIONS_SCHEMA_VERSION}
        for field in fields(self):
            if field.name not in self.SINK_FIELDS:
                data[field.name] = getattr(self, field.name)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Options":
        """Build a validated Options from its :meth:`to_dict` form.

        Strict on purpose — this is the request-parsing path of the job
        server: unknown keys, sink fields, wrong value types, out-of-
        registry string values, and schema-version mismatches all raise
        ``ValueError`` with a message that names the offending field.
        Missing fields keep their dataclass defaults, so ``{}`` is a
        valid (all-defaults) document.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"options must be a JSON object, got {type(data).__name__}")
        values = dict(data)
        version = values.pop("schema_version", OPTIONS_SCHEMA_VERSION)
        if version != OPTIONS_SCHEMA_VERSION:
            raise ValueError(
                f"options schema_version {version!r} != "
                f"{OPTIONS_SCHEMA_VERSION} (this build)")
        sinks = sorted(set(values) & set(cls.SINK_FIELDS))
        if sinks:
            raise ValueError(
                f"options field(s) {sinks} hold live sink objects and "
                "are not serializable; build the Options first, then "
                "attach sinks to the instance")
        unknown = sorted(set(values) - set(cls.FIELD_TYPES))
        if unknown:
            raise ValueError(
                f"unknown options field(s) {unknown}; valid fields: "
                f"{sorted(cls.FIELD_TYPES)}")
        for name, value in values.items():
            allowed = cls.FIELD_TYPES[name]
            if isinstance(value, bool) and bool not in allowed:
                raise ValueError(
                    f"options field {name!r}: expected "
                    f"{_type_names(allowed)}, got bool")
            if not isinstance(value, allowed):
                raise ValueError(
                    f"options field {name!r}: expected "
                    f"{_type_names(allowed)}, got "
                    f"{type(value).__name__}")
        options = cls(**values)
        try:
            options.validate()
        except ValueError as error:
            raise ValueError(f"invalid options: {error}") from None
        return options

    def request_dict(self) -> Dict[str, Any]:
        """The cache-identity view of these options.

        :meth:`to_dict` minus ``schema_version`` and the heartbeat
        cadence (``heartbeat`` / ``heartbeat_stall``): progress-line
        frequency never changes a result, so two requests differing
        only there must hash identically and share a ledger entry.
        """
        data = self.to_dict()
        for key in ("schema_version", "heartbeat", "heartbeat_stall"):
            data.pop(key, None)
        return data

    def summary(self) -> Dict[str, Any]:
        """The engine-relevant knobs as a plain dict.

        This is the config identity of a run: the ``run_start`` trace
        event carries it and the run ledger content-addresses on it, so
        it deliberately excludes the observability sinks themselves
        (tracing/metrics/spans never change the result) and the
        heartbeat cadence.
        """
        return {"max_nodes": self.max_nodes,
                "time_limit": self.time_limit,
                "max_iterations": self.max_iterations,
                "gc_min_nodes": self.gc_min_nodes,
                "cluster_limit": self.cluster_limit,
                "back_image_mode": self.back_image_mode,
                "grow_threshold": self.grow_threshold,
                "evaluator": self.evaluator,
                "use_bounded_and": self.use_bounded_and,
                "simplifier": self.simplifier,
                "var_choice": self.var_choice,
                "pairwise_step3": self.pairwise_step3,
                "exploit_monotonicity": self.exploit_monotonicity,
                "auto_decompose": self.auto_decompose}

    def validate(self) -> None:
        """Sanity-check option combinations."""
        if self.evaluator not in ("greedy", "matching"):
            raise ValueError(f"unknown evaluator {self.evaluator!r}")
        if self.grow_threshold <= 0:
            raise ValueError("grow_threshold must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.back_image_mode not in BACK_IMAGE_MODES:
            raise ValueError(
                f"unknown back_image_mode {self.back_image_mode!r}")
        if self.simplifier not in ("restrict", "constrain", "multiway"):
            raise ValueError(f"unknown simplifier {self.simplifier!r}")
        if self.var_choice not in VAR_CHOICES:
            raise ValueError(f"unknown var_choice {self.var_choice!r}")
        if self.pairwise_step3 not in ("simplify", "direct", "off"):
            raise ValueError(
                f"unknown pairwise_step3 {self.pairwise_step3!r}")
        if self.heartbeat is not None and self.heartbeat <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.heartbeat_stall is not None and self.heartbeat_stall <= 0:
            raise ValueError("heartbeat_stall must be positive")


def _type_names(allowed: tuple) -> str:
    names = [("null" if kind is type(None) else kind.__name__)
             for kind in allowed]
    return " | ".join(names)


def request_hash(model: str, method: str, *,
                 params: Optional[Mapping[str, Any]] = None,
                 bug: Optional[str] = None,
                 assisted: bool = False,
                 options: Optional[Union[Options,
                                         Mapping[str, Any]]] = None) -> str:
    """Canonical content hash of one verification request.

    The one request identity shared by the job server and the run
    ledger: sha256 over the sorted-key canonical JSON of the request
    document — model, method, model parameters, bug label, assisted
    flag, and the cache-relevant option knobs
    (:meth:`Options.request_dict`, so heartbeat cadence is excluded).
    ``options`` may be an :class:`Options` or its ``to_dict`` form
    (validated through :meth:`Options.from_dict` first); None means
    defaults.  Two requests hash equal iff the engine would do the
    same work — the server serves the second straight from the ledger.
    """
    if options is None:
        options = Options()
    elif not isinstance(options, Options):
        options = Options.from_dict(options)
    document = {
        "schema_version": OPTIONS_SCHEMA_VERSION,
        "model": model,
        "method": method,
        "params": {str(key): (params or {})[key]
                   for key in sorted(params or {})},
        "bug": bug,
        "assisted": bool(assisted),
        "options": options.request_dict(),
    }
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
