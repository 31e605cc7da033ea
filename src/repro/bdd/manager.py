"""Reduced ordered BDDs with complement edges.

This is the substrate the paper assumes: an "efficient BDD
implementation (where negation is constant-time)" in the style of
Brace, Rudell, and Bryant (DAC 1990).  Nodes live in a unique table so
that every Boolean function has exactly one representation, and edges
carry a complement bit so negation never allocates.

Edges are plain integers: ``edge = (node_index << 1) | complement``.
Node 0 is the single terminal (the constant True); the edge ``0`` is
True and the edge ``1`` is its complement, False.  Canonicity requires
that the *then* (high) edge of every stored node is regular
(non-complemented); :meth:`BDD._mk` restores this invariant by
complementing both children and the resulting edge when needed.

The public, user-facing API is the :class:`Function` wrapper; internal
algorithms work on raw integer edges (methods prefixed ``_``) to keep
the hot paths allocation-free.

**The gc_epoch contract for external edge-keyed caches.**  Raw integer
edges are only stable between garbage collections: only
:meth:`BDD.garbage_collect` renumbers nodes, and with collection
enabled every verification run begins with one
(:meth:`repro.core.RunRecorder.run`).  Any cache outside the manager
that keys on edges (or stores edges as values) holds garbage
afterwards.  The manager advertises each collection by incrementing
:attr:`BDD.gc_epoch`.  An external cache must therefore record the
epoch at which it was filled and flush itself whenever the manager's
epoch differs — never serve an entry recorded under an older epoch.
:class:`EpochGuard` packages the discipline; the tautology memo, the
size memo (:class:`repro.bdd.sizing.SizeMemo`) and the pair cache
(:class:`repro.iclist.paircache.PairCache`) all use it.

Cumulative operation statistics (cache hits/misses, node allocations,
bounded-AND aborts, ...) survive :meth:`BDD.clear_caches` and
:meth:`BDD.garbage_collect` — flushing a memo table never resets the
counters — and are reported by :meth:`BDD.stats`.
"""

from __future__ import annotations

import sys
import time
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.probe import NULL_PROBE

__all__ = ["BDD", "EpochGuard", "Function", "BudgetExceededError",
           "TERMINAL_LEVEL"]

#: Pseudo-level of the terminal node; larger than any variable level.
TERMINAL_LEVEL = 1 << 60

_RECURSION_HEADROOM = 200_000

# Deep BDDs recurse once per variable level; raise the interpreter limit
# once, at import time.
if sys.getrecursionlimit() < _RECURSION_HEADROOM:
    sys.setrecursionlimit(_RECURSION_HEADROOM)


class BudgetExceededError(Exception):
    """Raised when a node or wall-clock budget set on the manager is hit.

    The paper reports intractable runs as "Exceeded 60MB" or "Exceeded
    40 minutes"; engines reproduce those rows by catching this error.
    """

    def __init__(self, kind: str, limit: float) -> None:
        super().__init__(f"{kind} budget exceeded (limit: {limit})")
        self.kind = kind
        self.limit = limit


class BDD:
    """A BDD manager: variable order, unique table, and operation caches.

    Variables are created with :meth:`new_var` and are ordered by
    creation, once and for all: like the paper's experiments, this
    package fixes every variable order up front.  Only
    :meth:`garbage_collect` renumbers nodes (see the gc_epoch contract
    in the module docstring).
    """

    def __init__(self, max_nodes: Optional[int] = None,
                 time_limit: Optional[float] = None) -> None:
        # Parallel arrays indexed by node id.  Node 0 is the terminal.
        self._level: List[int] = [TERMINAL_LEVEL]
        self._high: List[int] = [0]
        self._low: List[int] = [0]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._var_names: List[str] = []
        self._name_to_level: Dict[str, int] = {}
        # Operation caches.
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._quant_cache: Dict[Tuple[int, int, int], int] = {}
        self._andex_cache: Dict[Tuple[int, int, int, int], int] = {}
        self._restrict_cache: Dict[Tuple[int, int], int] = {}
        self._constrain_cache: Dict[Tuple[int, int], int] = {}
        self._compose_caches: Dict[int, Dict[int, int]] = {}
        self._compose_key = 0
        self._levelset_ids: Dict[frozenset, int] = {}
        # Live Function handles, for garbage collection roots.  Keyed by
        # object identity: Function equality is *value* equality, so a
        # WeakSet would silently drop the second handle wrapping the
        # same edge — and garbage collection must remap every handle.
        self._functions: Dict[int, "weakref.ref[Function]"] = {}
        #: Bumped by every garbage_collect(); external edge-keyed caches
        #: (e.g. the tautology memo) must flush when it changes.
        self.gc_epoch = 0
        self._gc_trigger: Optional[int] = None
        #: When set (engines do this for the duration of a run),
        #: :meth:`auto_collect` becomes active at library safe points.
        self.auto_gc_min_nodes: Optional[int] = None
        #: The :class:`~repro.obs.probe.Probe` this manager reports its
        #: leaf operations, collections and safe points to.  A run
        #: installs its own for its duration; the default
        #: :data:`~repro.obs.probe.NULL_PROBE` reports nothing.
        self.probe = NULL_PROBE
        # Budgets.
        self.max_nodes = max_nodes
        self._deadline = (time.monotonic() + time_limit
                          if time_limit is not None else None)
        self._time_check_countdown = 4096
        self._peak_nodes = 1
        # Cumulative operation statistics.  Plain int attributes (not a
        # dict) to keep the per-call overhead in the hot recursions to a
        # single attribute increment; assembled into a dict by stats().
        # These survive clear_caches()/garbage_collect() by design.
        self._ite_hits = 0
        self._ite_misses = 0
        self._quant_hits = 0
        self._quant_misses = 0
        self._andex_hits = 0
        self._andex_misses = 0
        self._restrict_hits = 0
        self._restrict_misses = 0
        self._constrain_hits = 0
        self._constrain_misses = 0
        self._cache_evictions = 0
        self._cache_flushes = 0
        self._nodes_created = 1  # the terminal
        self._gc_runs = 0
        self._gc_freed = 0
        self._bounded_and_calls = 0
        self._bounded_and_aborts = 0

    # ------------------------------------------------------------------
    # Constants and variables
    # ------------------------------------------------------------------

    @property
    def true(self) -> "Function":
        """The constant True function."""
        return Function(self, 0)

    @property
    def false(self) -> "Function":
        """The constant False function."""
        return Function(self, 1)

    def new_var(self, name: str) -> "Function":
        """Create a fresh variable at the bottom of the current order."""
        if name in self._name_to_level:
            raise ValueError(f"variable {name!r} already exists")
        level = len(self._var_names)
        self._var_names.append(name)
        self._name_to_level[name] = level
        return Function(self, self._mk(level, 0, 1))

    def var(self, name: str) -> "Function":
        """Return the function for an existing variable by name."""
        level = self._name_to_level[name]
        return Function(self, self._var_edge(level))

    def var_at_level(self, level: int) -> "Function":
        """Return the variable function for a given level."""
        if not 0 <= level < len(self._var_names):
            raise IndexError(f"no variable at level {level}")
        return Function(self, self._var_edge(level))

    def level_of(self, name: str) -> int:
        """Return the order position (level) of a named variable."""
        return self._name_to_level[name]

    def name_of_level(self, level: int) -> str:
        """Return the variable name at a given level."""
        return self._var_names[level]

    @property
    def var_names(self) -> Tuple[str, ...]:
        """All variable names in order."""
        return tuple(self._var_names)

    @property
    def num_vars(self) -> int:
        """Number of variables declared so far."""
        return len(self._var_names)

    @property
    def num_nodes_allocated(self) -> int:
        """Current node-table size (shrinks at garbage collection)."""
        return len(self._level)

    @property
    def peak_nodes(self) -> int:
        """High-water mark of the node table (our memory proxy)."""
        return self._peak_nodes

    def estimated_memory_bytes(self) -> int:
        """Rough memory estimate: peak table size times a per-node cost.

        The paper itself warns that total memory "is highly sensitive to
        details of the BDD implementation"; this figure exists only so
        the benchmark tables have a Mem column with the right *shape*.
        """
        return self.peak_nodes * 40

    def clear_caches(self) -> None:
        """Drop all operation caches (unique table is kept).

        Cumulative statistics counters are *preserved*: the dropped
        memo entries are tallied as evictions and the flush itself is
        counted, but hit/miss/allocation history is never reset (see
        the gc_epoch contract in the module docstring).
        """
        self._cache_evictions += (
            len(self._ite_cache) + len(self._quant_cache)
            + len(self._andex_cache) + len(self._restrict_cache)
            + len(self._constrain_cache)
            + sum(len(cache) for cache in self._compose_caches.values()))
        self._cache_flushes += 1
        self._ite_cache.clear()
        self._quant_cache.clear()
        self._andex_cache.clear()
        self._restrict_cache.clear()
        self._constrain_cache.clear()
        self._compose_caches.clear()

    def stats(self) -> Dict[str, int]:
        """Snapshot of the manager-wide operation statistics.

        Returns a flat ``{counter: value}`` dict.  All entries except
        the gauges ``nodes_current`` and ``nodes_peak`` are monotone
        counters that survive :meth:`clear_caches` and
        :meth:`garbage_collect`; use :meth:`stats_delta` to report the
        cost of one region of work.
        """
        return {
            "ite_hits": self._ite_hits,
            "ite_misses": self._ite_misses,
            "quantify_hits": self._quant_hits,
            "quantify_misses": self._quant_misses,
            "and_exists_hits": self._andex_hits,
            "and_exists_misses": self._andex_misses,
            "restrict_hits": self._restrict_hits,
            "restrict_misses": self._restrict_misses,
            "constrain_hits": self._constrain_hits,
            "constrain_misses": self._constrain_misses,
            "cache_evictions": self._cache_evictions,
            "cache_flushes": self._cache_flushes,
            "nodes_created": self._nodes_created,
            "nodes_current": len(self._level),
            "nodes_peak": self._peak_nodes,
            "gc_runs": self._gc_runs,
            "gc_freed": self._gc_freed,
            "bounded_and_calls": self._bounded_and_calls,
            "bounded_and_aborts": self._bounded_and_aborts,
        }

    #: stats() keys that are point-in-time gauges, not monotone counters.
    STAT_GAUGES = frozenset({"nodes_current", "nodes_peak"})

    @classmethod
    def stats_delta(cls, before: Dict[str, int],
                    after: Dict[str, int]) -> Dict[str, int]:
        """Difference of two :meth:`stats` snapshots.

        Counters are subtracted; gauges keep their ``after`` value.
        """
        return {key: (value if key in cls.STAT_GAUGES
                      else value - before.get(key, 0))
                for key, value in after.items()}

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _register(self, fn: "Function") -> None:
        key = id(fn)
        registry = self._functions

        def _drop(_ref, registry=registry, key=key):
            registry.pop(key, None)

        registry[key] = weakref.ref(fn, _drop)

    def _live_functions(self) -> List["Function"]:
        handles = []
        for ref in list(self._functions.values()):
            fn = ref()
            if fn is not None:
                handles.append(fn)
        return handles

    def num_live_nodes(self) -> int:
        """Nodes reachable from live :class:`Function` handles."""
        return self._count_nodes(
            [fn.edge for fn in self._live_functions()])

    def garbage_collect(self) -> int:
        """Mark-compact collection; returns the number of nodes freed.

        Dead nodes accumulate because the unique table is append-only
        between collections — after enough fixpoint iterations the
        garbage dwarfs the live structure (the paper's "vagaries of
        garbage collection" are real).  Roots are the live
        :class:`Function` handles; raw integer edges held anywhere else
        become stale, so this must only be called between operations
        (engines call it between iterations).  External caches keyed by
        edges must flush when :attr:`gc_epoch` changes.
        """
        if len(self._compose_caches) > 0:
            raise RuntimeError("garbage_collect during vector compose")
        with self.probe.span("gc") as span:
            handles = self._live_functions()
            marked = bytearray(len(self._level))
            marked[0] = 1
            stack = [fn.edge >> 1 for fn in handles]
            while stack:
                node = stack.pop()
                if marked[node]:
                    continue
                marked[node] = 1
                stack.append(self._high[node] >> 1)
                stack.append(self._low[node] >> 1)
            before = len(self._level)
            remap: List[int] = [0] * before
            # Nodes are only ever appended above their children, so one
            # pass in id order remaps every child before its parent.
            new_level: List[int] = [self._level[0]]
            new_high: List[int] = [0]
            new_low: List[int] = [0]
            for node in range(1, before):
                if marked[node]:
                    remap[node] = len(new_level)
                    new_level.append(self._level[node])
                    new_high.append(
                        self._remap_edge(self._high[node], remap))
                    new_low.append(self._remap_edge(self._low[node], remap))
            self._level = new_level
            self._high = new_high
            self._low = new_low
            self._unique = {
                (self._level[node], self._high[node], self._low[node]): node
                for node in range(1, len(self._level))}
            for fn in handles:
                fn.edge = self._remap_edge(fn.edge, remap)
            self.clear_caches()
            self.gc_epoch += 1
            self._gc_runs += 1
            freed = before - len(self._level)
            self._gc_freed += freed
            span.note(freed=freed, live=len(self._level),
                      epoch=self.gc_epoch)
        return freed

    @staticmethod
    def _remap_edge(edge: int, remap: List[int]) -> int:
        return (remap[edge >> 1] << 1) | (edge & 1)

    def maybe_collect(self, min_nodes: int = 200_000,
                      garbage_ratio: float = 1.0) -> bool:
        """Collect when the table has grown enough to plausibly pay off.

        Uses a cheap trigger (table size doubled since the last
        collection, once past ``min_nodes``) rather than counting live
        nodes on every call.
        """
        allocated = len(self._level)
        if allocated < min_nodes:
            return False
        if self._gc_trigger is not None and allocated < self._gc_trigger:
            return False
        freed = self.garbage_collect()
        live = len(self._level)
        self._gc_trigger = max(min_nodes,
                               int(live * (1.0 + garbage_ratio)))
        return freed > 0

    def auto_collect(self) -> None:
        """Collection hook for library safe points.

        No-op unless an engine armed it by setting
        :attr:`auto_gc_min_nodes`.  Callers must hold no raw integer
        edges across this call — only :class:`Function` handles, which
        are remapped.
        """
        if self.auto_gc_min_nodes is not None:
            self.maybe_collect(min_nodes=self.auto_gc_min_nodes)
        self.probe.safe_point()

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def _var_edge(self, level: int) -> int:
        return self._mk(level, 0, 1)

    def _mk(self, level: int, high: int, low: int) -> int:
        """Find-or-create the node (level, high, low); returns an edge.

        Enforces both reduction rules (no redundant node, unique table)
        and the complement-edge canonical form (regular then-edge).
        """
        if high == low:
            return high
        if high & 1:
            return self._mk_raw(level, high ^ 1, low ^ 1) | 1
        return self._mk_raw(level, high, low)

    def _mk_raw(self, level: int, high: int, low: int) -> int:
        key = (level, high, low)
        node = self._unique.get(key)
        if node is not None:
            return node << 1
        node = len(self._level)
        if self.max_nodes is not None and node > self.max_nodes:
            raise BudgetExceededError("node", self.max_nodes)
        if self._deadline is not None:
            self._time_check_countdown -= 1
            if self._time_check_countdown <= 0:
                self._time_check_countdown = 4096
                if time.monotonic() > self._deadline:
                    raise BudgetExceededError(
                        "time", self._deadline)
        self._level.append(level)
        self._high.append(high)
        self._low.append(low)
        self._unique[key] = node
        self._nodes_created += 1
        if node + 1 > self._peak_nodes:
            self._peak_nodes = node + 1
        return node << 1

    # ------------------------------------------------------------------
    # Edge inspection helpers (internal)
    # ------------------------------------------------------------------

    def _edge_level(self, edge: int) -> int:
        return self._level[edge >> 1]

    def _cofactors(self, edge: int) -> Tuple[int, int]:
        """High and low cofactors of an edge at its own top level."""
        node = edge >> 1
        sign = edge & 1
        return self._high[node] ^ sign, self._low[node] ^ sign

    def _cofactors_at(self, edge: int, level: int) -> Tuple[int, int]:
        """Cofactors with respect to ``level`` (identity if below top)."""
        node = edge >> 1
        if self._level[node] != level:
            return edge, edge
        sign = edge & 1
        return self._high[node] ^ sign, self._low[node] ^ sign

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------

    def _ite(self, f: int, g: int, h: int) -> int:
        # Terminal cases.
        if f == 0:
            return g
        if f == 1:
            return h
        if g == h:
            return g
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        if g == f:
            g = 0
        elif g == (f ^ 1):
            g = 1
        if h == f:
            h = 1
        elif h == (f ^ 1):
            h = 0
        if g == h:
            return g
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        # Canonicalize: regular f, then regular g (complement the result).
        if f & 1:
            f, g, h = f ^ 1, h, g
        negate = False
        if g & 1:
            g, h = g ^ 1, h ^ 1
            negate = True
        key = (f, g, h)
        cache = self._ite_cache
        result = cache.get(key)
        if result is None:
            self._ite_misses += 1
            levels = self._level
            lf = levels[f >> 1]
            lg = levels[g >> 1]
            lh = levels[h >> 1]
            top = lf if lf < lg else lg
            if lh < top:
                top = lh
            f1, f0 = self._cofactors_at(f, top)
            g1, g0 = self._cofactors_at(g, top)
            h1, h0 = self._cofactors_at(h, top)
            result = self._mk(top, self._ite(f1, g1, h1),
                              self._ite(f0, g0, h0))
            cache[key] = result
        else:
            self._ite_hits += 1
        return result ^ 1 if negate else result

    def _and(self, f: int, g: int) -> int:
        return self._ite(f, g, 1)

    def _or(self, f: int, g: int) -> int:
        return self._ite(f, 0, g)

    def _xor(self, f: int, g: int) -> int:
        return self._ite(f, g ^ 1, g)

    def _implies(self, f: int, g: int) -> int:
        return self._ite(f, g, 0)

    def _iff(self, f: int, g: int) -> int:
        return self._ite(f, g, g ^ 1)

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------

    def _levelset_id(self, levelset: frozenset) -> int:
        key = self._levelset_ids.get(levelset)
        if key is None:
            key = len(self._levelset_ids)
            self._levelset_ids[levelset] = key
        return key

    def _exists(self, f: int, levels: frozenset, levels_key: int,
                max_level: int) -> int:
        if f <= 1 or self._level[f >> 1] > max_level:
            return f
        key = (f, levels_key, 0)
        cached = self._quant_cache.get(key)
        if cached is not None:
            self._quant_hits += 1
            return cached
        self._quant_misses += 1
        top = self._level[f >> 1]
        f1, f0 = self._cofactors(f)
        r1 = self._exists(f1, levels, levels_key, max_level)
        if top in levels:
            if r1 == 0:
                result = 0
            else:
                r0 = self._exists(f0, levels, levels_key, max_level)
                result = self._or(r1, r0)
        else:
            r0 = self._exists(f0, levels, levels_key, max_level)
            result = self._mk(top, r1, r0)
        self._quant_cache[key] = result
        return result

    def _quantify(self, f: int, levels: Iterable[int], exist: bool) -> int:
        levelset = frozenset(levels)
        if not levelset:
            return f
        levels_key = self._levelset_id(levelset)
        max_level = max(levelset)
        if exist:
            return self._exists(f, levelset, levels_key, max_level)
        return self._exists(f ^ 1, levelset, levels_key, max_level) ^ 1

    # ------------------------------------------------------------------
    # Relational product (and-exists)
    # ------------------------------------------------------------------

    def _and_exists(self, f: int, g: int, levels: frozenset,
                    levels_key: int, max_level: int) -> int:
        # Edge encoding reminder: 0 is True, 1 is False.
        if f == 1 or g == 1:
            return 1
        if f == 0 or f == g:
            return self._exists(g, levels, levels_key, max_level)
        if g == 0:
            return self._exists(f, levels, levels_key, max_level)
        if f == (g ^ 1):
            return 1  # f AND not-f is False; exists of False is False
        if f > g:
            f, g = g, f
        levf = self._level[f >> 1]
        levg = self._level[g >> 1]
        top = levf if levf < levg else levg
        if top > max_level:
            return self._and(f, g)
        key = (f, g, levels_key, 0)
        cached = self._andex_cache.get(key)
        if cached is not None:
            self._andex_hits += 1
            return cached
        self._andex_misses += 1
        f1, f0 = self._cofactors_at(f, top)
        g1, g0 = self._cofactors_at(g, top)
        r1 = self._and_exists(f1, g1, levels, levels_key, max_level)
        if top in levels:
            if r1 == 0:
                result = 0
            else:
                r0 = self._and_exists(f0, g0, levels, levels_key, max_level)
                result = self._or(r1, r0)
        else:
            r0 = self._and_exists(f0, g0, levels, levels_key, max_level)
            result = self._mk(top, r1, r0)
        self._andex_cache[key] = result
        return result

    def _relprod(self, f: int, g: int, levels: Iterable[int]) -> int:
        with self.probe.span("relprod"):
            levelset = frozenset(levels)
            if not levelset:
                return self._and(f, g)
            return self._and_exists(f, g, levelset,
                                    self._levelset_id(levelset),
                                    max(levelset))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def _vector_compose(self, f: int, subst: Dict[int, int]) -> int:
        """Simultaneously substitute ``subst[level]`` for each variable."""
        if not subst:
            return f
        self._compose_key += 1
        cache: Dict[int, int] = {}
        self._compose_caches[self._compose_key] = cache
        max_level = max(subst)
        try:
            return self._vcompose_rec(f, subst, cache, max_level)
        finally:
            del self._compose_caches[self._compose_key]

    def _vcompose_rec(self, f: int, subst: Dict[int, int],
                      cache: Dict[int, int], max_level: int) -> int:
        if f <= 1:
            return f
        node = f >> 1
        if self._level[node] > max_level:
            return f
        sign = f & 1
        cached = cache.get(node)
        if cached is None:
            top = self._level[node]
            h = self._vcompose_rec(self._high[node], subst, cache, max_level)
            l = self._vcompose_rec(self._low[node], subst, cache, max_level)
            g = subst.get(top)
            if g is None:
                g = self._var_edge(top)
            cached = self._ite(g, h, l)
            cache[node] = cached
        return cached ^ sign

    def _rename(self, f: int, levelmap: Dict[int, int]) -> int:
        """Rename variables by an order-preserving level map.

        Only valid when the map is monotone with respect to the variable
        order and the image levels do not collide with unmapped levels in
        the support (checked by :meth:`Function.rename`).  Implemented as
        vector compose with variable targets, which is always safe.
        """
        subst = {src: self._var_edge(dst) for src, dst in levelmap.items()}
        return self._vector_compose(f, subst)

    # ------------------------------------------------------------------
    # Generalized cofactors: Restrict and Constrain
    # ------------------------------------------------------------------

    def _restrict(self, f: int, c: int) -> int:
        """Coudert–Berthet–Madre Restrict (a.k.a. "Reduce" [20]).

        Returns a BDD that agrees with ``f`` wherever ``c`` is true and
        is often (not always) smaller.  Matches the recursive definition
        quoted in the paper's proof of Theorem 3.

        ``c`` equal to the constant False means an empty care set, for
        which any result is acceptable; we return ``f`` unchanged so the
        operator stays total.
        """
        sign = f & 1
        with self.probe.span("restrict"):
            return self._restrict_rec(f ^ sign, c) ^ sign

    def _restrict_rec(self, f: int, c: int) -> int:
        # Edge encoding reminder: 0 is True, 1 is False.
        if c <= 1 or f <= 1:
            return f
        key = (f, c)
        cached = self._restrict_cache.get(key)
        if cached is not None:
            self._restrict_hits += 1
            return cached
        self._restrict_misses += 1
        lf = self._level[f >> 1]
        lc = self._level[c >> 1]
        if lc < lf:
            # Top variable of c does not appear in f: f_x = f_xbar, so
            # restrict by (c_x or c_xbar), i.e. existentially drop x.
            c1, c0 = self._cofactors(c)
            result = self._restrict_rec(f, self._or(c1, c0))
        else:
            f1, f0 = self._cofactors(f)
            if lf < lc:
                c1 = c0 = c
            else:
                c1, c0 = self._cofactors(c)
            if c1 == 1:  # c_x is False
                result = self._restrict_rec(f0, c0)
            elif c0 == 1:  # c_xbar is False
                result = self._restrict_rec(f1, c1)
            else:
                result = self._mk(lf, self._restrict_rec(f1, c1),
                                  self._restrict_rec(f0, c0))
        self._restrict_cache[key] = result
        return result

    def _constrain(self, f: int, c: int) -> int:
        """Coudert–Madre Constrain (the original generalized cofactor)."""
        sign = f & 1
        with self.probe.span("constrain"):
            return self._constrain_rec(f ^ sign, c) ^ sign

    def _constrain_rec(self, f: int, c: int) -> int:
        if c <= 1 or f <= 1:
            return f
        if f == c:
            return 0  # On the care set, f is true everywhere.
        if f == (c ^ 1):
            return 1  # On the care set, f is false everywhere.
        key = (f, c)
        cached = self._constrain_cache.get(key)
        if cached is not None:
            self._constrain_hits += 1
            return cached
        self._constrain_misses += 1
        lf = self._level[f >> 1]
        lc = self._level[c >> 1]
        top = lf if lf < lc else lc
        f1, f0 = self._cofactors_at(f, top)
        c1, c0 = self._cofactors_at(c, top)
        if c1 == 1:  # c_x is False
            result = self._constrain_rec(f0, c0)
        elif c0 == 1:  # c_xbar is False
            result = self._constrain_rec(f1, c1)
        else:
            result = self._mk(top, self._constrain_rec(f1, c1),
                              self._constrain_rec(f0, c0))
        self._constrain_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def _intersects(self, f: int, g: int,
                    seen: Optional[set] = None) -> bool:
        """Whether ``f and g`` is satisfiable, without building the
        conjunction.

        Depth-first search for one common satisfying path, pruning
        visited (f, g) pairs.  Worst case matches ``_and``, but typical
        intersection checks exit on the first witness — this backs the
        engines' violation tests (``S`` against each ``not X_j``).
        """
        if f == 1 or g == 1 or f == (g ^ 1):
            return False
        if f == 0:
            return g != 1
        if g == 0 or f == g:
            return True
        if f > g:
            f, g = g, f
        if seen is None:
            seen = set()
        key = (f, g)
        if key in seen:
            return False  # already explored, found nothing
        seen.add(key)
        lf = self._level[f >> 1]
        lg = self._level[g >> 1]
        top = lf if lf < lg else lg
        f1, f0 = self._cofactors_at(f, top)
        g1, g0 = self._cofactors_at(g, top)
        if self._intersects(f1, g1, seen):
            return True
        return self._intersects(f0, g0, seen)

    def _support_levels(self, edge: int) -> frozenset:
        seen = set()
        support = set()
        stack = [edge >> 1]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            support.add(self._level[node])
            stack.append(self._high[node] >> 1)
            stack.append(self._low[node] >> 1)
        return frozenset(support)

    def _count_nodes(self, edges: Iterable[int]) -> int:
        """Number of distinct nodes (terminal included) under the roots.

        This is the paper's ``BDDSize`` with node sharing taken into
        account: ``BDDSize(X_i, X_j)`` counts shared structure once.
        """
        seen = set()
        stack = [e >> 1 for e in edges]
        nontrivial = False
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node == 0:
                continue
            nontrivial = True
            stack.append(self._high[node] >> 1)
            stack.append(self._low[node] >> 1)
        if not nontrivial:
            return 1 if seen else 0
        seen.add(0)
        return len(seen)

    def _eval(self, edge: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a total assignment (by level)."""
        while edge > 1:
            node = edge >> 1
            sign = edge & 1
            level = self._level[node]
            try:
                value = assignment[level]
            except KeyError:
                raise KeyError(
                    f"assignment missing variable "
                    f"{self._var_names[level]!r}") from None
            edge = (self._high[node] if value else self._low[node]) ^ sign
        return edge == 0

    # ------------------------------------------------------------------
    # Function construction helpers
    # ------------------------------------------------------------------

    def from_edge(self, edge: int) -> "Function":
        """Wrap a raw edge (internal integrations and tests only)."""
        return Function(self, edge)

    def conj(self, functions: Iterable["Function"]) -> "Function":
        """Conjunction of several functions (True for empty input)."""
        edge = 0
        for fn in functions:
            self._check_manager(fn)
            edge = self._and(edge, fn.edge)
            if edge == 1:
                break
        return Function(self, edge)

    def disj(self, functions: Iterable["Function"]) -> "Function":
        """Disjunction of several functions (False for empty input)."""
        edge = 1
        for fn in functions:
            self._check_manager(fn)
            edge = self._or(edge, fn.edge)
            if edge == 0:
                break
        return Function(self, edge)

    def ite(self, f: "Function", g: "Function", h: "Function") -> "Function":
        """If-then-else of three functions."""
        for fn in (f, g, h):
            self._check_manager(fn)
        return Function(self, self._ite(f.edge, g.edge, h.edge))

    def count_nodes(self, functions: Iterable["Function"]) -> int:
        """Shared node count over several roots (paper's BDDSize)."""
        return self._count_nodes(fn.edge for fn in functions)

    def cube(self, assignment: Dict[str, bool]) -> "Function":
        """Conjunction of literals given as ``{name: polarity}``."""
        edge = 0
        for name in sorted(assignment,
                           key=lambda n: self._name_to_level[n],
                           reverse=True):
            level = self._name_to_level[name]
            var = self._var_edge(level)
            lit = var if assignment[name] else var ^ 1
            edge = self._and(lit, edge)
        return Function(self, edge)

    def _check_manager(self, fn: "Function") -> None:
        if fn.bdd is not self:
            raise ValueError("mixing functions from different managers")


class Function:
    """A Boolean function: an edge into a :class:`BDD` manager.

    Supports the usual operators (``& | ^ ~``), comparisons for
    *identity of function* via :meth:`equiv`, and structural queries.
    Instances always denote the same Boolean function, but
    :meth:`BDD.garbage_collect` may renumber the underlying edge —
    hashes are therefore only stable between collections; avoid holding
    Functions in hash-based containers across engine iterations.  A
    verification run with collection enabled (``Options.gc_min_nodes``
    not None, the default) collects before its first iteration, so
    hashes are stable only between runs too.
    """

    __slots__ = ("bdd", "edge", "__weakref__")

    def __init__(self, bdd: BDD, edge: int) -> None:
        self.bdd = bdd
        self.edge = edge
        bdd._register(self)

    # -- operators ------------------------------------------------------

    def __and__(self, other: "Function") -> "Function":
        self.bdd._check_manager(other)
        with self.bdd.probe.span("apply"):
            return Function(self.bdd, self.bdd._and(self.edge, other.edge))

    def __or__(self, other: "Function") -> "Function":
        self.bdd._check_manager(other)
        with self.bdd.probe.span("apply"):
            return Function(self.bdd, self.bdd._or(self.edge, other.edge))

    def __xor__(self, other: "Function") -> "Function":
        self.bdd._check_manager(other)
        with self.bdd.probe.span("apply"):
            return Function(self.bdd, self.bdd._xor(self.edge, other.edge))

    def __invert__(self) -> "Function":
        return Function(self.bdd, self.edge ^ 1)

    def implies(self, other: "Function") -> "Function":
        """The function ``self -> other``."""
        self.bdd._check_manager(other)
        with self.bdd.probe.span("apply"):
            return Function(self.bdd,
                            self.bdd._implies(self.edge, other.edge))

    def iff(self, other: "Function") -> "Function":
        """The function ``self <-> other``."""
        self.bdd._check_manager(other)
        with self.bdd.probe.span("apply"):
            return Function(self.bdd, self.bdd._iff(self.edge, other.edge))

    # -- predicates -----------------------------------------------------

    @property
    def is_true(self) -> bool:
        """Whether this is the constant True."""
        return self.edge == 0

    @property
    def is_false(self) -> bool:
        """Whether this is the constant False."""
        return self.edge == 1

    @property
    def is_constant(self) -> bool:
        """Whether this is True or False."""
        return self.edge <= 1

    def equiv(self, other: "Function") -> bool:
        """Function equality (constant time, thanks to canonicity)."""
        self.bdd._check_manager(other)
        return self.edge == other.edge

    def is_complement_of(self, other: "Function") -> bool:
        """Whether ``self == not other`` (constant time)."""
        self.bdd._check_manager(other)
        return self.edge == (other.edge ^ 1)

    def entails(self, other: "Function") -> bool:
        """Whether ``self -> other`` is valid.

        Implemented as an early-exit intersection test with the
        complement — no implication BDD is materialized, and a single
        counterexample path suffices to answer False.
        """
        self.bdd._check_manager(other)
        return not self.bdd._intersects(self.edge, other.edge ^ 1)

    def intersects(self, other: "Function") -> bool:
        """Whether ``self and other`` is satisfiable (early exit)."""
        self.bdd._check_manager(other)
        return self.bdd._intersects(self.edge, other.edge)

    # -- quantifiers and substitution ------------------------------------

    def exists(self, names: Iterable[str]) -> "Function":
        """Existentially quantify the named variables."""
        levels = [self.bdd.level_of(n) for n in names]
        with self.bdd.probe.span("quantify"):
            return Function(self.bdd,
                            self.bdd._quantify(self.edge, levels, True))

    def forall(self, names: Iterable[str]) -> "Function":
        """Universally quantify the named variables."""
        levels = [self.bdd.level_of(n) for n in names]
        with self.bdd.probe.span("quantify"):
            return Function(self.bdd,
                            self.bdd._quantify(self.edge, levels, False))

    def and_exists(self, other: "Function",
                   names: Iterable[str]) -> "Function":
        """Relational product: ``exists names. self & other``."""
        self.bdd._check_manager(other)
        levels = [self.bdd.level_of(n) for n in names]
        return Function(self.bdd,
                        self.bdd._relprod(self.edge, other.edge, levels))

    def compose(self, substitution: Dict[str, "Function"]) -> "Function":
        """Simultaneously substitute functions for variables by name."""
        subst = {}
        for name, fn in substitution.items():
            self.bdd._check_manager(fn)
            subst[self.bdd.level_of(name)] = fn.edge
        with self.bdd.probe.span("compose"):
            return Function(self.bdd,
                            self.bdd._vector_compose(self.edge, subst))

    def rename(self, mapping: Dict[str, str]) -> "Function":
        """Rename variables; implemented as a safe vector compose."""
        levelmap = {self.bdd.level_of(src): self.bdd.level_of(dst)
                    for src, dst in mapping.items()}
        with self.bdd.probe.span("rename"):
            return Function(self.bdd, self.bdd._rename(self.edge, levelmap))

    def restrict(self, care: "Function") -> "Function":
        """Care-set simplification (Coudert–Berthet–Madre Restrict)."""
        self.bdd._check_manager(care)
        return Function(self.bdd, self.bdd._restrict(self.edge, care.edge))

    def constrain(self, care: "Function") -> "Function":
        """Generalized cofactor (Coudert–Madre Constrain)."""
        self.bdd._check_manager(care)
        return Function(self.bdd, self.bdd._constrain(self.edge, care.edge))

    def cofactor(self, name: str, value: bool) -> "Function":
        """Shannon cofactor with respect to one variable."""
        level = self.bdd.level_of(name)
        edge = self.edge
        node = edge >> 1
        if self.bdd._level[node] == level:
            high, low = self.bdd._cofactors(edge)
            return Function(self.bdd, high if value else low)
        if level in self.bdd._support_levels(edge):
            var = self.bdd._var_edge(level)
            lit = var if value else var ^ 1
            # General cofactor below the root: constrain by the literal.
            return Function(self.bdd, self.bdd._constrain(edge, lit))
        return self

    # -- structure --------------------------------------------------------

    def support(self) -> frozenset:
        """The set of variable names this function depends on."""
        return frozenset(self.bdd._var_names[lvl]
                         for lvl in self.bdd._support_levels(self.edge))

    def size(self) -> int:
        """Node count of this BDD (terminal included)."""
        return self.bdd._count_nodes((self.edge,))

    @property
    def top_var(self) -> Optional[str]:
        """Name of the root variable, or None for constants."""
        level = self.bdd._edge_level(self.edge)
        if level == TERMINAL_LEVEL:
            return None
        return self.bdd._var_names[level]

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under an assignment ``{name: value}``."""
        by_level = {self.bdd._name_to_level[n]: v
                    for n, v in assignment.items()}
        return self.bdd._eval(self.edge, by_level)

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.bdd is other.bdd and self.edge == other.edge

    def __hash__(self) -> int:
        return hash((id(self.bdd), self.edge))

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truth value is ambiguous; use .is_true/.is_false")

    def __repr__(self) -> str:
        if self.is_true:
            return "Function(True)"
        if self.is_false:
            return "Function(False)"
        return (f"Function(top={self.top_var!r}, "
                f"size={self.size()})")


class EpochGuard:
    """The gc_epoch discipline for external edge-keyed caches.

    Holds the :attr:`BDD.gc_epoch` a cache was last filled under;
    :meth:`refresh` reports (exactly once per epoch change) that the
    manager has renumbered edges, at which point the owning cache must
    flush every stored edge before serving another lookup.
    """

    __slots__ = ("manager", "epoch")

    def __init__(self, manager: BDD) -> None:
        self.manager = manager
        self.epoch = manager.gc_epoch

    def refresh(self) -> bool:
        """Resync with the manager; True when a flush is required."""
        current = self.manager.gc_epoch
        if current != self.epoch:
            self.epoch = current
            return True
        return False
