"""Abstract cost accounting for index operations.

The paper measures micro-architectural effects (cache misses, key shifts,
SMO time, statistics maintenance) with hardware counters on a 96-core
Xeon.  A pure-Python reproduction cannot observe those effects through
wall-clock time: interpreter overhead dominates and the GIL removes all
real parallelism.  Instead, every index in this repository *meters* its
work in abstract cost units (node hops, key comparisons, key shifts,
model evaluations, ...).  A single weight table converts units into
virtual nanoseconds calibrated against published DRAM/cache latencies,
which makes throughput ratios, latency breakdowns (Figure 3) and the
multicore trace replay deterministic and reproducible.

Wall-clock numbers are still reported by the benchmark harness for
sanity, but every figure in EXPERIMENTS.md is computed on this clock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Cost kinds
# ---------------------------------------------------------------------------

#: Pointer chase to a different node; on real hardware this is usually an
#: LLC/DRAM miss, the dominant cost of tree traversal.
NODE_HOP = "node_hop"
#: Probe of one slot within the current node (same cache lines, cheap).
SLOT_PROBE = "slot_probe"
#: One key comparison during binary/exponential/linear search.
KEY_COMPARE = "key_compare"
#: Moving one key+payload pair inside a node (ALEX gap shifting, B+-tree
#: insertion into a sorted array, delta compaction).
KEY_SHIFT = "key_shift"
#: Evaluating one linear model (multiply-add + clamp).
MODEL_EVAL = "model_eval"
#: Allocating one node (header + slot array); charged once per node.
ALLOC_NODE = "alloc_node"
#: Zero-fill / copy cost per slot when building or resizing a node.
SLOT_INIT = "slot_init"
#: Updating SMO-decision statistics (counters, error accumulators).
STATS_UPDATE = "stats_update"
#: Atomic read-modify-write on a potentially shared cache line.  Only
#: concurrent adapters charge this; single-threaded runs never do.
ATOMIC_RMW = "atomic_rmw"
#: A data-dependent branch that real hardware is likely to mispredict
#: (e.g. LIPP's "is this slot a child or a record?" test during scans).
BRANCH = "branch"
#: Copying one entry out during a range scan.
SCAN_ENTRY = "scan_entry"
#: Retraining one linear model over n keys: charged per key.
TRAIN_KEY = "train_key"
#: Hashing one key (Wormhole meta-trie, hash tables).
HASH = "hash"
#: One uncached random access inside a large array (binary-search probe
#: landing on a cold cache line).  Cheaper than a full pointer chase
#: (``NODE_HOP``) because data arrays enjoy some locality/prefetch.
CACHE_PROBE = "cache_probe"

#: Version of the cost model: the set of cost kinds, the default
#: weights, and the charging conventions in the index implementations.
#: Bump whenever any of those change — virtual-clock results produced
#: under different cost models are not comparable, and the sweep cache
#: (:mod:`repro.core.sweep`) folds this number into every cache key so
#: stale cells can never be served after a recalibration.
COST_MODEL_VERSION = 1

#: Virtual nanoseconds per unit.  Loosely calibrated: a DRAM miss is
#: ~100ns, L1 arithmetic a few ns, an allocation ~150ns amortized.
DEFAULT_WEIGHTS: Dict[str, float] = {
    NODE_HOP: 100.0,
    SLOT_PROBE: 6.0,
    KEY_COMPARE: 5.0,
    KEY_SHIFT: 10.0,
    MODEL_EVAL: 8.0,
    ALLOC_NODE: 150.0,
    SLOT_INIT: 0.8,
    STATS_UPDATE: 12.0,
    ATOMIC_RMW: 50.0,
    BRANCH: 3.0,
    SCAN_ENTRY: 2.0,
    TRAIN_KEY: 4.0,
    HASH: 15.0,
    CACHE_PROBE: 60.0,
}


def charge_binary_search(meter, probes: float) -> None:
    """Meter a binary search of ``probes`` steps over a *cold* array.

    The last ~3 halvings land inside an already-fetched neighbourhood
    (a couple of cache lines); every earlier probe touches a new line.
    Model-accurate searches (short windows) therefore stay near-free —
    the whole premise of learned indexes — while wide windows pay.
    """
    meter.charge(KEY_COMPARE, probes)
    if probes > 3:
        meter.charge(CACHE_PROBE, probes - 3)


def charge_local_search(meter, probes: float, distance: int) -> None:
    """Meter an exponential/hint-based search.

    Unlike a cold binary search, the probed region is *contiguous around
    the hint*: a distance-d search touches ~d/8 cache lines regardless
    of how many probe steps the doubling took.  This is why accurate
    models make ALEX lookups cheap and why last-mile search cost grows
    with data hardness.
    """
    meter.charge(KEY_COMPARE, probes)
    lines = max(0, (abs(distance) - 4) // 8)
    if lines:
        meter.charge(CACHE_PROBE, min(lines, 64.0))

# Phases used for the Figure-3 style insert breakdown.  ``PHASE_TRAVERSE``
# is the "lookup is the first step of an insert" part; the rest are the
# "what else out-bleeds the speed gain" parts.
PHASE_TRAVERSE = "traverse"
PHASE_SEARCH = "last_mile"
PHASE_COLLISION = "collision"
PHASE_SMO = "smo"
PHASE_STATS = "stats"
PHASE_OTHER = "other"

ALL_PHASES = (
    PHASE_TRAVERSE,
    PHASE_SEARCH,
    PHASE_COLLISION,
    PHASE_SMO,
    PHASE_STATS,
    PHASE_OTHER,
)


def fold_moved(counts: Dict[Tuple[str, str], float],
               seen: Dict[Tuple[str, str], float],
               into: Dict[Tuple[str, str, str], float], tag: str) -> None:
    """The pass behind :meth:`CostMeter.fold_since`, over any counter
    table, in the table's own order."""
    for key, v in counts.items():
        d = v - seen.get(key, 0.0)
        if d:
            seen[key] = v
            cell = (tag, key[0], key[1])
            into[cell] = into.get(cell, 0.0) + d


class CostMeter:
    """Accumulates abstract work, attributed to the active phase.

    Indexes charge units as they work::

        with meter.phase(PHASE_TRAVERSE):
            meter.charge(NODE_HOP)

    The meter supports cheap snapshot/diff so the benchmark runner can
    attribute cost to individual operations.

    **Thread-safety contract:** a ``CostMeter`` is *single-writer*.
    ``charge`` is an unlocked read-modify-write and the phase stack is
    shared mutable state, so two threads charging the same meter lose
    updates and can corrupt phase attribution; readers iterating
    ``_counts`` while a writer inserts a new (phase, kind) key raise
    ``RuntimeError``.  Every engine/sweep/migration path honors this by
    construction (one thread per meter).  Anything that serves one index
    from several threads — the :mod:`repro.core.server` request loop and
    its background job worker — must wrap the meter in
    :class:`SyncedMeter` first.
    """

    __slots__ = ("weights", "_counts", "_phase_stack")

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
        self._counts: Dict[Tuple[str, str], float] = {}
        self._phase_stack: List[str] = [PHASE_OTHER]

    # -- charging -----------------------------------------------------------

    def charge(self, kind: str, n: float = 1.0) -> None:
        """Add ``n`` units of ``kind`` to the current phase."""
        key = (self._phase_stack[-1], kind)
        self._counts[key] = self._counts.get(key, 0.0) + n

    def charge_phased(self, phase: str, kind: str, n: float = 1.0) -> None:
        """Add ``n`` units of ``kind`` to an explicit ``phase``.

        Equivalent to charging inside ``with meter.phase(phase):`` but
        without touching the phase stack — used by the batch playback in
        :mod:`repro.indexes.batching` to replay per-op charge logs in
        exactly the order the scalar path would have produced them.
        """
        key = (phase, kind)
        self._counts[key] = self._counts.get(key, 0.0) + n

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the block to phase ``name``."""
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    # -- reading ------------------------------------------------------------

    def _table(self) -> Dict[Tuple[str, str], float]:
        """The counters the read paths below see.  A meter that stands
        for several (``repro.core.shard.ClusterMeter``) returns the
        merge of its parts here instead of re-writing each reader."""
        return self._counts

    def total_units(self, kind: str) -> float:
        """Total units of ``kind`` across all phases."""
        return sum(v for (_, k), v in self._table().items() if k == kind)

    def total_time(self) -> float:
        """Total virtual nanoseconds accumulated.

        Summed left to right in counter-insertion order, starting from
        the integer 0 (an empty meter reads ``0``, as ``sum()`` did):
        that order is part of the fingerprint contract, so this stays a
        plain loop — never a running total kept by ``charge``.
        """
        weights = self.weights
        total = 0
        for (_, kind), v in self._counts.items():
            total += weights.get(kind, 0.0) * v
        return total

    def time_by_phase(self) -> Dict[str, float]:
        """Virtual nanoseconds attributed to each phase."""
        out: Dict[str, float] = {}
        for (phase, kind), v in self._table().items():
            out[phase] = out.get(phase, 0.0) + self.weights.get(kind, 0.0) * v
        return out

    def snapshot(self) -> Dict[Tuple[str, str], float]:
        """A copy of the raw counters, for later :meth:`diff`."""
        return dict(self._table())

    def diff(self, before: Dict[Tuple[str, str], float]) -> "CostDelta":
        """Cost accumulated since ``before`` was snapshotted."""
        delta: Dict[Tuple[str, str], float] = {}
        for key, v in self._table().items():
            d = v - before.get(key, 0.0)
            if d:
                delta[key] = d
        return CostDelta(delta, self.weights)

    def fold_since(self, seen: Dict[Tuple[str, str], float],
                   into: Dict[Tuple[str, str, str], float], tag: str) -> None:
        """Add the units charged since the snapshot ``seen`` to
        ``into[(tag, phase, kind)]`` and bring ``seen`` up to date in
        place — ``diff`` + ``snapshot`` in one pass, no copy.  What a
        per-op consumer (:class:`~repro.core.telemetry.CostProfiler`)
        calls between every two operations."""
        fold_moved(self._table(), seen, into, tag)

    def reset(self) -> None:
        self._counts.clear()
        self._phase_stack[:] = [PHASE_OTHER]


@dataclass
class CostDelta:
    """Cost attributed to a span of operations (usually one op)."""

    counts: Dict[Tuple[str, str], float]
    weights: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def total_time(self) -> float:
        return sum(self.weights.get(k, 0.0) * v for (_, k), v in self.counts.items())

    def time_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (phase, kind), v in self.counts.items():
            out[phase] = out.get(phase, 0.0) + self.weights.get(kind, 0.0) * v
        return out

    def units(self, kind: str) -> float:
        return sum(v for (_, k), v in self.counts.items() if k == kind)


class NullMeter(CostMeter):
    """A meter that drops all charges; used when metering is off."""

    def charge(self, kind: str, n: float = 1.0) -> None:  # noqa: D102
        pass

    def charge_phased(self, phase: str, kind: str, n: float = 1.0) -> None:  # noqa: D102
        pass


class SyncedMeter(CostMeter):
    """A :class:`CostMeter` safe to charge and read from many threads.

    Two changes over the base meter, matching its two hazards:

    * every mutation and every read of the counter table happens under
      one mutex, so concurrent charges never lose updates and readers
      (``total_time`` — the virtual clock the bus emitters sample —
      stays monotone) never trip over a dict resize, and
    * the phase stack is **thread-local**: each thread's ``phase()``
      context attributes its own charges without another thread's nest
      level bleeding in.

    Charging takes one extra lock round-trip, which is why the base
    meter stays unlocked for the (overwhelmingly common)
    single-threaded engine paths and this subclass is opt-in for the
    server (:meth:`adopt` preserves already-accumulated charges and the
    calibrated weights).
    """

    __slots__ = ("_mutex", "_local")

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        super().__init__(weights)
        # Plain (non-reentrant) lock: no locked method calls another —
        # readers run the unlocked ``super()`` bodies.
        self._mutex = threading.Lock()
        self._local = threading.local()

    @classmethod
    def adopt(cls, meter: CostMeter) -> "SyncedMeter":
        """A synced meter continuing ``meter``'s weights and charges."""
        if isinstance(meter, cls):
            return meter
        out = cls(meter.weights)
        out._counts.update(meter._counts)
        return out

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [PHASE_OTHER]
        return stack

    # -- charging (locked, thread-local phase) -------------------------------

    def charge(self, kind: str, n: float = 1.0) -> None:
        key = (self._stack()[-1], kind)
        with self._mutex:
            self._counts[key] = self._counts.get(key, 0.0) + n

    def charge_phased(self, phase: str, kind: str, n: float = 1.0) -> None:
        key = (phase, kind)
        with self._mutex:
            self._counts[key] = self._counts.get(key, 0.0) + n

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        stack = self._stack()
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()

    @property
    def current_phase(self) -> str:
        return self._stack()[-1]

    # -- reading (locked) ----------------------------------------------------

    def total_units(self, kind: str) -> float:
        with self._mutex:
            return super().total_units(kind)

    def total_time(self) -> float:
        with self._mutex:
            return super().total_time()

    def time_by_phase(self) -> Dict[str, float]:
        with self._mutex:
            return super().time_by_phase()

    def snapshot(self) -> Dict[Tuple[str, str], float]:
        with self._mutex:
            return dict(self._counts)

    def diff(self, before: Dict[Tuple[str, str], float]) -> "CostDelta":
        with self._mutex:
            return super().diff(before)

    def fold_since(self, seen: Dict[Tuple[str, str], float],
                   into: Dict[Tuple[str, str, str], float], tag: str) -> None:
        with self._mutex:
            fold_moved(self._counts, seen, into, tag)

    def reset(self) -> None:
        with self._mutex:
            self._counts.clear()
        self._local = threading.local()
