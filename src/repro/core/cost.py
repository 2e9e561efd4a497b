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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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


class _PhaseScope:
    """``with meter.phase(name):`` — push on enter, pop on exit.  Holds
    no per-use state, so one cached instance per (phase stack, name)
    serves every use, nested same-name scopes included."""

    __slots__ = ("_stack", "_name")

    def __init__(self, stack: List[str], name: str) -> None:
        self._stack = stack
        self._name = name

    def __enter__(self) -> None:
        self._stack.append(self._name)

    def __exit__(self, *exc: Any) -> None:
        self._stack.pop()


class CostMeter:
    """Accumulates abstract work, attributed to the active phase.

    Indexes charge units as they work::

        with meter.phase(PHASE_TRAVERSE):
            meter.charge(NODE_HOP)

    The meter supports cheap snapshot/diff so the benchmark runner can
    attribute cost to individual operations.

    **Thread-safety contract:** a ``CostMeter`` is *single-writer*.
    ``charge`` is an unlocked read-modify-write on one table and one
    phase stack: two threads charging it lose updates and cross their
    phases, and a reader iterating ``_counts`` while a writer inserts a
    key raises ``RuntimeError``.  Engine, sweep and migration paths use
    one thread per meter; the :mod:`repro.core.server` request loop and
    job worker wrap the meter in :class:`SyncedMeter` first.
    """

    __slots__ = ("weights", "_counts", "_phase_stack", "_scopes")

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
        self._counts: Dict[Tuple[str, str], float] = {}
        self._phase_stack: List[str] = [PHASE_OTHER]
        self._scopes: Dict[str, _PhaseScope] = {}

    # -- charging -----------------------------------------------------------

    def charge(self, kind: str, n: float = 1.0) -> None:
        """Add ``n`` units of ``kind`` to the current phase."""
        key = (self._phase_stack[-1], kind)
        self._counts[key] = self._counts.get(key, 0.0) + n

    def charge_phased(self, phase: str, kind: str, n: float = 1.0) -> None:
        """Add ``n`` units of ``kind`` to an explicit ``phase``: what
        ``charge`` inside ``with meter.phase(phase):`` does, without the
        phase stack.  The batch playback and the scalar loops that
        charge by totals (``docs/cost_model.md``) use it."""
        key = (phase, kind)
        self._counts[key] = self._counts.get(key, 0.0) + n

    def phase(self, name: str) -> _PhaseScope:
        """Attribute all charges inside the ``with`` block to ``name``."""
        try:
            return self._scopes[name]
        except KeyError:
            scope = self._scopes[name] = _PhaseScope(self._phase_stack, name)
            return scope

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
        return CostDelta(self._table(), self.weights).time_by_phase()

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


class SyncedMeter(CostMeter):
    """A :class:`CostMeter` many threads may charge and read, without
    serialising the writers.

    Each thread charges its own **lane** — counter table, phase stack
    and scope cache, found with one ``threading.local`` read — so no
    charge takes a lock and no thread's ``phase()`` nesting reaches
    another's.  The first lane *is* this meter's own ``_counts``: one
    thread's run inserts keys exactly as on the base meter.  Readers
    merge the lanes in :meth:`_table` — each copied in one atomic step,
    in a key order fixed once seen — so ``total_time`` (the clock the
    bus emitters sample) stays monotone while writers run.  The mutex
    guards lane creation, merged reads and ``reset``.  A finished
    thread's lane passes, counts included, to the next new thread, so
    lanes number at most the peak of concurrent writers.
    """

    __slots__ = ("_mutex", "_local", "_lanes", "_seen")

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        super().__init__(weights)
        self._mutex = threading.Lock()
        self._local = threading.local()
        #: ``[owner thread, lane]``; lane 0 is ``self``, unowned until
        #: the first thread charges.
        self._lanes: List[List[Any]] = [[None, self]]
        #: The last merged table: its key order seeds the next merge.
        self._seen: Dict[Tuple[str, str], float] = {}

    @classmethod
    def adopt(cls, meter: CostMeter) -> "SyncedMeter":
        """A synced meter continuing ``meter``'s weights and charges."""
        if isinstance(meter, cls):
            return meter
        out = cls(meter.weights)
        out._counts.update(meter._counts)
        return out

    def _lane(self) -> CostMeter:
        """The calling thread's lane, claimed on its first charge."""
        with self._mutex:
            for slot in self._lanes:
                if slot[0] is None or not slot[0].is_alive():
                    slot[1]._phase_stack[:] = [PHASE_OTHER]
                    break
            else:
                slot = [None, CostMeter(self.weights)]
                self._lanes.append(slot)
            slot[0] = threading.current_thread()
        self._local.lane = slot[1]
        return slot[1]

    # -- charging (lock-free, per-thread lane) -------------------------------

    def charge(self, kind: str, n: float = 1.0) -> None:
        try:
            lane = self._local.lane
        except AttributeError:
            lane = self._lane()
        key = (lane._phase_stack[-1], kind)
        counts = lane._counts
        counts[key] = counts.get(key, 0.0) + n

    def charge_phased(self, phase: str, kind: str, n: float = 1.0) -> None:
        try:
            counts = self._local.lane._counts
        except AttributeError:
            counts = self._lane()._counts
        key = (phase, kind)
        counts[key] = counts.get(key, 0.0) + n

    def phase(self, name: str) -> _PhaseScope:
        try:
            return self._local.lane._scopes[name]
        except (AttributeError, KeyError):  # first charge, or first use
            lane = getattr(self._local, "lane", None) or self._lane()
            return CostMeter.phase(lane, name)

    # -- reading (merged under the mutex) ------------------------------------

    def _table(self) -> Dict[Tuple[str, str], float]:
        if len(self._lanes) == 1 and getattr(self._local, "lane", None) is self:
            return self._counts  # the only writer is the caller
        with self._mutex:
            merged = dict.fromkeys(self._seen, 0.0)
            for _, lane in self._lanes:
                for key, v in lane._counts.copy().items():
                    merged[key] = merged.get(key, 0.0) + v
            self._seen = merged
        return merged

    def total_time(self) -> float:
        weights = self.weights
        total = 0
        for (_, kind), v in self._table().items():
            total += weights.get(kind, 0.0) * v
        return total

    def reset(self) -> None:
        """Clear every lane's counters.  Phase stacks stay: a thread
        inside a ``phase()`` block still pops what it pushed."""
        with self._mutex:
            for _, lane in self._lanes:
                lane._counts.clear()
            self._seen = {}
