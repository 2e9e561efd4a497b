"""Concurrent index models: each index's real ops + its CC protocol.

Every adapter wraps a *real* single-threaded index instance.  Running
an operation executes it on that index (so results are correct and the
work metered is genuine) and distils the per-op cost delta into an
:class:`~repro.concurrency.trace.OpTrace` according to the index's
concurrency-control protocol, as described in Sections 2.3 and 3.1:

=============  =================================================================
ALEX+          APEX protocol: lock-free traversal (out-of-place SMOs), one
               optimistic lock per data node held for the modify phase.
               ``lock_granularity="record"`` reproduces Appendix A's
               per-256-record variant (more locks, deadlock-avoidance
               restarts make it *slower*).
LIPP+          item-level optimistic locks, no coupling — but every insert
               atomically updates statistics in every node on its path,
               including the root: one shared cache line per path node.
ART-OLC        optimistic lock coupling: readers restart-free, writers lock
               the node they modify.
B+TreeOLC      same, on B+-tree nodes; splits also lock the parent.
HOT-ROWEX      readers never block; writers exclusive per compound node.
Masstree       border-node locks + version bumps; extra cache-line traffic
               from its permutation/version write path (the cross-socket
               bandwidth exhaustion of Figure 6).
Wormhole       per-leaf locks, but ONE exclusive lock serialises every
               inner-layer (MetaTrieHT) update — the write-scalability
               ceiling the paper calls out.
XIndex         non-blocking reads/writes via RCU; delta merges run on a
               background thread *pinned to the same cores* (the paper's
               fair-CPU-budget setup), so merge work stalls whatever
               operation runs next on that core — the Figure 10/11
               tail-latency signature.
FINEdex        one lock per record-level bin; segment retrains lock the
               segment.
=============  =================================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.concurrency.trace import (
    OpTrace,
    bytes_from_counts,
    mem_fraction_from_counts,
)
from repro.core.cost import (
    PHASE_COLLISION,
    PHASE_OTHER,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_STATS,
    PHASE_TRAVERSE,
)
from repro.core.workloads import DELETE, INSERT, LOOKUP, SCAN, UPDATE, Operation, apply_op
from repro.indexes.alex import ALEX
from repro.indexes.art import ART
from repro.indexes.base import MemoryBreakdown, OrderedIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.finedex import FINEdex
from repro.indexes.hot import HOT
from repro.indexes.lipp import LIPP
from repro.indexes.masstree import Masstree
from repro.indexes.pgm import PGMIndex
from repro.indexes.wormhole import Wormhole
from repro.indexes.xindex import XIndex

#: Extra hold time modelling lock acquire/release instructions.
_LOCK_OVERHEAD_NS = 15.0
#: Fixed penalty per op for deadlock-avoidance restarts in ALEX+'s
#: per-record locking mode (Appendix A).
_RESTART_OVERHEAD_NS = 45.0


class ConcurrencyAdapter:
    """Base: executes ops on the wrapped index and splits the cost."""

    #: Which op kinds the concurrent variant supports.
    supported_ops = (LOOKUP, INSERT, UPDATE, DELETE, SCAN)
    is_learned = False

    def __init__(self, index: OrderedIndex, name: str) -> None:
        self.index = index
        self.name = name

    def bulk_load(self, items) -> None:
        self.index.bulk_load(items)
        self.index.meter.reset()

    def memory(self) -> MemoryBreakdown:
        return self.index.memory_usage()

    # -- trace construction ----------------------------------------------------

    def run_op(self, op: Operation) -> OpTrace:
        if op.op not in self.supported_ops:
            raise NotImplementedError(f"{self.name} does not support {op.op}")
        meter = self.index.meter
        before = meter.snapshot()
        apply_op(self.index, op)
        delta = meter.diff(before)
        phases = delta.time_by_phase()
        trace = OpTrace(op=op.op)
        trace.bytes = bytes_from_counts(delta.counts)
        trace.mem_fraction = mem_fraction_from_counts(delta.counts, meter.weights)
        self._shape(op, trace, phases)
        return trace

    # -- protocol hook ----------------------------------------------------------

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        """Default: reads are lock-free; writes lock the leaf they touch
        for the modify (collision+SMO+stats) phases."""
        read_ns = (
            phases.get(PHASE_TRAVERSE, 0.0)
            + phases.get(PHASE_SEARCH, 0.0)
            + phases.get(PHASE_OTHER, 0.0)
        )
        modify_ns = (
            phases.get(PHASE_COLLISION, 0.0)
            + phases.get(PHASE_SMO, 0.0)
            + phases.get(PHASE_STATS, 0.0)
        )
        trace.free_ns = read_ns
        if op.op in (INSERT, UPDATE, DELETE) and modify_ns >= 0:
            trace.sections.append((self._leaf_resource(op), modify_ns + _LOCK_OVERHEAD_NS))
        else:
            trace.free_ns += modify_ns

    #: Coarse leaves (hundreds of keys) are banded into sub-resources:
    #: the simulated dataset is ~10^4× smaller than the paper's 200M
    #: keys, so one simulated leaf stands for many real leaves; banding
    #: restores the paper-scale probability that two threads collide on
    #: the same lock.  ART keeps node granularity (its nodes are already
    #: fine-grained, and the paper's dense-node contention effect on
    #: easy data depends on it).
    _LOCK_BANDS = 8

    def _leaf_resource(self, op: Operation) -> Hashable:
        path = self.index.last_op.path
        leaf = path[-1] if path else 0
        if self._LOCK_BANDS > 1:
            return (self.name, leaf, (op.key >> 3) % self._LOCK_BANDS)
        return (self.name, leaf)


# ---------------------------------------------------------------------------
# Learned indexes
# ---------------------------------------------------------------------------

class ALEXPlus(ConcurrencyAdapter):
    """ALEX+ — APEX's protocol on DRAM (Section 3.1, Appendix A)."""

    is_learned = True

    def __init__(self, lock_granularity: str = "node", **alex_kwargs: Any) -> None:
        if lock_granularity not in ("node", "record"):
            raise ValueError("lock_granularity must be 'node' or 'record'")
        alex_kwargs.setdefault("max_data_keys", 512)  # the 512KB node cap
        super().__init__(ALEX(**alex_kwargs), "ALEX+")
        self.lock_granularity = lock_granularity

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        super()._shape(op, trace, phases)
        if self.lock_granularity == "record" and trace.sections:
            # Per-256-record locks: finer resource, but exponential search
            # can cross lock boundaries in either direction, forcing
            # release-and-restart to stay deadlock-free (Appendix A).
            resource, hold = trace.sections[0]
            record_band = (op.key >> 4) & 0x3
            trace.sections[0] = ((resource, record_band), hold + _RESTART_OVERHEAD_NS)


class LIPPPlus(ConcurrencyAdapter):
    """LIPP+ — item-level optimistic locks + per-path atomic statistics."""

    is_learned = True

    def __init__(self, **lipp_kwargs: Any) -> None:
        super().__init__(LIPP(**lipp_kwargs), "LIPP+")

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        read_ns = (
            phases.get(PHASE_TRAVERSE, 0.0)
            + phases.get(PHASE_SEARCH, 0.0)
            + phases.get(PHASE_OTHER, 0.0)
        )
        trace.free_ns = read_ns
        modify_ns = phases.get(PHASE_COLLISION, 0.0) + phases.get(PHASE_SMO, 0.0)
        if op.op in (INSERT, DELETE):
            # Item-level lock: the slot, not the node — rarely contended.
            path = self.index.last_op.path
            leaf = path[-1] if path else 0
            # Item-level: one lock per slot — effectively thousands of
            # independent resources, so writer-writer conflicts are rare.
            trace.sections.append(((self.name, leaf, op.key & 0x3FF),
                                   modify_ns + _LOCK_OVERHEAD_NS))
            # The unified-node design's tax: statistics are atomically
            # updated in EVERY node on the path — the root's cache line
            # is shared by all writer threads.
            for node_id in path:
                trace.atomics.append((self.name, "stats", node_id))
        elif op.op == UPDATE:
            # Payload updates touch no statistics (Appendix E: this is
            # why LIPP+ scales again under YCSB).
            trace.sections.append(((self.name, "item", op.key & 0xFF),
                                   modify_ns + _LOCK_OVERHEAD_NS))
        else:
            trace.free_ns += modify_ns
        # Stats phase time stays on the thread (it did the work), on top
        # of the atomics' ping-pong cost added by the simulator.
        trace.free_ns += phases.get(PHASE_STATS, 0.0)


class XIndexAdapter(ConcurrencyAdapter):
    """XIndex — RCU reads/writes, background merges on shared cores."""

    is_learned = True
    supported_ops = (LOOKUP, INSERT, UPDATE, SCAN)

    #: The pinned background thread wakes periodically (RCU grace-period
    #: checks, merge polling) even when no merge is due: each wake
    #: context-switches the foreground op and repollutes its cache.
    _CS_PERIOD = 151
    _CS_STALL_NS = 8000.0

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(XIndex(**kwargs), "XIndex")
        self._pending_stall_ns = 0.0
        self._op_counter = 0

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        smo_ns = phases.get(PHASE_SMO, 0.0)
        other_ns = sum(phases.values()) - smo_ns
        # Writers append to the group delta under a short lock; readers
        # proceed under RCU without blocking.
        if op.op in (INSERT, UPDATE):
            trace.free_ns = other_ns - phases.get(PHASE_COLLISION, 0.0)
            trace.sections.append(
                (self._leaf_resource(op),
                 phases.get(PHASE_COLLISION, 0.0) + _LOCK_OVERHEAD_NS)
            )
        else:
            trace.free_ns = other_ns
        # The background merge thread shares the operation cores (the
        # paper pins it there for a fair CPU budget): merge work stalls
        # whichever op runs next on the core — lookups included.  This
        # is XIndex's tail-latency signature (Figures 10-11).
        if smo_ns > 0:
            self._pending_stall_ns += smo_ns
        elif self._pending_stall_ns > 0:
            trace.free_ns += self._pending_stall_ns
            self._pending_stall_ns = 0.0
        self._op_counter += 1
        if self._op_counter % self._CS_PERIOD == 0:
            trace.free_ns += self._CS_STALL_NS


class FINEdexAdapter(ConcurrencyAdapter):
    """FINEdex — per-record-bin locks, segment-level retrain locks."""

    is_learned = True
    supported_ops = (LOOKUP, INSERT, UPDATE, SCAN)

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(FINEdex(**kwargs), "FINEdex")

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        read_ns = (
            phases.get(PHASE_TRAVERSE, 0.0)
            + phases.get(PHASE_SEARCH, 0.0)
            + phases.get(PHASE_OTHER, 0.0)
        )
        trace.free_ns = read_ns
        if op.op in (INSERT, UPDATE):
            # Bin lock: contention only when two threads hit the same
            # record's bin — the "fine-grained" in FINEdex.
            path = self.index.last_op.path
            seg = path[-1] if path else 0
            trace.sections.append(
                ((self.name, seg, op.key & 0x3F),
                 phases.get(PHASE_COLLISION, 0.0) + _LOCK_OVERHEAD_NS)
            )
            smo_ns = phases.get(PHASE_SMO, 0.0)
            if smo_ns > 0:  # local retrain locks the whole segment
                trace.sections.append(((self.name, "seg", seg), smo_ns))
        else:
            trace.free_ns += phases.get(PHASE_COLLISION, 0.0) + phases.get(PHASE_SMO, 0.0)
        trace.free_ns += phases.get(PHASE_STATS, 0.0)


# ---------------------------------------------------------------------------
# Traditional indexes
# ---------------------------------------------------------------------------

class ARTOLC(ConcurrencyAdapter):
    """ART with optimistic lock coupling + epoch-based reclamation."""

    _LOCK_BANDS = 1  # node-granularity locks (see base class note)

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(ART(**kwargs), "ART-OLC")


class BTreeOLC(ConcurrencyAdapter):
    """B+-tree with optimistic lock coupling (leaf side-links added)."""

    supported_ops = (LOOKUP, INSERT, UPDATE, SCAN)  # no upstream delete

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("fanout", 64)
        super().__init__(BPlusTree(**kwargs), "B+TreeOLC")

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        super()._shape(op, trace, phases)
        # A split lock-couples into the parent as well.
        if op.op == INSERT and self.index.last_op.smo:
            path = self.index.last_op.path
            if len(path) >= 2:
                trace.sections.append(((self.name, path[-2]), _LOCK_OVERHEAD_NS * 2))


class HOTROWEX(ConcurrencyAdapter):
    """HOT with Read-Optimised Write EXclusion."""

    supported_ops = (LOOKUP, INSERT, UPDATE, SCAN)

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(HOT(**kwargs), "HOT-ROWEX")


class MasstreeAdapter(ConcurrencyAdapter):
    """Masstree — border locks, version bumps, heavy write path."""

    supported_ops = (LOOKUP, INSERT, UPDATE, SCAN)

    #: Extra cache-line traffic per write: version word + permutation
    #: writeback + slab allocation — the write amplification that,
    #: combined with its CC, exhausts cross-socket bandwidth (Fig. 6).
    _WRITE_CC_BYTES = 448.0

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(Masstree(**kwargs), "Masstree")

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        super()._shape(op, trace, phases)
        if op.op in (INSERT, UPDATE):
            trace.bytes += self._WRITE_CC_BYTES
            path = self.index.last_op.path
            trace.atomics.append((self.name, "version", path[-1] if path else 0))


class WormholeAdapter(ConcurrencyAdapter):
    """Wormhole — per-leaf locks + ONE lock for the whole meta layer."""

    supported_ops = (LOOKUP, INSERT, UPDATE, SCAN)

    #: MetaTrieHT updates insert anchors for every discriminating prefix
    #: length and may relocate hash entries; the measured split cost
    #: underestimates the serialized section, so it is scaled up.
    _META_HOLD_FACTOR = 4.0

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(Wormhole(**kwargs), "Wormhole")

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        read_ns = (
            phases.get(PHASE_TRAVERSE, 0.0)
            + phases.get(PHASE_SEARCH, 0.0)
            + phases.get(PHASE_OTHER, 0.0)
        )
        trace.free_ns = read_ns
        if op.op in (INSERT, UPDATE):
            trace.sections.append(
                (self._leaf_resource(op),
                 phases.get(PHASE_COLLISION, 0.0) + _LOCK_OVERHEAD_NS)
            )
            smo_ns = phases.get(PHASE_SMO, 0.0)
            if smo_ns > 0:
                # The single inner-layer lock: every split serialises
                # against every other split in the whole index.
                trace.sections.append(
                    ((self.name, "META"), smo_ns * self._META_HOLD_FACTOR)
                )
        else:
            trace.free_ns += phases.get(PHASE_COLLISION, 0.0) + phases.get(PHASE_SMO, 0.0)


class PGMAdapter(ConcurrencyAdapter):
    """PGM-Index parallelised naively (global lock on merges).

    Not evaluated concurrently by the paper; provided for completeness
    (Figure 16 uses XIndex/FINEdex as the only concurrent learned
    indexes)."""

    is_learned = True
    supported_ops = (LOOKUP, INSERT, UPDATE, DELETE, SCAN)

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(PGMIndex(**kwargs), "PGM")

    def _shape(self, op: Operation, trace: OpTrace, phases: Dict[str, float]) -> None:
        smo_ns = phases.get(PHASE_SMO, 0.0)
        trace.free_ns = sum(phases.values()) - smo_ns
        if op.op in (INSERT, UPDATE, DELETE):
            trace.sections.append(((self.name, "buffer"), _LOCK_OVERHEAD_NS))
            if smo_ns > 0:
                trace.sections.append(((self.name, "MERGE"), smo_ns))


# Bind each concurrent variant to its base index's registry entry; the
# MT_* catalogs below (and any future concurrent runner) are derived
# views over the registry, not hand-maintained dicts.
from repro.core.registry import REGISTRY  # noqa: E402  (after adapter defs)

for _base, _cname, _factory, _evaluated in (
    ("ALEX", "ALEX+", ALEXPlus, True),
    ("LIPP", "LIPP+", LIPPPlus, True),
    ("XIndex", "XIndex", XIndexAdapter, True),
    ("FINEdex", "FINEdex", FINEdexAdapter, True),
    ("ART", "ART-OLC", ARTOLC, True),
    ("B+tree", "B+TreeOLC", BTreeOLC, True),
    ("HOT", "HOT-ROWEX", HOTROWEX, True),
    ("Masstree", "Masstree", MasstreeAdapter, True),
    ("Wormhole", "Wormhole", WormholeAdapter, True),
    # Not evaluated concurrently by the paper (see PGMAdapter docstring).
    ("PGM", "PGM", PGMAdapter, False),
):
    if REGISTRY.get(_base).concurrent_factory is None:
        REGISTRY.bind_concurrent(_base, _cname, _factory, evaluated=_evaluated)

#: Adapter factories for the multi-threaded experiments (Section 4.2).
MT_LEARNED: Dict[str, Callable[[], ConcurrencyAdapter]] = (
    REGISTRY.concurrent_factories(learned=True)
)

MT_TRADITIONAL: Dict[str, Callable[[], ConcurrencyAdapter]] = (
    REGISTRY.concurrent_factories(learned=False)
)
