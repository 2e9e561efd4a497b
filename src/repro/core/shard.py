"""Sharded serving tier: range partitioning, routing, hotspot rebalancing.

The paper's verdicts are all single-index; the ROADMAP's end-state is a
service that range-partitions the keyspace across N shard instances and
rebalances when traffic skews.  This module is that tier, built from
parts that already exist:

* :class:`ShardMap` — sorted split keys; shard ``i`` owns the half-open
  range ``[boundaries[i-1], boundaries[i])``, routed by binary search.
* :class:`ShardedIndex` — the full ``OrderedIndex`` contract over N
  :class:`~repro.core.instance.IndexInstance` shards.  Scalar ops route
  to one shard; ``lookup_many``/``insert_many`` partition the key array
  per shard so the vectorized batch paths amortize *per shard*;
  boundary-straddling ``range_scan`` stitches neighbors.  Every shard
  meters on its own :class:`~repro.core.cost.CostMeter`, all adopted
  into one :class:`ClusterMeter` so the cluster-wide virtual clock stays
  a single monotonic reading — and the *parallel* clock (max per-shard
  busy time + routing) is derivable from the same parts.
* split/merge/migrate — a hot shard splits into two halves, a cold
  adjacent pair merges into one; both are executed as *live migrations*
  through :class:`~repro.indexes.multiplex.MultiplexIndex` (dual writes,
  interleaved backfill, oracle-style verify, atomic cutover), so a
  rebalancing shard keeps serving every op (``cutover_stall_ops == 0``
  by construction).
* :class:`ShardRouter` — the control plane: per-shard
  :class:`~repro.core.slo.SLOTracker` windows plus a per-window traffic
  census; hotspot detection triggers a split, sustained cold adjacent
  pairs merge, and the in-flight migration is driven between windows
  by a :class:`~repro.core.migrate.MigrationDriver`.

What is measured with the tier — value fingerprints over routed
streams, the pooled per-shard runs, the scaling and rebalance
benchmarks — lives in :mod:`repro.bench.shard`.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import KEY_COMPARE, CostMeter
from repro.core.instance import (
    DRAINING,
    LOADING,
    MIGRATING,
    RETIRED,
    SERVING,
    IndexInstance,
)
from repro.core.migrate import MigrationDriver
from repro.core.registry import REGISTRY
from repro.core.runner import OpEvent, WindowFold
from repro.core.slo import SLOTracker
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    Workload,
    apply_op,
)
from repro.indexes.base import (
    KEY_BYTES,
    Key,
    MemoryBreakdown,
    OrderedIndex,
    POINTER_BYTES,
    Value,
    lend,
)
from repro.indexes.multiplex import DETACHED, DONE, MultiplexIndex

__all__ = [
    "ClusterMeter", "Rebalance", "RouterReport", "ShardMap", "ShardRouter",
    "ShardedIndex",
]


# ---------------------------------------------------------------------------
# Shard map: sorted range partitions
# ---------------------------------------------------------------------------

class ShardMap:
    """Sorted split keys partitioning the keyspace into half-open ranges.

    ``boundaries = [b0, b1, ...]`` defines ``len(boundaries) + 1``
    shards: shard 0 owns ``(-inf, b0)``, shard i owns ``[b(i-1), b(i))``,
    the last shard owns ``[b(last), +inf)``.  Routing is one binary
    search (``bisect_right``), so a lookup's owner is found in
    ``O(log shards)`` comparisons — the :class:`ShardedIndex` charges
    exactly that to its routing meter.
    """

    def __init__(self, boundaries: Sequence[Key] = ()) -> None:
        bl = list(boundaries)
        for i in range(1, len(bl)):
            if bl[i - 1] >= bl[i]:
                raise ValueError(
                    f"shard boundaries must be strictly increasing, got "
                    f"{bl[i - 1]} >= {bl[i]}")
        self.boundaries: List[Key] = bl

    @classmethod
    def from_items(cls, items: Sequence[Tuple[Key, Value]],
                   n_shards: int) -> "ShardMap":
        """Equal-population boundaries over sorted ``items``."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        keys = [k for k, _ in items]
        bounds: List[Key] = []
        for i in range(1, n_shards):
            pos = (i * len(keys)) // n_shards
            if 0 < pos < len(keys):
                b = keys[pos]
                if not bounds or b > bounds[-1]:
                    bounds.append(b)
        return cls(bounds)

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) + 1

    def route(self, key: Key) -> int:
        """Shard id owning ``key`` (pure; metering is the caller's job)."""
        return bisect.bisect_right(self.boundaries, key)

    def range_of(self, sid: int) -> Tuple[Optional[Key], Optional[Key]]:
        """``[lo, hi)`` of shard ``sid``; ``None`` means unbounded."""
        if not 0 <= sid < self.n_shards:
            raise IndexError(f"no shard {sid} in a {self.n_shards}-shard map")
        lo = self.boundaries[sid - 1] if sid > 0 else None
        hi = self.boundaries[sid] if sid < len(self.boundaries) else None
        return lo, hi

    def split(self, sid: int, at_key: Key) -> None:
        """Split shard ``sid`` at ``at_key`` (which the right half owns)."""
        lo, hi = self.range_of(sid)
        if (lo is not None and at_key <= lo) or (hi is not None and at_key >= hi):
            raise ValueError(
                f"split key {at_key} outside shard {sid} range [{lo}, {hi})")
        self.boundaries.insert(sid, at_key)

    def merge(self, sid: int) -> Key:
        """Merge shards ``sid`` and ``sid+1``; returns the removed boundary."""
        if not 0 <= sid < len(self.boundaries):
            raise IndexError(f"cannot merge shard {sid}: no right neighbor")
        return self.boundaries.pop(sid)

    def to_dict(self) -> dict:
        return {"boundaries": list(self.boundaries), "n_shards": self.n_shards}

    def __repr__(self) -> str:
        return f"ShardMap({self.boundaries!r})"


# ---------------------------------------------------------------------------
# Cluster meter: one monotonic virtual clock over many shard meters
# ---------------------------------------------------------------------------

class ClusterMeter(CostMeter):
    """A cost meter that aggregates adopted per-shard meters.

    The sharded index's own charges (routing comparisons) land on this
    meter directly; every shard index — and every migration-overhead
    meter — keeps its own :class:`CostMeter`, adopted via :meth:`adopt`.
    All read paths (``total_time``, and through :meth:`_table`
    ``time_by_phase``, ``snapshot`` / ``diff``) merge the parts, so the
    engine and the SLO trackers see a single monotonic cluster clock.

    Adopted parts are **never removed**: a retired shard's meter simply
    stops growing, which is what keeps the clock monotonic across
    splits, merges, and cutovers.  Per-shard *busy time* (the parallel
    makespan ingredient) is read from the parts individually.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        super().__init__(weights)
        self.parts: List[CostMeter] = []

    def adopt(self, meter: CostMeter) -> CostMeter:
        """Fold ``meter``'s charges into this cluster clock, forever."""
        self.parts.append(meter)
        return meter

    def _table(self) -> Dict[Tuple[str, str], float]:
        merged = dict(self._counts)
        for part in self.parts:
            for key, v in part._table().items():
                merged[key] = merged.get(key, 0.0) + v
        return merged

    def routing_ns(self) -> float:
        """Virtual time charged to routing itself (own counts only)."""
        return CostMeter.total_time(self)

    def total_time(self) -> float:
        return CostMeter.total_time(self) + sum(
            part.total_time() for part in self.parts)

    def reset(self) -> None:
        super().reset()
        for part in self.parts:
            part.reset()


# ---------------------------------------------------------------------------
# Range routing: N children behind one OrderedIndex, by sorted boundaries
# ---------------------------------------------------------------------------

def _cut_at(items: Sequence[Tuple[Key, Value]],
            boundaries: Sequence[Key]) -> List[List[Tuple[Key, Value]]]:
    """Sorted ``items`` cut at ``boundaries``: one list per range."""
    keys = [k for k, _ in items]
    cuts = ([0] + [bisect.bisect_left(keys, b) for b in boundaries]
            + [len(items)])
    return [list(items[cuts[i]:cuts[i + 1]]) for i in range(len(cuts) - 1)]


class _RangeRouted(OrderedIndex):
    """Range-partitioned children behind one ``OrderedIndex``.

    Written once for :class:`_RangeView` and :class:`ShardedIndex`: a
    scalar op routes to its owning child, calls it and mirrors the
    child's fresh ``last_op`` (identity-compared, so ops that leave the
    child's record stale leave ours stale too); ``range_scan`` stitches
    across neighbors; size, memory, validation and batch-cache drops fan
    out over the children.  A subclass supplies ``boundaries`` and

    * :meth:`_children` — the child indexes, in range order,
    * :meth:`_route` — the slot owning a key (charging for it, or not),
    * ``lends_meter`` — whether a child charges this facade's meter
      for the duration of each call, or its own.
    """

    is_adapter = True
    lends_meter = False
    boundaries: List[Key]

    def _children(self) -> List[OrderedIndex]:
        raise NotImplementedError

    def _child(self, slot: int) -> OrderedIndex:
        return self._children()[slot]

    def _route(self, key: Key) -> int:
        return bisect.bisect_right(self.boundaries, key)

    def _on(self, child: OrderedIndex, method: str, *args: Any) -> Any:
        """One call on one child: lend, call, mirror ``last_op``."""
        prev = child.last_op
        if self.lends_meter:
            with lend(child, self.meter):
                out = getattr(child, method)(*args)
        else:
            out = getattr(child, method)(*args)
        if child.last_op is not prev:
            self.last_op = child.last_op
        return out

    # -- OrderedIndex ----------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        return self._on(self._child(self._route(key)), "lookup", key)

    def insert(self, key: Key, value: Value) -> bool:
        return self._on(self._child(self._route(key)), "insert", key, value)

    def update(self, key: Key, value: Value) -> bool:
        return self._on(self._child(self._route(key)), "update", key, value)

    def delete(self, key: Key) -> bool:
        return self._on(self._child(self._route(key)), "delete", key)

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        slot = self._route(start)
        children = self._children()
        cont = start
        while len(out) < count and slot < len(children):
            rows = self._on(children[slot], "range_scan", cont,
                            count - len(out))
            out.extend(rows)
            if rows:
                cont = rows[-1][0] + 1
            slot += 1
        return out

    def _invalidate_batch_cache(self) -> None:
        super()._invalidate_batch_cache()
        for child in self._children():
            child._invalidate_batch_cache()

    def __len__(self) -> int:
        return sum(len(child) for child in self._children())

    def memory_usage(self) -> MemoryBreakdown:
        children = self._children()
        out = MemoryBreakdown(
            metadata=len(self.boundaries) * KEY_BYTES
            + len(children) * POINTER_BYTES)
        for child in children:
            mem = child.memory_usage()
            out.inner += mem.inner
            out.leaf += mem.leaf
            out.metadata += mem.metadata
        return out

    def debug_validate(self) -> List[Any]:
        out: List[Any] = []
        for child in self._children():
            out.extend(child.debug_validate())
        return out


class _RangeView(_RangeRouted):
    """Adapter presenting N range-partitioned children as one index.

    This is what makes shard split/merge a plain
    :class:`~repro.indexes.multiplex.MultiplexIndex` migration:

    * **split** — the view (two empty halves + the split key) is the
      migration *secondary*; backfill copies the hot shard into it, the
      view routes each key to the correct half.
    * **merge** — the view (the two cold neighbors + their boundary) is
      the migration *primary*; backfill reads through it in key order
      into one fresh combined index.

    Each delegated call *lends* the view's current meter to the child
    for its duration (``self.meter`` is read at each call), which
    nests inside the multiplexer's own lend of the view: backfill
    and verify reads land on the migration-overhead meter, client ops
    on the client-visible one — every charge lands on exactly one
    cluster-adopted meter, never two.  Routing is not charged.
    """

    name = "RangeView"
    lends_meter = True

    def __init__(self, children: Sequence[OrderedIndex],
                 boundaries: Sequence[Key],
                 meter: Optional[CostMeter] = None) -> None:
        if len(children) != len(boundaries) + 1:
            raise ValueError("need len(children) == len(boundaries) + 1")
        super().__init__(meter=meter)
        self.children: List[OrderedIndex] = list(children)
        self.boundaries = list(boundaries)
        self.supports_delete = all(c.supports_delete for c in children)
        self.supports_range = all(c.supports_range for c in children)
        self.supports_duplicates = False

    def _children(self) -> List[OrderedIndex]:
        return self.children

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        for child, part in zip(self.children, _cut_at(items, self.boundaries)):
            with lend(child, self.meter):
                child.bulk_load(part)


# ---------------------------------------------------------------------------
# Sharded index: the data plane
# ---------------------------------------------------------------------------

#: Keys a split or merge backfills or verifies per pump step.
REBALANCE_CHUNK = 128


@dataclass
class Rebalance:
    """One in-flight split or merge, executed as a live migration."""

    kind: str  # "split" | "merge"
    #: The slot instance currently holding the multiplexer.
    instance: IndexInstance
    mux: MultiplexIndex
    #: Split key (split) / removed boundary (merge) — the abort restore point.
    mid: Key
    #: Migration targets: two halves (split) or one combined index (merge).
    children: List[OrderedIndex]
    #: Merge only: the two neighbor instances absorbed into the slot.
    retired_instances: List[IndexInstance] = field(default_factory=list)
    done: bool = False
    aborted: bool = False


class ShardedIndex(_RangeRouted):
    """N range-partitioned shard instances behind one ``OrderedIndex``.

    ``factory`` is a registry index name or a zero-arg index factory;
    every shard is an independent instance of it.  ``bulk_load``
    partitions the sorted items at equal-population boundaries; scalar
    ops route by binary search, batch ops partition the key array per
    shard so each shard's vectorized path sees one contiguous
    sub-batch, and ``range_scan`` stitches across neighbors.

    Rebalancing (:meth:`begin_split` / :meth:`begin_merge` /
    :meth:`finish_rebalance` / :meth:`abort_rebalance`) reuses the live
    migration machinery: a :class:`~repro.core.migrate.MigrationDriver`
    cuts the multiplexer over, then :meth:`finish_rebalance` swaps the
    new slots in.  The slot keeps admitting every op kind for the
    whole rebalance (SERVING and MIGRATING both admit all ops), which is
    the zero-downtime guarantee the router's report pins down.
    """

    name = "Sharded"

    def __init__(self, factory: Any, n_shards: int = 4) -> None:
        if isinstance(factory, str):
            factory = REGISTRY.get(factory).factory
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(meter=ClusterMeter())
        self.factory: Callable[[], OrderedIndex] = factory
        probe = factory()
        if not probe.supports_range:
            raise ValueError(
                f"{probe.name} cannot be sharded: split/merge backfill "
                "needs range_scan support")
        self.inner_name = probe.name
        self.name = f"Sharded[{probe.name}]"
        self.is_learned = probe.is_learned
        self.supports_delete = probe.supports_delete
        self.supports_range = True
        self.supports_duplicates = False
        self.map = ShardMap()
        self._want_shards = n_shards
        self.shards: List[IndexInstance] = []
        self.bus: Optional[Any] = None
        self._serial = 0
        self.splits = 0
        self.merges = 0
        self.cutover_stall_ops = 0

    # -- construction ----------------------------------------------------------

    def _instance(self, index: OrderedIndex,
                  state: str = LOADING) -> IndexInstance:
        """A named shard slot around ``index`` (whose meter the caller
        has adopted), relayed into the bus if one is attached."""
        self._serial += 1
        inst = IndexInstance(index, name=f"{self.inner_name}/s{self._serial}",
                             state=state)
        if self.bus is not None:
            inst.attach_bus(self.bus)
        return inst

    def attach_bus(self, bus: Any) -> "ShardedIndex":
        """Relay every shard's lifecycle events into an event bus."""
        self.bus = bus
        for inst in self.shards:
            inst.attach_bus(bus)
        return self

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        self.shards = []
        if not self.map.boundaries and self._want_shards > 1 and items:
            self.map = ShardMap.from_items(items, self._want_shards)
        for part in _cut_at(items, self.map.boundaries):
            index = self.factory()
            self.meter.adopt(index.meter)
            inst = self._instance(index)
            inst.bulk_load(part)
            self.shards.append(inst)

    # -- routing (the _RangeRouted hooks; shards keep their own meters) --------

    @property
    def boundaries(self) -> List[Key]:
        return self.map.boundaries

    def _children(self) -> List[OrderedIndex]:
        return [inst.index for inst in self.shards]

    def _child(self, slot: int) -> OrderedIndex:
        return self.shards[slot].index  # hot path: no list per op

    def _route(self, key: Key) -> int:
        """Owning shard id; charges the binary-search comparisons."""
        if not self.shards:
            self.bulk_load([])
        bl = self.map.boundaries
        if bl:
            self.meter.charge(KEY_COMPARE, len(bl).bit_length())
        return bisect.bisect_right(bl, key)

    # -- OrderedIndex: batch ops (partitioned per shard) -----------------------

    def _scatter(self, method: str, keys: Sequence[Key], args: Sequence[Any],
                 records: Optional[List[Optional[Any]]]) -> List[Any]:
        """Run batch ``method`` once per owning shard on its share of
        ``args`` (stream order preserved within each shard, so each
        shard's vectorized path sees one contiguous sub-batch) and
        gather results — and records — back into batch order."""
        if not args:
            return []
        buckets: Dict[int, List[int]] = {}
        owner_last = 0
        for pos, key in enumerate(keys):
            owner_last = self._route(key)
            buckets.setdefault(owner_last, []).append(pos)
        out: List[Any] = [None] * len(args)
        recs: List[Optional[Any]] = [None] * len(args)
        for sid in sorted(buckets):
            positions = buckets[sid]
            sub_records: Optional[List[Optional[Any]]] = (
                [] if records is not None else None)
            sub_out = getattr(self._child(sid), method)(
                [args[p] for p in positions], records=sub_records)
            for p, v in zip(positions, sub_out):
                out[p] = v
            if sub_records is not None:
                for p, r in zip(positions, sub_records):
                    recs[p] = r
        self.last_op = self._child(owner_last).last_op
        if records is not None:
            records.extend(recs)
        return out

    def lookup_many(self, keys: Sequence[Key],
                    records: Optional[List[Optional[Any]]] = None,
                    ) -> List[Optional[Value]]:
        return self._scatter("lookup_many", keys, keys, records)

    def insert_many(self, pairs: Sequence[Tuple[Key, Value]],
                    records: Optional[List[Optional[Any]]] = None,
                    ) -> List[bool]:
        return self._scatter("insert_many", [k for k, _ in pairs], pairs,
                             records)

    # -- introspection ---------------------------------------------------------

    def debug_validate(self) -> List[Any]:
        from repro.core.validate import Violation

        out: List[Any] = []
        for i in range(1, len(self.map.boundaries)):
            if self.map.boundaries[i - 1] >= self.map.boundaries[i]:
                out.append(Violation(0, "shard.map-unsorted",
                                     f"boundaries out of order at {i}"))
        if self.shards and len(self.shards) != len(self.map.boundaries) + 1:
            out.append(Violation(
                0, "shard.count-mismatch",
                f"{len(self.shards)} shards for "
                f"{len(self.map.boundaries)} boundaries"))
        return out + super().debug_validate()

    def status(self) -> dict:
        return {
            "name": self.name,
            "map": self.map.to_dict(),
            "splits": self.splits,
            "merges": self.merges,
            "cutover_stall_ops": self.cutover_stall_ops,
            "shards": [inst.status() for inst in self.shards],
        }

    # -- rebalancing: split / merge as live migrations -------------------------

    def _overhead_meter(self) -> CostMeter:
        return self.meter.adopt(CostMeter(self.meter.weights))

    def begin_split(self, sid: int) -> Rebalance:
        """Start migrating shard ``sid`` into two halves (live)."""
        inst = self.shards[sid]
        if isinstance(inst.index, MultiplexIndex):
            raise RuntimeError(f"shard {inst.name} is already rebalancing")
        primary = inst.index
        n = len(primary)
        if n < 2:
            raise ValueError(f"shard {inst.name} too small to split ({n} keys)")
        overhead = self._overhead_meter()
        lo, _ = self.map.range_of(sid)
        # Median scan is rebalancing overhead, not client traffic.
        with lend(primary, overhead):
            half = primary.range_scan(lo if lo is not None else 0, n // 2 + 1)
        mid = half[-1][0]
        left, right = self.factory(), self.factory()
        self.meter.adopt(left.meter)
        self.meter.adopt(right.meter)
        view = _RangeView([left, right], [mid], meter=overhead)
        mux = MultiplexIndex(primary, view, chunk=REBALANCE_CHUNK)
        inst.advance(MIGRATING, f"splitting at key {mid}")
        inst.watch(mux)
        inst.index = mux
        self._invalidate_batch_cache()
        return Rebalance("split", inst, mux, mid, [left, right])

    def begin_merge(self, sid: int) -> Rebalance:
        """Start merging shards ``sid`` and ``sid+1`` into one (live).

        The two slots collapse into one combined instance immediately
        (a range view over both neighbors multiplexed with the fresh
        target), so routing sees the merged range at once while the
        backfill copies into the target in the background.
        """
        if sid >= len(self.shards) - 1:
            raise IndexError(f"cannot merge shard {sid}: no right neighbor")
        a, b = self.shards[sid], self.shards[sid + 1]
        for neighbor in (a, b):
            if isinstance(neighbor.index, MultiplexIndex):
                raise RuntimeError(
                    f"shard {neighbor.name} is already rebalancing")
        boundary = self.map.boundaries[sid]
        overhead = self._overhead_meter()
        view = _RangeView([a.index, b.index], [boundary], meter=overhead)
        target = self.factory()
        self.meter.adopt(target.meter)
        mux = MultiplexIndex(view, target, chunk=REBALANCE_CHUNK)
        a.advance(MIGRATING, f"merging into combined shard with {b.name}")
        b.advance(MIGRATING, f"merging into combined shard with {a.name}")
        combined = self._instance(mux, SERVING)
        combined.advance(MIGRATING, f"absorbing {a.name} + {b.name}")
        combined.watch(mux)
        self.shards[sid:sid + 2] = [combined]
        del self.map.boundaries[sid]
        self._invalidate_batch_cache()
        return Rebalance("merge", combined, mux, boundary, [target],
                         retired_instances=[a, b])

    def finish_rebalance(self, rb: Rebalance) -> List[IndexInstance]:
        """Swap the slots of a cut-over (DONE) rebalance in; returns the
        new shard slots."""
        mux = rb.mux
        if mux.phase != DONE:
            raise RuntimeError(
                f"rebalance not cut over yet (phase={mux.phase!r})")
        sid = self.shards.index(rb.instance)
        self.cutover_stall_ops += mux.cutover_stall_ops
        new_insts = [self._instance(child, SERVING) for child in rb.children]
        self.shards[sid:sid + 1] = new_insts
        if rb.kind == "split":
            self.map.boundaries.insert(sid, rb.mid)
            self.splits += 1
        else:
            for inst in rb.retired_instances:
                inst.advance(RETIRED, "merged away")
            self.merges += 1
        rb.instance.advance(DRAINING, f"{rb.kind} cut over")
        rb.instance.advance(RETIRED, f"{rb.kind} complete")
        if self.bus is not None:
            self.bus.publish(
                "cutover", source=rb.instance.name,
                t_ns=self.meter.total_time(), op_seq=mux.cutover_seq,
                rebalance=rb.kind)
        rb.done = True
        self._invalidate_batch_cache()
        return new_insts

    def abort_rebalance(self, rb: Rebalance) -> None:
        """Roll a diverged/unwanted rebalance back to the prior layout."""
        mux = rb.mux
        if mux.phase == DONE:
            raise RuntimeError("cannot abort a finished rebalance")
        if mux.phase != DETACHED:  # a driver has aborted it already
            mux.abort()
        sid = self.shards.index(rb.instance)
        if rb.kind == "split":
            rb.instance.index = mux.primary
            rb.instance.advance(SERVING, "split aborted")
        else:
            a, b = rb.retired_instances
            self.shards[sid:sid + 1] = [a, b]
            self.map.boundaries.insert(sid, rb.mid)
            a.advance(SERVING, "merge aborted")
            b.advance(SERVING, "merge aborted")
            rb.instance.advance(RETIRED, "merge aborted")
        rb.aborted = True
        self._invalidate_batch_cache()


# ---------------------------------------------------------------------------
# Router control plane: per-shard SLO tracking + hotspot rebalancing
# ---------------------------------------------------------------------------

#: Router policy.  A shard whose share of a census window exceeds
#: ``HOT_FACTOR`` x the fair share splits, while the cluster has fewer
#: than ``MAX_SHARDS`` and it holds at least ``MIN_SPLIT_KEYS`` keys; an
#: adjacent pair at or under ``COLD_FACTOR`` x its fair share merges,
#: while it has more than ``MIN_SHARDS``; an in-flight rebalance is
#: driven ``PUMP_BUDGET`` keys per window.
HOT_FACTOR = 2.0
COLD_FACTOR = 0.35
MAX_SHARDS = 16
MIN_SHARDS = 1
MIN_SPLIT_KEYS = 512
PUMP_BUDGET = 4096


@dataclass
class RouterReport:
    """Everything one routed replay produced."""

    n_ops: int
    rejected: int
    splits: int
    merges: int
    aborted: int
    cutover_stall_ops: int
    shards_final: int
    wall_seconds: float
    oracle_ok: Optional[bool]
    #: Control-plane decisions, in order.
    events: List[dict]
    #: Cluster-level SLO windows (the p99 time series).
    cluster_windows: List[dict]
    #: Per-shard tracker summaries (live and retired slots).
    shard_summaries: Dict[str, dict]

    def p99_series(self, op_kind: str = LOOKUP) -> List[float]:
        out = []
        for window in self.cluster_windows:
            entry = window["ops_kinds"].get(op_kind)
            if entry is not None:
                out.append(entry["p99"])
        return out


class ShardRouter:
    """Watches per-shard traffic + SLO windows; splits hot, merges cold.

    Every ``window_ops`` routed operations the router takes one control
    decision:

    * an in-flight rebalance gets driven (up to ``PUMP_BUDGET`` keys)
      and its slots re-tracked once it is cut over or rolled back,
    * else the hottest shard — window share above ``HOT_FACTOR`` times
      the fair share, at least ``MIN_SPLIT_KEYS`` keys — begins a split,
    * else the coldest adjacent pair of plain shards — combined share at
      or below ``COLD_FACTOR`` of *their* fair share (two shards) —
      begins a merge.

    All ops keep flowing through the sharded index while rebalances are
    in flight (admission is checked and counted, never expected to
    reject: SERVING and MIGRATING both admit everything), which is the
    measured zero-downtime claim in :class:`RouterReport`.
    """

    def __init__(self, sharded: ShardedIndex, window_ops: int = 512,
                 slo_window: int = 256, bus: Optional[Any] = None) -> None:
        if window_ops < 1:
            raise ValueError("window_ops must be >= 1")
        self.sharded = sharded
        self.window_ops = window_ops
        self.slo_window = slo_window
        self.bus = bus
        self.cluster = SLOTracker(window_ops=slo_window, bus=bus)
        #: Every tracker ever opened, retained past retirement so a
        #: post-run cluster view (``repro top --shards``) can aggregate
        #: the full shard history, not just the survivors.
        self.all_trackers: Dict[str, SLOTracker] = {}
        #: The open window fold of every slot tracked right now.
        self._folds: Dict[str, WindowFold] = {}
        self.retired_summaries: Dict[str, dict] = {}
        self.active: Optional[Rebalance] = None
        self._driver: Optional[MigrationDriver] = None
        self.events: List[dict] = []
        self.aborted = 0
        self._workload: Optional[Workload] = None
        self._seq = 0

    # -- tracker lifecycle -----------------------------------------------------

    def _track(self, inst: IndexInstance) -> None:
        """Track ``inst`` on the meter serving the slot now.  A tracked
        slot keeps that meter until it is cut over (wrapping its index
        in a multiplexer, or unwrapping it on abort, changes no meter)
        and is retired then — so its fold closes on the clock it always
        read, which the cutover itself never charges."""
        tracker = SLOTracker(window_ops=self.slo_window, bus=self.bus)
        tracker.on_phase("measure", inst, self._workload)
        fold = WindowFold(self.slo_window, timed=True)
        fold.open(inst.index.meter, tracker.on_window)
        self.all_trackers[inst.name] = tracker
        self._folds[inst.name] = fold

    def _untrack(self, inst: IndexInstance) -> None:
        fold = self._folds.pop(inst.name, None)
        if fold is not None:
            fold.flush()
            tracker = self.all_trackers[inst.name]
            self.retired_summaries[inst.name] = tracker.summary()

    def _log(self, decision: str, **details: Any) -> None:
        event = {"decision": decision, "ops_seen": self._seq,
                 "t_ns": self.sharded.meter.total_time(), **details}
        self.events.append(event)

    # -- control decisions -----------------------------------------------------

    def _begin(self, rb: Rebalance) -> None:
        self.active = rb
        self._driver = MigrationDriver(rb.mux, on_cutover=self._finished,
                                       on_rollback=self._aborted)

    def _finished(self) -> None:
        """Driver hook: the rebalance is cut over; swap the slots in."""
        rb = self.active
        self._untrack(rb.instance)
        new_insts = self.sharded.finish_rebalance(rb)
        for inst in new_insts:
            self._track(inst)
        self._log("rebalance_finished", kind=rb.kind,
                  new_shards=[inst.name for inst in new_insts],
                  n_shards=len(self.sharded.shards),
                  cutover_seq=rb.mux.cutover_seq)
        self.active = None

    def _aborted(self, why: str) -> None:
        """Driver hook: the rebalance diverged; restore the old slots."""
        rb = self.active
        self._untrack(rb.instance)
        self.sharded.abort_rebalance(rb)
        for inst in ([rb.instance] if rb.kind == "split"
                     else rb.retired_instances):
            self._track(inst)
        self.aborted += 1
        self._log("rebalance_aborted", kind=rb.kind,
                  divergences=len(rb.mux.divergences))
        self.active = None

    def _maintain(self, win: Dict[int, int]) -> None:
        sharded = self.sharded
        if self.active is not None:
            self._driver.advance(PUMP_BUDGET)
            return
        total = sum(win.values())
        n = len(sharded.shards)
        if not total or not n:
            return
        fair = total / n
        hot_sid = max(win, key=lambda sid: win[sid])
        hot_inst = sharded.shards[hot_sid]
        if (win[hot_sid] > HOT_FACTOR * fair
                and n < MAX_SHARDS
                and len(hot_inst.index) >= MIN_SPLIT_KEYS
                and not isinstance(hot_inst.index, MultiplexIndex)):
            rb = sharded.begin_split(hot_sid)
            self._begin(rb)
            self._log("split_started", shard=hot_inst.name,
                      window_share=win[hot_sid] / total, split_key=rb.mid)
            return
        if n <= MIN_SHARDS:
            return
        best: Optional[Tuple[int, int]] = None
        for sid in range(n - 1):
            a, b = sharded.shards[sid], sharded.shards[sid + 1]
            if (isinstance(a.index, MultiplexIndex)
                    or isinstance(b.index, MultiplexIndex)):
                continue
            share = win.get(sid, 0) + win.get(sid + 1, 0)
            if best is None or share < best[1]:
                best = (sid, share)
        if best is not None and best[1] <= COLD_FACTOR * 2 * fair:
            sid = best[0]
            pair = (sharded.shards[sid].name, sharded.shards[sid + 1].name)
            rb = sharded.begin_merge(sid)
            self._begin(rb)
            self._untrack(rb.retired_instances[0])
            self._untrack(rb.retired_instances[1])
            self._track(rb.instance)
            self._log("merge_started", shards=list(pair),
                      window_share=best[1] / total)

    # -- the replay loop -------------------------------------------------------

    def run(self, workload: Workload,
            oracle: Optional[Any] = None) -> RouterReport:
        """Route every op of ``workload``, rebalancing as traffic skews."""
        t0 = time.perf_counter()
        sharded = self.sharded
        self._workload = workload
        if not sharded.shards:
            sharded.bulk_load(workload.bulk_items)
        if self.bus is not None and sharded.bus is None:
            sharded.attach_bus(self.bus)
        self.cluster.on_phase("measure", sharded, workload)
        cluster = WindowFold(self.slo_window, timed=True)
        cluster.open(sharded.meter, self.cluster.on_window)
        # The traffic census: ops per shard id, one decision per window.
        census = WindowFold(self.window_ops)
        census.open(sharded.meter, lambda win: self._maintain(win.counts))
        for inst in sharded.shards:
            self._track(inst)
        if oracle is not None:
            oracle.on_phase("measure", None, workload)
        rejected = 0
        self._seq = 0
        for op in workload.operations:
            sid = sharded.map.route(op.key)
            inst = sharded.shards[sid]
            if not inst.admits(op.op):
                rejected += 1  # never expected: SERVING/MIGRATING admit all
                continue
            prev = sharded.last_op
            ok, scanned, result = apply_op(sharded, op)
            record = sharded.last_op if sharded.last_op is not prev else None
            # One reading of each clock per op: the event and the
            # cluster fold carry the cluster clock, the shard fold the
            # clock of whatever index serves the slot right now.
            event = OpEvent(self._seq, op, record, ok, scanned, result,
                            sharded.meter.total_time())
            cluster.add(op.op, ok, event.t_ns)
            fold = self._folds.get(inst.name)
            if fold is not None:
                fold.add(op.op, ok, inst.index.meter.total_time())
            counts = inst.op_counts
            counts[op.op] = counts.get(op.op, 0) + 1
            if oracle is not None:
                oracle.on_op(event, None)
            if (record is not None and record.smo
                    and op.op in (INSERT, DELETE)):
                cluster.on_smo()
                if fold is not None:
                    fold.on_smo()
                inst.on_smo(event)
            self._seq += 1
            census.add(sid, ok, event.t_ns)
        # Drain any in-flight rebalance to completion.
        if self.active is not None:
            self._driver.advance()
        cluster.flush()
        for inst in list(sharded.shards):
            self._untrack(inst)
        summaries = dict(self.retired_summaries)
        return RouterReport(
            n_ops=self._seq,
            rejected=rejected,
            splits=sharded.splits,
            merges=sharded.merges,
            aborted=self.aborted,
            cutover_stall_ops=sharded.cutover_stall_ops,
            shards_final=len(sharded.shards),
            wall_seconds=time.perf_counter() - t0,
            oracle_ok=(oracle.ok if oracle is not None else None),
            events=list(self.events),
            cluster_windows=list(self.cluster.windows),
            shard_summaries=summaries,
        )
