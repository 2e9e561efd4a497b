"""The sharded serving tier: routing, rebalance, and determinism.

The acceptance bar is the parity test near the end: for every registry
index that supports sharding, running a mixed stream through a
:class:`ShardedIndex` produces a value fingerprint bit-identical to the
same stream against one unsharded instance, with the differential
oracle clean over the routed stream.
"""

import random

import pytest

from repro.bench.shard import (
    ShardBatchTask,
    rebalance_benchmark,
    routed_fingerprint,
    run_shard_batches,
)
from repro.core.cost import CostMeter
from repro.core.instance import MIGRATING, RETIRED, SERVING
from repro.core.opstream import DifferentialObserver
from repro.core.registry import REGISTRY
from repro.core.runner import execute
from repro.core import shard as shard_module
from repro.core.shard import (
    ClusterMeter,
    ShardMap,
    ShardRouter,
    ShardedIndex,
)
from repro.core.sweep import DatasetSpec
from repro.core.workloads import (
    mixed_workload,
    moving_hotspot_workload,
    payload,
)
from repro.indexes.btree import BPlusTree
from repro.indexes.multiplex import DONE, READY

KEYS = sorted(random.Random(7).sample(range(1, 30_000_000), 4000))
ITEMS = [(k, payload(k)) for k in KEYS]

SHARDABLE = [s.name for s in REGISTRY if s.supports_migration]


def _pump_and_cut_over(mux):
    """Drive a rebalance by hand, as a migration driver would."""
    for _ in range(10_000):
        if mux.phase == READY:
            mux.cutover()
            assert mux.phase == DONE
            return
        mux.pump()
    raise AssertionError(f"rebalance never became ready ({mux.phase})")


# -- ShardMap -----------------------------------------------------------------

def test_shard_map_routing_matches_linear_scan():
    m = ShardMap([100, 500, 1000])
    assert m.n_shards == 4

    def linear(key):
        sid = 0
        for b in m.boundaries:
            if key >= b:
                sid += 1
        return sid

    for key in [0, 99, 100, 101, 499, 500, 999, 1000, 10**9]:
        assert m.route(key) == linear(key)
    assert m.range_of(0) == (None, 100)
    assert m.range_of(1) == (100, 500)
    assert m.range_of(3) == (1000, None)


def test_shard_map_rejects_unsorted_boundaries():
    with pytest.raises(ValueError):
        ShardMap([5, 5])
    with pytest.raises(ValueError):
        ShardMap([9, 3])


def test_shard_map_split_merge_roundtrip():
    m = ShardMap([100, 500])
    m.split(1, 300)
    assert m.boundaries == [100, 300, 500]
    assert m.merge(1) == 300
    assert m.boundaries == [100, 500]
    with pytest.raises(ValueError):
        m.split(0, 100)  # split key must fall strictly inside the range
    with pytest.raises(IndexError):
        m.merge(2)  # no right neighbor


def test_shard_map_from_items_equal_population():
    m = ShardMap.from_items(ITEMS, 4)
    assert m.n_shards == 4
    counts = [0] * 4
    for k, _ in ITEMS:
        counts[m.route(k)] += 1
    assert max(counts) - min(counts) <= 1


# -- ClusterMeter -------------------------------------------------------------

def test_cluster_meter_sums_adopted_parts():
    cm = ClusterMeter()
    a = cm.adopt(CostMeter(cm.weights))
    b = cm.adopt(CostMeter(cm.weights))
    a.charge("key_compare", 2)
    b.charge("node_hop", 1)
    cm.charge("key_compare", 1)
    expected = (3 * cm.weights["key_compare"]
                + cm.weights["node_hop"])
    assert cm.total_time() == pytest.approx(expected)
    assert cm.routing_ns() == pytest.approx(cm.weights["key_compare"])
    assert cm.total_units("key_compare") == 3
    before = cm.snapshot()
    a.charge("key_compare", 5)
    assert cm.diff(before).total_time() == pytest.approx(
        5 * cm.weights["key_compare"])
    cm.reset()
    assert cm.total_time() == 0.0
    assert a.total_time() == 0.0


def test_cluster_clock_is_monotonic_across_rebalance():
    s = ShardedIndex(BPlusTree, n_shards=2)
    s.bulk_load(ITEMS[:1000])
    t0 = s.meter.total_time()
    rb = s.begin_split(0)
    _pump_and_cut_over(rb.mux)
    t1 = s.meter.total_time()
    assert t1 >= t0
    s.finish_rebalance(rb)
    assert s.meter.total_time() >= t1  # retired parts keep their charges


# -- ShardedIndex contract ----------------------------------------------------

def test_bulk_load_partitions_and_items_roundtrip():
    s = ShardedIndex("B+tree", n_shards=4)
    s.bulk_load(ITEMS)
    assert len(s) == len(ITEMS)
    assert s.map.n_shards == 4
    assert s.items() == ITEMS
    assert all(len(inst.index) > 0 for inst in s.shards)
    assert s.debug_validate() == []


def test_scalar_ops_route_across_boundaries():
    s = ShardedIndex("B+tree", n_shards=3)
    s.bulk_load(ITEMS[:900])
    for k, v in ITEMS[100:110]:
        assert s.lookup(k) == v
    absent = KEYS[950]
    assert s.lookup(absent) is None
    assert s.insert(absent, 42)
    assert s.lookup(absent) == 42
    assert s.update(absent, 43)
    assert s.lookup(absent) == 43
    assert s.delete(absent)
    assert s.last_op.op == "delete"
    assert s.lookup(absent) is None


def test_range_scan_stitches_across_shards():
    s = ShardedIndex("B+tree", n_shards=4)
    s.bulk_load(ITEMS)
    flat = BPlusTree()
    flat.bulk_load(ITEMS)
    # Straddle every boundary: start just before it, span well past.
    for b in s.map.boundaries:
        start = b - 1
        assert s.range_scan(start, 50) == flat.range_scan(start, 50)
    assert s.range_scan(KEYS[0], 10) == ITEMS[:10]
    assert s.range_scan(KEYS[-1] + 1, 10) == []


def test_batch_ops_match_scalar_loop():
    s = ShardedIndex("ALEX", n_shards=4)
    s.bulk_load(ITEMS[:2000])
    rng = random.Random(3)
    queries = [KEYS[rng.randrange(2500)] for _ in range(300)]
    got = s.lookup_many(queries)
    assert got == [s.lookup(k) for k in queries]
    fresh = [(k, payload(k)) for k in KEYS[2500:2600]]
    rng.shuffle(fresh)
    oks = s.insert_many(fresh)
    assert all(oks)
    assert s.lookup_many([k for k, _ in fresh]) == [v for _, v in fresh]
    # last_op mirrors the scalar contract: the final key's record, the
    # one its owning shard holds.
    s.lookup_many(queries[:10])
    assert (s.last_op.op, s.last_op.key) == ("lookup", queries[9])
    assert any(s.last_op is inst.index.last_op for inst in s.shards)


def test_single_shard_degenerates_to_plain_index():
    s = ShardedIndex("B+tree", n_shards=1)
    s.bulk_load(ITEMS[:500])
    assert s.map.n_shards == 1 and s.map.boundaries == []
    assert len(s.shards) == 1
    assert s.items() == ITEMS[:500]


def test_unshardable_index_refused():
    class NoRange(BPlusTree):
        supports_range = False

    with pytest.raises(ValueError, match="cannot be sharded"):
        ShardedIndex(NoRange, n_shards=2)


# -- split / merge as live migrations -----------------------------------------

def test_split_preserves_items_with_zero_stall():
    s = ShardedIndex("B+tree", n_shards=2)
    s.bulk_load(ITEMS[:1500])
    rb = s.begin_split(0)
    assert rb.kind == "split"
    assert rb.instance.state == MIGRATING
    # The slot keeps serving reads and writes mid-split.
    k, v = ITEMS[10]
    assert s.lookup(k) == v
    extra = KEYS[1600]
    assert s.insert(extra, 7)
    _pump_and_cut_over(rb.mux)
    new = s.finish_rebalance(rb)
    assert len(new) == 2 and all(i.state == SERVING for i in new)
    assert rb.instance.state == RETIRED
    assert s.map.n_shards == 3 and len(s.shards) == 3
    assert s.cutover_stall_ops == 0
    expected = sorted(ITEMS[:1500] + [(extra, 7)])
    assert s.items() == expected
    assert s.debug_validate() == []
    # ...and back: merging the two halves round-trips the layout.
    back = s.begin_merge(0)
    _pump_and_cut_over(back.mux)
    s.finish_rebalance(back)
    assert s.map.n_shards == 2 and s.items() == expected
    assert s.cutover_stall_ops == 0
    assert s.debug_validate() == []


def test_merge_preserves_items_with_zero_stall():
    s = ShardedIndex("B+tree", n_shards=3)
    s.bulk_load(ITEMS[:1500])
    rb = s.begin_merge(0)
    assert rb.kind == "merge"
    assert s.map.n_shards == 2  # neighbors fused immediately
    k, v = ITEMS[20]
    assert s.lookup(k) == v  # reads keep flowing through the view
    _pump_and_cut_over(rb.mux)
    s.finish_rebalance(rb)
    assert s.map.n_shards == 2 and len(s.shards) == 2
    assert s.cutover_stall_ops == 0
    assert all(i.state == RETIRED for i in rb.retired_instances)
    assert s.items() == ITEMS[:1500]
    assert s.debug_validate() == []


def test_finish_rebalance_requires_a_cut_over_migration():
    s = ShardedIndex("B+tree", n_shards=2)
    s.bulk_load(ITEMS[:600])
    rb = s.begin_split(0)
    while rb.mux.phase != READY:
        rb.mux.pump()
    with pytest.raises(RuntimeError, match="not cut over"):
        s.finish_rebalance(rb)   # only a migration driver cuts over
    assert rb.instance.status()["migration"]["phase"] == READY
    rb.mux.cutover()
    assert len(s.finish_rebalance(rb)) == 2
    assert "migration" not in rb.instance.status()


def test_abort_split_restores_original_shard():
    s = ShardedIndex("B+tree", n_shards=2)
    s.bulk_load(ITEMS[:1000])
    before = s.items()
    rb = s.begin_split(1)
    rb.mux.pump()
    s.abort_rebalance(rb)
    assert rb.aborted and rb.instance.state == SERVING
    assert s.map.n_shards == 2
    assert s.items() == before
    assert s.debug_validate() == []


def test_abort_merge_restores_neighbors():
    s = ShardedIndex("B+tree", n_shards=3)
    s.bulk_load(ITEMS[:1200])
    before = s.items()
    boundaries = list(s.map.boundaries)
    rb = s.begin_merge(1)
    rb.mux.pump()
    s.abort_rebalance(rb)
    assert s.map.boundaries == boundaries
    assert len(s.shards) == 3
    assert all(i.state == SERVING for i in rb.retired_instances)
    assert s.items() == before
    assert s.debug_validate() == []


# -- determinism contract (the acceptance bar) --------------------------------

@pytest.mark.parametrize("name", SHARDABLE)
def test_fingerprint_parity_and_oracle_clean(name):
    """Sharded == unsharded, bit for bit, oracle clean — every index."""
    spec = REGISTRY.get(name)
    keys = KEYS[:1200]
    wl = mixed_workload(keys, 0.3, n_ops=800, seed=6)
    plain = routed_fingerprint(spec.factory(), wl)
    sharded = ShardedIndex(name, n_shards=3)
    oracle = DifferentialObserver()
    routed = routed_fingerprint(sharded, wl, observers=[oracle])
    assert routed == plain
    assert oracle.ok, oracle.mismatches[:3]
    assert sharded.map.n_shards == 3


def test_parity_survives_a_mid_stream_split():
    keys = KEYS[:1200]
    wl = mixed_workload(keys, 0.3, n_ops=600, seed=9)
    plain = routed_fingerprint(BPlusTree(), wl)

    class SplitAt200:
        def __init__(self, sharded):
            self.sharded = sharded
            self.rb = None
            self.n = 0

        def on_phase(self, phase, index, workload):
            pass

        def on_op(self, event, latency):
            self.n += 1
            if self.n == 200:
                self.rb = self.sharded.begin_split(0)
            elif (self.rb is not None and not self.rb.done
                  and self.rb.mux.phase == READY):
                self.rb.mux.cutover()
                self.sharded.finish_rebalance(self.rb)

        def on_smo(self, record):
            pass

    sharded = ShardedIndex("B+tree", n_shards=2)
    splitter = SplitAt200(sharded)
    oracle = DifferentialObserver()
    routed = routed_fingerprint(sharded, wl, observers=[splitter, oracle])
    assert splitter.rb is not None and splitter.rb.done
    assert routed == plain
    assert oracle.ok
    assert sharded.cutover_stall_ops == 0


# -- router convergence -------------------------------------------------------

def test_router_splits_hot_shard_and_converges(monkeypatch):
    monkeypatch.setattr(shard_module, "MIN_SPLIT_KEYS", 256)
    wl = moving_hotspot_workload(KEYS[:3000], n_ops=6000, phases=3,
                                 seed=5)
    sharded = ShardedIndex("B+tree", n_shards=4)
    router = ShardRouter(sharded, window_ops=512, slo_window=256)
    oracle = DifferentialObserver()
    report = router.run(wl, oracle=oracle)
    assert report.n_ops == 6000
    assert report.rejected == 0
    assert report.splits >= 1
    assert report.cutover_stall_ops == 0
    assert report.oracle_ok and oracle.ok
    assert sharded.debug_validate() == []
    assert {e["decision"] for e in report.events} >= {"split_started"}
    # The retained trackers cover every shard that ever served.
    assert len(router.all_trackers) == len(router.retired_summaries)
    assert len(router.all_trackers) >= report.shards_final


class LyingBTree(BPlusTree):
    """Stores faithfully, answers every lookup wrong: a split target
    built from these can never pass verification."""

    def lookup(self, key):
        value = super().lookup(key)
        return None if value is None else value ^ 1


def test_router_rolls_a_diverged_split_back_and_keeps_serving(monkeypatch):
    """A rebalance whose target diverges is aborted by the router's
    driver: the hot slot goes back to plain service on its original
    index, is tracked again, and no client op ever sees the liar."""
    from repro.core.events import EventBus

    monkeypatch.setattr(shard_module, "MIN_SPLIT_KEYS", 256)
    made = []

    def factory():  # the probe + four honest shards, then liars
        made.append(BPlusTree() if len(made) < 5 else LyingBTree())
        return made[-1]

    wl = moving_hotspot_workload(KEYS[:3000], n_ops=6000, phases=3, seed=5)
    reference = BPlusTree()
    execute(reference, wl)
    sharded = ShardedIndex(factory, n_shards=4)
    bus = EventBus()
    router = ShardRouter(sharded, window_ops=512, slo_window=256, bus=bus)
    oracle = DifferentialObserver()
    report = router.run(wl, oracle=oracle)
    decisions = [e["decision"] for e in report.events]
    assert report.aborted >= 1
    assert report.aborted == decisions.count("rebalance_aborted")
    assert report.aborted == decisions.count("split_started")
    assert report.splits == 0 and report.shards_final == 4
    assert report.rejected == 0 and report.n_ops == 6000
    assert report.oracle_ok and oracle.ok
    assert router.active is None
    for inst in sharded.shards:
        assert inst.state == SERVING
        assert type(inst.index) is BPlusTree      # never a liar, never a mux
        assert inst.name in report.shard_summaries   # tracked to the end
    assert sharded.items() == reference.items()
    assert sharded.debug_validate() == []
    # The split's progress reached the bus as (stage, done, total).
    chunks = [e for e in bus.events() if e["kind"] == "backfill_chunk"]
    assert chunks and all(isinstance(e["done"], int) for e in chunks)


def test_rebalance_benchmark_converges_small():
    doc = rebalance_benchmark(index="B+tree", dataset="covid", n=6000,
                              ops=6000, shards=4, window_ops=512, seed=0)
    assert doc["converged"] is True
    assert doc["cutover_stall_ops"] == 0
    assert doc["rejected_ops"] == 0
    assert doc["oracle_ok"] is True
    assert doc["splits"] >= 1
    assert doc["p99_recovery_ratio"] <= 2.0


# -- parallel shard execution -------------------------------------------------

def test_run_shard_batches_serial_pool_parity():
    ds = DatasetSpec("covid", 4000, 0)
    keys = ds.keys()
    mid = keys[len(keys) // 2]
    rng = random.Random(1)
    qs = tuple(keys[rng.randrange(len(keys))] for _ in range(600))
    tasks = [
        ShardBatchTask(index="B+tree", dataset=ds, lo=None, hi=mid,
                       lookups=tuple(k for k in qs if k < mid)),
        ShardBatchTask(index="B+tree", dataset=ds, lo=mid, hi=None,
                       lookups=tuple(k for k in qs if k >= mid)),
    ]
    serial = run_shard_batches(tasks, jobs=1)
    assert not serial.used_processes and serial.pool_error == ""
    assert sum(r["hits"] for r in serial.results) == len(qs)
    pool = run_shard_batches(tasks, jobs=2)
    # A pool may be unavailable (sandboxes); the fallback must still
    # produce identical results — that IS the determinism contract.
    assert pool.fingerprints() == serial.fingerprints()
    assert [r["busy_ns"] for r in pool.results] == \
        [r["busy_ns"] for r in serial.results]


def test_sharded_status_surface():
    s = ShardedIndex("B+tree", n_shards=2)
    s.bulk_load(ITEMS[:600])
    doc = s.status()
    assert doc["name"] == "Sharded[B+tree]"
    assert doc["map"]["n_shards"] == 2
    assert doc["splits"] == 0 and doc["merges"] == 0
    assert doc["cutover_stall_ops"] == 0
    assert len(doc["shards"]) == 2


def test_registry_sharding_flags_are_honest():
    assert len(SHARDABLE) >= 6  # the acceptance floor
    assert "RMI" not in SHARDABLE  # read-only: migration targets insert
    for name in SHARDABLE:
        s = ShardedIndex(name, n_shards=2)
        s.bulk_load(ITEMS[:400])
        assert s.items() == ITEMS[:400]


def test_routed_stream_engine_parity():
    """`execute` over a ShardedIndex reports the same op outcomes."""
    keys = KEYS[:800]
    wl = mixed_workload(keys, 0.2, n_ops=400, seed=2)
    plain = execute(BPlusTree(), wl)
    shard = execute(ShardedIndex("B+tree", n_shards=3), wl)
    assert shard.n_ops == plain.n_ops
    assert shard.index_name == "Sharded[B+tree]"
    assert shard.memory.total >= plain.memory.total  # N structures


# -- property-based: ShardMap split/merge vs a brute-force model ---------------

from hypothesis import settings as _hyp_settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

_MAP_KEY = st.integers(min_value=0, max_value=2**20)


class ShardMapMachine(RuleBasedStateMachine):
    """Random split/merge sequences vs a plain sorted-list model.

    The model is just the boundary list itself kept by brute force;
    the invariants re-derive everything a router relies on — strictly
    sorted boundaries, contiguous half-open ranges covering the whole
    keyspace, and ``route`` agreeing with a linear scan — after every
    step, so hypothesis shrinks any violation to a minimal edit script.
    """

    @initialize(keys=st.sets(_MAP_KEY, max_size=12))
    def start(self, keys):
        self.model = sorted(keys)
        self.map = ShardMap(self.model)

    @rule(sid=st.integers(min_value=0, max_value=2**30), at=_MAP_KEY)
    def split(self, sid, at):
        sid %= self.map.n_shards
        lo, hi = self.map.range_of(sid)
        inside = ((lo is None or at > lo) and (hi is None or at < hi))
        if inside:
            self.map.split(sid, at)
            self.model.insert(sid, at)
        else:
            with pytest.raises(ValueError):
                self.map.split(sid, at)

    @rule(sid=st.integers(min_value=0, max_value=2**30))
    def merge(self, sid):
        if not self.model:
            with pytest.raises(IndexError):
                self.map.merge(0)
            return
        sid %= len(self.model)
        removed = self.map.merge(sid)
        assert removed == self.model.pop(sid)

    @rule(key=_MAP_KEY)
    def route_agrees_with_linear_scan(self, key):
        got = self.map.route(key)
        assert got == sum(1 for b in self.model if b <= key)
        lo, hi = self.map.range_of(got)
        assert lo is None or lo <= key
        assert hi is None or key < hi

    @invariant()
    def boundaries_strictly_sorted(self):
        if not hasattr(self, "map"):
            return
        bl = self.map.boundaries
        assert bl == self.model
        assert all(a < b for a, b in zip(bl, bl[1:]))

    @invariant()
    def ranges_cover_keyspace_contiguously(self):
        if not hasattr(self, "map"):
            return
        n = self.map.n_shards
        assert n == len(self.model) + 1
        ranges = [self.map.range_of(sid) for sid in range(n)]
        assert ranges[0][0] is None
        assert ranges[-1][1] is None
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # no gap, no overlap
        with pytest.raises(IndexError):
            self.map.range_of(n)


TestShardMapStateful = ShardMapMachine.TestCase
TestShardMapStateful.settings = _hyp_settings(
    max_examples=50, stateful_step_count=50, deadline=None)
