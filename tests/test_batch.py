"""Batch-operation parity: batched execution must be observationally
identical to scalar execution.

The contract under test (see ``docs/performance.md``): for every index
in the registry, a run whose lookup runs the engine resolved in blocks
must produce the same ``RunResult`` fingerprint, the same virtual time,
the *identical* cost-meter state (content and counter insertion order —
the virtual clock sums floats in insertion order), the same latency
samples, op counts and ``last_op`` as the per-op loop, and the
``*_many`` calls the same values and final ``last_op`` as loops of the
scalar ops, with every per-op record the batch body can make equal to
the scalar op's.  The per-op loop needs no knob: attaching any observer with
an ``on_op``, even one that does nothing, selects it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import runner
from repro.core.instance import IndexInstance
from repro.core.opstream import DifferentialObserver
from repro.core.registry import REGISTRY
from repro.core.results import result_record
from repro.core.runner import ExecutionEngine, ExecutionObserver
from repro.core.sweep import result_fingerprint
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    Operation,
    Workload,
    mixed_workload,
)
from repro.datasets import registry as datasets
from repro.indexes import alex, batching, lipp
from repro.indexes.btree import BPlusTree
from repro.indexes.multiplex import BACKFILL, MultiplexIndex

ALL_NAMES = [spec.name for spec in REGISTRY]
BATCH_NAMES = [spec.name for spec in REGISTRY if spec.supports_batch]


def _keys(n=3000, seed=5, hi=30_000_000):
    rng = random.Random(seed)
    return sorted(rng.sample(range(1, hi), n))


def _pair(name):
    spec = REGISTRY.get(name)
    return spec, spec.factory(), spec.factory()


def _assert_meters_identical(a, b, label=""):
    assert list(a.meter._counts.items()) == list(b.meter._counts.items()), (
        f"{label}: cost counters diverge")
    assert a.meter.total_time() == b.meter.total_time(), (
        f"{label}: virtual clocks diverge")


# ---------------------------------------------------------------------------
# Engine-level parity over the whole registry
# ---------------------------------------------------------------------------

class Watch(ExecutionObserver):
    """Forces the per-op loop: an attached ``on_op`` is all it takes."""

    def on_op(self, event, latency):
        pass


@contextmanager
def _short_runs(streak=4, block=16, min_batch=4):
    """Streak and block small enough that a stream of a few hundred ops
    crosses the streak, fills blocks and leaves partial ones, some of
    them under ``MIN_BATCH`` (declined)."""
    with mock.patch.object(runner, "LOOKUP_STREAK", streak), \
            mock.patch.object(runner, "LOOKUP_BLOCK", block), \
            mock.patch.object(batching, "MIN_BATCH", min_batch):
        yield


def _counting(index):
    """Count ``index._lookup_batch`` calls and the blocks it resolved."""
    calls = {"asked": 0, "resolved": 0}
    inner = index._lookup_batch

    def lookup_batch(keys):
        calls["asked"] += 1
        batch = inner(keys)
        calls["resolved"] += batch is not None
        return batch

    index._lookup_batch = lookup_batch
    return calls


def _assert_default_equals_per_op(make, wl, every, label):
    """One workload through the default engine and through the per-op
    loop: everything a run leaves behind is equal."""
    a, b = IndexInstance(make()), IndexInstance(make())
    calls = _counting(a.index)
    ra = ExecutionEngine(sample_every=every).run(a, wl)
    rb = ExecutionEngine(sample_every=every, observers=[Watch()]).run(b, wl)
    assert result_fingerprint(result_record(ra)) == \
        result_fingerprint(result_record(rb)), label
    assert ra.virtual_ns == rb.virtual_ns, label
    _assert_meters_identical(a.index, b.index, label)
    # Dataclass equality: count, mean, p50, p99, p999, variance, max.
    assert ra.lookup_latency == rb.lookup_latency, label
    assert ra.write_latency == rb.write_latency, label
    assert list(a.op_counts.items()) == list(b.op_counts.items()), label
    assert a.index.last_op == b.index.last_op, label
    return calls


def _mixes(spec, keys, n_ops):
    """Read-only, 98/2, balanced, and 90/10 with scans in place of one
    op in twenty — as far as the index supports them."""
    yield mixed_workload(keys, 0.0, n_ops=n_ops, seed=3)
    if spec.supports_insert:
        yield mixed_workload(keys, 0.02, n_ops=n_ops, seed=3)
        yield mixed_workload(keys, 0.5, n_ops=n_ops, seed=3)
    if spec.supports_range:
        wl = mixed_workload(keys, 0.1 if spec.supports_insert else 0.0,
                            n_ops=n_ops, seed=3)
        rng = random.Random(11)
        ops = list(wl.operations)
        for i in rng.sample(range(n_ops), n_ops // 20):
            ops[i] = Operation(SCAN, ops[i].key, count=rng.randint(1, 20))
        yield Workload(f"{wl.name}+scans", wl.bulk_items, ops)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_engine_batch_fingerprint_parity(name):
    """Default engine vs per-op loop, every registered index: first the
    shipped streak and block on a read-only stream long enough to fill
    blocks, then every mix x ``sample_every`` with short runs."""
    spec = REGISTRY.get(name)
    keys = _keys()
    calls = _assert_default_equals_per_op(
        spec.factory, mixed_workload(keys, 0.0, n_ops=5000, seed=3), 101,
        f"{name} read-only")
    # 32 per op, then blocks of 2048 + 2048 + 872: the partial one is
    # asked for only on the back of a resolved one.
    assert (calls["asked"], calls["resolved"]) == (
        (3, 3) if spec.supports_batch else (2, 0))
    with _short_runs():
        for wl in _mixes(spec, keys, 1200):
            for every in (1, 2, 7, 101):
                calls = _assert_default_equals_per_op(
                    spec.factory, wl, every, f"{name} {wl.name} /{every}")
                if wl.write_fraction < 0.5:
                    assert calls["asked"], f"{name} {wl.name}: never batched"


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_engine_batch_oracle_and_events(name):
    """The differential oracle and a per-op event recorder select the
    per-op loop — ``_lookup_batch`` is never asked — see every op in
    stream order, and end on the meter of the default run, which did
    resolve blocks."""
    spec, a, b = _pair(name)
    keys = _keys(2000, seed=9)
    wf = 0.02 if spec.supports_insert else 0.0
    wl = mixed_workload(keys, wf, n_ops=2000, seed=7)

    class Recorder:
        def __init__(self):
            self.seqs = []

        def on_phase(self, phase, index, workload):
            pass

        def on_op(self, event, latency):
            self.seqs.append(event.seq)

    oracle, recorder = DifferentialObserver(), Recorder()
    watched, free = _counting(a), _counting(b)
    with _short_runs():
        ExecutionEngine(observers=[oracle, recorder]).run(a, wl)
        ExecutionEngine().run(b, wl)
    assert oracle.ok
    assert recorder.seqs == list(range(wl.n_ops))
    assert watched["asked"] == 0 and free["resolved"] > 0
    _assert_meters_identical(a, b, name)


#: Around the short-run thresholds (streak 4, block 16): no run, under
#: / at / over the streak, one block short / exact / over, two blocks.
_RUN_LENGTHS = (0, 1, 3, 4, 5, 19, 20, 21, 36, 37, 52)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.integers(0, 12),
    runs=st.lists(st.tuples(st.sampled_from(_RUN_LENGTHS),
                            st.sampled_from((INSERT, SCAN))),
                  min_size=1, max_size=6),
    every=st.one_of(st.integers(1, 12), st.sampled_from((16, 20, 101))),
    name=st.sampled_from(("ALEX", "B+tree", "PGM")),
)
# One 40-lookup run after 6 inserts: seqs 6-9 per op, blocks 10-25 and
# 26-41, the last block partial (26-45).  Sampled ops on the run's
# first op, the op before and after the streak, both sides of the block
# boundary, the last op, and two in a row.
@example(lead=6, runs=[(40, INSERT)], every=6, name="ALEX")
@example(lead=6, runs=[(40, INSERT)], every=9, name="B+tree")
@example(lead=6, runs=[(40, INSERT)], every=10, name="PGM")
@example(lead=6, runs=[(40, INSERT)], every=25, name="ALEX")
@example(lead=6, runs=[(40, INSERT)], every=13, name="B+tree")
@example(lead=6, runs=[(40, INSERT)], every=45, name="PGM")
@example(lead=6, runs=[(40, INSERT)], every=1, name="ALEX")
def test_sampled_ops_anywhere_in_a_run(lead, runs, every, name):
    """Random runs of lookups between writes and scans, at any
    ``sample_every``: the sampled ops fall on every position of a run."""
    keys = _keys(400, seed=3)
    loaded, fresh = keys[::2], iter(keys[1::2])
    rng = random.Random(lead)

    def ender(kind):
        if kind == INSERT:
            key = next(fresh)
            return Operation(INSERT, key, key)
        return Operation(SCAN, rng.choice(loaded), count=5)

    ops = [ender(INSERT) for _ in range(lead)]
    for length, kind in runs:
        ops += [Operation(LOOKUP, rng.choice(keys)) for _ in range(length)]
        ops.append(ender(kind))
    wl = Workload("runs", [(k, k) for k in loaded], ops)
    with _short_runs(min_batch=1):
        _assert_default_equals_per_op(
            REGISTRY.get(name).factory, wl, every, f"{name} /{every}")


def test_wrappers_keep_the_per_op_loop():
    """A multiplexer pumps its migration behind every client op: a block
    resolved through its primary would skip the pumps, so the engine
    leaves adapters on the per-op loop."""
    keys = _keys(600)
    wl = mixed_workload(keys, 0.0, n_ops=300, seed=2)
    mux = MultiplexIndex(BPlusTree(), BPlusTree(), chunk=8, pump_per_op=1)
    calls = _counting(mux)
    with _short_runs():
        ExecutionEngine().run(mux, wl)
    assert calls["asked"] == 0
    assert mux.phase != BACKFILL  # 300 pumps of 8 keys staged all 600


def test_declined_blocks_take_the_per_op_loop():
    """ALEX under a duplicate mode and a subclass overriding ``lookup``
    both make ``_lookup_batch`` return ``None``: every block falls
    back, with equal results, and the override sees every lookup."""
    wl = mixed_workload(_keys(500), 0.0, n_ops=400, seed=1)
    with _short_runs():
        calls = _assert_default_equals_per_op(
            lambda: alex.ALEX(duplicate_mode="inline"), wl, 7,
            "duplicate mode")
    assert calls["asked"] > 0 and calls["resolved"] == 0

    class Spy(BPlusTree):
        seen = 0

        def lookup(self, key):
            Spy.seen += 1
            return super().lookup(key)

    wl = mixed_workload(_keys(500), 0.0, n_ops=400, seed=1)
    with _short_runs():
        calls = _assert_default_equals_per_op(Spy, wl, 7, "lookup override")
    assert calls["asked"] > 0 and calls["resolved"] == 0
    assert Spy.seen == 2 * wl.n_ops  # both runs


# ---------------------------------------------------------------------------
# Direct lookup_many parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_lookup_many_parity(name):
    spec, a, b = _pair(name)
    keys = _keys(2500, seed=13)
    items = [(k, k * 3) for k in keys]
    a.bulk_load(items)
    b.bulk_load(items)
    rng = random.Random(1)
    qs = rng.sample(keys, 400) + [k + 1 for k in rng.sample(keys, 400)]
    rng.shuffle(qs)
    _assert_lookup_many_equals_loop(a, b, qs, name, spec.supports_batch)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_lookup_many_parity_after_mutations(name):
    """Interleave inserts (cache invalidation, SMOs) with batches."""
    spec, a, b = _pair(name)
    keys = _keys(2000, seed=17)
    items = [(k, k * 3) for k in keys]
    a.bulk_load(items)
    b.bulk_load(items)
    if not spec.supports_insert:
        pytest.skip(f"{name} is read-only")
    for rnd in range(3):
        rng = random.Random(100 + rnd)
        new = rng.sample(range(30_000_001, 60_000_000), 300)
        for k in new:
            assert a.insert(k, k) == b.insert(k, k)
        qs = rng.sample(keys, 150) + rng.sample(new, 100) + \
            [k + 7 for k in rng.sample(new, 50)]
        rng.shuffle(qs)
        assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
        _assert_meters_identical(a, b, f"{name} round {rnd}")


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_NAMES)
def test_empty_batch_and_batch_of_one(name):
    spec, a, b = _pair(name)
    keys = _keys(600, seed=23)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    assert a.lookup_many([]) == []
    assert a.lookup_many([keys[5]]) == [b.lookup(keys[5])]
    assert a.lookup_many([keys[0] - 1]) == [b.lookup(keys[0] - 1)]
    _assert_meters_identical(a, b, name)


def test_insert_many_duplicate_keys_in_one_batch():
    """Duplicate keys inside one insert_many behave like the scalar
    sequence: first wins, later duplicates are rejected."""
    for name in BATCH_NAMES:
        spec = REGISTRY.get(name)
        if not spec.supports_insert:
            continue
        a, b = spec.factory(), spec.factory()
        keys = _keys(400, seed=29)
        a.bulk_load([(k, k) for k in keys])
        b.bulk_load([(k, k) for k in keys])
        pairs = [(10_000_001, 1), (10_000_002, 2), (10_000_001, 3),
                 (keys[0], 4), (10_000_002, 5)]
        got = a.insert_many(pairs)
        want = [b.insert(k, v) for k, v in pairs]
        # Duplicate semantics differ per index (PGM appends, others
        # reject) — the contract is only that batch == scalar sequence.
        assert got == want, name
        assert a.lookup_many([p[0] for p in pairs]) == \
            [b.lookup(p[0]) for p in pairs], name
        _assert_meters_identical(a, b, name)


def test_batch_straddling_an_smo():
    """A lookup batch issued immediately after an insert that triggered
    a structural modification must see the post-SMO structure."""
    for name in BATCH_NAMES:
        spec = REGISTRY.get(name)
        if not spec.supports_insert:
            continue
        a, b = spec.factory(), spec.factory()
        keys = _keys(1200, seed=31)
        a.bulk_load([(k, k) for k in keys])
        b.bulk_load([(k, k) for k in keys])
        rng = random.Random(3)
        qs = rng.sample(keys, 64)
        smo_seen = False
        for k in range(30_000_001, 30_002_000, 3):
            ra = a.insert(k, k)
            assert ra == b.insert(k, k)
            if a.last_op is not None and a.last_op.smo:
                smo_seen = True
                probe = qs + [k, k + 1]
                assert a.lookup_many(probe) == [b.lookup(q) for q in probe]
        assert smo_seen, f"{name}: workload never triggered an SMO"
        _assert_meters_identical(a, b, name)


# ---------------------------------------------------------------------------
# ALEX and LIPP on the live lists
# ---------------------------------------------------------------------------
#
# Their batch bodies keep nothing between calls: the root's model in
# numpy, then each key by itself on the lists the scalar ops write.  The
# shapes below are the ones earlier bodies split on (a node's keys
# handled as a group once there were enough of them, a numpy copy of
# every node visited that each write had to drop).

def _alex_leaf_keys(index):
    """Occupied keys per leaf, in key order."""
    leaves = sorted(index.data_nodes(), key=lambda leaf: leaf.keys[0])
    return [[k for k, _ in leaf.occupied_items()] for leaf in leaves]


def _lipp_node_keys(index):
    """Keys held directly in each node's own slots, root first."""
    out, stack = [], [index._root]
    while stack:
        node = stack.pop()
        out.append([item[0] for item, tag in zip(node, node.tags)
                    if tag == lipp._DATA])
        stack += [item for item, tag in zip(node, node.tags)
                  if tag == lipp._CHILD]
    return out


def _clustered_items():
    """3,000 spread keys and a dense run of 300: ALEX gets a handful of
    leaves, LIPP's root one child holding the whole run."""
    keys = sorted({*_keys(3000, seed=51), *range(15_000_000, 15_000_600, 2)})
    return [(k, k * 3) for k in keys]


def _one_node(name, index):
    if name == "ALEX":
        return max(_alex_leaf_keys(index), key=len)
    root = index._root
    child = max((v for v, tag in zip(root, root.tags)
                 if tag == lipp._CHILD), key=lambda node: node.size)
    return [k for k, _ in index._iter_subtree(child)]


def _every_node(name, index):
    groups = (_alex_leaf_keys(index) if name == "ALEX"
              else _lipp_node_keys(index))
    return [k for group in groups if group
            for k in sorted({group[0], group[len(group) // 2], group[-1]})]


def _held(name, index):
    return {k for group in _alex_leaf_keys(index) for k in group} \
        if name == "ALEX" else {k for k, _ in index._iter_subtree(index._root)}


def _misses(name, index):
    held = _held(name, index)
    picked = random.Random(53).sample(sorted(held), 300)
    return [q for k in picked for q in (k - 1, k + 1) if q not in held]


def _deep_items():
    """The osm stand-in at 5,000 keys: ALEX keys end 1 to 8 inner nodes
    down, LIPP keys in nodes 0 to 4 below the root."""
    return [(k, k * 3) for k in datasets.get("osm").generate(5000, seed=1)]


def _keys_by_depth(name, index):
    """Held keys by the depth they end at: the inner nodes above an
    ALEX key's leaf, the nodes above the LIPP node holding a key."""
    out = {}
    if name == "ALEX":
        for k in sorted(_held(name, index)):
            node, depth = index._root, 0
            while isinstance(node, alex._InnerNode):
                node, depth = node.children[node.child_slot(k)], depth + 1
            out.setdefault(depth, []).append(k)
        return out
    stack = [(index._root, 0)]
    while stack:
        node, depth = stack.pop()
        for item, tag in zip(node, node.tags):
            if tag == lipp._DATA:
                out.setdefault(depth, []).append(item[0])
            elif tag == lipp._CHILD:
                stack.append((item, depth + 1))
    return out


def _every_depth(name, index):
    """Per depth six held keys, the last swapped for a miss beside it:
    every second one (a held key at each depth) is the deleted half."""
    by_depth = _keys_by_depth(name, index)
    assert len(by_depth) >= 5, (name, sorted(by_depth))
    held = _held(name, index)
    qs = []
    for depth, keys in sorted(by_depth.items()):
        picked = random.Random(depth).sample(sorted(keys), 6)
        assert picked[-1] + 1 not in held
        qs += picked[:-1] + [picked[-1] + 1]
    return qs


#: shape -> (the loaded items; the batch, given a loaded index; whether
#: every second key of the batch is deleted first).  Deleting leaves an
#: ALEX slot a gap copy of its right neighbour, which a lookup of that
#: neighbour then lands on and walks past, and a LIPP slot empty or its
#: node collapsed.  ``deep`` asks one batch for keys ending at every
#: depth, so ALEX's descent steps keys down on many levels at once.
_SHAPES = {
    "one-node": (_clustered_items, _one_node, False),
    "every-node": (_clustered_items, _every_node, False),
    "all-misses": (_clustered_items, _misses, False),
    "deleted": (_clustered_items, _one_node, True),
    "deep": (_deep_items, _every_depth, True),
}


def _assert_lookup_many_equals_loop(a, b, qs, label, batched=True):
    """``a.lookup_many(qs)`` (through the batch body iff ``batched``)
    against ``b.lookup`` in a loop: values, every record the batch body
    makes, ``last_op``, the meter table in order."""
    # Asking charges nothing.
    batch = a._lookup_batch(qs)
    assert (batch is not None) == batched, label
    want, want_recs = [], []
    got = a.lookup_many(qs)
    for k in qs:
        want.append(b.lookup(k))
        want_recs.append(b.last_op)
    assert got == want, label
    if batch is not None:
        assert [batch.make_record(i) for i in range(len(qs))] == want_recs, \
            label
    assert a.last_op == b.last_op, label
    _assert_meters_identical(a, b, label)


def _assert_run_equals_per_op(name, items, prefix, qs, label):
    """``prefix`` then one lookup run over ``qs`` through the default
    engine (one block holding the whole run) and the per-op loop."""
    wl = Workload(label, items, [*prefix, *(Operation(LOOKUP, k) for k in qs)])
    with _short_runs(block=len(qs), min_batch=1):
        calls = _assert_default_equals_per_op(
            REGISTRY.get(name).factory, wl, 7, label)
    assert calls["resolved"], label


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("name", ("ALEX", "LIPP"))
def test_live_list_shapes(name, shape, monkeypatch):
    make_items, pick, delete = _SHAPES[shape]
    spec, a, b = _pair(name)
    items = make_items()
    for index in (a, b):
        index.bulk_load(items)
    qs = pick(name, a)
    assert len(qs) >= 16, (name, shape)
    gone = qs[::2] if delete else []
    for k in gone:
        assert a.delete(k) and b.delete(k)
    label = f"{name} {shape}"
    _assert_lookup_many_equals_loop(a, b, qs, label)
    shuffled = random.Random(57).sample(qs, len(qs))
    _assert_lookup_many_equals_loop(a, b, shuffled, f"{label} shuffled")
    monkeypatch.setattr(batching, "MIN_BATCH", 1)
    for small in (qs[:1], qs[1:3], qs[-3:]):
        _assert_lookup_many_equals_loop(a, b, small, f"{label} x{len(small)}")
    _assert_run_equals_per_op(
        name, items, [Operation(DELETE, k) for k in gone], qs, label)


@pytest.mark.parametrize("name", ("ALEX", "LIPP"))
def test_live_list_single_node_index(name):
    """An ALEX whose root is a leaf, a LIPP whose root has no child."""
    spec, a, b = _pair(name)
    items = [(k, -k) for k in range(1000, 3000, 50)]
    for index in (a, b):
        index.bulk_load(items)
    root = a._root
    assert isinstance(root, alex._DataNode) if name == "ALEX" \
        else lipp._CHILD not in root.tags
    qs = [k + d for k, _ in items for d in (0, 1)]
    _assert_lookup_many_equals_loop(a, b, qs, name)
    _assert_run_equals_per_op(name, items, [], qs, name)


@pytest.mark.parametrize("name", ("ALEX", "LIPP", "B+tree"))
def test_live_list_batches_between_writes(name):
    """Batches between inserts (one dense run, so SMOs), deletes and
    re-inserts, each batch against the scalar twin.  The load's door
    drops batch state once; after it ALEX and B+tree drop their cached
    inner layout at each SMO and at no other write (a plain write
    changes a leaf's lists, which batches read live), and LIPP keeps
    no batch state at all."""
    spec, a, b = _pair(name)
    items = _clustered_items()
    drops = []
    drop = a._invalidate_batch_cache
    a._invalidate_batch_cache = lambda: (drops.append(1), drop())
    for index in (a, b):
        index.bulk_load(items)
    assert len(drops) == 1
    keeps_layout = name != "LIPP"
    rng = random.Random(59)
    held = [k for k, _ in items]
    fresh = iter(range(15_000_001, 15_003_000, 2))
    prefix, smos = [], 0
    for rnd in range(12):
        writes = [Operation(INSERT, k, k) for _, k in zip(range(60), fresh)]
        writes += [Operation(DELETE, k) for k in rng.sample(held, 20)]
        for op in writes:
            drops.clear()
            for index in (a, b):
                (index.delete(op.key) if op.op == DELETE
                 else index.insert(op.key, op.value))
            assert a.last_op == b.last_op
            smos += bool(a.last_op.smo)
            assert bool(drops) == (keeps_layout and a.last_op.smo), (
                name, op, len(drops))
        prefix += writes
        qs = rng.sample(held, 40) + [op.key for op in writes[-40:]]
        _assert_lookup_many_equals_loop(a, b, qs, f"{name} round {rnd}")
        assert (a._batch_cache is not None) == keeps_layout
        assert not a.debug_validate(), f"{name} round {rnd}"
        prefix += [Operation(LOOKUP, k) for k in qs]
    assert smos, f"{name}: the writes never triggered an SMO"
    # The same stream through the engine: writes and short lookup runs.
    wl = Workload(name, items, prefix)
    with _short_runs(min_batch=1):
        calls = _assert_default_equals_per_op(spec.factory, wl, 7, name)
    assert calls["resolved"] >= 12


def test_nodes_hold_no_batch_state():
    """What a node has is what the scalar ops read and write."""
    assert alex._DataNode.__slots__ == (
        "node_id", "keys", "values", "present", "num_keys",
        "model", "prev", "next",
        "inserts_since_build", "shifts_since_build", "search_since_build")
    assert lipp._LippNode.__slots__ == (
        "node_id", "slope", "intercept", "anchor", "tags",
        "size", "build_size", "num_inserts", "num_conflicts")


# ---------------------------------------------------------------------------
# Fallback paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_NAMES)
def test_no_numpy_fallback(name, monkeypatch):
    """When no kernel takes the batch the batch APIs silently loop
    scalar and stay correct.  The id is on the test floor and keeps its
    name; with numpy a hard dependency, the fallback is a batch the
    kernels decline — here every batch, by an unreachable
    ``MIN_BATCH``."""
    monkeypatch.setattr(batching, "MIN_BATCH", 10**9)
    spec = REGISTRY.get(name)
    a, b = spec.factory(), spec.factory()
    keys = _keys(500, seed=41)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    qs = keys[::7] + [keys[3] + 1]
    assert a._lookup_batch(qs) is None
    assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
    _assert_meters_identical(a, b, name)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_small_batches_below_min_batch_still_match(name, monkeypatch):
    """Shrinking MIN_BATCH forces the vectorized path onto tiny batches
    — coverage for the fast path at sizes the heuristic would skip."""
    monkeypatch.setattr(batching, "MIN_BATCH", 1)
    spec = REGISTRY.get(name)
    a, b = spec.factory(), spec.factory()
    keys = _keys(700, seed=43)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    for qs in ([keys[0]], keys[:2], keys[10:13] + [keys[4] + 1]):
        assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
    _assert_meters_identical(a, b, name)


def _refused_load(index, items):
    """``index`` refuses ``items`` at its door for a key outside the key
    domain, before any state change."""
    counts, serial = list(index.meter._counts.items()), index._node_serial
    with pytest.raises(ValueError, match="outside the key domain") as err:
        index.bulk_load(items)
    assert str(err.value).startswith(f"{index.name}: bulk_load refuses key")
    assert len(index) == 0
    assert index._node_serial == serial
    assert list(index.meter._counts.items()) == counts


def test_huge_keys_fall_back_to_scalar_loop():
    """Keys beyond int64 lie outside the key domain (the id predates
    it, when they took the scalar loop): the door refuses them, and a
    batch holding one is refused by ``batching`` — a bare index call
    trusts its caller, it does not answer from a second path."""
    index = REGISTRY.get("PGM").factory()
    _refused_load(index, [(2**70 + i * 5, i) for i in range(300)])
    keys = _keys(300)
    index.bulk_load([(k, k) for k in keys])
    with pytest.raises(ValueError, match="batching.int64_cache refuses"):
        index.lookup_many(keys[::3] + [2**70])


#: Key ranges against the int64 kernels' subtractions: the key domain,
#: one whose span is just over 2**63, and the full signed range.
KEY_RANGES = {
    "non-negative": (0, 2**63),
    "span-over-2**63": (-2**62, 2**62 + 2**61),
    "full-signed": (-2**63, 2**63),
}


def _ranged(lo, hi, seed=7, n=4000):
    """Items over ``[lo, hi)`` and 800 probes: present keys, then
    draws from the range (all but surely absent)."""
    rng = random.Random(seed)
    keys = sorted({rng.randrange(lo, hi) for _ in range(n)})
    probes = rng.choices(keys, k=600) + [rng.randrange(lo, hi)
                                         for _ in range(200)]
    return [(k, i) for i, k in enumerate(keys)], probes


@pytest.mark.parametrize("span", KEY_RANGES)
@pytest.mark.parametrize("name", BATCH_NAMES)
def test_key_spans_the_kernels_cannot_subtract(name, span):
    """``predict_vec`` takes ``key - anchor`` in int64, which wraps
    once keys on both sides of zero span 2**63 (before the kernels had
    a window, up to 300 of these 800 lookups came back wrong, and
    nothing raised): the two spans that leave the key domain are
    refused at the door, and over the domain every batch is exact."""
    spec, a, b = _pair(name)
    items, probes = _ranged(*KEY_RANGES[span])
    if span != "non-negative":
        _refused_load(a, items)
        return
    a.bulk_load(items)
    b.bulk_load(items)
    assert a.lookup_many(probes) == [b.lookup(k) for k in probes]
    _assert_meters_identical(a, b, f"{name} {span}")
    assert a._lookup_batch(probes) is not None


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_admitted_batch_on_an_index_with_keys_no_array_admits(name):
    """No index can hold keys no array admits: the door refuses the
    span over 2**63 and leaves the index empty, where a batch of keys
    from inside the domain answers like the scalar loop."""
    spec, a, b = _pair(name)
    items, _ = _ranged(*KEY_RANGES["span-over-2**63"])
    _refused_load(a, items)
    probes = [k for k, _ in items if k >= 0][-400:]
    assert a.lookup_many(probes) == [b.lookup(k) for k in probes]
    _assert_meters_identical(a, b, name)


@pytest.mark.parametrize("span", KEY_RANGES)
def test_engine_lookup_runs_over_key_spans(span):
    """The same three ranges through the engine's default lookup runs
    (what ``IndexServer.lookup_many`` calls into as well); the engine
    loads through the door, so the two spans outside the domain are
    refused before the first op."""
    items, probes = _ranged(*KEY_RANGES[span], n=1500)
    wl = Workload(span, items, [Operation(LOOKUP, k) for k in probes])
    for name in ("ALEX", "LIPP", "PGM"):
        make = REGISTRY.get(name).factory
        if span == "non-negative":
            _assert_default_equals_per_op(make, wl, 101, f"{name} {span}")
            continue
        with pytest.raises(ValueError, match="outside the key domain"):
            ExecutionEngine().run(IndexInstance(make()), wl)


def test_registry_supports_batch_flags():
    flagged = {s.name for s in REGISTRY if s.supports_batch}
    assert flagged == {"ALEX", "LIPP", "PGM", "XIndex", "FINEdex",
                       "FITing-Tree", "RMI", "B+tree"}
    # The flag is honest: each flagged index actually vectorizes.
    for name in sorted(flagged):
        ix = REGISTRY.get(name).factory()
        keys = _keys(400, seed=47)
        ix.bulk_load([(k, k) for k in keys])
        assert ix._lookup_batch(keys[:100]) is not None, name
