"""The array bulk builds of ALEX and LIPP against the scalar builders.

``bulk_load`` (and LIPP's adjust SMOs) build from one int64 array of the
keys when there are enough of them and ``batching`` admits them; the
scalar recursive builders are what every other input takes and the
reference here.  The contract is bit-identity — tree, slot lists, models,
node ids, ``_node_serial``, meter counters *and their order*,
``memory_usage()`` — so the selection can never show in a result
fingerprint, a charge table or a replayed corpus stream.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opstream import generate_stream, run_oracle
from repro.core.registry import REGISTRY
from repro.core.shard import ShardedIndex
from repro.core.workloads import apply_op, payload
from repro.datasets import registry as datasets
from repro.indexes import alex, batching, lipp
from repro.indexes.alex import ALEX, _DataNode
from repro.indexes.btree import BPlusTree
from repro.indexes.linear_model import LinearModel
from repro.indexes.lipp import LIPP, _LippNode

INT64_MAX = 2**63 - 1
SORTED_MSG = "bulk_load requires items sorted by key"
UNIQUE_MSG = "bulk_load requires strictly ascending unique keys"


# ---------------------------------------------------------------------------
# Which builder runs, and what a build leaves behind
# ---------------------------------------------------------------------------

@contextmanager
def build_threshold(n):
    """Both modules' ``_ARRAY_BUILD_MIN`` at ``n``: ``sys.maxsize``
    leaves only the scalar builders, 2 sends everything the array
    builders can take (two keys at least) their way."""
    with mock.patch.object(alex, "_ARRAY_BUILD_MIN", n), \
            mock.patch.object(lipp, "_ARRAY_BUILD_MIN", n):
        yield


@contextmanager
def counting_array_builds():
    """Calls into the two array entry points, by name."""
    calls = {"ALEX": 0, "LIPP": 0}

    def spy(cls, attr):
        inner = getattr(cls, attr)

        def counted(self, *args):
            calls[cls.name] += 1
            return inner(self, *args)

        return mock.patch.object(cls, attr, counted)

    with spy(ALEX, "_bulk_build_arrays"), spy(LIPP, "_build_levels"):
        yield calls


def _model(m):
    return (m.slope.hex(), m.intercept.hex(), m.anchor)


def dump(index):
    """Everything a build decides, node by node in key order; child
    pointers as the child's id."""
    out = []

    def walk_alex(node):
        if isinstance(node, _DataNode):
            out.append((node.node_id, _model(node.model), node.keys,
                        # Duplicate chains compare by identity: open them.
                        [v.values if isinstance(v, alex._DupChain) else v
                         for v in node.values],
                        node.present, node.num_keys,
                        node.prev and node.prev.node_id,
                        node.next and node.next.node_id))
            return
        out.append((node.node_id, _model(node.model),
                    [c.node_id for c in node.children]))
        last = None
        for child in node.children:
            if child is not last:
                walk_alex(child)
            last = child

    def walk_lipp(node):
        out.append((node.node_id, _model(node), node.tags,
                    [v.node_id if isinstance(v, _LippNode) else v
                     for v in node],
                    node.size, node.build_size, node.num_inserts,
                    node.num_conflicts))
        for tag, value in zip(node.tags, node):
            if isinstance(value, _LippNode):
                assert tag == lipp._CHILD
                walk_lipp(value)

    (walk_lipp if isinstance(index, LIPP) else walk_alex)(index._root)
    return out


def stored_keys(index):
    """The key object in every occupied slot, in key order."""
    out = []

    def walk(node):
        if isinstance(node, _DataNode):
            out.extend(k for k, p in zip(node.keys, node.present) if p)
        elif isinstance(node, _LippNode):
            for tag, item in zip(node.tags, node):
                if tag == lipp._DATA:
                    out.append(item[0])
                elif tag == lipp._CHILD:
                    walk(item)
        else:
            last = None
            for child in node.children:
                if child is not last:
                    walk(child)
                last = child

    walk(index._root)
    return out


def assert_same_build(make, items, label=""):
    """``make().bulk_load(items)`` with the array builders on every
    input they can take, and with the scalar builders alone."""
    with build_threshold(2), counting_array_builds() as calls:
        a = make()
        a.bulk_load(items)
    with build_threshold(sys.maxsize):
        b = make()
        b.bulk_load(items)
    assert dump(a) == dump(b), label
    assert a._node_serial == b._node_serial, label
    assert list(a.meter._counts.items()) == list(b.meter._counts.items()), label
    assert a.memory_usage() == b.memory_usage(), label
    assert len(a) == len(b) == len(items), label
    assert a.debug_validate() == [], label
    # The nodes hold the caller's key objects, not equal copies.
    given_keys = {id(k) for k, _ in items}
    assert all(id(k) in given_keys for k in stored_keys(a)), label
    return a, b, calls[a.name]


# ---------------------------------------------------------------------------
# Key sets
# ---------------------------------------------------------------------------

@st.composite
def key_sets(draw, max_size=500):
    """Sorted unique non-negative int64 keys of the shapes that have
    broken model-based layouts: neighbours one apart above 2**53 (float
    collisions), dense runs that pile onto one slot beside sparse keys,
    one fb-style outlier, and plain uniform draws."""
    shape = draw(st.sampled_from(("uniform", "dense", "runs", "outlier")))
    n = draw(st.integers(0, max_size))
    if shape == "uniform":
        keys = draw(st.sets(st.integers(0, INT64_MAX), max_size=max_size))
    elif shape == "dense":
        base = draw(st.integers(2**53, INT64_MAX - max_size))
        keys = range(base, base + n)
    elif shape == "runs":
        keys = set(draw(st.sets(st.integers(0, 2**40), max_size=40)))
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, 2**62))
            step = draw(st.integers(1, 3))
            keys.update(range(start, start + step * (n // 4), step))
    else:
        base = draw(st.integers(0, 2**30))
        keys = set(range(base, base + 2 * n, 2))
        keys.add(INT64_MAX - draw(st.integers(0, 5)))
    return sorted(keys)


ALEX_CONFIGS = (
    {},
    {"target_leaf_keys": 64, "max_data_keys": 512},  # the fuzzer's
    {"target_leaf_keys": 32, "max_fanout": 4},
    {"target_leaf_keys": 32, "max_fanout": 1},  # every inner a median split
    {"density_bounds": (0.15, 0.2, 0.25)},  # ALEX-M
)
LIPP_CONFIGS = (
    {},
    {"max_node_slots": 64},  # capacity capped: deep collision chains
    {"density": 0.8},
)


@settings(max_examples=60, deadline=None)
@given(keys=key_sets(), config=st.sampled_from(LIPP_CONFIGS))
def test_lipp_array_build_equals_scalar_build(keys, config):
    items = [(k, (i, k)) for i, k in enumerate(keys)]  # tuple payloads: opaque
    _, _, calls = assert_same_build(lambda: LIPP(**config), items)
    assert calls == (len(keys) >= 2)


@settings(max_examples=60, deadline=None)
@given(keys=key_sets(), config=st.sampled_from(ALEX_CONFIGS),
       mode=st.sampled_from((None, "inline", "linked_list")),
       repeats=st.lists(st.integers(0, 10**6), max_size=60))
def test_alex_array_build_equals_scalar_build(keys, config, mode, repeats):
    if mode is not None and keys:
        # Duplicates anywhere, runs of them included.
        keys = sorted(keys + [keys[r % len(keys)] for r in repeats])
    items = [(k, [i]) for i, k in enumerate(keys)]  # list payloads: opaque
    _, _, calls = assert_same_build(
        lambda: ALEX(duplicate_mode=mode, **config), items)
    assert (calls > 0) == (len(keys) >= 2)


@pytest.mark.parametrize("mode", ["inline", "linked_list"])
def test_alex_runs_of_one_key_longer_than_a_leaf(mode):
    """Inline, no model partitions copies of one key: the run stays one
    big leaf (trained on a zero spread) wherever it sits among other
    keys; chained, it is one slot."""
    for keys in ([7] * 300,
                 [7] * 300 + list(range(8, 400)),
                 list(range(300)) + [300] * 200 + [10**9]):
        items = [(k, i) for i, k in enumerate(keys)]
        for config in ALEX_CONFIGS:
            assert_same_build(
                lambda: ALEX(duplicate_mode=mode, **config), items,
                f"{mode} {config} {len(keys)} keys")


@pytest.mark.parametrize("make", [ALEX, LIPP], ids=lambda c: c.name)
def test_sizes_around_the_shipped_thresholds(make):
    """0, 1, 2 and threshold - 1 items build scalar, threshold and
    threshold + 1 by arrays — the same tree on both sides of the line
    (the array side forced down to two keys for the comparison)."""
    threshold = sys.modules[make.__module__]._ARRAY_BUILD_MIN
    rng = random.Random(3)
    for n in (0, 1, 2, threshold - 1, threshold, threshold + 1):
        items = [(k, payload(k))
                 for k in sorted(rng.sample(range(2**40), n))]
        assert_same_build(make, items, f"{make.name} n={n}")
        with counting_array_builds() as calls:
            make().bulk_load(items)
        assert calls[make.name] == (n >= threshold), f"{make.name} n={n}"


@pytest.mark.parametrize("keys", [
    [2**63 + 5 * i for i in range(400)],              # above int64
    [2**63 - 200 + i for i in range(400)],            # straddling its top
    [-2**62 + i * 2**52 for i in range(2049)],        # span of 2**63
    sorted({random.Random(5 + i).randrange(-2**63, 2**64)
            for i in range(600)}),
    [i - 200 for i in range(400)],                    # a few below zero
], ids=["above-int64", "across-int64-max", "span-2**63", "signed-and-huge",
        "below-zero"])
@pytest.mark.parametrize("make", [ALEX, LIPP], ids=lambda c: c.name)
def test_keys_the_kernels_cannot_subtract_build_scalar(make, keys):
    """Keys outside ``[0, 2**63)`` once took the scalar builders (the id
    keeps that name); now the door refuses them under either builder's
    threshold, with the domain in the message and nothing built."""
    items = [(k, payload(k)) for k in keys]
    for threshold in (2, sys.maxsize):
        with build_threshold(threshold), counting_array_builds() as calls:
            _refused(make, items, "refuses key .*: outside the key domain "
                                  r"\[0, 2\*\*63\)")
        assert calls[make.name] == 0


@pytest.mark.parametrize("make", [ALEX, LIPP], ids=lambda c: c.name)
def test_without_numpy_everything_builds_scalar(make):
    """No key array, no array build (the id keeps its name): an
    ``_ARRAY_BUILD_MIN`` above the input sends a load to the scalar
    builder, which builds what the arrays do."""
    rng = random.Random(9)
    items = [(k, payload(k)) for k in sorted(rng.sample(range(2**50), 1500))]
    want = make()
    want.bulk_load(items)
    with build_threshold(sys.maxsize), counting_array_builds() as calls:
        b = make()
        b.bulk_load(items)
    assert calls[make.name] == 0
    assert dump(b) == dump(want)
    assert list(b.meter._counts.items()) == list(want.meter._counts.items())


def test_lipp_batches_cut_a_level_anywhere():
    """The level passes take ``_BUILD_BATCH_SLOTS`` at a time; a batch
    of one node per pass and one of the whole level build the same
    tree."""
    rng = random.Random(11)
    items = [(k, payload(k)) for k in sorted(rng.sample(range(2**34), 6000))]
    dumps = []
    for slots in (1, 50, 1000, 1 << 30):
        with mock.patch.object(lipp, "_BUILD_BATCH_SLOTS", slots):
            index = LIPP()
            index.bulk_load(items)
        assert index.debug_validate() == []
        dumps.append((dump(index), index._node_serial))
    assert all(d == dumps[0] for d in dumps)
    assert_same_build(LIPP, items)


@settings(max_examples=200, deadline=None)
@given(keys=key_sets(max_size=700))
def test_train_array_equals_train(keys):
    if len(keys) < 2:
        return
    ks = batching._np.asarray(keys, dtype=batching._np.int64)
    assert _model(LinearModel.train_array(ks, keys[0])) == \
        _model(LinearModel.train(keys))


def test_train_array_where_the_int64_sum_of_keys_would_wrap():
    rng = random.Random(13)
    for n in (3, 200, 600):
        keys = sorted({rng.randrange(2**62, 2**63) for _ in range(n - 2)}
                      | {0, INT64_MAX})
        ks = batching._np.asarray(keys, dtype=batching._np.int64)
        assert int((ks - ks[0]).sum()) != sum(keys)  # it does wrap
        assert _model(LinearModel.train_array(ks, keys[0])) == \
            _model(LinearModel.train(keys))


# ---------------------------------------------------------------------------
# What comes after a build
# ---------------------------------------------------------------------------

STREAMS = {
    "ALEX": (lambda: ALEX(), 4000),
    "ALEX-stress": (lambda: ALEX(target_leaf_keys=64, max_data_keys=512), 1500),
    "LIPP": (lambda: LIPP(), 2500),
}


@pytest.mark.parametrize("label", STREAMS)
def test_streams_after_either_build_land_on_the_same_records(label):
    """One fuzzer stream per index on top of each build: every later
    op — inserts into the laid-out gaps, expands, splits, LIPP's adjust
    SMOs (which rebuild through the same selection) — returns, records
    and charges the same, and the oracle finds nothing."""
    make, n_bulk = STREAMS[label]
    stream = generate_stream(REGISTRY.get(make().name), seed=20,
                             n_ops=3000, n_bulk=n_bulk)
    items = stream.to_workload().bulk_items
    traces = []
    for threshold in (None, sys.maxsize):
        with (build_threshold(threshold) if threshold else nullcontext()), \
                counting_array_builds() as calls:
            index = make()
            index.bulk_load(items)
            trace = []
            for op in stream.ops:
                ok, _, result = apply_op(index, op)
                trace.append((ok, result, index.last_op,
                              index.meter.total_time()))
        assert (calls[index.name] > 0) == (threshold is None)
        assert index.debug_validate() == []
        traces.append((trace, dump(index), index._node_serial,
                       list(index.meter._counts.items())))
    assert traces[0] == traces[1]
    assert run_oracle(make, stream).ok


# ---------------------------------------------------------------------------
# The door: OrderedIndex.bulk_load's input check
# ---------------------------------------------------------------------------

def _pairs(keys):
    return [(k, None) for k in keys]


#: Every index the door admits loads for: the registry, ALEX's two
#: duplicate modes and a sharded B+tree, whose shards load through
#: their own doors.
DOOR_INPUTS = {
    **{spec.name: spec.factory for spec in REGISTRY},
    "ALEX-inline": lambda: ALEX(duplicate_mode="inline"),
    "ALEX-linked-list": lambda: ALEX(duplicate_mode="linked_list"),
    "Sharded-B+tree": lambda: ShardedIndex("B+tree", 3),
}


def _refused(make, items, message):
    """Load ``items`` into a fresh index, which must refuse them with
    ``message`` after its own name and before any state change."""
    index = make()
    before = list(index.meter._table().items())
    serial = index._node_serial
    with pytest.raises(ValueError, match=message) as err:
        index.bulk_load(items)
    assert str(err.value).startswith(index.name)
    assert len(index) == 0
    assert list(index.meter._table().items()) == before
    assert index._node_serial == serial


@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_the_door_finds_a_violation_at_any_pair(n):
    """A swapped pair anywhere is refused on the list path (B+tree) and,
    at 1000 keys, the array path (ALEX); an equal pair only where the
    index cannot hold duplicates."""
    keys = list(range(0, 2 * n, 2))
    for at in {0, (n - 2) // 2, n - 2}:  # first, a middle, the last pair
        swapped = list(keys)
        swapped[at], swapped[at + 1] = swapped[at + 1], swapped[at]
        equal = list(keys)
        equal[at + 1] = equal[at]
        for make in (BPlusTree, ALEX):
            _refused(make, _pairs(swapped), UNIQUE_MSG)
            _refused(make, _pairs(equal), UNIQUE_MSG)
        _refused(DOOR_INPUTS["ALEX-inline"], _pairs(swapped), SORTED_MSG)
        DOOR_INPUTS["ALEX-inline"]().bulk_load(_pairs(equal))
    for make in (BPlusTree, ALEX):
        with counting_array_builds() as calls:
            index = make()
            index.bulk_load(_pairs(keys))
        assert len(index) == n
        assert (calls["ALEX"] > 0) == (make is ALEX
                                       and n >= alex._ARRAY_BUILD_MIN)


def test_the_door_accepts_nothing_and_one_item():
    for make in DOOR_INPUTS.values():
        for items in ([], [(7, None)], ()):
            index = make()
            index.bulk_load(items)
            assert len(index) == len(items)


@pytest.mark.parametrize("label", DOOR_INPUTS)
def test_array_sized_loads_check_their_input_the_same(label):
    """On both sides of the array threshold (ALEX 64, LIPP 256): a
    swapped pair, an equal pair the index cannot hold, and a first key
    of -1 or a last key of 2**63 (outside the key domain) are refused
    with the index's name, nothing charged, no node id drawn and ``len``
    0; an index that holds duplicates loads the equal pair sound."""
    make = DOOR_INPUTS[label]
    dup_ok = make().supports_duplicates
    for n in (200, 2000):
        keys = list(range(10, 10 + 3 * n, 3))
        _refused(make, _pairs([-1] + keys[1:]), "refuses key -1: outside")
        _refused(make, _pairs(keys[:-1] + [2**63]),
                 f"refuses key {2**63}: outside")
        for at in (0, n // 2, n - 2):
            swapped = list(keys)
            swapped[at], swapped[at + 1] = swapped[at + 1], swapped[at]
            equal = list(keys)
            equal[at + 1] = equal[at]
            _refused(make, _pairs(swapped), SORTED_MSG if dup_ok else UNIQUE_MSG)
            if not dup_ok:
                _refused(make, _pairs(equal), UNIQUE_MSG)
                continue
            index = make()
            index.bulk_load(_pairs(equal))
            assert len(index) == n and index.debug_validate() == []


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _peak_of_bulk_load(make, items):
    index = make()
    gc.collect()
    tracemalloc.start()
    try:
        index.bulk_load(items)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [ALEX, LIPP], ids=lambda c: c.name)
def test_array_build_peak_memory_stays_near_the_scalar_builds(make):
    """What a build holds beside the tree it is building is what moves
    a benchmark's peak RSS: a whole LIPP level in arrays (and minted
    ints from ``tolist()``) once cost 1.7x the finished index against
    the scalar build's 1.1x.  100k osm keys, traced peak during
    ``bulk_load``: the array build may use 1.15x the scalar build's."""
    keys = datasets.get("osm").generate(100_000, seed=1)
    items = [(k, payload(k)) for k in keys]
    array = _peak_of_bulk_load(make, items)
    with build_threshold(sys.maxsize):
        scalar = _peak_of_bulk_load(make, items)
    assert array <= 1.15 * scalar, (
        f"{make.name}: array build peaked at {array / 1e6:.1f} MB, "
        f"scalar at {scalar / 1e6:.1f} MB")


def _lipp_nodes(index):
    stack = [index._root]
    while stack:
        node = stack.pop()
        yield node
        stack += [item for tag, item in zip(node.tags, node)
                  if tag == lipp._CHILD]


def _column_bytes_per_slot(index):
    """The slot columns a build leaves, per slot: LIPP's ``tags``
    (``sys.getsizeof``, header included) and the one pointer per slot
    of the node's own list, ALEX's ``present``."""
    size = slots = 0
    if isinstance(index, LIPP):
        for node in _lipp_nodes(index):
            size += sys.getsizeof(node.tags) + 8 * len(node)
            slots += len(node)
    else:
        for leaf in index.data_nodes():
            size += sys.getsizeof(leaf.present)
            slots += leaf.capacity
    return size / slots


#: ``sys.getsizeof`` per key of every LIPP node, its ``LinearModel``,
#: its ``items`` list and its ``tags`` when a node was those three
#: objects beside its tags, on the loads of the test below.
_THREE_OBJECT_BYTES_PER_KEY = {
    ("covid", 2_000): 94.7, ("covid", 20_000): 92.5,
    ("osm", 2_000): 145.2, ("osm", 20_000): 129.6,
}


@pytest.mark.parametrize("n", [2_000, 20_000])
@pytest.mark.parametrize("dataset", ["covid", "osm"])
def test_node_columns_bytes_per_slot(dataset, n):
    """A LIPP slot is a tag byte and an item pointer, an ALEX presence
    flag one byte: 10.6-11.1 and 1.1-1.4 B per slot on these loads,
    where the list columns they replaced took 29.3-30.3 (``tags``,
    ``keys``, ``values``) and 8.1-8.3 (``present``).  A LIPP node is
    one object beside its tags: the two together take 77.9-123.0 B per
    key here, at most 0.9x what the three-object node did."""
    keys = datasets.get(dataset).generate(n, seed=1)
    items = [(k, payload(k)) for k in keys]
    for make, bound in ((LIPP, 15.0), (ALEX, 2.0)):
        index = make()
        index.bulk_load(items)
        got = _column_bytes_per_slot(index)
        assert got <= bound, f"{make.name}: {got:.2f} B per slot"
        if make is LIPP:
            per_key = sum(sys.getsizeof(node) + sys.getsizeof(node.tags)
                          for node in _lipp_nodes(index)) / n
            limit = 0.9 * _THREE_OBJECT_BYTES_PER_KEY[dataset, n]
            assert per_key <= limit, f"LIPP: {per_key:.1f} B per key"
