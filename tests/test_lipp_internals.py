"""LIPP internals: FMCD placement, rebuild triggers, node accounting."""

import gc
import random

from repro.datasets import registry as datasets
from repro.indexes.lipp import LIPP, _CHILD, _DATA


def test_bulk_build_groups_collisions_into_children():
    idx = LIPP()
    # Three tight clusters force multi-key slots at the root.
    keys = sorted(set(
        [c * 2**40 + o for c in (1, 2, 3) for o in range(0, 600, 3)]
    ))
    idx.bulk_load([(k, k) for k in keys])
    root = idx._root
    assert root.size == len(keys)
    # Subtree sizes bookkeeping: children sizes + root data = total.
    total = 0
    for s in range(root.capacity):
        if root.tags[s] == _DATA:
            total += 1
        elif root.tags[s] == _CHILD:
            total += root[s].size
    assert total == len(keys)


def test_insert_updates_subtree_sizes_consistently():
    idx = LIPP(min_rebuild_size=10**9)
    idx.bulk_load([(i * 1000, i) for i in range(200)])
    rng = random.Random(1)
    for _ in range(400):
        idx.insert(rng.randrange(200_000), 0)
    assert idx._root.size == len(idx)


def test_rebuild_resets_counters():
    idx = LIPP(min_rebuild_size=32)
    idx.bulk_load([(i * 100, i) for i in range(64)])
    before = idx.rebuild_count
    for i in range(500):
        idx.insert(i * 100 + 7, i)
    assert idx.rebuild_count > before
    # After the latest rebuild, the root's counters restart from its
    # build snapshot.
    root = idx._root
    assert root.num_inserts <= root.size


def test_grown_trigger_rebuilds_at_double_size():
    idx = LIPP(min_rebuild_size=64, conflict_ratio=10.0)  # disable conflict path
    idx.bulk_load([(i * 50, i) for i in range(100)])
    for i in range(300):
        idx.insert(i * 50 + 13, i)
    # 300 inserts >= 2 x 100 build size: the grown trigger must fire.
    assert idx.rebuild_count >= 1


def test_delete_leaves_models_untouched():
    idx = LIPP()
    keys = [i * 37 for i in range(1000)]
    idx.bulk_load([(k, k) for k in keys])
    slope_before = idx._root.slope
    for k in keys[::2]:
        assert idx.delete(k)
    assert idx._root.slope == slope_before  # no pollution (M8)
    for k in keys[1::2][:20]:
        assert idx.lookup(k) == k


def test_empty_slots_after_delete_are_reusable():
    idx = LIPP()
    idx.bulk_load([(i * 10, i) for i in range(500)])
    for i in range(0, 500, 2):
        idx.delete(i * 10)
    inserted = 0
    for i in range(0, 500, 2):
        assert idx.insert(i * 10 + 1, i)
        inserted += 1
    assert len(idx) == 250 + inserted


def test_node_count_matches_walk():
    idx = LIPP()
    rng = random.Random(9)
    keys = sorted(rng.sample(range(2**32), 1500))
    idx.bulk_load([(k, k) for k in keys])
    for _ in range(800):
        idx.insert(rng.randrange(2**32), 0)
    # node_count walks the structure; cross-check with a manual walk.
    count = 0
    stack = [idx._root]
    while stack:
        n = stack.pop()
        count += 1
        for s in range(n.capacity):
            if n.tags[s] == _CHILD:
                stack.append(n[s])
    assert count == idx.node_count()


def test_update_touches_no_stats():
    idx = LIPP()
    idx.bulk_load([(i * 5, i) for i in range(300)])
    inserts_before = idx._root.num_inserts
    for i in range(100):
        assert idx.update(i * 5, i + 1000)
    assert idx._root.num_inserts == inserts_before  # YCSB scaling basis


def _end_tag(index, key):
    """The tag of the slot ``key`` predicts at the end of its path."""
    node = index._root
    while True:
        s = node.predict_clamped(key, len(node))
        if node.tags[s] != _CHILD:
            return node.tags[s]
        node = node[s]


def _tracked():
    return len(gc.get_objects())


def test_one_tracked_object_per_node():
    """A LIPP node is one object the collector tracks: its slot list,
    which holds its model and its ``tags`` (a ``bytearray``, untracked).
    With the collector paused, a load of 20k osm keys adds exactly its
    ``_n_nodes`` objects less the constant it drops (the tree of the
    2k-key load before it), nothing else that stays; an insert into an empty slot adds its entry's tuple, and one
    that collides that tuple and the one chained node; ``_build_pair``
    adds its node.  Nodes compare and hash by identity, not by slots."""
    keys = datasets.get("osm").generate(20_000, seed=1)
    items = [(k, k) for k in keys]
    held = set(keys)
    fresh = [k for k in ((a + b) // 2 for a, b in zip(keys, keys[1:]))
             if k not in held]
    index = LIPP()

    def grows(tag):
        key = next(k for k in fresh if _end_tag(index, k) == tag)
        fresh.remove(key)
        before = _tracked()
        index.insert(key, key)
        record = index.last_op
        return _tracked() - before, record.nodes_created, record.smo

    gc.collect()
    gc.disable()
    try:
        index.bulk_load(items[:2_000])  # the meter's counters exist
        dropped = index._n_nodes
        before = _tracked()
        index.bulk_load(items)
        loaded, built = _tracked() - before, index._n_nodes
        # The first two warm the insert path's counters and record.
        inserts = [grows(tag) for tag in (0, _DATA) * 3][2:]
        before = _tracked()
        pair = index._build_pair((1, 1), (2**40, 2))  # held, not freed
        paired = _tracked() - before
    finally:
        gc.enable()
    assert loaded == built - dropped
    assert inserts == [(1, 0, False), (2, 1, False)] * 2
    assert (paired, len(pair)) == (1, 16)
    a, b = LIPP()._root, LIPP()._root
    assert list(a) == list(b) and a.tags == b.tags
    assert a != b and not a == b and a == a
    assert len({a, b, a}) == 2
