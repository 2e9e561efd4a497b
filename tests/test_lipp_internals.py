"""LIPP internals: FMCD placement, rebuild triggers, node accounting."""

import random

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
            total += root.items[s].size
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
    slope_before = idx._root.model.slope
    for k in keys[::2]:
        assert idx.delete(k)
    assert idx._root.model.slope == slope_before  # no pollution (M8)
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
                stack.append(n.items[s])
    assert count == idx.node_count()


def test_update_touches_no_stats():
    idx = LIPP()
    idx.bulk_load([(i * 5, i) for i in range(300)])
    inserts_before = idx._root.num_inserts
    for i in range(100):
        assert idx.update(i * 5, i + 1000)
    assert idx._root.num_inserts == inserts_before  # YCSB scaling basis
