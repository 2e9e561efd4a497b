"""ALEX internals: SMO machinery, placement, cost-model decisions."""

import random

from repro.indexes.alex import ALEX, _DataNode, _GAP_HIGH, _InnerNode
from repro.indexes.linear_model import LinearModel


def _leaf_of(idx, key):
    node, _ = idx._descend(key)
    return node


def test_model_place_keeps_order_and_fits():
    node = _DataNode(1)
    cap = 20
    node.keys = [_GAP_HIGH] * cap
    node.values = [None] * cap
    node.present = bytearray(cap)
    # A model that predicts everything at slot 18: tail compaction must
    # still place all 10 items at distinct, ordered slots.
    node.model = LinearModel(0.0, 18.0)
    items = [(i * 5, i) for i in range(10)]
    ALEX._model_place(node, items)
    placed = [i for i in range(cap) if node.present[i]]
    assert len(placed) == 10
    assert [node.keys[i] for i in placed] == [k for k, _ in items]
    assert placed[-1] == cap - 1  # compacted against the tail


def test_fill_gaps_right_copy_invariant():
    node = _DataNode(1)
    node.keys = [_GAP_HIGH] * 8
    node.values = [None] * 8
    node.present = bytearray(8)
    for slot, key in ((1, 10), (4, 40), (6, 60)):
        node.keys[slot] = key
        node.present[slot] = 1
    ALEX._fill_gaps(node)
    assert node.keys == [10, 10, 40, 40, 40, 60, 60, _GAP_HIGH]
    assert node.keys == sorted(node.keys)


def test_expand_triggered_before_split_on_accurate_model():
    """Uniform data keeps the model accurate: density SMOs should
    expand, not split."""
    idx = ALEX(target_leaf_keys=4096, max_data_keys=1 << 20)
    idx.bulk_load([(i * 100, i) for i in range(256)])
    for i in range(256):
        idx.insert(i * 100 + 50, i)
    assert idx.expand_count > 0
    assert idx.split_count == 0


def test_split_triggered_by_node_size_cap():
    idx = ALEX(target_leaf_keys=64, max_data_keys=128)
    idx.bulk_load([(i * 10, i) for i in range(100)])
    for i in range(400):
        idx.insert(i * 10 + 3, i)
    assert idx.split_count > 0
    for node in idx.data_nodes():
        assert node.num_keys <= 256


def test_fanout_doubling_preserves_routing():
    idx = ALEX(target_leaf_keys=32, max_data_keys=64, max_fanout=1 << 10)
    idx.bulk_load([(i, i) for i in range(0, 2000, 10)])
    rng = random.Random(2)
    for _ in range(1500):
        idx.insert(rng.randrange(2000), 0)
    # Whatever restructuring happened, routing must still be exact.
    for k in range(0, 2000, 10):
        assert idx.lookup(k) is not None


def test_leaf_chain_consistent_after_splits():
    idx = ALEX(target_leaf_keys=32, max_data_keys=64)
    idx.bulk_load([])
    rng = random.Random(4)
    keys = rng.sample(range(100000), 2000)
    for k in keys:
        idx.insert(k, k)
    # Walk the leaf chain: strictly ascending, covers everything.
    leaves = idx.data_nodes()
    head = [n for n in leaves if n.prev is None]
    assert len(head) == 1
    node = head[0]
    seen = []
    while node is not None:
        seen.extend(k for i, k in enumerate(node.keys) if node.present[i])
        node = node.next
    assert seen == sorted(keys)


def test_slot_boundary_key_inverse():
    idx = ALEX()
    model = LinearModel(0.5, 0.0, 1000)  # slot = 0.5*(k-1000)
    inner = _InnerNode(1, model, [None] * 8)
    b = idx._slot_boundary_key(inner, 4)
    assert model.predict_clamped(b, 8) == 4
    assert model.predict_clamped(b - 1, 8) == 3


def test_density_stats_reset_after_expand():
    idx = ALEX(target_leaf_keys=4096, max_data_keys=1 << 20)
    idx.bulk_load([(i * 7, i) for i in range(300)])
    node = idx.data_nodes()[0]
    node.shifts_since_build = 999
    idx._expand(node)
    assert node.inserts_since_build == 0
    assert node.shifts_since_build == 0


def test_smo_counter_accounting():
    idx = ALEX(target_leaf_keys=64, max_data_keys=256)
    idx.bulk_load([(i * 3, i) for i in range(200)])
    for i in range(1000):
        idx.insert(i * 3 + 1, i)
    assert idx.smo_count == idx.expand_count + idx.split_count + (
        idx.smo_count - idx.expand_count - idx.split_count
    )
    assert idx.smo_count > 0


def test_lookup_hint_accuracy_on_uniform_data():
    """Uniform data + model placement: tiny last-mile distances."""
    idx = ALEX()
    rng = random.Random(6)
    keys = sorted(rng.sample(range(2**32), 3000))
    idx.bulk_load([(k, k) for k in keys])
    total_probes = 0
    for k in keys[::29]:
        idx.lookup(k)
        total_probes += idx.last_op.search_distance
    assert total_probes / len(keys[::29]) < 10
