"""The invariant-checking layer: helpers, observer, and per-index rules.

Two directions are tested.  *Soundness*: after heavy mixed churn every
index validates clean (no false positives — a validator that cries wolf
is worse than none).  *Sensitivity*: for each index family a targeted
structural corruption is injected through internals and the walk must
flag it with the documented rule name.  The corruption tests double as
documentation of what each rule means.
"""

import random

import pytest

from repro import (
    ALEX,
    ART,
    HOT,
    LIPP,
    RMI,
    BPlusTree,
    FINEdex,
    FITingTree,
    Masstree,
    PGMIndex,
    Wormhole,
    XIndex,
    debug_validate,
)
from repro.core.opstream import (
    DifferentialObserver,
    fuzzable_specs,
    generate_stream,
    stress_factory,
)
from repro.core.runner import ExecutionEngine, _implemented
from repro.core.workloads import mixed_workload
from repro.core.validate import (
    ValidationObserver,
    Violation,
    first_inversion,
    range_violation,
    sorted_violations,
)


def _rules(index) -> set:
    return {v.rule for v in index.debug_validate()}


def _items(n, seed=0, lo=0, hi=2**40):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < n:
        keys.add(rng.randrange(lo, hi))
    return [(k, k ^ 0xBEEF) for k in sorted(keys)]


# ---------------------------------------------------------------------------
# Helpers and framework
# ---------------------------------------------------------------------------

class TestHelpers:
    def test_first_inversion(self):
        assert first_inversion([1, 2, 3]) == -1
        assert first_inversion([1, 3, 2]) == 1
        assert first_inversion([2, 2], strict=True) == 0
        assert first_inversion([2, 2], strict=False) == -1
        assert first_inversion([]) == -1

    def test_sorted_violations_reports_position(self):
        out = sorted_violations([1, 5, 3], node_id=7, rule="x.sorted")
        assert len(out) == 1
        assert out[0].node_id == 7
        assert out[0].rule == "x.sorted"
        assert "keys[1]" in out[0].detail

    def test_range_violation_bounds(self):
        assert range_violation([5, 6], 5, 7, 0, "x.range") == []
        assert range_violation([4], 5, None, 0, "x.range")[0].rule == "x.range"
        assert range_violation([7], None, 7, 0, "x.range") != []

    def test_violation_str(self):
        v = Violation(3, "fam.rule", "broken")
        assert "fam.rule" in str(v) and "node 3" in str(v)

    def test_debug_validate_rejects_non_list(self):
        class Bad:
            def debug_validate(self):
                return "oops"

        with pytest.raises(TypeError):
            debug_validate(Bad())


class TestValidationObserver:
    def test_clean_run_records_nothing(self):
        spec = next(s for s in fuzzable_specs() if s.name == "B+tree")
        stream = generate_stream(spec, seed=5, n_ops=200, n_bulk=64)
        obs = ValidationObserver()
        ExecutionEngine(observers=[obs]).run(
            stress_factory("B+tree")(), stream.to_workload())
        assert obs.ok
        assert obs.violations == []

    def test_corruption_attributed_to_smo(self):
        """A bug injected on the Nth insert is pinned near op N."""

        class Broken(BPlusTree):
            def __init__(self):
                super().__init__(fanout=4)
                self._count = 0
                self._corrupted = False

            def insert(self, key, value):
                ok = super().insert(key, value)
                self._count += ok
                if self._count >= 10 and not self._corrupted:
                    # Silently corrupt leaf order right after an insert.
                    node = self._root
                    while hasattr(node, "children"):
                        node = node.children[0]
                    if len(node.keys) >= 2:
                        self._corrupted = True
                        node.keys.reverse()
                        node.values.reverse()
                return ok

        spec = next(s for s in fuzzable_specs() if s.name == "B+tree")
        stream = generate_stream(spec, seed=6, n_ops=300, n_bulk=16)
        obs = ValidationObserver()
        ExecutionEngine(observers=[obs]).run(Broken(), stream.to_workload())
        assert not obs.ok
        rules = {tv.violation.rule for tv in obs.violations}
        assert "btree.keys-sorted" in rules
        # Dedup: the same frozen violation is reported exactly once.
        seen = [tv.violation for tv in obs.violations]
        assert len(seen) == len(set(seen))

    def test_attached_alone_keeps_lookup_runs_batched(self):
        """Observers implement only the hooks they use: the validator
        has no ``on_op``, so a read-only run it watches still resolves
        its lookup runs through ``_lookup_batch``."""
        obs = ValidationObserver()
        assert _implemented([obs], "on_op") == []
        assert _implemented([DifferentialObserver()], "on_smo") == []
        index = BPlusTree()
        asked = []
        batch = index._lookup_batch
        index._lookup_batch = lambda keys: asked.append(keys) or batch(keys)
        keys = [k * 7 for k in range(2000)]
        ExecutionEngine(observers=[obs]).run(
            index, mixed_workload(keys, 0.0, n_ops=3000, seed=1))
        assert asked
        assert obs.ok


# ---------------------------------------------------------------------------
# Soundness: every index validates clean after mixed churn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", fuzzable_specs(), ids=lambda s: s.name)
def test_clean_after_churn(spec):
    idx = stress_factory(spec.name)()
    items = _items(400, seed=21)
    idx.bulk_load(items[:200])
    rng = random.Random(22)
    pending = items[200:]
    rng.shuffle(pending)
    for k, v in pending:
        idx.insert(k, v)
        if spec.supports_delete and rng.random() < 0.3:
            idx.delete(rng.choice(items)[0])
    assert debug_validate(idx) == []


# ---------------------------------------------------------------------------
# Sensitivity: injected corruption fires the documented rule
# ---------------------------------------------------------------------------

class TestCorruptionDetection:
    def test_btree_unsorted_leaf(self):
        idx = BPlusTree(fanout=8)
        idx.bulk_load(_items(200, seed=1))
        node = idx._root
        while hasattr(node, "children"):
            node = node.children[0]
        node.keys[0], node.keys[1] = node.keys[1], node.keys[0]
        assert "btree.keys-sorted" in _rules(idx)

    def test_btree_size_drift(self):
        idx = BPlusTree(fanout=8)
        idx.bulk_load(_items(100, seed=2))
        idx._size += 1
        assert "btree.size" in _rules(idx)

    def test_btree_broken_leaf_chain(self):
        idx = BPlusTree(fanout=4)
        idx.bulk_load(_items(200, seed=3))
        node = idx._root
        while hasattr(node, "children"):
            node = node.children[0]
        node.next = None  # sever the chain after the first leaf
        assert "btree.leaf-chain" in _rules(idx)

    def test_btree_memory_counter_drift(self):
        idx = BPlusTree(fanout=4)
        idx.bulk_load(_items(200, seed=3))
        assert "btree.memory-counters" not in _rules(idx)
        idx._leaf_bytes -= idx._leaf_node_bytes  # a split that forgot its leaf
        assert _rules(idx) == {"btree.memory-counters"}
        idx._leaf_bytes += idx._leaf_node_bytes
        idx._inner_bytes += 16  # a child pointer counted twice
        assert _rules(idx) == {"btree.memory-counters"}

    def test_alex_gap_copy_drift(self):
        from repro.indexes.alex import _InnerNode

        idx = ALEX(target_leaf_keys=64, max_data_keys=512)
        idx.bulk_load(_items(400, seed=4))
        node = idx._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        gap = next(i for i in range(node.capacity) if not node.present[i])
        node.keys[gap] += 1  # no longer the right-neighbour copy
        assert "alex.gap-copy" in _rules(idx)

    def test_alex_present_count_drift(self):
        from repro.indexes.alex import _InnerNode

        idx = ALEX(target_leaf_keys=64, max_data_keys=512)
        idx.bulk_load(_items(400, seed=5))
        node = idx._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        node.num_keys += 1
        assert "alex.present-count" in _rules(idx)

    def test_btree_stale_batch_layout_after_a_split(self):
        idx = BPlusTree(fanout=8)
        items = _items(200, seed=8)
        idx.bulk_load(items)
        idx.lookup_many([k for k, _ in items[::4]])
        stale = idx._batch_cache
        assert stale is not None and not _rules(idx)
        for k, _ in items:
            idx.insert(k + 1, 0)
            if idx.last_op.smo:
                break
        assert idx.last_op.smo and idx._batch_cache is None
        idx._batch_cache = stale  # the split's drop undone
        assert _rules(idx) == {"btree.batch-layout"}

    def test_btree_separator_edit_behind_the_batch_layout(self):
        from repro.indexes.btree import _Inner

        idx = BPlusTree(fanout=8)
        items = _items(200, seed=9)
        idx.bulk_load(items)
        idx.lookup_many([k for k, _ in items[::4]])
        assert idx._batch_cache is not None and not _rules(idx)
        node = idx._root
        while isinstance(node.children[0], _Inner):
            node = node.children[0]
        left, right = node.children[:2]
        assert left.keys[-1] + 1 < right.keys[0]
        node.keys[0] = left.keys[-1] + 1  # still separates the two leaves
        assert _rules(idx) == {"btree.batch-layout"}

    def test_alex_stale_batch_layout_after_an_smo(self):
        idx = ALEX(target_leaf_keys=64, max_data_keys=512)
        items = _items(400, seed=10)
        idx.bulk_load(items)
        idx.lookup_many([k for k, _ in items[::4]])
        stale = idx._batch_cache
        assert stale is not None and not _rules(idx)
        for k, _ in items:
            idx.insert(k + 1, 0)
            if idx.last_op.smo:
                break
        assert idx.last_op.smo and idx._batch_cache is None
        idx._batch_cache = stale  # the SMO's drop undone
        assert _rules(idx) == {"alex.batch-layout"}

    def test_lipp_subtree_size_drift(self):
        idx = LIPP()
        idx.bulk_load(_items(300, seed=6))
        idx._root.size += 1
        rules = _rules(idx)
        assert "lipp.subtree-size" in rules or "lipp.size" in rules

    def test_lipp_memory_counter_drift(self):
        idx = LIPP()
        idx.bulk_load(_items(300, seed=6))
        assert idx.node_count() > 1  # collisions chained child nodes
        idx._n_nodes -= 1  # a collapse counted twice
        assert _rules(idx) == {"lipp.memory-counters"}
        idx._n_nodes += 1
        idx._n_slots += 16  # a rebuild that forgot the old subtree
        assert _rules(idx) == {"lipp.memory-counters"}

    def test_lipp_imprecise_position(self):
        from repro.indexes.lipp import _DATA

        idx = LIPP()
        idx.bulk_load(_items(300, seed=7))
        node = idx._root
        slots = [i for i, t in enumerate(node.tags) if t == _DATA]
        # Move a key to an empty slot its model cannot predict.
        src = slots[0]
        empty = next(i for i, t in enumerate(node.tags) if t == 0)
        node.tags[empty] = _DATA
        node[empty] = node[src]
        node.tags[src] = 0
        node[src] = None
        rules = _rules(idx)
        assert "lipp.precise-position" in rules or "lipp.order" in rules

    def test_art_memory_counter_drift(self):
        idx = ART()
        idx.bulk_load(_items(300, seed=6))
        assert idx.memory_usage().inner > 0
        idx._inner_bytes -= 1  # a prefix cut counted twice
        assert _rules(idx) == {"art.memory-counters"}

    def test_masstree_memory_counter_drift(self):
        idx = Masstree()
        idx.bulk_load(_items(300, seed=6))
        idx._n_borders += 1  # a split counted twice
        assert _rules(idx) == {"mass.memory-counters"}

    def test_pgm_run_order(self):
        idx = PGMIndex(check_duplicates=True)
        idx.bulk_load(_items(300, seed=8))
        run = next(r for r in idx._runs if r is not None and len(r.keys) > 2)
        run.keys[10], run.keys[11] = run.keys[11], run.keys[10]
        assert "pgm.run-sorted" in _rules(idx)

    def test_pgm_level_capacity(self):
        idx = PGMIndex()
        idx.bulk_load(_items(300, seed=8))
        assert idx.run_sizes() == [0, 300] and _rules(idx) == set()
        idx._runs = idx._runs[1:]  # the loaded run back at level 0
        out = idx.debug_validate()
        assert [(v.node_id, v.rule) for v in out] == [
            (0, "pgm.level-capacity")]
        tiered = PGMIndex(merge_policy="tiered")
        tiered.bulk_load(_items(300, seed=8))
        assert tiered.run_sizes() == [300] and _rules(tiered) == set()

    def test_pgm_size_drift(self):
        idx = PGMIndex(check_duplicates=True)
        idx.bulk_load(_items(100, seed=9))
        idx._size -= 1
        assert "pgm.size" in _rules(idx)

    def test_art_prefix_path(self):
        from repro.indexes.art import _ArtNode

        idx = ART()
        idx.bulk_load(_items(200, seed=10, hi=2**48))
        node = idx._root
        assert isinstance(node, _ArtNode)
        while isinstance(node, _ArtNode):
            node = node.children[0]
        node.key ^= 0xFF << 40  # moves the key out of its radix subtree
        assert "art.prefix-path" in _rules(idx)

    def test_hot_min_key_cache(self):
        from repro.indexes.hot import _HotInner

        idx = HOT()
        idx.bulk_load(_items(200, seed=11))
        assert isinstance(idx._root, _HotInner)
        idx._root.min_key += 1
        assert "hot.min-key" in _rules(idx)

    def test_xindex_delta_shadow(self):
        import bisect

        idx = XIndex(delta_size=16, target_group_keys=64)
        idx.bulk_load(_items(300, seed=12))
        g = next(g for g in idx._units if g.keys)
        k = g.keys[len(g.keys) // 2]
        pos = bisect.bisect_left(g.side_keys, k)
        g.side_keys.insert(pos, k)
        g.side_values.insert(pos, 0)
        rules = _rules(idx)
        assert "xindex.delta-shadow" in rules

    def test_finedex_bin_overflow(self):
        idx = FINEdex(bin_capacity=4)
        idx.bulk_load(_items(300, seed=13))
        seg = idx._units[0]
        k0 = seg.keys[0]
        seg.bins[0] = [(k0 + 1 + i, i) for i in range(idx.bin_capacity + 1)]
        assert "finedex.bin-capacity" in _rules(idx)

    def test_fiting_buffer_shadow(self):
        import bisect

        idx = FITingTree(buffer_size=4)
        idx.bulk_load(_items(300, seed=14))
        seg = next(s for s in idx._units if s.keys)
        k = seg.keys[0]
        pos = bisect.bisect_left(seg.side_keys, k)
        seg.side_keys.insert(pos, k)
        seg.side_values.insert(pos, 0)
        assert "fiting.buffer-shadow" in _rules(idx)

    def test_masstree_permutation(self):
        from repro.indexes.masstree import _Interior

        idx = Masstree()
        idx.bulk_load(_items(300, seed=15))
        node = idx._root
        while isinstance(node, _Interior):
            node = node.children[0]
        assert len(node.perm) >= 2
        node.perm.reverse()
        assert "mass.logical-order" in _rules(idx)

    def test_wormhole_anchor_order(self):
        idx = Wormhole()
        idx.bulk_load(_items(400, seed=16))
        assert len(idx._leaves) >= 2
        idx._leaves[1].anchor = idx._leaves[0].anchor
        assert "worm.anchor-order" in _rules(idx)

    def test_rmi_key_order(self):
        idx = RMI()
        idx.bulk_load(_items(200, seed=17))
        idx._keys[5], idx._keys[6] = idx._keys[6], idx._keys[5]
        assert "rmi.keys-sorted" in _rules(idx)


# ---------------------------------------------------------------------------
# The delta-segment family: one corruption per rule
# ---------------------------------------------------------------------------

#: prefix -> factory.  ε = 4 so 300 uniform keys need several units.
_SEGMENTED = {
    "fiting": lambda: FITingTree(epsilon=4, buffer_size=4),
    "finedex": lambda: FINEdex(epsilon=4, bin_capacity=4),
    "xindex": lambda: XIndex(epsilon=4, delta_size=16, target_group_keys=64),
}


def _segmented(prefix, seed=20):
    """A loaded, validate-clean index of the family and its units."""
    idx = _SEGMENTED[prefix]()
    idx.bulk_load(_items(300, seed=seed))
    units = idx._units
    assert len(units) >= 3 and all(len(u.keys) >= 2 for u in units)
    assert idx.debug_validate() == []
    return idx, units


def _first_pivot_nonzero(idx, units):
    units[0].pivot = 1


def _pivot_inversion(idx, units):
    units[2].pivot = units[1].pivot


def _pivot_list_drift(idx, units):
    idx._pivots[1] += 1


def _keys_unsorted(idx, units):
    keys = units[1].keys
    keys[0], keys[1] = keys[1], keys[0]


def _key_below_pivot(idx, units):
    units[1].keys[0] = units[1].pivot - 1


def _key_past_next_pivot(idx, units):
    units[1].keys[-1] = units[2].pivot


def _values_long(idx, units):
    units[1].values.append(0)


def _size_drift(idx, units):
    idx._size += 1


def _model_off(idx, units):
    from repro.indexes.linear_model import LinearModel

    units[1].models[0].model = LinearModel(0.0, 1e9)


_SHARED_CASES = [
    ("pivot-order", _first_pivot_nonzero),
    ("pivot-order", _pivot_inversion),
    ("pivot-sync", _pivot_list_drift),
    ("keys-sorted", _keys_unsorted),
    ("key-range", _key_below_pivot),
    ("key-range", _key_past_next_pivot),
    ("arrays", _values_long),
    ("size", _size_drift),
    ("epsilon", _model_off),
]


class TestSegmentedCorruption:
    """Every rule of the shared validator prelude, per index, then each
    index's own rules."""

    @pytest.mark.parametrize("prefix", sorted(_SEGMENTED))
    @pytest.mark.parametrize(
        "rule, corrupt", _SHARED_CASES,
        ids=[fn.__name__.strip("_") for _, fn in _SHARED_CASES])
    def test_shared_rule(self, prefix, rule, corrupt):
        idx, units = _segmented(prefix)
        corrupt(idx, units)
        assert f"{prefix}.{rule}" in _rules(idx)

    def test_fiting_buffer_bound(self):
        idx, units = _segmented("fiting")
        seg = units[1]
        seg.side_keys = [seg.keys[0] + 1 + i for i in range(idx.buffer_size + 1)]
        seg.side_values = [0] * len(seg.side_keys)
        assert "fiting.buffer-bound" in _rules(idx)

    def test_fiting_router_sync(self):
        idx, units = _segmented("fiting")
        assert idx._router.insert(units[1].pivot + 1, 0)
        assert "fiting.router-sync" in _rules(idx)

    def test_xindex_delta_bound(self):
        idx, units = _segmented("xindex")
        g = units[1]
        g.side_keys = [g.keys[0] + 1 + i for i in range(idx.delta_size)]
        g.side_values = [0] * len(g.side_keys)
        assert "xindex.delta-bound" in _rules(idx)

    def test_xindex_segments(self):
        idx, units = _segmented("xindex")
        units[1].models[0].length -= 1
        assert "xindex.segments" in _rules(idx)

    def test_finedex_bin_position(self):
        idx, units = _segmented("finedex")
        seg = units[1]
        seg.bins[len(seg.keys)] = [(seg.keys[-1] + 1, 0)]
        assert "finedex.bin-position" in _rules(idx)

    def test_finedex_bin_range(self):
        idx, units = _segmented("finedex")
        seg = units[1]
        seg.bins[0] = [(seg.keys[1] + 1, 0)]
        assert "finedex.bin-range" in _rules(idx)

    def test_finedex_bin_count(self):
        idx, units = _segmented("finedex")
        units[1].bin_entries += 1
        assert "finedex.bin-count" in _rules(idx)

    def test_finedex_lost_value_is_reported_not_raised(self):
        """The merged-order walk pairs keys with values; a short value
        array must come back as a violation, not an ``IndexError``."""
        idx, units = _segmented("finedex")
        units[1].values.pop()
        assert "finedex.arrays" in _rules(idx)

    def test_finedex_order(self):
        idx, units = _segmented("finedex")
        seg = units[1]
        seg.bins[0] = [(seg.keys[0], 0)]
        assert "finedex.order" in _rules(idx)
