"""B+-tree: contract conformance plus structure-specific tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.btree import BPlusTree
from tests.index_contract import IndexContract


class TestBPlusTreeContract(IndexContract):
    def make(self) -> BPlusTree:
        return BPlusTree(fanout=16)


class TestBPlusTreeWideContract(IndexContract):
    """Same contract at STX-like fanout to exercise different splits."""

    def make(self) -> BPlusTree:
        return BPlusTree(fanout=64)


def test_height_grows_logarithmically():
    idx = BPlusTree(fanout=8)
    idx.bulk_load([(i, i) for i in range(4096)])
    assert 3 <= idx.height <= 6


def test_split_keeps_leaf_chain_intact():
    idx = BPlusTree(fanout=8)
    idx.bulk_load([])
    keys = list(range(0, 2000, 2))
    random.Random(1).shuffle(keys)
    for k in keys:
        idx.insert(k, k)
    scan = idx.range_scan(0, 1000)
    assert [k for k, _ in scan] == list(range(0, 2000, 2))


def test_delete_shrinks_tree_height():
    idx = BPlusTree(fanout=8)
    idx.bulk_load([(i, i) for i in range(2000)])
    h = idx.height
    for i in range(1990):
        assert idx.delete(i)
    assert idx.height < h
    for i in range(1990, 2000):
        assert idx.lookup(i) == i


def test_bulk_load_leaves_no_single_child_tail():
    # 37 keys at fanout 4 pack into 13 leaves: grouped by 3, the 13th
    # used to sit alone under its own inner node, with no sibling to
    # borrow from or merge with once a delete emptied it.
    idx = BPlusTree(fanout=4)
    idx.bulk_load([(k, k) for k in range(37)])
    assert idx.delete(36)
    assert idx.debug_validate() == []
    for k in range(36):
        assert idx.delete(k)
        assert idx.debug_validate() == []
    assert len(idx) == 0


def test_insert_records_shift_counts():
    idx = BPlusTree(fanout=32)
    idx.bulk_load([(i * 2, i) for i in range(100)])
    idx.insert(1, 0)  # lands at front of first leaf -> shifts
    assert idx.last_op.keys_shifted > 0


def test_min_fanout_rejected():
    import pytest

    with pytest.raises(ValueError):
        BPlusTree(fanout=2)


@given(st.sets(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300),
       st.sets(st.integers(min_value=0, max_value=10**6), max_size=150))
@settings(max_examples=40, deadline=None)
def test_property_matches_dict_model(loaded, inserted):
    """The tree behaves exactly like a sorted dict under mixed ops."""
    idx = BPlusTree(fanout=8)
    model = {k: k + 1 for k in loaded}
    idx.bulk_load(sorted(model.items()))
    for k in inserted:
        expect = k not in model
        assert idx.insert(k, k + 1) == expect
        model.setdefault(k, k + 1)
    doomed = sorted(model)[::3]
    for k in doomed:
        assert idx.delete(k)
        del model[k]
    assert len(idx) == len(model)
    remaining = sorted(model.items())
    assert idx.range_scan(0, len(model) + 5) == remaining
