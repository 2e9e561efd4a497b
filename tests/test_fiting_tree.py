"""FITing-Tree: contract conformance plus buffer/merge behaviour."""

import random

import pytest

from repro.indexes.fiting_tree import FITingTree
from tests.index_contract import IndexContract


class TestFITingTreeContract(IndexContract):
    def make(self) -> FITingTree:
        return FITingTree(buffer_size=8)


def test_inserts_buffer_then_merge():
    idx = FITingTree(buffer_size=4)
    idx.bulk_load([(i * 100, i) for i in range(200)])
    before = idx.merge_count
    for j in range(1, 20):
        idx.insert(550 + j, j)
    assert idx.merge_count > before
    for j in range(1, 20):
        assert idx.lookup(550 + j) == j


def test_segments_respect_epsilon():
    rng = random.Random(1)
    keys = sorted(rng.sample(range(2**36), 3000))
    idx = FITingTree(epsilon=16)
    idx.bulk_load([(k, k) for k in keys])
    for seg in idx._units:
        for pos in range(0, len(seg.keys), 37):
            pred = seg.models[0].model.predict(seg.keys[pos])
            assert abs(pred - pos) <= 16 + 1e-6


def test_merge_resegments_locally():
    idx = FITingTree(buffer_size=2, epsilon=8)
    # Two very different slopes: at least two segments.
    keys = list(range(1000)) + [10**6 + i * 10**4 for i in range(1000)]
    idx.bulk_load([(k, k) for k in keys])
    segs_before = idx.segment_count()
    rng = random.Random(2)
    for _ in range(200):
        k = 10**6 + rng.randrange(10**7)
        idx.insert(k, 0)
    assert idx.segment_count() >= segs_before
    assert idx.lookup(500) == 500  # untouched region intact


def test_buffer_size_validation():
    with pytest.raises(ValueError):
        FITingTree(buffer_size=0)


def test_no_delete_support():
    assert not FITingTree().supports_delete
