"""ART: contract conformance plus radix-specific behaviour."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.art import ART, _tier, _tier_bytes
from tests.index_contract import IndexContract


class TestARTContract(IndexContract):
    def make(self) -> ART:
        return ART()


def test_tier_thresholds():
    assert _tier(1) == 4
    assert _tier(4) == 4
    assert _tier(5) == 16
    assert _tier(17) == 48
    assert _tier(49) == 256


def test_tier_bytes_monotone():
    sizes = [_tier_bytes(t) for t in (4, 16, 48, 256)]
    assert sizes == sorted(sizes)


def test_path_compression_keeps_tree_shallow():
    """Keys sharing a long prefix should not produce one node per byte."""
    idx = ART()
    base = 0x5EADBEEF00000000
    idx.bulk_load([(base + i, i) for i in range(100)])
    assert idx.height <= 3


def test_dense_keys_use_wide_nodes():
    """Dense low bytes drive nodes into the Node256 tier (memory model)."""
    idx = ART()
    idx.bulk_load([(i, i) for i in range(1000)])
    mem = idx.memory_usage()
    # 1000 dense keys pack into few, wide nodes: inner layer per key should
    # be far below one Node4 per key.
    assert mem.inner < 1000 * _tier_bytes(4)


def test_delete_restores_path_compression():
    idx = ART()
    idx.bulk_load([(0x1000, 1), (0x1001, 2), (0x2000, 3)])
    assert idx.delete(0x1001)
    assert idx.lookup(0x1000) == 1
    assert idx.lookup(0x2000) == 3
    assert idx.lookup(0x1001) is None


def test_scan_crosses_prefix_boundaries():
    idx = ART()
    keys = [0x0100, 0x0101, 0x0200, 0x020001, 0x7F00000000000000]
    idx.bulk_load(sorted((k, k) for k in keys))
    got = idx.range_scan(0x0101, 4)
    assert [k for k, _ in got] == sorted(keys)[1:5]


def test_byte_order_matches_integer_order():
    rng = random.Random(9)
    keys = sorted({rng.randrange(2**63) for _ in range(500)})
    idx = ART()
    idx.bulk_load([(k, k) for k in keys])
    got = idx.range_scan(0, 500)
    assert [k for k, _ in got] == keys


@given(st.sets(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_property_full_u64_range(keys):
    """Over the whole uint64 range: the key domain's half, ``[0,
    2**63)``, loads and reads back in order; a set reaching the top
    half is refused at the door with nothing built."""
    items = sorted((k, k % 97) for k in keys)
    if items[-1][0] >= 2**63:
        idx = ART()
        with pytest.raises(ValueError, match="outside the key domain"):
            idx.bulk_load(items)
        assert len(idx) == 0 and idx._node_serial == 0
        items = [(k, v) for k, v in items if k < 2**63]
    idx = ART()
    idx.bulk_load(items)
    for k, v in items:
        assert idx.lookup(k) == v
    assert idx.range_scan(0, len(items)) == items
