"""FINEdex: contract conformance plus per-record bin behaviour."""

import random

from repro.indexes.finedex import FINEdex
from tests.index_contract import IndexContract


class TestFINEdexContract(IndexContract):
    def make(self) -> FINEdex:
        return FINEdex(bin_capacity=8)


def _uniform_items(n, seed=0):
    rng = random.Random(seed)
    keys = sorted({rng.randrange(2**40) for _ in range(n)})
    return [(k, k) for k in keys]


def test_inserts_land_in_record_bins():
    idx = FINEdex(bin_capacity=64)
    idx.bulk_load([(i * 100, i) for i in range(100)])
    idx.insert(55, 0)
    idx.insert(57, 1)
    seg = idx._units[0]
    assert seg.bin_entries == 2
    assert idx.lookup(55) == 0 and idx.lookup(57) == 1


def test_bin_overflow_triggers_local_retrain():
    idx = FINEdex(bin_capacity=4)
    idx.bulk_load(_uniform_items(1000, seed=1))
    rng = random.Random(2)
    for _ in range(2000):
        idx.insert(rng.randrange(2**40), 0)
    assert idx.retrain_count > 0
    # After retrains, everything is still findable in order.
    got = idx.range_scan(0, 10**6)
    keys = [k for k, _ in got]
    assert keys == sorted(keys)
    assert len(keys) == len(idx)


def test_keys_below_first_key_insertable():
    idx = FINEdex()
    idx.bulk_load([(1000, 1), (2000, 2)])
    assert idx.insert(5, 50)
    assert idx.lookup(5) == 50
    assert idx.range_scan(0, 3)[0] == (5, 50)


def test_retrain_preserves_routing_pivot():
    idx = FINEdex(bin_capacity=2)
    idx.bulk_load([(i * 1000, i) for i in range(100)])
    # Overflow a bin mid-structure to force a local retrain.
    for j in range(10):
        idx.insert(50000 + j, j)
    assert idx.retrain_count > 0
    # Keys on both sides of the retrained region still resolve.
    assert idx.lookup(49000) == 49
    assert idx.lookup(51000) == 51
    assert idx.lookup(50003) == 3


def test_no_delete_support():
    assert not FINEdex().supports_delete


def test_segment_count_tracks_hardness():
    easy = FINEdex()
    easy.bulk_load([(i * 50, i) for i in range(2000)])
    rng = random.Random(3)
    # Clusters big enough (~250 keys) that in-cluster rank deviation from
    # any single global line far exceeds epsilon=32.
    clustered_keys = sorted({c * 2**30 + rng.randrange(3000) for c in range(8) for _ in range(300)})
    hard = FINEdex()
    hard.bulk_load([(k, k) for k in clustered_keys])
    assert hard.segment_count() > easy.segment_count()
