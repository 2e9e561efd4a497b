"""XIndex: contract conformance plus delta/compaction behaviour."""

import random

from repro.indexes.xindex import XIndex
from tests.index_contract import IndexContract


class TestXIndexContract(IndexContract):
    def make(self) -> XIndex:
        return XIndex(delta_size=32, target_group_keys=128)


def _uniform_items(n, seed=0):
    rng = random.Random(seed)
    keys = sorted({rng.randrange(2**40) for _ in range(n)})
    return [(k, k) for k in keys]


def test_inserts_go_to_delta_first():
    idx = XIndex(delta_size=64)
    idx.bulk_load(_uniform_items(500, seed=1))
    g = idx._units[0]
    main_before = len(g.keys)
    rng = random.Random(2)
    for _ in range(10):
        idx.insert(rng.randrange(2**30), 0)
    assert len(idx._units[0].keys) == main_before  # main untouched
    assert sum(len(g.side_keys) for g in idx._units) == 10


def test_compaction_merges_delta():
    idx = XIndex(delta_size=16, target_group_keys=256)
    idx.bulk_load(_uniform_items(200, seed=3))
    rng = random.Random(4)
    for _ in range(200):
        idx.insert(rng.randrange(2**40), 0)
    assert idx.compaction_count > 0


def test_group_splits_when_models_exceed_limit():
    idx = XIndex(delta_size=32, target_group_keys=4096, max_models_per_group=2)
    # Clustered keys: high local hardness forces many PLA segments.
    keys = sorted({c * 2**30 + o for c in range(20) for o in range(0, 2000, 7)})
    idx.bulk_load([(k, k) for k in keys[:100]])
    for k in keys[100:3000]:
        idx.insert(k, k)
    assert idx.group_count() > 1


def test_no_delete_support():
    assert not XIndex().supports_delete


def test_scan_merges_main_and_delta():
    idx = XIndex(delta_size=1000)
    idx.bulk_load([(i * 4, i) for i in range(500)])
    for i in range(500):
        idx.insert(i * 4 + 1, i + 1000)
    got = idx.range_scan(0, 20)
    keys = [k for k, _ in got]
    assert keys == sorted(keys) and keys[:4] == [0, 1, 4, 5]
