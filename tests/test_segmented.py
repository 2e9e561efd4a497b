"""The delta-segment substrate (``repro.indexes.segmented``): what the
three policy classes inherit rather than what each of them does."""

import bisect
import random

import pytest

from repro.indexes.base import OrderedIndex
from repro.indexes.finedex import FINEdex
from repro.indexes.fiting_tree import FITingTree
from repro.indexes.segmented import SegmentedIndex
from repro.indexes.xindex import XIndex

# Side structures roomy enough that 50 uniform inserts trigger no SMO.
FAMILY = {
    "FITing-Tree": lambda: FITingTree(epsilon=4, buffer_size=64),
    "FINEdex": lambda: FINEdex(epsilon=4),
    "XIndex": lambda: XIndex(epsilon=4, target_group_keys=64),
}


def _keys(n, seed, hi=2**40):
    rng = random.Random(seed)
    return sorted(rng.sample(range(1, hi), n))


class _CountingList(list):
    """A list that counts whole-list iterations and item reads."""

    iterations = 0
    reads = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_routing_never_walks_the_unit_list(name):
    """Routing reads the persistent pivot list: no op outside an SMO
    may iterate the units (the parent rebuilt ``[u.pivot for u in
    units]`` inside every lookup, insert, update and scan)."""
    idx = FAMILY[name]()
    keys = _keys(2000, seed=1)
    idx.bulk_load([(k, k) for k in keys])
    assert len(idx._units) >= 10
    idx._units = _CountingList(idx._units)
    rng = random.Random(2)
    for _ in range(200):
        k = rng.choice(keys)
        assert idx.lookup(k) == k
    fresh = set(_keys(100, seed=6)) - set(keys)
    for k in sorted(fresh)[:50]:
        assert idx.insert(k, 0)
        assert not idx.last_op.smo
    idx.update(keys[7], 1)
    idx.range_scan(keys[100], 5)
    assert idx._units.iterations == 0
    assert idx.debug_validate() == []


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_pivot_list_follows_smos(name):
    idx = FAMILY[name]()
    keys = _keys(600, seed=3)
    idx.bulk_load([(k, k) for k in keys[::2]])
    for k in keys[1::2]:
        idx.insert(k, k)
    # Bursts between two neighbours overflow every kind of absorber.
    for k in range(keys[300] + 1, keys[300] + 400):
        idx.insert(k, k)
    assert idx._pivots == [u.pivot for u in idx._units]
    assert len(idx._pivots) > 1 and idx._pivots[0] == 0
    assert idx.debug_validate() == []


@pytest.mark.parametrize("cls", [FITingTree, FINEdex, XIndex])
def test_lookup_and_its_batch_hook_come_from_the_substrate(cls):
    """``OrderedIndex.__init_subclass__`` hands a class that defines
    ``lookup`` without ``_lookup_batch`` the loop default; the policy
    classes define neither, so they keep the substrate's pair."""
    assert cls.lookup is SegmentedIndex.lookup
    assert cls._lookup_batch is SegmentedIndex._lookup_batch
    assert cls._lookup_batch is not OrderedIndex._lookup_batch


def _finedex_with_bins():
    keys = _keys(3000, seed=4)
    idx = FINEdex(bin_capacity=64)
    idx.bulk_load([(k, k) for k in keys[::3]])
    for k in keys:
        idx.insert(k, k)
    assert idx.retrain_count == 0 and len(idx) == len(keys)
    return idx, keys


def test_finedex_scan_rows_from_any_start():
    """Scans positioned by bisect return what the head walk returned:
    starts on trained keys, inside bins, between keys, below the first
    key and past the last."""
    idx, keys = _finedex_with_bins()
    rows = [(k, k) for k in keys]
    starts = [0, keys[0] - 1, keys[-1], keys[-1] + 1]
    for k in keys[::7]:
        starts += [k - 1, k, k + 1]
    for start in starts:
        lo = bisect.bisect_left(keys, start)
        for count in (1, 2, 32, 500):
            assert idx.range_scan(start, count) == rows[lo:lo + count]


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_scan_for_no_rows_returns_nothing(name):
    idx = FAMILY[name]()
    keys = _keys(200, seed=5)
    idx.bulk_load([(k, k) for k in keys])
    idx.insert(keys[10] + 1, 0)
    assert idx.range_scan(keys[10], 0) == []


def test_finedex_scan_does_not_walk_its_first_segment_from_the_head():
    idx = FINEdex()
    idx.bulk_load([(k * 64, k) for k in range(20_000)])  # one segment
    seg = idx._units[0]
    assert len(seg.keys) == 20_000
    seg.keys = _CountingList(seg.keys)
    assert idx.range_scan(19_000 * 64, 32) == [
        (k * 64, k) for k in range(19_000, 19_032)]
    assert seg.keys.reads <= 64 and seg.keys.iterations == 0
