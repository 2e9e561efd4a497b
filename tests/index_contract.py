"""Reusable behavioural contract every index implementation must satisfy.

Per-index test modules subclass :class:`IndexContract` and provide
``make()``.  This keeps hundreds of behavioural checks uniform across the
eleven index implementations without copy-pasting test bodies.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.indexes.base import OrderedIndex


def _mk_items(n: int, seed: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    keys = set()
    while len(keys) < n:
        keys.add(rng.randrange(0, 2**48))
    return [(k, k ^ 0xABCD) for k in sorted(keys)]


def assert_nonpositive_count_scans_empty(idx: OrderedIndex) -> None:
    """``range_scan(start, count <= 0)`` is ``[]`` — from below the
    loaded keys, on a key, between two keys, on the last key and above
    it — and leaves ordinary scans alone."""
    items = _mk_items(600, seed=21)
    idx.bulk_load(items)
    lo, hi = items[0][0], items[-1][0]
    for count in (0, -3):
        for start in (max(lo - 1, 0), lo, items[300][0], items[300][0] + 1,
                      hi, hi + 1):
            assert idx.range_scan(start, count) == [], (start, count)
    assert idx.range_scan(items[300][0], 5) == items[300:305]


class IndexContract:
    """Common behaviour tests; subclass and implement :meth:`make`."""

    #: Number of keys used in the larger scenarios; subclasses may lower it.
    N = 2000

    def make(self) -> OrderedIndex:
        raise NotImplementedError

    # -- bulk load + lookup ---------------------------------------------------

    def test_bulk_load_then_lookup_all(self):
        idx = self.make()
        items = _mk_items(self.N, seed=1)
        idx.bulk_load(items)
        assert len(idx) == len(items)
        for k, v in items[:: max(1, self.N // 200)]:
            assert idx.lookup(k) == v

    def test_lookup_absent_returns_none(self):
        idx = self.make()
        items = _mk_items(200, seed=2)
        idx.bulk_load(items)
        present = {k for k, _ in items}
        rng = random.Random(3)
        for _ in range(100):
            k = rng.randrange(0, 2**48)
            if k not in present:
                assert idx.lookup(k) is None

    def test_bulk_load_empty(self):
        idx = self.make()
        idx.bulk_load([])
        assert len(idx) == 0
        assert idx.lookup(42) is None

    def test_bulk_load_rejects_unsorted(self):
        idx = self.make()
        with pytest.raises(ValueError):
            idx.bulk_load([(5, 1), (3, 2)])

    def test_bulk_load_single_item(self):
        idx = self.make()
        idx.bulk_load([(7, 70)])
        assert idx.lookup(7) == 70
        assert idx.lookup(8) is None

    def test_boundary_keys(self):
        idx = self.make()
        items = [(0, 100), (1, 101), (2**48 - 1, 102)]
        idx.bulk_load(items)
        for k, v in items:
            assert idx.lookup(k) == v

    # -- insert ----------------------------------------------------------------

    def test_insert_into_empty(self):
        idx = self.make()
        idx.bulk_load([])
        assert idx.insert(10, 1)
        assert idx.lookup(10) == 1
        assert len(idx) == 1

    def test_insert_then_lookup_interleaved(self):
        idx = self.make()
        items = _mk_items(self.N, seed=4)
        half = len(items) // 2
        idx.bulk_load(items[:half])
        rng = random.Random(5)
        pending = items[half:]
        rng.shuffle(pending)
        for k, v in pending:
            assert idx.insert(k, v), f"insert of {k} failed"
            assert idx.lookup(k) == v
        for k, v in items[:: max(1, self.N // 100)]:
            assert idx.lookup(k) == v
        assert len(idx) == len(items)

    def test_insert_duplicate_returns_false(self):
        idx = self.make()
        if idx.supports_duplicates:
            pytest.skip("index allows duplicates")
        idx.bulk_load([(10, 1), (20, 2)])
        assert not idx.insert(10, 99)
        assert idx.lookup(10) == 1
        assert len(idx) == 2

    def test_insert_ascending_sequence(self):
        idx = self.make()
        idx.bulk_load([])
        for k in range(500):
            assert idx.insert(k, k)
        for k in range(0, 500, 7):
            assert idx.lookup(k) == k

    def test_insert_descending_sequence(self):
        idx = self.make()
        idx.bulk_load([])
        for k in range(500, 0, -1):
            assert idx.insert(k, k)
        for k in range(1, 501, 7):
            assert idx.lookup(k) == k

    def test_insert_clustered_keys(self):
        """Dense cluster amid a sparse space (hard for models)."""
        idx = self.make()
        idx.bulk_load([(0, 0), (2**40, 1)])
        base = 2**30
        for i in range(300):
            assert idx.insert(base + i, i)
        for i in range(0, 300, 11):
            assert idx.lookup(base + i) == i

    # -- update ------------------------------------------------------------------

    def test_update_existing(self):
        idx = self.make()
        idx.bulk_load([(10, 1), (20, 2), (30, 3)])
        assert idx.update(20, 99)
        assert idx.lookup(20) == 99

    def test_update_absent_returns_false(self):
        idx = self.make()
        idx.bulk_load([(10, 1)])
        assert not idx.update(11, 5)

    # -- delete ------------------------------------------------------------------

    def test_delete_roundtrip(self):
        idx = self.make()
        if not idx.supports_delete:
            pytest.skip("no delete support")
        items = _mk_items(self.N, seed=6)
        idx.bulk_load(items)
        rng = random.Random(7)
        doomed = rng.sample(items, len(items) // 2)
        for k, _ in doomed:
            assert idx.delete(k), f"delete of {k} failed"
        doomed_keys = {k for k, _ in doomed}
        assert len(idx) == len(items) - len(doomed)
        for k, v in items[:: max(1, self.N // 200)]:
            if k in doomed_keys:
                assert idx.lookup(k) is None
            else:
                assert idx.lookup(k) == v

    def test_delete_absent_returns_false(self):
        idx = self.make()
        if not idx.supports_delete:
            pytest.skip("no delete support")
        idx.bulk_load([(10, 1), (20, 2)])
        assert not idx.delete(15)
        assert len(idx) == 2

    def test_delete_then_reinsert(self):
        idx = self.make()
        if not idx.supports_delete:
            pytest.skip("no delete support")
        idx.bulk_load([(i * 10, i) for i in range(100)])
        for i in range(0, 100, 2):
            assert idx.delete(i * 10)
        for i in range(0, 100, 2):
            assert idx.insert(i * 10, i + 1000)
        for i in range(100):
            expect = i + 1000 if i % 2 == 0 else i
            assert idx.lookup(i * 10) == expect

    def test_delete_all(self):
        idx = self.make()
        if not idx.supports_delete:
            pytest.skip("no delete support")
        items = _mk_items(300, seed=8)
        idx.bulk_load(items)
        for k, _ in items:
            assert idx.delete(k)
        assert len(idx) == 0
        assert idx.lookup(items[0][0]) is None
        assert idx.insert(12345, 1)
        assert idx.lookup(12345) == 1

    # -- range scans ----------------------------------------------------------------

    def test_range_scan_basic(self):
        idx = self.make()
        if not idx.supports_range:
            pytest.skip("no range support")
        items = [(i * 10, i) for i in range(200)]
        idx.bulk_load(items)
        got = idx.range_scan(500, 10)
        assert got == [(i * 10, i) for i in range(50, 60)]

    def test_range_scan_from_between_keys(self):
        idx = self.make()
        if not idx.supports_range:
            pytest.skip("no range support")
        idx.bulk_load([(i * 10, i) for i in range(100)])
        got = idx.range_scan(55, 3)
        assert got == [(60, 6), (70, 7), (80, 8)]

    def test_range_scan_past_end(self):
        idx = self.make()
        if not idx.supports_range:
            pytest.skip("no range support")
        idx.bulk_load([(i, i) for i in range(50)])
        got = idx.range_scan(45, 100)
        assert got == [(i, i) for i in range(45, 50)]
        assert idx.range_scan(1000, 5) == []

    def test_range_scan_nonpositive_count_is_empty(self):
        idx = self.make()
        if not idx.supports_range:
            pytest.skip("no range support")
        assert_nonpositive_count_scans_empty(idx)

    def test_range_scan_after_inserts(self):
        idx = self.make()
        if not idx.supports_range:
            pytest.skip("no range support")
        idx.bulk_load([(i * 4, i) for i in range(100)])
        for i in range(100):
            idx.insert(i * 4 + 2, i + 1000)
        got = idx.range_scan(0, 20)
        keys = [k for k, _ in got]
        assert keys == sorted(keys)
        assert len(got) == 20
        assert keys[0] == 0 and keys[1] == 2

    def test_range_scan_matches_sorted_reference(self):
        idx = self.make()
        if not idx.supports_range:
            pytest.skip("no range support")
        items = _mk_items(1000, seed=9)
        idx.bulk_load(items)
        start = items[321][0]
        got = idx.range_scan(start, 37)
        assert got == items[321 : 321 + 37]

    # -- empty-index behaviour ------------------------------------------------------

    def test_empty_index_every_op(self):
        """Every op degrades gracefully on a freshly-emptied index."""
        idx = self.make()
        idx.bulk_load([])
        assert idx.lookup(5) is None
        assert not idx.update(5, 1)
        if idx.supports_delete:
            assert not idx.delete(5)
        if idx.supports_range:
            assert idx.range_scan(0, 10) == []
        assert len(idx) == 0
        assert 5 not in idx

    def test_empty_index_recovers(self):
        """Ops on an empty index leave it able to accept inserts."""
        idx = self.make()
        idx.bulk_load([])
        idx.lookup(5)
        idx.update(5, 1)
        if idx.supports_delete:
            idx.delete(5)
        assert idx.insert(9, 90)
        assert idx.lookup(9) == 90
        assert len(idx) == 1

    # -- structural invariants -------------------------------------------------------

    def test_debug_validate_clean_when_empty(self):
        idx = self.make()
        idx.bulk_load([])
        assert idx.debug_validate() == []

    def test_debug_validate_clean_after_churn(self):
        """The invariant walk finds nothing after a mixed workload."""
        idx = self.make()
        items = _mk_items(600, seed=13)
        idx.bulk_load(items[:300])
        rng = random.Random(14)
        pending = items[300:]
        rng.shuffle(pending)
        for k, v in pending:
            idx.insert(k, v)
        if idx.supports_delete:
            for k, _ in rng.sample(items, 150):
                idx.delete(k)
        for k, _ in rng.sample(items, 50):
            idx.update(k, 0)
        violations = idx.debug_validate()
        assert violations == [], "\n".join(str(v) for v in violations)

    # -- memory / introspection ----------------------------------------------------

    def test_memory_usage_positive_and_grows(self):
        idx = self.make()
        items = _mk_items(1000, seed=10)
        idx.bulk_load(items[:100])
        small = idx.memory_usage().total
        assert small > 0
        idx2 = self.make()
        idx2.bulk_load(items)
        assert idx2.memory_usage().total > small

    def test_last_op_records_path(self):
        idx = self.make()
        items = _mk_items(500, seed=11)
        idx.bulk_load(items)
        idx.lookup(items[123][0])
        rec = idx.last_op
        assert rec.op == "lookup"
        assert rec.found
        assert rec.nodes_traversed >= 1

    def test_meter_charges_on_ops(self):
        idx = self.make()
        items = _mk_items(500, seed=12)
        idx.bulk_load(items)
        before = idx.meter.total_time()
        idx.lookup(items[0][0])
        assert idx.meter.total_time() > before
