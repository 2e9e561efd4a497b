"""PGM-Index: contract conformance plus LSM-run behaviour."""

import random

from repro.indexes.pgm import PGMIndex, _StaticPGM
from repro.core.cost import CostMeter
from tests.index_contract import IndexContract


class TestPGMContract(IndexContract):
    def make(self) -> PGMIndex:
        # Strict duplicate rejection for the generic behavioural contract.
        return PGMIndex(check_duplicates=True, buffer_size=64)


def _uniform_items(n, seed=0):
    rng = random.Random(seed)
    keys = sorted({rng.randrange(2**40) for _ in range(n)})
    return [(k, k) for k in keys]


def test_static_pgm_epsilon_guarantee():
    items = _uniform_items(5000, seed=1)
    meter = CostMeter()
    keys = [k for k, _ in items]
    run = _StaticPGM(keys, list(keys), epsilon=16, meter=meter)
    for i in range(0, len(keys), 37):
        assert run.locate(keys[i])[0] == i


def test_static_pgm_absent_keys_lower_bound():
    items = [(i * 10, i) for i in range(1000)]
    meter = CostMeter()
    run = _StaticPGM(*map(list, zip(*items)), epsilon=8, meter=meter)
    assert run.locate(55)[0] == 6
    assert run.locate(0)[0] == 0
    assert run.locate(10**9)[0] == 1000


def test_static_pgm_recursive_levels():
    items = _uniform_items(20000, seed=2)
    meter = CostMeter()
    run = _StaticPGM(*map(list, zip(*items)), epsilon=4, meter=meter)
    assert len(run.levels) >= 2
    assert len(run.levels[-1]) == 1


def test_runs_grow_geometrically():
    idx = PGMIndex(buffer_size=32)
    idx.bulk_load([])
    for i in range(1000):
        idx.insert(i * 3, i)
    sizes = idx.run_sizes()
    assert idx.merge_count > 0
    total = sum(sizes) + len(idx._buffer)
    assert total == 1000


def test_tombstone_delete_then_scan():
    idx = PGMIndex(buffer_size=16, check_duplicates=True)
    idx.bulk_load([(i, i) for i in range(100)])
    for i in range(0, 100, 2):
        assert idx.delete(i)
    got = idx.range_scan(0, 100)
    assert [k for k, _ in got] == list(range(1, 100, 2))


def test_newer_run_shadows_older():
    idx = PGMIndex(buffer_size=8, check_duplicates=True)
    idx.bulk_load([(i, "old") for i in range(50)])
    for i in range(50):
        idx.update(i, f"new{i}")
    for i in range(0, 50, 7):
        assert idx.lookup(i) == f"new{i}"


def test_upsert_semantics_without_check():
    idx = PGMIndex(buffer_size=8)
    idx.bulk_load([(10, "a")])
    assert idx.insert(10, "b")  # upstream-faithful blind append
    assert idx.lookup(10) == "b"


def test_insert_cheaper_than_lookup_amortised():
    """The paper: PGM has the best inserts and the worst lookups."""
    idx = PGMIndex(buffer_size=128)
    items = _uniform_items(2000, seed=3)
    idx.bulk_load(items[:1000])
    before = idx.meter.total_time()
    for k, _ in items[1000:]:
        idx.insert(k, 0)
    insert_time = (idx.meter.total_time() - before) / 1000
    before = idx.meter.total_time()
    rng = random.Random(4)
    for _ in range(1000):
        idx.lookup(items[rng.randrange(1000)][0])
    lookup_time = (idx.meter.total_time() - before) / 1000
    assert insert_time < lookup_time * 3


def test_memory_is_packed():
    """Figure 8: PGM is the most space-efficient learned index."""
    from repro.indexes.alex import ALEX

    items = _uniform_items(3000, seed=5)
    pgm = PGMIndex()
    pgm.bulk_load(items)
    alex = ALEX()
    alex.bulk_load(items)
    assert pgm.memory_usage().total < alex.memory_usage().total


def test_epsilon_validation():
    import pytest

    with pytest.raises(ValueError):
        PGMIndex(epsilon=0)
