"""RMI: the read-only baseline."""

import random

import pytest

from repro.indexes.rmi import RMI
from tests.index_contract import assert_nonpositive_count_scans_empty


def _items(n, seed=0):
    rng = random.Random(seed)
    keys = sorted({rng.randrange(2**40) for _ in range(n)})
    return [(k, k ^ 0xFF) for k in keys]


def test_bulk_load_and_lookup():
    items = _items(5000, seed=1)
    idx = RMI()
    idx.bulk_load(items)
    for k, v in items[::113]:
        assert idx.lookup(k) == v
    assert idx.lookup(items[0][0] - 1) is None


def test_error_bounds_recorded():
    idx = RMI(fanout=32)
    idx.bulk_load(_items(5000, seed=2))
    assert idx.max_error < 5000
    # Uniform data: stage-2 models should be tight.
    assert idx.max_error < 200


def test_insert_raises_with_pointer_to_the_paper():
    idx = RMI()
    idx.bulk_load(_items(100, seed=3))
    with pytest.raises(NotImplementedError, match="read-only"):
        idx.insert(1, 1)


def test_update_in_place_works():
    items = _items(500, seed=4)
    idx = RMI()
    idx.bulk_load(items)
    k = items[250][0]
    assert idx.update(k, 999)
    assert idx.lookup(k) == 999
    assert not idx.update(k + 1 if (k + 1) not in dict(items) else k + 3, 1)


def test_range_scan():
    idx = RMI()
    idx.bulk_load([(i * 10, i) for i in range(1000)])
    assert idx.range_scan(105, 3) == [(110, 11), (120, 12), (130, 13)]


def test_range_scan_nonpositive_count_is_empty():
    # Read-only, so RMI has no IndexContract class; the scan case holds
    # for every range-capable registry index all the same.
    assert_nonpositive_count_scans_empty(RMI())


def test_empty_and_tiny():
    idx = RMI()
    idx.bulk_load([])
    assert idx.lookup(5) is None
    idx2 = RMI()
    idx2.bulk_load([(7, 70)])
    assert idx2.lookup(7) == 70


def test_fanout_validation():
    with pytest.raises(ValueError):
        RMI(fanout=0)


def test_memory_is_packed_plus_models():
    idx = RMI(fanout=16)
    items = _items(2000, seed=5)
    idx.bulk_load(items)
    mem = idx.memory_usage()
    assert mem.leaf == len(items) * 16
    assert mem.inner < 2000  # just the models


def test_rmi_lookup_beats_updatable_learned_on_static_data():
    """The original pitch: nothing beats a packed read-only RMI."""
    from repro import ALEX, execute, mixed_workload

    keys = [k for k, _ in _items(4000, seed=6)]
    wl = mixed_workload(keys, 0.0, n_ops=3000, seed=7)
    rmi = execute(RMI(), wl).throughput_mops
    alex = execute(ALEX(), wl).throughput_mops
    assert rmi > 0.8 * alex  # at worst competitive; typically ahead
