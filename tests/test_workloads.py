"""Workload builders: ratios, determinism, validation."""

import pytest

from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    deletion_workload,
    mixed_workload,
    moving_hotspot_workload,
    payload,
    scan_workload,
    shift_workload,
    ycsb_workload,
)

KEYS = list(range(0, 40000, 4))


def _op_counts(wl):
    counts = {}
    for op in wl.operations:
        counts[op.op] = counts.get(op.op, 0) + 1
    return counts


def test_read_only_bulk_loads_everything():
    wl = mixed_workload(KEYS, 0.0, n_ops=1000, seed=1)
    assert len(wl.bulk_items) == len(KEYS)
    assert _op_counts(wl) == {LOOKUP: 1000}


def test_balanced_mix_ratio():
    wl = mixed_workload(KEYS, 0.5, n_ops=4000, seed=2)
    counts = _op_counts(wl)
    assert len(wl.bulk_items) == len(KEYS) // 2
    assert 0.4 < counts[INSERT] / 4000 < 0.6


def test_write_only_inserts_remaining_keys():
    wl = mixed_workload(KEYS, 1.0, seed=3)
    counts = _op_counts(wl)
    assert counts[INSERT] == len(KEYS) - len(KEYS) // 2
    inserted = {op.key for op in wl.operations if op.op == INSERT}
    loaded = {k for k, _ in wl.bulk_items}
    assert not (inserted & loaded)
    assert inserted | loaded == set(KEYS)


def test_mixed_workload_deterministic():
    a = mixed_workload(KEYS, 0.2, n_ops=500, seed=7)
    b = mixed_workload(KEYS, 0.2, n_ops=500, seed=7)
    assert [(o.op, o.key) for o in a.operations] == [(o.op, o.key) for o in b.operations]


def test_mixed_validates_fraction():
    with pytest.raises(ValueError):
        mixed_workload(KEYS, 1.5)


def test_lookups_target_present_keys():
    wl = mixed_workload(KEYS, 0.2, n_ops=2000, seed=4)
    loaded = {k for k, _ in wl.bulk_items}
    for op in wl.operations:
        if op.op == LOOKUP:
            assert op.key in loaded


def test_deletion_workload_deletes_half():
    wl = deletion_workload(KEYS, 1.0, seed=5)
    counts = _op_counts(wl)
    assert counts[DELETE] == len(KEYS) // 2
    deleted = [op.key for op in wl.operations if op.op == DELETE]
    assert len(set(deleted)) == len(deleted)  # each key deleted once


def test_deletion_zero_fraction_is_read_only():
    wl = deletion_workload(KEYS, 0.0, n_ops=300, seed=6)
    assert _op_counts(wl) == {LOOKUP: 300}


def test_shift_workload_scales_domain():
    bulk = list(range(1000, 3000, 2))  # gaps so rescaled keys fit
    incoming = [10**12 + i * 10**9 for i in range(500)]
    wl = shift_workload(bulk, incoming, seed=7)
    inserts = [op.key for op in wl.operations if op.op == INSERT]
    assert inserts
    assert min(inserts) >= 999
    assert max(inserts) <= 3100  # rescaled into bulk's domain (plus nudges)
    assert len(set(inserts)) == len(inserts)
    loaded = {k for k, _ in wl.bulk_items}
    assert not (set(inserts) & loaded)


def test_scan_workload_sizes():
    wl = scan_workload(KEYS, scan_size=50, n_scans=100, seed=8)
    assert all(op.op == SCAN and op.count == 50 for op in wl.operations)
    with pytest.raises(ValueError):
        scan_workload(KEYS, scan_size=0, n_scans=10)


def test_ycsb_variants():
    a = ycsb_workload(KEYS, "A", n_ops=2000, seed=9)
    b = ycsb_workload(KEYS, "B", n_ops=2000, seed=9)
    c = ycsb_workload(KEYS, "C", n_ops=2000, seed=9)
    assert 0.4 < _op_counts(a).get(UPDATE, 0) / 2000 < 0.6
    assert 0.02 < _op_counts(b).get(UPDATE, 0) / 2000 < 0.10
    assert _op_counts(c) == {LOOKUP: 2000}
    with pytest.raises(ValueError):
        ycsb_workload(KEYS, "G", n_ops=10)
    with pytest.raises(ValueError):
        ycsb_workload(KEYS, "AB", n_ops=10)


def test_ycsb_d_read_latest():
    wl = ycsb_workload(KEYS, "D", n_ops=3000, seed=3)
    counts = _op_counts(wl)
    assert 0.02 < counts.get(INSERT, 0) / 3000 < 0.09
    inserts = [op.key for op in wl.operations if op.op == INSERT]
    assert all(k > max(KEYS) for k in inserts)  # new keys append
    # Lookups target the recent window, not the whole keyspace.
    lookups = [op.key for op in wl.operations if op.op == LOOKUP]
    assert min(lookups) >= sorted(KEYS)[-200]


def test_ycsb_e_scan_heavy():
    wl = ycsb_workload(KEYS, "E", n_ops=2000, seed=4)
    counts = _op_counts(wl)
    assert counts.get(SCAN, 0) > 1700
    lengths = [op.count for op in wl.operations if op.op == SCAN]
    assert 1 <= min(lengths) and max(lengths) <= 100
    assert 20 < sum(lengths) / len(lengths) < 80


def test_ycsb_f_read_modify_write():
    wl = ycsb_workload(KEYS, "F", n_ops=2000, seed=5)
    counts = _op_counts(wl)
    assert 0.4 < counts.get(UPDATE, 0) / 2000 < 0.6
    assert counts.get(INSERT, 0) == 0


def test_ycsb_keys_are_zipfian_skewed():
    wl = ycsb_workload(KEYS, "C", n_ops=5000, seed=10)
    from collections import Counter

    counts = Counter(op.key for op in wl.operations)
    top = counts.most_common(1)[0][1]
    assert top > 5000 * 0.02  # hottest key far above uniform (1/10000)


def test_payload_deterministic_nonzero():
    assert payload(42) == payload(42)
    assert payload(42) != payload(43)


def test_workload_rejects_unsorted_bulk():
    from repro.core.workloads import Workload

    with pytest.raises(ValueError):
        Workload("bad", [(5, 1), (3, 1)], [])


# -- moving hotspot (sharded serving tier) -------------------------------------

def test_moving_hotspot_deterministic():
    a = moving_hotspot_workload(KEYS, n_ops=2000, seed=4)
    b = moving_hotspot_workload(KEYS, n_ops=2000, seed=4)
    assert [(op.op, op.key) for op in a.operations] == \
        [(op.op, op.key) for op in b.operations]
    c = moving_hotspot_workload(KEYS, n_ops=2000, seed=5)
    assert [(op.op, op.key) for op in a.operations] != \
        [(op.op, op.key) for op in c.operations]


def test_moving_hotspot_bulk_loads_everything_exactly_n_ops():
    wl = moving_hotspot_workload(KEYS, n_ops=3000, seed=1)
    assert wl.name == "moving-hotspot"
    assert [k for k, _ in wl.bulk_items] == sorted(KEYS)
    assert len(wl.operations) == 3000
    counts = _op_counts(wl)
    assert counts.get(LOOKUP, 0) + counts.get(INSERT, 0) == 3000
    assert 0.0 < wl.write_fraction < 0.5


def test_moving_hotspot_inserts_only_fresh_keys():
    wl = moving_hotspot_workload(KEYS, n_ops=3000, seed=2)
    present = {k for k, _ in wl.bulk_items}
    inserted = set()
    for op in wl.operations:
        if op.op == INSERT:
            assert op.key not in present and op.key not in inserted
            inserted.add(op.key)
    assert inserted  # the hot phases really write


def test_moving_hotspot_hot_range_drifts():
    """Each phase's hot lookups concentrate, and the center moves."""
    phases = 4
    wl = moving_hotspot_workload(KEYS, n_ops=4000, phases=phases,
                                 hot_frac=0.05, seed=3)
    warm = int(4000 * 0.15)
    phase_ops = (4000 - warm) // (phases + 1)
    lo, hi = min(KEYS), max(KEYS)
    span = hi - lo
    centers = []
    for p in range(phases):
        chunk = wl.operations[warm + p * phase_ops:
                              warm + (p + 1) * phase_ops]
        keys = sorted(op.key for op in chunk if op.op == LOOKUP)
        # Hot mass: the interquartile keys sit in a narrow band.
        q1 = keys[len(keys) // 4]
        q3 = keys[3 * len(keys) // 4]
        assert (q3 - q1) < 0.3 * span
        centers.append((q1 + q3) / 2)
    assert centers == sorted(centers)  # the hotspot drifts monotonically
    assert centers[-1] - centers[0] > 0.4 * span
