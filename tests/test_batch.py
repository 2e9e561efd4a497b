"""Batch-operation parity: batched execution must be observationally
identical to scalar execution.

The contract under test (see ``docs/performance.md``): for every index
in the registry, running the same workload with ``batch_ops`` enabled
must produce the same values, the same ``RunResult`` fingerprint, the
same virtual time, the *identical* cost-meter state (content and
counter insertion order — the virtual clock sums floats in insertion
order), and the same per-op records and oracle verdicts as the scalar
loop.
"""

from __future__ import annotations

import random

import pytest

from repro.core.opstream import DifferentialObserver
from repro.core.registry import REGISTRY
from repro.core.results import result_record
from repro.core.runner import ExecutionEngine, execute
from repro.core.sweep import result_fingerprint
from repro.core.workloads import mixed_workload
from repro.indexes import batching

ALL_NAMES = [spec.name for spec in REGISTRY]
BATCH_NAMES = [spec.name for spec in REGISTRY if spec.supports_batch]


def _keys(n=3000, seed=5, hi=30_000_000):
    rng = random.Random(seed)
    return sorted(rng.sample(range(1, hi), n))


def _pair(name):
    spec = REGISTRY.get(name)
    return spec, spec.factory(), spec.factory()


def _assert_meters_identical(a, b, label=""):
    assert list(a.meter._counts.items()) == list(b.meter._counts.items()), (
        f"{label}: cost counters diverge")
    assert a.meter.total_time() == b.meter.total_time(), (
        f"{label}: virtual clocks diverge")


# ---------------------------------------------------------------------------
# Engine-level parity over the whole registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_engine_batch_fingerprint_parity(name):
    """Same workload, batch vs scalar engine: identical fingerprint,
    virtual time, and meter state for every registered index."""
    spec, a, b = _pair(name)
    keys = _keys()
    wf = 0.2 if spec.supports_insert else 0.0
    wl = mixed_workload(keys, wf, n_ops=2500, seed=3)
    ra = execute(a, wl, batch_ops=256)
    rb = execute(b, wl)
    assert result_fingerprint(result_record(ra)) == \
        result_fingerprint(result_record(rb))
    assert ra.virtual_ns == rb.virtual_ns
    _assert_meters_identical(a, b, name)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_engine_batch_oracle_and_events(name):
    """The differential oracle and a per-op event recorder see the
    identical stream under batched execution."""
    spec, a, b = _pair(name)
    keys = _keys(2000, seed=9)
    wf = 0.3 if spec.supports_insert else 0.0
    wl = mixed_workload(keys, wf, n_ops=2000, seed=7)

    class Recorder:
        def __init__(self):
            self.events = []

        def on_phase(self, phase, index, workload):
            pass

        def on_op(self, event, latency):
            self.events.append((event.seq, event.op.op, event.op.key,
                                event.ok, event.result, event.record,
                                latency))

        def on_smo(self, event):
            self.events.append(("smo", event.seq))

    oa, ob = DifferentialObserver(), DifferentialObserver()
    rec_a, rec_b = Recorder(), Recorder()
    ExecutionEngine(batch_ops=64, observers=[oa, rec_a]).run(a, wl)
    ExecutionEngine(observers=[ob, rec_b]).run(b, wl)
    assert oa.ok and ob.ok
    assert rec_a.events == rec_b.events
    _assert_meters_identical(a, b, name)


# ---------------------------------------------------------------------------
# Direct lookup_many parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_lookup_many_parity(name):
    spec, a, b = _pair(name)
    keys = _keys(2500, seed=13)
    items = [(k, k * 3) for k in keys]
    a.bulk_load(items)
    b.bulk_load(items)
    rng = random.Random(1)
    qs = rng.sample(keys, 400) + [k + 1 for k in rng.sample(keys, 400)]
    rng.shuffle(qs)
    recs = []
    va = a.lookup_many(qs, records=recs)
    vb, rb = [], []
    for k in qs:
        vb.append(b.lookup(k))
        rb.append(b.last_op)
    assert va == vb
    assert recs == rb
    assert a.last_op == b.last_op
    _assert_meters_identical(a, b, name)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_lookup_many_parity_after_mutations(name):
    """Interleave inserts (cache invalidation, SMOs) with batches."""
    spec, a, b = _pair(name)
    keys = _keys(2000, seed=17)
    items = [(k, k * 3) for k in keys]
    a.bulk_load(items)
    b.bulk_load(items)
    if not spec.supports_insert:
        pytest.skip(f"{name} is read-only")
    for rnd in range(3):
        rng = random.Random(100 + rnd)
        new = rng.sample(range(30_000_001, 60_000_000), 300)
        for k in new:
            assert a.insert(k, k) == b.insert(k, k)
        qs = rng.sample(keys, 150) + rng.sample(new, 100) + \
            [k + 7 for k in rng.sample(new, 50)]
        rng.shuffle(qs)
        assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
        _assert_meters_identical(a, b, f"{name} round {rnd}")


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_NAMES)
def test_empty_batch_and_batch_of_one(name):
    spec, a, b = _pair(name)
    keys = _keys(600, seed=23)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    assert a.lookup_many([]) == []
    assert a.lookup_many([keys[5]]) == [b.lookup(keys[5])]
    assert a.lookup_many([keys[0] - 1]) == [b.lookup(keys[0] - 1)]
    _assert_meters_identical(a, b, name)


def test_insert_many_duplicate_keys_in_one_batch():
    """Duplicate keys inside one insert_many behave like the scalar
    sequence: first wins, later duplicates are rejected."""
    for name in BATCH_NAMES:
        spec = REGISTRY.get(name)
        if not spec.supports_insert:
            continue
        a, b = spec.factory(), spec.factory()
        keys = _keys(400, seed=29)
        a.bulk_load([(k, k) for k in keys])
        b.bulk_load([(k, k) for k in keys])
        pairs = [(10_000_001, 1), (10_000_002, 2), (10_000_001, 3),
                 (keys[0], 4), (10_000_002, 5)]
        got = a.insert_many(pairs)
        want = [b.insert(k, v) for k, v in pairs]
        # Duplicate semantics differ per index (PGM appends, others
        # reject) — the contract is only that batch == scalar sequence.
        assert got == want, name
        assert a.lookup_many([p[0] for p in pairs]) == \
            [b.lookup(p[0]) for p in pairs], name
        _assert_meters_identical(a, b, name)


def test_batch_straddling_an_smo():
    """A lookup batch issued immediately after an insert that triggered
    a structural modification must see the post-SMO structure."""
    for name in BATCH_NAMES:
        spec = REGISTRY.get(name)
        if not spec.supports_insert:
            continue
        a, b = spec.factory(), spec.factory()
        keys = _keys(1200, seed=31)
        a.bulk_load([(k, k) for k in keys])
        b.bulk_load([(k, k) for k in keys])
        rng = random.Random(3)
        qs = rng.sample(keys, 64)
        smo_seen = False
        for k in range(30_000_001, 30_002_000, 3):
            ra = a.insert(k, k)
            assert ra == b.insert(k, k)
            if a.last_op is not None and a.last_op.smo:
                smo_seen = True
                probe = qs + [k, k + 1]
                assert a.lookup_many(probe) == [b.lookup(q) for q in probe]
        assert smo_seen, f"{name}: workload never triggered an SMO"
        _assert_meters_identical(a, b, name)


def test_scan_many_matches_scalar_scans():
    spec = REGISTRY.get("B+tree")
    a, b = spec.factory(), spec.factory()
    keys = _keys(800, seed=37)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    starts = keys[::97]
    assert a.scan_many(starts, 10) == [b.range_scan(s, 10) for s in starts]
    _assert_meters_identical(a, b, "B+tree scan_many")


# ---------------------------------------------------------------------------
# Fallback paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_NAMES)
def test_no_numpy_fallback(name, monkeypatch):
    """With numpy unavailable the batch APIs silently loop scalar and
    stay correct."""
    monkeypatch.setattr(batching, "_np", None)
    spec = REGISTRY.get(name)
    a, b = spec.factory(), spec.factory()
    keys = _keys(500, seed=41)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    qs = keys[::7] + [keys[3] + 1]
    assert a._lookup_batch(qs) is None
    assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
    _assert_meters_identical(a, b, name)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_small_batches_below_min_batch_still_match(name, monkeypatch):
    """Shrinking MIN_BATCH forces the vectorized path onto tiny batches
    — coverage for the fast path at sizes the heuristic would skip."""
    if batching._np is None:
        pytest.skip("numpy unavailable")
    monkeypatch.setattr(batching, "MIN_BATCH", 1)
    spec = REGISTRY.get(name)
    a, b = spec.factory(), spec.factory()
    keys = _keys(700, seed=43)
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    for qs in ([keys[0]], keys[:2], keys[10:13] + [keys[4] + 1]):
        assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
    _assert_meters_identical(a, b, name)


def test_huge_keys_fall_back_to_scalar_loop():
    """Keys beyond int64 bail out of the numpy path but still answer."""
    spec = REGISTRY.get("PGM")
    a, b = spec.factory(), spec.factory()
    base = 2**70
    keys = [base + i * 5 for i in range(300)]
    a.bulk_load([(k, k) for k in keys])
    b.bulk_load([(k, k) for k in keys])
    qs = keys[::3] + [keys[0] + 1]
    assert a._lookup_batch(qs) is None
    assert a.lookup_many(qs) == [b.lookup(k) for k in qs]
    _assert_meters_identical(a, b, "huge keys")


def test_registry_supports_batch_flags():
    flagged = {s.name for s in REGISTRY if s.supports_batch}
    assert flagged == {"ALEX", "LIPP", "PGM", "XIndex", "FINEdex",
                       "FITing-Tree", "RMI", "B+tree"}
    # The flag is honest: each flagged index actually vectorizes.
    for name in sorted(flagged):
        ix = REGISTRY.get(name).factory()
        keys = _keys(400, seed=47)
        ix.bulk_load([(k, k) for k in keys])
        assert ix._lookup_batch(keys[:100]) is not None, name
