"""Exact batch contract for B+tree and PGM, against a scalar twin.

Two identically built indexes take the same interleaved stream: one
through ``lookup_many`` / ``insert_many``, its twin through loops of the
scalar ops.  After every step the values, ``last_op``, the merge count
and ``list(meter._counts.items())`` — counter values *and* insertion
order — must be equal, and so must every per-op ``OpRecord`` a lookup
batch body makes (B+tree ``path`` node ids included).  Deletes and
scans run scalar on both sides, so the batch paths are checked right
after every kind of structure change: B+tree leaf splits, root splits,
borrows and merges, and PGM flushes under both merge policies.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes import batching
from repro.indexes.btree import BPlusTree
from repro.indexes.pgm import PGMIndex

KEY_SPACE = 4000
#: Batch sizes on both sides of ``batching.MIN_BATCH`` (16): the small
#: ones take the loop fallback, the rest the batch path.
SIZES = (0, 1, 2, 9, 16, 17, 40, 130)


class SpyBTree(BPlusTree):
    """A B+tree that counts its structure changes (behaviour unchanged)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.smos = Counter()

    def _split(self, node, path):
        height = self._height
        self.smos["leaf_split"] += 1  # always entered at the leaf
        created = super()._split(node, path)
        if self._height > height:
            self.smos["root_split"] += 1
        return created

    def _borrow(self, parent, left_idx, from_left):
        self.smos["borrow"] += 1
        super()._borrow(parent, left_idx, from_left)

    def _merge(self, parent, left_idx):
        self.smos["merge"] += 1
        super()._merge(parent, left_idx)


def _scalar(index, call, args):
    """``call`` per element of ``args`` on the twin, with each op's
    record."""
    outs, records = [], []
    for arg in args:
        outs.append(call(*arg))
        records.append(index.last_op)
    return outs, records


def _assert_same(batch, twin, got, want, label):
    assert got == want, label
    assert batch.last_op == twin.last_op, label
    assert getattr(batch, "merge_count", None) == getattr(
        twin, "merge_count", None), label
    assert list(batch.meter._counts.items()) == list(
        twin.meter._counts.items()), label
    assert len(batch) == len(twin), label


def _drive(make, seed, steps):
    """Run one interleaved stream through a batch index and its scalar
    twin; returns the batch side for the caller's own assertions."""
    rng = random.Random(seed)
    loaded = sorted(rng.sample(range(KEY_SPACE), rng.choice((0, 5, 300))))
    batch, twin = make(), make()
    for index in (batch, twin):
        index.bulk_load([(k, k * 3) for k in loaded])
    present = set(loaded)
    for step in range(steps):
        size = rng.choice(SIZES)
        r = rng.random()
        label = f"seed={seed} step={step} size={size}"
        if r < 0.35:
            pairs = [(rng.randrange(KEY_SPACE), step) for _ in range(size)]
            if size >= 2:
                pairs[-1] = (pairs[0][0], -step)  # dup key inside the batch
            got = batch.insert_many(pairs)
            want, _ = _scalar(twin, twin.insert, pairs)
            _assert_same(batch, twin, got, want, f"insert {label}")
            present.update(k for k, _ in pairs)
        elif r < 0.55:
            # Scalar on both sides: structure changes between batches.
            pool = sorted(present)
            for _ in range(min(size, 40)):
                key = (rng.choice(pool) if pool and rng.random() < 0.8
                       else rng.randrange(KEY_SPACE))
                assert batch.delete(key) == twin.delete(key), label
                present.discard(key)
            _assert_same(batch, twin, None, None, f"delete {label}")
        elif r < 0.9:
            pool = sorted(present)
            keys = [rng.choice(pool) if pool and rng.random() < 0.7
                    else rng.randrange(-5, KEY_SPACE + 5)  # missing keys too
                    for _ in range(size)]
            made = batch._lookup_batch(keys)
            got = batch.lookup_many(keys)
            want, records = _scalar(twin, twin.lookup, [(k,) for k in keys])
            _assert_same(batch, twin, got, want, f"lookup {label}")
            if made is not None:
                assert [made.make_record(i) for i in range(size)] == records, \
                    f"lookup records {label}"
        else:
            for _ in range(size % 7):
                start = rng.randrange(KEY_SPACE)
                assert batch.range_scan(start, 9) == twin.range_scan(start, 9)
            _assert_same(batch, twin, None, None, f"scan {label}")
    assert batch.range_scan(-10, 10**9) == twin.range_scan(-10, 10**9)
    assert batch.debug_validate() == []
    return batch


PGM_CONFIGS = {
    "logarithmic": dict(buffer_size=8, epsilon=4),
    "tiered": dict(buffer_size=8, epsilon=4, merge_policy="tiered",
                   tier_fanout=3),
    "one-slot-buffer": dict(buffer_size=1, epsilon=2),
    "strict-duplicates": dict(buffer_size=8, epsilon=4,
                              check_duplicates=True),
}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fanout=st.sampled_from((4, 5, 8, 32)))
def test_btree_batches_match_the_scalar_twin(seed, fanout):
    _drive(lambda: SpyBTree(fanout=fanout), seed, steps=40)


@pytest.mark.parametrize("config", sorted(PGM_CONFIGS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pgm_batches_match_the_scalar_twin(config, seed):
    index = _drive(lambda: PGMIndex(**PGM_CONFIGS[config]), seed, steps=40)
    if config != "strict-duplicates":
        assert index.merge_count > 0


def test_btree_stream_crosses_every_structure_change():
    """The driver really does put a leaf split, a root split, a borrow
    and a merge between batch calls (pinned on one seed, so a change to
    the driver that stops exercising one of them fails here)."""
    tree = _drive(lambda: SpyBTree(fanout=4), seed=11, steps=120)
    for kind in ("leaf_split", "root_split", "borrow", "merge"):
        assert tree.smos[kind] > 0, (kind, tree.smos)


@pytest.mark.parametrize("make", [
    lambda: SpyBTree(fanout=4),
    lambda: PGMIndex(**PGM_CONFIGS["logarithmic"]),
    lambda: PGMIndex(**PGM_CONFIGS["tiered"]),
], ids=["btree", "pgm", "pgm-tiered"])
def test_twin_parity_without_numpy(make, monkeypatch):
    """Twin parity when no array is admitted (the id is on the test
    floor and keeps its name): ``int64_cache`` refuses everything, so
    PGM keeps to its scalar paths for good; B+tree ranks Python ints
    either way."""
    monkeypatch.setattr(batching, "int64_cache", lambda values: None)
    _drive(make, seed=3, steps=60)


@pytest.mark.parametrize("min_batch", [1, 10**6])
def test_twin_parity_at_other_min_batch(min_batch, monkeypatch):
    """``MIN_BATCH = 1`` sends even one-key calls down the batch path;
    a huge value sends every call down the loop fallback."""
    monkeypatch.setattr(batching, "MIN_BATCH", min_batch)
    _drive(lambda: SpyBTree(fanout=5), seed=5, steps=60)
    _drive(lambda: PGMIndex(**PGM_CONFIGS["logarithmic"]), seed=5, steps=60)


@pytest.mark.parametrize("policy", ["logarithmic", "tiered"])
def test_pgm_batch_starting_one_short_of_a_flush(policy):
    """The first pair of the batch fills the buffer, so the merge runs
    after op 0 — and again wherever the scalar loop would flush."""
    config = PGM_CONFIGS[policy]

    def one_short():
        index = PGMIndex(**config)
        for key in range(config["buffer_size"] - 1):
            index.insert(key * 10, key)
        assert len(index._buffer) == config["buffer_size"] - 1
        return index

    batch, twin = one_short(), one_short()
    pairs = [(1000 + i, i) for i in range(20)]
    pairs[5] = pairs[4]  # a repeat adds no buffer entry: shifts later flushes
    got = batch.insert_many(pairs)
    want, records = _scalar(twin, twin.insert, pairs)
    _assert_same(batch, twin, got, want, policy)
    assert [i for i, rec in enumerate(records) if rec.smo] == [0, 9, 17]
    assert batch.run_sizes() == twin.run_sizes()
    assert batch._buffer == twin._buffer
    # Each op's record, read as the last op of a batch that ends there.
    for end, rec in enumerate(records, 1):
        prefix = one_short()
        prefix.insert_many(pairs[:end])
        assert prefix.last_op == rec, (policy, end)
