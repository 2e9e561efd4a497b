"""PGM-Index: contract conformance plus LSM-run behaviour."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.pgm import PGMIndex, _StaticPGM
from repro.core.cost import TRAIN_KEY, CostMeter
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
    with pytest.raises(ValueError):
        PGMIndex(epsilon=0)


def test_buffer_size_validation():
    """Level capacities are ``buffer_size · 2^level``: with a zero
    buffer no level could hold a flushed run."""
    with pytest.raises(ValueError, match="buffer_size"):
        PGMIndex(buffer_size=0)


# -- where a bulk load puts its run ------------------------------------------


@pytest.mark.parametrize("buffer_size, n, level", [
    (256, 0, None), (256, 1, 0), (256, 255, 0), (256, 256, 0),
    (256, 257, 1), (256, 10_000, 6),
    (1, 1, 0), (1, 2, 1), (1, 3, 2), (1, 4, 2), (1, 5, 3),
    (3, 3, 0), (3, 4, 1), (3, 6, 1), (3, 7, 2), (3, 12, 2), (3, 13, 3),
])
def test_load_places_the_run_at_the_level_that_holds_it(buffer_size, n,
                                                         level):
    idx = PGMIndex(buffer_size=buffer_size)
    idx.bulk_load([(i, i) for i in range(n)])
    if level is None:
        assert idx.run_sizes() == []
    else:  # the first level with buffer_size * 2**level >= n
        assert buffer_size << level >= n
        assert level == 0 or buffer_size << (level - 1) < n
        assert idx.run_sizes() == [0] * level + [n]
    assert idx.debug_validate() == []
    assert [idx.lookup(i) for i in range(n)] == list(range(n))


def test_first_flush_trains_the_same_keys_whatever_was_loaded():
    """The first flush after a load segments the buffer alone: its
    ``TRAIN_KEY`` units do not grow with the loaded run."""
    fresh = [(2**41 + 7 * i, i) for i in range(256)]
    trained = []
    for n in (257, 5_000, 50_000):
        idx = PGMIndex()
        idx.bulk_load(_uniform_items(n, seed=n))
        before = idx.meter.total_units(TRAIN_KEY)
        for key, value in fresh:
            idx.insert(key, value)
        assert idx.merge_count == 1
        assert idx.run_sizes()[0] == 256
        trained.append(idx.meter.total_units(TRAIN_KEY) - before)
    assert trained[0] >= 256
    assert trained == [trained[0]] * 3


def test_tiered_keeps_the_loaded_run_at_position_zero():
    idx = PGMIndex(merge_policy="tiered")
    idx.bulk_load(_uniform_items(10_000, seed=6))
    assert idx.run_sizes() == [10_000]
    assert idx.debug_validate() == []


@pytest.mark.parametrize("policy", ["logarithmic", "tiered"])
def test_loaded_run_keeps_the_doors_key_column(policy):
    """A load hands its run the int64 column ``bulk_load``'s door made,
    so the first batch finds it; a run a flush makes builds its own on
    its first batch."""
    idx = PGMIndex(merge_policy=policy)
    items = _uniform_items(5_000, seed=8)
    idx.bulk_load(items)
    (run,) = [r for r in idx._runs if r is not None]
    column = run.np_keys
    assert column is not None and column.tolist() == [k for k, _ in items]
    keys = [k for k, _ in items[::97]]
    assert idx.lookup_many(keys) == [v for _, v in items[::97]]
    assert run.np_keys is column
    for key in range(1, 2 * idx.buffer_size, 2):
        idx.insert(key, -key)
    flushed = idx._runs[0]
    assert flushed is not run and flushed.np_keys is None
    assert idx.lookup_many(keys) == [v for _, v in items[::97]]
    assert flushed.np_keys.tolist() == flushed.keys


_DEAD = object()  # the model's tombstone


class _LevelModel:
    """The logarithmic method over dicts: a write buffer and one dict
    per level, newest first; a flush carries the buffer up, merging
    every occupied level it meets, into the first empty level whose
    capacity ``buffer_size * 2**level`` holds it."""

    def __init__(self, buffer_size, items):
        self.buffer_size = buffer_size
        self.buffer = {}
        self.levels = []
        if items:
            level = 0
            while buffer_size << level < len(items):
                level += 1
            self.levels = [{} for _ in range(level)] + [dict(items)]

    def get(self, key):
        for run in (self.buffer, *self.levels):
            if key in run:
                return None if run[key] is _DEAD else run[key]
        return None

    def live(self):
        out = {}
        for run in reversed(self.levels):
            out.update(run)
        out.update(self.buffer)
        return sorted((k, v) for k, v in out.items() if v is not _DEAD)

    def put(self, key, value):
        self.buffer[key] = value
        if len(self.buffer) < self.buffer_size:
            return
        carry, self.buffer = self.buffer, {}
        level = 0
        while True:
            if level == len(self.levels):
                self.levels.append({})
            if self.levels[level]:
                carry = {**self.levels[level], **carry}
                self.levels[level] = {}
            elif len(carry) <= self.buffer_size << level:
                self.levels[level] = carry
                return
            level += 1

    def run_sizes(self):
        return [len(run) for run in self.levels]


_KEYS = 48
_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, _KEYS - 1)),
    st.tuples(st.just("delete"), st.integers(0, _KEYS - 1)),
    st.tuples(st.just("insert_many"),
              st.lists(st.integers(0, _KEYS - 1), max_size=12)),
)


@settings(max_examples=60, deadline=None)
@given(buffer_size=st.integers(1, 6),
       loaded=st.lists(st.integers(0, _KEYS - 1), unique=True, max_size=40),
       ops=st.lists(_op, max_size=50),
       check_duplicates=st.booleans())
def test_logarithmic_method_agrees_with_a_dict_model(
        buffer_size, loaded, ops, check_duplicates):
    """Loaded or empty, through scalar inserts, ``insert_many`` and
    deletes: lookups, ``lookup_many``, ``range_scan`` and ``run_sizes``
    match the model, and ``debug_validate()`` is clean after every
    flush."""
    items = [(k, 1000 + k) for k in sorted(loaded)]
    idx = PGMIndex(buffer_size=buffer_size, check_duplicates=check_duplicates)
    idx.bulk_load(items)
    model = _LevelModel(buffer_size, items)
    keys = list(range(_KEYS))

    def check():
        want = [model.get(k) for k in keys]
        assert [idx.lookup(k) for k in keys] == want
        assert idx.lookup_many(keys) == want
        assert idx.range_scan(0, _KEYS) == model.live()
        assert idx.debug_validate() == []

    def insert(key, value):
        if check_duplicates and model.get(key) is not None:
            return False
        model.put(key, value)
        return True

    check()
    for step, (kind, arg) in enumerate(ops):
        flushes = idx.merge_count
        if kind == "insert":
            assert idx.insert(arg, step) == insert(arg, step)
        elif kind == "insert_many":
            pairs = [(k, step * 100 + i) for i, k in enumerate(arg)]
            want = [insert(k, v) for k, v in pairs]
            assert idx.insert_many(pairs) == want
        else:
            present = model.get(arg) is not None
            assert idx.delete(arg) == present
            if present:
                model.put(arg, _DEAD)
        assert idx.run_sizes() == model.run_sizes()
        if idx.merge_count != flushes:
            check()
    check()
