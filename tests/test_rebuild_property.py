"""Stage -> build -> catch-up under traffic, for every destination.

The multiplexer builds its secondary with one ``bulk_load`` of a staged
snapshot and replays a delta log of the writes the snapshot missed.
These tests interleave every kind of client op with hand-driven pump
steps across all five boundaries (staging, build, catch-up, verify,
cutover) and compare against a dict model; a clean run must also hand
back an index identical in size to a fresh bulk load.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import REGISTRY
from repro.core.workloads import payload
from repro.indexes.btree import BPlusTree
from repro.indexes.multiplex import BACKFILL, DONE, READY, MultiplexIndex

MIGRATABLE = [spec.name for spec in REGISTRY if spec.supports_migration]
KEY_SPACE = 600


def _attach(dst, model, chunk):
    primary = BPlusTree(fanout=8)
    primary.bulk_load(sorted(model.items()))
    return MultiplexIndex(primary, REGISTRY.get(dst).factory(), chunk=chunk,
                          pump_per_op=0)


def _finish(mux, model):
    for _ in range(10_000):
        if mux.phase == READY:
            break
        mux.pump()
    assert mux.phase == READY, [d.describe() for d in mux.divergences]
    mux.cutover()
    assert mux.phase == DONE
    assert list(mux.items()) == sorted(model.items())
    assert len(mux) == len(model)
    assert mux.debug_validate() == []
    served = mux.primary  # the rebuilt index, now serving
    if hasattr(served, "_walk_memory"):  # LIPP, B+tree: O(1) running totals
        assert served.memory_usage() == served._walk_memory()


@pytest.mark.parametrize("dst", MIGRATABLE)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 40),
       pump_every=st.integers(1, 3))
def test_interleaved_traffic_matches_the_model(dst, seed, chunk, pump_every):
    rng = random.Random(seed)
    model = {k: payload(k) for k in rng.sample(range(KEY_SPACE), 120)}
    mux = _attach(dst, model, chunk)
    phases = set()
    for i in range(260):
        key = rng.randrange(KEY_SPACE)
        r = rng.random()
        if r < 0.30:
            assert mux.insert(key, i) == (key not in model)
            model.setdefault(key, i)
        elif r < 0.45:
            assert mux.update(key, -i) == (key in model)
            if key in model:
                model[key] = -i
        elif r < 0.65 and mux.supports_delete:
            assert mux.delete(key) == (key in model)
            model.pop(key, None)
        elif r < 0.75:
            count = rng.randint(1, 20)
            want = sorted((k, v) for k, v in model.items() if k >= key)
            assert mux.range_scan(key, count) == want[:count]
        else:
            assert mux.lookup(key) == model.get(key)
        if i % pump_every == 0 and mux.phase != READY:
            phases.add("build" if mux.build_pending else mux.phase)
            mux.pump()
            assert not mux.divergences, mux.divergences[0].describe()
    assert BACKFILL in phases
    _finish(mux, model)


@pytest.mark.parametrize("dst", MIGRATABLE)
def test_reinserted_key_behind_and_updates_ahead_of_the_cursor(dst):
    model = {k: payload(k) for k in range(0, 400, 4)}
    mux = _attach(dst, model, chunk=16)
    mux.pump()
    mux.pump()
    cursor = mux.status()["cursor"]
    behind, ahead = 9, 300          # 9 is new, 300 is loaded
    assert behind < cursor <= ahead
    assert mux.insert(behind, 1)
    if mux.supports_delete:
        assert mux.delete(behind)
        assert mux.insert(behind, 2)
    assert mux.update(behind, 3)
    assert mux.update(ahead, 4)
    assert mux.update(ahead, 5)
    model[behind], model[ahead] = 3, 5
    while not mux.build_pending:
        mux.pump()
    # Staging is over: every key is behind the cursor now.
    assert mux.insert(399, 6) and mux.update(ahead, 7)
    model[399], model[ahead] = 6, 7
    logged = mux.status()["delta"]
    assert logged == (6 if mux.supports_delete else 4)
    assert mux.pump() == logged     # build + catch-up replays the log
    assert mux.status()["delta"] == 0 and mux.dual_writes == logged
    _finish(mux, model)


@pytest.mark.parametrize("dst", MIGRATABLE)
def test_quiet_rebuild_returns_bulk_load_quality(dst):
    """With no concurrent writes a rebuild *is* a bulk load: same
    items, same modelled footprint."""
    keys = sorted(random.Random(5).sample(range(1, 10_000_000), 1500))
    model = {k: payload(k) for k in keys}
    mux = _attach(dst, model, chunk=128)
    _finish(mux, model)
    direct = REGISTRY.get(dst).factory()
    direct.bulk_load(sorted(model.items()))
    assert mux.primary.memory_usage() == direct.memory_usage()
    assert mux.dual_writes == 0
