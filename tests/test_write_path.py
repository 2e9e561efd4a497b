"""The write path's C-speed bodies against the loops they replaced.

``tests/search_reference.py`` keeps each retired body; the contract is
bit-identity — return value, every slot written, node ids, meter
counters *and their order* — so which body runs can never show in a
result fingerprint, a charge table or a replayed corpus stream.  The
last two sections guard the engine's half of the change: the loop of a
run nobody watches must leave behind what the observed per-op loop
does, on every registered index, and ``run_oracle`` checks the same on
every stream it replays.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import runner
from repro.core.cost import PHASE_COLLISION, CostMeter
from repro.core.instance import IndexInstance
from repro.core.opstream import OpStream, generate_stream, run_oracle, run_profile
from repro.core.registry import REGISTRY
from repro.core.runner import ExecutionEngine, ExecutionObserver
from repro.core.telemetry import EVENT_INSTANT, TraceRecorder
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    Operation,
    Workload,
    deletion_workload,
    mixed_workload,
    scan_workload,
)
from repro.datasets import registry as datasets
from repro.indexes import batching, linear_model, lipp
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree
from repro.indexes.linear_model import LinearModel, binary_search_lower, binary_steps
from repro.indexes.lipp import LIPP
from repro.indexes.pgm import _TOMBSTONE, PGMIndex, _merge_columns, _StaticPGM
from tests import search_reference as reference

ALL_NAMES = [spec.name for spec in REGISTRY]


def _counts(index):
    return list(index.meter._counts.items())


# ---------------------------------------------------------------------------
# (a) Probe counts from a table
# ---------------------------------------------------------------------------

def _simulated(width, ranks):
    ranks = np.asarray(ranks, dtype=np.int64)
    return batching.simulate_binary(
        np.zeros(len(ranks), dtype=np.int64),
        np.full(len(ranks), width, dtype=np.int64), ranks).tolist()


def test_binary_steps_every_small_window():
    """Table rows, the loop above them, the reference loop and the
    batch kernels' ``simulate_binary`` agree on every ``(width, rank)``
    up to 600 — both sides of the table's last row."""
    assert linear_model._STEP_ROW_MAX < 600
    for width in range(601):
        want = [reference.binary_steps(width, r) for r in range(width + 1)]
        assert [binary_steps(width, r) for r in range(width + 1)] == want
        assert _simulated(width, range(width + 1)) == want


def test_binary_steps_wide_windows():
    rng = random.Random(22)
    for _ in range(60):
        width = rng.randrange(601, 10**6)
        ranks = [0, 1, width // 2, width - 1, width,
                 *(rng.randrange(width + 1) for _ in range(40))]
        want = [reference.binary_steps(width, r) for r in ranks]
        assert [binary_steps(width, r) for r in ranks] == want
        assert _simulated(width, ranks) == want


def test_binary_steps_is_translation_free():
    """A window's probes depend on its width and the rank inside it,
    not on where in the array it starts — what lets ``locate`` read
    them off the table."""
    rng = random.Random(5)
    keys = sorted(rng.sample(range(10**6), 3000))
    for _ in range(300):
        lo = rng.randrange(len(keys))
        hi = rng.randrange(lo, len(keys) + 1)
        key = rng.randrange(10**6)
        a, b, steps = lo, hi, 0
        while a < b:
            steps += 1
            mid = (a + b) // 2
            if keys[mid] < key:
                a = mid + 1
            else:
                b = mid
        rank = bisect_left(keys, key, lo, hi)
        assert rank == a
        assert binary_steps(hi - lo, rank - lo) == steps


def _window_loop(lo, hi, r):
    """The scalar lower-bound loop over ``[lo, hi)`` for a key of rank
    ``r`` in the whole array, which may lie outside the window."""
    steps = 0
    while lo < hi:
        steps += 1
        mid = (lo + hi) // 2
        if mid < r:
            lo = mid + 1
        else:
            hi = mid
    return steps


def test_simulate_binary_table_edges():
    """Windows anywhere in the array, ranks below ``lo`` and above
    ``hi``, empty windows, and widths on both sides of the table's last
    row in one array (table reads and the loop for the wide ones): the
    count the loop makes, as int64 so sums of them never wrap."""
    top = linear_model._STEP_ROW_MAX
    rng = random.Random(29)
    lo, hi, r = [], [], []
    for _ in range(4000):
        start = rng.randrange(10**6)
        width = rng.choice((0, 0, 1, top, top + 1, rng.randrange(top + 1),
                            rng.randrange(top + 1, 10**5)))
        rank = rng.choice((start - rng.randrange(1, 10**6),
                           start + width + rng.randrange(1, 10**3),
                           start, start + width,
                           start + rng.randrange(width + 1)))
        lo.append(start)
        hi.append(start + width)
        r.append(rank)
    widths = [b - a for a, b in zip(lo, hi)]
    assert min(widths) == 0 and max(widths) > top
    assert any(x < a for a, x in zip(lo, r))
    assert any(x > b for b, x in zip(hi, r))
    got = batching.simulate_binary(*(np.asarray(col, dtype=np.int64)
                                     for col in (lo, hi, r)))
    assert got.dtype == np.int64
    assert got.tolist() == list(map(_window_loop, lo, hi, r))
    # Only narrow windows, only wide ones, none at all.
    for keep in ([w <= top for w in widths], [w > top for w in widths],
                 [False] * len(widths)):
        cols = [np.asarray([x for x, k in zip(col, keep) if k], dtype=np.int64)
                for col in (lo, hi, r)]
        got = batching.simulate_binary(*cols)
        assert got.dtype == np.int64
        assert got.tolist() == list(map(_window_loop, *map(list, cols)))


@given(st.lists(st.integers(0, 2**64), max_size=700), st.integers(0, 2**64))
@settings(max_examples=80, deadline=None)
def test_binary_search_lower_matches_the_loop(keys, key):
    keys.sort()
    a, b = CostMeter(), CostMeter()
    assert (binary_search_lower(keys, key, a)
            == reference.binary_search_lower(keys, key, b))
    assert list(a._counts.items()) == list(b._counts.items())


@pytest.mark.parametrize("dataset", ["covid", "osm"])
@pytest.mark.parametrize("epsilon", [4, 64])
def test_locate_matches_the_window_loops(dataset, epsilon):
    keys = datasets.get(dataset).generate(6000, seed=1)
    run = _StaticPGM(keys, list(keys), epsilon, CostMeter())
    assert len(run.first_keys) == len(run.levels) - 1
    rng = random.Random(9)
    probes = ([k + d for k in rng.sample(keys, 1200) for d in (-1, 0, 1)]
              + [0, keys[0] - 1, keys[-1] + 1, 2**64, 2**70])
    for key in probes:
        assert run.locate(key) == reference.pgm_locate(run, key)


def test_locate_on_an_empty_and_a_one_key_run():
    for keys in ([], [7]):
        run = _StaticPGM(list(keys), list(keys), 8, CostMeter())
        for key in (0, 7, 9):
            assert run.locate(key) == reference.pgm_locate(run, key)


@pytest.mark.parametrize("fanout", [4, 8, 32])
def test_descend_matches_the_loop(fanout):
    rng = random.Random(fanout)
    keys = sorted(rng.sample(range(1, 10**6), 4000))
    a, b = BPlusTree(fanout=fanout), BPlusTree(fanout=fanout)
    for tree in (a, b):
        tree.bulk_load([(k, k) for k in keys[::2]])
        for k in keys[1::2][:700]:  # splits: separators that are stored keys
            tree.insert(k, k)
        tree.meter.reset()
    for key in rng.sample(keys, 600) + [0, 10**6, keys[0], keys[-1]]:
        pa, pb, ia, ib = [], [], [], []
        leaf_a = a._descend(key, pa, ia)
        leaf_b = reference.btree_descend(b, key, pb, ib)
        assert (leaf_a.node_id, pa) == (leaf_b.node_id, pb)
        assert [n.node_id for n in ia] == [n.node_id for n in ib]
        assert _counts(a) == _counts(b)


# ---------------------------------------------------------------------------
# (b) PGM merges by columns
# ---------------------------------------------------------------------------

_values = st.one_of(st.integers(0, 99), st.just(_TOMBSTONE))
_run = st.dictionaries(st.integers(0, 60), _values, max_size=40)


def _columns(run):
    keys = sorted(run)
    return keys, [run[k] for k in keys]


def _rows(keys, values):
    return list(zip(keys, values))


@given(_run, _run)
@example({}, {})
@example({}, {3: 1})
@example({3: 1}, {})
@example({3: 1}, {3: _TOMBSTONE})                 # a tombstone meets its victim
@example({3: _TOMBSTONE}, {3: 2})                 # and is itself shadowed
@example({5: 0}, {k: 1 for k in range(10)})       # spill longer than run
@example({k: 0 for k in range(10)}, {0: 1, 9: 1})  # ties at both ends
@settings(max_examples=300, deadline=None)
def test_merge_columns_is_the_dict_union(old, new):
    old_cols, new_cols = _columns(old), _columns(new)
    before = ([*old_cols[0]], [*old_cols[1]], [*new_cols[0]], [*new_cols[1]])
    keys, values = _merge_columns(*old_cols, *new_cols)
    assert _rows(keys, values) == reference.merge_items(
        sorted(old.items()), sorted(new.items()))
    # Fresh lists: the inputs (a live run's columns) are left alone.
    assert (*old_cols, *new_cols) == before
    assert keys is not old_cols[0] and keys is not new_cols[0]
    assert values is not old_cols[1] and values is not new_cols[1]


@given(st.lists(_run, min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_tiered_victims_fold_oldest_first(runs):
    """``_merge_down_tiered`` folds its victims (``runs``, newest
    first) from the oldest up, so every newer run shadows the rest."""
    keys, values = _columns(runs[-1])
    for run in reversed(runs[:-1]):
        keys, values = _merge_columns(keys, values, *_columns(run))
    union = {}
    for run in reversed(runs):
        union.update(run)
    assert _rows(keys, values) == sorted(union.items())


@pytest.mark.parametrize("policy", ["logarithmic", "tiered"])
def test_pgm_merges_keep_shadowing_through_the_levels(policy):
    """Inserts, overwrites and deletes through many flushes against a
    dict, tombstones riding down past runs that still hold the key."""
    rng = random.Random(policy)
    index = PGMIndex(buffer_size=4, epsilon=4, merge_policy=policy,
                     check_duplicates=True)
    index.bulk_load([(k, k) for k in range(0, 400, 4)])
    model = {k: k for k in range(0, 400, 4)}
    for step in range(1500):
        k = rng.randrange(400)
        roll = rng.random()
        if roll < 0.45:
            assert index.insert(k, step) == (k not in model)
            model.setdefault(k, step)
        elif roll < 0.6:
            assert index.update(k, -step) == (k in model)
            if k in model:
                model[k] = -step
        elif roll < 0.9:
            assert index.delete(k) == (k in model)
            model.pop(k, None)
        else:
            assert index.lookup(k) == model.get(k)
    assert index.merge_count > 100
    assert index.range_scan(0, 500) == sorted(model.items())
    assert index.debug_validate() == []


# ---------------------------------------------------------------------------
# Fix: a PGM delete whose tombstone flushes the buffer is an SMO
# ---------------------------------------------------------------------------

def test_pgm_delete_reports_the_flush_it_ran():
    index = PGMIndex(buffer_size=4)
    index.bulk_load([(k, k) for k in range(100)])
    flags = []
    for k in range(8):
        merges = index.merge_count
        assert index.delete(k)
        rec = index.last_op
        assert (rec.op, rec.found) == ("delete", True)
        assert rec.smo == (index.merge_count > merges)
        assert rec.nodes_created == (1 if rec.smo else 0)
        flags.append(rec.smo)
    assert flags == [False, False, False, True] * 2
    assert not index.delete(0)
    assert (index.last_op.found, index.last_op.smo) == (False, False)


class _SmoSeqs(ExecutionObserver):
    """The seq of every op the engine reports an SMO for."""

    def __init__(self):
        self.seqs = []

    def on_smo(self, event):
        self.seqs.append(event.seq)


def test_pgm_delete_smo_reaches_the_engine():
    """Through the engine: the ``on_smo`` hooks hear the two flushes and
    a ``TraceRecorder`` marks both; an ``on_smo`` hook alone (the
    unrecorded loop) hears them too."""
    ops = [Operation(DELETE, k) for k in range(8)]
    workload = Workload("deletes", [(k, k) for k in range(100)], ops)
    index = PGMIndex(buffer_size=4)
    trace, smos = TraceRecorder(), _SmoSeqs()
    ExecutionEngine(observers=[trace, smos]).run(index, workload)
    assert index.merge_count == 2
    assert smos.seqs == [3, 7]
    instants = [e for e in trace.events if e["kind"] == EVENT_INSTANT]
    assert [(e["seq"], e["nodes_created"]) for e in instants] == [(3, 1), (7, 1)]
    alone = _SmoSeqs()
    ExecutionEngine(observers=[alone]).run(PGMIndex(buffer_size=4), workload)
    assert alone.seqs == [3, 7]


# ---------------------------------------------------------------------------
# (c) ALEX shifts by slices
# ---------------------------------------------------------------------------

def _leaf(present, keys):
    """An ALEX (default bounds) whose root is one leaf in the given
    state, the meter at zero."""
    index = ALEX()
    node = index._root = reference.alex_leaf(index, present, keys)
    index._size = len(keys)
    index.meter.reset()
    return index, node


def _assert_place_matches(present, keys, key):
    a, node_a = _leaf(present, keys)
    b, node_b = _leaf(present, keys)
    pos = bisect_left(node_a.keys, key)
    got = a._place(node_a, pos, key, "new")
    want = reference.alex_place(b, node_b, pos, key, "new")
    assert got == want
    for field in ("keys", "values", "present", "num_keys"):
        assert getattr(node_a, field) == getattr(node_b, field), field
    assert node_a.model == node_b.model  # a full leaf retrains
    assert _counts(a) == _counts(b)
    assert a._node_serial == b._node_serial


@st.composite
def _leaf_states(draw):
    present = draw(st.lists(st.booleans(), min_size=8, max_size=72))
    n = sum(present)
    # A narrow key range: dense runs, long shifts, keys that tie.
    pool = draw(st.lists(st.integers(0, 4 * len(present)), min_size=n + 1,
                         max_size=n + 1, unique=True))
    key = pool.pop(draw(st.integers(0, n)))
    return present, sorted(pool), key


@given(_leaf_states())
@settings(max_examples=400, deadline=None)
def test_place_matches_the_slot_by_slot_mover(state):
    _assert_place_matches(*state)


@pytest.mark.parametrize("present, key", [
    ([True] * 8 + [False] * 4, 1),       # no gap to the left
    ([True] * 8 + [False] * 4, 15),      # the right gap is next door
    ([False] * 4 + [True] * 8, 23),      # no gap to the right: past the end
    ([False] * 4 + [True] * 8, 15),      # no gap to the right: inside
    ([False, True, True, True, True, True, False, False], 5),  # a tie goes right
    ([False, True, True, True, True, True, True, False], 9),   # left is nearer
    ([True] * 12, 7),                    # a full leaf expands, then places
    ([True] * 12, 0),
    ([True] * 12, 99),
    ([False] * 8, 3),                    # an empty leaf
])
def test_place_at_the_edges(present, key):
    keys = [2 * i for i in range(sum(present))]
    _assert_place_matches(present, keys, key)


def test_place_through_inserts_until_smos():
    """Whole inserts, SMOs included: an index whose ``_place`` is the
    reference mover stays slot for slot beside the shipped one."""
    class Reference(ALEX):
        def _place(self, node, pos, key, value):
            return reference.alex_place(self, node, pos, key, value)

    rng = random.Random(3)
    keys = datasets.get("osm").generate(3000, seed=1)
    rng.shuffle(keys)
    a = ALEX(target_leaf_keys=64, max_data_keys=512)
    b = Reference(target_leaf_keys=64, max_data_keys=512)
    for index in (a, b):
        index.bulk_load(sorted((k, k) for k in keys[:1000]))
    for k in keys[1000:]:
        assert a.insert(k, k) and b.insert(k, k)
        assert a.last_op == b.last_op
    assert a.smo_count == b.smo_count > 10
    assert _counts(a) == _counts(b)
    for na, nb in zip(a.data_nodes(), b.data_nodes()):
        assert (na.node_id, na.keys, na.values, na.present) == (
            nb.node_id, nb.keys, nb.values, nb.present)


# ---------------------------------------------------------------------------
# (d) LIPP's two-key node
# ---------------------------------------------------------------------------

def _node_fields(node):
    return (node.node_id, node.slope.hex(), node.intercept.hex(),
            node.anchor, node.tags, list(node), node.size,
            node.build_size, node.num_inserts, node.num_conflicts)


def _assert_pair_matches(density, a, b):
    shipped, twin = LIPP(density=density), LIPP(density=density)
    for index in (shipped, twin):
        index.meter.reset()
    with shipped.meter.phase(PHASE_COLLISION):
        got = shipped._build_pair(a, b)
    with twin.meter.phase(PHASE_COLLISION):
        want = reference.lipp_build_pair(twin, a, b)
    assert _node_fields(got) == _node_fields(want)
    assert got.tags.count(1) == 2  # two data slots, no child
    assert _counts(shipped) == _counts(twin)
    assert (shipped._node_serial, shipped._n_nodes, shipped._n_slots) == (
        twin._node_serial, twin._n_nodes, twin._n_slots)


_pair_keys = st.one_of(
    st.integers(0, 2**40),
    st.integers(2**63 - 2**12, 2**63 + 2**12),
    st.integers(2**64, 2**70),
    st.integers(-2**62, 0),
)


@pytest.mark.parametrize("density", [0.5, 0.05, 1.0])
@given(_pair_keys, st.one_of(st.integers(1, 3), st.integers(1, 2**66)))
@settings(max_examples=150, deadline=None)
def test_build_pair_matches_build_node(density, low, gap):
    _assert_pair_matches(density, (low, "a"), (low + gap, "b"))


def test_build_pair_falls_back_when_slots_collide(monkeypatch):
    """No pair of distinct keys lands on one slot (a quarter and three
    quarters of at least 16), so the collision is staged: the pair's
    own model comes back flat, once.  The generic builder then builds
    the node, and nothing of the first attempt — no id, no charge —
    is left behind."""
    real, calls = lipp.fmcd_model, []

    def flat_once(keys, n_slots):
        calls.append(keys)
        if len(calls) == 1:
            return LinearModel(0.0, 3.0, keys[0])
        return real(keys, n_slots)

    shipped, twin = LIPP(), LIPP()
    want = twin._build_node([(5, "a"), (9, "b")])
    monkeypatch.setattr(lipp, "fmcd_model", flat_once)
    got = shipped._build_pair((5, "a"), (9, "b"))
    assert len(calls) == 2
    assert _node_fields(got) == _node_fields(want)
    assert _counts(shipped) == _counts(twin)
    assert shipped._node_serial == twin._node_serial


def test_lipp_inserts_chain_pairs_like_the_generic_builder():
    class Reference(LIPP):
        def _build_pair(self, a, b):
            return reference.lipp_build_pair(self, a, b)

    keys = datasets.get("osm").generate(4000, seed=1)
    random.Random(4).shuffle(keys)
    a, b = LIPP(), Reference()
    for index in (a, b):
        index.bulk_load(sorted((k, k) for k in keys[:2000]))
    for k in keys[2000:]:
        assert a.insert(k, k) and b.insert(k, k)
        assert a.last_op == b.last_op
    assert a.chain_count == b.chain_count > 100
    assert _counts(a) == _counts(b)
    assert a._node_serial == b._node_serial
    assert a.memory_usage() == b.memory_usage()
    assert a.range_scan(0, 5000) == b.range_scan(0, 5000)


# ---------------------------------------------------------------------------
# (d') ALEX scans by slices
# ---------------------------------------------------------------------------

_DENSITIES = [(0.1, 0.2, 0.3), (0.6, 0.7, 0.8), (0.85, 0.9, 0.95)]


@st.composite
def _scanned_alex(draw):
    """An ALEX with small or larger leaves at a drawn density, bulk
    loaded, then grown and thinned (gaps, chains added by insert,
    emptied leaves), and a drawn scan start."""
    chains = draw(st.booleans())
    leaf = draw(st.sampled_from([32, 256]))
    index = ALEX(target_leaf_keys=leaf, max_data_keys=2 * leaf,
                 density_bounds=draw(st.sampled_from(_DENSITIES)),
                 duplicate_mode="linked_list" if chains else None)
    # Drawn as a count and a seed: hypothesis keeps drawn lists short,
    # and a few hundred keys are what span several leaves.
    rng = draw(st.randoms(use_true_random=False))
    keys = rng.sample(range(3000), draw(st.integers(0, 600)))
    items = [(k, -k) for k in keys]
    if chains and keys:  # duplicates, chained at bulk load
        items += [(k, k) for k in rng.choices(keys, k=rng.randrange(20))]
    index.bulk_load(sorted(items, key=lambda kv: kv[0]))
    for _ in range(rng.randrange(80)):
        k = rng.randrange(3000)
        index.insert(k, k + 1)
    for _ in range(rng.randrange(300)):
        index.delete(rng.randrange(3000))
    return index, draw(st.integers(-5, 3005))


def _assert_scan_matches(index, start, count):
    index.meter.reset()
    got = index.range_scan(start, count)
    charged = _counts(index)
    index.meter.reset()
    want = reference.alex_range_scan(index, start, count)
    assert got == want, (start, count)
    assert charged == _counts(index), (start, count)


@given(_scanned_alex())
@settings(max_examples=200, deadline=None)
def test_range_scan_matches_the_slot_by_slot_walk(case):
    index, drawn = case
    stored = [k for k, _ in index.items()]
    starts = [drawn, -1, 3001]  # in range, below the minimum, above the maximum
    if stored:
        gaps = [k + 1 for k in stored if k + 1 not in set(stored)][:3]
        starts += [stored[0] - 1, stored[0], stored[-1], stored[-1] + 1, *gaps]
    for start in starts:
        for count in (-1, 0, 1, 2, 33, len(stored) + 5):
            _assert_scan_matches(index, start, count)


def test_range_scan_cuts_a_chain_and_crosses_leaves():
    index = ALEX(target_leaf_keys=32, max_data_keys=64,
                 duplicate_mode="linked_list")
    index.bulk_load([(k, k) for k in range(0, 600, 3)])
    for v in range(5):
        index.insert(300, -v)  # a chain of six under key 300
    assert len(index.data_nodes()) > 4
    for start, count in ((299, 3), (300, 4), (300, 6), (300, 7), (0, 400),
                         (1, 150), (598, 1), (599, 1)):
        _assert_scan_matches(index, start, count)
    assert index.range_scan(300, 4) == [(300, 300), (300, 0), (300, -1),
                                        (300, -2)]


# ---------------------------------------------------------------------------
# (e) The unobserved loop equals the observed one
# ---------------------------------------------------------------------------

class Watch(ExecutionObserver):
    """Forces the per-op loop: an attached ``on_op`` is all it takes."""

    def on_op(self, event, latency):
        pass


def _streams(spec, keys):
    """Read-Only, Balanced, scan and delete-heavy — as far as the index
    supports them."""
    yield mixed_workload(keys, 0.0, n_ops=1500, seed=2)
    if spec.supports_insert:
        yield mixed_workload(keys, 0.5, n_ops=1500, seed=2)
    if spec.supports_range:
        yield scan_workload(keys, 12, 300, seed=2)
    if spec.supports_delete:
        yield deletion_workload(keys, 0.7, n_ops=1500, seed=2)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unobserved_run_equals_forced_per_op_run(name, monkeypatch):
    spec = REGISTRY.get(name)
    samples = []  # every list a run summarised: lookups, then writes
    summarise = runner.LatencyStats.from_samples

    def recording(run_samples):
        samples.append(list(run_samples))
        return summarise(run_samples)

    monkeypatch.setattr(runner.LatencyStats, "from_samples",
                        staticmethod(recording))
    keys = datasets.get("osm").generate(2400, seed=1)
    for workload in _streams(spec, keys):
        for every in (7, 101):
            label = f"{name} {workload.name} /{every}"
            alone, watched = IndexInstance(spec.factory()), IndexInstance(spec.factory())
            del samples[:]
            a = ExecutionEngine(sample_every=every).run(alone, workload)
            b = ExecutionEngine(sample_every=every,
                                observers=[Watch()]).run(watched, workload)
            left, right = run_profile(a, alone), run_profile(b, watched)
            for part in left:
                assert left[part] == right[part], f"{label}: {part}"
            assert samples[:2] == samples[2:] and len(samples) == 4, label
            assert sum(map(len, samples[:2])) == sum(
                op.op != SCAN for op in workload.operations[::every]), label
            assert a.insert_stats.inserts == sum(
                op.op == INSERT for op in workload.operations), label
            assert alone.index.last_op == watched.index.last_op, label


def test_plain_loop_feeds_on_smo_hooks_of_attached_observers():
    """An observer with only ``on_smo`` leaves the run unobserved; it
    still hears of every SMO, with the event the per-op loop builds."""
    class Smos(ExecutionObserver):
        def __init__(self):
            self.seen = []

        def on_smo(self, event):
            self.seen.append((event.seq, event.op.key, event.ok,
                              event.record.smo, event.t_ns))

    class Both(Smos):
        def on_op(self, event, latency):
            pass

    keys = datasets.get("covid").generate(3000, seed=1)
    workload = mixed_workload(keys, 0.5, n_ops=2500, seed=6)
    plain, per_op = Smos(), Both()
    make = lambda: REGISTRY.create("B+tree", fanout=8)  # noqa: E731
    ExecutionEngine(sample_every=3, observers=[plain]).run(make(), workload)
    ExecutionEngine(sample_every=3, observers=[per_op]).run(make(), workload)
    assert len(plain.seen) > 50
    assert plain.seen == per_op.seen
    assert any(t is not None for *_, t in plain.seen)  # a sampled SMO op


# ---------------------------------------------------------------------------
# The oracle's unobserved leg
# ---------------------------------------------------------------------------

def test_run_oracle_replays_unobserved_and_compares():
    spec = REGISTRY.get("B+tree")
    stream = generate_stream(spec, seed=4, n_ops=400, n_bulk=64)
    report = run_oracle(spec.factory, stream)
    assert report.ok and report.divergence == []


def test_run_oracle_flags_a_default_loop_that_diverges():
    """A batch kernel that undercharges is invisible to the observed
    per-op run; the unobserved replay resolves its lookup runs through
    it and lands on another clock."""
    class Undercharging(BPlusTree):
        def _lookup_batch(self, keys):
            batch = super()._lookup_batch(keys)
            if batch is not None:
                del batch.log.sites[0]
            return batch

    keys = list(range(0, 8000, 2))
    rng = random.Random(1)
    ops = [Operation(LOOKUP, rng.choice(keys)) for _ in range(3000)]
    stream = OpStream(index_name="B+tree", seed=0, bulk_keys=keys, ops=ops)
    assert run_oracle(BPlusTree, stream).ok
    report = run_oracle(Undercharging, stream)
    assert not report.ok
    assert report.failure_kind == "divergence"
    assert {"meter", "result"} <= set(report.divergence)
    assert "unobserved run differs" in report.describe()
