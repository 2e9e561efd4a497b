"""Benchmark runner and report helpers."""

import pytest

from repro.core import runner
from repro.core.report import bar, format_bytes, format_number, series, table
from repro.core.runner import (
    ExecutionEngine,
    ExecutionObserver,
    LatencyStats,
    execute,
)
from repro.core.workloads import (
    INSERT,
    Operation,
    Workload,
    deletion_workload,
    mixed_workload,
    scan_workload,
)
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree

KEYS = list(range(0, 20000, 4))


def test_execute_read_only():
    r = execute(BPlusTree(), mixed_workload(KEYS, 0.0, n_ops=500, seed=1))
    assert r.n_ops == 500
    assert r.virtual_ns > 0
    assert r.throughput_mops > 0
    assert r.lookup_latency.count > 0
    assert r.write_latency.count == 0
    assert r.memory.total > 0


def test_execute_counts_insert_stats():
    r = execute(ALEX(), mixed_workload(KEYS, 1.0, seed=2))
    assert r.insert_stats.inserts == len(KEYS) - len(KEYS) // 2
    avgs = r.insert_stats.averages()
    assert avgs["nodes_traversed"] >= 1


def test_execute_excludes_bulk_load_cost():
    wl = mixed_workload(KEYS, 0.0, n_ops=10, seed=3)
    r = execute(BPlusTree(), wl)
    # 10 lookups should cost microseconds, not the bulk-load millions.
    assert r.virtual_ns < 100_000


def test_execute_scan_workload():
    r = execute(BPlusTree(), scan_workload(KEYS, scan_size=20, n_scans=50, seed=4))
    assert r.scanned_entries == 20 * 50
    assert r.scan_keys_per_second > 0


def test_execute_delete_workload():
    r = execute(BPlusTree(), deletion_workload(KEYS, 0.5, n_ops=1000, seed=5))
    assert r.n_ops == 1000
    assert r.write_latency.count > 0


def test_latency_stats_percentiles():
    s = LatencyStats.from_samples(list(map(float, range(1, 1001))))
    assert s.p50 == pytest.approx(501, abs=2)
    assert s.p99 == pytest.approx(991, abs=2)
    assert s.p999 >= s.p99 >= s.p50
    assert s.max == 1000


def test_latency_stats_nearest_rank_pinned():
    # Nearest-rank method: rank = ceil(p * n), 1-based.
    assert LatencyStats.from_samples([1.0, 2.0]).p50 == 1.0
    assert LatencyStats.from_samples([1.0, 2.0]).p99 == 2.0
    hundred = LatencyStats.from_samples(list(map(float, range(1, 101))))
    assert hundred.p50 == 50.0  # ceil(0.5 * 100) = 50, not 51
    assert hundred.p99 == 99.0  # ceil(0.99 * 100) = 99, not max
    assert hundred.p999 == 100.0
    ten = LatencyStats.from_samples(list(map(float, range(1, 11))))
    assert ten.p50 == 5.0
    assert ten.p99 == 10.0


def test_latency_stats_empty():
    s = LatencyStats.from_samples([])
    assert s.count == 0 and s.p999 == 0


def test_latency_stats_single_sample():
    s = LatencyStats.from_samples([7.0])
    assert s.p50 == s.p99 == s.p999 == s.max == 7.0


def test_latency_stats_single_pass_moments_pinned():
    # from_samples computes mean/variance in one pass (shifted sums);
    # this pins the percentile values and checks both moments against
    # the two-pass textbook definition on an outlier-heavy sample.
    samples = [5.0, 1.0, 9.0, 3.0, 3.0, 7.0, 2.0, 8.0, 100.0, 4.0]
    s = LatencyStats.from_samples(samples)
    assert s.p50 == 4.0     # nearest rank: ceil(0.5 * 10) = 5 -> sorted[4]
    assert s.p99 == 100.0
    assert s.p999 == 100.0
    assert s.max == 100.0
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / n
    assert s.mean == pytest.approx(mean, rel=1e-12)
    assert s.variance == pytest.approx(var, rel=1e-12)
    # Constant samples: exactly zero variance, no negative rounding.
    flat = LatencyStats.from_samples([42.0] * 32)
    assert flat.variance == 0.0 and flat.mean == 42.0


def _strip_wall(result):
    d = result.to_dict()
    d.pop("wall_seconds")
    return d


def test_engine_matches_execute_exactly():
    wl = mixed_workload(KEYS, 0.5, n_ops=2000, seed=11)
    via_execute = execute(ALEX(), wl)
    via_engine = ExecutionEngine().run(ALEX(), wl)
    # Virtual-clock identical; only interpreter wall time may differ.
    assert _strip_wall(via_engine) == _strip_wall(via_execute)


class _Recorder(ExecutionObserver):
    def __init__(self):
        self.phases = []
        self.events = []
        self.latencies = []
        self.smos = 0

    def on_phase(self, phase, index, workload):
        self.phases.append(phase)

    def on_op(self, event, latency):
        self.events.append(event)
        if latency is not None:
            self.latencies.append(latency)

    def on_smo(self, event):
        self.smos += 1


def test_engine_observer_sees_every_operation():
    wl = mixed_workload(KEYS, 1.0, n_ops=3000, seed=12)
    rec = _Recorder()
    r = ExecutionEngine(observers=[rec]).run(ALEX(), wl)
    assert len(rec.events) == wl.n_ops == r.n_ops
    assert [e.seq for e in rec.events] == list(range(wl.n_ops))
    assert rec.phases == ["bulk_load", "measure", "done"]
    # ~1% sampling: one latency per sample_every ops, first op included.
    assert len(rec.latencies) == (wl.n_ops + 100) // 101
    assert all(lat > 0 for lat in rec.latencies)
    # A write-only stream on ALEX must trigger structural modifications.
    assert rec.smos > 0
    assert rec.smos == r.insert_stats.smo_count


def test_engine_add_observer_persists_across_runs():
    rec = _Recorder()
    engine = ExecutionEngine()
    engine.observers.append(rec)
    wl = mixed_workload(KEYS[:2000], 0.0, n_ops=100, seed=13)
    engine.run(BPlusTree(), wl)
    engine.run(BPlusTree(), wl)
    assert len(rec.events) == 200


def test_insert_stats_skip_failed_duplicate_inserts():
    """Duplicate-heavy stream: failed inserts must not skew Table 3."""
    keys = list(range(0, 2000, 2))
    bulk = [(k, k + 1) for k in keys]
    ops = []
    for k in keys[:500]:
        ops.append(Operation(INSERT, k, 0))        # duplicate: fails
        ops.append(Operation(INSERT, k + 1, 0))    # fresh: succeeds
    wl = Workload(name="dup-heavy", bulk_items=bulk, operations=ops,
                  write_fraction=1.0)
    r = execute(BPlusTree(), wl)
    assert r.n_ops == 1000
    assert r.insert_stats.inserts == 500  # only the successful half
    # Averages are per *successful* insert: traversals are real work.
    assert r.insert_stats.averages()["nodes_traversed"] >= 1
    assert 0.0 <= r.insert_stats.averages()["smo_rate"] <= 1.0


def test_engine_rejects_unknown_op():
    wl = Workload(name="bad", bulk_items=[(1, 1)],
                  operations=[Operation("frobnicate", 1)])
    with pytest.raises(ValueError, match="unknown op"):
        execute(BPlusTree(), wl)


class _PulledOps:
    """An op stream that records how far the engine has pulled it, and
    that it is never sized, indexed or copied up front: iteration is
    all it offers until it is exhausted."""

    def __init__(self, ops):
        self._ops = ops
        self.pulled = 0
        self.exhausted = False

    def __iter__(self):
        for op in self._ops:
            self.pulled += 1
            yield op
        self.exhausted = True

    def __len__(self):  # ``Workload.n_ops``, for the RunResult
        assert self.exhausted, "the engine sized the stream before running it"
        return len(self._ops)


def test_stream_is_pulled_one_op_at_a_time_below_the_streak():
    """``bench/`` times a cell by stamping the stream's iterator: with
    no run past the streak, op i+1 is not pulled before op i has run."""
    stream = _PulledOps(mixed_workload(KEYS, 0.5, n_ops=600, seed=8).operations)
    executed = []

    class Probe(BPlusTree):
        def lookup(self, key):
            executed.append(stream.pulled)
            return super().lookup(key)

        def insert(self, key, value):
            executed.append(stream.pulled)
            return super().insert(key, value)

    wl = mixed_workload(KEYS, 0.5, n_ops=600, seed=8)
    result = execute(Probe(), Workload(wl.name, wl.bulk_items, stream))
    assert result.n_ops == 600
    assert executed == list(range(1, 601))


class _CountedTree(BPlusTree):
    """Counts the ops it executes (scalar lookups and inserts, and the
    keys of every batch it resolves), noting at each insert and batch
    how far ``stream`` was read ahead of them."""

    def __init__(self, stream):
        super().__init__()
        self.stream = stream
        self.executed = 0
        self.ahead = []

    def lookup(self, key):
        self.executed += 1
        return super().lookup(key)

    def insert(self, key, value):
        self.ahead.append(self.stream.pulled - self.executed)
        self.executed += 1
        return super().insert(key, value)

    def _lookup_batch(self, keys):
        self.ahead.append(self.stream.pulled - self.executed)
        batch = super()._lookup_batch(keys)
        if batch is not None:
            self.executed += len(keys)
        return batch


def test_stream_is_read_at_most_one_block_ahead(monkeypatch):
    """Past the streak the engine reads ahead, but never more than one
    block, the op that ended the run included."""
    monkeypatch.setattr(runner, "LOOKUP_STREAK", 8)
    monkeypatch.setattr(runner, "LOOKUP_BLOCK", 64)
    wl = mixed_workload(KEYS, 0.01, n_ops=3000, seed=9)
    stream = _PulledOps(wl.operations)
    index = _CountedTree(stream)
    ExecutionEngine().run(index, Workload(wl.name, wl.bulk_items, stream))
    assert index.executed == 3000
    assert max(index.ahead) == 64 and index.ahead.count(64) > 10


def test_report_table_and_series():
    t = table(["a", "bb"], [[1, 2.5], ["x", 0.001]], title="T")
    assert "a" in t and "bb" in t and "0.001" in t
    s = series("thr", [1, 2], [3.0, 4.0])
    assert s.startswith("thr:") and "(1, 3.00)" in s


def test_format_bytes():
    assert format_bytes(512) == "512.0B"
    assert format_bytes(2048) == "2.0KB"
    assert "MB" in format_bytes(5 * 1024 * 1024)


def test_bar_rendering():
    assert bar(5, 10, width=10).count("#") == 5
    assert bar(20, 10, width=10).count("#") == 10
    assert bar(1, 0) == ""


def test_format_number():
    assert format_number(3.14159) == "3.14"
    assert format_number(12345.6) == "1.23e+04"
    assert format_number(7) == "7"
