"""Sweep engine: parallel-vs-serial parity, caching, resumption."""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import execute
from repro.bench import shard
from repro.core import sweep
from repro.core.heatmap import sweep_heatmap
from repro.core.runner import ExecutionObserver
from repro.core.sweep import (
    DatasetSpec,
    SweepCache,
    SweepTask,
    WorkloadSpec,
    cache_key,
    plan_grid,
    resolve_jobs,
    result_fingerprint,
    run_pool,
    run_sweep,
)
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree
from tests.heatmap_reference import compute_heatmap

DATASETS = [DatasetSpec("covid", 1200, 0), DatasetSpec("stack", 1200, 0)]
WORKLOADS = [WorkloadSpec.mixed(0.0, n_ops=500, seed=1),
             WorkloadSpec.mixed(0.5, n_ops=500, seed=1)]
INDEXES = ["ALEX", "B+tree"]


def _grid():
    return plan_grid(DATASETS, WORKLOADS, INDEXES)


def _stripped(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_seconds"}


# ---------------------------------------------------------------------------
# Specs and planning
# ---------------------------------------------------------------------------

def test_plan_grid_row_major():
    tasks = _grid()
    assert len(tasks) == 8
    assert tasks[0].dataset.name == "covid" and tasks[0].index == "ALEX"
    assert tasks[1].index == "B+tree"
    assert tasks[2].workload.label == "balanced"
    assert tasks[4].dataset.name == "stack"


def test_workload_spec_from_name_matches_cli_grammar():
    assert WorkloadSpec.from_name("balanced", 500).params_dict["write_frac"] == 0.5
    assert WorkloadSpec.from_name("ycsb-a", 500).params_dict["variant"] == "A"
    assert WorkloadSpec.from_name("delete", 500).kind == "delete"
    spec = WorkloadSpec.from_name("scan:50", 500)
    assert spec.params_dict["scan_size"] == 50
    assert spec.params_dict["n_scans"] == 20  # max(20, 500 // 50)
    with pytest.raises(ValueError):
        WorkloadSpec.from_name("nope", 500)


def test_workload_spec_labels_match_built_names():
    for spec in (WorkloadSpec.mixed(0.2, n_ops=200, seed=3),
                 WorkloadSpec.deletion(0.5, n_ops=200, seed=3),
                 WorkloadSpec.scan(10, 20, seed=3),
                 WorkloadSpec.ycsb("b", n_ops=200, seed=3)):
        keys = DatasetSpec("covid", 600, 0).keys()
        assert spec.build(keys).name == spec.label


def test_specs_are_hashable_and_frozen():
    assert len({DATASETS[0], DatasetSpec("covid", 1200, 0)}) == 1
    assert len({WORKLOADS[0], WorkloadSpec.mixed(0.0, n_ops=500, seed=1)}) == 1
    with pytest.raises(AttributeError):
        DATASETS[0].n = 99


def test_single_mode_canonicalizes_simulator_params():
    # threads/sockets are multicore-only; in single mode they must not
    # split the cache address of an identical run (the CLI passes its
    # --threads default through plan_grid regardless of mode).
    a = SweepTask(DATASETS[0], WORKLOADS[0], "ALEX")
    b = SweepTask(DATASETS[0], WORKLOADS[0], "ALEX", threads=24, sockets=2)
    assert a == b and cache_key(a) == cache_key(b)
    mt = SweepTask(DATASETS[0], WORKLOADS[0], "ALEX+", mode="multicore",
                   threads=24)
    assert mt.threads == 24
    assert cache_key(mt) != cache_key(
        SweepTask(DATASETS[0], WORKLOADS[0], "ALEX+", mode="multicore",
                  threads=8))


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2  # explicit arg wins
    monkeypatch.setenv("REPRO_JOBS", "zebra")
    with pytest.raises(ValueError):
        resolve_jobs(None)


# ---------------------------------------------------------------------------
# Parity: the determinism contract
# ---------------------------------------------------------------------------

def test_parallel_matches_serial_bit_for_bit():
    tasks = _grid()
    serial = run_sweep(tasks, jobs=1)
    parallel = run_sweep(tasks, jobs=2)
    assert len(serial.cells) == len(parallel.cells) == len(tasks)
    for s, p in zip(serial.cells, parallel.cells):
        assert s.task == p.task
        assert _stripped(s.record) == _stripped(p.record)
        assert s.fingerprint == p.fingerprint
    # Fell back to serial only if the platform refused to fork.
    assert parallel.used_processes or parallel.pool_error


# ---------------------------------------------------------------------------
# The pool runner's fallback, forced (not hoped for)
# ---------------------------------------------------------------------------

class _FlakyPool:
    """Stands in for ``ProcessPoolExecutor``: the first ``good``
    submissions run (in-process) and complete, every later future
    carries ``error``; ``good=None`` refuses to start at all."""

    def __init__(self, good, error):
        self.good, self.error, self.submitted = good, error, 0

    def __call__(self, max_workers):
        if self.good is None:
            raise self.error
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        future = Future()
        if self.submitted < self.good:
            future.set_result(fn(task))
        else:
            future.set_exception(self.error)
        self.submitted += 1
        return future


def _counting(monkeypatch, module, name):
    """Wrap worker function ``module.name``; returns the per-task call
    counter."""
    calls = collections.Counter()
    real = getattr(module, name)

    def counted(task):
        calls[task] += 1
        return real(task)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("error", [OSError("fork refused"),
                                   BrokenProcessPool("a worker died")],
                         ids=["OSError", "BrokenProcessPool"])
@pytest.mark.parametrize("good", [None, 0, 1, 3])
def test_sweep_pool_failure_falls_back_without_rerunning(monkeypatch, good,
                                                         error):
    tasks = _grid()[:5]
    serial = run_sweep(tasks, jobs=1)
    calls = _counting(monkeypatch, sweep, "_execute_task")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _FlakyPool(good, error))
    seen = []
    report = run_sweep(tasks, jobs=2, on_result=seen.append)
    assert not report.used_processes
    assert report.pool_error == f"{type(error).__name__}: {error}"
    assert [c.fingerprint for c in report.cells] == \
        [c.fingerprint for c in serial.cells]
    assert dict(calls) == {task: 1 for task in tasks}   # none run twice
    assert sorted(map(id, seen)) == sorted(map(id, report.cells))


@pytest.mark.parametrize("good", [None, 0, 1])
def test_shard_pool_failure_falls_back_without_rerunning(monkeypatch, good):
    ds = DATASETS[0]
    keys = ds.keys()
    cuts = [None, keys[400], keys[800], None]
    tasks = [shard.ShardBatchTask(
        index="B+tree", dataset=ds, lo=lo, hi=hi,
        lookups=tuple(k for k in keys[::7]
                      if (lo is None or k >= lo) and (hi is None or k < hi)))
        for lo, hi in zip(cuts, cuts[1:])]
    serial = shard.run_shard_batches(tasks, jobs=1)
    calls = _counting(monkeypatch, shard, "_run_shard_batch")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor",
                        _FlakyPool(good, OSError("fork refused")))
    report = shard.run_shard_batches(tasks, jobs=3)
    assert not report.used_processes
    assert report.pool_error == "OSError: fork refused"
    assert report.fingerprints() == serial.fingerprints()
    assert [r["hits"] for r in report.results] == \
        [r["hits"] for r in serial.results]
    assert dict(calls) == {task: 1 for task in tasks}


def _double_unless_in_a_worker(task):
    """Dies the way an OOM-killed worker does — but only in a worker."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return task * 2


def test_a_dead_pool_worker_does_not_lose_the_sweep():
    done = []
    run = run_pool(_double_unless_in_a_worker, [1, 2, 3, 4], jobs=2,
                   on_done=lambda i, result: done.append((i, result)))
    assert run.results == [2, 4, 6, 8]
    assert sorted(done) == [(0, 2), (1, 4), (2, 6), (3, 8)]
    assert not run.used_processes
    # BrokenProcessPool where processes exist; a refused fork elsewhere.
    assert run.pool_error


def test_run_pool_serial_paths_never_build_a_pool(monkeypatch):
    monkeypatch.setattr(sweep, "ProcessPoolExecutor",
                        _FlakyPool(None, AssertionError("pool built")))
    assert run_pool(abs, [-1, -2], jobs=1).results == [1, 2]
    one = run_pool(abs, [-3], jobs=8)
    assert one.results == [3] and one.pool_error is None
    assert not one.used_processes
    assert run_pool(abs, [], jobs=8).results == []


def test_sweep_cell_matches_direct_execute():
    task = SweepTask(DATASETS[0], WORKLOADS[1], "ALEX")
    cell = run_sweep([task], jobs=1).cells[0]
    direct = execute(ALEX(), WORKLOADS[1].build(DATASETS[0].keys()))
    got = cell.run_result()
    assert got.index_name == direct.index_name
    assert got.virtual_ns == direct.virtual_ns
    assert got.phase_ns == direct.phase_ns
    assert got.lookup_latency == direct.lookup_latency
    assert got.write_latency == direct.write_latency
    assert got.insert_stats == direct.insert_stats
    assert got.memory == direct.memory
    assert got.scanned_entries == direct.scanned_entries


def test_multicore_mode_parity():
    tasks = plan_grid(DATASETS[:1], WORKLOADS[:1], ["ALEX+", "ART-OLC"],
                      mode="multicore", threads=8)
    serial = run_sweep(tasks, jobs=1)
    parallel = run_sweep(tasks, jobs=2)
    assert [c.fingerprint for c in serial.cells] == \
           [c.fingerprint for c in parallel.cells]
    assert all(c.throughput_mops > 0 for c in serial.cells)
    with pytest.raises(ValueError):
        serial.cells[0].run_result()  # SimResult records, not RunResults


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------

def test_cache_hit_miss_and_record_parity(tmp_path):
    cache = SweepCache(str(tmp_path))
    tasks = _grid()
    first = run_sweep(tasks, jobs=1, cache=cache)
    assert first.cache_hits == 0 and first.executed == len(tasks)
    assert len(cache) == len(tasks)
    second = run_sweep(tasks, jobs=1, cache=cache)
    assert second.cache_hits == len(tasks) and second.executed == 0
    assert second.cache_hit_rate == 1.0
    for a, b in zip(first.cells, second.cells):
        assert a.record == b.record  # wall_seconds included: same bytes

    # A different grid parameter is a different address: all misses.
    moved = plan_grid([DatasetSpec("covid", 1200, 7)], WORKLOADS, INDEXES)
    third = run_sweep(moved, jobs=1, cache=cache)
    assert third.cache_hits == 0


def test_cache_invalidated_by_cost_model_version(tmp_path, monkeypatch):
    cache = SweepCache(str(tmp_path))
    task = SweepTask(DATASETS[0], WORKLOADS[0], "B+tree")
    run_sweep([task], jobs=1, cache=cache)
    key_before = cache_key(task)
    monkeypatch.setattr("repro.core.cost.COST_MODEL_VERSION", 999)
    assert cache_key(task) != key_before
    report = run_sweep([task], jobs=1, cache=cache)
    assert report.cache_hits == 0 and report.executed == 1


def test_cache_invalidated_by_schema_version(tmp_path, monkeypatch):
    cache = SweepCache(str(tmp_path))
    task = SweepTask(DATASETS[0], WORKLOADS[0], "B+tree")
    run_sweep([task], jobs=1, cache=cache)
    monkeypatch.setattr("repro.core.results.SCHEMA_VERSION", 999)
    report = run_sweep([task], jobs=1, cache=cache)
    assert report.cache_hits == 0 and report.executed == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = SweepCache(str(tmp_path))
    task = SweepTask(DATASETS[0], WORKLOADS[0], "B+tree")
    key = cache_key(task)
    with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as f:
        f.write("{torn write")
    report = run_sweep([task], jobs=1, cache=cache)
    assert report.cache_hits == 0 and report.executed == 1
    assert cache.get(key) is not None  # repaired by the re-execution


def test_resumption_after_partial_sweep(tmp_path):
    """A killed sweep resumes: finished cells hit, the rest execute."""
    cache = SweepCache(str(tmp_path))
    tasks = _grid()
    run_sweep(tasks[:3], jobs=1, cache=cache)  # the "partial" first run
    seen = []
    report = run_sweep(tasks, jobs=1, cache=cache,
                       on_result=lambda c: seen.append(c.cached))
    assert report.cache_hits == 3
    assert report.executed == len(tasks) - 3
    assert seen.count(True) == 3
    # Resumed cells are indistinguishable from a from-scratch sweep.
    fresh = run_sweep(tasks, jobs=1)
    assert [_stripped(c.record) for c in report.cells] == \
           [_stripped(c.record) for c in fresh.cells]


# ---------------------------------------------------------------------------
# Fingerprints, observers, aggregation
# ---------------------------------------------------------------------------

def test_fingerprint_ignores_wall_clock_only():
    record = run_sweep([_grid()[0]], jobs=1).cells[0].record
    wobbled = dict(record, wall_seconds=record["wall_seconds"] + 1.0)
    assert result_fingerprint(wobbled) == result_fingerprint(record)
    changed = dict(record, virtual_ns=record["virtual_ns"] + 1.0)
    assert result_fingerprint(changed) != result_fingerprint(record)


def test_observer_factory_attaches_per_task():
    class OpCounter(ExecutionObserver):
        def __init__(self):
            self.n = 0

        def on_op(self, event, latency):
            self.n += 1

    counters = {}

    def factory(task):
        counters[task] = OpCounter()
        return [counters[task]]

    tasks = _grid()[:3]
    report = run_sweep(tasks, jobs=2, observer_factory=factory)
    assert set(counters) == set(tasks)
    for task, counter in counters.items():
        assert counter.n == 500  # every op observed, in this process
    assert not report.used_processes  # observers force in-process runs


def test_sweep_heatmap_matches_compute_heatmap():
    learned = {"ALEX": ALEX}
    traditional = {"B+tree": BPlusTree}
    data = {d.name: d.keys() for d in DATASETS}

    def build(keys, wl_name):
        spec = {"read-only": WORKLOADS[0], "balanced": WORKLOADS[1]}[wl_name]
        return spec.build(keys)

    legacy = compute_heatmap(data, build, ["read-only", "balanced"],
                             learned, traditional)
    swept, report = sweep_heatmap(DATASETS, WORKLOADS, ["ALEX"], ["B+tree"],
                                  jobs=1)
    assert set(swept.cells) == set(legacy.cells)
    for key, cell in swept.cells.items():
        other = legacy.cells[key]
        assert cell.best_learned == other.best_learned
        assert cell.best_traditional == other.best_traditional
        assert cell.learned_mops == other.learned_mops
        assert cell.traditional_mops == other.traditional_mops
    assert len(report.cells) == 8


def test_report_to_dict_and_records():
    report = run_sweep(_grid()[:2], jobs=1)
    d = report.to_dict()
    assert d["n_cells"] == 2 and len(d["cells"]) == 2
    assert all(c["fingerprint"] for c in d["cells"])
    assert json.dumps(d)  # JSON-serializable
    assert [r["index"] for r in report.records()] == ["ALEX", "B+tree"]
