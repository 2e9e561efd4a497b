"""Parallel sweep engine with content-addressed result caching.

The paper's headline artifacts (Figures 2, 4, 7, 14, 16; Table 3) are
data × workload × index grids: hundreds of *independent* benchmark
cells.  GRE's C++ harness treats such a grid as an embarrassingly
parallel job farm; this module is our equivalent, built from three
parts:

* a **planner** that expands a grid spec into :class:`SweepTask`s —
  each task names its dataset, workload and index *by spec*, never by
  value, so tasks are tiny, picklable and content-addressable;
* a **scheduler** (:func:`run_sweep`) that executes tasks across a
  ``ProcessPoolExecutor`` (``--jobs N`` / ``REPRO_JOBS``), with a
  serial in-process fallback that produces *identical* results — the
  virtual cost-model clock makes "identical" checkable bit for bit
  (:func:`result_fingerprint`);
* a **content-addressed cache** (:class:`SweepCache`) keyed on the
  SHA-256 of the task spec plus the cost-model and result-schema
  versions, so re-running a sweep only executes changed cells and a
  killed sweep resumes where it stopped.

Workers rebuild datasets and workloads from their specs; dataset
generation is memoized process-wide (``repro.datasets.registry``) and
built workloads are memoized per worker, so a worker pays each
(dataset, workload) construction once no matter how many indexes run
on it.  Results travel back — and persist — as the lossless versioned
records of :mod:`repro.core.results`.

Determinism is the contract: a parallel sweep returns cells byte-equal
to the serial path in every field except ``wall_seconds`` (the one
wall-clock sanity value), which :func:`result_fingerprint` excludes.

Telemetry observers (PR 3) still attach per task via
``observer_factory``; observers live in the calling process, so a
sweep with observers runs in-process (the cache makes re-running an
already-swept grid under telemetry cheap: every unobserved cell is a
hit, and only the cells you re-execute pay).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core import cost, results
from repro.core.results import full_record, result_from_record
from repro.core.runner import ExecutionObserver, LatencyStats, RunResult, execute
from repro.core.workloads import (
    MIX_FRACTIONS,
    MIX_NAMES,
    Workload,
    deletion_workload,
    mixed_workload,
    scan_workload,
    ycsb_workload,
)
from repro.datasets import registry as dataset_registry

#: Execution modes.  ``single`` drives :func:`repro.core.runner.execute`;
#: ``multicore`` drives a concurrent adapter through the DES simulator.
MODE_SINGLE = "single"
MODE_MULTICORE = "multicore"

#: Bump to invalidate every cache entry when the sweep engine itself
#: changes what a cell record contains.
CACHE_FORMAT = 1

_MIX_BY_NAME = dict(zip(MIX_NAMES, MIX_FRACTIONS))
_MIX_BY_FRAC = dict(zip(MIX_FRACTIONS, MIX_NAMES))


# ---------------------------------------------------------------------------
# Specs: everything a worker needs, by value-free description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """A dataset by name, size and seed — resolved in the worker."""

    name: str
    n: int
    seed: int = 0

    def keys(self) -> List[int]:
        return dataset_registry.get(self.name).generate(self.n, seed=self.seed)

    def to_dict(self) -> dict:
        return {"name": self.name, "n": self.n, "seed": self.seed}


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload builder invocation, as data.

    ``kind`` picks the builder in :mod:`repro.core.workloads`;
    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs are
    hashable (worker-side memoization) and canonically serializable
    (cache keys).
    """

    kind: str
    params: Tuple[Tuple[str, Union[int, float, str]], ...]

    # -- constructors -----------------------------------------------------------

    @classmethod
    def _make(cls, kind: str, **params) -> "WorkloadSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def mixed(cls, write_frac: float, n_ops: Optional[int] = None,
              seed: int = 0) -> "WorkloadSpec":
        return cls._make("mixed", write_frac=write_frac,
                         n_ops=-1 if n_ops is None else n_ops, seed=seed)

    @classmethod
    def deletion(cls, delete_frac: float, n_ops: Optional[int] = None,
                 seed: int = 0) -> "WorkloadSpec":
        return cls._make("delete", delete_frac=delete_frac,
                         n_ops=-1 if n_ops is None else n_ops, seed=seed)

    @classmethod
    def scan(cls, scan_size: int, n_scans: int, seed: int = 0) -> "WorkloadSpec":
        return cls._make("scan", scan_size=scan_size, n_scans=n_scans, seed=seed)

    @classmethod
    def ycsb(cls, variant: str, n_ops: int, theta: float = 0.99,
             seed: int = 0) -> "WorkloadSpec":
        return cls._make("ycsb", variant=variant.upper(), n_ops=n_ops,
                         theta=theta, seed=seed)

    @classmethod
    def from_name(cls, name: str, n_ops: int, seed: int = 0) -> "WorkloadSpec":
        """Parse the CLI's workload vocabulary into a spec.

        Accepts the five mix names, ``ycsb-a`` … ``ycsb-f``, ``delete``
        and ``scan[:SIZE]`` — the same grammar as ``repro run``.
        """
        if name in _MIX_BY_NAME:
            return cls.mixed(_MIX_BY_NAME[name], n_ops=n_ops, seed=seed)
        if name.startswith("ycsb-"):
            return cls.ycsb(name[-1], n_ops=n_ops, seed=seed)
        if name.startswith("delete"):
            return cls.deletion(0.5, n_ops=n_ops, seed=seed)
        if name.startswith("scan"):
            size = int(name.split(":")[1]) if ":" in name else 100
            return cls.scan(size, max(20, n_ops // size), seed=seed)
        raise ValueError(
            f"unknown workload {name!r}; use one of {MIX_NAMES}, "
            "ycsb-a..f, delete, scan[:SIZE]"
        )

    # -- accessors --------------------------------------------------------------

    @property
    def params_dict(self) -> Dict[str, Union[int, float, str]]:
        return dict(self.params)

    @property
    def label(self) -> str:
        """The name the built :class:`Workload` will carry."""
        p = self.params_dict
        if self.kind == "mixed":
            frac = p["write_frac"]
            return _MIX_BY_FRAC.get(frac, f"{frac:.0%}-write")
        if self.kind == "delete":
            return f"{p['delete_frac']:.0%}-delete"
        if self.kind == "scan":
            return f"scan-{p['scan_size']}"
        if self.kind == "ycsb":
            return f"ycsb-{p['variant']}"
        return self.kind

    def build(self, keys: Sequence[int]) -> Workload:
        """Construct the workload over concrete keys."""
        p = self.params_dict
        n_ops = p.get("n_ops", -1)
        n_ops = None if n_ops == -1 else n_ops
        if self.kind == "mixed":
            return mixed_workload(keys, p["write_frac"], n_ops=n_ops, seed=p["seed"])
        if self.kind == "delete":
            return deletion_workload(keys, p["delete_frac"], n_ops=n_ops, seed=p["seed"])
        if self.kind == "scan":
            return scan_workload(keys, p["scan_size"], p["n_scans"], seed=p["seed"])
        if self.kind == "ycsb":
            return ycsb_workload(keys, p["variant"], n_ops=n_ops,
                                 theta=p["theta"], seed=p["seed"])
        raise ValueError(f"unknown workload kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params_dict}


@dataclass(frozen=True)
class SweepTask:
    """One independent cell of a sweep grid."""

    dataset: DatasetSpec
    workload: WorkloadSpec
    index: str
    mode: str = MODE_SINGLE
    threads: int = 1
    sockets: int = 1
    sample_every: int = 101

    def __post_init__(self) -> None:
        # threads/sockets only exist in multicore mode; canonicalize them
        # away in single mode so they can never split the cache address
        # of an identical run.
        if self.mode == MODE_SINGLE:
            object.__setattr__(self, "threads", 1)
            object.__setattr__(self, "sockets", 1)

    def describe(self) -> str:
        tag = "" if self.mode == MODE_SINGLE else f" x{self.threads}t"
        return f"{self.index} on {self.dataset.name}/{self.workload.label}{tag}"


def plan_grid(
    datasets: Sequence[DatasetSpec],
    workloads: Sequence[WorkloadSpec],
    indexes: Sequence[str],
    mode: str = MODE_SINGLE,
    threads: int = 1,
    sockets: int = 1,
    sample_every: int = 101,
) -> List[SweepTask]:
    """Expand a grid spec into tasks, row-major (dataset, workload, index)."""
    return [
        SweepTask(dataset=ds, workload=wl, index=name, mode=mode,
                  threads=threads, sockets=sockets, sample_every=sample_every)
        for ds in datasets
        for wl in workloads
        for name in indexes
    ]


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(task: SweepTask) -> str:
    """SHA-256 content address of a task's *result*.

    The key covers everything the result depends on: the full task spec
    plus the cost-model and result-schema versions (read at call time,
    so bumping either constant invalidates every prior entry).
    """
    payload = {
        "format": CACHE_FORMAT,
        "dataset": task.dataset.to_dict(),
        "workload": task.workload.to_dict(),
        "index": task.index,
        "mode": task.mode,
        "threads": task.threads,
        "sockets": task.sockets,
        "sample_every": task.sample_every,
        "cost_model_version": cost.COST_MODEL_VERSION,
        "schema_version": results.SCHEMA_VERSION,
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def result_fingerprint(record: dict) -> str:
    """SHA-256 of a cell record's *deterministic* content.

    Excludes ``wall_seconds`` (interpreter wall clock — the only
    non-virtual measurement in a record) and ``tags``.  Serial and
    parallel execution of the same task must produce equal
    fingerprints; tests and the CI sweep-smoke job
    (``benchmarks/test_sweep_parity.py``) gate on this.
    """
    cleaned = {k: v for k, v in record.items()
               if k not in ("wall_seconds", "tags")}
    return hashlib.sha256(_canonical(cleaned).encode()).hexdigest()


class SweepCache:
    """Content-addressed on-disk store of cell records.

    One JSON file per key under ``root``.  Writes are atomic
    (tempfile + rename) so a killed sweep never leaves a torn entry;
    unreadable entries read as misses and are re-executed.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        try:
            with open(self._path(key)) as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def put(self, key: str, record: dict) -> None:
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(record, f)
        os.replace(tmp, path)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".json"))


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` or ``.repro-cache/sweep`` under the cwd."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(".repro-cache", "sweep")


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _workload_for(dataset: DatasetSpec, workload: WorkloadSpec) -> Workload:
    """Per-process workload memo: a worker builds each (dataset,
    workload) pair once however many indexes sweep over it."""
    return workload.build(dataset.keys())


def _execute_single(task: SweepTask,
                    observers: Sequence[ExecutionObserver] = ()) -> dict:
    from repro.core.registry import REGISTRY

    wl = _workload_for(task.dataset, task.workload)
    index = REGISTRY.create(task.index)
    r = execute(index, wl, sample_every=task.sample_every, observers=observers)
    return full_record(r)


def _execute_multicore(task: SweepTask) -> dict:
    from repro.concurrency.simcore import MulticoreSimulator, Topology
    from repro.core.registry import REGISTRY

    factories = REGISTRY.concurrent_factories(evaluated=False)
    try:
        factory = factories[task.index]
    except KeyError:
        raise KeyError(
            f"unknown concurrent index {task.index!r}; "
            f"registered: {sorted(factories)}"
        ) from None
    wl = _workload_for(task.dataset, task.workload)
    adapter = factory()
    adapter.bulk_load(wl.bulk_items)
    sim = MulticoreSimulator(Topology(sockets=task.sockets))
    s = sim.run(adapter, wl.operations, threads=task.threads,
                sample_every=task.sample_every)

    def latency(samples) -> dict:
        st = LatencyStats.from_samples(samples)
        return {"p50": st.p50, "p99": st.p99, "p999": st.p999,
                "mean": st.mean, "count": st.count,
                "variance": st.variance, "max": st.max}

    return {
        "schema_version": results.SCHEMA_VERSION,
        "kind": MODE_MULTICORE,
        "index": s.index_name,
        "workload": wl.name,
        "threads": s.threads,
        "sockets": task.sockets,
        "n_ops": s.n_ops,
        "makespan_ns": s.makespan_ns,
        "throughput_mops": s.throughput_mops,
        "lock_wait_ns": s.lock_wait_ns,
        "atomic_ns": s.atomic_ns,
        "bytes_total": s.bytes_total,
        "bandwidth_limited": s.bandwidth_limited,
        "lookup_latency": latency(s.lookup_latencies),
        "write_latency": latency(s.write_latencies),
    }


def _execute_task(task: SweepTask,
                  observers: Sequence[ExecutionObserver] = ()) -> dict:
    """Run one cell and return its lossless record (worker entry point;
    ``observers`` attach to single-threaded cells, in-process only)."""
    if task.mode == MODE_MULTICORE:
        return _execute_multicore(task)
    return _execute_single(task, observers)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    """One completed cell: its task, lossless record and provenance."""

    task: SweepTask
    record: dict
    cached: bool
    key: str

    @property
    def throughput_mops(self) -> float:
        return float(self.record.get("throughput_mops", 0.0))

    @property
    def fingerprint(self) -> str:
        return result_fingerprint(self.record)

    def run_result(self) -> RunResult:
        """The reconstructed :class:`RunResult` (single-threaded cells)."""
        if self.record.get("kind") == MODE_MULTICORE:
            raise ValueError("multicore cells carry SimResult records, "
                             "not RunResults")
        return result_from_record(self.record)


@dataclass
class SweepReport:
    """Everything one sweep invocation produced."""

    cells: List[CellResult]
    jobs: int
    wall_seconds: float

    #: Cells served from the cache vs executed this run.
    cache_hits: int = 0
    executed: int = 0
    used_processes: bool = False
    pool_error: Optional[str] = None
    cache_dir: Optional[str] = None

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / max(len(self.cells), 1)

    @property
    def cells_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.cells) / self.wall_seconds

    def to_dict(self, include_cells: bool = True) -> dict:
        out = {
            "jobs": self.jobs,
            "n_cells": len(self.cells),
            "wall_seconds": self.wall_seconds,
            "cells_per_sec": self.cells_per_sec,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "executed": self.executed,
            "used_processes": self.used_processes,
            "cache_dir": self.cache_dir,
        }
        if include_cells:
            out["cells"] = [
                {
                    "dataset": c.task.dataset.name,
                    "workload": c.task.workload.label,
                    "index": c.task.index,
                    "throughput_mops": c.throughput_mops,
                    "cached": c.cached,
                    "fingerprint": c.fingerprint,
                }
                for c in self.cells
            ]
        return out

    def records(self) -> List[dict]:
        """Cell records in task order (``save_jsonl`` input)."""
        return [c.record for c in self.cells]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_JOBS`` > 1.

    ``0`` (either source) means "one worker per CPU".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs == 0:
        return os.cpu_count() or 1
    return max(jobs, 1)


@dataclass
class PoolRun:
    """What :func:`run_pool` did: one result per task, in task order."""

    results: List[Any]
    used_processes: bool = False
    #: Why the pool was abandoned for the serial path, if it was.
    pool_error: Optional[str] = None


def run_pool(fn: Callable[[Any], Any], tasks: Sequence[Any], jobs: int,
             on_done: Optional[Callable[[int, Any], None]] = None) -> PoolRun:
    """``fn(task)`` for every task, across ``jobs`` worker processes.

    The one process-pool scheduler (sweeps, shard batches).  Results
    come back in task order; ``on_done(position, result)`` fires once
    per task in completion order.  ``jobs <= 1`` or a single task runs
    serially in-process.  A pool that cannot start (sandboxes that
    refuse to fork) or loses a worker mid-run (``BrokenProcessPool``:
    OOM kill, ``os._exit``) is abandoned, not fatal: results already
    finished are kept, the rest run serially in-process — each task
    completes exactly once — and ``pool_error`` says why.  ``fn`` and
    the tasks must be picklable when ``jobs > 1``.
    """
    tasks = list(tasks)
    run = PoolRun(results=[None] * len(tasks))
    todo = set(range(len(tasks)))

    def finish(i: int, result: Any) -> None:
        todo.discard(i)
        run.results[i] = result
        if on_done is not None:
            on_done(i, result)

    if jobs > 1 and len(tasks) > 1:
        futures: Dict[Any, int] = {}
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                futures.update((pool.submit(fn, task), i)
                               for i, task in enumerate(tasks))
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        finish(futures[future], future.result())
            run.used_processes = True
        except (OSError, BrokenProcessPool) as exc:
            run.pool_error = f"{type(exc).__name__}: {exc}"
            for future, i in futures.items():
                if (i in todo and future.done() and not future.cancelled()
                        and future.exception() is None):
                    finish(i, future.result())
    for i in sorted(todo):
        finish(i, fn(tasks[i]))
    return run


ObserverFactory = Callable[[SweepTask], Sequence[ExecutionObserver]]
OnResult = Callable[[CellResult], None]


def run_sweep(
    tasks: Iterable[SweepTask],
    jobs: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    on_result: Optional[OnResult] = None,
    observer_factory: Optional[ObserverFactory] = None,
    bus=None,
) -> SweepReport:
    """Execute every task, in parallel where possible, and return all cells.

    * ``jobs``: worker processes (see :func:`resolve_jobs`); ``1`` runs
      serially in-process with byte-identical results.
    * ``cache``: a :class:`SweepCache`; hits skip execution entirely and
      every fresh result is persisted as it completes, so an
      interrupted sweep resumes from its last finished cell.
    * ``on_result``: progress callback, invoked once per cell as it
      resolves (cache hits first, then executions in completion order).
    * ``observer_factory``: per-task telemetry/observer attachment
      (single-threaded cells).  Observers must see the run from the
      calling process, so providing a factory forces in-process
      execution of the cells that actually run.
    * ``bus``: an :class:`~repro.core.events.EventBus` (duck-typed);
      each resolved cell publishes a ``sweep_task`` (executed) or
      ``cache_hit`` (served from cache) event, so a live control tower
      can watch sweep workers alongside engine and migration traffic.

    Returns cells in task order regardless of completion order.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()

    user_on_result = on_result

    def announce(cell: CellResult) -> None:
        if bus is not None:
            bus.publish(
                "cache_hit" if cell.cached else "sweep_task",
                source=cell.task.index,
                dataset=cell.task.dataset.name,
                workload=cell.task.workload.label,
                mode=cell.task.mode,
                throughput_mops=cell.throughput_mops,
                key=cell.key)
        if user_on_result is not None:
            user_on_result(cell)

    on_result = announce if (bus is not None or user_on_result is not None) else None
    cells: List[Optional[CellResult]] = [None] * len(tasks)
    pending: List[Tuple[int, SweepTask, str]] = []
    hits = 0

    for i, task in enumerate(tasks):
        key = cache_key(task)
        record = cache.get(key) if cache is not None else None
        if record is not None:
            cells[i] = CellResult(task=task, record=record, cached=True, key=key)
            hits += 1
            if on_result is not None:
                on_result(cells[i])
        else:
            pending.append((i, task, key))

    def observed(task: SweepTask) -> dict:
        # In-process only: the observers live in the calling process.
        single = task.mode == MODE_SINGLE
        return _execute_task(task, (observer_factory(task) or ()) if single else ())

    def resolved(pos: int, record: dict) -> None:
        i, task, key = pending[pos]
        cells[i] = CellResult(task=task, record=record, cached=False, key=key)
        if cache is not None:
            cache.put(key, record)
        if on_result is not None:
            on_result(cells[i])

    pool = run_pool(_execute_task if observer_factory is None else observed,
                    [task for _, task, _ in pending],
                    jobs if observer_factory is None else 1, on_done=resolved)

    done_cells = [c for c in cells if c is not None]
    return SweepReport(
        cells=done_cells,
        jobs=jobs,
        wall_seconds=time.perf_counter() - t0,
        cache_hits=hits,
        executed=len(done_cells) - hits,
        used_processes=pool.used_processes,
        pool_error=pool.pool_error,
        cache_dir=cache.root if cache is not None else None,
    )
