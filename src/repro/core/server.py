"""Async multi-tenant index server with background rebuilds.

ROADMAP item 1: the long-running serving layer over the instance
lifecycle (PR 7), the event bus / SLO tower (PR 8) and the registry.
An :class:`IndexServer` hosts named :class:`~repro.core.instance
.IndexInstance`\\ s.  :meth:`IndexServer.create_instance` is the one
way data enters a tenant: it bulk loads synchronously, so a hosted
tenant serves from the moment it exists.  After that only rebuilds and
migrations, run as background jobs, change its structure:

* **Foreground ops** (lookup/insert/update/delete/scan plus the PR-6
  ``lookup_many``/``insert_many`` batch paths) each hold their
  instance's one plain lock, which they share with nothing but the
  background pump steps: under the GIL shared readers could not run in
  parallel anyway, and one uncontended ``acquire(False)`` + ``release``
  is the cheapest exclusion there is.  Admission is the
  instance's state policy — rejections raise
  :class:`~repro.core.instance.AdmissionError` and are *counted*,
  never silently dropped.
* **Background jobs** (``rebuild``, ``migrate``): a tenant has at most
  one unfinished job (SNIPPETS Snippet 1's "indexing already in
  progress" rule) — a second submission while one is queued or running
  raises ``ValueError`` and registers nothing — so the job queue never
  holds more jobs than there are tenants.  Jobs are executed one step
  at a time by a worker thread.  A job wraps the serving
  index in a :class:`~repro.indexes.multiplex.MultiplexIndex` with
  ``pump_per_op=0``: only the job pumps, one
  :class:`~repro.core.migrate.MigrationDriver` step per job step, with
  the instance's lock as the driver's lock — so chunk-sized
  steps never race a client op, the one O(n) build holds no lock, pump
  work is charged to the secondary's meter (never client-visible
  latency), and a failed, aborted or crashed job rolls the instance
  back to SERVING on its original index.
* **Status is first-class**: every job step publishes a typed ``job``
  event (chunks pumped, verified fraction, queue depth, ETA on the
  virtual clock) through the PR-8 :class:`~repro.core.events.EventBus`
  alongside the instance's own state/backfill/admission events, all
  folded by ``repro top --server``; :meth:`IndexServer.status` returns
  the merged snapshot.
* **Correctness is provable**: every admitted foreground op is
  appended to its instance's own **journal** *while the instance lock
  is held*, so each journal's order is a valid serialization of that
  instance's concurrent history (instances share no log and no lock).
  :func:`replay_journal` re-runs a journal serially through the PR-5
  differential oracle — a concurrent run is linearizable-per-key iff
  the serial replay matches every recorded result bit-for-bit
  (``tests/server_harness.py`` proves this across every shardable
  registry index while a rebuild runs).

Thread-safety: the instance lock guards everything an op touches —
the index, the instance's state and counters, the journal — and the
single-writer :class:`~repro.core.cost.CostMeter` objects it charges:
every meter call on a tenant holds that lock, but for a job's O(n)
build, which charges the secondary's meter while only the worker can
reach the secondary (catch-up, which publishes it, takes the lock).
"""

from __future__ import annotations

import functools
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.events import KIND_CUTOVER, KIND_JOB
from repro.core.instance import (
    MIGRATING,
    SERVING,
    AdmissionError,
    IndexInstance,
)
from repro.core.migrate import CUT_OVER, MigrationDriver, resolve_index_name
from repro.core.opstream import DifferentialObserver, Mismatch
from repro.core.registry import REGISTRY
from repro.core.runner import OpEvent
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    apply_op,
    payload,
)
from repro.indexes.multiplex import MultiplexIndex

__all__ = [
    "JOB_QUEUED", "JOB_RUNNING", "JOB_DONE", "JOB_FAILED", "JOB_ABORTED",
    "IndexServer",
    "Job",
    "JournalEntry",
    "replay_journal",
]

#: Background-job states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_ABORTED = "aborted"

#: A foreground op that slept longer than this for its instance lock
#: counts as stalled (seconds of wall clock).
STALL_THRESHOLD_S = 1.0

#: Seconds the job worker sleeps between two steps of a job, so that
#: client ops get the instance lock between chunk-sized pump steps.
WORKER_YIELD_S = 0.0005


class RWLock:
    """The name ``bench/layers.py`` times as ``core.server.lock_acquire_ns``:
    the fast-path pair of a tenant's lock, whose ``acquire_read`` and
    ``release_read`` are a plain ``threading.Lock``'s ``acquire`` and
    ``release``.  The server itself does not use it."""

    def __init__(self) -> None:
        lock = threading.Lock()
        self.acquire_read = lock.acquire
        self.release_read = lock.release


@dataclass
class JournalEntry:
    """One admitted foreground op, recorded under the instance lock.

    The server records a scalar op in its instance's journal as a plain
    tuple of these fields but ``seq`` and ``instance``, in this order,
    and :meth:`IndexServer.journal` replaces it with the entry when it
    is first read; ``seq`` is the op's place in that instance's
    journal."""

    # Slotted (spelled out, as ``dataclass(slots=True)`` needs Python
    # 3.10): ``journal()`` builds one per op it returns.
    __slots__ = ("seq", "instance", "op", "key", "value", "count", "ok",
                 "scanned", "result")

    seq: int
    instance: str
    op: str
    key: int
    value: Any
    count: int
    ok: bool
    scanned: int
    result: Any

    def to_dict(self) -> dict:
        result = self.result
        if self.op == SCAN and result is not None:
            result = [list(row) for row in result]
        return {"seq": self.seq, "instance": self.instance, "op": self.op,
                "key": self.key, "value": self.value, "count": self.count,
                "ok": self.ok, "scanned": self.scanned, "result": result}


@dataclass
class _JournalBatch:
    """One ``lookup_many``/``insert_many`` call in a journal: the
    call's argument and result lists, which hold a contiguous ``seq``
    block of one per key.  :meth:`entries` expands it to the per-op
    :class:`JournalEntry` form on demand, so a batch costs one journal
    append rather than one per key."""

    op: str          # LOOKUP or INSERT
    args: Sequence   # keys looked up, or (key, value) pairs inserted
    outs: Sequence   # values found, or per-pair insert success

    def entries(self, instance: str, seq: int) -> List[JournalEntry]:
        """The call's ops on ``instance``, numbered from ``seq``."""
        if self.op == LOOKUP:
            rows = ((key, None, value is not None, value)
                    for key, value in zip(self.args, self.outs))
        else:
            rows = ((key, value, bool(ok), None)
                    for (key, value), ok in zip(self.args, self.outs))
        return [JournalEntry(seq, instance, self.op, key, value, 0, ok, 0,
                             result)
                for seq, (key, value, ok, result) in enumerate(rows, seq)]


@dataclass
class Job:
    """One background job: a rebuild or a migration."""

    job_id: int
    kind: str          # "rebuild" | "migrate"
    instance: str
    dst: str = ""      # destination index name ("" = same as serving)
    state: str = JOB_QUEUED
    chunks_pumped: int = 0
    done_keys: int = 0
    total_keys: int = 0
    verified_fraction: float = 0.0
    #: Virtual nanoseconds of migration work charged so far (pump work
    #: goes to the secondary's meter, never client-visible latency).
    overhead_ns: float = 0.0
    #: Remaining virtual ns at the current cost rate (None until the
    #: first chunk lands).
    eta_ns: Optional[float] = None
    error: str = ""
    abort_requested: bool = False
    runner: Any = field(default=None, repr=False)
    _finished: threading.Event = field(default_factory=threading.Event,
                                       repr=False)

    @property
    def finished(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED, JOB_ABORTED)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished.wait(timeout)

    def abort(self) -> None:
        """Request a cooperative abort; honored at the next job step."""
        self.abort_requested = True

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "kind": self.kind,
                "instance": self.instance, "dst": self.dst,
                "state": self.state, "chunks_pumped": self.chunks_pumped,
                "done_keys": self.done_keys, "total_keys": self.total_keys,
                "verified_fraction": round(self.verified_fraction, 6),
                "overhead_ns": self.overhead_ns, "eta_ns": self.eta_ns,
                "error": self.error}


@dataclass
class _Served:
    """Server-side bookkeeping around one hosted instance.  ``lock`` is
    the tenant's only lock: it guards the index and the instance's
    state, the journal, every counter here and the instance's
    ``op_counts`` and ``rejected``, and the ``job`` slot.  It is not
    reentrant, and the helpers below assume the caller holds it."""

    instance: IndexInstance
    index_name: str
    #: Builds an empty index configured as the serving one: what
    #: ``create_instance`` built it with, then each cut-over job's.
    factory: Callable[[], Any]
    #: What ``create_instance`` loaded: the journal replay's start.
    bulk_items: List[Tuple[int, Any]]
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Per-op rows (:class:`JournalEntry`'s fields less ``seq`` and
    #: ``instance``, as tuples until ``journal()`` reads them) and batch
    #: records, in serialization order.
    journal: List[Any] = field(default_factory=list)
    #: Ops refused (admission) or crashed, per op kind.
    dropped: Dict[str, int] = field(default_factory=dict)
    #: Ops whose lock wait exceeded the stall threshold, per op kind.
    stalled: Dict[str, int] = field(default_factory=dict)
    max_wait_s: float = 0.0
    #: Foreground calls admitted, crashed ones included.
    ops: int = 0
    #: The tenant's latest structure job: while it is unfinished, a
    #: new one is refused.
    job: Optional[Job] = None

    def note_wait(self, kind: str, waited: float) -> None:
        """Record a lock wait the op really slept through."""
        if waited > self.max_wait_s:
            self.max_wait_s = waited
        if waited > STALL_THRESHOLD_S:
            self.stalled[kind] = self.stalled.get(kind, 0) + 1

    def refuse(self, kind: str) -> None:
        """Count and raise the refusal of an op the instance's state
        does not admit."""
        self.instance.admit(kind)

    def journal_batch(self, op: str, args: list, outs: list) -> None:
        """Journal one batch call as one record (``args`` is the
        server's own copy; ``outs`` goes back to the caller)."""
        counts = self.instance.op_counts
        counts[op] = counts.get(op, 0) + len(args)
        self.ops += 1
        self.journal.append(_JournalBatch(op, args, tuple(outs)))

    def note_drop(self, kind: str, exc: BaseException) -> None:
        """Count a foreground call that raised: refused, or admitted
        and crashed (then in ``ops`` too, as it was never journaled)."""
        self.dropped[kind] = self.dropped.get(kind, 0) + 1
        if not isinstance(exc, AdmissionError):
            self.ops += 1


class _RebuildRunner:
    """Background rebuild/migration: a ``pump_per_op=0`` multiplexer
    taken one :class:`~repro.core.migrate.MigrationDriver` step per job
    step.  Staging, catch-up, verify and cutover steps hold the
    instance's lock; the one O(n) step — bulk-loading the staged
    snapshot into the secondary — holds no lock, so foreground traffic
    keeps flowing through it.  A step that raises is rolled back like a
    divergence (:meth:`fail`)."""

    def __init__(self, server: "IndexServer", served: _Served,
                 job: Job, factory: Callable[[], Any]) -> None:
        self.server = server
        self.served = served
        self.job = job
        self.factory = factory
        self.mux: Optional[MultiplexIndex] = None
        self.driver: Optional[MigrationDriver] = None

    def step(self) -> bool:
        if self.driver is None:
            return self._attach()
        job, driver = self.job, self.driver
        if job.abort_requested:
            driver.abort("abort requested")
            return True
        building = self.mux.build_pending
        driver.step()
        job.chunks_pumped = driver.chunks
        job.overhead_ns = driver.overhead_ns
        if not building and driver.outcome != CUT_OVER:
            self._note_progress()
        return driver.outcome is not None

    def fail(self, why: str) -> None:
        """A step raised: roll back to the original index and SERVING
        (nothing to undo if the multiplexer was never attached)."""
        if self.driver is not None:
            self.driver.abort(why)

    def _attach(self) -> bool:
        job, served = self.job, self.served
        inst = served.instance
        if job.abort_requested:
            job.state = JOB_ABORTED
            return True
        secondary = self.factory()
        with served.lock:
            primary = inst.index
            mux = MultiplexIndex(primary, secondary, chunk=self.server.chunk,
                                 pump_per_op=0)
            inst.advance(MIGRATING,
                         f"job {job.job_id}: {job.kind} -> {job.dst}")
            inst.watch(mux)
            inst.index = mux
            job.total_keys = 2 * len(primary)
        self.mux = mux
        self.driver = MigrationDriver(
            mux, on_cutover=self._cut_over, on_rollback=self._rolled_back,
            lock=lambda: served.lock)
        return False

    def _note_progress(self) -> None:
        job, mux = self.job, self.mux
        primary_size = max(1, len(mux.primary))
        job.done_keys = mux.backfill_keys + mux.verify_keys
        job.total_keys = 2 * primary_size
        job.verified_fraction = min(1.0, mux.verify_keys / primary_size)
        job.eta_ns = _eta(job.overhead_ns, job.done_keys, job.total_keys)

    def _cut_over(self) -> None:
        """The verified secondary is the primary now: serve from it
        (driver hook; the instance lock is held)."""
        job, served, mux = self.job, self.served, self.mux
        inst = served.instance
        inst.index = mux.primary
        served.index_name = job.dst
        served.factory = self.factory
        inst.advance(SERVING,
                     f"job {job.job_id}: {job.kind} -> {job.dst} cut over")
        self.server._publish(
            KIND_CUTOVER, source=inst.name,
            t_ns=inst.index.meter.total_time(),
            job_id=job.job_id, dst=job.dst,
            verify_keys=mux.verify_keys,
            reverify_keys=mux.reverify_keys)
        job.verified_fraction = 1.0
        job.eta_ns = 0.0
        job.done_keys = job.total_keys = mux.backfill_keys \
            + mux.verify_keys
        job.state = JOB_DONE

    def _rolled_back(self, why: str) -> None:
        """The secondary is detached: resume service on the original
        index (driver hook; the instance lock is held)."""
        job = self.job
        inst = self.served.instance
        state = JOB_ABORTED if job.abort_requested else JOB_FAILED
        inst.index = self.mux.primary  # abort() left the original serving
        inst.advance(SERVING, f"job {job.job_id} {state}: {why}")
        if state == JOB_FAILED:
            job.error = why
        job.state = state


def _eta(overhead_ns: float, done: int, total: int) -> Optional[float]:
    """Remaining virtual ns, extrapolated from the cost so far."""
    if not done:
        return None
    return overhead_ns * max(0, total - done) / done


class IndexServer:
    """A multi-tenant serving tier over named index instances.

    ``workers=1`` (default) runs background jobs on a daemon worker
    thread; ``workers=0`` is the deterministic mode — jobs advance only
    when :meth:`pump_jobs` is called, which is what the concurrency
    harness and the gated benchmark use to make interleavings
    reproducible.  A tenant has at most one unfinished job, so the job
    queue is unbounded and never blocks a submitter; its length is the
    ``queue_depth`` gauge of job events and :meth:`status`.  ``chunk``
    is the keys a background job moves per step.
    """

    def __init__(self, workers: int = 1, bus: Any = None,
                 chunk: int = 128) -> None:
        if workers not in (0, 1):
            raise ValueError("workers must be 0 (manual) or 1")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.bus = bus
        self.chunk = chunk
        self._served: Dict[str, _Served] = {}
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: List[Job] = []
        self._job_ids = itertools.count(1)
        self._active: Optional[Job] = None
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"index-server-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "IndexServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the worker thread (queued jobs are drained first)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=30.0)

    # -- instances -----------------------------------------------------------

    def create_instance(self, name: str, index_name: str,
                        factory: Optional[Callable[[], Any]] = None,
                        items: Sequence[Tuple[int, Any]] = (),
                        **config: Any) -> IndexInstance:
        """Host a new instance of registry index ``index_name``, bulk
        loaded with ``items`` (sorted, unique keys; none by default).

        The load is synchronous: the instance comes back SERVING, and a
        load that raises registers nothing.  The index comes from
        ``factory``, else from the registry with ``config`` (not both),
        and so does a same-type rebuild's.  Its meter is charged only
        under the instance lock.  Of two calls racing for one ``name``
        exactly one registers; the other raises ``ValueError``.
        """
        if name in self._served:
            raise ValueError(f"instance {name!r} already exists")
        if factory is not None and config:
            raise ValueError(
                f"pass factory= or index config {sorted(config)}, not both")
        spec = REGISTRY.get(resolve_index_name(index_name))
        factory = factory or functools.partial(spec.factory, **config)
        index = factory()
        if not index.supports_range:
            raise ValueError(
                f"{spec.name} cannot be served: background rebuilds need "
                "range_scan for the backfill cursor")
        instance = IndexInstance(index, name=name)
        if self.bus is not None:
            instance.attach_bus(self.bus)
        items = list(items)
        served = _Served(instance=instance, index_name=spec.name,
                         factory=factory, bulk_items=items)
        with served.lock:
            index.bulk_load(items)
            if self._served.setdefault(name, served) is not served:
                raise ValueError(f"instance {name!r} already exists")
            instance.advance(SERVING, f"bulk loaded {len(items)} items")
        return instance

    def instance(self, name: str) -> IndexInstance:
        return self._served_of(name).instance

    def _served_of(self, name: str) -> _Served:
        try:
            return self._served[name]
        except KeyError:
            raise KeyError(
                f"no instance {name!r}; hosted: {sorted(self._served)}"
            ) from None

    # -- foreground ops ------------------------------------------------------

    def apply(self, name: str, op: Operation) -> Tuple[bool, Any]:
        """Serve one foreground op under the instance's lock.

        The op is admitted, run, counted (``ops``, ``op_counts``) and
        journaled in one hold of the lock, so journal order is a valid
        serialization of the instance's concurrent history.  The hold
        starts with ``acquire(False)``; only when that fails is a
        blocking ``acquire()`` timed, so ``max_wait_s`` and ``stalled``
        record sleeps only.  A refusal counts in both the instance
        (``rejected``) and the server's per-kind ``dropped`` stats, a
        crash in ``dropped`` and ``ops``; both re-raise.
        """
        served = self._served_of(name)
        kind = op.op
        lock = served.lock
        # Try first: an uncontended op reads no clock.
        if not lock.acquire(False):
            t0 = time.perf_counter()
            lock.acquire()
            served.note_wait(kind, time.perf_counter() - t0)
        try:
            instance = served.instance
            if not instance.admits(kind):
                served.refuse(kind)
            ok, scanned, result = apply_op(instance.index, op)
            counts = instance.op_counts
            counts[kind] = counts.get(kind, 0) + 1
            served.ops += 1
            # A scan's rows go back to the caller: journal a copy.
            served.journal.append((kind, op.key, op.value, op.count, ok,
                                   scanned,
                                   tuple(result) if kind == SCAN else result))
        except BaseException as exc:
            served.note_drop(kind, exc)
            raise
        finally:
            lock.release()
        return ok, result

    def lookup(self, name: str, key: int) -> Any:
        return self.apply(name, Operation(LOOKUP, key))[1]

    def insert(self, name: str, key: int, value: Any) -> bool:
        return self.apply(name, Operation(INSERT, key, value))[0]

    def update(self, name: str, key: int, value: Any) -> bool:
        return self.apply(name, Operation(UPDATE, key, value))[0]

    def delete(self, name: str, key: int) -> bool:
        return self.apply(name, Operation(DELETE, key))[0]

    def scan(self, name: str, start: int, count: int) -> List[Tuple[int, Any]]:
        return self.apply(name, Operation(SCAN, start, count=count))[1]

    def lookup_many(self, name: str, keys: Iterable[int]) -> List[Any]:
        """Batched lookups under one hold of the instance's lock (PR-6
        path)."""
        served = self._served_of(name)
        lock = served.lock
        if not lock.acquire(False):
            t0 = time.perf_counter()
            lock.acquire()
            served.note_wait(LOOKUP, time.perf_counter() - t0)
        try:
            instance = served.instance
            if not instance.admits(LOOKUP):
                served.refuse(LOOKUP)
            keys = list(keys)
            values = instance.index.lookup_many(keys)
            served.journal_batch(LOOKUP, keys, values)
        except BaseException as exc:
            served.note_drop(LOOKUP, exc)
            raise
        finally:
            lock.release()
        return values

    def insert_many(self, name: str,
                    pairs: Iterable[Tuple[int, Any]]) -> List[bool]:
        """Batched inserts under one hold of the instance's lock."""
        served = self._served_of(name)
        lock = served.lock
        if not lock.acquire(False):
            t0 = time.perf_counter()
            lock.acquire()
            served.note_wait(INSERT, time.perf_counter() - t0)
        try:
            instance = served.instance
            if not instance.admits(INSERT):
                served.refuse(INSERT)
            pairs = list(pairs)
            oks = instance.index.insert_many(pairs)
            served.journal_batch(INSERT, pairs, oks)
        except BaseException as exc:
            served.note_drop(INSERT, exc)
            raise
        finally:
            lock.release()
        return oks

    def journal(self, name: Optional[str] = None) -> List[JournalEntry]:
        """``name``'s recorded op history, one :class:`JournalEntry` per
        op numbered by its place in that instance's journal; without a
        name, every instance's in turn, in creation order (instances
        share no order).  Batch calls are expanded here; a scalar row
        becomes its entry on the first read, in place, so a journal
        never holds a row and its entry at once."""
        entries: List[JournalEntry] = []
        for served in ([self._served_of(name)] if name is not None
                       else list(self._served.values())):
            tenant = served.instance.name
            seq = 0
            with served.lock:
                records = served.journal
                for i, record in enumerate(records):
                    if type(record) is tuple:
                        records[i] = record = JournalEntry(seq, tenant,
                                                           *record)
                    if type(record) is JournalEntry:
                        entries.append(record)
                        seq += 1
                    else:
                        entries.extend(record.entries(tenant, seq))
                        seq += len(record.args)
        return entries

    def replay_check(self, name: str, limit: int = 50) -> List[Mismatch]:
        """Serially replay ``name``'s journal through the differential
        oracle; an empty list proves linearizable-per-key results."""
        served = self._served_of(name)
        return replay_journal(self.journal(name), served.bulk_items,
                              limit=limit)

    # -- background jobs -----------------------------------------------------

    def rebuild(self, name: str,
                factory: Optional[Callable[[], Any]] = None) -> Job:
        """Queue a background rebuild into a fresh index of the same
        type (compaction): backfill + verify + atomic cutover while
        foreground traffic keeps flowing."""
        return self._structure_job(name, "rebuild", "", factory)

    def migrate(self, name: str, dst: str,
                factory: Optional[Callable[[], Any]] = None) -> Job:
        """Queue a background migration to registry index ``dst``."""
        return self._structure_job(name, "migrate", dst, factory)

    def _structure_job(self, name: str, kind: str, dst: str,
                       factory: Optional[Callable[[], Any]]) -> Job:
        """Register and queue a job, or refuse it with nothing
        registered: on a closed server, a destination that cannot take
        writes, or a tenant whose last job is unfinished.  The check and
        the registration share the tenant's lock, so of two racing
        submitters exactly one gets a job."""
        if self._closed:
            raise RuntimeError("server is closed")
        served = self._served_of(name)
        with served.lock:
            busy = served.job
            if busy is not None and not busy.finished:
                raise ValueError(
                    f"instance {name!r} already has job {busy.job_id} "
                    f"({busy.kind}, {busy.state}); one job per tenant")
            dst_name = resolve_index_name(dst) if dst else served.index_name
            spec = REGISTRY.get(dst_name)
            if not spec.supports_insert:
                raise ValueError(
                    f"{spec.name} cannot be a {kind} destination: writes "
                    "made during the build are replayed as inserts")
            if factory is None:  # same type: keep the serving configuration
                factory = (served.factory if spec.name == served.index_name
                           else spec.factory)
            job = Job(job_id=next(self._job_ids), kind=kind, instance=name,
                      dst=spec.name)
            job.runner = _RebuildRunner(self, served, job, factory)
            served.job = job
            self._jobs.append(job)
        self._queue.put(job)
        self._publish_job(job, JOB_QUEUED)
        return job

    def jobs(self, name: Optional[str] = None) -> List[Job]:
        jobs = list(self._jobs)
        if name is not None:
            jobs = [j for j in jobs if j.instance == name]
        return jobs

    def drain(self, timeout: float = 60.0) -> None:
        """Wait for every accepted job to reach a terminal state."""
        if not self._workers:
            while self.pump_jobs(1024):
                pass
            return
        deadline = time.monotonic() + timeout
        for job in list(self._jobs):
            if not job.wait(max(0.0, deadline - time.monotonic())):
                raise TimeoutError(
                    f"job {job.job_id} ({job.kind}) still {job.state} "
                    f"after {timeout}s")

    def pump_jobs(self, steps: int = 1) -> int:
        """Advance background jobs by up to ``steps`` chunk steps
        (deterministic ``workers=0`` mode only); returns steps taken."""
        if self._workers:
            raise RuntimeError(
                "pump_jobs is for workers=0 servers; a worker thread owns "
                "job execution here")
        performed = 0
        for _ in range(steps):
            if self._active is None:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if not self._begin_job(job):
                    continue
                self._active = job
            if self._step_job(self._active):
                self._active = None
            performed += 1
        return performed

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if not self._begin_job(job):
                continue
            while not self._step_job(job):
                time.sleep(WORKER_YIELD_S)

    def _begin_job(self, job: Job) -> bool:
        """Move a dequeued job to RUNNING; False if aborted in queue."""
        if job.abort_requested:
            job.state = JOB_ABORTED
            self._finalize_job(job)
            return False
        job.state = JOB_RUNNING
        self._publish_job(job, JOB_RUNNING)
        return True

    def _step_job(self, job: Job) -> bool:
        try:
            finished = job.runner.step()
        except Exception as exc:  # noqa: BLE001 — a job crash is a result
            why = f"{type(exc).__name__}: {exc}"
            job.runner.fail(why)
            job.state = JOB_FAILED
            job.error = why
            finished = True
        if finished:
            self._finalize_job(job)
        else:
            self._publish_job(job, JOB_RUNNING)
        return finished

    def _finalize_job(self, job: Job) -> None:
        # The runner pins the multiplexer and the retired index; the
        # job record outlives them both.
        job.runner = None
        self._publish_job(job, job.state)
        job._finished.set()

    def _publish_job(self, job: Job, status: str) -> None:
        if self.bus is None:
            return
        served = self._served[job.instance]
        with served.lock:
            t_ns = served.instance.index.meter.total_time()
        self.bus.publish(
            KIND_JOB, source=job.instance, t_ns=t_ns,
            job_id=job.job_id, job_kind=job.kind, status=status,
            chunks=job.chunks_pumped, done=job.done_keys, total=job.total_keys,
            verified_fraction=round(job.verified_fraction, 6),
            eta_ns=job.eta_ns, queue_depth=self._queue.qsize(),
            error=job.error)

    def _publish(self, kind: str, **payload: Any) -> None:
        if self.bus is not None:
            self.bus.publish(kind, **payload)

    # -- status --------------------------------------------------------------

    def status(self, name: str) -> dict:
        """The instance's lifecycle snapshot merged with the server's
        traffic stats and this instance's job history."""
        served = self._served_of(name)
        with served.lock:
            out = served.instance.status()
            out["server"] = {
                "ops": served.ops,
                "dropped": dict(served.dropped),
                "stalled": dict(served.stalled),
                "max_wait_s": served.max_wait_s,
            }
        out["jobs"] = [j.to_dict() for j in self.jobs(name)]
        out["queue_depth"] = self._queue.qsize()
        return out


# ---------------------------------------------------------------------------
# Journal replay through the differential oracle
# ---------------------------------------------------------------------------

def replay_journal(entries: Sequence[JournalEntry],
                   bulk_items: Sequence[Tuple[int, Any]],
                   limit: int = 50) -> List[Mismatch]:
    """Serially replay a server journal through the PR-5 oracle.

    Journal entries are appended while the per-instance lock is held,
    so their order is a serialization of the concurrent history; the
    replay checks that every recorded result matches what a
    single-threaded reference model produces in that order — the
    linearizable-per-key proof the harness asserts is empty.
    """
    differ = DifferentialObserver(limit=limit)
    differ.on_phase("measure", None,
                    SimpleNamespace(bulk_items=list(bulk_items)))
    for entry in entries:
        op = Operation(entry.op, entry.key, entry.value, entry.count)
        differ.on_op(OpEvent(seq=entry.seq, op=op, record=None, ok=entry.ok,
                             scanned=entry.scanned, result=entry.result),
                     None)
    return list(differ.mismatches)
