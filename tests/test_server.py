"""The async multi-tenant index server and its concurrency proof.

The headline tests run the ``tests.server_harness`` checker — N clients
plus a background rebuild against one server, journal replayed serially
through the differential oracle — across **every** shardable registry
index, in both the deterministic interleave and with real threads.  The
rest pins the serving machinery piece by piece: one unfinished job per
tenant, abort and divergence rollback to SERVING, counted refusals of a draining tenant,
job-event ordering on the bus, the PR-6 batch paths, and the meter
contract: every call on a tenant's meter holds the tenant's lock.
"""

import contextlib
import sys
import threading
import time

import pytest

from repro.bench.serve import run_serve_session
from repro.core import server as server_module
from repro.core.cost import CostMeter
from repro.core.events import KIND_JOB, EventBus
from repro.core.instance import (
    DRAINING,
    MIGRATING,
    SERVING,
    AdmissionError,
    IndexInstance,
)
from repro.core.registry import REGISTRY
from repro.core.server import (
    JOB_ABORTED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    IndexServer,
    Job,
    JournalEntry,
)
from repro.core.workloads import INSERT, LOOKUP, Operation, payload
from repro.indexes.btree import BPlusTree
from repro.indexes.multiplex import BACKFILL, VERIFY, MultiplexIndex
from tests.server_harness import (
    build_session,
    check_session,
    shardable_specs,
)

SHARDABLE = [spec.name for spec in shardable_specs()]


def _items(n=200, seed=3):
    import random
    keys = sorted(random.Random(seed).sample(range(1, 10_000_000), n))
    return [(k, payload(k)) for k in keys]


def _manual_server(**kw):
    kw.setdefault("workers", 0)
    return IndexServer(**kw)


def _pump_until(server, pred, limit=10_000):
    for _ in range(limit):
        if pred():
            return
        if not server.pump_jobs(1):
            break
    assert pred(), "server never reached the expected condition"


# -- the proof: every shardable index, rebuild under churn ---------------------

@pytest.mark.parametrize("index_name", SHARDABLE)
def test_deterministic_rebuild_under_churn(index_name):
    report, failures = check_session(index_name, threaded=False)
    assert not failures, "\n".join(failures)
    assert report.ok
    assert report.job["kind"] == "rebuild"
    assert report.job["verified_fraction"] == 1.0


@pytest.mark.parametrize("index_name", SHARDABLE)
def test_threaded_rebuild_under_churn(index_name):
    report, failures = check_session(index_name, threaded=True)
    assert not failures, "\n".join(failures)
    assert report.ok


def test_burst_profile_session():
    report, failures = check_session("B+tree", profile="burst")
    assert not failures, "\n".join(failures)
    # A burst profile actually bursts: inserts dominate the stream.
    assert report.op_counts["insert"] > report.op_counts.get("lookup", 0)


def test_deterministic_session_is_reproducible():
    bulk, streams = build_session("ALEX", seed=11)
    first = run_serve_session("ALEX", bulk, streams, seed=11, chunk=64)
    second = run_serve_session("ALEX", bulk, streams, seed=11, chunk=64)
    assert first.ok and second.ok
    assert first.client_ns == second.client_ns
    assert first.overhead_ns == second.overhead_ns
    assert first.op_counts == second.op_counts
    assert [
        (o.op, o.key, o.value, o.count) for o in first.interleaved_ops
    ] == [(o.op, o.key, o.value, o.count) for o in second.interleaved_ops]


def test_migrate_session_changes_index_type():
    bulk, streams = build_session("ALEX", seed=5)
    report = run_serve_session("ALEX", bulk, streams, rebuild_to="B+tree",
                               seed=5, chunk=64)
    assert report.ok
    assert report.job["kind"] == "migrate"
    assert report.job["dst"] == "B+tree"
    assert report.index_name == "B+tree"


# -- job admission: one unfinished job per tenant ------------------------------

def test_a_tenant_has_at_most_one_unfinished_job():
    """While a tenant's job is queued, then running, a second rebuild or
    migrate raises ``ValueError`` naming that job — no job id drawn, no
    event published, no state changed — and another tenant's job is
    still accepted.  Once the job is done, the next one is accepted."""
    bus = EventBus()
    items = _items()
    with _manual_server(chunk=32, bus=bus) as server:
        inst = server.create_instance("t", "B+tree", items=items)
        server.create_instance("u", "ALEX", items=_items(seed=4))
        first = server.rebuild("t")

        def refused():
            state, published = inst.state, len(bus)
            busy = rf"'t' already has job 1 \(rebuild, {first.state}\)"
            with pytest.raises(ValueError, match=busy):
                server.rebuild("t")
            with pytest.raises(ValueError, match=busy):
                server.migrate("t", "ALEX")
            assert server.jobs("t") == [first]
            assert inst.state == state and len(bus) == published

        refused()
        assert first.state == JOB_QUEUED and inst.state == SERVING
        _pump_until(server, lambda: inst.state == MIGRATING)
        assert server.insert("t", 5, payload(5))
        refused()
        assert first.state == JOB_RUNNING
        other = server.migrate("u", "B+tree")
        assert other.job_id == 2
        server.drain()
        assert (first.state, other.state) == (JOB_DONE, JOB_DONE)
        again = server.migrate("t", "ALEX")
        assert again.job_id == 3
        server.drain()
        assert again.state == JOB_DONE, again.error
        assert server.status("t")["index"] == "ALEX"
        assert server.jobs("t") == [first, again]
        assert server.lookup("t", 5) == payload(5)
        assert not server.replay_check("t")
        assert not server.replay_check("u")


def test_racing_submitters_get_exactly_one_job(monkeypatch):
    """Two threads released together both submit a rebuild of one
    tenant on a ``workers=0`` server: the busy check and the job's
    registration share the tenant's lock, so exactly one gets a
    job and the other a ``ValueError``.  Building the job sleeps, which
    holds the window between the check and the registration open."""
    class SlowJob(Job):
        def __init__(self, *args, **kw):
            time.sleep(0.005)
            super().__init__(*args, **kw)

    monkeypatch.setattr(server_module, "Job", SlowJob)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _manual_server(chunk=64) as server:
            server.create_instance("t", "B+tree", items=_items(n=60))
            for round_ in range(20):
                barrier = threading.Barrier(2)
                outcomes = []

                def submit():
                    barrier.wait(timeout=10.0)
                    try:
                        outcomes.append(server.rebuild("t"))
                    except ValueError as exc:
                        outcomes.append(exc)

                threads = [threading.Thread(target=submit, daemon=True)
                           for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                jobs = [o for o in outcomes if isinstance(o, Job)]
                assert len(outcomes) == 2 and len(jobs) == 1, outcomes
                assert "already has job" in str(
                    next(o for o in outcomes if not isinstance(o, Job)))
                assert server.jobs("t")[round_:] == jobs
                server.drain()
                assert jobs[0].state == JOB_DONE, jobs[0].error
            assert not server.replay_check("t")
    finally:
        sys.setswitchinterval(interval)


def test_abort_in_queue_never_touches_the_instance():
    with _manual_server(chunk=64) as server:
        server.create_instance("t", "B+tree", items=_items())
        job = server.rebuild("t")
        job.abort()
        server.drain()
        assert job.state == JOB_ABORTED
        assert server.instance("t").state == SERVING


# -- rollback: abort and divergence -------------------------------------------

def test_rebuild_abort_rolls_back_to_serving():
    with _manual_server(chunk=32) as server:
        inst = server.create_instance("t", "B+tree", items=_items())
        original = inst.index
        job = server.rebuild("t")
        _pump_until(server, lambda: inst.state == MIGRATING)
        server.pump_jobs(2)               # a couple of backfill chunks
        assert not job.finished
        job.abort()
        server.drain()
        assert job.state == JOB_ABORTED
        assert inst.state == SERVING
        assert inst.index is original     # secondary detached, no cutover
        assert server.lookup("t", _items()[0][0]) == payload(_items()[0][0])
        assert not server.replay_check("t")


def test_divergence_fails_job_and_rolls_back():
    items = _items()
    with _manual_server(chunk=32) as server:
        inst = server.create_instance("t", "B+tree", items=items)
        original = inst.index
        job = server.rebuild("t")
        _pump_until(server, lambda: inst.state == MIGRATING)
        mux = job.runner.mux
        _pump_until(server, lambda: mux.phase == VERIFY)
        # Poison the built secondary: a key now disagrees with the
        # primary, so verification must fail the job, not cut over.
        poisoned = items[0][0]
        assert mux.secondary.update(poisoned, 0xBAD)
        server.drain()
        assert job.state == JOB_FAILED
        assert job.error
        assert inst.state == SERVING
        assert inst.index is original
        assert server.lookup("t", poisoned) == payload(poisoned)
        assert not server.replay_check("t")


def test_foreground_ops_flow_while_the_secondary_is_being_built():
    """The one O(n) step of a rebuild — ``bulk_load`` of the staged
    snapshot — must hold no instance lock: with the build blocked on an
    event, reads and writes on that instance still return promptly."""
    building, release = threading.Event(), threading.Event()

    class BlockingBuildBTree(BPlusTree):
        def bulk_load(self, items):
            building.set()
            assert release.wait(timeout=30.0)
            super().bulk_load(items)

    items = _items()
    fresh = 10**12 + 7
    with IndexServer(workers=1, chunk=64) as server:
        server.create_instance("t", "B+tree", items=items)
        job = server.rebuild("t", factory=BlockingBuildBTree)
        try:
            assert building.wait(timeout=30.0), "build never started"
            results = []

            def client():
                results.append(server.lookup("t", items[0][0]))
                results.append(server.insert("t", fresh, payload(fresh)))
                results.append(server.update("t", items[1][0], 77))

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "client op waited on the build"
            assert results == [payload(items[0][0]), True, True]
            mux = job.runner.mux
            assert mux.phase == BACKFILL and mux.status()["delta"] == 2
            assert not job.finished
        finally:
            release.set()
        assert job.wait(timeout=30.0)
        assert job.state == JOB_DONE, job.error
        inst = server.instance("t")
        assert isinstance(inst.index, BlockingBuildBTree)
        assert server.lookup("t", fresh) == payload(fresh)
        assert server.lookup("t", items[1][0]) == 77
        assert server.replay_check("t") == []
        status = server.status("t")["server"]
        assert status["dropped"] == {} and status["stalled"] == {}


@pytest.mark.parametrize("workers", [0, 1])
def test_a_crashing_job_step_rolls_the_instance_back(workers):
    """A secondary whose build raises used to fail the job and leave
    the instance MIGRATING behind a multiplexer nothing pumped again: it
    logged every later write, and the next rebuild was refused as
    ``migrating -> migrating``."""
    class ExplodingBuildBTree(BPlusTree):
        def bulk_load(self, items):
            raise RuntimeError("build exploded")

    bus = EventBus()
    with IndexServer(workers=workers, chunk=64, bus=bus) as server:
        inst = server.create_instance("t", "B+tree", items=_items())
        original = inst.index
        job = server.rebuild("t", factory=ExplodingBuildBTree)
        server.drain()
        assert job.state == JOB_FAILED
        assert job.error == "RuntimeError: build exploded"
        assert inst.state == SERVING and inst.index is original
        last = bus.events(kind="state", source="t")[-1]
        assert (last["from_state"], last["to"]) == (MIGRATING, SERVING)
        assert last["reason"] == "job 1 failed: RuntimeError: build exploded"
        fresh = [10**12 + 7 * i for i in range(300)]
        for key in fresh:
            assert server.insert("t", key, payload(key))
        assert len(original) == len(_items()) + len(fresh)
        assert not server.replay_check("t")
        again = server.rebuild("t")
        server.drain()
        assert again.state == JOB_DONE, again.error
        assert inst.state == SERVING
        assert type(inst.index) is BPlusTree and inst.index is not original
        assert all(server.lookup("t", key) == payload(key) for key in fresh)
        assert not server.replay_check("t")


# -- admission: the refusal path ------------------------------------------------

def test_a_draining_tenant_serves_reads_and_refuses_writes_counted():
    """A tenant advanced to DRAINING (under its lock, as every state
    change of a served instance is) keeps serving reads; a write
    raises, is counted once in the instance and once in the server's
    ``dropped``, and leaves no journal row behind."""
    items = _items(n=60)
    with _manual_server() as server:
        inst = server.create_instance("t", "B+tree", items=items)
        assert server.lookup("t", items[0][0]) == payload(items[0][0])
        lock = server._served["t"].lock
        lock.acquire()
        try:
            inst.advance(DRAINING, "tenant drains")
        finally:
            lock.release()
        assert server.lookup("t", items[1][0]) == payload(items[1][0])
        assert server.lookup_many("t", [items[2][0]]) == [payload(items[2][0])]
        with pytest.raises(AdmissionError):
            server.insert("t", 5, payload(5))
        assert inst.rejected == {INSERT: 1}
        stats = server.status("t")["server"]
        assert stats["dropped"] == {INSERT: 1} and stats["ops"] == 3
        assert [e.op for e in server.journal("t")] == [LOOKUP] * 3
        assert server.lookup("t", 5) is None
        assert not server.replay_check("t")


# -- job events on the bus ------------------------------------------------------

def test_job_events_are_ordered_and_monotone():
    bus = EventBus()
    bulk, streams = build_session("ALEX", seed=2)
    report = run_serve_session("ALEX", bulk, streams, seed=2, chunk=64,
                               bus=bus)
    assert report.ok
    events = bus.events(kind=KIND_JOB, source="tenant")
    assert events, "the rebuild published no job events"
    statuses = [e["status"] for e in events]
    assert statuses[0] == JOB_QUEUED
    assert statuses[-1] == JOB_DONE
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    chunks = [e["chunks"] for e in events]
    assert chunks == sorted(chunks)
    dones = [e["done"] for e in events]
    assert dones == sorted(dones)
    # Queue-depth gauge rides on every job event.
    assert all("queue_depth" in e for e in events)
    terminal = events[-1]
    assert terminal["verified_fraction"] == 1.0
    assert terminal["eta_ns"] == 0.0


# -- batch paths through the server --------------------------------------------

def test_batch_ops_are_journaled_and_replayable():
    items = _items(n=120)
    with _manual_server() as server:
        server.create_instance("t", "ALEX", items=items)
        fresh = [(10**12 + i * 7, payload(10**12 + i * 7)) for i in range(40)]
        oks = server.insert_many("t", fresh)
        assert all(oks)
        keys = [k for k, _ in items[:20]] + [k for k, _ in fresh[:20]] + [42]
        values = server.lookup_many("t", keys)
        assert values[:40] == [payload(k) for k in keys[:40]]
        assert values[-1] is None
        journal = server.journal("t")
        assert len(journal) == len(fresh) + len(keys)
        assert not server.replay_check("t")
        counts = server.instance("t").op_counts
        assert counts["insert"] == len(fresh)
        assert counts["lookup"] == len(keys)


def test_lookup_many_materialises_a_one_shot_iterable_once():
    """A generator of keys used to be looked up (and charged) and then
    hit ``len(keys)``: a TypeError with nothing journaled or counted."""
    items = _items(n=60)
    keys = [k for k, _ in items[:25]] + [7]
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=items)
        values = server.lookup_many("t", (k for k in keys))
        assert values == [payload(k) for k in keys[:-1]] + [None]
        assert [e.key for e in server.journal("t")] == keys
        assert server.instance("t").op_counts["lookup"] == len(keys)
        oks = server.insert_many("t", ((k + 1, 0) for k in keys[:5]))
        assert oks == [True] * 5
        assert len(server.journal("t")) == len(keys) + 5
        assert not server.replay_check("t")


def test_batch_records_expand_to_the_per_op_journal_under_threads():
    """One thread on scalar ``apply`` ops, one on ``lookup_many`` /
    ``insert_many``, same instance: the expanded journal is gap-free,
    replays clean, and every entry reads as the per-op form did."""
    items = _items(n=300)
    loaded = [k for k, _ in items]
    rounds, width = 30, 24
    calls = []  # the batch client's (op, args, outs), in issue order
    errors = []
    with IndexServer(workers=1) as server:
        server.create_instance("t", "B+tree", items=items)

        def scalar_writer():
            try:
                for i in range(rounds * width):
                    key = 10**12 + i * 3
                    server.apply("t", Operation(INSERT, key, payload(key)))
                    server.apply("t", Operation(LOOKUP, key))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def batch_client():
            try:
                for r in range(rounds):
                    keys = [loaded[(r * width + j) % len(loaded)]
                            for j in range(width - 1)] + [5]  # one miss
                    calls.append((LOOKUP, keys, server.lookup_many("t", keys)))
                    pairs = [(10**13 + (r * width + j) * 3, j)
                             for j in range(width)]
                    pairs[-1] = pairs[0]  # refused duplicate inside the batch
                    calls.append((INSERT, pairs, server.insert_many("t", pairs)))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=scalar_writer, daemon=True),
                   threading.Thread(target=batch_client, daemon=True)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two clients finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]

        journal = server.journal()
        issued = 2 * rounds * width + sum(len(args) for _, args, _ in calls)
        assert len(journal) == issued
        assert [e.seq for e in journal] == list(range(issued))
        assert server.journal("t") == journal
        assert not server.replay_check("t")
        counts = server.instance("t").op_counts
        assert counts["lookup"] + counts["insert"] == issued

        # Each batch op, found by its key, reads exactly as the per-op
        # JournalEntry the server used to append for it.
        by_key = {}
        for entry in journal:
            by_key.setdefault((entry.op, entry.key), []).append(entry)
        for op, args, outs in calls:
            seqs = []
            for arg, out in zip(args, outs):
                key, value = (arg, None) if op == LOOKUP else arg
                entry = by_key[(op, key)].pop(0)
                want = JournalEntry(
                    seq=entry.seq, instance="t", op=op, key=key, value=value,
                    count=0, ok=(out is not None) if op == LOOKUP else out,
                    scanned=0, result=out if op == LOOKUP else None)
                assert entry.to_dict() == want.to_dict()
                seqs.append(entry.seq)
            # One call's ops hold one contiguous block of seq numbers.
            assert seqs == list(range(seqs[0], seqs[0] + len(args)))


# -- status surface -------------------------------------------------------------

def test_status_merges_instance_server_and_jobs():
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=_items(n=80))
        server.lookup("t", _items(n=80)[0][0])
        job = server.rebuild("t")
        status = server.status("t")
        assert status["state"] == SERVING
        assert status["server"]["ops"] == 1
        assert status["server"]["dropped"] == {}
        assert status["jobs"][0]["job_id"] == job.job_id
        assert status["jobs"][0]["state"] == JOB_QUEUED
        assert status["queue_depth"] == 1
        server.drain()
        assert server.status("t")["jobs"][0]["state"] == JOB_DONE
        assert server.status("t")["queue_depth"] == 0


def test_create_instance_validations():
    with _manual_server() as server:
        server.create_instance("t", "B+tree")
        with pytest.raises(ValueError, match="already exists"):
            server.create_instance("t", "ALEX")
        with pytest.raises(ValueError, match="not both"):
            server.create_instance("u", "B+tree", factory=BPlusTree, fanout=8)
        with pytest.raises(KeyError, match="no instance"):
            server.instance("u")
        with pytest.raises(KeyError, match="no instance"):
            server.status("nope")


def test_racing_creates_of_one_name_register_exactly_one():
    """Two ``create_instance`` calls for one name both pass the early
    name check (the factory holds each at a barrier): exactly one is
    hosted, the other raises and registers nothing."""
    barrier = threading.Barrier(2)

    def factory():
        barrier.wait(timeout=10.0)
        return BPlusTree()

    with _manual_server() as server:
        created, errors = [], []

        def create():
            try:
                created.append(server.create_instance(
                    "t", "B+tree", factory=factory, items=_items(n=40)))
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=create) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(created) == 1 and len(errors) == 1, (created, errors)
        assert "instance 't' already exists" in str(errors[0])
        assert server.instance("t") is created[0]
        assert created[0].state == SERVING
        assert len(server._served) == 1


# -- thread-safety: the tenant lock guards the meter ----------------------------

def _hammer(server, items):
    """Two client threads, each inserting 300 fresh keys into tenant
    ``t`` and looking up 300 of ``items``; what they raised."""
    errors = []

    def hammer(base):
        try:
            for i in range(300):
                server.insert("t", base + i * 7, payload(base + i * 7))
                server.lookup("t", items[i % len(items)][0])
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(10**13 * (i + 1),),
                                daemon=True) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    return errors


class _OwnedLock:
    """A tenant lock that records which thread holds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.owner = None

    def acquire(self, blocking=True):
        got = self._lock.acquire(blocking)
        if got:
            self.owner = threading.get_ident()
        return got

    def release(self):
        self.owner = None
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class _RecordingMeter(CostMeter):
    """A meter that reports each charge and read to ``sink``."""

    __slots__ = ("sink",)

    def __init__(self, sink):
        super().__init__()
        self.sink = sink

    def charge(self, kind, n=1.0):
        self.sink(self, "charge")
        CostMeter.charge(self, kind, n)

    def charge_phased(self, phase, kind, n=1.0):
        self.sink(self, "charge_phased")
        CostMeter.charge_phased(self, phase, kind, n)

    def total_time(self):
        self.sink(self, "total_time")
        return CostMeter.total_time(self)

    def snapshot(self):
        self.sink(self, "snapshot")
        return CostMeter.snapshot(self)


def test_every_tenant_meter_call_holds_the_tenant_lock():
    """Two client threads and a worker rebuild, a bus attached, threads
    switching every 10 µs: each call on either of the tenant's meters
    comes from the thread holding its lock, except the worker's calls
    on the secondary's meter while its build is pending."""
    items = _items(n=200)
    served = None
    calls, unlocked = [], []

    def sink(meter, method):
        if served is None:
            return  # the load in create_instance, before the swap
        calls.append(method)
        if served.lock.owner != threading.get_ident():
            index = served.instance.index
            unlocked.append((
                threading.current_thread().name, method,
                isinstance(index, MultiplexIndex)
                and index.secondary is not None
                and meter is index.secondary.meter and index.build_pending))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with IndexServer(workers=1, bus=EventBus(), chunk=16) as server:
            server.create_instance(
                "t", "B+tree", items=items,
                factory=lambda: BPlusTree(meter=_RecordingMeter(sink)))
            served = server._served["t"]
            served.lock = _OwnedLock()
            job = server.rebuild("t")
            errors = _hammer(server, items)
            server.drain()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
    assert job.state == JOB_DONE
    assert calls, "the tenant's meters were never called"
    worker = server._workers[0].name
    stray = [c for c in unlocked if c[0] != worker or not c[2]]
    assert not stray, stray[:5]
    assert unlocked, "the build never ran outside the lock"


def test_two_thread_hammer_keeps_meter_clock_monotone():
    """Two client threads charge the tenant while the worker rebuilds
    it: the clock the worker's ``running`` job events read (under the
    tenant lock) never steps back, and no charge or op is lost."""
    items = _items(n=200)
    bus = EventBus()
    with IndexServer(workers=1, bus=bus, chunk=16) as server:
        server.create_instance("t", "B+tree", items=items)
        job = server.rebuild("t")
        errors = _hammer(server, items)
        server.drain()
        assert not errors, errors[0]
        running = [e["t_ns"] for e in bus.events(kind=KIND_JOB, source="t")
                   if e["status"] == JOB_RUNNING]
        assert running and running == sorted(running), running
        assert server._workers[0].is_alive()
        assert job.state == JOB_DONE
        counts = server.instance("t").op_counts
        assert counts["insert"] == 600
        assert counts["lookup"] == 600
        assert not server.replay_check("t")


def test_a_real_wait_moves_max_wait_and_stalled(monkeypatch):
    """Only a wait the op slept through is recorded: an uncontended op
    leaves ``max_wait_s`` at zero, one parked behind a pump step longer
    than the stall threshold counts as stalled."""
    monkeypatch.setattr(server_module, "STALL_THRESHOLD_S", 0.02)
    items = _items(n=60)
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=items)
        assert server.lookup("t", items[0][0]) == payload(items[0][0])
        stats = server.status("t")["server"]
        assert (stats["max_wait_s"], stats["stalled"]) == (0.0, {})
        lock = server._served["t"].lock
        lock.acquire()                    # a pump step holds the instance
        released = threading.Timer(0.1, lock.release)
        released.start()
        try:
            assert server.lookup("t", items[1][0]) == payload(items[1][0])
        finally:
            released.join(timeout=5.0)
        stats = server.status("t")["server"]
        assert stats["max_wait_s"] >= 0.05
        assert stats["stalled"] == {LOOKUP: 1}
        assert stats["ops"] == 2 and stats["dropped"] == {}


class _CrashingBTree(BPlusTree):
    def insert(self, key, value):
        if key == 13:
            raise RuntimeError("boom")
        return super().insert(key, value)


def test_a_crashing_op_is_counted_and_the_next_op_served():
    """An index op that raises used to escape uncounted: ``dropped``
    claimed to count crashes but only admission refusals reached it."""
    items = _items(n=60)
    with _manual_server() as server:
        server.create_instance("t", "B+tree", factory=_CrashingBTree,
                               items=items)
        lock = server._served["t"].lock
        assert server.lookup("t", items[0][0]) == payload(items[0][0])
        with pytest.raises(RuntimeError, match="boom"):
            server.insert("t", 13, 1)
        assert not lock.locked()
        stats = server.status("t")["server"]
        assert stats["dropped"] == {INSERT: 1} and stats["ops"] == 2
        with pytest.raises(ZeroDivisionError):  # the batch path, mid-iteration
            server.lookup_many("t", (1 // k for k in (1, 0)))
        assert not lock.locked()
        assert server.insert("t", 14, 1)  # the next op is served
        assert server.lookup("t", 14) == 1
        stats = server.status("t")["server"]
        assert stats["dropped"] == {INSERT: 1, LOOKUP: 1}
        assert stats["ops"] == 5
        assert server.instance("t").rejected == {}
        assert [e.key for e in server.journal("t")] == [items[0][0], 14, 14]
        assert not server.replay_check("t")


def _in_thread(fn, timeout=10.0):
    """``fn()``'s result from another thread, which fails the test
    rather than hang it when the call never gets the lock."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert out, "the call never returned: the instance lock was left held"
    return out[0]


@contextlib.contextmanager
def _switch_every_microsecond():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_four_readers_and_a_writer_never_share_the_index():
    """Four reader threads and one writer against one tenant, switching
    threads every microsecond and yielding inside every index op: no two
    ops are ever inside the index at once, every op is journaled and
    counted exactly once, and the journal replays clean."""
    errors = []

    class OneAtATimeBTree(BPlusTree):
        inside = 0

        def _enter(self):
            self.inside += 1
            if self.inside != 1:
                errors.append(f"{self.inside} ops inside the index")
            time.sleep(0)  # let the others try the lock meanwhile

        def lookup(self, key):
            self._enter()
            try:
                return super().lookup(key)
            finally:
                self.inside -= 1

        def insert(self, key, value):
            self._enter()
            try:
                return super().insert(key, value)
            finally:
                self.inside -= 1

    items = _items(n=200)
    fresh = [10**12 + 7 * i for i in range(400)]
    reads = [k for k, _ in items[:100]] + fresh[:300]
    with _manual_server() as server:
        server.create_instance("t", "B+tree", factory=OneAtATimeBTree,
                               items=items)
        start = threading.Barrier(5)

        def run(fn, keys):
            try:
                start.wait()
                for key in keys:
                    fn(key)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(
            target=run, args=(lambda k: server.lookup("t", k), reads),
            daemon=True) for _ in range(4)]
        threads.append(threading.Thread(
            target=run, args=(lambda k: server.insert("t", k, payload(k)),
                              fresh), daemon=True))
        with _switch_every_microsecond():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "a client stranded"
        assert not errors, errors[0]
        lock = server._served["t"].lock
        assert not lock.locked()
        journal = server.journal("t")
        n = 4 * len(reads) + len(fresh)
        assert [e.seq for e in journal] == list(range(n))
        assert sorted(e.key for e in journal if e.op == INSERT) == fresh
        assert all(e.ok for e in journal if e.op == INSERT)
        status = server.status("t")
        assert status["op_counts"] == {LOOKUP: 4 * len(reads),
                                       INSERT: len(fresh)}
        assert status["server"]["ops"] == n
        assert status["server"]["dropped"] == {}
        assert status["server"]["max_wait_s"] > 0.0  # the sleeping path ran
        assert not server.replay_check("t")


def _drain_tenant(server):
    with server._served["t"].lock:
        server.instance("t").advance(DRAINING, "tenant drains")


@pytest.mark.parametrize("call, raises", [
    (lambda s: s.insert("t", 13, 1), RuntimeError),
    (lambda s: s.lookup_many("t", (1 // k for k in (1, 0))),
     ZeroDivisionError),
    (lambda s: s.insert_many("t", ((k, 1 // k) for k in (1, 0))),
     ZeroDivisionError),
    (lambda s: s.insert_many("t", [(12, 1), (13, 1)]), RuntimeError),
    (lambda s: (_drain_tenant(s), s.insert("t", 5, 5)), AdmissionError),
], ids=["scalar-crash", "lookup_many-iterator", "insert_many-iterator",
        "insert_many-crash", "refused"])
def test_no_raising_call_leaves_the_lock_held(call, raises):
    """Every way a foreground call can raise releases the instance lock
    in its ``finally``: the lock is free afterwards and the next op,
    from another thread, is served."""
    items = _items(n=60)
    with _manual_server() as server:
        server.create_instance("t", "B+tree", factory=_CrashingBTree,
                               items=items)
        with pytest.raises(raises):
            call(server)
        assert not server._served["t"].lock.locked()
        key = items[1][0]
        assert _in_thread(lambda: server.lookup("t", key)) == payload(key)
        assert _in_thread(lambda: server.status("t"))["server"]["ops"] >= 1
        assert not server.replay_check("t")


def test_status_and_journal_from_another_thread_agree_with_the_ops():
    """``status()`` and ``journal()`` polled from a monitor thread while
    two clients run scalar ops never raise, and never show a count the
    journal contradicts: a snapshot's ``ops`` equals its instance's
    ``op_counts`` total, and a journal read between two snapshots holds
    at least the first one's ops and at most the second one's."""
    items = _items(n=200)
    errors, done = [], threading.Event()
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=items)

        def client(base):
            try:
                for i in range(600):
                    key = base + i
                    server.insert("t", key, payload(key))
                    server.lookup("t", key)
                    if i % 3 == 0:
                        server.update("t", key, 7)
                    if i % 5 == 0:
                        server.delete("t", key)
                    if i % 7 == 0:
                        server.scan("t", key, 4)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def monitor():
            try:
                while not done.is_set():
                    before = server.status("t")
                    journal = server.journal("t")
                    after = server.status("t")
                    for snap in (before, after):
                        assert snap["server"]["ops"] == snap["ops"], snap
                    assert (before["server"]["ops"] <= len(journal)
                            <= after["server"]["ops"])
                    assert [e.seq for e in journal] == list(
                        range(len(journal)))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        clients = [threading.Thread(target=client, args=(base,), daemon=True)
                   for base in (10**12, 2 * 10**12)]
        watcher = threading.Thread(target=monitor, daemon=True)
        with _switch_every_microsecond():
            watcher.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            done.set()
            watcher.join(timeout=60.0)
        assert not any(t.is_alive() for t in clients + [watcher])
        assert not errors, errors[0]
        assert server.status("t")["server"]["ops"] == len(server.journal("t"))
        assert not server.replay_check("t")


def test_every_state_change_of_a_served_instance_holds_its_write_lock(
        monkeypatch):
    """What lets ``apply`` check admission and run its op in one hold:
    a state change under the instance lock cannot land between the
    check and the op."""
    seen = []
    real = IndexInstance.advance
    with _manual_server(chunk=32) as server:
        def advance(self, state, reason=""):
            seen.append((self.name, state,
                         server._served[self.name].lock.locked()))
            return real(self, state, reason)

        monkeypatch.setattr(IndexInstance, "advance", advance)
        server.create_instance("direct", "B+tree", items=_items(n=80))
        server.create_instance("empty", "B+tree")
        server.rebuild("direct")
        server.migrate("empty", "ALEX")
        server.drain()
        job = server.rebuild("direct")
        _pump_until(server, lambda: server.instance("direct").state == MIGRATING)
        job.abort()
        server.drain()
    assert [state for _, state, _ in seen] == [
        SERVING, SERVING, MIGRATING, SERVING, MIGRATING, SERVING,
        MIGRATING, SERVING]
    assert all(held for *_, held in seen), seen


def test_journal_rows_are_no_bigger_than_the_entries_they_stand_for():
    """A scalar op is journaled in its instance's own list as a 7-field
    tuple (``JournalEntry``'s fields less ``seq`` and ``instance``),
    built into a ``JournalEntry`` only when ``journal()`` is first read,
    in place — and the row the server keeps until then is no bigger than
    the entry."""
    items = _items(n=60)
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=items)
        server.lookup("t", items[0][0])
        server.insert("t", 5, 6)
        server.lookup_many("t", [5, 6])
        server.scan("t", items[0][0], 3)
        journal = server._served["t"].journal
        rows, entries = list(journal), server.journal()
        assert [(type(row), len(row)) for row in rows[:2] + rows[3:]] == [
            (tuple, 7)] * 3
        assert [e.seq for e in entries] == [0, 1, 2, 3, 4]
        for row, entry in zip(rows[:2] + rows[3:], entries[:2] + entries[4:]):
            assert sys.getsizeof(row) <= sys.getsizeof(entry)
        # The rows became the entries: a second read builds nothing.
        assert journal[:2] == entries[:2]
        again = server.journal()
        assert all(a is b for a, b in zip(again[:2] + again[4:],
                                          entries[:2] + entries[4:]))
        server.insert("t", 7, 8)  # rows appended later still read in order
        assert [e.seq for e in server.journal("t")] == [0, 1, 2, 3, 4, 5]


def test_each_tenant_keeps_its_own_journal():
    """Scalar and batch calls interleaved across two tenants: each
    journal is numbered from 0 and replays clean on its own, ``journal()``
    is the tenants' journals in creation order, and each tenant's
    ``ops`` counts its own calls exactly."""
    with _manual_server() as server:
        server.create_instance("b", "ALEX", items=_items(n=80, seed=2))
        server.create_instance("a", "B+tree", items=_items(n=80, seed=1))
        calls, sizes = {"a": 0, "b": 0}, {"a": 0, "b": 0}
        for i in range(48):
            name = "ab"[(i * 7 // 3) % 2]
            key = 10**9 + i
            if i % 4 == 0:
                server.insert(name, key, payload(key))
                size = 1
            elif i % 4 == 1:
                server.lookup_many(name, [key - 1, key, 5])
                size = 3
            elif i % 4 == 2:
                server.scan(name, key - 3, 4)
                size = 1
            else:
                server.insert_many(name, [(key, 1), (key + 10**6, 2)])
                size = 2
            calls[name] += 1
            sizes[name] += size
        assert min(calls.values()) > 10
        for name in "ab":
            journal = server.journal(name)
            assert [e.seq for e in journal] == list(range(sizes[name]))
            assert {e.instance for e in journal} == {name}
            assert not server.replay_check(name)
            assert server.status(name)["server"]["ops"] == calls[name]
        assert server.journal() == server.journal("b") + server.journal("a")


def test_tenant_journals_stay_exact_under_threads():
    """Four client threads (more than cores) spread scalar and batch
    calls over two tenants at a 10 µs switch interval: no count or
    journal row is lost, and each tenant's journal is gap-free and
    replays clean."""
    clients, rounds = 4, 40
    errors = []
    with IndexServer(workers=1) as server:
        for name, seed in (("a", 1), ("b", 2)):
            server.create_instance(name, "B+tree",
                                   items=_items(n=100, seed=seed))

        def client(c):
            try:
                for r in range(rounds):
                    name = "ab"[(c + r) % 2]
                    key = 10**12 + (c * rounds + r) * 4
                    server.insert(name, key, payload(key))
                    server.lookup_many(name, [key, key + 1])
                    server.scan(name, key - 5, 3)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        per_tenant = clients * rounds // 2
        for name in "ab":
            journal = server.journal(name)
            assert [e.seq for e in journal] == list(range(4 * per_tenant))
            assert not server.replay_check(name)
            assert server.status(name)["server"]["ops"] == 3 * per_tenant
            assert server.instance(name).ops_total == 4 * per_tenant


@pytest.mark.parametrize("how", ["config", "factory"])
def test_a_rebuild_keeps_the_tenants_configuration(how):
    """A same-type rebuild used to cut over to the registry default (a
    fanout-32 B+tree); it builds what the tenant was built with, an
    explicit ``factory=`` wins and is kept, and a migration to another
    index takes that index's default."""
    built = ({"fanout": 8} if how == "config"
             else {"factory": lambda: BPlusTree(fanout=8)})
    with _manual_server(chunk=32) as server:
        server.create_instance("t", "B+tree", items=_items(n=150), **built)
        original = server.instance("t").index
        server.rebuild("t")
        server.drain()
        index = server.instance("t").index
        assert index is not original and index.fanout == 8
        assert server.jobs("t")[-1].state == JOB_DONE
        server.rebuild("t", factory=lambda: BPlusTree(fanout=16))
        server.drain()
        assert server.instance("t").index.fanout == 16
        server.rebuild("t")
        server.drain()
        assert server.instance("t").index.fanout == 16
        server.migrate("t", "ALEX")
        server.drain()
        assert server.status("t")["index"] == "ALEX"
        server.rebuild("t")
        server.drain()
        assert server.status("t")["index"] == "ALEX"
        assert [j.state for j in server.jobs("t")] == [JOB_DONE] * 5
        assert not server.replay_check("t")


def test_a_failed_synchronous_load_leaves_no_instance_behind():
    """An unsorted ``items=`` load raises — and used to leave the name
    registered as a LOADING instance that refused every op and every
    retry ("already exists").  A duplicate key is refused the same way:
    it used to be served from an unsound index of the wrong size, which
    ``replay_check`` (whose oracle dict absorbs the duplicate) passed."""
    items = _items(n=60)
    duplicate = items[:31] + [(items[30][0], "again")] + items[31:]
    for bad in (items[::-1], duplicate):
        with _manual_server() as server:
            with pytest.raises(ValueError, match="bulk_load requires"):
                server.create_instance("t", "B+tree", items=bad)
            with pytest.raises(KeyError):
                server.instance("t")
            assert server.journal() == []
            server.create_instance("t", "B+tree", items=items)
            assert server.lookup("t", items[0][0]) == payload(items[0][0])
            assert server.status("t")["server"]["dropped"] == {}


def test_a_scan_journals_its_own_copy_of_the_rows():
    """``scan`` returns the rows it journaled; a caller that reorders
    them used to rewrite the journal, and the replay then flagged an op
    that had been served correctly."""
    items = _items(n=60)
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=items)
        rows = server.scan("t", items[5][0], 3)
        assert rows == items[5:8]
        rows.reverse()
        assert not server.replay_check("t")
        assert server.journal("t")[0].to_dict()["result"] == [
            list(row) for row in items[5:8]]


def test_server_validates_configuration():
    with pytest.raises(ValueError, match="workers"):
        IndexServer(workers=3)
    for chunk in (0, -5):
        with pytest.raises(ValueError, match="chunk"):
            IndexServer(workers=0, chunk=chunk)
    with _manual_server() as server:
        server.create_instance("t", "B+tree", items=_items(n=40))
        with pytest.raises(ValueError, match="destination"):
            server.migrate("t", "RMI")   # RMI is read-only, no backfill
    with IndexServer(workers=1) as threaded:
        with pytest.raises(RuntimeError, match="workers=0"):
            threaded.pump_jobs()


def test_all_registry_specs_have_shardable_flag_consistency():
    # The harness sweep is only a proof if it covers what it claims:
    # every spec with insert+range is in the shardable sweep.
    for spec in REGISTRY:
        expected = spec.supports_insert and spec.supports_range
        assert spec.supports_migration == expected
