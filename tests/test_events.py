"""The event bus: mechanics, emitters, and the zero-cost contract.

The acceptance bar for the observability layer is the last test here:
attaching an :class:`EventBus` + :class:`SLOTracker` + live tower to a
run leaves the result fingerprint bit-identical to a bare run, for
every index in the registry.
"""

import json
import random
import threading

import pytest

from repro.core.events import (
    KIND_ADMISSION_REJECT,
    KIND_BACKFILL_CHUNK,
    KIND_CACHE_HIT,
    KIND_CUTOVER,
    KIND_OP_WINDOW,
    KIND_PHASE,
    KIND_SMO,
    KIND_STATE,
    KIND_SWEEP_TASK,
    EventBus,
    validate_bus_events,
)
from repro.core.instance import DRAINING, MIGRATING, AdmissionError, IndexInstance
from repro.core.migrate import run_migration
from repro.core import runner
from repro.core.registry import REGISTRY
from repro.core.results import load_jsonl, result_record
from repro.core.runner import ExecutionEngine, execute
from repro.core.slo import ControlTower, SLOTracker
from repro.core.sweep import (
    DatasetSpec,
    SweepCache,
    WorkloadSpec,
    plan_grid,
    result_fingerprint,
    run_sweep,
)
from repro.core.workloads import mixed_workload, payload
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree
from tests import observer_reference as reference

KEYS = sorted(random.Random(11).sample(range(1, 50_000_000), 3000))
ITEMS = [(k, payload(k)) for k in KEYS]


# -- bus mechanics -------------------------------------------------------------

def test_publish_assigns_monotonic_seq():
    bus = EventBus()
    a = bus.publish(KIND_PHASE, source="x", t_ns=1.0, phase="measure")
    b = bus.publish(KIND_SMO, source="x", t_ns=2.0)
    assert (a["seq"], b["seq"]) == (0, 1)
    assert a["kind"] == KIND_PHASE and a["phase"] == "measure"
    assert len(bus) == 2 and bus.published == 2 and bus.dropped == 0


def test_unknown_kind_rejected():
    bus = EventBus()
    with pytest.raises(ValueError, match="unknown event kind"):
        bus.publish("reticulate", source="x")
    assert len(bus) == 0 and bus.published == 0


def test_ring_overflow_drops_oldest_never_silently():
    bus = EventBus(capacity=4)
    for i in range(10):
        bus.publish(KIND_SMO, source="x", t_ns=float(i), i=i)
    assert len(bus) == 4
    assert bus.published == 10
    assert bus.dropped == 6
    assert [e["i"] for e in bus.events()] == [6, 7, 8, 9]
    with pytest.raises(ValueError):
        EventBus(capacity=0)


def test_subscribe_filtering_and_unsubscribe():
    bus = EventBus()
    everything, smos_only = [], []
    bus.subscribe(everything.append)
    cb = bus.subscribe(smos_only.append, kinds={KIND_SMO})
    bus.publish(KIND_SMO, source="x")
    bus.publish(KIND_PHASE, source="x", phase="measure")
    assert len(everything) == 2 and len(smos_only) == 1
    bus.unsubscribe(cb)
    bus.publish(KIND_SMO, source="x")
    assert len(smos_only) == 1 and len(everything) == 3
    with pytest.raises(ValueError, match="unknown event kinds"):
        bus.subscribe(lambda e: None, kinds={"nope"})


def test_events_filtered_by_kind_and_source():
    bus = EventBus()
    bus.publish(KIND_SMO, source="a")
    bus.publish(KIND_SMO, source="b")
    bus.publish(KIND_PHASE, source="a", phase="done")
    assert len(bus.events(kind=KIND_SMO)) == 2
    assert len(bus.events(source="a")) == 2
    assert len(bus.events(kind=KIND_SMO, source="b")) == 1


def test_concurrent_publish_keeps_exact_counts():
    bus = EventBus(capacity=128)

    def hammer():
        for _ in range(200):
            bus.publish(KIND_SMO, source="t")

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bus.published == 800
    assert len(bus) == 128 and bus.dropped == 672
    seqs = [e["seq"] for e in bus.events()]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_save_load_validate_roundtrip(tmp_path):
    bus = EventBus()
    bus.publish(KIND_PHASE, source="x", t_ns=1.0, phase="measure")
    bus.publish(KIND_OP_WINDOW, source="x", t_ns=9.0, ops=5)
    path = str(tmp_path / "events.jsonl")
    assert bus.save(path) == 2
    records = load_jsonl(path)
    assert validate_bus_events(records) == 2
    assert all(r["schema_version"] == 1 for r in records)
    assert all(r["tags"] == {"artifact": "events"} for r in records)


def test_validate_rejects_malformed_streams():
    ok = {"kind": KIND_SMO, "source": "x", "t_ns": 0.0, "seq": 0}
    with pytest.raises(ValueError, match="missing field"):
        validate_bus_events([{"kind": KIND_SMO, "source": "x", "t_ns": 0.0}])
    with pytest.raises(ValueError, match="unknown kind"):
        validate_bus_events([dict(ok, kind="mystery")])
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_bus_events([ok, dict(ok, seq=0)])
    assert validate_bus_events([ok, dict(ok, seq=7)]) == 2


# -- the engine emitter --------------------------------------------------------

def test_engine_windows_cover_every_measured_op():
    bus = EventBus()
    wl = mixed_workload(KEYS, 0.0, n_ops=1000, seed=1)
    execute(BPlusTree(), wl, observers=[bus.engine_observer(window_ops=100)])
    phases = [e["phase"] for e in bus.events(kind=KIND_PHASE)]
    assert phases == ["bulk_load", "measure", "done"]
    windows = bus.events(kind=KIND_OP_WINDOW)
    assert len(windows) == 10
    assert sum(w["ops"] for w in windows) == 1000
    assert all(w["source"] == "B+tree" for w in windows)
    assert all(w["op_counts"] == {"lookup": 100} for w in windows)
    assert all(w["ops_per_vsec"] > 0 for w in windows)
    # Virtual timestamps tile: each window starts where the last ended.
    for prev, cur in zip(windows, windows[1:]):
        assert cur["window_start_ns"] == prev["t_ns"]
    assert validate_bus_events(bus.events()) == len(bus)


def test_partial_last_window_flushes_at_done():
    bus = EventBus()
    wl = mixed_workload(KEYS, 0.0, n_ops=250, seed=2)
    execute(BPlusTree(), wl, observers=[bus.engine_observer(window_ops=100)])
    windows = bus.events(kind=KIND_OP_WINDOW)
    assert [w["ops"] for w in windows] == [100, 100, 50]


def test_smo_events_carry_structural_payload():
    bus = EventBus()
    wl = mixed_workload(KEYS, 0.6, n_ops=2500, seed=3)
    result = execute(ALEX(), wl, bus=bus)
    smos = bus.events(kind=KIND_SMO)
    assert len(smos) == result.insert_stats.smo_count
    assert all(s["source"] == "ALEX" for s in smos)
    assert any(s["nodes_created"] or s["keys_shifted"] for s in smos)
    assert all(s["op_seq"] >= 0 for s in smos)


# -- the instance relay --------------------------------------------------------

def test_instance_lifecycle_relays_state_events():
    bus = EventBus()
    inst = IndexInstance(BPlusTree(), name="bt@0").attach_bus(bus)
    inst.bulk_load(ITEMS[:100])
    inst.advance(MIGRATING, "handing off")
    states = bus.events(kind=KIND_STATE)
    assert [(e["from_state"], e["to"]) for e in states] == [
        ("loading", "serving"), ("serving", "migrating")]
    assert states[1]["reason"] == "handing off"
    assert all(e["source"] == "bt@0" for e in states)


def test_backfill_progress_relays_with_fraction():
    bus = EventBus()
    inst = IndexInstance(BPlusTree(), name="bt@1").attach_bus(bus)
    inst.note_backfill("backfill", 25, 100)
    inst.note_backfill("verify", 100, 100)
    chunks = bus.events(kind=KIND_BACKFILL_CHUNK)
    assert [c["fraction"] for c in chunks] == [0.25, 1.0]
    assert chunks[1]["stage"] == "verify"


def test_admission_rejects_relay():
    bus = EventBus()
    inst = IndexInstance(BPlusTree())
    inst.bulk_load(ITEMS[:50])
    inst.attach_bus(bus)
    inst.advance(MIGRATING).advance(DRAINING)
    with pytest.raises(AdmissionError):
        inst.admit("insert")
    rejects = bus.events(kind=KIND_ADMISSION_REJECT)
    assert len(rejects) == 1
    assert rejects[0]["op"] == "insert" and rejects[0]["state"] == DRAINING


# -- migration and sweep emitters ----------------------------------------------

def test_migration_publishes_full_stream_without_changing_report():
    wl = mixed_workload(KEYS[:1200], 0.3, n_ops=1500, seed=4)
    bare = run_migration("btree", "alex", wl, chunk=64)
    bus = EventBus()
    observed = run_migration("btree", "alex", wl, chunk=64,
                             bus=bus, bus_window=200)
    # Zero-cost: the bus changes nothing measurable.
    for field in ("completed", "rejected_ops", "cutover_seq",
                  "backfill_keys", "verify_keys", "dual_writes"):
        assert getattr(observed, field) == getattr(bare, field)

    assert validate_bus_events(bus.events()) == len(bus)
    cuts = bus.events(kind=KIND_CUTOVER)
    assert len(cuts) == 1
    assert cuts[0]["op_seq"] == observed.cutover_seq
    assert cuts[0]["src"] == "B+tree@0" and cuts[0]["dst"] == "ALEX@1"
    chunks = bus.events(kind=KIND_BACKFILL_CHUNK)
    assert chunks and chunks[-1]["fraction"] > 0.9
    assert {c["stage"] for c in chunks} >= {"backfill", "verify"}
    states = bus.events(kind=KIND_STATE)
    assert ("ALEX@1", "serving") in {(e["source"], e["to"]) for e in states}
    assert ("B+tree@0", "retired") in {(e["source"], e["to"]) for e in states}
    windows = bus.events(kind=KIND_OP_WINDOW)
    assert windows and all(w["ops_per_vsec"] > 0 for w in windows)


def test_sweep_publishes_tasks_then_cache_hits(tmp_path):
    tasks = plan_grid([DatasetSpec("covid", 800, 0)],
                      [WorkloadSpec.mixed(0.0, n_ops=300, seed=1)],
                      ["ALEX", "B+tree"])
    cache = SweepCache(str(tmp_path / "cache"))
    bus = EventBus()
    run_sweep(tasks, jobs=1, cache=cache, bus=bus)
    assert len(bus.events(kind=KIND_SWEEP_TASK)) == 2
    assert len(bus.events(kind=KIND_CACHE_HIT)) == 0
    rerun = EventBus()
    run_sweep(tasks, jobs=1, cache=cache, bus=rerun)
    assert len(rerun.events(kind=KIND_CACHE_HIT)) == 2
    assert len(rerun.events(kind=KIND_SWEEP_TASK)) == 0
    hit = rerun.events(kind=KIND_CACHE_HIT)[0]
    assert hit["dataset"] == "covid" and hit["throughput_mops"] > 0


# -- the acceptance bar: zero cost across the whole registry -------------------

@pytest.mark.parametrize("name", REGISTRY.names())
def test_fingerprint_parity_with_full_observability(name):
    """Bus + SLO tracker + live tower attached == bare run, bit for bit."""
    spec = REGISTRY.get(name)
    write_frac = 0.3 if spec.supports_insert else 0.0
    keys = KEYS[:800]
    wl = mixed_workload(keys, write_frac, n_ops=400, seed=6)

    fp_bare = result_fingerprint(result_record(execute(spec.factory(), wl)))

    bus = EventBus()
    tower = ControlTower()
    bus.subscribe(tower.consume)
    slo = SLOTracker(window_ops=64, bus=bus)
    observed = execute(spec.factory(), wl,
                       observers=[slo, bus.engine_observer(window_ops=64)])
    assert result_fingerprint(result_record(observed)) == fp_bare
    assert len(bus) > 0 and bus.dropped == 0
    assert tower.rows  # the tower really saw the run


@pytest.mark.parametrize("block", [0, 64])
@pytest.mark.parametrize("name", REGISTRY.names())
def test_bus_and_slo_match_reference_on_the_same_run(name, block, monkeypatch):
    """The pre-change bus emitter and a tracker that re-sums the meter
    per op ride the same run as today's: equal events, equal windows."""
    factory, wl = reference.parity_case(name)
    ref_bus, bus = EventBus(), EventBus()
    ref_slo = reference.SLOTracker(window_ops=64, bus=ref_bus)
    slo = SLOTracker(window_ops=64, bus=bus)
    engine = ExecutionEngine(  # emitter before tracker, on both buses
        observers=[reference.EngineBusEmitter(ref_bus, window_ops=64),
                   ref_slo, bus.engine_observer(window_ops=64), slo])
    observed = engine.run(factory(), wl)

    assert len(bus.events(kind=KIND_OP_WINDOW)) == -(-wl.n_ops // 64)
    # Not ``==``: that would let an int 0 pass for a float 0.0.
    assert json.dumps(bus.events()) == json.dumps(ref_bus.events())
    assert json.dumps(slo.windows) == json.dumps(ref_slo.windows)
    assert json.dumps(slo.summary()) == json.dumps(ref_slo.summary())

    # The observed run took the per-op loop; the bare one resolves the
    # stream's closing lookup run in blocks when they are 64 ops long.
    if block:
        monkeypatch.setattr(runner, "LOOKUP_STREAK", 8)
        monkeypatch.setattr(runner, "LOOKUP_BLOCK", block)
    bare = ExecutionEngine().run(factory(), wl)
    assert (result_fingerprint(result_record(observed))
            == result_fingerprint(result_record(bare)))


# -- multi-shard emitter stress (sharded serving tier) -------------------------

def test_multi_shard_emitters_preserve_per_publisher_order():
    """N shard threads publish interleaved typed events; the ring keeps
    every publisher's own sequence intact and the subscriber sees all."""
    bus = EventBus()
    n_threads, n_events = 8, 300
    seen = []
    lock = threading.Lock()

    def consume(event):
        with lock:
            seen.append(event)

    bus.subscribe(consume)
    barrier = threading.Barrier(n_threads)

    def emitter(sid):
        src = f"shard/s{sid}"
        barrier.wait()
        for i in range(n_events):
            if i % 3 == 0:
                bus.publish(KIND_STATE, source=src, t_ns=float(i),
                            state="serving", i=i)
            else:
                bus.publish(KIND_BACKFILL_CHUNK, source=src, t_ns=float(i),
                            done=i, total=n_events, i=i)

    threads = [threading.Thread(target=emitter, args=(s,))
               for s in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bus.published == n_threads * n_events
    assert bus.dropped == 0 and len(bus) == n_threads * n_events
    assert len(seen) == n_threads * n_events
    events = bus.events()
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    for sid in range(n_threads):
        src = f"shard/s{sid}"
        mine = [e for e in events if e["source"] == src]
        assert [e["i"] for e in mine] == list(range(n_events))
        # Typed ordering: each publisher's kind schedule survives the
        # interleaving bit for bit.
        assert [e["kind"] for e in mine] == [
            KIND_STATE if i % 3 == 0 else KIND_BACKFILL_CHUNK
            for i in range(n_events)]


def test_multi_shard_emitters_overflow_keeps_order_never_silent():
    """Under a tiny ring, overflow drops oldest-first with exact counts,
    and what survives is still in publisher order per source."""
    bus = EventBus(capacity=64)
    n_threads, n_events = 4, 200

    def emitter(sid):
        for i in range(n_events):
            bus.publish(KIND_SMO, source=f"shard/s{sid}", t_ns=float(i), i=i)

    threads = [threading.Thread(target=emitter, args=(s,))
               for s in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bus.published == n_threads * n_events
    assert len(bus) == 64
    assert bus.dropped == n_threads * n_events - 64
    events = bus.events()
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    for sid in range(n_threads):
        mine = [e["i"] for e in events if e["source"] == f"shard/s{sid}"]
        assert mine == sorted(mine)  # a suffix-respecting subsequence
        assert len(set(mine)) == len(mine)
