"""The instance lifecycle layer: state machine, admission, telemetry."""

import random

import pytest

from repro.core.events import EventBus
from repro.core.instance import (
    DRAINING,
    LOADING,
    MIGRATING,
    RETIRED,
    SERVING,
    STATES,
    AdmissionError,
    IndexInstance,
    StateError,
)
from repro.core.results import result_record
from repro.core.runner import ExecutionEngine, execute
from repro.core.sweep import result_fingerprint
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    mixed_workload,
    payload,
)
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree

KEYS = sorted(random.Random(0).sample(range(1, 50_000_000), 4000))
ITEMS = [(k, payload(k)) for k in KEYS]


# -- state machine -------------------------------------------------------------

def test_healthy_lifecycle_walk():
    inst = IndexInstance(BPlusTree())
    assert inst.state == LOADING
    inst.bulk_load(ITEMS[:100])
    assert inst.state == SERVING
    inst.advance(MIGRATING).advance(DRAINING).advance(RETIRED)
    assert inst.state == RETIRED


def test_rollback_edge_migrating_to_serving():
    inst = IndexInstance(BPlusTree(), state=MIGRATING)
    inst.advance(SERVING, "aborted")
    assert inst.state == SERVING


@pytest.mark.parametrize("start,target", [
    (LOADING, MIGRATING), (LOADING, DRAINING), (SERVING, LOADING),
    (DRAINING, SERVING), (DRAINING, MIGRATING), (RETIRED, SERVING),
    (RETIRED, LOADING),
])
def test_illegal_transitions_raise(start, target):
    inst = IndexInstance(BPlusTree(), state=start)
    with pytest.raises(StateError):
        inst.advance(target)
    assert inst.state == start  # a refused transition changes nothing


def test_unknown_state_rejected():
    with pytest.raises(StateError):
        IndexInstance(BPlusTree(), state="zombie")
    with pytest.raises(StateError):
        IndexInstance(BPlusTree()).advance("zombie")


def test_transitions_are_recorded_with_reasons():
    bus = EventBus()
    inst = IndexInstance(BPlusTree(), name="b0").attach_bus(bus)
    inst.bulk_load(ITEMS[:10])
    inst.advance(MIGRATING, "moving to ALEX")
    states = bus.events(kind="state", source="b0")
    assert [(e["from_state"], e["to"]) for e in states] == [
        (LOADING, SERVING), (SERVING, MIGRATING)]
    assert states[1]["reason"] == "moving to ALEX"
    assert inst.status()["events"] == 2


# -- admission policy ----------------------------------------------------------

def test_admission_matrix():
    all_ops = (LOOKUP, INSERT, UPDATE, DELETE, SCAN)
    admitted = {
        LOADING: set(),
        SERVING: set(all_ops),
        MIGRATING: set(all_ops),
        DRAINING: {LOOKUP, SCAN},
        RETIRED: set(),
    }
    for state in STATES:
        inst = IndexInstance(BPlusTree(), state=state)
        got = {op for op in all_ops if inst.admits(op)}
        assert got == admitted[state], state


def test_admit_raises_and_counts_rejections():
    inst = IndexInstance(BPlusTree(), state=DRAINING)
    inst.admit(LOOKUP)  # reads pass while draining
    with pytest.raises(AdmissionError) as exc:
        inst.admit(INSERT)
    assert "draining" in str(exc.value)
    with pytest.raises(AdmissionError):
        inst.admit(INSERT)
    assert inst.rejected == {INSERT: 2}
    assert inst.status()["rejected"] == {INSERT: 2}


def test_bulk_load_requires_loading_state():
    inst = IndexInstance(BPlusTree())
    inst.bulk_load(ITEMS[:10])
    with pytest.raises(StateError):
        inst.bulk_load(ITEMS[:10])


# -- telemetry-fed status ------------------------------------------------------

def test_engine_run_loads_the_instance_and_counts_nothing():
    """The engine gates the bulk load on the instance and feeds it no
    counters: a run's ops and SMOs are its result's and its observers'
    (the shard router and the server count for the instances they
    serve)."""
    inst = IndexInstance.wrap(ALEX())
    wl = mixed_workload(KEYS, 0.5, n_ops=2000, seed=1)
    result = execute(inst, wl)
    status = inst.status()
    assert inst.state == SERVING
    assert result.insert_stats.smo_count > 0  # the mix does run SMOs
    assert (status["ops"], status["op_counts"]) == (0, {})
    assert (status["smo_count"], status["last_smo_seq"]) == (0, None)
    assert status["size"] == len(inst.index)


def test_backfill_progress_events_feed_status():
    inst = IndexInstance(BPlusTree())
    inst.note_backfill("backfill", 10, 100)   # counted without a bus too
    bus, seen = EventBus(), []
    bus.subscribe(seen.append)
    inst.attach_bus(bus)
    inst.note_backfill("verify", 100, 100)
    assert inst.status()["progress"] == {
        "event": "progress", "stage": "verify", "done": 100, "total": 100}
    assert inst.status()["events"] == 2
    assert [e["done"] for e in seen] == [100]


def test_wrap_is_idempotent():
    inst = IndexInstance.wrap(BPlusTree())
    assert IndexInstance.wrap(inst) is inst


# -- engine routing ------------------------------------------------------------

def test_engine_accepts_instance_and_bare_index():
    wl = mixed_workload(KEYS, 0.2, n_ops=1500, seed=2)
    bare = ExecutionEngine().run(BPlusTree(), wl)
    wrapped = ExecutionEngine().run(IndexInstance.wrap(BPlusTree()), wl)
    assert (result_fingerprint(result_record(bare))
            == result_fingerprint(result_record(wrapped)))


def test_engine_refuses_bulk_load_into_serving_instance():
    inst = IndexInstance(BPlusTree())
    inst.bulk_load(ITEMS[:50])
    wl = mixed_workload(KEYS[:100], 0.0, n_ops=50, seed=3)
    with pytest.raises(RuntimeError, match="serving"):
        ExecutionEngine().run(inst, wl)


def test_execute_collapsed_forwards_engine_options():
    # The module-level wrapper is now a pure delegation: every engine
    # option must still arrive (sample_every changes sampling counts).
    wl = mixed_workload(KEYS, 0.0, n_ops=1000, seed=4)
    dense = execute(BPlusTree(), wl, sample_every=1)
    sparse = execute(BPlusTree(), wl, sample_every=101)
    assert dense.lookup_latency.count == 1000
    assert sparse.lookup_latency.count == 10
    with pytest.raises(TypeError):
        execute(BPlusTree(), wl, no_such_option=1)


def test_fingerprint_parity_with_pre_instance_records():
    """The sweep-cache contract: routing runs through the instance
    layer must leave result fingerprints bit-identical."""
    wl = mixed_workload(KEYS, 0.5, n_ops=3000, seed=5)
    fp_bare = result_fingerprint(result_record(execute(ALEX(), wl)))
    fp_inst = result_fingerprint(result_record(
        execute(IndexInstance.wrap(ALEX()), wl)))
    assert fp_bare == fp_inst
