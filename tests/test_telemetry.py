"""Telemetry subsystem: traces, metric time-series, cost profiling."""

import json

import pytest

from repro.core import runner
from repro.core.registry import REGISTRY
from repro.core.results import load_jsonl, result_record, save_jsonl
from repro.core.runner import ExecutionEngine, ExecutionObserver, execute
from repro.core.sweep import result_fingerprint
from repro.core.telemetry import (
    CostProfiler,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    Telemetry,
    TraceRecorder,
    chrome_trace_from_spans,
    validate_chrome_trace,
    validate_event_records,
    validate_metric_records,
)
from repro.core.workloads import (
    DELETE,
    INSERT,
    mixed_workload,
    scan_workload,
    ycsb_workload,
)
from repro.concurrency.simcore import MulticoreSimulator, Topology
from repro.concurrency.trace import OpTrace
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree
from tests import observer_reference as reference

KEYS = list(range(0, 16000, 4))


def _run_traced(index=None, write_frac=1.0, n_ops=2000, **kwargs):
    tel = Telemetry.full(**kwargs)
    wl = mixed_workload(KEYS, write_frac, n_ops=n_ops, seed=7)
    r = execute(index if index is not None else ALEX(), wl, telemetry=tel)
    return r, tel


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------

def test_trace_spans_cover_every_op_on_virtual_clock():
    r, tel = _run_traced()
    spans = tel.trace.spans()
    assert len(spans) == r.n_ops
    assert [s["seq"] for s in spans] == list(range(r.n_ops))
    # Spans tile the virtual timeline: monotonic, non-negative, and
    # their total duration is exactly the run's virtual time.
    for prev, cur in zip(spans, spans[1:]):
        assert cur["ts_ns"] == pytest.approx(prev["ts_ns"] + prev["dur_ns"])
        assert cur["dur_ns"] >= 0
    assert sum(s["dur_ns"] for s in spans) == pytest.approx(r.virtual_ns)


def test_trace_records_smo_instants():
    r, tel = _run_traced()
    instants = [e for e in tel.trace.events if e["kind"] == "instant"]
    assert len(instants) == r.insert_stats.smo_count > 0
    assert all(e["name"] == "smo" for e in instants)


def test_trace_chrome_export_validates():
    _, tel = _run_traced(n_ops=500)
    chrome = tel.trace.to_chrome()
    n = validate_chrome_trace(chrome)
    assert n == len(chrome["traceEvents"]) > 500
    # Perfetto essentials: complete events with µs timestamps.
    xs = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 500
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
    assert json.dumps(chrome)  # serializable


def test_trace_chrome_save_roundtrip(tmp_path):
    _, tel = _run_traced(n_ops=300)
    path = tmp_path / "trace.json"
    tel.trace.save_chrome(str(path))
    assert validate_chrome_trace(json.loads(path.read_text())) > 0


def test_trace_event_log_roundtrip_through_results(tmp_path):
    _, tel = _run_traced(n_ops=400)
    path = tmp_path / "events.jsonl"
    n = save_jsonl(tel.trace.events, str(path), tags={"artifact": "trace"})
    records = load_jsonl(str(path))
    assert len(records) == n == len(tel.trace.events)
    assert validate_event_records(records) == n
    for orig, loaded in zip(tel.trace.events, records):
        assert loaded["schema_version"] == 1
        assert loaded["tags"] == {"artifact": "trace"}
        for k, v in orig.items():
            assert loaded[k] == v


def test_trace_max_events_cap():
    tel = Telemetry(trace=TraceRecorder(max_events=50))
    wl = mixed_workload(KEYS, 0.0, n_ops=200, seed=3)
    execute(BPlusTree(), wl, telemetry=tel)
    assert len(tel.trace.events) == 50
    assert tel.trace.dropped > 0
    assert tel.trace.to_chrome()["otherData"]["dropped_events"] == tel.trace.dropped


def test_validators_reject_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"events": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "op"}]})
    with pytest.raises(ValueError):
        validate_event_records([{"kind": "span", "ts_ns": 1.0}])  # no dur
    with pytest.raises(ValueError):
        validate_metric_records([{"kind": "metric", "metric": "bogus",
                                  "t_ns": 0, "value": 1}])


# ---------------------------------------------------------------------------
# Per-thread lanes from the multicore simulator
# ---------------------------------------------------------------------------

def test_simulator_span_sink_renders_thread_lanes():
    sim = MulticoreSimulator(Topology())
    traces = [OpTrace(op="lookup", free_ns=100.0) for _ in range(400)]
    sink = []
    result = sim.replay("x", traces, threads=8, span_sink=sink)
    assert len(sink) == 400
    tids = {tid for tid, _, _, _ in sink}
    assert tids == set(range(8))
    assert all(0 <= s <= e <= result.makespan_ns + 1e-9
               for _, s, e, _ in sink)
    chrome = chrome_trace_from_spans(sink, "sim")
    assert validate_chrome_trace(chrome) == len(sink) + 1 + len(tids)
    lane_tids = {e["tid"] for e in chrome["traceEvents"] if e["ph"] == "X"}
    assert lane_tids == tids


def test_simulator_span_sink_stretched_with_bandwidth_limit():
    # Enormous traffic on a tiny-bandwidth topology forces the stretch.
    topo = Topology(socket_bandwidth=1e3)
    sim = MulticoreSimulator(topo)
    traces = [OpTrace(op="insert", free_ns=100.0, bytes=1e6) for _ in range(64)]
    sink = []
    result = sim.replay("x", traces, threads=4, span_sink=sink)
    assert result.bandwidth_limited
    assert max(e for _, _, e, _ in sink) == pytest.approx(result.makespan_ns)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_series_shapes():
    r, tel = _run_traced(n_ops=2048, window_ops=256)
    m = tel.metrics
    thr = m.samples("throughput_mops")
    smo = m.samples("smo_rate")
    mem = m.samples("memory_bytes")
    assert len(thr) == len(smo) == len(mem) == 2048 // 256
    assert all(s["value"] > 0 for s in thr)
    assert all(0.0 <= s["value"] <= 1.0 for s in smo)
    ts = [s["t_ns"] for s in thr]
    assert ts == sorted(ts)
    assert ts[-1] == pytest.approx(r.virtual_ns)
    # Write-only run: memory grows as structure is built.
    assert mem[-1]["value"] > mem[0]["value"]
    assert m.memory_growth() > 1.0


def test_metrics_partial_window_flushes_on_done():
    _, tel = _run_traced(n_ops=300, window_ops=256)
    # 256-op window + 44-op remainder flushed at "done".
    thr = tel.metrics.samples("throughput_mops")
    assert len(thr) == 2
    assert thr[0]["window_ops"] == 256
    assert thr[1]["window_ops"] == 44


def test_metrics_registry_counters_and_snapshot():
    _, tel = _run_traced(n_ops=1000, write_frac=0.5)
    snap = tel.metrics.registry.snapshot()
    assert snap["ops_total"]["value"] == 1000
    assert snap["ops.insert"]["value"] + snap["ops.lookup"]["value"] == 1000
    assert snap["smo_total"]["value"] > 0
    hist = snap["op_latency_ns"]
    assert hist["type"] == "histogram"
    assert hist["count"] == sum(hist["buckets"].values()) > 0


def test_metrics_roundtrip_through_results(tmp_path):
    _, tel = _run_traced(n_ops=1024)
    path = tmp_path / "metrics.jsonl"
    save_jsonl(tel.metrics.series, str(path), tags={"artifact": "metrics"})
    records = load_jsonl(str(path))
    assert validate_metric_records(records) == len(tel.metrics.series)


def test_histogram_log2_buckets():
    h = Histogram()
    for x in (0.0, 1.0, 2.0, 3.0, 1024.0, -5.0):
        h.observe(x)
    # Bucket e holds (2^(e-1), 2^e]; zero/negatives land in bucket 0.
    assert h.buckets == {0: 3, 1: 1, 2: 1, 10: 1}
    assert h.count == 6


def test_registry_get_or_create_is_stable():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("y") is reg.gauge("y")
    assert reg.histogram("z") is reg.histogram("z")


def test_smo_storm_detection_merges_consecutive_windows():
    m = MetricsCollector(window_ops=10)
    # Hand-built rate series: calm, calm, burst, burst, calm.
    rates = [0.0, 0.02, 0.9, 0.8, 0.0]
    t = 0.0
    for rate in rates:
        m.series.append({"kind": "metric", "metric": "smo_rate",
                         "t_ns": t + 100.0, "window_start_ns": t,
                         "value": rate, "window_ops": 10})
        t += 100.0
    storms = m.smo_storms()
    assert len(storms) == 1
    storm = storms[0]
    assert storm.start_ns == 200.0 and storm.end_ns == 400.0
    assert storm.ops == 20
    assert storm.rate == pytest.approx(0.85)


def test_no_storms_on_uniform_rate():
    m = MetricsCollector(window_ops=10)
    for i in range(5):
        m.series.append({"kind": "metric", "metric": "smo_rate",
                         "t_ns": (i + 1) * 100.0, "window_start_ns": i * 100.0,
                         "value": 0.3, "window_ops": 10})
    assert m.smo_storms() == []


# ---------------------------------------------------------------------------
# CostProfiler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [ALEX, BPlusTree])
def test_profiler_reconciles_with_meter(factory):
    prof = CostProfiler()
    idx = factory()
    wl = mixed_workload(KEYS, 0.5, n_ops=3000, seed=9)
    r = execute(idx, wl, telemetry=Telemetry(profiler=prof))
    by_phase = prof.time_by_phase()
    meter_phase = idx.meter.time_by_phase()
    for phase in set(by_phase) | set(meter_phase):
        assert by_phase.get(phase, 0.0) == pytest.approx(
            meter_phase.get(phase, 0.0), rel=1e-9, abs=1e-6)
    assert prof.total_ns() == pytest.approx(r.virtual_ns, rel=1e-9)
    assert sum(prof.time_by_op().values()) == pytest.approx(prof.total_ns())
    assert sum(prof.time_by_kind().values()) == pytest.approx(prof.total_ns())


def test_profiler_attributes_by_op_kind():
    prof = CostProfiler()
    wl = mixed_workload(KEYS, 0.5, n_ops=2000, seed=10)
    execute(ALEX(), wl, telemetry=Telemetry(profiler=prof))
    by_op = prof.time_by_op()
    assert by_op["insert"] > 0 and by_op["lookup"] > 0
    ops_seen = {op for op, _, _ in prof.cells}
    assert ops_seen == {"insert", "lookup"}


def test_profiler_render_flame_table():
    prof = CostProfiler()
    execute(ALEX(), mixed_workload(KEYS, 1.0, n_ops=1500, seed=11),
            telemetry=Telemetry(profiler=prof))
    out = prof.render(top=5)
    assert "Cost profile" in out and "Per-phase totals" in out
    assert "insert" in out


# ---------------------------------------------------------------------------
# Engine integration / observer semantics
# ---------------------------------------------------------------------------

def _strip_wall(result):
    d = result.to_dict()
    d.pop("wall_seconds")
    return d


def test_run_result_unchanged_with_telemetry_attached():
    wl = mixed_workload(KEYS, 0.5, n_ops=2000, seed=12)
    plain = execute(ALEX(), wl)
    traced = execute(ALEX(), wl, telemetry=Telemetry.full())
    assert _strip_wall(plain) == _strip_wall(traced)


def test_execute_forwards_observers():
    seen = []

    class Collector(ExecutionObserver):
        def on_op(self, event, latency):
            seen.append(event.seq)

    wl = mixed_workload(KEYS, 0.0, n_ops=150, seed=13)
    execute(BPlusTree(), wl, observers=[Collector()])
    assert seen == list(range(150))


def test_observers_called_in_registration_order():
    calls = []

    class Tagged(ExecutionObserver):
        def __init__(self, tag):
            self.tag = tag

        def on_op(self, event, latency):
            calls.append(self.tag)

    wl = mixed_workload(KEYS, 0.0, n_ops=10, seed=14)
    execute(BPlusTree(), wl, observers=[Tagged("a"), Tagged("b")])
    assert calls == ["a", "b"] * 10


def test_on_smo_only_for_smo_flagged_writes():
    smo_events = []

    class SmoWatcher(ExecutionObserver):
        def on_smo(self, event):
            smo_events.append(event)

    wl = mixed_workload(KEYS, 1.0, n_ops=2500, seed=15)
    execute(ALEX(), wl, observers=[SmoWatcher()])
    assert smo_events
    for e in smo_events:
        assert e.op.op in (INSERT, DELETE)
        assert e.record is not None and e.record.smo


def test_stock_collectors_fresh_per_run_constructor_observers_persist():
    counted = []

    class Counter(ExecutionObserver):
        def on_op(self, event, latency):
            counted.append(event.seq)

    engine = ExecutionEngine(observers=[Counter()])
    wl = mixed_workload(KEYS[:2000], 1.0, n_ops=500, seed=16)
    r1 = engine.run(ALEX(), wl)
    r2 = engine.run(ALEX(), wl)
    # Stock collectors are fresh per run: identical runs, identical stats.
    assert r1.insert_stats.inserts == r2.insert_stats.inserts
    assert r1.lookup_latency.count == r2.lookup_latency.count
    # The constructor-passed observer saw both runs.
    assert len(counted) == 1000


def test_update_and_scan_events_have_no_stale_record():
    events = []

    class Recorder(ExecutionObserver):
        def on_op(self, event, latency):
            events.append(event)

    # YCSB-A is lookup+update: BPlusTree.update never writes last_op.
    wl = ycsb_workload(KEYS, "A", n_ops=800, seed=17)
    execute(BPlusTree(), wl, observers=[Recorder()])
    kinds = {e.op.op for e in events}
    assert "update" in kinds
    for e in events:
        if e.op.op == "update":
            assert e.record is None
        elif e.record is not None:
            # A fresh record always describes this op kind.
            assert e.record.op == e.op.op

    events.clear()
    execute(BPlusTree(), scan_workload(KEYS, 10, 50, seed=18),
            observers=[Recorder()])
    assert all(e.record is None for e in events if e.op.op == "scan")


def test_telemetry_bundle_observers():
    tel = Telemetry.full()
    assert len(tel.observers()) == 3
    assert Telemetry().observers() == []
    only_prof = Telemetry(profiler=CostProfiler())
    assert only_prof.observers() == [only_prof.profiler]


# ---------------------------------------------------------------------------
# Side by side with the pre-change observers (tests/observer_reference.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [0, 64])
@pytest.mark.parametrize("name", REGISTRY.names())
def test_observers_match_reference_on_the_same_run(name, block, monkeypatch):
    """Old and new observers ride one ``ExecutionEngine.run``: every
    artifact is byte-identical, and the run has a bare run's fingerprint."""
    factory, wl = reference.parity_case(name)
    ref_trace = reference.TraceRecorder()
    ref_metrics = reference.MetricsCollector(window_ops=64)
    ref_prof = reference.CostProfiler()
    tel = Telemetry.full(window_ops=64)
    engine = ExecutionEngine(observers=[ref_trace, ref_metrics, ref_prof],
                             telemetry=tel)
    observed = engine.run(factory(), wl)

    def same(new, ref):  # == would let an int 0 pass for a float 0.0
        return json.dumps(new) == json.dumps(ref)

    assert len(tel.trace.events) == wl.n_ops + 3 + len(
        [e for e in tel.trace.events if e["kind"] == "instant"])
    assert same(tel.trace.events, ref_trace.events)
    assert same(tel.trace.to_chrome(), ref_trace.to_chrome())
    assert same(tel.metrics.series, ref_metrics.series)
    assert same(tel.metrics.registry.snapshot(),
                ref_metrics.registry.snapshot())
    assert list(tel.profiler.cells.items()) == list(ref_prof.cells.items())
    assert same(tel.profiler.rows(), ref_prof.rows())
    if name not in ("RMI", "HOT"):  # read-only; HOT never flags an SMO
        # The stream really crossed structural work.
        assert tel.metrics.registry.snapshot()["smo_total"]["value"] >= 1

    # The observed run took the per-op loop; the bare one resolves the
    # stream's closing lookup run in blocks when they are 64 ops long.
    if block:
        monkeypatch.setattr(runner, "LOOKUP_STREAK", 8)
        monkeypatch.setattr(runner, "LOOKUP_BLOCK", block)
    bare = ExecutionEngine().run(factory(), wl)
    assert (result_fingerprint(result_record(observed))
            == result_fingerprint(result_record(bare)))


def test_trace_cap_counts_drops_without_building_records():
    factory, wl = reference.parity_case("B+tree")
    ref = reference.TraceRecorder(max_events=50)
    new = TraceRecorder(max_events=50)
    ExecutionEngine(observers=[ref, new]).run(factory(), wl)
    assert new.events == ref.events and len(new.events) == 50
    assert new.dropped == ref.dropped > 0
    # Clearing the list frees the budget for the next run.
    ref.events.clear()
    new.events.clear()
    ExecutionEngine(observers=[ref, new]).run(factory(), wl)
    assert new.events == ref.events and len(new.events) == 50
    assert new.dropped == ref.dropped


def test_a_run_that_raises_hands_over_the_ops_it_recorded():
    """An oracle raising at an op ends the run; every op up to and
    including that one still reaches the block recorders, which end as
    the per-op reference observers that ran before the oracle do."""
    fail_at = 500

    class Oracle(ExecutionObserver):
        def on_op(self, event, latency):
            if event.seq == fail_at:
                raise AssertionError("diverged")

    factory, wl = reference.parity_case("ALEX")
    ref_trace, ref_prof = reference.TraceRecorder(), reference.CostProfiler()
    tel = Telemetry.full(window_ops=64)
    engine = ExecutionEngine(observers=[ref_trace, ref_prof, Oracle()],
                             telemetry=tel)
    with pytest.raises(AssertionError, match="diverged"):
        engine.run(factory(), wl)
    assert [s["seq"] for s in tel.trace.spans()] == list(range(fail_at + 1))
    assert json.dumps(tel.trace.events) == json.dumps(ref_trace.events)
    assert list(tel.profiler.cells.items()) == list(ref_prof.cells.items())


def test_observer_added_mid_run_joins_the_next_run():
    """The hook lists are resolved at ``run()`` entry."""
    late_seen = []

    class Late(ExecutionObserver):
        def on_op(self, event, latency):
            late_seen.append(event.seq)

    class Adder(ExecutionObserver):
        def on_op(self, event, latency):
            if event.seq == 0 and not late_seen and len(engine.observers) == 1:
                engine.add_observer(Late())

    engine = ExecutionEngine(observers=[Adder()])
    wl = mixed_workload(KEYS, 0.0, n_ops=20, seed=19)
    engine.run(BPlusTree(), wl)
    assert late_seen == []
    engine.run(BPlusTree(), wl)
    assert late_seen == list(range(20))


def test_only_implemented_hooks_are_dispatched():
    """Duck-typed observers count; inherited no-ops and missing hooks
    are skipped.  ``on_op`` sees ``t_ns`` on sampled ops only; every
    op's clock comes in ``on_block``."""
    seen = []

    class OpsOnly:  # no on_smo at all: an SMO must not trip on it
        def on_phase(self, phase, index, workload):
            pass

        def on_op(self, event, latency):
            seen.append(event.t_ns)

    wl = mixed_workload(KEYS, 1.0, n_ops=2500, seed=15)  # crosses ALEX SMOs
    execute(ALEX(), wl, observers=[OpsOnly()], sample_every=10 ** 9)
    assert len(seen) == wl.n_ops
    assert seen[0] is not None and set(seen[1:]) == {None}

    class BlocksOnly:  # no on_op: the engine records the run instead
        def on_phase(self, phase, index, workload):
            pass

        def on_block(self, block):
            seen.extend(block.clocks)

    seen.clear()
    index = ALEX()
    result = execute(index, wl, observers=[BlocksOnly()])
    assert len(seen) == wl.n_ops
    assert seen == sorted(seen) and seen[-1] == index.meter.total_time()
    assert result.virtual_ns == seen[-1]
