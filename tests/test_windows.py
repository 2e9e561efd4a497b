"""One window fold: what ``WindowFold`` must keep, and that every
window consumer — collector, tracker, bus emitter, the migration
runner — gets from it what it used to count itself.

The engine-level parity test attaches the whole pre-change stack
(``tests/observer_reference.py``, each observer counting its own
windows) and today's (cut at the engine's one ``window_ops``) to one
``ExecutionEngine.run``, in both observer orders the repo uses and at
one size or, run by run, three, and requires byte-identical artifacts.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core import runner
from repro.core.cost import CostMeter
from repro.core.events import (
    KIND_OP_WINDOW,
    KIND_SLO_WINDOW,
    EngineBusEmitter,
    EventBus,
)
from repro.core.migrate import run_migration
from repro.core.registry import REGISTRY
from repro.core.results import result_record
from repro.core.runner import (
    ExecutionEngine,
    ExecutionObserver,
    WindowFold,
    execute,
)
from repro.core.slo import ControlTower, SLOTracker
from repro.core.sweep import result_fingerprint
from repro.core.telemetry import (
    CostProfiler,
    MetricsCollector,
    TraceRecorder,
)
from repro.core.workloads import INSERT, LOOKUP, mixed_workload
from repro.indexes.btree import BPlusTree
from tests import observer_reference as reference
from tests.test_shard import LyingBTree

KEYS = list(range(7, 3000 * 7919, 7919))


# -- the fold alone ------------------------------------------------------------

class ReadCountingMeter(CostMeter):
    def __init__(self) -> None:
        super().__init__()
        self.clock_reads = 0

    def total_time(self) -> float:
        self.clock_reads += 1
        return super().total_time()


def _fold(window_ops, timed=False, sinks=1):
    meter = ReadCountingMeter()
    closed = [[] for _ in range(sinks)]
    fold = WindowFold(window_ops, timed)
    fold.open(meter, *(out.append for out in closed))
    meter.clock_reads = 0
    return fold, meter, closed


def test_an_smo_is_counted_after_the_op_that_ran_it():
    """Rule (i): count the op, close if full, then count its SMO."""
    fold, _, (closed,) = _fold(2)
    for seq in range(4):
        fold.add(LOOKUP, True)
        if seq in (0, 1, 3):
            fold.on_smo()
    # Op 1 closed the first window before its SMO was counted, so that
    # SMO opened the second; op 3's closed the second window and lies
    # in no window at all.
    assert [(w.ops, w.smos) for w in closed] == [(2, 1), (2, 1)]
    fold.flush()
    assert len(closed) == 2


def test_a_window_adds_up_what_its_ops_carried():
    fold, meter, (closed,) = _fold(3, timed=True)
    start = now = fold.window.start_ns
    for kind, ok, cost in [(LOOKUP, True, 5.0), (INSERT, False, 7.0),
                           (LOOKUP, True, 11.0), (LOOKUP, True, 13.0)]:
        now += cost
        fold.add(kind, ok, now)
    (window,) = closed
    assert (window.ops, window.ok) == (3, 2)
    assert window.counts == {LOOKUP: 2, INSERT: 1}
    assert window.latencies == {LOOKUP: [5.0, 11.0], INSERT: [7.0]}
    assert (window.start_ns, window.t_ns) == (start, start + 23.0)
    # The next window starts where this one closed.
    assert fold.window.start_ns == window.t_ns
    assert fold.window.latencies == {LOOKUP: [13.0]}
    assert meter.clock_reads == 0  # every stamp was carried


def test_a_close_reads_the_meter_once_however_many_sinks():
    """Rule (iii)."""
    fold, meter, closed = _fold(2, sinks=3)
    for _ in range(5):
        fold.add(LOOKUP, True)  # no carried clock
    assert meter.clock_reads == 2
    fold.flush()  # the one-op tail
    assert meter.clock_reads == 3
    assert [len(out) for out in closed] == [3, 3, 3]
    assert closed[0] == closed[1] == closed[2]
    assert [w.ops for w in closed[0]] == [2, 2, 1]


def test_an_empty_close_emits_nothing():
    fold, meter, (closed,) = _fold(4)
    assert fold.cut() is None
    fold.flush()
    fold.on_smo()  # an SMO alone does not make a window
    fold.flush()
    assert closed == [] and meter.clock_reads == 0


# -- the fold under the engine -------------------------------------------------

def _logged(cls):
    """``cls`` noting each window it is handed as ``(start_ns, t_ns,
    ops, smos)`` in ``seen``."""
    class Logged(cls):
        def on_window(self, window):
            self.seen.append((window.start_ns, window.t_ns, window.ops,
                              window.smos))
            super().on_window(window)
    return Logged


def test_one_window_size_per_run_is_the_engines():
    """The collector, the tracker and the bus emitter are cut at the
    engine's ``window_ops`` and handed the very same windows; zero is
    refused where a size is set."""
    collector = _logged(MetricsCollector)()
    tracker = _logged(SLOTracker)()
    emitter = _logged(EngineBusEmitter)(EventBus())
    for sink in (collector, tracker, emitter):
        sink.seen = []
    index = BPlusTree()
    ExecutionEngine(observers=[collector, tracker, emitter],
                    window_ops=100).run(
        index, mixed_workload(KEYS, 0.5, n_ops=1050, seed=2))
    assert collector.seen == tracker.seen == emitter.seen
    assert [w[2] for w in collector.seen] == [100] * 10 + [50]
    assert sum(w[3] for w in collector.seen) > 0
    assert collector.seen[-1][1] == index.meter.total_time()
    for make in (
            lambda: ExecutionEngine(window_ops=0),
            lambda: run_migration(
                "btree", "alex",
                mixed_workload(KEYS[:200], 0.0, n_ops=10, seed=1),
                bus=EventBus(), bus_window=0)):
        with pytest.raises(ValueError, match="window_ops must be >= 1"):
            make()


class Windowed(ExecutionObserver):
    def __init__(self, name, log):
        self.name, self.log = name, log

    def on_phase(self, phase, index, workload):
        if phase == "done":
            self.log.append((self.name, "done"))

    def on_window(self, window):
        self.log.append((self.name, window.ops, window.t_ns))


def test_each_consumer_gets_the_tail_right_before_its_own_done():
    """Rule (ii): one fold, whose every close each consumer is handed in
    observer order, and whose tail each gets right before its "done"."""
    log = []
    a, b = Windowed("a", log), Windowed("b", log)
    index = BPlusTree()
    ExecutionEngine(observers=[a, b], window_ops=100).run(
        index, mixed_workload(KEYS, 0.0, n_ops=250, seed=1))
    end = index.meter.total_time()
    assert log[-4:] == [("a", 50, end), ("a", "done"),
                        ("b", 50, end), ("b", "done")]
    full = log[:-4]
    assert [e[:2] for e in full] == [("a", 100), ("b", 100)] * 2
    assert [e[1:] for e in full if e[0] == "a"] == [
        e[1:] for e in full if e[0] == "b"]


def _stack(mod, bus, tracker_first, window):
    """The reference observers each count to ``window``; today's are cut
    at the engine's ``window_ops``."""
    sized = {} if mod is _LIVE else {"window_ops": window}
    slo = mod.SLOTracker(bus=bus, **sized)
    bus_emitter = mod.EngineBusEmitter(bus, **sized)
    middle = [mod.TraceRecorder(), mod.MetricsCollector(**sized),
              mod.CostProfiler()]
    # ``repro run --events`` / ``repro top`` attach the tracker first,
    # tests/test_events.py the emitter.
    ends = (slo, bus_emitter) if tracker_first else (bus_emitter, slo)
    return [ends[0], *middle, ends[1]], slo, middle


#: Today's observers under the names the reference module uses.
_LIVE = SimpleNamespace(
    SLOTracker=SLOTracker, EngineBusEmitter=EngineBusEmitter,
    TraceRecorder=TraceRecorder, MetricsCollector=MetricsCollector,
    CostProfiler=CostProfiler)


#: The engine's window size in each run of a case, one run per size:
#: 64, or 100 (its closes fall off ``RECORD_BLOCK``'s multiples), 128
#: and 256 (the default the CLI and ``bench/`` cut at).
SIZES = {"one-size": (64,), "three-sizes": (100, 128, 256)}


@pytest.mark.parametrize("sizes", list(SIZES))
@pytest.mark.parametrize("order", ["tracker-first", "emitter-first"])
@pytest.mark.parametrize("block", [0, 64])
@pytest.mark.parametrize("name", REGISTRY.names())
def test_full_stack_matches_reference_on_the_same_run(
        name, block, order, sizes, monkeypatch):
    """Per size, one run carries the reference stack, every observer
    counting to that size, and today's, cut at the engine's: equal
    artifacts, and each run has a bare run's fingerprint."""
    factory, wl = reference.parity_case(name)
    tracker_first = order == "tracker-first"

    def same(new, ref, **kw):  # == would let an int 0 pass for a float 0.0
        return json.dumps(new, **kw) == json.dumps(ref, **kw)

    fingerprints = set()
    for window in SIZES[sizes]:
        ref_bus, bus = EventBus(), EventBus()
        ref_obs, ref_slo, (ref_trace, ref_metrics, ref_prof) = _stack(
            reference, ref_bus, tracker_first, window)
        obs, slo, (trace, metrics, prof) = _stack(
            _LIVE, bus, tracker_first, window)
        engine = ExecutionEngine(observers=[*ref_obs, *obs],
                                 window_ops=window)
        observed = engine.run(factory(), wl)
        fingerprints.add(result_fingerprint(result_record(observed)))

        assert len(bus.events(kind=KIND_OP_WINDOW)) == -(-wl.n_ops // window)
        assert same(bus.events(), ref_bus.events())
        assert same(slo.windows, ref_slo.windows)
        assert same(slo.summary(), ref_slo.summary())
        assert same(trace.events, ref_trace.events)
        assert same(trace.to_chrome(), ref_trace.to_chrome())
        assert same(metrics.series, ref_metrics.series)
        assert list(prof.cells.items()) == list(ref_prof.cells.items())
        assert same(prof.rows(), ref_prof.rows())

    if block:
        monkeypatch.setattr(runner, "LOOKUP_STREAK", 8)
        monkeypatch.setattr(runner, "LOOKUP_BLOCK", block)
    bare = ExecutionEngine().run(factory(), wl)
    assert fingerprints == {result_fingerprint(result_record(bare))}


@pytest.mark.parametrize("name", REGISTRY.names())
def test_untimed_windows_alone_match_reference(name):
    """A collector and a bus emitter alone, on an untimed fold, still
    cut the reference's windows."""
    factory, wl = reference.parity_case(name)
    ref_bus, bus = EventBus(), EventBus()
    ref_metrics, metrics = (reference.MetricsCollector(window_ops=100),
                            MetricsCollector())
    engine = ExecutionEngine(observers=[
        ref_metrics, reference.EngineBusEmitter(ref_bus, window_ops=100),
        metrics, EngineBusEmitter(bus)], window_ops=100)
    engine.run(factory(), wl)
    assert json.dumps(bus.events()) == json.dumps(ref_bus.events())
    assert json.dumps(metrics.series) == json.dumps(ref_metrics.series)


# -- the migration runner's windows --------------------------------------------

def _migration_windows(**kw):
    wl = mixed_workload(KEYS[:1500], 0.5, n_ops=1000, seed=3)
    bus = EventBus()
    tower = ControlTower()
    bus.subscribe(tower.consume)
    report = run_migration("alex", "btree", wl, chunk=64, bus=bus,
                           bus_window=256, shrink=False, **kw)
    return report, bus.events(kind=KIND_OP_WINDOW), bus, tower


@pytest.mark.parametrize("outcome", ["clean", "aborted"])
def test_migration_publishes_every_applied_op_exactly_once(outcome):
    """The window open at the cutover meter swap and the stream's last
    partial window used to be dropped (768 of 1,000 ops published)."""
    aborted = outcome == "aborted"
    report, windows, bus, tower = _migration_windows(
        **({"dst_factory": LyingBTree} if aborted else {}))
    assert report.aborted == aborted and report.completed != aborted
    applied = report.reads + report.writes + report.scans
    assert applied == 1000
    assert sum(w["ops"] for w in windows) == applied
    assert all(sum(w["op_counts"].values()) == w["ops"] >= w["ok"]
               for w in windows)
    assert sum(row["ops"] for row in tower.rows.values()) == applied
    by_source = {}
    for w in windows:
        by_source[w["source"]] = by_source.get(w["source"], 0) + w["ops"]
    if aborted:
        assert by_source == {"ALEX@0": applied}
    else:
        # Split by source at the cutover: the op the cutover followed is
        # the source's last.
        cut = report.cutover_seq + 1
        assert by_source == {"ALEX@0": cut, "B+tree@1": applied - cut}
        assert windows[0]["ops"] == cut < 256  # closed at the meter swap
    # A window never spans two meters: within a source they tile.
    for prev, cur in zip(windows, windows[1:]):
        if prev["source"] == cur["source"]:
            assert cur["window_start_ns"] == prev["t_ns"]
        assert cur["t_ns"] >= cur["window_start_ns"]


def test_op_window_events_have_one_key_set_whoever_publishes():
    wl = mixed_workload(KEYS[:1500], 0.5, n_ops=600, seed=4)
    bus = EventBus()
    execute(BPlusTree(), wl, bus=bus)
    engine_keys = {frozenset(w) for w in bus.events(kind=KIND_OP_WINDOW)}
    _, clean, _, _ = _migration_windows()
    _, aborted, _, _ = _migration_windows(dst_factory=LyingBTree)
    migration_keys = {frozenset(w) for w in clean + aborted}
    assert len(engine_keys) == 1 and engine_keys == migration_keys


# -- ``repro run --events --window`` ---------------------------------------------

def test_run_window_flag_cuts_bus_and_slo_windows_together(tmp_path, capsys):
    from repro.cli import main
    from repro.core.results import load_jsonl

    path = str(tmp_path / "events.jsonl")
    assert main(["run", "--index", "ALEX", "--dataset", "covid", "--n", "2000",
                 "--ops", "1000", "--events", path, "--window", "128"]) == 0
    capsys.readouterr()
    records = load_jsonl(path)
    ops = [r for r in records if r["kind"] == KIND_OP_WINDOW]
    assert [w["ops"] for w in ops] == [128] * 7 + [104]
    # One fold: the SLO windows close on the very same clock readings.
    slo_stamps = {r["t_ns"] for r in records if r["kind"] == KIND_SLO_WINDOW}
    assert slo_stamps == {w["t_ns"] for w in ops}
