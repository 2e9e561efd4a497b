"""What switching observability on costs (ROADMAP item 5's budget).

``Telemetry.full()`` + ``EventBus`` (+ ``SLOTracker``) turn every run
into time-resolved evidence; this module gates what that costs, in three
ways that do not depend on the machine:

* **Counted meter reads.**  A counting ``CostMeter.total_time`` proves
  the whole stack reads *no* clock per op (the engine recovers every
  op's clock per block from the counter values it records) and copies
  no ``snapshot()`` at all.
* **Counted node visits.**  Tripwire slot arrays prove
  ``memory_usage()`` — sampled at every ``MetricsCollector`` window
  close — answers from running totals on LIPP and the B+tree, while the
  ``debug_validate()`` cross-check still walks.
* **Counted GC collections.**  A ``gc.callbacks`` hook counts the
  collections the collector runs while the ops of the ``gre_observed``
  cells execute, observed and bare: an observed run keeps columns, not
  an object per op, so it must not make the collector run much more
  often than a bare one; and no ``OpRecord`` may be reachable from the
  trace after the run.
* **An in-run wall tax.**  The paper's Balanced mix on the P4 panel,
  observed and bare runs interleaved, every 250-op piece of a cell from
  its best of five.  The gate is on the *tax* — observed minus bare, per
  op — in units of an empty method call timed in the same run, not on
  observed ÷ bare: the ratio's denominator is index work, so a faster
  index raises the ratio while the tax does not move (PR 16, three
  alternating runs per side: bare 16.7-20.5 -> 13.7-14.4 us/op, tax
  5.2-5.6 -> 4.5-5.4 us, ratio 1.27-1.31x -> 1.31-1.39x).  The ratio
  stays a printed column.
"""

import gc
import time
import timeit
from collections import Counter

import pytest

from common import Empty, dataset_keys, print_header, run_once
from repro.core.cost import CostMeter
from repro.core.events import KIND_OP_WINDOW, KIND_SMO, EngineBusEmitter, EventBus
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.runner import ExecutionEngine
from repro.core.slo import SLOTracker
from repro.core.telemetry import MetricsCollector, Telemetry, TraceRecorder
from repro.core.workloads import Workload, mixed_workload
from repro.indexes.base import OpRecord

PANEL = ("ALEX", "LIPP", "PGM", "B+tree")
_DATASETS = ("covid", "osm")
#: The wall gate runs at the size of ``bench/``'s ``gre_observed``
#: cells (50k of 100k keys loaded, 4k ops), whatever ``GRE_SCALE`` says:
#: the ratio depends on how much an index op costs, and that on size.
_WALL_KEYS = 100_000
_WALL_OPS = 4_000
_REPS = 5
_PIECE = 250
#: The tax gate, in empty method calls per op.  On the reference box an
#: empty call is ~47-60 ns; the tax was 96-120 calls (4.5-5.6 us/op)
#: while the engine read the clock and every observer worked per op,
#: 44-49 once observed runs were recorded in blocks (gate 70), and 34-35
#: once blocks became columns: the gate keeps the same 70/49 headroom
#: over the highest reading.  The tax must not rise.
_MAX_TAX_CALLS = 50
_CAL_LOOPS = 100_000
#: Collections the collector may run beyond a bare run's while the ops
#: of the eight wall cells execute: twice the reading.  Readings (Python
#: 3.11, thresholds 700/10/10): bare 7; observed 149 while the trace
#: kept every op's row tuple, ``OpRecord`` and path list, 13 once blocks
#: became columns.
_MAX_EXTRA_COLLECTIONS = 12
#: ``total_time()`` reads outside the op loop: the engine's start/end,
#: the fold's last window and each clock-reading observer at the three
#: phase marks.
_PHASE_READS = 32


class CountingMeter(CostMeter):
    """A meter that counts the table copies observers are budgeted."""

    def __init__(self) -> None:
        super().__init__()
        self.snapshots = 0

    def snapshot(self):
        self.snapshots += 1
        return super().snapshot()


@pytest.fixture
def clock_reads(monkeypatch):
    """``total_time()`` calls per meter, keyed by the meter itself: the
    counter keeps it alive, so a later meter cannot take a dead one's
    ``id`` and inherit its reads.  Counted on the class, not by an
    override: the engine recovers the clock from the counters only on a
    meter whose ``total_time`` is ``CostMeter``'s."""
    reads = Counter()
    real = CostMeter.total_time

    def counting(meter):
        reads[meter] += 1
        return real(meter)

    monkeypatch.setattr(CostMeter, "total_time", counting)
    return reads


class Tripwire(list):
    """A node's slot array that counts every look inside it."""

    touched = 0

    def __getitem__(self, i):
        Tripwire.touched += 1
        return super().__getitem__(i)

    def __iter__(self):
        Tripwire.touched += 1
        return super().__iter__()

    def __len__(self):
        Tripwire.touched += 1
        return super().__len__()


def _observed_engine(slo: bool = False) -> ExecutionEngine:
    bus = EventBus()
    observers = [SLOTracker(bus=bus)] if slo else []
    return ExecutionEngine(observers=observers, telemetry=Telemetry.full(),
                           bus=bus)


def _clock_budget(engine, result, bus) -> int:
    """Reads left per run once none is taken per op: the sampled ops'
    before and after, a window close and an SMO stamp each (the run's
    bus holds one ``smo`` event per SMO), the phases."""
    sampled = result.n_ops // engine.sample_every + 1
    windows = result.n_ops // engine.window_ops + 1
    smos = len(bus.events(kind=KIND_SMO))
    return 2 * sampled + windows + smos + _PHASE_READS


def test_no_clock_read_and_no_snapshot_per_op(clock_reads):
    workload = mixed_workload(list(dataset_keys("covid")), 0.5,
                              n_ops=3000, seed=4)
    for name in PANEL:
        meter = CountingMeter()
        engine = _observed_engine(slo=True)
        result = engine.run(REGISTRY.create(name, meter=meter), workload)
        assert result.n_ops == 3000
        emitter, = (o for o in engine.observers
                    if isinstance(o, EngineBusEmitter))
        budget = _clock_budget(engine, result, emitter.bus)
        assert clock_reads[meter] <= budget < result.n_ops // 4, (
            name, clock_reads[meter])
        # The engine records the counter values, and copies no table.
        assert meter.snapshots == 0, (name, meter.snapshots)


def test_window_observers_read_the_clock_per_window_not_per_op(clock_reads):
    """A bus, a metrics collector and a tracker want the clock at window
    closes only, and must not make the engine read it per op; they share
    the run's one fold, so all three are handed the very same windows."""
    workload = mixed_workload(list(dataset_keys("covid")), 0.5,
                              n_ops=3000, seed=4)
    meter = CountingMeter()
    bus = EventBus()
    metrics, slo = MetricsCollector(), SLOTracker()
    engine = ExecutionEngine(observers=[slo],
                             telemetry=Telemetry(metrics=metrics), bus=bus)
    result = engine.run(REGISTRY.create("B+tree", meter=meter), workload)
    assert clock_reads[meter] <= _clock_budget(engine, result, bus)
    closes = [(w["window_start_ns"], w["t_ns"]) for w in slo.windows]
    assert len(closes) == -(-result.n_ops // engine.window_ops)
    assert closes == [(s["window_start_ns"], s["t_ns"])
                      for s in metrics.samples("throughput_mops")]
    assert closes == [(e["window_start_ns"], e["t_ns"])
                      for e in bus.events(kind=KIND_OP_WINDOW)]


def test_memory_usage_visits_no_nodes():
    workload = mixed_workload(list(dataset_keys("osm")), 0.5,
                              n_ops=3000, seed=5)
    for name in ("LIPP", "B+tree"):
        index = REGISTRY.create(name)
        ExecutionEngine().run(index, workload)
        root = index._root
        for slot_array in ("tags", "keys", "children"):
            if hasattr(root, slot_array):
                setattr(root, slot_array, Tripwire(getattr(root, slot_array)))
        Tripwire.touched = 0
        before = index.memory_usage()
        assert Tripwire.touched == 0, name
        # The cross-check does walk, and agrees with the totals.
        assert index.debug_validate() == []
        assert Tripwire.touched > 0, name
        assert index.memory_usage() == before


class _Collections:
    """A ``gc.callbacks`` hook and an observer: counts the collections
    the collector starts between a run's ``measure`` and ``done``
    phases, while its ops execute."""

    def __init__(self) -> None:
        self.counting = False
        self.collections = 0

    def __call__(self, phase, info) -> None:
        if self.counting and phase == "start":
            self.collections += 1

    def on_phase(self, phase, index, workload) -> None:
        self.counting = phase == "measure"


def _reachable_records(root) -> int:
    """``OpRecord``\\ s reachable from ``root``'s attributes through
    lists, tuples, dicts and sets."""
    found, seen, stack = 0, set(), [vars(root)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, OpRecord):
            found += 1
        elif isinstance(obj, (list, tuple, dict, set)):
            stack.extend(gc.get_referents(obj))
    return found


def test_observed_run_retains_no_per_op_objects():
    """The ``gre_observed`` cells (the P4 panel on covid and osm, 50k of
    100k keys loaded, 4k Balanced ops), each run observed and bare after
    a ``gc.collect()``.  Every object an observed run keeps per op until
    its trace is read makes the collector run again every 700 of them
    and walk them all at each older-generation pass; the columns of a
    block die with it, and each op's ``OpRecord`` with the next op."""
    counts = {False: 0, True: 0}
    counter = _Collections()
    gc.callbacks.append(counter)
    try:
        for dataset in _DATASETS:
            workload = mixed_workload(
                list(dataset_keys(dataset, _WALL_KEYS)), 0.5,
                n_ops=_WALL_OPS, seed=6)
            for name in PANEL:
                for observed in (False, True):
                    engine = (_observed_engine() if observed
                              else ExecutionEngine())
                    engine.observers.append(counter)
                    counter.collections = 0
                    gc.collect()
                    engine.run(REGISTRY.create(name), workload)
                    counts[observed] += counter.collections
                    if observed:
                        trace, = (o for o in engine.observers
                                  if isinstance(o, TraceRecorder))
                        assert _reachable_records(trace) == 0, name
                        assert len(trace.spans()) == _WALL_OPS
    finally:
        gc.callbacks.remove(counter)
    print(f"\ncollections while the ops ran: bare {counts[False]}, "
          f"observed {counts[True]} (gate: bare + {_MAX_EXTRA_COLLECTIONS})")
    assert counts[True] <= counts[False] + _MAX_EXTRA_COLLECTIONS, counts


class _StampedOps(list):
    """An op stream that notes the time whenever the engine's loop has
    consumed another ``_PIECE`` ops (the ``bench/`` harness's device): a
    0.1 s run is rarely quiet from end to end on a shared box, a 250-op
    piece of it is quiet in some repetition."""

    def __init__(self, ops) -> None:
        super().__init__(ops)
        self.stamps = []

    def __iter__(self):
        for start in range(0, len(self), _PIECE):
            self.stamps.append(time.perf_counter())
            yield from self[start:start + _PIECE]
        self.stamps.append(time.perf_counter())


def _empty_call_us() -> float:
    """The yardstick: one empty method call, in microseconds."""
    empty = Empty()
    return timeit.timeit(lambda: empty.call(), number=_CAL_LOOPS) / _CAL_LOOPS * 1e6


def _wall_tax():
    cells = [(name, dataset,
              mixed_workload(list(dataset_keys(dataset, _WALL_KEYS)), 0.5,
                             n_ops=_WALL_OPS, seed=6))
             for dataset in _DATASETS for name in PANEL]
    best = {}  # (index, dataset, observed) -> each piece's best seconds
    calibrations = []  # the yardstick, timed once per rep
    for rep in range(_REPS):
        calibrations.append(_empty_call_us())
        for name, dataset, workload in cells:
            # Alternate which side runs first, rep by rep.
            for observed in ((False, True) if rep % 2 else (True, False)):
                engine = _observed_engine() if observed else ExecutionEngine()
                ops = _StampedOps(workload.operations)
                gc.collect()
                engine.run(REGISTRY.create(name),
                           Workload(workload.name, workload.bulk_items, ops))
                pieces = [b - a for a, b in zip(ops.stamps, ops.stamps[1:])]
                key = (name, dataset, observed)
                best[key] = [min(p, q) for p, q in
                             zip(pieces, best.get(key, pieces))]

    print_header("Observability overhead: Telemetry.full() + EventBus vs bare "
                 f"engine (Balanced mix, best of {_REPS} per {_PIECE}-op "
                 "piece, us/op)")
    rows = []
    bare_sum = observed_sum = 0.0
    for name, dataset, _ in cells:
        bare = sum(best[name, dataset, False]) / _WALL_OPS * 1e6
        obs = sum(best[name, dataset, True]) / _WALL_OPS * 1e6
        bare_sum += bare
        observed_sum += obs
        rows.append([name, dataset, f"{bare:.1f}", f"{obs:.1f}",
                     f"{obs - bare:.1f}", f"{obs / bare:.2f}x"])
    tax = (observed_sum - bare_sum) / len(cells)
    rows.append(["panel", "", f"{bare_sum / len(cells):.1f}",
                 f"{observed_sum / len(cells):.1f}", f"{tax:.1f}",
                 f"{observed_sum / bare_sum:.2f}x"])
    print(table(["Index", "Dataset", "bare", "observed", "tax", "ratio"], rows))
    call_us = min(calibrations)
    # Every calibration and the tax in us: what a reading past the gate
    # is judged by.
    readings = (f"empty method call per rep: "
                f"[{', '.join(f'{c:.4f}' for c in calibrations)}] us; "
                f"panel tax {tax:.2f} us/op")
    print(f"{readings} = {tax / call_us:.0f} empty calls/op "
          f"(gate {_MAX_TAX_CALLS})")
    return tax / call_us, readings


def test_observer_tax_in_empty_calls_per_op(benchmark):
    """Readings, three runs a side, alternating, on one shared 2-core
    box: with per-op rows kept by the trace and a block cut at every SMO
    the tax read 49, 50 and 50 calls per op (2.67-2.72 us at 53-60 ns
    a call); with blocks as columns it read 34, 35 and 34 (1.73-1.89 us
    at 51-62 ns)."""
    tax_calls, readings = run_once(benchmark, _wall_tax)
    assert tax_calls <= _MAX_TAX_CALLS, (
        f"observability taxes each op {tax_calls:.0f} empty method calls "
        f"(gate {_MAX_TAX_CALLS}; ROADMAP item 2 budgets observed / bare "
        f"at 1.15x); {readings}")
