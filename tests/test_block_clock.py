"""Every op's block clock is the clock ``total_time()`` reads.

An observed run reads no clock per op: the engine's one per-op body
(``ExecutionEngine._stepper``) records the meter's counter values, and
every op's ``total_time()`` is recovered once per block, in one numpy
pass.  These cases replay every registry index over the 15 charge-table
streams, routed runs on a ``ClusterMeter`` (whose clock the engine
reads per op instead), and a PGM run whose first lookups hit the
insert buffer and charge nothing, so an untouched table must read the
integer ``0``.  The engine's window size cuts blocks after every op, at
a stride of 3 or of 7 (tables grow inside a block), or, with no
``on_window`` observer, only at SMOs and ``RECORD_BLOCK``.

Per op, the block's clock must equal ``meter.total_time()`` read right
after the op, compared with ``json.dumps`` so that an int ``0`` cannot
pass for a float ``0.0``.  The profiler's cells must equal the per-op
fold it made before blocks (``tests/observer_reference.py``), items and
order.
"""

import json

import pytest

from repro.core.instance import IndexInstance
from repro.core.opstream import stress_factory
from repro.core.registry import REGISTRY
from repro.core.runner import RECORD_BLOCK, ExecutionEngine
from repro.core.shard import ShardedIndex
from repro.core.telemetry import CostProfiler
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    Workload,
    payload,
)
from repro.indexes.pgm import PGMIndex
from tests import observer_reference as reference
from tests.test_charge_tables import streams

#: The engine's window size, ``None`` for no ``on_window`` observer, by
#: how it cuts blocks.
CUTS = (("every-op", 1), ("stride-3", 3), ("stride-7", 7), ("no-fold", None))


class Clocks:
    """``total_time()`` read after every op, beside the block clocks."""

    def __init__(self):
        self.read, self.recovered, self.blocks = [], [], []

    def on_phase(self, phase, index, workload):
        self._meter = index.meter

    def on_op(self, event, latency):
        self.read.append(self._meter.total_time())

    def on_block(self, block):
        self.blocks.append((block.seq, len(block)))
        self.recovered.extend(block.clocks)


class Windowed:
    """An ``on_window`` observer: the run's fold cuts the engine's blocks."""

    def on_phase(self, phase, index, workload):
        pass

    def on_window(self, window):
        pass


def _check(target, workload, window):
    clocks, live, ref = Clocks(), CostProfiler(), reference.CostProfiler()
    observers = [clocks, live, ref]
    if window is not None:
        observers.append(Windowed())
    engine = ExecutionEngine(observers=observers, window_ops=window or 1)
    engine.run(target, workload)
    n = workload.n_ops
    assert len(clocks.read) == n
    assert json.dumps(clocks.recovered) == json.dumps(clocks.read)
    # The blocks tile the stream, none past a window close.
    seqs = [seq for seq, _ in clocks.blocks]
    assert seqs == [0] + [seq + k for seq, k in clocks.blocks[:-1]]
    assert seqs[-1] + clocks.blocks[-1][1] == n
    for seq, k in clocks.blocks:
        assert k <= RECORD_BLOCK
        if window is not None:
            assert ((seq + k - 1) // window == seq // window
                    or (seq + k) % window == 0)
    assert (json.dumps(list(live.cells.items()))
            == json.dumps(list(ref.cells.items())))
    return clocks.recovered


def _served(spec, stream):
    ok = {LOOKUP: True, UPDATE: True, INSERT: spec.supports_insert,
          DELETE: spec.supports_delete, SCAN: spec.supports_range}
    workload = stream.to_workload()
    workload.operations = [op for op in workload.operations if ok[op.op]]
    return workload


@pytest.mark.parametrize("name", REGISTRY.names())
def test_block_clocks_equal_total_time_on_every_charge_table_stream(name):
    spec = REGISTRY.get(name)
    for i, (_, stream) in enumerate(streams()):
        _, window = CUTS[i % len(CUTS)]
        _check(stress_factory(name)(), _served(spec, stream), window)


@pytest.mark.parametrize("name", ["ALEX", "B+tree"])
def test_a_routed_run_reads_the_cluster_clock_per_op(name):
    label, stream = streams()[-1]  # delete-heavy: splits and merges
    assert label == "delete_heavy"
    for _, window in CUTS:
        _check(ShardedIndex(name, n_shards=4),
               _served(REGISTRY.get(name), stream), window)


def test_an_untouched_table_reads_the_integer_zero():
    """A buffer-hit PGM lookup charges nothing, so the ops before the
    run's first charge read ``total_time()`` of an empty table."""
    items = [(k, payload(k)) for k in range(1000, 9000, 8)]
    ops = [Operation(LOOKUP, 3) for _ in range(5)] + [
        Operation(INSERT, k, payload(k)) if k % 3 else Operation(LOOKUP, k)
        for k in range(1001, 3000, 7)]
    for _, window in CUTS:
        instance = IndexInstance(PGMIndex())
        instance.bulk_load(items)
        instance.index.insert(3, payload(3))  # buffered, before the run
        clocks = _check(instance, Workload("buffer-hits", [], ops), window)
        # Five untouched reads, then the first insert's one KEY_SHIFT.
        assert json.dumps(clocks[:6]) == "[0, 0, 0, 0, 0, 10.0]"
