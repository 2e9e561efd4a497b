"""What resolving lookup runs in blocks buys the engine, gated in-run.

With no ``on_op`` observer attached, ``ExecutionEngine`` resolves the
lookups of a run past ``LOOKUP_STREAK`` through ``_lookup_batch`` in
``LOOKUP_BLOCK``-op blocks and charges them by range totals (PR 17;
``docs/performance.md``, "Lookup runs").  Three gates, none depending
on the machine:

* **In-run wall ratios on the Read-Only mix.**  The P4 panel at the
  size of ``bench/``'s ``gre_read`` cells: the same stream through the
  default engine and through the per-op loop (forced by a no-op
  ``on_op`` observer), interleaved, each cell from its best of
  ``_REPS``.  Per-op loop ÷ default must stay >= ``_MIN_CELL_RATIO`` in
  every cell and >= ``_MIN_PANEL_RATIO`` on the panel's summed time.
  LIPP batches on its live lists (PR 24, "Batch reads on the live
  lists"): a model evaluation and a slot read per node took it from
  the cell that gained nothing (0.9x on osm) to gaining as much as any.
  B+tree and ALEX walk inner levels cached as arrays and read their
  leaves live ("Batch lookups walk cached inner levels").
* **The same ratio around one write per 500 lookups** (99.8 / 0.2, half
  the keys loaded), the whole panel: a block right after a write.
  While ALEX and LIPP kept a numpy copy per node this was the mix that
  lost (LIPP 0.77-0.89x, a ~200k-slot root copied per run); a copy
  coming back fails here by name.  B+tree and ALEX rebuild their
  cached inner levels after a write that ran an SMO, and PGM's batch
  arrays live with its immutable runs, so all four keep state across
  writes and all four are gated.
* **A counted zero.**  On the Balanced mix no run reaches the streak:
  a counting ``_lookup_batch`` is never called, so a mixed cell runs
  the per-op loop plus one counter.

Readings with the cached inner levels (three runs, shared 2-core box):
the Read-Only panel 4.22x / 4.33x / 4.12x (3.38x / 3.68x before them),
B+tree's cells 4.4-6.1x (3.0-3.3x); at one write per 500 lookups
ALEX 1.11-1.34x, LIPP 1.32-1.33x, B+tree 1.06-1.43x, PGM 1.38-1.81x.
"""

import gc

from common import dataset_keys, print_header, run_once
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.runner import ExecutionEngine, ExecutionObserver
from repro.core.workloads import mixed_workload

PANEL = ("ALEX", "LIPP", "PGM", "B+tree")
_DATASETS = ("covid", "osm")
#: ``gre_read``'s cell, whatever ``GRE_SCALE`` says: the ratio depends
#: on what a scalar lookup costs, and that on the index's size.
_KEYS = 100_000
_OPS = 8_000
_REPS = 3
#: A cell below 1.0 pays for batching more than it gets back.  Read
#: 2.5x (LIPP/osm) to 4.7x (PGM/osm) on the reference box.
_MIN_CELL_RATIO = 1.0
#: Read 3.3-3.6x on the reference box over five sets, less 25%
#: headroom (the kernels before probe counts came off the table read
#: 2.8-3.05x); 1.0 would mean the batch lookups no longer reach the
#: engine.
_MIN_PANEL_RATIO = 2.5
#: One write per 500 lookups.  Read 1.3-1.5x on the reference box
#: (few runs reach a half-full first block; those that do are free).
_WRITE_FRACTION = 0.002


class _Watch(ExecutionObserver):
    """Any attached ``on_op`` selects the per-op loop."""

    def on_op(self, event, latency):
        pass


def _ratios(title, cells):
    """Each ``(index, dataset, workload)`` cell through the per-op loop
    and the default engine; prints the table, returns ``{(index,
    dataset): per-op / default}`` with the summed ratio under
    ``"panel"``."""
    best = {}  # (index, dataset, per_op) -> seconds in the op loop
    for rep in range(_REPS):
        for name, dataset, workload in cells:
            # Alternate which side runs first, rep by rep.
            for per_op in ((False, True) if rep % 2 else (True, False)):
                engine = ExecutionEngine(observers=[_Watch()] if per_op else [])
                gc.collect()
                wall = engine.run(REGISTRY.create(name), workload).wall_seconds
                key = (name, dataset, per_op)
                best[key] = min(wall, best.get(key, wall))

    print_header(f"Lookup runs: default engine vs per-op loop ({title}, "
                 f"{_KEYS} keys, {_OPS} ops, best of {_REPS}, us/op)")
    rows, ratios = [], {}
    loop_sum = default_sum = 0.0
    for name, dataset, _ in cells:
        loop, default = best[name, dataset, True], best[name, dataset, False]
        loop_sum += loop
        default_sum += default
        ratios[name, dataset] = loop / default
        rows.append([name, dataset, f"{loop / _OPS * 1e6:.2f}",
                     f"{default / _OPS * 1e6:.2f}", f"{loop / default:.2f}x"])
    ratios["panel"] = loop_sum / default_sum
    rows.append(["panel", "", f"{loop_sum / len(cells) / _OPS * 1e6:.2f}",
                 f"{default_sum / len(cells) / _OPS * 1e6:.2f}",
                 f"{ratios['panel']:.2f}x"])
    print(table(["Index", "Dataset", "per-op loop", "default", "ratio"], rows))
    return ratios


def _cells(names, datasets, write_fraction):
    return [(name, dataset,
             mixed_workload(list(dataset_keys(dataset, _KEYS)), write_fraction,
                            n_ops=_OPS, seed=6))
            for dataset in datasets for name in names]


def _assert_no_cell_loses(ratios, mix):
    slow = {cell: f"{r:.2f}x" for cell, r in ratios.items()
            if cell != "panel" and r < _MIN_CELL_RATIO}
    assert not slow, (f"per-op loop / default engine under "
                      f"{_MIN_CELL_RATIO}x on the {mix} in {slow}")


def test_read_runs_beat_the_per_op_loop(benchmark):
    ratios = run_once(benchmark, lambda: _ratios(
        "Read-Only mix", _cells(PANEL, _DATASETS, 0.0)))
    _assert_no_cell_loses(ratios, "Read-Only mix")
    assert ratios["panel"] >= _MIN_PANEL_RATIO, (
        f"per-op loop / default engine = {ratios['panel']:.2f}x on the "
        f"Read-Only panel (gate {_MIN_PANEL_RATIO}x)")


def test_a_write_per_500_lookups_costs_the_batch_path_nothing(benchmark):
    ratios = run_once(benchmark, lambda: _ratios(
        "99.8 / 0.2 mix, half the keys loaded",
        _cells(("ALEX", "LIPP", "B+tree", "PGM"), ("covid",),
               _WRITE_FRACTION)))
    _assert_no_cell_loses(ratios, "99.8 / 0.2 mix")


def test_balanced_mix_never_asks_for_a_batch():
    workload = mixed_workload(list(dataset_keys("covid", _KEYS)), 0.5,
                              n_ops=_OPS, seed=6)
    for name in PANEL:
        index = REGISTRY.create(name)
        calls = []
        index._lookup_batch = calls.append
        result = ExecutionEngine().run(index, workload)
        assert result.n_ops == _OPS
        assert not calls, (name, len(calls))
