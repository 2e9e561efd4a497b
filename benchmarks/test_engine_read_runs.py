"""What resolving lookup runs in blocks buys the engine, gated in-run.

With no ``on_op`` observer attached, ``ExecutionEngine`` resolves the
lookups of a run past ``LOOKUP_STREAK`` through ``_lookup_batch`` in
``LOOKUP_BLOCK``-op blocks and charges them by range totals (PR 17;
``docs/performance.md``, "Lookup runs").  Two gates, neither depending
on the machine:

* **An in-run wall ratio.**  The paper's Read-Only mix on the P4 panel
  at the size of ``bench/``'s ``gre_read`` cells: the same stream
  through the default engine and through the per-op loop (forced by a
  no-op ``on_op`` observer), interleaved, each cell from its best of
  ``_REPS``.  Per-op loop ÷ default on the panel's summed time must
  stay >= ``_MIN_PANEL_RATIO``; each cell's ratio is printed (LIPP
  gains least: its batch descent splits on the root's fan-out into
  groups too small for numpy, and it mirrors a root of ~2 slots per
  key first).
* **A counted zero.**  On the Balanced mix no run reaches the streak:
  a counting ``_lookup_batch`` is never called, so a mixed cell runs
  the per-op loop plus one counter.
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
#: Read 1.9-2.1x on the reference box (panel; per cell 0.9x LIPP/osm to
#: 4.1x PGM/osm); 1.0 would mean the batch lookups no longer reach the
#: engine.
_MIN_PANEL_RATIO = 1.4


class _Watch(ExecutionObserver):
    """Any attached ``on_op`` selects the per-op loop."""

    def on_op(self, event, latency):
        pass


def _read_runs():
    cells = [(name, dataset,
              mixed_workload(list(dataset_keys(dataset, _KEYS)), 0.0,
                             n_ops=_OPS, seed=6))
             for dataset in _DATASETS for name in PANEL]
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

    print_header("Lookup runs: default engine vs per-op loop (Read-Only mix, "
                 f"{_KEYS} keys, {_OPS} lookups, best of {_REPS}, us/op)")
    rows = []
    loop_sum = default_sum = 0.0
    for name, dataset, _ in cells:
        loop, default = best[name, dataset, True], best[name, dataset, False]
        loop_sum += loop
        default_sum += default
        rows.append([name, dataset, f"{loop / _OPS * 1e6:.2f}",
                     f"{default / _OPS * 1e6:.2f}", f"{loop / default:.2f}x"])
    rows.append(["panel", "", f"{loop_sum / len(cells) / _OPS * 1e6:.2f}",
                 f"{default_sum / len(cells) / _OPS * 1e6:.2f}",
                 f"{loop_sum / default_sum:.2f}x"])
    print(table(["Index", "Dataset", "per-op loop", "default", "ratio"], rows))
    return loop_sum / default_sum


def test_read_runs_beat_the_per_op_loop(benchmark):
    ratio = run_once(benchmark, _read_runs)
    assert ratio >= _MIN_PANEL_RATIO, (
        f"per-op loop / default engine = {ratio:.2f}x on the Read-Only "
        f"panel (gate {_MIN_PANEL_RATIO}x)")


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
