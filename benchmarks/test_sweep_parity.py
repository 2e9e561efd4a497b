"""Sweep engine — parallel == serial, and a rerun comes from the cache.

Not a paper figure: the CI ``sweep-smoke`` gate, and the one producer
of ``BENCH_sweep.json``.  A 2 x 2 x 4 grid (covid and stack; read-only
and balanced; ALEX, LIPP, B+tree, ART) runs serially, then across two
worker processes into a fresh cache, then again from that cache
(``repro.bench.sweep.parity_benchmark``).  Three gates:

* **Determinism.**  Every pooled cell is byte-equal to its serial twin
  (``result_fingerprint``; only ``wall_seconds`` is excluded).
* **A process pool really ran** — a pool that fell back to the serial
  path would pass the first gate vacuously.
* **Cache.**  The rerun is at least 90% hits.

The first two raise inside ``parity_benchmark``; the document it
returns (wall seconds of the three runs, cells per second, the rerun's
hit rate) is written to ``BENCH_sweep.json`` in the working directory,
with provenance, for the CI artifact upload.
"""

import json

from common import print_header
from repro.bench.sweep import parity_benchmark
from repro.core.bench_history import provenance
from repro.core.sweep import DatasetSpec, WorkloadSpec, plan_grid

CACHE_HIT_GATE = 0.9
BENCH_KEYS = {
    "grid", "cpus", "serial_wall_s", "parallel_wall_s", "speedup",
    "cells_per_sec", "cache_hit_rate_on_rerun", "rerun_wall_s",
}


def test_parallel_sweep_equals_serial_and_reruns_from_cache(tmp_path):
    print_header("sweep parity: serial vs --jobs 2 vs cached rerun")
    tasks = plan_grid(
        [DatasetSpec("covid", 2000, 0), DatasetSpec("stack", 2000, 0)],
        [WorkloadSpec.mixed(0.0, n_ops=1500, seed=1),
         WorkloadSpec.mixed(0.5, n_ops=1500, seed=1)],
        ["ALEX", "LIPP", "B+tree", "ART"],
    )
    bench = parity_benchmark(tasks, cache_dir=str(tmp_path / "sweep-cache"),
                             jobs=2)
    print(f"parity ok over {len(tasks)} cells")
    assert set(bench) == BENCH_KEYS
    assert bench["cache_hit_rate_on_rerun"] >= CACHE_HIT_GATE, bench

    bench.update(provenance())
    with open("BENCH_sweep.json", "w") as f:
        json.dump(bench, f, indent=2)
    print(json.dumps(bench, indent=2))
