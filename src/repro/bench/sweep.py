"""``repro sweep``: a dataset x workload x index grid on the sweep
engine, and the serial / pooled / cached-rerun parity benchmark behind
``BENCH_sweep.json``.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.bench import Outcome
from repro.core.report import table
from repro.core.results import save_jsonl
from repro.core.sweep import (
    MODE_MULTICORE,
    DatasetSpec,
    SweepCache,
    SweepReport,
    SweepTask,
    WorkloadSpec,
    plan_grid,
    run_sweep,
)


def _render(report: SweepReport) -> str:
    rows = [
        [c.task.dataset.name, c.task.workload.label, c.task.index,
         f"{c.throughput_mops:.3f}", "hit" if c.cached else "run"]
        for c in report.cells
    ]
    lines = [
        table(["Dataset", "Workload", "Index", "Mops", "Cache"], rows,
              title=f"Sweep: {len(report.cells)} cells"),
        f"\n{len(report.cells)} cells in {report.wall_seconds:.2f}s "
        f"({report.cells_per_sec:.1f} cells/s) — jobs={report.jobs}, "
        f"{report.cache_hits} cache hits "
        f"({report.cache_hit_rate:.0%}), {report.executed} executed",
    ]
    if report.pool_error:
        lines.append(f"warning: process pool unavailable "
                     f"({report.pool_error}); ran serially")
    return "\n".join(lines)


def _metrics(report: SweepReport) -> Optional[dict]:
    """Mean / min cell throughput and mean lookup p99 over the
    single-threaded cells; an empty sweep records nothing."""
    if not report.cells:
        return None
    single = [c for c in report.cells
              if c.record.get("kind") != MODE_MULTICORE]
    mops = [c.throughput_mops for c in single]
    p99s = [(c.record.get("lookup_latency") or {}).get("p99", 0.0)
            for c in single]
    metrics = {}
    if mops:
        metrics["mean_cell_mops"] = sum(mops) / len(mops)
        metrics["min_cell_mops"] = min(mops)
    judged = [p for p in p99s if p > 0]
    if judged:
        metrics["mean_lookup_p99_ns"] = sum(judged) / len(judged)
    return metrics


def run(datasets: Sequence[str], workloads: Sequence[str],
        indexes: Sequence[str], n: int, ops: int, seed: int, mode: str,
        threads: int, sockets: int, jobs: Optional[int],
        cache: Optional[SweepCache], out: str) -> Outcome:
    """Run the grid and append every cell's record to ``out`` ('' skips).
    An unknown workload name raises ``ValueError``."""
    specs = [WorkloadSpec.from_name(w, n_ops=ops, seed=seed)
             for w in workloads]
    tasks = plan_grid([DatasetSpec(d, n, seed) for d in datasets], specs,
                      indexes, mode=mode, threads=threads, sockets=sockets)
    report = run_sweep(tasks, jobs=jobs, cache=cache)
    if out:
        save_jsonl(report.records(), out, append=True)
    return Outcome(
        suite="sweep",
        doc=report.to_dict(include_cells=False),
        metrics=_metrics(report),
        info={"wall_seconds": report.wall_seconds,
              "cells_per_sec": report.cells_per_sec,
              "cache_hits": report.cache_hits,
              "executed": report.executed},
        context={"datasets": sorted(datasets),
                 "workloads": sorted(w.label for w in specs),
                 "indexes": sorted(indexes), "mode": mode,
                 "n": n, "ops": ops, "seed": seed},
        failures=[],
        render=lambda: _render(report),
        report=report.to_dict(),
    )


def parity_benchmark(tasks: Sequence[SweepTask], cache_dir: str,
                     jobs: int = 2) -> dict:
    """The ``BENCH_sweep.json`` document: one grid run serially, then
    across ``jobs`` processes into a fresh cache, then again from it.

    Raises ``AssertionError`` when no process pool ran or a pooled cell
    is not byte-equal to its serial twin — the determinism contract;
    the rerun's cache-hit rate is in the document for the caller to
    gate."""
    serial = run_sweep(tasks, jobs=1)
    cache = SweepCache(cache_dir)
    parallel = run_sweep(tasks, jobs=jobs, cache=cache)
    if not parallel.used_processes:
        raise AssertionError(f"no process pool: {parallel.pool_error}")
    mismatches = [c.task.describe()
                  for c, s in zip(parallel.cells, serial.cells)
                  if c.fingerprint != s.fingerprint]
    if mismatches:
        raise AssertionError(f"parallel != serial: {mismatches}")
    rerun = run_sweep(tasks, jobs=jobs, cache=cache)
    n_ds, n_wl, n_ix = (len({getattr(t, axis) for t in tasks})
                        for axis in ("dataset", "workload", "index"))
    return {
        "grid": f"{len(tasks)} cells ({n_ds} datasets x {n_wl} workloads "
                f"x {n_ix} indexes)",
        "cpus": os.cpu_count(),
        "serial_wall_s": round(serial.wall_seconds, 3),
        "parallel_wall_s": round(parallel.wall_seconds, 3),
        "speedup": round(serial.wall_seconds
                         / max(parallel.wall_seconds, 1e-9), 2),
        "cells_per_sec": round(parallel.cells_per_sec, 2),
        "cache_hit_rate_on_rerun": rerun.cache_hit_rate,
        "rerun_wall_s": round(rerun.wall_seconds, 3),
    }
