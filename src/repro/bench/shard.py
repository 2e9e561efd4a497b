"""``repro shard``: what is measured with the sharded tier.

Determinism contract: a sharded *serial* run is bit-identical in value
fingerprint (:func:`routed_fingerprint`) to an unsharded run of the
same stream; virtual *cost* is intentionally not — routing charges and
smaller per-shard structures are the measured effect.  Wall-clock
parallel execution goes through the sweep engine's
:func:`~repro.core.sweep.run_pool`, fingerprinted per shard so pooled
and serial runs are provably identical (:func:`run_shard_batches`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from statistics import median_high
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench import Outcome
from repro.core.opstream import DifferentialObserver
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.runner import ExecutionObserver, OpEvent, execute
from repro.core.shard import ShardedIndex, ShardRouter
from repro.core.sweep import DatasetSpec, resolve_jobs, run_pool
from repro.core.workloads import LOOKUP, Workload, moving_hotspot_workload, payload
from repro.datasets.zipfian import ScrambledZipfian
from repro.indexes.base import Key, OrderedIndex


class ResultHasher(ExecutionObserver):
    """Folds every op's observable outcome into one SHA-256.

    Two runs with equal digests returned byte-identical values for every
    operation — the sharded-vs-unsharded parity gate. Costs and
    latencies are deliberately excluded (sharding *changes* them; that
    is the point)."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.n_ops = 0

    def on_op(self, event: OpEvent, latency: Optional[float]) -> None:
        self._sha.update(
            f"{event.seq}|{event.op.op}|{event.op.key}|{int(event.ok)}|"
            f"{event.scanned}|{event.result!r}\n".encode())
        self.n_ops += 1

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


def routed_fingerprint(target: Any, workload: Workload,
                       **engine_options: Any) -> str:
    """Value fingerprint of running ``workload`` against ``target``.

    ``routed_fingerprint(ShardedIndex(f, k), wl) ==
    routed_fingerprint(f(), wl)`` is the determinism contract: routing
    must never change what any operation returns."""
    hasher = ResultHasher()
    observers = list(engine_options.pop("observers", ())) + [hasher]
    execute(target, workload, observers=observers, **engine_options)
    return hasher.digest


# ---------------------------------------------------------------------------
# Parallel shard execution (sweep-engine scheduling pattern)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardBatchTask:
    """One shard's lookup sub-stream, self-contained for a worker.

    The worker regenerates the dataset from ``dataset`` (specs travel,
    data does not — the sweep engine's rule), filters it to the shard's
    ``[lo, hi)`` range, bulk loads a fresh index, and runs the lookups
    in ``batch``-sized slices through ``lookup_many``."""

    index: str
    dataset: DatasetSpec
    lo: Optional[Key]
    hi: Optional[Key]
    lookups: Tuple[Key, ...]
    batch: int = 512

    def describe(self) -> str:
        return (f"{self.index} {self.dataset.name}/n{self.dataset.n} "
                f"[{self.lo}, {self.hi}) x{len(self.lookups)}")


#: Per-worker shard memo: loading dominates worker time, and a scaling
#: sweep reuses the same shard across levels, so workers keep loaded
#: shards keyed by (index, dataset, range) — same pattern as the sweep
#: engine's per-process workload memo.
_WORKER_SHARDS: Dict[Tuple[str, DatasetSpec, Optional[Key], Optional[Key]],
                     OrderedIndex] = {}


def _stream_fingerprint(index: OrderedIndex, stream: Sequence[Key],
                        batch: int) -> Tuple[str, int]:
    """SHA-256 over every ``key:value`` of ``stream`` looked up in
    ``batch``-sized ``lookup_many`` slices, plus the hit count."""
    sha = hashlib.sha256()
    hits = 0
    for i in range(0, len(stream), batch):
        chunk = list(stream[i:i + batch])
        for k, v in zip(chunk, index.lookup_many(chunk)):
            if v is not None:
                hits += 1
            sha.update(f"{k}:{v!r};".encode())
    return sha.hexdigest(), hits


def _run_shard_batch(task: ShardBatchTask) -> dict:
    memo_key = (task.index, task.dataset, task.lo, task.hi)
    index = _WORKER_SHARDS.get(memo_key)
    if index is None:
        keys = task.dataset.keys()
        part = [k for k in keys
                if (task.lo is None or k >= task.lo)
                and (task.hi is None or k < task.hi)]
        index = REGISTRY.get(task.index).factory()
        index.bulk_load([(k, payload(k)) for k in part])
        _WORKER_SHARDS[memo_key] = index
    busy0 = index.meter.total_time()
    t0 = time.perf_counter()
    fingerprint, hits = _stream_fingerprint(index, task.lookups, task.batch)
    return {
        "task": task.describe(),
        "n": len(task.lookups),
        "hits": hits,
        "fingerprint": fingerprint,
        "busy_ns": index.meter.total_time() - busy0,
        "wall_seconds": time.perf_counter() - t0,
    }


@dataclass
class ShardBatchReport:
    """All shard cells of one parallel execution, in task order."""

    results: List[dict]
    jobs: int
    used_processes: bool
    pool_error: str
    wall_seconds: float

    def fingerprints(self) -> List[str]:
        return [r["fingerprint"] for r in self.results]


def run_shard_batches(tasks: Sequence[ShardBatchTask],
                      jobs: Optional[int] = None) -> ShardBatchReport:
    """Execute every shard task, in parallel where possible.

    Scheduling is :func:`~repro.core.sweep.run_pool`'s: ``jobs <= 1``
    (or a single task) runs serially in-process; a pool failure falls
    back to serial execution and records ``pool_error`` instead of
    raising.  Results are in task order and value-fingerprinted, so
    parallel-vs-serial parity is one zip away.
    """
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    pool = run_pool(_run_shard_batch, tasks, jobs)
    return ShardBatchReport(
        results=pool.results, jobs=jobs, used_processes=pool.used_processes,
        pool_error=pool.pool_error or "",
        wall_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Benchmarks: multi-shard scaling + rebalance convergence
# ---------------------------------------------------------------------------

def scaling_benchmark(index: str = "ALEX", dataset: str = "covid",
                      n: int = 20000, lookups: int = 8000,
                      shard_counts: Sequence[int] = (1, 2, 4, 8),
                      theta: float = 0.99, seed: int = 0,
                      batch: int = 512, jobs: int = 0) -> dict:
    """Lookup-throughput scaling of one index across shard counts.

    The same zipfian batch stream runs against every shard count.  Per
    level the virtual clock yields two numbers: the *serial* cost (sum
    over shards — what one core pays) and the *parallel* makespan (max
    per-shard busy time + routing — what N cores pay).  Wall-clock is
    measured through the process pool, with per-shard fingerprint
    parity between the pool and serial runs, and every level's full
    stream is fingerprint-checked against the unsharded index.
    """
    spec = DatasetSpec(dataset, n, seed)
    keys = spec.keys()
    items = [(k, payload(k)) for k in keys]
    zipf = ScrambledZipfian(keys, theta=theta, seed=seed)
    stream = [zipf.next_key() for _ in range(lookups)]
    reference = REGISTRY.get(index).factory()
    reference.bulk_load(items)
    ref_fp, ref_hits = _stream_fingerprint(reference, stream, batch)

    levels: List[dict] = []
    for count in shard_counts:
        sharded = ShardedIndex(index, n_shards=count)
        sharded.bulk_load(items)
        busy0 = [inst.index.meter.total_time() for inst in sharded.shards]
        total0 = sharded.meter.total_time()
        routing0 = sharded.meter.routing_ns()
        fp, _hits = _stream_fingerprint(sharded, stream, batch)
        serial_ns = sharded.meter.total_time() - total0
        routing_ns = sharded.meter.routing_ns() - routing0
        busy = [inst.index.meter.total_time() - b0
                for inst, b0 in zip(sharded.shards, busy0)]
        makespan_ns = max(busy) + routing_ns
        if fp != ref_fp:
            raise AssertionError(
                f"{count}-shard run diverged from the unsharded fingerprint")

        tasks = []
        for sid in range(len(sharded.shards)):
            lo, hi = sharded.map.range_of(sid)
            sub = tuple(k for k in stream if sharded.map.route(k) == sid)
            tasks.append(ShardBatchTask(index=index, dataset=spec, lo=lo,
                                        hi=hi, lookups=sub, batch=batch))
        serial_pool = run_shard_batches(tasks, jobs=1)
        want_jobs = min(count, resolve_jobs(jobs))
        parallel_pool = run_shard_batches(tasks, jobs=max(want_jobs, 1))
        pool_parity = (serial_pool.fingerprints()
                       == parallel_pool.fingerprints())
        if not pool_parity:
            raise AssertionError(
                f"{count}-shard pool run diverged from the serial run")
        levels.append({
            "shards": count,
            "virtual_ns_serial": serial_ns,
            "virtual_ns_parallel": makespan_ns,
            "routing_ns": routing_ns,
            "virtual_mops_serial": lookups * 1e3 / max(serial_ns, 1e-9),
            "virtual_mops_parallel": lookups * 1e3 / max(makespan_ns, 1e-9),
            "wall_serial_s": serial_pool.wall_seconds,
            "wall_pool_s": parallel_pool.wall_seconds,
            "pool_jobs": parallel_pool.jobs,
            "pool_used_processes": parallel_pool.used_processes,
            "pool_error": parallel_pool.pool_error,
            "pool_parity": pool_parity,
            "fingerprint_ok": True,
        })
    base, top = levels[0], levels[-1]
    return {
        "index": index, "dataset": dataset, "n": n, "lookups": lookups,
        "theta": theta, "seed": seed, "batch": batch,
        "hits": ref_hits,
        "fingerprint": ref_fp,
        "levels": levels,
        "scaling_virtual": (top["virtual_mops_parallel"]
                            / max(base["virtual_mops_parallel"], 1e-9)),
        "virtual_mops_1shard": base["virtual_mops_parallel"],
        "virtual_mops_max": top["virtual_mops_parallel"],
    }


def rebalance_benchmark(index: str = "ALEX", dataset: str = "covid",
                        n: int = 12000, ops: int = 10000, shards: int = 4,
                        window_ops: int = 512, seed: int = 0,
                        warm_frac: float = 0.15) -> dict:
    """p99 recovery after hotspot rebalancing under a moving-hotspot replay.

    Runs :func:`~repro.core.workloads.moving_hotspot_workload` through a
    :class:`ShardRouter` with the differential oracle attached.  The
    pre-skew baseline is the median cluster lookup p99 over the warm
    (uniform) segment's SLO windows; convergence means the post-replay
    p99 is back within 2x of that baseline with at least one split, zero
    cutover stalls, zero rejected ops, and a clean oracle.
    """
    spec = DatasetSpec(dataset, n, seed)
    keys = spec.keys()
    workload = moving_hotspot_workload(keys, n_ops=ops, warm_frac=warm_frac,
                                       seed=seed)
    sharded = ShardedIndex(index, n_shards=shards)
    router = ShardRouter(sharded, window_ops=window_ops)
    oracle = DifferentialObserver()
    report = router.run(workload, oracle=oracle)
    series = report.p99_series(LOOKUP)
    warm_windows = max(1, int(ops * warm_frac) // router.slo_window)
    pre = median_high(series[:warm_windows]) if series else 0.0
    post = median_high(series[-min(3, len(series)):]) if series else 0.0
    peak = max(series) if series else 0.0
    ratio = post / pre if pre > 0 else float("inf")
    return {
        "index": index, "dataset": dataset, "n": n, "ops": ops,
        "seed": seed, "window_ops": window_ops,
        "shards_initial": shards,
        "shards_final": report.shards_final,
        "splits": report.splits,
        "merges": report.merges,
        "aborted": report.aborted,
        "cutover_stall_ops": report.cutover_stall_ops,
        "rejected_ops": report.rejected,
        "oracle_ok": report.oracle_ok,
        "pre_skew_p99_ns": pre,
        "peak_p99_ns": peak,
        "post_rebalance_p99_ns": post,
        "p99_recovery_ratio": ratio,
        "converged": bool(
            report.splits >= 1 and ratio <= 2.0
            and report.cutover_stall_ops == 0 and report.rejected == 0
            and report.oracle_ok),
        "slo_windows": len(series),
        "wall_seconds": report.wall_seconds,
        "decisions": report.events,
    }


def _render(scaling: dict, rb: dict) -> str:
    levels = scaling["levels"]
    rows = [
        [level["shards"],
         f"{level['virtual_mops_serial']:.2f}",
         f"{level['virtual_mops_parallel']:.2f}",
         f"{level['routing_ns']:.0f}",
         f"{level['wall_pool_s']:.3f}",
         level["pool_jobs"],
         "ok" if level["pool_parity"] else "DIVERGED"]
        for level in levels
    ]
    return "\n".join([
        table(["Shards", "Mops (serial)", "Mops (parallel)", "routing ns",
               "pool wall s", "jobs", "parity"],
              rows,
              title=f"{scaling['index']} scaling on {scaling['dataset']} "
                    f"(n={scaling['n']}, {scaling['lookups']} zipfian "
                    f"lookups, batch={scaling['batch']})"),
        f"\nvirtual lookup scaling {levels[0]['shards']} -> "
        f"{levels[-1]['shards']} shards: "
        f"{scaling['scaling_virtual']:.2f}x "
        f"(fingerprint parity vs unsharded: ok)",
        f"\nmoving-hotspot replay ({rb['ops']} ops, "
        f"{rb['shards_initial']} -> {rb['shards_final']} shards): "
        f"{rb['splits']} splits, {rb['merges']} merges, "
        f"{rb['aborted']} aborted",
        f"  p99 ns: pre-skew {rb['pre_skew_p99_ns']:.0f}, "
        f"peak {rb['peak_p99_ns']:.0f}, "
        f"post-rebalance {rb['post_rebalance_p99_ns']:.0f} "
        f"(recovery ratio {rb['p99_recovery_ratio']:.2f})",
        f"  cutover stall ops: {rb['cutover_stall_ops']}, "
        f"rejected: {rb['rejected_ops']}, "
        f"oracle: {'clean' if rb['oracle_ok'] else 'DIVERGED'}, "
        f"converged: {rb['converged']}",
    ])


def run(index: str, dataset: str, n: int, lookups: int, ops: int,
        shard_counts: Sequence[int], shards: int, batch: int, window: int,
        seed: int, jobs: int, min_scaling: float) -> Outcome:
    """Scaling curve plus hotspot-rebalance replay of one shard engine.
    Raises ``AssertionError`` when a sharded or pooled run diverges in
    fingerprint — a real bug, not a result."""
    scaling = scaling_benchmark(
        index=index, dataset=dataset, n=n, lookups=lookups,
        shard_counts=shard_counts, seed=seed, batch=batch, jobs=jobs)
    rb = rebalance_benchmark(
        index=index, dataset=dataset, n=n, ops=ops, shards=shards,
        window_ops=window, seed=seed)
    failures = []
    if scaling["scaling_virtual"] < min_scaling:
        failures.append(
            f"FAIL: virtual scaling {scaling['scaling_virtual']:.2f}x < "
            f"--min-scaling {min_scaling:.2f}x")
    if not rb["converged"]:
        failures.append(
            "FAIL: moving-hotspot replay did not converge "
            f"(recovery ratio {rb['p99_recovery_ratio']:.2f}, "
            f"splits {rb['splits']}, "
            f"stall ops {rb['cutover_stall_ops']}, "
            f"oracle {'clean' if rb['oracle_ok'] else 'diverged'})")
    return Outcome(
        suite="shard",
        doc={"scaling": scaling, "rebalance": rb},
        metrics={"scaling_virtual": scaling["scaling_virtual"],
                 "virtual_mops_max": scaling["virtual_mops_max"],
                 "p99_recovery_ratio": rb["p99_recovery_ratio"]},
        info={"wall_seconds": rb["wall_seconds"]},
        context={"index": index, "dataset": dataset, "n": n,
                 "lookups": lookups, "ops": ops,
                 "shard_counts": list(shard_counts), "shards": shards,
                 "batch": batch, "window": window, "seed": seed},
        failures=failures,
        render=lambda: _render(scaling, rb),
    )
