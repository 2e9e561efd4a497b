"""Per-layer probes for the traced run: the layer ladder and micro loops.

The ladder replays one balanced probe stream (lookups of loaded keys,
inserts of unloaded ones) over the workload's dataset at every layer
boundary, on fresh state, repetitions interleaved, best kept:

    bare index -> ExecutionEngine -> engine + Telemetry.full
                                  -> engine + EventBus
               -> ShardedIndex(idx, 4)
               -> IndexServer.apply / lookup_many / insert_many

A layer's self time is its rung minus the rung below it, summed over the
panel, and is not clamped: the self times of a ladder add up to its top
rung exactly, and a small negative one says the layer costs less than
the box's noise.  Everything is measured from outside, by timing public
calls (``_lookup_batch`` is the one hook read directly, for the fallback
share).  Returns ``{metric name: (value, unit)}``.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.core.cost import KEY_COMPARE, CostMeter, SyncedMeter
from repro.core.events import EventBus
from repro.core.instance import SERVING, IndexInstance
from repro.core.registry import REGISTRY
from repro.core.runner import ExecutionEngine
from repro.core.server import IndexServer, RWLock
from repro.core.shard import ShardedIndex, ShardMap
from repro.core.sweep import DatasetSpec, SweepCache, WorkloadSpec, plan_grid, run_sweep
from repro.core.telemetry import Telemetry
from repro.core.workloads import INSERT, LOOKUP, Operation, Workload, mixed_workload
from repro.datasets import registry as datasets
from repro.indexes.multiplex import BACKFILL, READY, VERIFY, MultiplexIndex

from workloads import BATCH, DATASET_SEED, PANEL, SCAN_LEN, Tracer, _halves, _items

pc = time.perf_counter
Metrics = Dict[str, Tuple[float, str]]

N_SHARDS = 4
MICRO_CALLS = 100_000
MUX_KEYS = 2_048
SWEEP_INDEXES = ("ALEX", "B+tree")


class _Probe:
    """The probe stream: one key set, cut into the pieces each rung needs."""

    def __init__(self, dataset: str, seed: int, n_keys: int, n_ops: int) -> None:
        rng = random.Random(f"bench-probe-{dataset}-{seed}")
        self.keys = datasets.get(dataset).generate(n_keys, seed=DATASET_SEED)
        loaded, pending = _halves(self.keys, rng)
        self.items = _items(loaded)
        self.reads = rng.choices(loaded, k=n_ops)
        self.writes = _items(pending[:n_ops])
        self.scans = rng.choices(loaded, k=max(1, n_ops // 8))
        n_lookup = max(1, 2 * n_ops // BATCH)
        n_insert = max(1, n_ops // BATCH)
        self.lookup_batches = [rng.choices(loaded, k=BATCH) for _ in range(n_lookup)]
        fresh = pending[n_ops:n_ops + n_insert * BATCH]
        self.insert_batches = [_items(fresh[i:i + BATCH])
                               for i in range(0, len(fresh), BATCH)]
        self.read_ops = [Operation(LOOKUP, k) for k in self.reads]
        self.write_ops = [Operation(INSERT, k, v) for k, v in self.writes]
        self.mux_items = self.items[:MUX_KEYS]
        self.mux_writes = _items(pending[-64:])


def _timed(fn: Callable[[], Any]) -> float:
    t0 = pc()
    fn()
    return pc() - t0


def _each(fn: Callable[..., Any], args: List[Any]) -> float:
    t0 = pc()
    for arg in args:
        fn(arg)
    return pc() - t0


def _pairs(fn: Callable[[Any, Any], Any], pairs: List[Tuple[Any, Any]]) -> float:
    t0 = pc()
    for k, v in pairs:
        fn(k, v)
    return pc() - t0


# ---------------------------------------------------------------------------
# Rungs: each returns {what: seconds} for one index on fresh state
# ---------------------------------------------------------------------------

def _rung_bare(reg: str, p: _Probe, fallbacks: List[bool]) -> Dict[str, float]:
    index = REGISTRY.create(reg)
    out = {"bulk_load": _timed(lambda: index.bulk_load(p.items))}
    out["read"] = _each(index.lookup, p.reads)
    out["scan"] = _each(lambda k: index.range_scan(k, SCAN_LEN), p.scans)
    out["lookup_many"] = _each(index.lookup_many, p.lookup_batches)
    fallbacks += [index._lookup_batch(b) is None for b in p.lookup_batches]
    out["write"] = _pairs(index.insert, p.writes)
    out["insert_many"] = _each(index.insert_many, p.insert_batches)
    return out


def _rung_engine(reg: str, p: _Probe, counts: Dict[str, int],
                 **observers: Any) -> Dict[str, float]:
    instance = IndexInstance(REGISTRY.create(reg))
    instance.bulk_load(p.items)
    out = {}
    for what, ops in (("read", p.read_ops), ("write", p.write_ops)):
        engine = ExecutionEngine(**observers)
        workload = Workload("probe", [], ops)
        out[what] = _timed(lambda: engine.run(instance, workload))
    telemetry = observers.get("telemetry")
    if telemetry is not None:
        counts["events_recorded"] = len(telemetry.trace.events)
    return out


def _rung_shard(reg: str, p: _Probe) -> Dict[str, float]:
    index = ShardedIndex(reg, N_SHARDS)
    index.bulk_load(p.items)
    return {"read": _each(index.lookup, p.reads),
            "lookup_many": _each(index.lookup_many, p.lookup_batches),
            "write": _pairs(index.insert, p.writes)}


def _rung_server(reg: str, p: _Probe) -> Dict[str, float]:
    with IndexServer(workers=0) as server:
        server.create_instance("t", reg, items=p.items)
        apply = server.apply
        return {"read": _each(lambda op: apply("t", op), p.read_ops),
                "lookup_many": _each(lambda b: server.lookup_many("t", b),
                                     p.lookup_batches),
                "write": _each(lambda op: apply("t", op), p.write_ops),
                "insert_many": _each(lambda b: server.insert_many("t", b),
                                     p.insert_batches)}


def _ladder(p: _Probe, reps: int, tracer: Tracer
            ) -> Tuple[Dict[tuple, float], Dict[str, int], float]:
    """Best seconds per (rung, index, what); exact counts; fallback share."""
    best: Dict[tuple, float] = {}
    counts: Dict[str, int] = {}
    fallbacks: List[bool] = []
    root = tracer.root("ladder", pc())
    for rep in range(reps):
        for short, reg in PANEL:
            rungs = {
                "bare": lambda: _rung_bare(reg, p, fallbacks),
                "engine": lambda: _rung_engine(reg, p, counts),
                "telemetry": lambda: _rung_engine(reg, p, counts,
                                                  telemetry=Telemetry.full()),
                "events": lambda: _rung_engine(reg, p, counts, bus=EventBus()),
                "shard": lambda: _rung_shard(reg, p),
                "server": lambda: _rung_server(reg, p),
            }
            for rung, measure in rungs.items():
                t0 = pc()
                times = measure()
                tracer.spans.append([f"ladder.{rung}", t0, pc(), root,
                                     f"ladder/{short}/rep{rep}"])
                for what, seconds in times.items():
                    key = (rung, short, what)
                    best[key] = min(seconds, best.get(key, seconds))
    tracer.close(root, pc())
    return best, counts, sum(fallbacks) / len(fallbacks)


def _smo_counts(reg: str, p: _Probe) -> Tuple[int, int]:
    """(SMOs, keys shifted) over the probe inserts, read from ``last_op``."""
    index = REGISTRY.create(reg)
    index.bulk_load(p.items)
    smos = shifted = 0
    for k, v in p.writes:
        index.insert(k, v)
        record = index.last_op
        smos += bool(record.smo)
        shifted += record.keys_shifted
    return smos, shifted


# ---------------------------------------------------------------------------
# Micro loops and one-off probes
# ---------------------------------------------------------------------------

def _ns_per_call(fn: Callable[[], Any], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = pc()
        for _ in range(MICRO_CALLS):
            fn()
        best = min(best, pc() - t0)
    return best / MICRO_CALLS * 1e9


def _micro(p: _Probe, reps: int) -> Metrics:
    plain, synced = CostMeter(), SyncedMeter()
    instance = IndexInstance(REGISTRY.create("B+tree"), state=SERVING)
    route = ShardMap.from_items(p.items, N_SHARDS).route
    key = p.reads[0]
    lock = RWLock()

    def lock_pair() -> None:
        lock.acquire_read()
        lock.release_read()

    return {
        "core.cost.charge_ns": (_ns_per_call(lambda: plain.charge(KEY_COMPARE), reps), "ns"),
        "core.cost.synced_charge_ns": (
            _ns_per_call(lambda: synced.charge(KEY_COMPARE), reps), "ns"),
        "core.instance.admit_ns": (_ns_per_call(lambda: instance.admit(LOOKUP), reps), "ns"),
        "core.shard.route_ns": (_ns_per_call(lambda: route(key), reps), "ns"),
        "core.server.lock_acquire_ns": (_ns_per_call(lock_pair, reps), "ns"),
    }


def _multiplex(p: _Probe) -> Metrics:
    """A ``MultiplexIndex`` driven through backfill and verify by hand:
    timed ``pump()`` steps, with timed dual writes in between."""
    out: Metrics = {}
    chunks: List[float] = []
    dual_s, dual_n = 0.0, 0
    verify_s, verify_keys = 0.0, 0
    for short, reg in PANEL:
        primary = REGISTRY.create(reg)
        primary.bulk_load(p.mux_items)
        mux = MultiplexIndex(primary, REGISTRY.create(reg), chunk=128, pump_per_op=0)
        writes = iter(p.mux_writes)
        backfill_s, backfill_keys = 0.0, 0
        while mux.phase == BACKFILL:
            t0 = pc()
            backfill_keys += mux.pump()
            dt = pc() - t0
            backfill_s += dt
            chunks.append(dt)
            for k, v in [w for _, w in zip(range(4), writes)]:
                t0 = pc()
                mux.insert(k, v)
                dual_s += pc() - t0
                dual_n += 1
        while mux.phase == VERIFY:
            t0 = pc()
            verify_keys += mux.pump()
            verify_s += pc() - t0
        if mux.phase != READY:
            raise RuntimeError(f"multiplex probe on {reg} ended {mux.phase}: "
                               f"{[d.describe() for d in mux.divergences[:2]]}")
        out[f"indexes.multiplex.backfill_keys_per_s.{short}"] = (
            backfill_keys / backfill_s, "1/s")
    out["indexes.multiplex.verify_keys_per_s"] = (verify_keys / verify_s, "1/s")
    out["indexes.multiplex.pump_chunk_ms"] = (statistics.median(chunks) * 1e3, "ms")
    out["indexes.multiplex.dual_write_us"] = (dual_s / dual_n * 1e6, "us")
    return out


def _sweep(seed: int, n_keys: int, n_ops: int, scratch: str) -> Metrics:
    """``run_sweep`` on a cold 2x2x2 grid, then the cached rerun."""
    tasks = plan_grid(
        [DatasetSpec("covid", n_keys, seed), DatasetSpec("osm", n_keys, seed)],
        [WorkloadSpec.mixed(0.0, n_ops, seed), WorkloadSpec.mixed(0.5, n_ops, seed)],
        list(SWEEP_INDEXES))
    root = os.path.join(scratch, f"sweep-cache-{os.getpid()}")
    try:
        cache = SweepCache(root)
        cold = run_sweep(tasks, jobs=1, cache=cache)
        warm = run_sweep(tasks, jobs=1, cache=cache)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"core.sweep.cells_per_s": (cold.cells_per_sec, "1/s"),
            "core.sweep.cache_hit_share": (warm.cache_hit_rate, "ratio")}


# ---------------------------------------------------------------------------

def probe(dataset: str, seed: int, sizes: Dict[str, int], scratch: str,
          tracer: Tracer) -> Metrics:
    """Every probe metric, on ``dataset``'s keys and this seed's stream;
    one span per ladder rung goes to ``tracer``."""
    n_ops, reps = sizes["probe_ops"], sizes["probe_reps"]
    p = _Probe(dataset, seed, sizes["probe_keys"], n_ops)
    best, counts, fallback_share = _ladder(p, reps, tracer)
    n_idx = len(PANEL)

    def total(rung: str, *whats: str) -> float:
        return sum(best[(rung, short, what)] for short, _ in PANEL for what in whats)

    def per_op(seconds: float, n_whats: int = 1) -> float:
        return seconds / (n_idx * n_ops * n_whats) * 1e6

    out: Metrics = {}
    lookup_keys = len(p.lookup_batches) * BATCH
    insert_keys = sum(len(b) for b in p.insert_batches)
    for short, reg in PANEL:
        bare = {what: best[("bare", short, what)]
                for what in ("bulk_load", "read", "write", "scan",
                             "lookup_many", "insert_many")}
        smos, shifted = _smo_counts(reg, p)
        prefix = f"indexes.{short}"
        out.update({
            f"{prefix}.lookup_us": (bare["read"] / n_ops * 1e6, "us"),
            f"{prefix}.insert_us": (bare["write"] / n_ops * 1e6, "us"),
            f"{prefix}.scan_us_per_key": (
                bare["scan"] / (len(p.scans) * SCAN_LEN) * 1e6, "us"),
            f"{prefix}.bulk_load_us_per_key": (
                bare["bulk_load"] / len(p.items) * 1e6, "us"),
            f"{prefix}.lookup_many_us_per_key": (
                bare["lookup_many"] / lookup_keys * 1e6, "us"),
            f"{prefix}.insert_many_us_per_key": (
                bare["insert_many"] / insert_keys * 1e6, "us"),
            f"{prefix}.smo_per_1k_inserts": (smos / n_ops * 1000, "count"),
            f"{prefix}.keys_shifted_per_insert": (shifted / n_ops, "count"),
        })
    both = ("read", "write")
    out.update({
        "indexes.batching.fallback_share": (fallback_share, "ratio"),
        "indexes.us_per_op.read": (per_op(total("bare", "read")), "us"),
        "indexes.us_per_op.write": (per_op(total("bare", "write")), "us"),
        "core.telemetry.self_us_per_op": (
            per_op(total("telemetry", *both) - total("engine", *both), 2), "us"),
        "core.events.self_us_per_op": (
            per_op(total("events", *both) - total("engine", *both), 2), "us"),
        "core.telemetry.events_recorded": (counts["events_recorded"], "count"),
        "core.shard.self_us_per_op": (
            per_op(total("shard", *both) - total("bare", *both), 2), "us"),
        "core.shard.batch_self_us_per_key": (
            (total("shard", "lookup_many") - total("bare", "lookup_many"))
            / (n_idx * lookup_keys) * 1e6, "us"),
        "core.server.lookup_many_self_us_per_key": (
            (total("server", "lookup_many") - total("bare", "lookup_many"))
            / (n_idx * lookup_keys) * 1e6, "us"),
        "core.server.insert_many_self_us_per_key": (
            (total("server", "insert_many") - total("bare", "insert_many"))
            / (n_idx * insert_keys) * 1e6, "us"),
    })
    for what in both:
        out[f"core.runner.us_per_op.{what}"] = (per_op(total("engine", what)), "us")
        out[f"core.runner.self_us_per_op.{what}"] = (
            per_op(total("engine", what) - total("bare", what)), "us")
        out[f"core.server.apply_self_us.{what}"] = (
            per_op(total("server", what) - total("bare", what)), "us")
    out.update(_micro(p, reps))
    out.update(_multiplex(p))
    build_ops = 4 * n_ops
    out["core.workloads.build_us_per_op"] = (
        _timed(lambda: mixed_workload(p.keys, 0.5, n_ops=build_ops, seed=seed))
        / build_ops * 1e6, "us")
    out.update(_sweep(seed, max(500, sizes["probe_keys"] // 5), n_ops, scratch))
    return out
