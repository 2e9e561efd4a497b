"""GRE command-line interface — run the benchmark without writing code.

The paper's artifact ships scripts "to run the benchmark and visualize
all experiments"; this module is their equivalent::

    python -m repro datasets
    python -m repro hardness genome --n 20000
    python -m repro run --index ALEX --dataset covid --workload balanced
    python -m repro compare --dataset osm --workload write-only
    python -m repro heatmap --n 6000 --ops 4000
    python -m repro scalability --dataset covid --workload write-only
    python -m repro memory --dataset fb
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Sequence

from repro import execute
from repro.core.hardness import mse_hardness, pla_hardness
from repro.core.memory import measure_after_write_only
from repro.core.registry import REGISTRY
from repro.core.report import ascii_chart, format_bytes, table
from repro.core.workloads import (
    MIX_NAMES,
    churn_workload,
    moving_hotspot_workload,
)
from repro.datasets import registry
from repro.datasets.registry import scaled_epsilons

#: Every index the CLI exposes — a derived view over the registry.
_ALL_INDEXES = REGISTRY.factories(tag="cli")


def _workload(args, keys):
    """The workload ``--workload`` names: the sweep vocabulary
    (``WorkloadSpec.from_name``) plus the two replay shapes."""
    from repro.core.sweep import WorkloadSpec

    name = args.workload
    if name.startswith("churn"):
        frac = float(name.split(":")[1]) if ":" in name else 0.5
        return churn_workload(keys, frac, n_ops=args.ops, seed=args.seed)
    if name.startswith("hotspot"):
        phases = int(name.split(":")[1]) if ":" in name else 4
        return moving_hotspot_workload(keys, n_ops=args.ops, phases=phases,
                                       seed=args.seed)
    try:
        spec = WorkloadSpec.from_name(name, n_ops=args.ops, seed=args.seed)
    except ValueError:
        raise SystemExit(
            f"unknown workload {name!r}; use one of {MIX_NAMES}, ycsb-a/b/c, "
            "delete, scan[:SIZE], churn[:WRITE_FRAC], hotspot[:PHASES]"
        ) from None
    return spec.build(keys)


def _index_factory(name: str):
    """The zero-argument factory of CLI index ``name``, or exit."""
    factory = _ALL_INDEXES.get(name)
    if factory is None:
        raise SystemExit(
            f"unknown index {name!r}; use one of {sorted(_ALL_INDEXES)}")
    return factory


def _resolve(lookup, name: str):
    """``lookup(name)``; an unknown name exits cleanly with the
    registry's own message (it lists what is registered)."""
    try:
        return lookup(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def _resolve_index(name: str) -> str:
    """Registry name for ``name`` (loose spellings accepted), or exit."""
    from repro.core.migrate import resolve_index_name

    return _resolve(resolve_index_name, name)


def _shardable(name: str) -> str:
    """Registry name of a shard-capable index, or exit."""
    name = _resolve_index(name)
    if not REGISTRY.get(name).supports_sharding:
        raise SystemExit(f"{name!r} does not support sharding "
                         "(see `repro list`)")
    return name


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` to ``path`` ('' skips).  The note goes to stderr:
    ``--json`` consumers own stdout."""
    if not path:
        return
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    print(f"wrote {path}", file=sys.stderr)


def _gate_history(args, suite: str, metrics: dict, info: dict,
                  context: dict) -> int:
    """``--history`` / ``--check`` for every benchmark command.

    With ``--check`` the gated (virtual-clock) ``metrics`` are judged
    against the file's baseline for this ``suite`` and ``context``
    first; a regression returns 1 and records nothing.  Otherwise the
    run is appended (``info`` rides along ungated) and 0 returned.
    """
    if not args.history:
        return 0
    from repro.core.bench_history import append_history, check_history

    if args.check:
        regressions = check_history(args.history, suite, metrics,
                                    context=context,
                                    tolerance=args.tolerance)
        if regressions:
            for reg in regressions:
                print(f"FAIL {reg}", file=sys.stderr)
            print(f"{args.command} --check: {len(regressions)} "
                  f"regression(s) vs {args.history}", file=sys.stderr)
            return 1
        print(f"{args.command} --check: no regressions vs {args.history} "
              f"(tolerance {args.tolerance:.0%})")
    append_history(args.history, suite, metrics, info=info, context=context)
    if not getattr(args, "json", False):
        print(f"history: appended to {args.history}")
    return 0


def cmd_list(args) -> int:
    # Binding the concurrent variants is a lazy import; do it once so
    # the catalog can show them.
    concurrent = {s.name: s.concurrent_name for s in REGISTRY.concurrent_specs()}
    rows = []
    for spec in REGISTRY:
        rows.append([
            spec.name,
            "learned" if spec.is_learned else "traditional",
            "x" if spec.supports_insert else "",
            "x" if spec.supports_delete else "",
            "x" if spec.supports_range else "",
            "x" if spec.supports_batch else "",
            "x" if spec.supports_migration else "",
            "x" if spec.supports_sharding else "",
            concurrent.get(spec.name, "") or "",
            ",".join(sorted(spec.tags)),
        ])
    print(table(
        ["Index", "Family", "insert", "delete", "range", "batch",
         "migrate", "shard", "concurrent", "tags"],
        rows, title=f"Index registry ({len(REGISTRY)} entries)"))
    print("\nbatch = exact-meter lookup_many fast path: numpy kernels on "
          "the model-based indexes, C bisect + numpy probe replay on "
          "B+tree (see `repro bench`); every index accepts the *_many "
          "APIs.\n"
          "migrate = eligible for zero-downtime live migration "
          "(see `repro migrate`).\n"
          "shard = usable as the per-shard engine of the sharded "
          "serving tier (see `repro shard`).")
    return 0


def cmd_bench(args) -> int:
    """Scalar vs batched lookup microbenchmark (wall clock)."""
    import random as _random
    import time as _time

    from repro.core.bench_history import provenance
    from repro.core.runner import LatencyStats
    from repro.core.workloads import payload
    from repro.indexes import batching
    from repro.indexes.linear_model import LinearModel

    names = ([n for n in args.indexes.split(",") if n] if args.indexes
             else [s.name for s in REGISTRY if s.supports_batch])
    for n in names:  # fail fast on typos
        REGISTRY.get(n)
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    items = [(k, payload(k)) for k in keys]
    rng = _random.Random(args.seed + 1)
    qs = [keys[rng.randrange(len(keys))] for _ in range(args.lookups)]
    for i in range(0, len(qs), 3):  # ~1/3 misses
        qs[i] += 1

    results = []
    for name in names:
        spec = REGISTRY.get(name)
        a = spec.factory()
        a.bulk_load(items)
        for k in qs[:256]:  # warm (mirrors the batch side's warm-up)
            a.lookup(k)
        t0 = _time.perf_counter()
        scalar_values = [a.lookup(k) for k in qs]
        t_scalar = _time.perf_counter() - t0

        b = spec.factory()
        b.bulk_load(items)
        vectorized = b._lookup_batch(qs) is not None  # charges nothing
        b.lookup_many(qs[:256])  # warm batch tables
        t0 = _time.perf_counter()
        batch_values = b.lookup_many(qs)
        t_batch = _time.perf_counter() - t0
        if batch_values != scalar_values:
            raise SystemExit(f"{name}: batch/scalar value mismatch")
        if list(a.meter.snapshot().items()) != list(b.meter.snapshot().items()):
            raise SystemExit(f"{name}: batch/scalar cost divergence")
        # Virtual-clock lookup profile: deterministic across machines,
        # so the regression gate can judge it against a committed
        # baseline (wall-clock numbers above are recorded, not gated).
        samples = []
        v0 = a.meter.total_time()
        for k in qs:
            before = a.meter.total_time()
            a.lookup(k)
            samples.append(a.meter.total_time() - before)
        virtual_ns = a.meter.total_time() - v0
        vstats = LatencyStats.from_samples(samples)
        virtual_mops = (len(qs) / (virtual_ns / 1e9) / 1e6
                        if virtual_ns > 0 else 0.0)
        speedup = t_scalar / t_batch if t_batch > 0 else float("inf")
        results.append({
            "index": name,
            "vectorized": vectorized,
            "scalar_ops_per_s": len(qs) / t_scalar,
            "batch_ops_per_s": len(qs) / t_batch,
            "speedup": speedup,
            "virtual_lookup_mops": virtual_mops,
            "virtual_lookup_p99_ns": vstats.p99,
        })
        print(f"{name:12s} scalar {len(qs) / t_scalar:>10.0f} op/s   "
              f"batch {len(qs) / t_batch:>10.0f} op/s   "
              f"{speedup:5.1f}x{'' if vectorized else '  (loop fallback)'}   "
              f"[virtual {virtual_mops:.2f} Mops, p99 {vstats.p99:.0f} ns]")

    # predict_clamped hoisting note: per-call method vs the predictor()
    # closure that hoists the attribute loads and the clamp bound.
    model = LinearModel.train(keys)
    n = len(keys)
    reps = min(len(qs), 20000)
    t0 = _time.perf_counter()
    for k in qs[:reps]:
        model.predict_clamped(k, n)
    t_before = _time.perf_counter() - t0
    pred = model.predictor(n)
    t0 = _time.perf_counter()
    for k in qs[:reps]:
        pred(k)
    t_after = _time.perf_counter() - t0
    predict_note = {
        "before_mops": reps / t_before / 1e6,
        "after_mops": reps / t_after / 1e6,
        "speedup": t_before / t_after if t_after > 0 else float("inf"),
        "note": "predictor(n) hoists the slope/intercept/anchor loads "
                "and the n-1 clamp bound out of the per-call path; "
                "predictions are bit-identical to predict_clamped.",
    }
    print(f"predict_clamped: {predict_note['before_mops']:.2f} -> "
          f"{predict_note['after_mops']:.2f} Mcalls/s "
          f"({predict_note['speedup']:.2f}x hoisted)")

    doc = {
        "dataset": args.dataset,
        "n": args.n,
        "lookups": args.lookups,
        "seed": args.seed,
        "numpy": batching.numpy_available(),
        "results": results,
        "predict_clamped": predict_note,
    }
    doc.update(provenance())
    _write_json(args.out, doc)
    if args.min_speedup > 0:
        slow = [r for r in results
                if r["vectorized"] and r["speedup"] < args.min_speedup]
        if slow:
            for r in slow:
                print(f"FAIL {r['index']}: {r['speedup']:.2f}x < "
                      f"{args.min_speedup}x", file=sys.stderr)
            return 1
    context = {"dataset": args.dataset, "n": args.n,
               "lookups": args.lookups, "seed": args.seed,
               "indexes": sorted(names)}
    metrics = {}
    info = {}
    for r in results:
        metrics[f"virtual_lookup_mops.{r['index']}"] = r["virtual_lookup_mops"]
        metrics[f"virtual_lookup_p99_ns.{r['index']}"] = r["virtual_lookup_p99_ns"]
        info[f"scalar_ops_per_s.{r['index']}"] = r["scalar_ops_per_s"]
        info[f"batch_ops_per_s.{r['index']}"] = r["batch_ops_per_s"]
        info[f"speedup.{r['index']}"] = r["speedup"]
    return _gate_history(args, "bench", metrics, info, context)


def cmd_datasets(args) -> int:
    rows = []
    for name in registry.names(include_duplicates=True):
        ds = registry.get(name)
        rows.append([ds.name, ds.hardness_class, ds.description])
    print(table(["Name", "Class", "Description"], rows, title="Datasets"))
    return 0


def cmd_hardness(args) -> int:
    ds = registry.get(args.dataset)
    keys = ds.generate(args.n, seed=args.seed)
    g_eps, l_eps = scaled_epsilons(len(keys))
    print(f"{ds.name}: n={len(keys)}  (class: {ds.hardness_class})")
    print(f"  global hardness H(eps={g_eps:>4}) = {pla_hardness(keys, g_eps)}")
    print(f"  local  hardness H(eps={l_eps:>4}) = {pla_hardness(keys, l_eps)}")
    print(f"  MSE of one line (appendix D)  = {mse_hardness(keys):.4g}")
    deciles = [keys[int(q * (len(keys) - 1) / 10)] for q in range(11)]
    print("  CDF deciles (key/max):",
          " ".join(f"{k / max(deciles[-1], 1):.3f}" for k in deciles))
    return 0


def _telemetry_from_args(args):
    """A Telemetry bundle for the run/diagnose flags, or None."""
    from repro.core.telemetry import (
        CostProfiler,
        MetricsCollector,
        Telemetry,
        TraceRecorder,
    )

    trace = getattr(args, "trace", "") or getattr(args, "trace_log", "")
    metrics = getattr(args, "metrics", "")
    profile = getattr(args, "profile", False)
    if not (trace or metrics or profile):
        return None
    return Telemetry(
        trace=TraceRecorder() if trace else None,
        metrics=MetricsCollector(window_ops=getattr(args, "window", 256)) if metrics else None,
        profiler=CostProfiler() if profile else None,
    )


def _save_telemetry(args, telemetry) -> None:
    """Persist telemetry artifacts through the versioned-results layer."""
    from repro.core.results import save_jsonl

    if telemetry is None:
        return
    if telemetry.trace is not None:
        if getattr(args, "trace", ""):
            telemetry.trace.save_chrome(args.trace)
            print(f"trace: {args.trace} ({len(telemetry.trace.spans())} op spans; "
                  "open in Perfetto / chrome://tracing)")
        if getattr(args, "trace_log", ""):
            n = save_jsonl(telemetry.trace.events, args.trace_log,
                           tags={"artifact": "trace"})
            print(f"trace log: {args.trace_log} ({n} events)")
    if telemetry.metrics is not None and getattr(args, "metrics", ""):
        n = save_jsonl(telemetry.metrics.series, args.metrics,
                       tags={"artifact": "metrics"})
        storms = telemetry.metrics.smo_storms()
        print(f"metrics: {args.metrics} ({n} samples, "
              f"{len(storms)} SMO storm(s) detected)")


def cmd_run(args) -> int:
    factory = _index_factory(args.index)
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    telemetry = _telemetry_from_args(args)
    bus = slo = None
    if getattr(args, "events", ""):
        from repro.core.events import EventBus
        from repro.core.instance import IndexInstance
        from repro.core.slo import SLOTracker

        bus = EventBus()
        slo = SLOTracker(bus=bus, window_ops=getattr(args, "window", 256))
        target = bus.attach_instance(IndexInstance.wrap(factory()))
        r = execute(target, wl, telemetry=telemetry, bus=bus, observers=[slo])
    else:
        r = execute(factory(), wl, telemetry=telemetry)
    _save_telemetry(args, telemetry)
    if bus is not None:
        n = bus.save(args.events)
        print(f"events: {args.events} ({n} events, "
              f"{len(slo.alerts)} SLO alert(s))")
    if getattr(args, "out", None):
        from repro.core.results import save_jsonl

        save_jsonl([r], args.out, append=True)
    if getattr(args, "json", False):
        from repro.core.results import result_record

        print(json.dumps(result_record(r), indent=2))
        return 0
    rows = [
        ["throughput", f"{r.throughput_mops:.3f} Mops (virtual)"],
        ["ops", r.n_ops],
        ["virtual time", f"{r.virtual_ns / 1e6:.2f} ms"],
        ["wall time", f"{r.wall_seconds:.2f} s (interpreter)"],
        ["lookup p50/p99.9", f"{r.lookup_latency.p50:.0f} / {r.lookup_latency.p999:.0f} ns"],
        ["write  p50/p99.9", f"{r.write_latency.p50:.0f} / {r.write_latency.p999:.0f} ns"],
        ["memory", format_bytes(r.memory.total)],
    ]
    avg = r.insert_stats.averages()
    if r.insert_stats.inserts:
        rows.append(["keys shifted/insert", f"{avg['keys_shifted']:.2f}"])
        rows.append(["nodes created/insert", f"{avg['nodes_created']:.2f}"])
    print(table(["Metric", "Value"], rows,
                title=f"{args.index} on {args.dataset} / {wl.name}"))
    return 0


def cmd_top(args) -> int:
    """Live control-tower view over the operational event stream."""
    from repro.core.events import KIND_OP_WINDOW, EventBus, validate_bus_events
    from repro.core.instance import IndexInstance
    from repro.core.results import load_jsonl
    from repro.core.slo import ControlTower, SLOTracker

    tower = ControlTower()
    view = None
    if args.events:
        records = load_jsonl(args.events)
        validate_bus_events(records)
        for rec in records:
            tower.consume(rec)
    else:
        bus = EventBus()
        bus.subscribe(tower.consume)
        live = sys.stdout.isatty() and not args.once and not args.json

        def refresh(event: dict) -> None:
            # ANSI home+clear keeps the table in place between windows.
            sys.stdout.write("\x1b[H\x1b[2J" + tower.render() + "\n")
            sys.stdout.flush()

        if live:
            bus.subscribe(refresh, kinds=[KIND_OP_WINDOW])
        keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
        wl = _workload(args, keys)
        if getattr(args, "shards", 0):
            from repro.core.shard import ShardedIndex, ShardRouter
            from repro.core.slo import cluster_view

            sharded = ShardedIndex(_shardable(args.index), n_shards=args.shards)
            sharded.attach_bus(bus)
            router = ShardRouter(sharded, window_ops=max(args.window, 64),
                                 slo_window=args.window, bus=bus)
            router.run(wl)
            view = cluster_view(router.all_trackers)
        elif getattr(args, "server", False):
            from repro.core.events import KIND_JOB
            from repro.core.server import run_serve_session, session_streams

            index = _resolve_index(args.index)
            if live:
                bus.subscribe(refresh, kinds=[KIND_JOB])
            n_clients = 4
            bulk, streams = session_streams(
                index, n_clients=n_clients,
                ops_per_client=max(1, args.ops // n_clients),
                seed=args.seed, bulk_keys=keys)
            report = run_serve_session(index, bulk, streams, threaded=True,
                                       seed=args.seed, bus=bus)
            if not report.ok:
                print(f"serve session NOT ok: {report.to_dict()}",
                      file=sys.stderr)
        elif args.migrate:
            from repro.core.migrate import run_migration

            run_migration(_resolve_index(args.migrate[0]),
                          _resolve_index(args.migrate[1]), wl, bus=bus,
                          bus_window=args.window)
        else:
            factory = _index_factory(args.index)
            slo = SLOTracker(bus=bus, window_ops=args.window)
            target = bus.attach_instance(IndexInstance.wrap(factory()))
            execute(target, wl, bus=bus, bus_window=args.window,
                    observers=[slo])
    if args.json:
        doc = tower.to_json()
        if view is not None:
            doc = {"tower": doc, "cluster": view}
        print(json.dumps(doc, indent=2))
        return 0
    print(tower.render())
    if view is not None:
        from repro.core.slo import render_cluster_view

        print()
        print(render_cluster_view(view))
    return 0


def cmd_compare(args) -> int:
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    rows = []
    results = []
    for name, factory in _ALL_INDEXES.items():
        r = execute(factory(), wl)
        results.append(r)
        rows.append([name, f"{r.throughput_mops:.3f}",
                     f"{r.lookup_latency.p999:.0f}",
                     format_bytes(r.memory.total)])
    if getattr(args, "out", None):
        from repro.core.results import save_jsonl

        save_jsonl(results, args.out, append=True)
    rows.sort(key=lambda row: -float(row[1]))
    print(table(["Index", "Mops", "lookup p99.9 ns", "memory"], rows,
                title=f"All indexes on {args.dataset} / {wl.name}"))
    return 0


def cmd_heatmap(args) -> int:
    from repro.core.heatmap import sweep_heatmap
    from repro.core.sweep import DatasetSpec, SweepCache, WorkloadSpec

    names = args.datasets.split(",") if args.datasets else registry.heatmap_names()
    datasets = [DatasetSpec(n, args.n, args.seed) for n in names]
    workloads = [WorkloadSpec.from_name(m, n_ops=args.ops, seed=args.seed)
                 for m in MIX_NAMES]
    cache = SweepCache(args.cache_dir) if getattr(args, "cache_dir", "") else None
    hm, report = sweep_heatmap(
        datasets, workloads,
        learned_names=REGISTRY.names(tag="core", learned=True),
        traditional_names=REGISTRY.names(tag="core", learned=False),
        jobs=args.jobs, cache=cache,
    )
    print(hm.render())
    print(f"\nlearned-index win fraction: {hm.learned_win_fraction():.0%}")
    if report.jobs > 1 or report.cache_hits:
        print(f"[sweep] {len(report.cells)} cells in {report.wall_seconds:.2f}s "
              f"({report.cells_per_sec:.1f} cells/s, jobs={report.jobs}, "
              f"{report.cache_hits} cache hits)")
    return 0


def _sweep_workload_specs(args) -> List:
    from repro.core.sweep import WorkloadSpec

    names = [w for w in args.workloads.split(",") if w]
    try:
        return [WorkloadSpec.from_name(w, n_ops=args.ops, seed=args.seed)
                for w in names]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_sweep(args) -> int:
    from repro.core.sweep import (
        DatasetSpec,
        SweepCache,
        default_cache_dir,
        plan_grid,
        run_sweep,
    )

    ds_names = [d for d in args.datasets.split(",") if d]
    for d in ds_names:  # fail fast on typos
        _resolve(registry.get, d)
    index_names = ([i for i in args.indexes.split(",") if i]
                   if args.indexes else REGISTRY.names(tag="heatmap"))
    if args.mode == "single":
        for name in index_names:
            if name not in _ALL_INDEXES and name not in REGISTRY:
                raise SystemExit(
                    f"unknown index {name!r}; use one of {sorted(_ALL_INDEXES)}")
    datasets = [DatasetSpec(d, args.n, args.seed) for d in ds_names]
    workloads = _sweep_workload_specs(args)
    tasks = plan_grid(datasets, workloads, index_names, mode=args.mode,
                      threads=args.threads, sockets=args.sockets)
    cache = None
    if not args.no_cache:
        cache = SweepCache(args.cache_dir or default_cache_dir())
    report = run_sweep(tasks, jobs=args.jobs, cache=cache)

    if args.out:
        from repro.core.results import save_jsonl

        save_jsonl(report.records(), args.out, append=True)
    if args.bench:
        from repro.core.bench_history import provenance

        doc = report.to_dict(include_cells=False)
        doc.update(provenance())
        _write_json(args.bench, doc)
    if args.history and report.cells:
        single = [c for c in report.cells
                  if c.record.get("kind") != "multicore"]
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
        context = {"datasets": sorted(ds_names),
                   "workloads": sorted(w.label for w in workloads),
                   "indexes": sorted(index_names), "mode": args.mode,
                   "n": args.n, "ops": args.ops, "seed": args.seed}
        info = {"wall_seconds": report.wall_seconds,
                "cells_per_sec": report.cells_per_sec,
                "cache_hits": report.cache_hits,
                "executed": report.executed}
        if _gate_history(args, "sweep", metrics, info, context):
            return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    rows = [
        [c.task.dataset.name, c.task.workload.label, c.task.index,
         f"{c.throughput_mops:.3f}", "hit" if c.cached else "run"]
        for c in report.cells
    ]
    print(table(["Dataset", "Workload", "Index", "Mops", "Cache"], rows,
                title=f"Sweep: {len(report.cells)} cells"))
    print(f"\n{len(report.cells)} cells in {report.wall_seconds:.2f}s "
          f"({report.cells_per_sec:.1f} cells/s) — jobs={report.jobs}, "
          f"{report.cache_hits} cache hits "
          f"({report.cache_hit_rate:.0%}), {report.executed} executed")
    if report.pool_error:
        print(f"warning: process pool unavailable ({report.pool_error}); "
              "ran serially")
    return 0


def cmd_scalability(args) -> int:
    from repro.concurrency.adapters import MT_LEARNED, MT_TRADITIONAL
    from repro.concurrency.simcore import MulticoreSimulator, Topology

    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    threads = [int(t) for t in args.threads.split(",")]
    sim = MulticoreSimulator(Topology(sockets=args.sockets))
    curves: Dict[str, List[float]] = {}
    for name, factory in {**MT_LEARNED, **MT_TRADITIONAL}.items():
        ad = factory()
        ad.bulk_load(wl.bulk_items)
        traces = sim.record(ad, wl.operations)
        curves[name] = [sim.replay(name, traces, t).throughput_mops for t in threads]
    print(ascii_chart(curves, threads,
                      title=f"{args.dataset} / {wl.name} — Mops vs threads "
                            f"({args.sockets} socket(s))"))
    rows = [[name] + [f"{y:.1f}" for y in ys] for name, ys in curves.items()]
    print()
    print(table(["Index"] + [str(t) for t in threads], rows))
    return 0


def cmd_memory(args) -> int:
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    rows = []
    for name, factory in _ALL_INDEXES.items():
        rep = measure_after_write_only(factory, keys)
        rows.append([name, format_bytes(rep.breakdown.total),
                     f"{rep.bytes_per_key:.1f}", f"{rep.inner_fraction:.0%}"])
    rows.sort(key=lambda row: float(row[2]))
    print(table(["Index", "Total", "Bytes/key", "Inner share"], rows,
                title=f"End-to-end memory after write-only ({args.dataset})"))
    return 0


def cmd_diagnose(args) -> int:
    from repro.core.diagnostics import diagnose
    from repro.core.slo import SLOTracker
    from repro.core.telemetry import CostProfiler, MetricsCollector, Telemetry

    factory = _index_factory(args.index)
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    idx = factory()
    # Record the run so the report can cite behavioral findings (SMO
    # storms, dominant cost phases, fired SLO alerts), not just
    # end-state structure.
    telemetry = Telemetry(metrics=MetricsCollector(), profiler=CostProfiler())
    slo = SLOTracker()
    execute(idx, wl, telemetry=telemetry, observers=[slo])
    sample = [k for k, _ in wl.bulk_items][:: max(1, len(wl.bulk_items) // 300)]
    print(diagnose(idx, sample, telemetry=telemetry, slo=slo).render())
    return 0


def cmd_profile(args) -> int:
    from repro.core.telemetry import CostProfiler, Telemetry

    factory = _index_factory(args.index)
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    idx = factory()
    profiler = CostProfiler()
    r = execute(idx, wl, telemetry=Telemetry(profiler=profiler))
    print(f"{args.index} on {args.dataset} / {wl.name}: "
          f"{r.throughput_mops:.3f} Mops over {r.virtual_ns / 1e6:.2f} virtual ms\n")
    print(profiler.render(top=args.top))
    # The profile is exhaustive: its phase totals are the meter's.
    drift = abs(profiler.total_ns() - sum(idx.meter.time_by_phase().values()))
    print(f"\nreconciliation drift vs CostMeter.time_by_phase(): {drift:.3g} ns")
    return 0


def cmd_fuzz(args) -> int:
    import os

    from repro.core.opstream import fuzz_index, fuzzable_specs, replay_file

    if args.replay:
        paths = []
        for p in args.replay:
            if os.path.isdir(p):
                paths += sorted(
                    os.path.join(p, f) for f in os.listdir(p)
                    if f.endswith(".jsonl"))
            elif not os.path.exists(p):
                raise SystemExit(
                    f"repro fuzz --replay: {p!r} does not exist "
                    "(expected a saved opstream .jsonl file or a "
                    "directory of them)")
            else:
                paths.append(p)
        failed = 0
        for path in paths:
            report = replay_file(path)
            print(f"{path}: {report.describe()}")
            failed += 0 if report.ok else 1
        print(f"\nreplayed {len(paths)} stream(s), {failed} failing")
        return 1 if failed else 0

    if args.index:
        specs = [REGISTRY.get(name) for name in args.index]
        for spec in specs:
            if not spec.supports_insert:
                raise SystemExit(f"{spec.name} is read-only; nothing to fuzz")
    else:
        specs = fuzzable_specs()

    failures = []
    for spec in specs:
        failure = fuzz_index(spec, budget=args.budget, seed=args.seed)
        if failure is None:
            print(f"{spec.name:12s} ok ({args.budget} ops)")
            continue
        failures.append(failure)
        print(failure.describe())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            dest = os.path.join(
                args.out, f"{spec.name.replace('+', 'plus')}-seed{args.seed}.jsonl")
            failure.stream.save(dest)
            print(f"  shrunk stream saved to {dest}")
    print(f"\nfuzzed {len(specs)} index(es) x {args.budget} ops: "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def cmd_migrate(args) -> int:
    from repro.core.migrate import run_migration

    src, dst = _resolve_index(args.src), _resolve_index(args.dst)
    if src == dst:
        raise SystemExit(f"source and destination are both {src}")
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    bus = None
    if getattr(args, "events", ""):
        from repro.core.events import EventBus

        bus = EventBus()
    try:
        report = run_migration(src, dst, wl, chunk=args.chunk,
                               pump_per_op=args.pump, seed=args.seed,
                               bus=bus)
    except ValueError as exc:  # capability refusal, not a crash
        raise SystemExit(str(exc)) from None
    if bus is not None:
        n = bus.save(args.events)
        print(f"events: {args.events} ({n} events)")
    if report.repro is not None and args.repro_dir:
        import os

        os.makedirs(args.repro_dir, exist_ok=True)
        dest = os.path.join(
            args.repro_dir,
            f"migrate-{src.replace('+', 'plus')}-to-"
            f"{dst.replace('+', 'plus')}-seed{args.seed}.jsonl")
        report.repro.save(dest)
        report.repro_path = dest
    if args.bench:
        from repro.core.bench_history import provenance

        doc = report.to_dict()
        doc.update(provenance())
        _write_json(args.bench, doc)
    metrics = {
        "overhead_ns": report.overhead_ns,
        "client_ns": report.client_ns,
        "backfill_keys_per_vsec": report.backfill_keys_per_vsec,
    }
    context = {"src": src, "dst": dst, "dataset": args.dataset,
               "workload": args.workload, "n": args.n, "ops": args.ops,
               "chunk": args.chunk, "pump": args.pump, "seed": args.seed}
    if _gate_history(args, "migration", metrics,
                     {"wall_seconds": report.wall_seconds}, context):
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    if not report.ok:
        return 1
    if report.verified_fraction < args.min_verified:
        print(f"FAIL: verified fraction {report.verified_fraction:.2%} < "
              f"--min-verified {args.min_verified:.2%}", file=sys.stderr)
        return 1
    return 0


def cmd_shard(args) -> int:
    """Sharded serving tier: scaling curve + hotspot-rebalance replay."""
    from repro.core.bench_history import provenance
    from repro.core.shard import rebalance_benchmark, scaling_benchmark

    index = _shardable(args.index)
    counts = tuple(int(c) for c in args.shard_counts.split(",") if c)
    try:
        scaling = scaling_benchmark(
            index=index, dataset=args.dataset, n=args.n,
            lookups=args.lookups, shard_counts=counts, seed=args.seed,
            batch=args.batch,
            jobs=args.jobs if args.jobs is not None else 0)
    except AssertionError as exc:  # fingerprint divergence — a real bug
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    rebalance = rebalance_benchmark(
        index=index, dataset=args.dataset, n=args.n, ops=args.ops,
        shards=args.shards, window_ops=args.window, seed=args.seed)

    doc = {"scaling": scaling, "rebalance": rebalance}
    doc.update(provenance())
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        rows = []
        for level in scaling["levels"]:
            rows.append([
                level["shards"],
                f"{level['virtual_mops_serial']:.2f}",
                f"{level['virtual_mops_parallel']:.2f}",
                f"{level['routing_ns']:.0f}",
                f"{level['wall_pool_s']:.3f}",
                level["pool_jobs"],
                "ok" if level["pool_parity"] else "DIVERGED",
            ])
        print(table(
            ["Shards", "Mops (serial)", "Mops (parallel)", "routing ns",
             "pool wall s", "jobs", "parity"],
            rows,
            title=f"{index} scaling on {args.dataset} "
                  f"(n={args.n}, {args.lookups} zipfian lookups, "
                  f"batch={args.batch})"))
        print(f"\nvirtual lookup scaling {counts[0]} -> {counts[-1]} shards: "
              f"{scaling['scaling_virtual']:.2f}x "
              f"(fingerprint parity vs unsharded: ok)")
        rb = rebalance
        print(f"\nmoving-hotspot replay ({rb['ops']} ops, "
              f"{rb['shards_initial']} -> {rb['shards_final']} shards): "
              f"{rb['splits']} splits, {rb['merges']} merges, "
              f"{rb['aborted']} aborted")
        print(f"  p99 ns: pre-skew {rb['pre_skew_p99_ns']:.0f}, "
              f"peak {rb['peak_p99_ns']:.0f}, "
              f"post-rebalance {rb['post_rebalance_p99_ns']:.0f} "
              f"(recovery ratio {rb['p99_recovery_ratio']:.2f})")
        print(f"  cutover stall ops: {rb['cutover_stall_ops']}, "
              f"rejected: {rb['rejected_ops']}, "
              f"oracle: {'clean' if rb['oracle_ok'] else 'DIVERGED'}, "
              f"converged: {rb['converged']}")
    _write_json(args.out, doc)
    metrics = {
        "scaling_virtual": scaling["scaling_virtual"],
        "virtual_mops_max": scaling["virtual_mops_max"],
        "p99_recovery_ratio": rebalance["p99_recovery_ratio"],
    }
    context = {"index": index, "dataset": args.dataset,
               "n": args.n, "lookups": args.lookups, "ops": args.ops,
               "shard_counts": list(counts), "shards": args.shards,
               "batch": args.batch, "window": args.window,
               "seed": args.seed}
    if _gate_history(args, "shard", metrics,
                     {"wall_seconds": rebalance["wall_seconds"]}, context):
        return 1
    ok = True
    if scaling["scaling_virtual"] < args.min_scaling:
        print(f"FAIL: virtual scaling {scaling['scaling_virtual']:.2f}x < "
              f"--min-scaling {args.min_scaling:.2f}x", file=sys.stderr)
        ok = False
    if not rebalance["converged"]:
        print("FAIL: moving-hotspot replay did not converge "
              f"(recovery ratio {rebalance['p99_recovery_ratio']:.2f}, "
              f"splits {rebalance['splits']}, "
              f"stall ops {rebalance['cutover_stall_ops']}, "
              f"oracle {'clean' if rebalance['oracle_ok'] else 'diverged'})",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


def cmd_serve(args) -> int:
    """Async index server session: N clients + a background rebuild,
    journal-replayed through the differential oracle."""
    from repro.core.bench_history import provenance
    from repro.core.events import EventBus
    from repro.core.server import run_serve_session, session_streams
    from repro.core.slo import ControlTower

    index = _resolve_index(args.index)
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    bulk, streams = session_streams(
        index, n_clients=args.clients, ops_per_client=args.ops,
        seed=args.seed, profile=args.profile, bulk_keys=keys)

    bus = EventBus()
    tower = ControlTower()
    bus.subscribe(tower.consume)
    report = run_serve_session(
        index, bulk, streams, rebuild_to=args.rebuild,
        rebuild_after=args.rebuild_after, threaded=False, seed=args.seed,
        queue_depth=args.queue_depth, admission=args.admission,
        chunk=args.chunk, bus=bus)
    threaded = None
    if args.threads:
        threaded = run_serve_session(
            index, bulk, streams, rebuild_to=args.rebuild,
            rebuild_after=args.rebuild_after, threaded=True,
            seed=args.seed, queue_depth=args.queue_depth,
            admission=args.admission, chunk=args.chunk)

    doc = {"deterministic": report.to_dict()}
    if threaded is not None:
        doc["threaded"] = threaded.to_dict()
    doc.update(provenance())
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(tower.render(title=f"repro serve · {index} on {args.dataset}"))
        rep = report.to_dict()
        print(f"\n{rep['clients']} clients x {args.ops} ops "
              f"({args.profile}), rebuild -> {args.rebuild or index}: "
              f"{rep['ops_per_vsec'] / 1e6:.2f}M ops/vs, "
              f"overhead {rep['overhead_ns'] / 1e3:.0f}k vns, "
              f"journal {rep['journal_len']} ops")
        for label, r in (("deterministic", report), ("threaded", threaded)):
            if r is None:
                continue
            print(f"  {label}: dropped lookups {r.dropped_lookups}, "
                  f"stalled {r.stalled_lookups}, "
                  f"oracle {'clean' if not r.mismatches else 'DIVERGED'}, "
                  f"job {r.job['state'] if r.job else '-'}, "
                  f"wall {r.wall_seconds:.3f}s")
    _write_json(args.out, doc)
    # Gated metrics come from the deterministic session only: same
    # seed, same interleave, same virtual-clock numbers on any
    # machine.  Threaded wall-clock stats ride in info, ungated.
    metrics = {
        "serve_ops_per_vsec": report.ops_per_vsec,
        "client_ns": report.client_ns,
        "overhead_ns": report.overhead_ns,
    }
    context = {"index": index, "dataset": args.dataset, "n": args.n,
               "clients": args.clients, "ops": args.ops,
               "profile": args.profile, "rebuild": args.rebuild,
               "rebuild_after": args.rebuild_after,
               "chunk": args.chunk, "queue_depth": args.queue_depth,
               "admission": args.admission, "seed": args.seed}
    info = {"wall_seconds": report.wall_seconds}
    if threaded is not None:
        info["threaded_wall_seconds"] = threaded.wall_seconds
    if _gate_history(args, "serve", metrics, info, context):
        return 1
    ok = True
    for label, r in (("deterministic", report), ("threaded", threaded)):
        if r is None:
            continue
        if not r.ok:
            print(f"FAIL: {label} session: "
                  f"dropped lookups {r.dropped_lookups}, "
                  f"stalled {r.stalled_lookups}, "
                  f"oracle mismatches {len(r.mismatches)}, "
                  f"job {r.job['state'] if r.job else '-'}",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


def cmd_compare_runs(args) -> int:
    from repro.core.results import ResultStore, compare

    base = ResultStore(args.baseline).load()
    cur = ResultStore(args.current).load()
    regressions = compare(base, cur, threshold=args.threshold)
    if not regressions:
        print(f"no regressions beyond {args.threshold:.0%}")
        return 0
    for r in regressions:
        print(r)
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="GRE: benchmark updatable learned indexes "
                    "(reproduction of VLDB 2022).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def _history_flags(sp):
        sp.add_argument("--history", default="",
                        help="append a fingerprinted bench-history record "
                             "to this JSON-lines file (BENCH_history.jsonl)")
        sp.add_argument("--check", action="store_true",
                        help="fail when a gated virtual-clock metric "
                             "regresses vs the recorded --history baseline")
        sp.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative change before --check fails")

    def common(sp, dataset=True, workload=False):
        sp.add_argument("--n", type=int, default=8000, help="keys to generate")
        sp.add_argument("--ops", type=int, default=6000, help="operations to run")
        sp.add_argument("--seed", type=int, default=0)
        if dataset:
            sp.add_argument("--dataset", default="covid",
                            help=f"one of {registry.names()}")
        if workload:
            sp.add_argument("--workload", default="balanced",
                            help=f"{MIX_NAMES} | ycsb-a/b/c | delete | scan[:SIZE]")

    sub.add_parser("datasets", help="list the dataset registry")

    sub.add_parser("list", help="index capability catalog")

    sp = sub.add_parser(
        "bench",
        help="scalar vs batched lookup microbenchmark (wall clock)")
    sp.add_argument("--indexes", default="",
                    help="comma-separated names (default: every "
                         "batch-capable index)")
    sp.add_argument("--n", type=int, default=100000, help="keys to load")
    sp.add_argument("--lookups", type=int, default=20000,
                    help="lookups per side")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dataset", default="covid",
                    help=f"one of {registry.names()}")
    sp.add_argument("--out", default="BENCH_batch.json",
                    help="write the JSON report here ('' to skip)")
    sp.add_argument("--min-speedup", type=float, default=0.0,
                    dest="min_speedup",
                    help="fail if any vectorized index speeds up less "
                         "than this")
    _history_flags(sp)

    sp = sub.add_parser("hardness", help="PLA hardness of a dataset")
    sp.add_argument("dataset")
    common(sp, dataset=False)

    sp = sub.add_parser("run", help="run one index on one workload")
    sp.add_argument("--index", default="ALEX",
                    help=f"one of {sorted(_ALL_INDEXES)}")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sp.add_argument("--out", default="",
                    help="append the versioned result record to this "
                         "JSON-lines file (compare-runs input)")
    sp.add_argument("--trace", default="",
                    help="write a Chrome trace-event JSON of the run "
                         "(virtual-clock op spans + SMO instants; open "
                         "in Perfetto)")
    sp.add_argument("--trace-log", default="", dest="trace_log",
                    help="write the raw telemetry event log as "
                         "versioned JSON-lines")
    sp.add_argument("--metrics", default="",
                    help="write windowed throughput/SMO-rate/memory "
                         "time-series as versioned JSON-lines")
    sp.add_argument("--window", type=int, default=256,
                    help="ops per metrics window")
    sp.add_argument("--events", default="",
                    help="attach an event bus + SLO tracker and write "
                         "the operational event log (state changes, op "
                         "windows, SMOs, SLO windows, alerts) as "
                         "versioned JSON-lines")
    common(sp, workload=True)

    sp = sub.add_parser(
        "top",
        help="control-tower status table over the operational event "
             "stream: state, throughput, p99, backfill, alerts")
    sp.add_argument("--events", default="",
                    help="fold a saved event log (from run/migrate "
                         "--events) instead of running live")
    sp.add_argument("--index", default="ALEX",
                    help=f"live mode: run one of {sorted(_ALL_INDEXES)}")
    sp.add_argument("--migrate", nargs=2, metavar=("SRC", "DST"),
                    help="live mode: watch a live migration instead of "
                         "a single-index run")
    sp.add_argument("--shards", type=int, default=0,
                    help="live mode: run --index sharded N ways under a "
                         "rebalancing router and aggregate the per-shard "
                         "SLO trackers into a cluster view")
    sp.add_argument("--server", action="store_true",
                    help="live mode: run an index-server session (client "
                         "threads + background rebuild) and watch its "
                         "job/backfill progress")
    sp.add_argument("--once", action="store_true",
                    help="print the final table once (no live refresh)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable status (implies --once)")
    sp.add_argument("--window", type=int, default=256,
                    help="ops per bus/SLO window")
    common(sp, workload=True)

    sp = sub.add_parser("compare", help="all indexes on one workload")
    sp.add_argument("--out", default="",
                    help="append every index's result record to this "
                         "JSON-lines file (compare-runs input)")
    common(sp, workload=True)

    sp = sub.add_parser("heatmap", help="data x workload winner heatmap")
    sp.add_argument("--datasets", default="",
                    help="comma-separated (default: the paper's ten)")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or 1; "
                         "0 = one per CPU)")
    sp.add_argument("--cache-dir", default="", dest="cache_dir",
                    help="content-addressed result cache directory "
                         "(default: no caching for heatmap)")
    common(sp, dataset=False)

    sp = sub.add_parser(
        "sweep",
        help="run a dataset x workload x index grid, in parallel with "
             "content-addressed caching")
    sp.add_argument("--datasets", default="covid,stack,genome",
                    help="comma-separated dataset names")
    sp.add_argument("--workloads", default=",".join(MIX_NAMES),
                    help="comma-separated workload names "
                         f"({MIX_NAMES} | ycsb-a..f | delete | scan[:SIZE])")
    sp.add_argument("--indexes", default="",
                    help="comma-separated index names (default: the "
                         "heatmap contenders; concurrent names like "
                         "ALEX+ with --mode multicore)")
    sp.add_argument("--mode", choices=["single", "multicore"], default="single",
                    help="execute cells single-threaded or on the "
                         "simulated multicore")
    sp.add_argument("--threads", type=int, default=24,
                    help="simulated threads per cell (multicore mode)")
    sp.add_argument("--sockets", type=int, default=1,
                    help="simulated sockets (multicore mode)")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or 1; "
                         "0 = one per CPU)")
    sp.add_argument("--cache-dir", default="", dest="cache_dir",
                    help="cache directory (default: REPRO_CACHE_DIR or "
                         ".repro-cache/sweep)")
    sp.add_argument("--no-cache", action="store_true",
                    help="disable the result cache entirely")
    sp.add_argument("--out", default="",
                    help="append every cell's versioned result record "
                         "to this JSON-lines file")
    sp.add_argument("--bench", default="",
                    help="write sweep performance stats (cells/sec, "
                         "cache hit rate, wall seconds) to this JSON file")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report (includes per-cell "
                         "determinism fingerprints)")
    _history_flags(sp)
    common(sp, dataset=False)

    sp = sub.add_parser("scalability", help="simulated multicore curves")
    sp.add_argument("--threads", default="2,4,8,16,24,36,48")
    sp.add_argument("--sockets", type=int, default=1)
    common(sp, workload=True)

    sp = sub.add_parser("memory", help="end-to-end memory comparison")
    common(sp)

    sp = sub.add_parser("diagnose", help="index health after a workload")
    sp.add_argument("--index", default="ALEX",
                    help=f"one of {sorted(_ALL_INDEXES)}")
    common(sp, workload=True)

    sp = sub.add_parser("profile",
                        help="cost-attribution flame-table for one run")
    sp.add_argument("--index", default="ALEX",
                    help=f"one of {sorted(_ALL_INDEXES)}")
    sp.add_argument("--top", type=int, default=20,
                    help="hottest (op, phase, cost-kind) cells to show")
    common(sp, workload=True)

    sp = sub.add_parser(
        "fuzz",
        help="randomized differential + invariant testing of the "
             "registry indexes; failures shrink to minimal replayable "
             "streams")
    sp.add_argument("--index", action="append", default=[],
                    help="fuzz only this index (repeatable; default: "
                         "every fuzzable registry index)")
    sp.add_argument("--all", action="store_true",
                    help="fuzz every fuzzable index (the default; kept "
                         "for explicit invocations)")
    sp.add_argument("--budget", type=int, default=2000,
                    help="operations per index")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="fuzz-failures",
                    help="directory for shrunk failing streams "
                         "('' disables saving)")
    sp.add_argument("--replay", action="append", default=[],
                    help="replay saved stream file(s)/director(ies) "
                         "instead of fuzzing (repeatable)")

    sp = sub.add_parser(
        "migrate",
        help="zero-downtime live migration between two indexes under a "
             "live workload, with oracle-verified cutover")
    sp.add_argument("src", help="index to migrate from (e.g. btree)")
    sp.add_argument("dst", help="index to migrate to (e.g. alex)")
    sp.add_argument("--chunk", type=int, default=128,
                    help="keys per interleaved backfill/verify chunk")
    sp.add_argument("--pump", type=int, default=1,
                    help="background chunks pumped per client op")
    sp.add_argument("--min-verified", type=float, default=1.0,
                    dest="min_verified",
                    help="fail unless at least this fraction of keys "
                         "was value-verified before cutover")
    sp.add_argument("--bench", default="",
                    help="write the migration report JSON here")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    sp.add_argument("--repro-dir", default="", dest="repro_dir",
                    help="directory for the shrunk divergence repro "
                         "stream, if the migration aborts")
    sp.add_argument("--events", default="",
                    help="write the migration's operational event log "
                         "(state changes, backfill chunks, cutover) as "
                         "versioned JSON-lines")
    _history_flags(sp)
    common(sp, workload=True)

    sp = sub.add_parser(
        "shard",
        help="sharded serving tier: range-partitioned scaling curve + "
             "hotspot rebalance under a moving-hotspot replay")
    sp.add_argument("--index", default="ALEX",
                    help=f"shard engine, one of {sorted(_ALL_INDEXES)}")
    sp.add_argument("--shard-counts", default="1,2,4,8", dest="shard_counts",
                    help="comma-separated shard counts for the scaling "
                         "curve")
    sp.add_argument("--lookups", type=int, default=8000,
                    help="zipfian lookups per scaling level")
    sp.add_argument("--batch", type=int, default=512,
                    help="keys per lookup_many batch")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes for the parallel wall-clock "
                         "measurement (default: one per CPU)")
    sp.add_argument("--shards", type=int, default=4,
                    help="initial shard count for the rebalance replay")
    sp.add_argument("--window", type=int, default=512,
                    help="router census window (ops)")
    sp.add_argument("--min-scaling", type=float, default=0.0,
                    dest="min_scaling",
                    help="fail if the 1 -> max-shard virtual lookup "
                         "scaling factor is below this")
    sp.add_argument("--out", default="BENCH_shard.json",
                    help="write the JSON report here ('' to skip)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    _history_flags(sp)
    common(sp)

    sp = sub.add_parser(
        "serve",
        help="async index server session: N concurrent clients + a "
             "background rebuild, journal-replayed through the "
             "differential oracle (zero dropped/stalled lookups)")
    sp.add_argument("--index", default="ALEX",
                    help=f"served index, one of {sorted(_ALL_INDEXES)}")
    sp.add_argument("--clients", type=int, default=4,
                    help="concurrent client streams")
    sp.add_argument("--profile", default="churn",
                    choices=["churn", "burst"],
                    help="per-client stream shape")
    sp.add_argument("--rebuild", default="",
                    help="background-job destination index (default: "
                         "rebuild into the same type)")
    sp.add_argument("--rebuild-after", type=float, default=0.25,
                    dest="rebuild_after",
                    help="submit the job after this fraction of ops")
    sp.add_argument("--chunk", type=int, default=256,
                    help="keys per background pump chunk")
    sp.add_argument("--queue-depth", type=int, default=8,
                    dest="queue_depth", help="bounded job-queue depth")
    sp.add_argument("--admission", default="block",
                    choices=["block", "reject"],
                    help="job-queue behavior when full")
    sp.add_argument("--threads", action="store_true",
                    help="also run the real-thread session (client "
                         "threads + worker thread) after the "
                         "deterministic one")
    sp.add_argument("--out", default="BENCH_serve.json",
                    help="write the JSON report here ('' to skip)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    _history_flags(sp)
    common(sp)

    sp = sub.add_parser("compare-runs",
                        help="regressions between two result files")
    sp.add_argument("baseline")
    sp.add_argument("current")
    sp.add_argument("--threshold", type=float, default=0.10)
    return p


_COMMANDS = {
    "list": cmd_list,
    "bench": cmd_bench,
    "datasets": cmd_datasets,
    "hardness": cmd_hardness,
    "run": cmd_run,
    "top": cmd_top,
    "compare": cmd_compare,
    "heatmap": cmd_heatmap,
    "sweep": cmd_sweep,
    "scalability": cmd_scalability,
    "memory": cmd_memory,
    "diagnose": cmd_diagnose,
    "profile": cmd_profile,
    "fuzz": cmd_fuzz,
    "migrate": cmd_migrate,
    "shard": cmd_shard,
    "serve": cmd_serve,
    "compare-runs": cmd_compare_runs,
}


def main(argv: Sequence[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
