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
import os
import sys
from typing import Dict, List, Sequence

from repro import execute
from repro.bench import lookup, migration, serve, shard, sweep
from repro.core.bench_history import append_history, check_history, provenance
from repro.core.diagnostics import diagnose
from repro.core.events import KIND_JOB, KIND_OP_WINDOW, EventBus, validate_bus_events
from repro.core.hardness import mse_hardness, pla_hardness
from repro.core.heatmap import sweep_heatmap
from repro.core.instance import IndexInstance
from repro.core.memory import measure_after_write_only
from repro.core.migrate import resolve_index_name, run_migration
from repro.core.opstream import fuzz_index, fuzzable_specs, replay_file
from repro.core.registry import REGISTRY
from repro.core.report import ascii_chart, format_bytes, table
from repro.core.results import compare, load_jsonl, result_record, save_jsonl
from repro.core.shard import ShardedIndex, ShardRouter
from repro.core.slo import ControlTower, SLOTracker, cluster_view, render_cluster_view
from repro.core.sweep import DatasetSpec, SweepCache, WorkloadSpec, default_cache_dir
from repro.core.telemetry import CostProfiler, MetricsCollector, Telemetry, TraceRecorder
from repro.core.workloads import MIX_NAMES, churn_workload, moving_hotspot_workload
from repro.datasets import registry
from repro.datasets.registry import scaled_epsilons

#: Every index the CLI exposes — a derived view over the registry.
_ALL_INDEXES = REGISTRY.factories(tag="cli")


def _workload(args, keys):
    """The workload ``--workload`` names: the sweep vocabulary
    (``WorkloadSpec.from_name``) plus the two replay shapes."""
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


def _resolve(get, name: str):
    """``get(name)``; an unknown name exits cleanly with the
    registry's own message (it lists what is registered)."""
    try:
        return get(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def _resolve_index(name: str) -> str:
    """Registry name for ``name`` (loose spellings accepted), or exit."""
    return _resolve(resolve_index_name, name)


def _shardable(name: str) -> str:
    """Registry name of a shard-capable index, or exit."""
    name = _resolve_index(name)
    if not REGISTRY.get(name).supports_migration:
        raise SystemExit(f"{name!r} does not support sharding "
                         "(see `repro list`)")
    return name


def _gate_history(args, outcome) -> int:
    """``--history`` / ``--check`` for every benchmark command.

    With ``--check`` the gated (virtual-clock) ``metrics`` are judged
    against the file's baseline for this ``suite`` and ``context``
    first; a regression returns 1 and records nothing.  Otherwise the
    run is appended (``info`` rides along ungated) and 0 returned.
    """
    if not args.history:
        return 0
    if args.check:
        regressions = check_history(args.history, outcome.suite,
                                    outcome.metrics, context=outcome.context,
                                    tolerance=args.tolerance)
        if regressions:
            for reg in regressions:
                print(f"FAIL {reg}", file=sys.stderr)
            print(f"{args.command} --check: {len(regressions)} "
                  f"regression(s) vs {args.history}", file=sys.stderr)
            return 1
        print(f"{args.command} --check: no regressions vs {args.history} "
              f"(tolerance {args.tolerance:.0%})")
    append_history(args.history, outcome.suite, outcome.metrics,
                   info=outcome.info, context=outcome.context)
    if not getattr(args, "json", False):
        print(f"history: appended to {args.history}")
    return 0


def _run_benchmark(args, outcome) -> int:
    """The tail of every benchmark command: the one place a
    :class:`repro.bench.Outcome` is stamped with provenance, shown,
    written, recorded in the bench history and turned into an exit code.

    A document that *is* the report (``bench``, ``shard``, ``serve``:
    ``--out``) is shown, written, then gated.  One that is a by-product
    (``sweep``, ``migrate``: ``--bench``) is written and gated first,
    the report shown only if the gate passed.  Failures come last.
    """
    doc = {**outcome.doc, **provenance()}
    by_product = outcome.report is not None

    def show() -> None:
        if getattr(args, "json", False):
            print(json.dumps(outcome.report if by_product else doc, indent=2))
        else:
            print(outcome.render())

    if not by_product:
        show()
    path = args.bench if by_product else args.out
    if path:
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
        # To stderr: ``--json`` consumers own stdout.
        print(f"wrote {path}", file=sys.stderr)
    if outcome.metrics is not None and _gate_history(args, outcome):
        return 1
    if by_product:
        show()
    for line in outcome.failures:
        print(line, file=sys.stderr)
    return 1 if outcome.failures else 0


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
            concurrent.get(spec.name, "") or "",
            ",".join(sorted(spec.tags)),
        ])
    print(table(
        ["Index", "Family", "insert", "delete", "range", "batch",
         "migrate/shard", "concurrent", "tags"],
        rows, title=f"Index registry ({len(REGISTRY)} entries)"))
    print("\nbatch = exact-meter lookup_many fast path: numpy kernels on "
          "the model-based indexes, C bisect + numpy probe replay on "
          "B+tree (see `repro bench`); every index accepts the *_many "
          "APIs.\n"
          "migrate/shard = eligible for zero-downtime live migration "
          "(see `repro migrate`), and so usable as the per-shard engine "
          "of the sharded serving tier (see `repro shard`).")
    return 0


def cmd_bench(args) -> int:
    """Scalar vs batched lookup microbenchmark (wall clock)."""
    try:
        outcome = lookup.run(
            dataset=args.dataset, n=args.n, lookups=args.lookups,
            seed=args.seed,
            indexes=[n for n in args.indexes.split(",") if n],
            min_speedup=args.min_speedup)
    except AssertionError as exc:  # batch/scalar divergence — a real bug
        raise SystemExit(str(exc)) from None
    return _run_benchmark(args, outcome)


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
    """A Telemetry bundle for ``repro run``'s artifact flags, or None."""
    if not (args.trace or args.trace_log or args.metrics):
        return None
    return Telemetry(
        trace=TraceRecorder() if args.trace or args.trace_log else None,
        metrics=MetricsCollector() if args.metrics else None)


def _save_telemetry(args, telemetry) -> None:
    """Persist telemetry artifacts through the versioned-results layer."""
    if telemetry is None:
        return
    if args.trace:
        telemetry.trace.save_chrome(args.trace)
        print(f"trace: {args.trace} ({len(telemetry.trace.spans())} op spans; "
              "open in Perfetto / chrome://tracing)")
    if args.trace_log:
        n = save_jsonl(telemetry.trace.events, args.trace_log,
                       tags={"artifact": "trace"})
        print(f"trace log: {args.trace_log} ({n} events)")
    if args.metrics:
        n = save_jsonl(telemetry.metrics.series, args.metrics,
                       tags={"artifact": "metrics"})
        storms = telemetry.metrics.smo_storms()
        print(f"metrics: {args.metrics} ({n} samples, "
              f"{len(storms)} SMO storm(s) detected)")


def _execute_on_bus(factory, wl, bus, window: int, telemetry=None):
    """``execute`` on a bus-attached instance, with an SLO tracker and
    the bus emitter, in windows of ``window`` ops; returns ``(result,
    tracker)``.  Observer order: the tracker, the telemetry stack, the
    bus emitter."""
    slo = SLOTracker(bus=bus)
    target = IndexInstance.wrap(factory()).attach_bus(bus)
    stack = telemetry.observers() if telemetry is not None else []
    observers = [slo, *stack, bus.engine_observer()]
    return execute(target, wl, observers=observers, window_ops=window), slo


def cmd_run(args) -> int:
    factory = _index_factory(args.index)
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    telemetry = _telemetry_from_args(args)
    if args.events:
        bus = EventBus()
        r, slo = _execute_on_bus(factory, wl, bus, args.window,
                                 telemetry=telemetry)
    else:
        bus = None
        r = execute(factory(), wl, telemetry=telemetry,
                    window_ops=args.window)
    _save_telemetry(args, telemetry)
    if bus is not None:
        n = bus.save(args.events)
        print(f"events: {args.events} ({n} events, "
              f"{len(slo.alerts)} SLO alert(s))")
    if args.out:
        save_jsonl([r], args.out, append=True)
    if args.json:
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


def _top_live(args, tower):
    """Run what ``repro top`` watches, its bus folded into ``tower``
    (and redrawn per window on a terminal); returns the cluster view of
    a ``--shards`` run, else None."""
    bus = EventBus()
    bus.subscribe(tower.consume)

    def refresh(event: dict) -> None:
        # ANSI home+clear keeps the table in place between windows.
        sys.stdout.write("\x1b[H\x1b[2J" + tower.render() + "\n")
        sys.stdout.flush()

    live = sys.stdout.isatty() and not args.once and not args.json
    if live:
        bus.subscribe(refresh, kinds=[KIND_OP_WINDOW])
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    if args.shards:
        sharded = ShardedIndex(_shardable(args.index), n_shards=args.shards)
        sharded.attach_bus(bus)
        router = ShardRouter(sharded, window_ops=max(args.window, 64),
                             slo_window=args.window, bus=bus)
        router.run(wl)
        return cluster_view(router.all_trackers)
    if args.server:
        index = _resolve_index(args.index)
        if live:
            bus.subscribe(refresh, kinds=[KIND_JOB])
        n_clients = 4
        bulk, streams = serve.session_streams(
            index, n_clients=n_clients,
            ops_per_client=max(1, args.ops // n_clients),
            seed=args.seed, bulk_keys=keys)
        report = serve.run_serve_session(index, bulk, streams, threaded=True,
                                         seed=args.seed, bus=bus)
        if not report.ok:
            print(f"serve session NOT ok: {report.to_dict()}",
                  file=sys.stderr)
    elif args.migrate:
        run_migration(_resolve_index(args.migrate[0]),
                      _resolve_index(args.migrate[1]), wl, bus=bus,
                      bus_window=args.window)
    else:
        _execute_on_bus(_index_factory(args.index), wl, bus, args.window)
    return None


def cmd_top(args) -> int:
    """Live control-tower view over the operational event stream."""
    view = None
    if args.events:
        records = load_jsonl(args.events)
        validate_bus_events(records)
        tower = ControlTower.from_records(records)
    else:
        tower = ControlTower()
        view = _top_live(args, tower)
    if args.json:
        doc = tower.to_json()
        if view is not None:
            doc = {"tower": doc, "cluster": view}
        print(json.dumps(doc, indent=2))
        return 0
    print(tower.render())
    if view is not None:
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
    if args.out:
        save_jsonl(results, args.out, append=True)
    rows.sort(key=lambda row: -float(row[1]))
    print(table(["Index", "Mops", "lookup p99.9 ns", "memory"], rows,
                title=f"All indexes on {args.dataset} / {wl.name}"))
    return 0


def cmd_heatmap(args) -> int:
    names = args.datasets.split(",") if args.datasets else registry.heatmap_names()
    datasets = [DatasetSpec(n, args.n, args.seed) for n in names]
    workloads = [WorkloadSpec.from_name(m, n_ops=args.ops, seed=args.seed)
                 for m in MIX_NAMES]
    cache = SweepCache(args.cache_dir) if args.cache_dir else None
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


def cmd_sweep(args) -> int:
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
    cache = None
    if not args.no_cache:
        cache = SweepCache(args.cache_dir or default_cache_dir())
    try:
        outcome = sweep.run(
            datasets=ds_names,
            workloads=[w for w in args.workloads.split(",") if w],
            indexes=index_names, n=args.n, ops=args.ops, seed=args.seed,
            mode=args.mode, threads=args.threads, sockets=args.sockets,
            jobs=args.jobs, cache=cache, out=args.out)
    except ValueError as exc:  # unknown workload name
        raise SystemExit(str(exc)) from None
    return _run_benchmark(args, outcome)


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
    src, dst = _resolve_index(args.src), _resolve_index(args.dst)
    if src == dst:
        raise SystemExit(f"source and destination are both {src}")
    keys = registry.get(args.dataset).generate(args.n, seed=args.seed)
    wl = _workload(args, keys)
    bus = EventBus() if args.events else None
    try:
        outcome = migration.run(
            src, dst, wl,
            stream={"dataset": args.dataset, "workload": args.workload,
                    "n": args.n, "ops": args.ops},
            chunk=args.chunk, pump=args.pump, seed=args.seed,
            min_verified=args.min_verified, bus=bus,
            repro_dir=args.repro_dir)
    except ValueError as exc:  # capability refusal, not a crash
        raise SystemExit(str(exc)) from None
    if bus is not None:
        n = bus.save(args.events)
        print(f"events: {args.events} ({n} events)")
    return _run_benchmark(args, outcome)


def cmd_shard(args) -> int:
    """Sharded serving tier: scaling curve + hotspot-rebalance replay."""
    try:
        outcome = shard.run(
            index=_shardable(args.index), dataset=args.dataset, n=args.n,
            lookups=args.lookups, ops=args.ops,
            shard_counts=tuple(int(c) for c in args.shard_counts.split(",")
                               if c),
            shards=args.shards, batch=args.batch, window=args.window,
            seed=args.seed, jobs=args.jobs if args.jobs is not None else 0,
            min_scaling=args.min_scaling)
    except AssertionError as exc:  # fingerprint divergence — a real bug
        raise SystemExit(f"FAIL: {exc}") from None
    return _run_benchmark(args, outcome)


def cmd_serve(args) -> int:
    """Async index server session: N clients + a background rebuild,
    journal-replayed through the differential oracle."""
    return _run_benchmark(args, serve.run(
        index=_resolve_index(args.index), dataset=args.dataset, n=args.n,
        clients=args.clients, ops=args.ops, profile=args.profile,
        rebuild=args.rebuild, rebuild_after=args.rebuild_after,
        chunk=args.chunk, seed=args.seed, threads=args.threads))


def cmd_compare_runs(args) -> int:
    regressions = compare(load_jsonl(args.baseline), load_jsonl(args.current),
                          threshold=args.threshold)
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

    def command(name, handler, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        return sp

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

    command("datasets", cmd_datasets, help="list the dataset registry")

    command("list", cmd_list, help="index capability catalog")

    sp = command(
        "bench", cmd_bench,
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

    sp = command("hardness", cmd_hardness, help="PLA hardness of a dataset")
    sp.add_argument("dataset")
    common(sp, dataset=False)

    sp = command("run", cmd_run, help="run one index on one workload")
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
                    help="ops per metrics/bus/SLO window")
    sp.add_argument("--events", default="",
                    help="attach an event bus + SLO tracker and write "
                         "the operational event log (state changes, op "
                         "windows, SMOs, SLO windows, alerts) as "
                         "versioned JSON-lines")
    common(sp, workload=True)

    sp = command(
        "top", cmd_top,
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

    sp = command("compare", cmd_compare, help="all indexes on one workload")
    sp.add_argument("--out", default="",
                    help="append every index's result record to this "
                         "JSON-lines file (compare-runs input)")
    common(sp, workload=True)

    sp = command("heatmap", cmd_heatmap, help="data x workload winner heatmap")
    sp.add_argument("--datasets", default="",
                    help="comma-separated (default: the paper's ten)")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or 1; "
                         "0 = one per CPU)")
    sp.add_argument("--cache-dir", default="", dest="cache_dir",
                    help="content-addressed result cache directory "
                         "(default: no caching for heatmap)")
    common(sp, dataset=False)

    sp = command(
        "sweep", cmd_sweep,
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

    sp = command("scalability", cmd_scalability, help="simulated multicore curves")
    sp.add_argument("--threads", default="2,4,8,16,24,36,48")
    sp.add_argument("--sockets", type=int, default=1)
    common(sp, workload=True)

    sp = command("memory", cmd_memory, help="end-to-end memory comparison")
    common(sp)

    sp = command("diagnose", cmd_diagnose, help="index health after a workload")
    sp.add_argument("--index", default="ALEX",
                    help=f"one of {sorted(_ALL_INDEXES)}")
    common(sp, workload=True)

    sp = command("profile", cmd_profile,
                 help="cost-attribution flame-table for one run")
    sp.add_argument("--index", default="ALEX",
                    help=f"one of {sorted(_ALL_INDEXES)}")
    sp.add_argument("--top", type=int, default=20,
                    help="hottest (op, phase, cost-kind) cells to show")
    common(sp, workload=True)

    sp = command(
        "fuzz", cmd_fuzz,
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

    sp = command(
        "migrate", cmd_migrate,
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

    sp = command(
        "shard", cmd_shard,
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

    sp = command(
        "serve", cmd_serve,
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

    sp = command("compare-runs", cmd_compare_runs,
                 help="regressions between two result files")
    sp.add_argument("baseline")
    sp.add_argument("current")
    sp.add_argument("--threshold", type=float, default=0.10)
    return p


def main(argv: Sequence[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
