"""What ``IndexServer.apply`` costs beside the op it serves, gated in-run.

``bench/``'s ``serve_mixed`` is scalar ``apply`` traffic; everything
``apply`` does besides ``apply_op`` — the instance's lock, the
admission check, the journal section — is the server's tax on every
op.  (Its instances charge the same plain ``CostMeter`` the bare
indexes do, under that lock.)  Two gates, neither depending
on the machine:

* **Apply over the bare op.**  A ``serve_mixed``-shaped stream per
  tenant (ALEX and B+tree on the same covid keys, half of them loaded:
  55% zipfian lookups, 20% inserts of the other half, 10% updates, 5%
  deletes of keys the stream inserted, 10% scans of 1-64 rows) through
  ``workloads.apply_op`` on bare indexes, through an unobserved
  ``ExecutionEngine``, and through ``IndexServer(workers=0).apply``:
  fresh state per side, sides interleaved, best of ``_REPS``.  The gate
  is on server ÷ bare.  The engine side prices ROADMAP item 13's
  single-thread target, "the server's self time per op at most twice
  the engine's", and is printed, not gated: on this stream the
  engine's self time read -0.24 to +0.42 us/op on the reference box
  (its per-op loop costs what a bare loop does), the server's median
  2.33 (1.75-2.88) with one plain lock per tenant against 3.69 with
  the reader/writer lock and per-op mutex (six interleaved runs each
  on a shared 2-core box), so the target is not met.  The stream never
  has 32 lookups in a row, so the engine runs its per-op loop
  throughout.
* **The lock pair.**  ``acquire(False)`` + ``release()`` on an
  uncontended tenant lock — what ``apply`` takes per op when nobody
  else holds it — against an empty method call, interleaved.
"""

import gc
import random
import time
import timeit

from common import Empty, dataset_keys, print_header, run_once
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.runner import ExecutionEngine
from repro.core.server import IndexServer
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    Workload,
    apply_op,
    payload,
)
from repro.datasets.zipfian import ScrambledZipfian

TENANTS = ("ALEX", "B+tree")
#: ``serve_mixed``'s sizes: 20,000 keys, 10,000 ops per tenant.
_KEYS = 20_000
_OPS = 10_000
_REPS = 5
#: Server ÷ bare on this stream, each gate its reading on the reference
#: box plus 25%.  Read 1.22-1.38 with one plain lock per tenant
#: (1.29-1.87 with the reader/writer lock and per-op mutex it replaced,
#: 1.85-1.98 before that lock pair lost its ``Condition`` round trips
#: and the journal row its dataclass).
_MAX_APPLY_OVER_BARE = 1.72
#: Tenant lock pair ÷ empty method call.  Read 3.29-4.07 (the
#: reader/writer lock's read pair read 6.8-8.0, 21.6-23.4 before that).
_MAX_LOCK_PAIR_OVER_EMPTY = 5.1
_LOCK_REPEATS = 25
_LOCK_LOOPS = 50_000


def _stream(tenant, loaded, pending):
    """One tenant's ops in ``serve_mixed``'s shape."""
    rng = random.Random(f"server-overhead-{tenant}")
    hot = ScrambledZipfian(loaded, theta=0.99, seed=len(tenant))
    mine, fresh, ops = [], iter(pending), []
    for _ in range(_OPS):
        r = rng.random()
        if r < 0.20:
            k = next(fresh)
            mine.append(k)
            ops.append(Operation(INSERT, k, payload(k)))
        elif r < 0.30:
            k = hot.next_key()
            ops.append(Operation(UPDATE, k, payload(k) ^ 0x5A5A))
        elif r < 0.35 and mine:
            ops.append(Operation(DELETE, mine.pop(rng.randrange(len(mine)))))
        elif r < 0.45:
            ops.append(Operation(SCAN, hot.next_key(), count=rng.randint(1, 64)))
        else:
            ops.append(Operation(LOOKUP, hot.next_key()))
    return ops


def _loaded(items):
    indexes = {}
    for name in TENANTS:
        indexes[name] = REGISTRY.create(name)
        indexes[name].bulk_load(items)
        indexes[name].meter.reset()
    return indexes


def _bare(items, streams):
    indexes = _loaded(items)
    t0 = time.perf_counter()
    outs = [[apply_op(indexes[name], op) for op in streams[name]]
            for name in TENANTS]
    return time.perf_counter() - t0, outs, indexes


def _engine(items, streams):
    # The engine bulk loads what it is handed, then resets the meter.
    indexes = {name: REGISTRY.create(name) for name in TENANTS}
    wall = sum(ExecutionEngine().run(indexes[name],
                                     Workload("serve", items, streams[name]))
               .wall_seconds for name in TENANTS)
    return wall, None, indexes


def _server(items, streams):
    server = IndexServer(workers=0)
    for name in TENANTS:
        server.create_instance(name, name, items=items).index.meter.reset()
    apply = server.apply
    t0 = time.perf_counter()
    outs = [[apply(name, op) for op in streams[name]] for name in TENANTS]
    wall = time.perf_counter() - t0
    server.close()
    return wall, outs, {name: server.instance(name).index for name in TENANTS}


def _apply_ratios():
    keys = list(dataset_keys("covid", _KEYS))
    items = [(k, payload(k)) for k in keys[::2]]
    pending = keys[1::2]
    random.Random("server-overhead").shuffle(pending)
    streams = {name: _stream(name, keys[::2], pending) for name in TENANTS}
    sides = {"bare": _bare, "engine": _engine, "server": _server}
    best = {}
    for rep in range(_REPS):
        order = list(sides) if rep % 2 else list(sides)[::-1]
        for side in order:
            gc.collect()
            wall, outs, indexes = sides[side](items, streams)
            best[side] = min(wall, best.get(side, wall))
            if rep == 0:  # same answers, same virtual clock on every side
                clocks = [indexes[n].meter.total_time() for n in TENANTS]
                first = best.setdefault("clocks", clocks)
                assert clocks == first, (side, clocks, first)
                if outs is not None:
                    rows = [[(ok, result) for ok, _, result in run]
                            if side == "bare" else run for run in outs]
                    assert best.setdefault("outs", rows) == rows, side
    n = len(TENANTS) * _OPS
    bare, server = best["bare"], best["server"]
    ratios = {"server / bare": server / bare}
    print_header(f"Serving tax on a serve_mixed-shaped stream ({_KEYS} covid "
                 f"keys, {_OPS} ops x {len(TENANTS)} tenants, best of {_REPS})")
    print(table(["Side", "us/op", "self us/op"],
                [[side, f"{best[side] / n * 1e6:.2f}",
                  f"{(best[side] - bare) / n * 1e6:.2f}"]
                 for side in sides]))
    print(table(["Ratio", "x"], [[k, f"{v:.2f}"] for k, v in ratios.items()]))
    return ratios


def test_apply_costs_little_beside_the_bare_op(benchmark):
    ratios = run_once(benchmark, _apply_ratios)
    assert ratios["server / bare"] <= _MAX_APPLY_OVER_BARE, ratios


def _lock_ratio():
    with IndexServer(workers=0) as server:
        server.create_instance("t", "B+tree")
        lock = server._served["t"].lock
    acquire, release, empty = lock.acquire, lock.release, Empty()

    def pair():
        acquire(False)
        release()

    calls = {"empty method call": lambda: empty.call(), "tenant lock pair": pair}
    ns = dict.fromkeys(calls, float("inf"))
    for _ in range(_LOCK_REPEATS):
        for name, fn in calls.items():
            ns[name] = min(ns[name], timeit.timeit(fn, number=_LOCK_LOOPS)
                           / _LOCK_LOOPS * 1e9)
    ratio = ns["tenant lock pair"] / ns["empty method call"]
    print_header(f"Tenant lock microbenchmark (best of {_LOCK_REPEATS} x "
                 f"{_LOCK_LOOPS} calls)")
    print(table(["Call", "ns"], [[k, f"{v:.0f}"] for k, v in ns.items()]))
    print(f"lock pair / empty call: {ratio:.2f}x")
    return ratio


def test_an_uncontended_lock_pair_is_one_plain_lock_hold(benchmark):
    assert run_once(benchmark, _lock_ratio) <= _MAX_LOCK_PAIR_OVER_EMPTY
