"""Index server — rebuild-under-churn cost and the zero-stall gate.

Not a paper figure: the paper benchmarks indexes offline, and ROADMAP
item 1 asks what serving them costs.  Four gates:

* **Zero-downtime churn.**  Four real client threads hammer one
  instance while a background rebuild pumps underneath.  The gates are
  operational: zero dropped lookups, zero stalled lookups, the journal
  replays clean through the differential oracle, and the job finishes
  with the full keyspace verified.

* **Overhead accounting.**  In the deterministic session the rebuild's
  virtual cost (`overhead_ns`, charged to the secondary's meter) must
  stay below the foreground cost — a rebuild scans, bulk-loads and
  re-verifies every key, so ~O(n) against a few thousand client ops
  (0.6x here).  Growing the secondary by per-key inserts instead of
  one bulk load cost 1.2x and would trip the gate.

* **Reproducibility.**  The deterministic session is the gated one
  (`repro serve --history`), so the same arguments must produce the
  same virtual-clock numbers bit-for-bit, run to run.

* **Four client threads do not convoy.**  ROADMAP item 13's probe: one
  ALEX tenant of 50k keys from `[1, 2^40)`, 80k `apply` ops split
  over T client threads that start together at a barrier, read-only and
  with 10% inserts, fresh server per run, T = 1 and T = 4 alternated,
  median of `_THREAD_RUNS` each, every journal replayed clean.  The
  gate is on the in-run wall ratio 4 threads ÷ 1 thread, per mix.  With
  a reader/writer lock and a per-op journal mutex it read 0.29-0.89
  read-only, bimodal: in half the runs four runnable readers queued on
  two plain locks per op.  One plain lock per tenant read 0.64-0.95
  read-only and 0.70-0.81 with inserts (four runs each, shared 2-core
  box).
"""

import random
import statistics
import threading
import time

from common import print_header
from repro.bench.serve import run_serve_session, session_streams
from repro.core.report import table
from repro.core.server import IndexServer
from repro.core.workloads import INSERT, LOOKUP, Operation, payload

OVERHEAD_RATIO_GATE = 1.0
#: 4-thread ÷ 1-thread ops/s, per mix.
THREADED_RATIO_GATE = 0.5
_THREAD_KEYS = 50_000
_THREAD_OPS = 80_000
_THREAD_RUNS = 5


def _session(threaded, seed=0):
    bulk, streams = session_streams("ALEX", n_clients=4, ops_per_client=400,
                                    n_bulk=1200, seed=seed)
    return run_serve_session("ALEX", bulk, streams, rebuild_after=0.25,
                             threaded=threaded, seed=seed, chunk=128)


def _assert_clean(report):
    """What CI's serve-smoke asserts of both sessions: nothing refused
    or stalled (any op kind), oracle clean, the job done and verified."""
    assert report.ok
    assert report.dropped == {}, "ops were refused during rebuild"
    assert report.stalled == {}, "ops stalled behind the pump"
    assert not report.mismatches, str(report.mismatches[0])
    assert report.job["state"] == "done"
    assert report.job["verified_fraction"] == 1.0


def test_threaded_churn_has_zero_stalls():
    print_header("serve: 4 threads + background rebuild (ALEX, 1600 ops)")
    report = _session(threaded=True)
    print(f"ops {report.ops_total}, dropped {report.dropped}, "
          f"stalled {report.stalled}, max wait {report.max_wait_s * 1e3:.2f} ms, "
          f"oracle mismatches {len(report.mismatches)}, "
          f"job {report.job['state']} after {report.job['chunks_pumped']} chunks")
    assert report.dropped_lookups == 0, "lookups were refused during rebuild"
    assert report.stalled_lookups == 0, "lookups stalled behind the pump"
    _assert_clean(report)


def test_rebuild_overhead_is_bounded_and_off_the_client_clock():
    report = _session(threaded=False)
    _assert_clean(report)
    ratio = report.overhead_ns / max(1.0, report.client_ns)
    print(f"client {report.client_ns:.0f} vns, rebuild overhead "
          f"{report.overhead_ns:.0f} vns (ratio {ratio:.2f}x), "
          f"{report.ops_per_vsec:.0f} ops/vsec")
    assert 0 < ratio <= OVERHEAD_RATIO_GATE, (
        f"rebuild cost {ratio:.1f}x the foreground work; the pump is "
        "either free (not charged) or runaway")


def test_deterministic_metrics_reproduce_bit_for_bit():
    a = _session(threaded=False, seed=3)
    b = _session(threaded=False, seed=3)
    assert a.ok and b.ok
    assert a.client_ns == b.client_ns
    assert a.overhead_ns == b.overhead_ns
    assert a.op_counts == b.op_counts
    assert a.journal_len == b.journal_len
    print(f"two runs, identical virtual clocks: client {a.client_ns:.0f} vns, "
          f"overhead {a.overhead_ns:.0f} vns")


def _probe_streams():
    """The probe's loaded items and its two 80k-op streams."""
    rng = random.Random(7)
    keys = rng.sample(range(1, 2**40), _THREAD_KEYS + _THREAD_OPS // 5)
    loaded, fresh = sorted(keys[:_THREAD_KEYS]), iter(keys[_THREAD_KEYS:])
    items = [(k, payload(k)) for k in loaded]
    reads = [Operation(LOOKUP, rng.choice(loaded)) for _ in range(_THREAD_OPS)]
    mixed = []
    for _ in range(_THREAD_OPS):
        if rng.random() < 0.1:
            k = next(fresh)
            mixed.append(Operation(INSERT, k, payload(k)))
        else:
            mixed.append(Operation(LOOKUP, rng.choice(loaded)))
    return items, {"read-only": reads, "10% inserts": mixed}


def _threaded_run(items, ops, n_threads):
    """ops/s of ``ops`` served by ``n_threads`` clients from a barrier."""
    with IndexServer(workers=0) as server:
        server.create_instance("t", "ALEX", items=items)
        apply = server.apply
        share = -(-len(ops) // n_threads)
        start = threading.Barrier(n_threads + 1)

        def client(part):
            start.wait()
            for op in part:
                apply("t", op)

        threads = [threading.Thread(target=client,
                                    args=(ops[i * share:(i + 1) * share],))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        start.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        assert server.status("t")["server"]["ops"] == len(ops)
        mismatches = server.replay_check("t")
        assert not mismatches, str(mismatches[0])
    return len(ops) / wall


def test_four_client_threads_do_not_convoy():
    items, streams = _probe_streams()
    rows, ratios = [], {}
    for mix, ops in streams.items():
        runs = {1: [], 4: []}
        for _ in range(_THREAD_RUNS):
            for n_threads in runs:
                runs[n_threads].append(_threaded_run(items, ops, n_threads))
        median = {t: statistics.median(v) for t, v in runs.items()}
        ratios[mix] = median[4] / median[1]
        rows.append([mix, f"{median[1] / 1e3:.1f}", f"{median[4] / 1e3:.1f}",
                     f"{min(runs[4]) / 1e3:.0f}-{max(runs[4]) / 1e3:.0f}",
                     f"{ratios[mix]:.2f}"])
    print_header(f"serve: {_THREAD_OPS} apply ops on one ALEX tenant "
                 f"({_THREAD_KEYS} keys), 1 vs 4 client threads, median of "
                 f"{_THREAD_RUNS}")
    print(table(["Mix", "1 thread kops/s", "4 threads kops/s",
                 "4-thread range", "4 / 1"], rows))
    for mix, ratio in ratios.items():
        assert ratio >= THREADED_RATIO_GATE, (mix, ratios)
