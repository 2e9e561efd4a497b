"""Index server — rebuild-under-churn cost and the zero-stall gate.

Not a paper figure: the paper benchmarks indexes offline, and ROADMAP
item 1 asks what serving them costs.  Three gates:

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
"""

from common import print_header
from repro.bench.serve import run_serve_session, session_streams

OVERHEAD_RATIO_GATE = 1.0


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
