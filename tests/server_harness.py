"""Deterministic concurrency checker for the index server.

The server's correctness claim is operational: *N clients keep getting
right answers, without drops or stalls, while a background job rebuilds
the index under them*.  This harness turns that claim into a checkable
fact in two steps:

1. run a serve session — either the seeded deterministic interleave
   (``threaded=False``, byte-reproducible) or real client threads
   against the worker thread (``threaded=True``) — with every admitted
   op recorded in the server's lock-ordered journal, then
2. replay the journal *serially* through the PR-5 differential oracle
   and assert it matches every recorded result bit-for-bit.  Because
   journal entries are appended while the per-instance lock is held,
   journal order is a serialization of the concurrent history: an
   empty mismatch list proves linearizable-per-key results.

``check_session`` additionally asserts the operational SLOs (zero
dropped lookups, zero stalled lookups, background job finished DONE)
and returns human-readable failure strings instead of raising, so a
parametrized test over every shardable registry index reports all
broken indexes at once.
"""

from typing import List, Optional, Tuple

from repro.bench.serve import ServeReport, run_serve_session, session_streams
from repro.core.registry import REGISTRY

#: Small session shape: enough churn to cross SMO boundaries on the
#: stress-sized indexes while keeping the whole registry sweep fast.
SMALL_SESSION = {"n_clients": 3, "ops_per_client": 80, "n_bulk": 200}


def shardable_specs():
    """Registry specs the server can host (insert + range_scan)."""
    return [spec for spec in REGISTRY if spec.supports_migration]


def build_session(index_name: str, seed: int = 0, profile: str = "churn",
                  **shape) -> Tuple[list, List[list]]:
    """Bulk items + per-client streams for ``index_name``."""
    params = {**SMALL_SESSION, **shape}
    return session_streams(index_name, seed=seed, profile=profile, **params)


def check_session(
    index_name: str,
    threaded: bool = False,
    seed: int = 0,
    profile: str = "churn",
    rebuild_to: str = "",
    chunk: int = 64,
    rebuild_after: float = 0.25,
    bus=None,
    shape: Optional[dict] = None,
) -> Tuple[ServeReport, List[str]]:
    """Run one session and collect every violated proof obligation."""
    bulk, streams = build_session(index_name, seed=seed, profile=profile,
                                  **(shape or {}))
    report = run_serve_session(
        index_name, bulk, streams, rebuild_to=rebuild_to,
        rebuild_after=rebuild_after, threaded=threaded, seed=seed,
        chunk=chunk, bus=bus)
    failures: List[str] = []
    prefix = f"{index_name} ({report.mode})"
    if report.mismatches:
        first = report.mismatches[0]
        failures.append(
            f"{prefix}: journal replay diverged from the oracle "
            f"({len(report.mismatches)} mismatches; first: seq={first.seq} "
            f"{first.op} key={first.key} expected {first.expected} "
            f"got {first.got})")
    if report.dropped_lookups:
        failures.append(
            f"{prefix}: {report.dropped_lookups} dropped lookups during "
            "the background rebuild")
    if report.stalled_lookups:
        failures.append(
            f"{prefix}: {report.stalled_lookups} stalled lookups "
            f"(max wait {report.max_wait_s:.3f}s)")
    if report.job is None:
        failures.append(f"{prefix}: background job never ran")
    elif report.job["state"] != "done":
        failures.append(
            f"{prefix}: background job ended {report.job['state']!r} "
            f"({report.job['error'] or 'no error recorded'})")
    if report.journal_len != report.ops_total:
        failures.append(
            f"{prefix}: journal has {report.journal_len} entries for "
            f"{report.ops_total} admitted ops")
    return report, failures
