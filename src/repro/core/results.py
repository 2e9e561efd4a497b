"""Versioned result artifacts and regression comparison.

A benchmarking suite is only useful if runs can be compared over time.
This module is the results artifact layer: every persisted record wraps
:meth:`~repro.core.runner.RunResult.to_dict` with a ``schema_version``
field so future readers can evolve the format without guessing::

    save_jsonl([result], "results.jsonl", tags={"commit": "abc123"})
    records = load_jsonl("results.jsonl")
    regressions = compare(old_records, new_records, threshold=0.10)

The CLI (``run --out``, ``compare-runs``) and CI pipelines gate on
:func:`compare`'s output; ``save_jsonl(..., append=True)`` makes any
such file an append-only store.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.runner import InsertStats, LatencyStats, RunResult
from repro.indexes.base import MemoryBreakdown

#: Version stamped into every persisted record.  Bump when the record
#: layout changes incompatibly; ``load_jsonl`` rejects newer versions.
SCHEMA_VERSION = 1


def result_record(
    result: Union[RunResult, dict],
    tags: Optional[Dict[str, str]] = None,
) -> dict:
    """A persistable, versioned record for one run."""
    record = dict(result.to_dict() if isinstance(result, RunResult) else result)
    record["schema_version"] = SCHEMA_VERSION
    if tags:
        record["tags"] = dict(tags)
    return record


def full_record(
    result: RunResult,
    tags: Optional[Dict[str, str]] = None,
) -> dict:
    """A *lossless* versioned record for one run.

    :func:`result_record` is the compact artifact the CLI and CI
    consume; it drops the latency moments (variance, max) and the raw
    insert-stat sums.  The sweep engine's cache and worker transport
    need the full :class:`RunResult` back, so this record adds the
    missing fields.  :func:`result_from_record` inverts it exactly —
    JSON round-trips Python floats bit-for-bit, which is what makes
    cached and cross-process results byte-identical to in-process ones.
    """
    record = result_record(result, tags)
    record["lookup_latency"].update(
        variance=result.lookup_latency.variance, max=result.lookup_latency.max)
    record["write_latency"].update(
        variance=result.write_latency.variance, max=result.write_latency.max)
    ist = result.insert_stats
    record["insert_stats_raw"] = {
        "inserts": ist.inserts,
        "nodes_traversed": ist.nodes_traversed,
        "keys_shifted": ist.keys_shifted,
        "nodes_created": ist.nodes_created,
        "smo_count": ist.smo_count,
    }
    return record


def _latency_from_dict(d: Optional[dict]) -> LatencyStats:
    d = d or {}
    return LatencyStats(
        count=d.get("count", 0),
        mean=d.get("mean", 0.0),
        p50=d.get("p50", 0.0),
        p99=d.get("p99", 0.0),
        p999=d.get("p999", 0.0),
        variance=d.get("variance", 0.0),
        max=d.get("max", 0.0),
    )


def result_from_record(record: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from a :func:`full_record` dict.

    Records written by :func:`result_record` load too; the fields the
    compact format drops come back zeroed.
    """
    raw = record.get("insert_stats_raw") or {}
    mem = record.get("memory_bytes") or {}
    return RunResult(
        index_name=record.get("index", "?"),
        workload_name=record.get("workload", "?"),
        n_ops=record.get("n_ops", 0),
        virtual_ns=record.get("virtual_ns", 0.0),
        wall_seconds=record.get("wall_seconds", 0.0),
        phase_ns=dict(record.get("phase_ns") or {}),
        lookup_latency=_latency_from_dict(record.get("lookup_latency")),
        write_latency=_latency_from_dict(record.get("write_latency")),
        insert_stats=InsertStats(
            inserts=raw.get("inserts", 0),
            nodes_traversed=raw.get("nodes_traversed", 0.0),
            keys_shifted=raw.get("keys_shifted", 0.0),
            nodes_created=raw.get("nodes_created", 0.0),
            smo_count=raw.get("smo_count", 0),
        ),
        memory=MemoryBreakdown(
            inner=mem.get("inner", 0),
            leaf=mem.get("leaf", 0),
            metadata=mem.get("metadata", 0),
        ),
        scanned_entries=record.get("scanned_entries", 0),
    )


def save_jsonl(
    results: Iterable[Union[RunResult, dict]],
    path: str,
    tags: Optional[Dict[str, str]] = None,
    append: bool = False,
) -> int:
    """Write versioned records to a JSON-lines file; returns the count."""
    n = 0
    with open(path, "a" if append else "w") as f:
        for result in results:
            f.write(json.dumps(result_record(result, tags)) + "\n")
            n += 1
    return n


def load_jsonl(path: str) -> List[dict]:
    """All records from ``path``; a missing file reads as empty.

    Records written before versioning (no ``schema_version`` field) are
    accepted as version 0; records from a *newer* schema raise, since
    silently misreading them is worse than failing.
    """
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: corrupt result record: {exc}"
                ) from exc
            version = record.get("schema_version", 0)
            if not isinstance(version, int) or version > SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{line_no}: schema_version {version!r} is newer "
                    f"than supported ({SCHEMA_VERSION}); upgrade repro"
                )
            records.append(record)
    return records


@dataclass(frozen=True)
class Regression:
    index: str
    workload: str
    metric: str
    before: float
    after: float

    @property
    def change(self) -> float:
        if self.before == 0:
            return 0.0
        return (self.after - self.before) / self.before

    def __str__(self) -> str:
        return (f"{self.index}/{self.workload} {self.metric}: "
                f"{self.before:.3g} -> {self.after:.3g} ({self.change:+.1%})")


def _key(record: dict) -> Tuple[str, str]:
    return record.get("index", "?"), record.get("workload", "?")


def compare(
    baseline: Iterable[dict],
    current: Iterable[dict],
    threshold: float = 0.10,
) -> List[Regression]:
    """Regressions in ``current`` relative to ``baseline``.

    Flags throughput drops and p99.9 latency increases beyond
    ``threshold``.  Pairs present in only one set are ignored (they are
    additions/removals, not regressions).
    """
    base = { _key(r): r for r in baseline }
    out: List[Regression] = []
    for record in current:
        before = base.get(_key(record))
        if before is None:
            continue
        b_tp = before.get("throughput_mops", 0.0)
        c_tp = record.get("throughput_mops", 0.0)
        if b_tp > 0 and (b_tp - c_tp) / b_tp > threshold:
            out.append(Regression(*_key(record), "throughput_mops", b_tp, c_tp))
        for side in ("lookup_latency", "write_latency"):
            b_lat = (before.get(side) or {}).get("p999", 0.0)
            c_lat = (record.get(side) or {}).get("p999", 0.0)
            if b_lat > 0 and (c_lat - b_lat) / b_lat > threshold:
                out.append(Regression(*_key(record), f"{side}.p999", b_lat, c_lat))
    out.sort(key=lambda r: -abs(r.change))
    return out
