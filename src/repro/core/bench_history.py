"""Bench-history records and the perf-regression gate.

``BENCH_batch.json`` / ``BENCH_sweep.json`` / ``BENCH_migration.json``
are point-in-time snapshots; nothing compared them across runs, so CI
could get slower forever without a single red job.  This module gives
the bench suites a **trajectory**: every run appends one fingerprinted
record to ``BENCH_history.jsonl`` (through the versioned results
layer), and :func:`check_history` fails the run when a gated metric
regresses beyond a tolerance versus the recorded baseline.

Two rules keep the gate honest:

* **Gate only on the virtual clock.**  Gated ``metrics`` must be
  deterministic quantities (virtual-ns latencies, ops per *virtual*
  second) that are bit-identical across machines, so a baseline
  committed from one machine gates CI on another without flakes.
  Wall-clock observations ride along in ``info``, recorded but never
  judged.
* **Compare like with like.**  A record's ``context`` (dataset, sizes,
  seed, suite parameters) is part of its identity; the baseline for a
  run is the median of prior records with the same suite *and* an
  identical context.  Change the parameters and you start a fresh
  trajectory instead of comparing apples to oranges.

Direction is inferred from the metric name: latencies (``*_ns``,
``*p50/p99/p999*``, ``*latency*``, ``*seconds*``) regress upward,
throughputs (everything else: ``*mops*``, ``*ops_per*``, ``*speedup*``,
``*keys_per*``) regress downward.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

from repro.core.results import SCHEMA_VERSION, load_jsonl, save_jsonl

__all__ = [
    "BenchRegression",
    "append_history",
    "check_history",
    "history_fingerprint",
    "history_record",
    "load_history",
    "provenance",
]

#: ``kind`` field distinguishing history records from run records when
#: both land in one JSONL stream.
HISTORY_KIND = "bench_history"

_LOWER_IS_BETTER_MARKERS = ("_ns", "latency", "p50", "p99", "p999", "seconds")


def git_rev() -> str:
    """The working tree's short git revision, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def provenance() -> dict:
    """Who/when fields every bench artifact should carry."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def lower_is_better(metric: str) -> bool:
    name = metric.lower()
    return any(marker in name for marker in _LOWER_IS_BETTER_MARKERS)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def history_fingerprint(suite: str, context: dict, metrics: Dict[str, float]) -> str:
    """SHA-256 of a record's deterministic content (suite+context+metrics).

    Two runs of the same code on the same parameters produce equal
    fingerprints — provenance and wall-clock ``info`` are excluded.
    """
    return hashlib.sha256(_canonical(
        {"suite": suite, "context": context, "metrics": metrics}
    ).encode()).hexdigest()


def history_record(
    suite: str,
    metrics: Dict[str, float],
    info: Optional[dict] = None,
    context: Optional[dict] = None,
) -> dict:
    """One bench-history record: gated metrics + ungated info + provenance."""
    context = dict(context or {})
    metrics = {k: float(v) for k, v in metrics.items()}
    record = {
        "kind": HISTORY_KIND,
        "suite": suite,
        "context": context,
        "metrics": metrics,
        "info": dict(info or {}),
        "fingerprint": history_fingerprint(suite, context, metrics),
    }
    record.update(provenance())
    return record


def append_history(
    path: str,
    suite: str,
    metrics: Dict[str, float],
    info: Optional[dict] = None,
    context: Optional[dict] = None,
) -> dict:
    """Append one record to the history file; returns the record."""
    record = history_record(suite, metrics, info=info, context=context)
    save_jsonl([record], path, append=True)
    return record


def load_history(
    path: str,
    suite: Optional[str] = None,
    context: Optional[dict] = None,
) -> List[dict]:
    """History records from ``path``, optionally filtered to one
    (suite, context) trajectory.  Missing file reads as empty."""
    records = [r for r in load_jsonl(path) if r.get("kind") == HISTORY_KIND]
    if suite is not None:
        records = [r for r in records if r.get("suite") == suite]
    if context is not None:
        records = [r for r in records if r.get("context") == context]
    return records


@dataclass(frozen=True)
class BenchRegression:
    """One gated metric that moved the wrong way past tolerance."""

    suite: str
    metric: str
    baseline: float
    current: float
    tolerance: float

    @property
    def change(self) -> float:
        if self.baseline == 0:
            return 0.0
        return (self.current - self.baseline) / self.baseline

    def __str__(self) -> str:
        direction = "rose" if lower_is_better(self.metric) else "dropped"
        return (f"{self.suite}/{self.metric} {direction} "
                f"{self.baseline:.4g} -> {self.current:.4g} "
                f"({self.change:+.1%}, tolerance {self.tolerance:.0%})")


def check_history(
    path: str,
    suite: str,
    metrics: Dict[str, float],
    context: Optional[dict] = None,
    tolerance: float = 0.15,
) -> List[BenchRegression]:
    """Compare ``metrics`` against the recorded baseline trajectory.

    The baseline per metric is the *median* of prior records with the
    same suite and identical context (median, not latest: one outlier
    record can neither mask nor fake a regression).  An empty baseline
    passes — the first run seeds the trajectory.  Returns regressions,
    worst first; empty means pass.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    prior = load_history(path, suite=suite, context=dict(context or {}))
    out: List[BenchRegression] = []
    for metric, current in sorted(metrics.items()):
        history = [float(r["metrics"][metric]) for r in prior
                   if metric in r.get("metrics", {})]
        if not history:
            continue
        baseline = median(history)
        if baseline == 0:
            continue
        change = (float(current) - baseline) / baseline
        regressed = (change > tolerance if lower_is_better(metric)
                     else change < -tolerance)
        if regressed:
            out.append(BenchRegression(
                suite=suite, metric=metric, baseline=baseline,
                current=float(current), tolerance=tolerance))
    out.sort(key=lambda r: -abs(r.change))
    return out
