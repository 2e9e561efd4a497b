"""``repro bench``: scalar vs batched lookups, per batch-capable index.

Wall clock for the two throughputs and their ratio (recorded, gated
only in-run by ``--min-speedup``); virtual clock for the lookup profile
the history gate judges.  Value and meter parity between the two paths
is asserted per index on the way.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from repro.bench import Outcome
from repro.core.registry import REGISTRY
from repro.core.runner import LatencyStats
from repro.core.workloads import payload
from repro.datasets import registry
from repro.indexes.linear_model import LinearModel


def _measure(name: str, items: list, qs: list) -> dict:
    """One index: timed scalar and batch passes (asserted equal in
    values and meter), then the scalar path's virtual-clock profile."""
    spec = REGISTRY.get(name)
    a = spec.factory()
    a.bulk_load(items)
    for k in qs[:256]:  # warm (mirrors the batch side's warm-up)
        a.lookup(k)
    t0 = time.perf_counter()
    scalar_values = [a.lookup(k) for k in qs]
    t_scalar = time.perf_counter() - t0

    b = spec.factory()
    b.bulk_load(items)
    vectorized = b._lookup_batch(qs) is not None  # charges nothing
    b.lookup_many(qs[:256])  # warm batch tables
    t0 = time.perf_counter()
    batch_values = b.lookup_many(qs)
    t_batch = time.perf_counter() - t0
    if batch_values != scalar_values:
        raise AssertionError(f"{name}: batch/scalar value mismatch")
    if list(a.meter.snapshot().items()) != list(b.meter.snapshot().items()):
        raise AssertionError(f"{name}: batch/scalar cost divergence")
    # Virtual-clock lookup profile: deterministic across machines, so
    # the regression gate can judge it against a committed baseline
    # (the wall-clock numbers above are recorded, not gated).
    samples = []
    v0 = a.meter.total_time()
    for k in qs:
        before = a.meter.total_time()
        a.lookup(k)
        samples.append(a.meter.total_time() - before)
    virtual_ns = a.meter.total_time() - v0
    return {
        "index": name,
        "vectorized": vectorized,
        "scalar_ops_per_s": len(qs) / t_scalar,
        "batch_ops_per_s": len(qs) / t_batch,
        "speedup": t_scalar / t_batch if t_batch > 0 else float("inf"),
        "virtual_lookup_mops": (len(qs) / (virtual_ns / 1e9) / 1e6
                                if virtual_ns > 0 else 0.0),
        "virtual_lookup_p99_ns": LatencyStats.from_samples(samples).p99,
    }


def _predict_note(keys: list, qs: list) -> dict:
    """``predict_clamped`` per call vs the ``predictor()`` closure that
    hoists the attribute loads and the clamp bound."""
    model = LinearModel.train(keys)
    n = len(keys)
    reps = min(len(qs), 20000)
    t0 = time.perf_counter()
    for k in qs[:reps]:
        model.predict_clamped(k, n)
    t_before = time.perf_counter() - t0
    pred = model.predictor(n)
    t0 = time.perf_counter()
    for k in qs[:reps]:
        pred(k)
    t_after = time.perf_counter() - t0
    return {
        "before_mops": reps / t_before / 1e6,
        "after_mops": reps / t_after / 1e6,
        "speedup": t_before / t_after if t_after > 0 else float("inf"),
        "note": "predictor(n) hoists the slope/intercept/anchor loads "
                "and the n-1 clamp bound out of the per-call path; "
                "predictions are bit-identical to predict_clamped.",
    }


def run(dataset: str, n: int, lookups: int, seed: int,
        indexes: Sequence[str], min_speedup: float) -> Outcome:
    """Scalar vs batched lookup microbenchmark over ``indexes``
    (empty: every batch-capable registry index); about a third of
    the probes miss.  Raises ``AssertionError`` when the two paths
    disagree in values or charges."""
    names = list(indexes) or [s.name for s in REGISTRY if s.supports_batch]
    for name in names:  # fail fast on typos
        REGISTRY.get(name)
    keys = registry.get(dataset).generate(n, seed=seed)
    items = [(k, payload(k)) for k in keys]
    rng = random.Random(seed + 1)
    qs = [keys[rng.randrange(len(keys))] for _ in range(lookups)]
    for i in range(0, len(qs), 3):  # ~1/3 misses
        qs[i] += 1

    results = [_measure(name, items, qs) for name in names]
    note = _predict_note(keys, qs)
    lines = [
        f"{r['index']:12s} scalar {r['scalar_ops_per_s']:>10.0f} op/s   "
        f"batch {r['batch_ops_per_s']:>10.0f} op/s   {r['speedup']:5.1f}x"
        f"{'' if r['vectorized'] else '  (loop fallback)'}   "
        f"[virtual {r['virtual_lookup_mops']:.2f} Mops, "
        f"p99 {r['virtual_lookup_p99_ns']:.0f} ns]"
        for r in results
    ]
    lines.append(f"predict_clamped: {note['before_mops']:.2f} -> "
                 f"{note['after_mops']:.2f} Mcalls/s "
                 f"({note['speedup']:.2f}x hoisted)")
    failures = [
        f"FAIL {r['index']}: {r['speedup']:.2f}x < {min_speedup}x"
        for r in results
        if min_speedup > 0 and r["vectorized"] and r["speedup"] < min_speedup
    ]
    metrics = {}
    info = {}
    for r in results:
        metrics[f"virtual_lookup_mops.{r['index']}"] = r["virtual_lookup_mops"]
        metrics[f"virtual_lookup_p99_ns.{r['index']}"] = r["virtual_lookup_p99_ns"]
        info[f"scalar_ops_per_s.{r['index']}"] = r["scalar_ops_per_s"]
        info[f"batch_ops_per_s.{r['index']}"] = r["batch_ops_per_s"]
        info[f"speedup.{r['index']}"] = r["speedup"]
    return Outcome(
        suite="bench",
        doc={"dataset": dataset, "n": n, "lookups": lookups, "seed": seed,
             "numpy": True, "results": results, "predict_clamped": note},
        # A run that missed --min-speedup is reported, not recorded.
        metrics=None if failures else metrics,
        info=info,
        context={"dataset": dataset, "n": n, "lookups": lookups,
                 "seed": seed, "indexes": sorted(names)},
        failures=failures,
        render=lambda: "\n".join(lines),
    )
