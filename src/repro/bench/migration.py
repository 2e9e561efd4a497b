"""``repro migrate``: one live migration under a client stream, as a
gated benchmark (overhead and client time on the virtual clock,
backfill rate)."""

from __future__ import annotations

import os
from typing import Any

from repro.bench import Outcome
from repro.core.migrate import run_migration
from repro.core.workloads import Workload


def run(src: str, dst: str, workload: Workload, stream: dict, chunk: int,
        pump: int, seed: int, min_verified: float, bus: Any,
        repro_dir: str) -> Outcome:
    """Migrate ``src`` -> ``dst`` (registry names) under ``workload``.

    ``stream`` says how the caller made ``workload`` (dataset, workload
    name, sizes) — part of the history context, like the stream is part
    of the trajectory's identity.  A divergence abort's shrunk repro
    stream is saved under ``repro_dir`` ('' skips).  An index that
    cannot take part raises ``ValueError``."""
    report = run_migration(src, dst, workload, chunk=chunk, pump_per_op=pump,
                           seed=seed, bus=bus)
    if report.repro is not None and repro_dir:
        os.makedirs(repro_dir, exist_ok=True)
        report.repro_path = os.path.join(
            repro_dir,
            f"migrate-{src.replace('+', 'plus')}-to-"
            f"{dst.replace('+', 'plus')}-seed{seed}.jsonl")
        report.repro.save(report.repro_path)
    failures = []
    if not report.ok:
        failures.append(f"FAIL: {report.describe().splitlines()[0]}")
    elif report.verified_fraction < min_verified:
        failures.append(
            f"FAIL: verified fraction {report.verified_fraction:.2%} < "
            f"--min-verified {min_verified:.2%}")
    doc = report.to_dict()
    return Outcome(
        suite="migration",
        doc=doc,
        metrics={"overhead_ns": report.overhead_ns,
                 "client_ns": report.client_ns,
                 "backfill_keys_per_vsec": report.backfill_keys_per_vsec},
        info={"wall_seconds": report.wall_seconds},
        context={"src": src, "dst": dst, **stream, "chunk": chunk,
                 "pump": pump, "seed": seed},
        failures=failures,
        render=report.describe,
        report=doc,
    )
