"""Shared configuration and helpers for the benchmark suite.

Every module under ``benchmarks/`` regenerates one of the paper's
tables or figures.  Scale is controlled with the ``GRE_SCALE``
environment variable:

* ``small``  (default) — ~6k keys per dataset, minutes for the suite,
* ``medium`` — ~20k keys, sharper separation between indexes,
* ``large``  — ~60k keys, closest to the paper's relative gaps.

Outputs are printed in the same rows/series the paper reports, and the
qualitative *shape* (who wins, roughly by how much, where crossovers
fall) is asserted; absolute numbers are not expected to match a 96-core
Xeon (see DESIGN.md).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.heatmap import Heatmap, sweep_heatmap
from repro.core.registry import REGISTRY
from repro.core.sweep import (
    DatasetSpec,
    SweepCache,
    SweepReport,
    WorkloadSpec,
    resolve_jobs,
)
from repro.core.workloads import MIX_FRACTIONS
from repro.datasets import registry

_SCALES = {
    "small": {"n_keys": 6000, "n_ops": 5000},
    "medium": {"n_keys": 20000, "n_ops": 16000},
    "large": {"n_keys": 60000, "n_ops": 40000},
}


def scale() -> Dict[str, int]:
    name = os.environ.get("GRE_SCALE", "small")
    if name not in _SCALES:
        raise ValueError(f"GRE_SCALE must be one of {sorted(_SCALES)}")
    return dict(_SCALES[name])


N_KEYS = scale()["n_keys"]
N_OPS = scale()["n_ops"]

#: The ten datasets of the paper's heatmaps, easy → hard.
HEATMAP_DATASETS = registry.heatmap_names()

#: Single-threaded index families (Section 4.1) — derived views over
#: the capability registry (repro.core.registry).
ST_LEARNED: Dict[str, Callable] = REGISTRY.factories(tag="heatmap", learned=True)
ST_TRADITIONAL: Dict[str, Callable] = REGISTRY.factories(tag="heatmap", learned=False)
#: PGM is reported separately (the paper excludes it from the heatmap:
#: its LSM inserts would "win" 100%-write cells for non-learned reasons).
ST_ALL: Dict[str, Callable] = {
    **ST_LEARNED, "PGM": REGISTRY.get("PGM").factory, **ST_TRADITIONAL,
}


@lru_cache(maxsize=None)
def dataset_keys(name: str, n: int = N_KEYS, seed: int = 0):
    """Cached dataset generation (tuple for hashability/immutability)."""
    return tuple(registry.get(name).generate(n, seed))


# ---------------------------------------------------------------------------
# Sweep-backed grids (Figures 2 and 4)
# ---------------------------------------------------------------------------
#
# The heatmap figures are data x workload x index grids of independent
# cells; they run on the sweep engine (repro.core.sweep), which is how
# the CLI's ``repro sweep``/``repro heatmap`` run them too.  Parallelism
# and caching are opt-in for benchmarks so a default ``pytest
# benchmarks/`` measures fresh, serial runs:
#
# * ``REPRO_JOBS=N``        — execute grid cells on N worker processes,
# * ``GRE_SWEEP_CACHE=DIR`` — reuse the content-addressed cell cache.

def sweep_jobs() -> int:
    """Worker processes for benchmark grids (``REPRO_JOBS``, default 1)."""
    return resolve_jobs(None)


def sweep_cache() -> Optional[SweepCache]:
    """The benchmark suite's cell cache, if ``GRE_SWEEP_CACHE`` names one."""
    root = os.environ.get("GRE_SWEEP_CACHE", "").strip()
    return SweepCache(root) if root else None


def mix_specs(seed: int = 1, n_ops: int = N_OPS) -> Sequence[WorkloadSpec]:
    """The paper's five insert mixes as sweep workload specs."""
    return [WorkloadSpec.mixed(frac, n_ops=n_ops, seed=seed)
            for frac in MIX_FRACTIONS]


def st_heatmap(
    datasets: Sequence[str] = None,
    seed: int = 1,
    n_ops: int = N_OPS,
) -> Tuple[Heatmap, SweepReport]:
    """Figure 2's single-threaded grid on the sweep engine."""
    names = list(HEATMAP_DATASETS if datasets is None else datasets)
    return sweep_heatmap(
        [DatasetSpec(n, N_KEYS, 0) for n in names],
        mix_specs(seed=seed, n_ops=n_ops),
        learned_names=REGISTRY.names(tag="heatmap", learned=True),
        traditional_names=REGISTRY.names(tag="heatmap", learned=False),
        jobs=sweep_jobs(), cache=sweep_cache(),
    )


def mt_heatmap(
    datasets: Sequence[str],
    threads: int,
    sockets: int = 1,
    seed: int = 1,
    n_ops: int = N_OPS,
) -> Tuple[Heatmap, SweepReport]:
    """Figure 4's multicore grid: concurrent variants on the simulator."""
    learned = [s.concurrent_name for s in REGISTRY.concurrent_specs(learned=True)]
    traditional = [s.concurrent_name
                   for s in REGISTRY.concurrent_specs(learned=False)]
    return sweep_heatmap(
        [DatasetSpec(n, N_KEYS, 0) for n in datasets],
        mix_specs(seed=seed, n_ops=n_ops),
        learned_names=learned, traditional_names=traditional,
        jobs=sweep_jobs(), cache=sweep_cache(),
        mode="multicore", threads=threads, sockets=sockets,
    )


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


class Empty:
    """The in-run yardstick of the wall gates: ``Empty().call()`` is an
    attribute lookup and a call that does nothing, timed beside what a
    gate measures so a slow box moves both."""

    def call(self) -> None:
        pass


def print_header(title: str) -> None:
    line = "=" * max(60, len(title))
    print(f"\n{line}\n{title}\n{line}")
