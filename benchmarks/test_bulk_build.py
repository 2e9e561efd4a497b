"""ALEX and LIPP bulk loads by arrays against their scalar builders,
gated in-run.

``bulk_load`` builds from one int64 array of the keys where the input
allows (``docs/performance.md``, "Bulk load by arrays"); the scalar
recursive builders make one model call per key per tree level and stay
as the path for everything else.  Both build the same tree bit for bit
(``tests/test_bulk_build.py``), so the wall ratio between them on one
key set is the whole effect: array / scalar build on covid (easy) and
osm (hard) at 100k keys, timed in the same process, interleaved, best
of ``_REPS`` — a slow box moves both sides.
"""

import gc
import sys
import time
from unittest import mock

from common import dataset_keys, print_header, run_once
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.indexes import alex, lipp

MODULES = {"ALEX": alex, "LIPP": lipp}
DATASETS = ("covid", "osm")
_REPS = 5
_N = 100_000
#: Array / scalar.  Read 0.19-0.24 (ALEX) and 0.20-0.27 (LIPP) on a
#: shared 2-core box.  Both LIPP builders make one object per node; the
#: array build fills the nodes' slots only once the tree is linked, so
#: the collector passes it triggers walk none of them.
_MAX_RATIO = {"ALEX": 0.6, "LIPP": 0.8}


def _best_build_ms(name, items):
    """Best-of-``_REPS`` wall of one ``bulk_load`` per builder,
    interleaved and alternating which runs first."""
    best = {}
    for rep in range(_REPS):
        for builder in (("array", "scalar") if rep % 2
                        else ("scalar", "array")):
            index = REGISTRY.create(name)
            gc.collect()
            with mock.patch.object(
                    MODULES[name], "_ARRAY_BUILD_MIN",
                    sys.maxsize if builder == "scalar"
                    else MODULES[name]._ARRAY_BUILD_MIN):
                t0 = time.perf_counter()
                index.bulk_load(items)
                wall = (time.perf_counter() - t0) * 1e3
            best[builder] = min(wall, best.get(builder, wall))
    return best


def _ratios():
    rows, ratios = [], {}
    for dataset in DATASETS:
        items = [(k, k) for k in dataset_keys(dataset, _N)]
        for name in MODULES:
            best = _best_build_ms(name, items)
            ratios[name, dataset] = best["array"] / best["scalar"]
            rows.append([name, dataset, f"{best['scalar']:.1f}",
                         f"{best['array']:.1f}",
                         f"{ratios[name, dataset]:.2f}"])
    print_header(f"bulk_load of {_N} keys, wall ms "
                 f"(best of {_REPS}, interleaved)")
    print(table(["Index", "Dataset", "scalar", "array", "array/scalar"], rows))
    return ratios


def test_array_build_wall_ratio(benchmark):
    ratios = run_once(benchmark, _ratios)
    for (name, dataset), ratio in ratios.items():
        assert ratio <= _MAX_RATIO[name], (
            f"{name} on {dataset}: array/scalar {ratio:.2f} "
            f"(gate {_MAX_RATIO[name]})")
