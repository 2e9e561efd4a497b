"""PGM inserts after a bulk load, at two sizes, gated on the virtual
clock.

A bulk load puts its run at the first logarithmic level whose capacity,
``buffer_size · 2^level``, holds it (``pgm.py``'s module docstring), so
a flush merges only the small runs below it and the cost of an insert
does not grow with the loaded run.  The probe: load ``n`` keys of a
dataset, then insert ``_INSERTS`` held-out keys of the same dataset in
random order, on covid (easy) and osm (hard) at 10^4 and 10^5 keys.
The gate reads the mean virtual ns per insert at 10^5 over the same at
10^4; wall µs per insert is printed, not gated.
"""

import random
import time

from common import dataset_keys, print_header, run_once
from repro.core.registry import REGISTRY
from repro.core.report import table

DATASETS = ("covid", "osm")
SIZES = (10_000, 100_000)
_INSERTS = 5_000
#: 10^5 / 10^4 mean virtual ns per insert.  Reads 1.00 on both
#: datasets; a load into level 0, whose first flush re-segments the
#: whole loaded run, read 4.32.
_MAX_RATIO = 1.1


def probe(dataset, n):
    """Mean virtual ns and wall µs per insert of ``_INSERTS`` fresh keys
    after a bulk load of ``n`` keys."""
    keys = list(dataset_keys(dataset, n + _INSERTS))
    fresh = random.Random(f"pgm-insert-{dataset}-{n}").sample(keys, _INSERTS)
    held = set(fresh)
    index = REGISTRY.create("PGM")
    index.bulk_load([(k, k) for k in keys if k not in held])
    before = index.meter.total_time()
    t0 = time.perf_counter()
    for key in fresh:
        index.insert(key, key)
    wall = time.perf_counter() - t0
    virtual = index.meter.total_time() - before
    return virtual / _INSERTS, wall * 1e6 / _INSERTS


def _ratios():
    rows, ratios = [], {}
    for dataset in DATASETS:
        ns = {}
        for n in SIZES:
            ns[n], us = probe(dataset, n)
            rows.append([dataset, n, f"{ns[n]:.1f}", f"{us:.1f}"])
        ratios[dataset] = ns[SIZES[-1]] / ns[SIZES[0]]
    print_header(f"PGM: {_INSERTS} fresh inserts after a bulk load of n keys")
    print(table(["Dataset", "n", "virtual ns/insert", "wall us/insert"], rows))
    return ratios


def test_pgm_insert_cost_does_not_grow_with_the_loaded_run(benchmark):
    ratios = run_once(benchmark, _ratios)
    for dataset, ratio in ratios.items():
        assert ratio <= _MAX_RATIO, (
            f"PGM on {dataset}: ns per insert at {SIZES[-1]} / {SIZES[0]} "
            f"keys = {ratio:.2f} (gate {_MAX_RATIO})")
