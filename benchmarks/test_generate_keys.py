"""Fixed-range key draws as arrays against the draw-per-key loops they
replaced, gated in-run; and every dataset generator at 10^6 keys.

``repro.datasets.real`` draws a run of keys from one range through
``_randbelow_array``, which takes ``random.Random``'s own Mersenne
Twister words in blocks and rejects them in numpy
(``docs/performance.md``, "Keys by words").  The loops it replaced live
on in ``tests/dataset_reference.py`` and return the same keys
(``tests/test_datasets.py``), so the wall ratio
of a pair is the whole effect: array / loop on covid and wise at 200k
keys (``bench/``'s ``batch_serve`` size) and on stack at 10^6, timed in
the same process, interleaved, best of ``_REPS`` — a slow box moves both
sides.  Run from the repository root (``tests`` is imported).

The second test generates 10^6 keys from every registry generator,
``wiki_dup`` included, and checks each returns ``n`` sorted keys, unique
unless the dataset has duplicates; it prints each time, ungated.
"""

import gc
import time

from common import print_header, run_once
from repro.core.report import table
from repro.datasets import real, registry
from tests import dataset_reference as reference

_REPS = 5
_PAIRS = (("covid", 200_000), ("wise", 200_000), ("stack", 1_000_000))
#: Array / loop.  Read 0.08-0.11 (covid, wise) and 0.13-0.17 (stack)
#: on the reference box.
_MAX_RATIO = 0.4
_PAPER_N = 1_000_000


def _best_ms(name, n):
    """Best-of-``_REPS`` wall of one generation per side, interleaved
    and alternating which runs first."""
    sides = {"array": getattr(real, name), "loop": getattr(reference, name)}
    best = {}
    for rep in range(_REPS):
        for side in ("array", "loop") if rep % 2 else ("loop", "array"):
            gc.collect()
            t0 = time.perf_counter()
            sides[side](n, 1)
            wall = (time.perf_counter() - t0) * 1e3
            best[side] = min(wall, best.get(side, wall))
    return best


def _ratios():
    rows, ratios = [], {}
    for name, n in _PAIRS:
        best = _best_ms(name, n)
        ratios[name] = best["array"] / best["loop"]
        rows.append([name, n, f"{best['loop']:.1f}", f"{best['array']:.1f}",
                     f"{ratios[name]:.2f}"])
    print_header(f"key generation, wall ms (best of {_REPS}, interleaved)")
    print(table(["Dataset", "n", "loop", "array", "array/loop"], rows))
    return ratios


def test_array_draw_wall_ratio(benchmark):
    ratios = run_once(benchmark, _ratios)
    for name, ratio in ratios.items():
        assert ratio <= _MAX_RATIO, (
            f"{name}: array/loop {ratio:.2f} (gate {_MAX_RATIO})")


def test_every_generator_at_a_million_keys():
    rows = []
    for name in registry.names(include_duplicates=True):
        ds = registry.get(name)
        t0 = time.perf_counter()
        keys = ds.generator(_PAPER_N, 1)  # the memo would keep 10^6 keys
        wall = time.perf_counter() - t0
        rows.append([name, f"{wall:.2f}"])
        assert len(keys) == _PAPER_N, name
        assert all(a <= b for a, b in zip(keys, keys[1:])), name
        if not ds.has_duplicates:
            assert len(set(keys)) == _PAPER_N, name
        del keys
    print_header(f"{_PAPER_N} keys per generator, wall s")
    print(table(["Dataset", "s"], rows))
