"""The dataset generators' draw-per-key loops, kept as the tests' reference.

``repro.datasets.real`` draws its fixed-range keys as arrays through
``_randbelow_array``, which takes ``random.Random``'s own Mersenne
Twister words in blocks and rejects them in numpy.  This module holds
the loops those arrays replaced, as they stood — one ``rng.randrange``
/ ``rng.randint`` call per key — and ``tests/test_datasets.py``
requires every converted generator to return exactly the keys its
twin here does, and ``_filled`` to leave its ``rng`` where
:func:`filled` does (``benchmarks/test_generate_keys.py`` times each
pair).  ``genome`` and ``osm`` changed only in ``_filled``; their twins
are the shipped bodies with :func:`filled` patched in.
"""

import math
import random
from typing import List

Keys = List[int]

_U64_MAX = 2**63


def filled(keys: set, n: int, rng: random.Random, lo: int, hi: int) -> Keys:
    while len(keys) < n:
        keys.add(rng.randrange(lo, hi))
    return sorted(keys)[:n]


def covid(n: int, seed: int = 0) -> Keys:
    rng = random.Random(f"covid-{seed}")
    return filled(set(), n, rng, 1_200_000_000_000_000_000, 1_400_000_000_000_000_000)


def wise(n: int, seed: int = 0) -> Keys:
    rng = random.Random(f"wise-{seed}")
    return filled(set(), n, rng, 0, _U64_MAX)


def stack(n: int, seed: int = 0) -> Keys:
    rng = random.Random(f"stack-{seed}")
    keys = []
    k = 10_000_000
    for _ in range(n):
        k += rng.randint(1, 8)
        keys.append(k)
    return keys


def history(n: int, seed: int = 0) -> Keys:
    rng = random.Random(f"history-{seed}")
    regimes = [1, 12, 3, 40, 7]
    keys = []
    k = 0
    per = n // len(regimes)
    for step in regimes:
        for _ in range(per):
            k += rng.randint(1, 2 * step)
            keys.append(k)
    while len(keys) < n:
        k += rng.randint(1, 4)
        keys.append(k)
    return keys[:n]


def planet(n: int, seed: int = 0) -> Keys:
    rng = random.Random(f"planet-{seed}")
    n_dense = int(n * 0.7)
    k = 0
    dense = []
    n_regimes = 40
    per = max(1, n_dense // n_regimes)
    for _ in range(n_regimes):
        density = math.exp(rng.uniform(0.0, 7.0))
        for _ in range(per):
            k += max(1, int(rng.uniform(0.5, 1.5) * density))
            dense.append(k)
    deflection = dense[-1]
    sparse_span = deflection * 2000
    sparse = [rng.randrange(deflection + 1, deflection + sparse_span)
              for _ in range(n - len(dense))]
    return filled(set(dense + sparse), n,
                  random.Random(f"planet-fill-{seed}"),
                  deflection, deflection + sparse_span)
