"""Synthetic stand-ins for the paper's eleven real datasets (Table 2).

The originals (SOSD + GRE additions) are multi-GB downloads we cannot
fetch offline.  What the paper's analysis actually consumes is each
dataset's *position in the (global, local) PLA-hardness plane* and a
few distributional quirks (fb's outliers, wiki's duplicates, planet's
CDF deflection).  Each generator below reproduces its dataset's
documented character:

======== ============================== =======================================
name     paper's description             CDF character reproduced
======== ============================== =======================================
covid    uniformly sampled Tweet IDs     uniform → easy/easy
wise     WISE partition keys             uniform → easy/easy
stack    Stackoverflow vote IDs          near-sequential, small gaps → easy
libio    libraries.io repository IDs     sequential w/ bursty gaps → easy
history  OSM history node IDs            a few linear regimes → easy-moderate
books    Amazon sales popularity         smooth convex (power-law) → moderate
wiki     Wikipedia edit timestamps       near-linear bursts + DUPLICATES
genome   loci pairs in human chromosomes globally smooth, locally bumpy
                                         (dense micro-clusters) → local-hard
fb       upsampled Facebook user IDs     locally chaotic + a few enormous
                                         outlier keys → local-hard
planet   OSM planet IDs                  sharp density deflection + drifting
                                         curvature → global-hard
osm      OSM locations (1-D projection   multi-scale fractal clustering →
         of spatial data)                hard in BOTH dimensions
======== ============================== =======================================

All generators are deterministic in ``(n, seed)`` and return sorted
unique keys (except ``wiki``, which returns sorted keys with ~10%
duplicates, as in SOSD).

Draws from one fixed range come as arrays: ``_randbelow_array`` takes
``random.Random``'s own Mersenne Twister words in blocks and rejects
them in numpy, so a run of ``k`` draws is the same keys, and leaves the
same ``getstate()``, as ``k`` calls of ``rng._randbelow``.  ``covid``,
``wise``, ``stack``, ``history``, ``planet``'s sparse tail and every
``_filled`` top-up draw that way.  The rest stay one call per draw,
where an array would have to guess the stream's shape:

- ``libio`` and ``wiki`` interleave draws of different shapes (a
  ``random()`` or a burst test between gaps);
- the ``osm`` cascade and the ``genome`` clusters change their range
  every few draws;
- ``books``, ``fb`` and ``planet``'s dense prefix go through
  ``math.log`` / ``exp``, where numpy may differ from libm in the last
  ulp.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List

import numpy as np

Keys = List[int]

_U64_MAX = 2**63  # stay comfortably inside u64

#: Draws per ``getrandbits`` call: at most 2**17 words, 512 KiB.
_DRAW_BLOCK = 1 << 16


def _randbelow_array(rng: random.Random, width: int, count: int) -> np.ndarray:
    """``[rng._randbelow(width) for _ in range(count)]`` as an int64
    array, leaving ``rng`` in the state that loop leaves.

    ``_randbelow`` is ``getrandbits(k)``, ``k = width.bit_length()``,
    redrawn while ``>= width``.  A ``k <= 32`` draw is one 32-bit word's
    top ``k`` bits; a wider one is a whole low word, then the next
    word's top ``k - 32`` bits.  ``getrandbits(32 * m)`` is the next
    ``m`` words, low word first, so one call hands numpy a block of the
    stream.  A round draws as many values as are still missing, each
    needing at least its words, so the stream stops on the loop's last
    draw.
    """
    if type(rng) is not random.Random:
        raise TypeError(f"need a plain random.Random, got {type(rng).__name__}")
    if not 1 <= width <= 2**63 or count < 0:
        raise ValueError(f"width {width} outside [1, 2**63] or count {count} < 0")
    k = width.bit_length()
    per = 1 if k <= 32 else 2
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        m = per * min(count - done, _DRAW_BLOCK)
        words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        if per == 1:
            vals = np.frombuffer(words, "<u4") >> np.uint32(32 - k)
        else:  # one little-endian u8 per draw: low word | high word << 32
            pairs = np.frombuffer(words, "<u8")
            vals = ((pairs & np.uint64(2**32 - 1))
                    | (pairs >> np.uint64(96 - k) << np.uint64(32)))
        vals = vals[vals < width]
        out[done:done + len(vals)] = vals
        done += len(vals)
    return out


def _unique_sorted(keys: Keys) -> Keys:
    return sorted(set(keys))


def _filled(keys: set, n: int, rng: random.Random, lo: int, hi: int) -> Keys:
    """``keys`` topped up to ``n`` distinct keys with uniform draws from
    ``[lo, hi)``; the ``n`` smallest, sorted.

    A round draws as many keys as are still missing: one draw per key
    would draw at least that many more, so the rounds end on its last
    draw, with its keys and its ``rng`` state."""
    have = np.sort(np.fromiter(keys, np.int64, len(keys)))
    if len(have) < n and hi - lo < n and len(have) + hi - lo - (
            np.searchsorted(have, hi) - np.searchsorted(have, lo)) < n:
        raise ValueError(f"[lo={lo}, hi={hi}) cannot top {len(have)} keys up to n={n}")
    while len(have) < n:
        have = np.concatenate((have, _randbelow_array(rng, hi - lo, n - len(have)) + lo))
        have.sort()
        have = have[np.append(True, have[1:] != have[:-1])]
    return have[:n].tolist()


def _uniform(n: int, rng: random.Random, lo: int, hi: int) -> Keys:
    return _filled(set(), n, rng, lo, hi)


# ---------------------------------------------------------------------------
# Easy datasets
# ---------------------------------------------------------------------------

def covid(n: int, seed: int = 0) -> Keys:
    """Uniformly sampled Tweet IDs (Snowflake-style 64-bit)."""
    rng = random.Random(f"covid-{seed}")
    return _uniform(n, rng, 1_200_000_000_000_000_000, 1_400_000_000_000_000_000)


def wise(n: int, seed: int = 0) -> Keys:
    """WISE survey partition keys: uniform over the key domain."""
    rng = random.Random(f"wise-{seed}")
    return _uniform(n, rng, 0, _U64_MAX)


def stack(n: int, seed: int = 0) -> Keys:
    """Stackoverflow vote IDs: sequential with small random holes."""
    gaps = _randbelow_array(random.Random(f"stack-{seed}"), 8, n) + 1
    return (np.cumsum(gaps) + 10_000_000).tolist()


def libio(n: int, seed: int = 0) -> Keys:
    """libraries.io repository IDs: sequential with bursty gaps."""
    rng = random.Random(f"libio-{seed}")
    keys = []
    k = 1_000_000
    for _ in range(n):
        k += rng.randint(1, 4) if rng.random() < 0.995 else rng.randint(50, 400)
        keys.append(k)
    return keys


def history(n: int, seed: int = 0) -> Keys:
    """OSM history node IDs: a handful of linear density regimes."""
    rng = random.Random(f"history-{seed}")
    regimes = [1, 12, 3, 40, 7]
    per = n // len(regimes)
    gaps = [_randbelow_array(rng, 2 * step, per) for step in regimes]
    gaps.append(_randbelow_array(rng, 4, n - per * len(regimes)))
    return np.cumsum(np.concatenate(gaps) + 1).tolist()


def books(n: int, seed: int = 0) -> Keys:
    """Amazon book popularity: smooth convex power-law CDF."""
    rng = random.Random(f"books-{seed}")
    keys = []
    k = 0
    for i in range(n):
        # Gap grows polynomially with rank: smooth global curvature.
        base = 1 + (i / n) ** 2 * 2000
        k += max(1, int(rng.expovariate(1.0 / base)))
        keys.append(k)
    return keys


def wiki(n: int, seed: int = 0) -> Keys:
    """Wikipedia edit timestamps: bursty seconds, ~10% duplicates.

    The only dataset with duplicate keys (used by Appendix B).
    """
    rng = random.Random(f"wiki-{seed}")
    keys = []
    t = 1_000_000_000
    while len(keys) < n:
        t += rng.randint(0, 3)
        burst = 1 + (rng.randrange(10) == 0) * rng.randint(1, 3)
        for _ in range(min(burst, n - len(keys))):
            keys.append(t)
    return keys


def wiki_unique(n: int, seed: int = 0) -> Keys:
    """De-duplicated wiki variant for unique-key experiments.

    A draw keeps about 62% of its keys, so ``n * 1.6`` falls just short
    for large ``n``: each retry past the first draws 25% more (a longer
    prefix of the same stream), so every ``n`` returns."""
    keys = _unique_sorted(wiki(int(n * 1.25), seed))
    scale = 1.6
    while len(keys) < n:
        keys = _unique_sorted(wiki(int(n * scale), seed + 1))
        scale *= 1.25
    return keys[:n]


# ---------------------------------------------------------------------------
# Hard datasets
# ---------------------------------------------------------------------------

def genome(n: int, seed: int = 0) -> Keys:
    """Human-genome loci pairs: smooth at macro scale, bumpy locally.

    Micro-clusters of ~100 keys sit at uniformly-spread centres: a
    coarse ε=4096 line absorbs whole clusters (low global H), but at
    ε=32 every cluster needs several of its own segments (high local H).
    """
    rng = random.Random(f"genome-{seed}")
    cluster_size = 100
    n_clusters = max(1, n // cluster_size)
    span = _U64_MAX // (n_clusters + 1)
    keys = set()
    for c in range(n_clusters):
        centre = (c + 1) * span + rng.randrange(-span // 8, span // 8)
        width = rng.randint(200, 4000)  # dense: ~100 keys in a tiny range
        for _ in range(cluster_size):
            keys.add(centre + rng.randrange(width))
    return _filled(keys, n, random.Random(f"genome-fill-{seed}"), 0, _U64_MAX)


def fb(n: int, seed: int = 0) -> Keys:
    """Upsampled Facebook user IDs: chaotic local density + outliers.

    Gap sizes follow a heavy-tailed lognormal (densities change every
    few keys → high local hardness) and a few extreme keys near 2^62
    reproduce the outliers that fool the MSE metric (Appendix D).
    """
    rng = random.Random(f"fb-{seed}")
    keys = []
    k = 0
    for _ in range(n - 3):
        k += max(1, int(rng.lognormvariate(4.0, 2.5)))
        keys.append(k)
    # The infamous outliers.
    keys.extend([2**62, 2**62 + 2**55, 2**62 + 2**58])
    return _unique_sorted(keys)[:n]


def planet(n: int, seed: int = 0) -> Keys:
    """OSM planet IDs: sharp CDF deflection (Figure 1a) + curvature.

    ~70% of keys crowd a small dense prefix whose density itself drifts
    (several coarse segments), then the CDF deflects into a sparse tail
    — high *global* hardness, mild local hardness.
    """
    rng = random.Random(f"planet-{seed}")
    n_dense = int(n * 0.7)
    # Dense region whose density itself shifts through many coarse
    # regimes (log-uniform densities): every regime boundary costs the
    # coarse PLA another segment — global hardness.
    k = 0
    dense = []
    n_regimes = 40
    per = max(1, n_dense // n_regimes)
    for _ in range(n_regimes):
        density = math.exp(rng.uniform(0.0, 7.0))  # gap scale 1 .. ~1100
        for _ in range(per):
            k += max(1, int(rng.uniform(0.5, 1.5) * density))
            dense.append(k)
    deflection = dense[-1]
    sparse_span = deflection * 2000  # tail is ~2000x sparser
    sparse = _randbelow_array(rng, sparse_span - 1, max(0, n - len(dense)))
    return _filled(set(dense + (sparse + (deflection + 1)).tolist()), n,
                   random.Random(f"planet-fill-{seed}"),
                   deflection, deflection + sparse_span)


def osm(n: int, seed: int = 0) -> Keys:
    """OSM locations: 1-D projection of spatial data → multi-scale
    fractal clustering, hard at every ε (the paper's worst case).

    Generated with a multiplicative cascade: the key space is split
    recursively with heavily skewed mass, giving clusters inside
    clusters inside clusters.
    """
    rng = random.Random(f"osm-{seed}")

    def cascade(lo: int, hi: int, count: int, depth: int, out: set) -> None:
        if count <= 0 or hi - lo < 2:
            return
        if depth == 0 or count < 8:
            for _ in range(count):
                out.add(rng.randrange(lo, hi))
            return
        mid = (lo + hi) // 2
        w = rng.betavariate(0.35, 0.35)  # strongly skewed split
        left = int(count * w)
        cascade(lo, mid, left, depth - 1, out)
        cascade(mid, hi, count - left, depth - 1, out)

    out: set = set()
    cascade(0, _U64_MAX, int(n * 1.05), 18, out)
    return _filled(out, n, random.Random(f"osm-fill-{seed}"), 0, _U64_MAX)


#: All stand-ins, keyed by the paper's dataset names.  ``wiki`` maps to
#: the unique variant used in the main experiments; ``wiki_dup`` is the
#: duplicated original for Appendix B.
GENERATORS: Dict[str, Callable[[int, int], Keys]] = {
    "covid": covid,
    "wise": wise,
    "stack": stack,
    "libio": libio,
    "history": history,
    "books": books,
    "wiki": wiki_unique,
    "wiki_dup": wiki,
    "genome": genome,
    "fb": fb,
    "planet": planet,
    "osm": osm,
}
