"""Dataset stand-ins: determinism, hardness plane, registry, zipfian."""

import collections
import hashlib
import threading
import time

import pytest

from repro.core.hardness import pla_hardness
from repro.datasets import real, registry
from repro.datasets.registry import scaled_epsilons
from repro.datasets.synthetic import corner_datasets, generate_hardness_controlled, measure
from repro.datasets.zipfian import ScrambledZipfian, ZipfianGenerator

_N = 8000


def test_all_generators_deterministic():
    for name in registry.names(include_duplicates=True):
        ds = registry.get(name)
        a = ds.generate(2000, seed=3)
        b = ds.generate(2000, seed=3)
        assert a == b, name
        c = ds.generate(2000, seed=4)
        assert a != c, name


#: sha256 of ``repr(keys)`` at (6000, seed 1), recorded at the commit
#: before the fill loops stopped re-sorting per key (PR 17).
_FILL_DIGESTS = {
    "genome": "ba83e3a1131712dbc7873c4abe62b353aa8b8487a3f7dc971b0611363876f9f2",
    "planet": "090def5b95cc54c931c6d8fe7c181b2481f88528e2f78d92231414b5b94336fa",
    "osm": "2ef00214cf7d702bdb41259a32f822de580f4bd0e69c0afe9189d602391406d9",
}


@pytest.mark.parametrize("name", sorted(_FILL_DIGESTS))
def test_fill_loop_generators_keep_their_keys(name):
    keys = getattr(real, name)(6000, 1)
    assert keys == sorted(set(keys)) and len(keys) == 6000
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == _FILL_DIGESTS[name]


def test_wiki_unique_returns_for_every_n():
    """The retry repeated one draw, ``wiki(int(n * 1.6), seed + 1)``,
    which holds 199,661 unique keys for n = 200,000: it looped forever.
    n = 100,000 is reached by that first retry; its keys are pinned as
    they were before the fix."""
    out = []
    worker = threading.Thread(
        target=lambda: out.append(real.wiki_unique(200_000)), daemon=True)
    worker.start()
    worker.join(timeout=120.0)
    assert out, "wiki_unique(200_000) did not return"
    keys = out[0]
    assert len(keys) == 200_000
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert hashlib.sha256(repr(real.wiki_unique(100_000)).encode()).hexdigest() \
        == "3758fe2febc46eee356f9fea9462c562de9a452649b4f2154b8dc8f51c7fc930"


def test_genome_fill_is_not_quadratic():
    """It drew one key and re-sorted the list per missing key: 23.5 s
    at 50k keys.  One sort: ~0.04 s."""
    t0 = time.perf_counter()
    assert len(real.genome(50_000)) == 50_000
    assert time.perf_counter() - t0 < 2.0


def test_generation_memoized_but_copies_isolated():
    registry.generation_cache_clear()
    before = registry.generation_cache_info()
    a = registry.get("genome").generate(1500, seed=9)
    mid = registry.generation_cache_info()
    assert mid.misses == before.misses + 1
    b = registry.get("genome").generate(1500, seed=9)
    after = registry.generation_cache_info()
    assert after.hits == mid.hits + 1       # second call served from cache
    assert a == b and a is not b            # equal keys, caller-owned lists
    b[0] = -1                               # mutating a copy...
    assert registry.get("genome").generate(1500, seed=9)[0] == a[0]  # ...is safe


def test_unregistered_dataset_bypasses_cache():
    ds = registry.get("covid")
    rogue = registry.Dataset(
        name="covid", description="ad-hoc", source="test",
        hardness_class="easy", has_duplicates=False,
        generator=lambda n, seed: list(range(n)),
    )
    assert rogue.generate(10, seed=0) == list(range(10))
    assert ds.generate(10, seed=0) != list(range(10))


def test_all_generators_sorted_and_sized():
    for name in registry.names(include_duplicates=True):
        ds = registry.get(name)
        keys = ds.generate(_N, seed=0)
        assert len(keys) == _N, name
        assert all(a <= b for a, b in zip(keys, keys[1:])), name
        if not ds.has_duplicates:
            assert len(set(keys)) == _N, name


def test_wiki_dup_has_duplicates():
    keys = registry.get("wiki_dup").generate(_N, seed=0)
    assert len(set(keys)) < _N


def test_keys_fit_in_u64():
    for name in registry.names():
        keys = registry.get(name).generate(2000, seed=0)
        assert keys[0] >= 0 and keys[-1] < 2**64, name


def test_hardness_plane_matches_paper():
    """Relative hardness ordering must match Table 2 / Figures C-D."""
    g_eps, l_eps = scaled_epsilons(_N)
    H = {}
    for name in registry.heatmap_names():
        keys = registry.get(name).generate(_N, seed=0)
        H[name] = (pla_hardness(keys, g_eps), pla_hardness(keys, l_eps))
    # osm and planet are the globally hardest datasets.
    easy_global = max(H[n][0] for n in ("covid", "libio", "stack", "wiki"))
    assert H["osm"][0] > easy_global
    assert H["planet"][0] > easy_global
    # fb and genome are the locally hardest; they beat planet locally.
    assert H["fb"][1] > H["planet"][1]
    assert H["genome"][1] > H["planet"][1]
    easy_local = max(H[n][1] for n in ("stack", "wiki"))
    assert H["fb"][1] > 3 * easy_local
    assert H["osm"][1] > 3 * easy_local
    # genome is globally smooth despite local bumps (Figure 1b).
    assert H["genome"][0] <= easy_global + 2


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        registry.get("nope")


def test_registry_rejects_bad_n():
    with pytest.raises(ValueError):
        registry.get("covid").generate(0)


def test_scaled_epsilons_ratio():
    g, l = scaled_epsilons(200_000)
    assert g > l
    assert g >= 64 and l >= 4


def test_synthetic_generator_validates():
    with pytest.raises(ValueError):
        generate_hardness_controlled(100, 5, 2)
    with pytest.raises(ValueError):
        generate_hardness_controlled(100, 0, 2)


def test_synthetic_hardness_knobs_work():
    n = 10000
    easy = generate_hardness_controlled(n, 1, 2, seed=1)
    ghard = generate_hardness_controlled(n, 20, 20, seed=1)
    lhard = generate_hardness_controlled(n, 1, 150, seed=1)
    g_e, l_e = measure(easy)
    g_g, l_g = measure(ghard)
    g_l, l_l = measure(lhard)
    assert g_g > g_e          # global knob raises global hardness
    assert l_l > l_e          # local knob raises local hardness
    assert g_l <= g_g         # local-only stays globally easier


def test_synthetic_sorted_unique():
    keys = generate_hardness_controlled(5000, 4, 40, seed=2)
    assert len(keys) == 5000
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_corner_datasets_cover_plane():
    corners = corner_datasets(8000, seed=0)
    assert set(corners) == {"easy-easy", "global-hard", "local-hard", "hard-hard"}
    g_easy, l_easy = measure(corners["easy-easy"])
    g_hard, l_hard = measure(corners["hard-hard"])
    assert g_hard > g_easy and l_hard > l_easy


def test_zipfian_skew():
    gen = ZipfianGenerator(1000, theta=0.99, seed=1)
    counts = collections.Counter(gen.next_rank() for _ in range(20000))
    # Rank 0 must be by far the hottest.
    assert counts[0] > 0.05 * 20000
    assert counts[0] > counts.get(500, 0) * 10


def test_zipfian_validation():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.5)


def test_scrambled_zipfian_spreads_hot_keys():
    keys = list(range(0, 10000, 10))
    gen = ScrambledZipfian(keys, seed=2)
    sample = [gen.next_key() for _ in range(5000)]
    assert all(k in set(keys) for k in set(sample))
    hot = collections.Counter(sample).most_common(3)
    # Hot keys are hashed, not the numerically-smallest keys.
    assert any(k > 1000 for k, _ in hot)


def test_zipfian_deterministic():
    a = ZipfianGenerator(100, seed=5)
    b = ZipfianGenerator(100, seed=5)
    assert [a.next_rank() for _ in range(50)] == [b.next_rank() for _ in range(50)]
