"""Dataset stand-ins: determinism, hardness plane, registry, zipfian."""

import collections
import hashlib
import random
import threading
import time
from unittest import mock

import pytest

from repro.core.hardness import pla_hardness
from repro.datasets import real, registry
from repro.datasets.registry import scaled_epsilons
from repro.datasets.synthetic import corner_datasets, generate_hardness_controlled, measure
from repro.datasets.zipfian import ScrambledZipfian, ZipfianGenerator
from tests import dataset_reference as reference

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


#: sha256 of ``repr(keys)`` at (n, seed 1), recorded at the commit
#: before fixed-range draws became arrays (``real._randbelow_array``).
_ARRAY_DIGESTS = {
    ("covid", 6000): "1f4cf5bea7efa54cda0ab572debb1fd9362200125c460e0ba1a41764e701f973",
    ("covid", 100_000): "7516c1184a38022e499c5b7d1e2cd3bfc66bd25f06c60e2e9bad6e85bdecfc93",
    ("wise", 6000): "973845b145c40e9628e007f67d60585aa6c7eee6fb4a79a2d6e699b26b3cabef",
    ("wise", 100_000): "771a7f30cbf53f114198b8809eea04873de8937086c4e6c8871b327faf5f9104",
    ("stack", 6000): "05143a547443fbd95698981e42361a4f9e4ae378772962b2734153ab3ff752eb",
    ("stack", 100_000): "fefa9c8f6abf8bd20739c148c3cc96f7ce2ec31ea0e6eaab04c6f06258826836",
    ("history", 6000): "623e60b062ecad4398cce6664c0a5ee906b5497a0a21bdf430388320f1cb793c",
    ("history", 100_000): "cc71ecdedc5db3bc6c27b94e402c02a78b21e79f83e69f2fc10ac41d81e3f4a4",
}


@pytest.mark.parametrize("name,n", sorted(_ARRAY_DIGESTS))
def test_array_drawn_generators_keep_their_keys(name, n):
    keys = getattr(real, name)(n, 1)
    assert len(keys) == n and all(type(k) is int for k in keys[:5])
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == _ARRAY_DIGESTS[name, n]


def _reference_generator(name):
    """The draw-per-key twin of a generator ``real`` draws as arrays."""
    if hasattr(reference, name):
        return getattr(reference, name)

    def twin(n, seed):
        with mock.patch.object(real, "_filled", reference.filled):
            return getattr(real, name)(n, seed)
    return twin


@pytest.mark.parametrize("name", ["covid", "wise", "stack", "history",
                                  "planet", "genome", "osm"])
def test_array_draws_equal_the_draw_per_key_loops(name):
    twin = _reference_generator(name)
    for n in (1, 7, 1000, 20_000):
        for seed in (0, 1, 7):
            assert getattr(real, name)(n, seed) == twin(n, seed), (name, n, seed)


def _primed(seed):
    """A ``random.Random`` mid-stream with a cached gauss value."""
    rng = random.Random(seed)
    rng.gauss(0.0, 1.0)
    rng.random()
    return rng


@pytest.mark.parametrize("width", [1, 2, 3, 8, 2**31, 2**32 - 1, 2**32,
                                   2**32 + 1, 2 * 10**17, 2**63])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_randbelow_array_replays_randbelow(width, count):
    for seed in (0, "covid-1"):
        rng, twin = _primed(seed), _primed(seed)
        out = real._randbelow_array(rng, width, count)
        assert out.dtype == "int64"
        assert out.tolist() == [twin._randbelow(width) for _ in range(count)]
        assert rng.getstate() == twin.getstate()
        assert rng.random() == twin.random()


def test_randbelow_array_crosses_the_twist_and_its_blocks():
    """Past several 624-word state refills and more than one draw block,
    starting from a fresh seed's ``pos == 624``."""
    count = 2 * real._DRAW_BLOCK + 5
    rng, twin = random.Random(3), random.Random(3)
    out = real._randbelow_array(rng, 3, count)
    assert out.tolist() == [twin._randbelow(3) for _ in range(count)]
    assert rng.getstate() == twin.getstate()


def test_randbelow_array_refuses_before_any_draw():
    class Sub(random.Random):
        pass

    rng = _primed(5)
    state = rng.getstate()
    for width, count in ((0, 1), (-3, 1), (2**63 + 1, 1), (8, -1)):
        with pytest.raises(ValueError):
            real._randbelow_array(rng, width, count)
    with pytest.raises(TypeError):
        real._randbelow_array(Sub(5), 8, 1)
    with pytest.raises(TypeError):
        real._randbelow_array(random.SystemRandom(), 8, 1)
    assert rng.getstate() == state


@pytest.mark.parametrize("start,n,lo,hi", [
    ({5, 17, 10**12}, 3000, 0, 2**40),                # non-empty start
    (set(range(0, 4000, 3)), 1000, 0, 2**20),         # start larger than n
    ({1, 2, 3, 5000}, 1000, 0, 1040),                 # width close to n
], ids=["non-empty", "larger-than-n", "narrow"])
def test_filled_equals_the_draw_per_key_loop(start, n, lo, hi):
    for seed in (0, 1):
        rng, twin = random.Random(seed), random.Random(seed)
        assert real._filled(set(start), n, rng, lo, hi) \
            == reference.filled(set(start), n, twin, lo, hi)
        assert rng.getstate() == twin.getstate()


def test_filled_refuses_a_range_that_cannot_supply_n():
    """``[0, 5)`` holds five keys, so topping up to ten drew forever."""
    rng = random.Random(0)
    state = rng.getstate()
    out = []

    def call():
        try:
            real._filled(set(), 10, rng, 0, 5)
        except ValueError as exc:
            out.append(str(exc))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert out, "_filled(set(), 10, rng, 0, 5) did not return"
    assert "n=10" in out[0] and "lo=0" in out[0] and "hi=5" in out[0]
    assert rng.getstate() == state
    # Keys already in range count once; one outside the range counts.
    with pytest.raises(ValueError):
        real._filled({1, 2}, 6, random.Random(0), 0, 5)
    assert real._filled({1, 2, 99}, 6, random.Random(0), 0, 5) \
        == [0, 1, 2, 3, 4, 99]


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
