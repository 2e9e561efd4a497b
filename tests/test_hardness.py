"""Optimal PLA and hardness metrics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hardness import (
    Segment,
    global_hardness,
    local_hardness,
    mse_hardness,
    optimal_pla,
    pla_hardness,
    verify_pla,
)
from repro.datasets import registry as datasets
from tests.pla_reference import reference_optimal_pla


def test_perfectly_linear_data_needs_one_segment():
    keys = [i * 1000 for i in range(5000)]
    segs = optimal_pla(keys, epsilon=4)
    assert len(segs) == 1
    assert verify_pla(keys, segs, 4)


def test_epsilon_zero_on_linear_data():
    keys = [i * 7 for i in range(100)]
    segs = optimal_pla(keys, epsilon=0)
    assert len(segs) == 1
    assert verify_pla(keys, segs, 0)


def test_two_slopes_need_two_segments():
    keys = [i for i in range(1000)] + [1000 + i * 1000 for i in range(1000)]
    segs = optimal_pla(keys, epsilon=2)
    assert len(segs) == 2
    assert verify_pla(keys, segs, 2)


def test_hardness_decreases_with_epsilon():
    """For the same data, H(small ε) >= H(large ε)."""
    rng = random.Random(1)
    keys = sorted({rng.randrange(2**32) for _ in range(3000)})
    h_small = pla_hardness(keys, 8)
    h_large = pla_hardness(keys, 256)
    assert h_small >= h_large >= 1


def test_clustered_data_harder_than_linear():
    """Uniform random keys are nearly linear (the paper's "most real
    datasets are easy"); *clustered* keys genuinely need more segments."""
    rng = random.Random(2)
    clustered = sorted(
        {rng.randrange(c * 2**30, c * 2**30 + 1000) for c in range(50) for _ in range(40)}
    )
    linear_keys = [i * 2**20 for i in range(len(clustered))]
    assert pla_hardness(clustered, 16) > pla_hardness(linear_keys, 16)
    # And uniform random is easier than clustered at the same epsilon.
    uniform = sorted({rng.randrange(2**40) for _ in range(len(clustered))})
    assert pla_hardness(clustered, 16) > pla_hardness(uniform, 16)


def test_empty_and_tiny_inputs():
    assert optimal_pla([], 8) == []
    segs = optimal_pla([42], 8)
    assert len(segs) == 1 and segs[0].length == 1
    segs = optimal_pla([1, 2], 8)
    assert len(segs) == 1 and segs[0].length == 2


def test_segments_partition_the_array():
    rng = random.Random(3)
    keys = sorted({rng.randrange(2**36) for _ in range(1500)})
    segs = optimal_pla(keys, 32)
    covered = 0
    for seg in segs:
        assert seg.first_index == covered
        covered += seg.length
    assert covered == len(keys)


def test_large_keys_no_overflow():
    base = 2**60
    keys = [base + i * i for i in range(2000)]  # quadratic: needs many segs
    segs = optimal_pla(keys, 16)
    assert verify_pla(keys, segs, 16)
    assert len(segs) > 1


def test_default_epsilons_match_paper():
    keys = [i * 3 for i in range(500)]
    assert global_hardness(keys) == pla_hardness(keys, 4096)
    assert local_hardness(keys) == pla_hardness(keys, 32)


def test_mse_hardness_outlier_sensitivity():
    """Appendix D: a few extreme outliers blow up MSE but not PLA."""
    n = 2000
    smooth = [i * 1000 for i in range(n)]
    with_outliers = smooth[:-3] + [2**55, 2**56, 2**57]
    mse_ratio = mse_hardness(with_outliers) / max(mse_hardness(smooth), 1e-12)
    pla_ratio = pla_hardness(with_outliers, 4096) / pla_hardness(smooth, 4096)
    assert mse_ratio > pla_ratio  # MSE overreacts relative to PLA


def test_mse_degenerate():
    assert mse_hardness([]) == 0.0
    assert mse_hardness([5]) == 0.0


def test_segment_last_index():
    seg = Segment(first_key=10, first_index=5, length=3, model=None)
    assert seg.last_index == 7


@given(st.sets(st.integers(min_value=0, max_value=2**48), min_size=2, max_size=400),
       st.sampled_from([0, 1, 4, 16, 64]))
@settings(max_examples=40, deadline=None)
def test_property_pla_guarantee_holds(keys, eps):
    keys = sorted(keys)
    segs = optimal_pla(keys, eps)
    assert verify_pla(keys, segs, eps)
    assert sum(s.length for s in segs) == len(keys)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=200))
@settings(max_examples=30, deadline=None)
def test_property_greedy_is_no_worse_than_epsilon_inf(deltas):
    """With ε larger than n, everything fits one segment."""
    keys = []
    acc = 0
    for d in deltas:
        acc += d
        keys.append(acc)
    segs = optimal_pla(keys, epsilon=len(keys) + 1)
    assert len(segs) == 1


# -- the flat loop against the segmenter it replaced --------------------------

def _assert_same_segments(keys, eps):
    got = optimal_pla(keys, eps)
    want = reference_optimal_pla(keys, eps)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.first_key, a.first_index, a.length) == (
            b.first_key, b.first_index, b.length)
        # Bit-for-bit, not approximately: merges must build the same runs.
        assert (a.model.slope, a.model.intercept, a.model.anchor) == (
            b.model.slope, b.model.intercept, b.model.anchor)


@pytest.mark.parametrize("dataset", ["covid", "osm", "fb"])
@pytest.mark.parametrize("eps", [0, 4, 64, 4096])
def test_flat_pla_matches_the_segmenter_on_datasets(dataset, eps):
    keys = datasets.get(dataset).generate(6000, seed=2)
    _assert_same_segments(keys, eps)
    # An upper PGM level: the first keys of the level below.
    _assert_same_segments([s.first_key for s in optimal_pla(keys, 4)], eps)


@given(st.lists(st.one_of(st.integers(0, 60),
                          st.integers(0, 2**64 - 1),
                          st.integers(2**62, 2**62 + 200)),
                max_size=300),
       st.sampled_from([0, 1, 2, 8, 64]))
@settings(max_examples=150, deadline=None)
def test_flat_pla_matches_the_segmenter_with_duplicate_keys(keys, eps):
    """Small ranges force runs of equal keys, including a run at the
    start of the array and right after a segment break."""
    _assert_same_segments(sorted(keys), eps)
