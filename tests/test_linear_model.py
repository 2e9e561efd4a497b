"""Unit and property tests for linear models and last-mile search."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.linear_model import (
    LinearModel,
    binary_search_lower,
    fmcd_model,
)
from tests.search_reference import exponential_search


def test_train_perfect_line():
    keys = [10, 20, 30, 40, 50]
    m = LinearModel.train(keys)
    for i, k in enumerate(keys):
        assert abs(m.predict(k) - i) < 1e-9


def test_train_single_and_empty():
    assert LinearModel.train([]).predict(5) == 0.0
    m = LinearModel.train([42])
    assert m.predict(42) == 0.0


def test_train_degenerate_equal_keys():
    m = LinearModel.train([7, 7, 7])
    assert m.slope == 0.0


def test_train_large_keys_numerically_stable():
    base = 2**62
    keys = [base + i * 1000 for i in range(100)]
    m = LinearModel.train(keys)
    # float64 loses ~1 ulp at 2**62 magnitude even with an exact slope;
    # the C++ implementations share this limit, so allow error < 2 slots.
    for i, k in enumerate(keys):
        assert abs(m.predict(k) - i) < 2.0


def test_predict_clamped_bounds():
    m = LinearModel(slope=1.0, intercept=0.0)
    assert m.predict_clamped(-5, 10) == 0
    assert m.predict_clamped(100, 10) == 9
    assert m.predict_clamped(3, 10) == 3
    assert m.predict_clamped(3, 0) == 0


def test_endpoints_model_maps_range():
    m = LinearModel.endpoints(100, 200, 11)
    assert m.predict_clamped(100, 11) == 0
    assert m.predict_clamped(200, 11) == 10
    assert m.predict_clamped(150, 11) == 5


def test_scaled_model():
    m = LinearModel.endpoints(0, 100, 10)
    s = m.scaled(2.0)
    assert abs(s.predict(100) - 2 * m.predict(100)) < 1e-9


def test_fmcd_model_low_collisions_on_uniform():
    rng = random.Random(3)
    keys = sorted(rng.sample(range(10**9), 1000))
    n_slots = 2000
    m = fmcd_model(keys, n_slots)
    slots = [m.predict_clamped(k, n_slots) for k in keys]
    collisions = len(slots) - len(set(slots))
    assert collisions < len(keys) * 0.4


def test_fmcd_tiny_inputs():
    assert fmcd_model([], 10).predict(0) == 0.0
    m = fmcd_model([5], 10)
    assert isinstance(m, LinearModel)


@given(st.lists(st.integers(min_value=0, max_value=2**60), min_size=1, unique=True),
       st.integers(min_value=0, max_value=2**60))
@settings(max_examples=60, deadline=None)
def test_exponential_search_matches_binary(keys, key):
    keys = sorted(keys)
    for hint in (0, len(keys) // 2, len(keys) - 1):
        idx, _ = exponential_search(keys, key, hint)
        assert idx == binary_search_lower(keys, key)


def test_exponential_search_empty():
    assert exponential_search([], 5, 0) == (0, 0)


def test_exponential_search_hint_out_of_range():
    keys = [1, 2, 3]
    idx, _ = exponential_search(keys, 2, hint=99)
    assert idx == 1
    idx, _ = exponential_search(keys, 2, hint=-7)
    assert idx == 1


def test_binary_search_lower_bounds():
    keys = [10, 20, 20, 30]
    assert binary_search_lower(keys, 5) == 0
    assert binary_search_lower(keys, 20) == 1
    assert binary_search_lower(keys, 35) == 4
