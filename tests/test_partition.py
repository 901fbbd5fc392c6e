"""Partition correctness, including an exhaustive bottleneck oracle."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl import net
from adl.errors import ConfigError
from adl.partition import (Partition, partition_by_cost, partition_by_params,
                           partition_even)


def brute_force_bottleneck(costs, K):
    """Minimum over all contiguous K-partitions of the max module cost,
    together with the lexicographically smallest optimal boundary tuple."""
    n = len(costs)
    best_val, best_bounds = None, None
    for cuts in combinations(range(1, n), K - 1):
        bounds = (0,) + cuts + (n,)
        bottleneck = max(sum(costs[lo:hi])
                         for lo, hi in zip(bounds, bounds[1:]))
        key = (bottleneck, bounds)
        if best_val is None or key < (best_val, best_bounds):
            best_val, best_bounds = bottleneck, bounds
    return best_val, best_bounds


def test_even_split_six_three():
    p = partition_even(6, 3)
    assert p.sizes() == [2, 2, 2]
    assert list(p.layers_of(1)) == [0, 1]
    assert list(p.layers_of(3)) == [4, 5]


def test_even_split_single_module():
    p = partition_even(5, 1)
    assert p.K == 1
    assert list(p.layers_of(1)) == [0, 1, 2, 3, 4]


def test_even_split_remainder_goes_early():
    assert partition_even(5, 3).sizes() == [2, 2, 1]
    assert partition_even(7, 3).sizes() == [3, 2, 2]


def test_cost_split_symmetric():
    p = partition_by_cost([1, 1, 1, 1], 2)
    assert p.bounds == (0, 2, 4)


def test_cost_split_heavy_first_layer():
    p = partition_by_cost([5, 1, 1, 1], 2)
    assert p.bounds == (0, 1, 4)
    assert max(sum([5, 1, 1, 1][lo:hi])
               for lo, hi in zip(p.bounds, p.bounds[1:])) == 5


def test_cost_split_singletons():
    assert partition_by_cost([1, 2, 3], 3).bounds == (0, 1, 2, 3)


def test_cost_split_leftmost_ties():
    # [2,2,2] with K=2: both {1}|{2,3} and {1,2}|{3} hit bottleneck 4;
    # the earlier boundary wins
    assert partition_by_cost([2, 2, 2], 2).bounds == (0, 1, 3)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=12),
       st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_cost_split_matches_exhaustive_oracle(costs, K):
    if K > len(costs):
        with pytest.raises(ConfigError):
            partition_by_cost(costs, K)
        return
    p = partition_by_cost(costs, K)
    oracle_val, oracle_bounds = brute_force_bottleneck(costs, K)
    got = max(sum(costs[lo:hi]) for lo, hi in zip(p.bounds, p.bounds[1:]))
    assert got == oracle_val
    assert p.bounds == oracle_bounds


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_partition_covers_all_layers(num_layers, K):
    if K > num_layers:
        with pytest.raises(ConfigError):
            partition_even(num_layers, K)
        return
    p = partition_even(num_layers, K)
    seen = []
    for k in range(1, K + 1):
        seen.extend(p.layers_of(k))
    assert seen == list(range(num_layers))
    assert max(p.sizes()) - min(p.sizes()) <= 1


def test_partition_by_params_uses_param_counts():
    # affine(4,4) costs 20, activations cost 0
    specs = [net.affine(4, 4), net.tanh(4), net.affine(4, 4), net.tanh(4)]
    p = partition_by_params(specs, 2)
    assert p.bounds == (0, 1, 4)  # leftmost optimum: [20] | [0, 20, 0]


def test_validation():
    with pytest.raises(ConfigError):
        Partition((0, 2, 2, 4))
    with pytest.raises(ConfigError):
        Partition((1, 4))
    with pytest.raises(ConfigError):
        partition_by_cost([1, -1], 1)
    with pytest.raises(ConfigError):
        partition_even(3, 0)
    with pytest.raises(ConfigError):
        partition_even(3, 2).layers_of(3)
