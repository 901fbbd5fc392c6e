"""Exact staleness arithmetic and the convergence-bound calculators."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl import staleness as stale
from adl.errors import DomainError

query = st.tuples(st.integers(0, 60),    # s
                  st.integers(1, 10),    # K
                  st.integers(1, 8))     # M


# ---------------------------------------------------------------- LoS core

def test_module_staleness_group_pattern():
    # K=3, k=2, M=4: the four slots of every update see delays 1,1,0,0
    got = [stale.steady_staleness(3, 2, 4, j) for j in range(4)]
    assert got == [1, 1, 0, 0]
    for s in (0, 1, 9):
        assert [s - stale.effective_version(s, j, 3, 2, 4)
                for j in range(4)] == [min(s, d) for d in got]


def test_top_module_never_stale():
    for K in range(1, 8):
        for M in (1, 2, 4):
            for j in range(M):
                assert stale.steady_staleness(K, K, M, j) == 0


def test_no_accumulation_delay_is_two_per_hop():
    # M=1: steady-state delay is exactly 2*(K-k) updates
    assert 20 - stale.effective_version(20, 0, 8, 1, 1) == 14
    for k in range(1, 9):
        assert stale.steady_staleness(8, k, 1, 0) == 2 * (8 - k)


@given(query, st.data())
@settings(max_examples=400, deadline=None)
def test_staleness_bounds_and_clamping(q, data):
    s, K, M = q
    k = data.draw(st.integers(1, K))
    j = data.draw(st.integers(0, M - 1))
    d = stale.steady_staleness(K, k, M, j)
    assert 0 <= d <= 2 * (K - k)
    # the closed form is exact for every s, pipeline fill included
    assert d == s - (M * s + j - 2 * (K - k)) // M
    v = stale.effective_version(s, j, K, k, M)
    assert v == max(0, s - d)
    assert 0 <= v <= s


@given(query, st.data())
@settings(max_examples=200, deadline=None)
def test_averaged_los_is_group_average(q, data):
    _, K, M = q
    k = data.draw(st.integers(1, K))
    a = stale.averaged_los(K, k, M)
    for s in (0, 10 ** 6):  # first update, and far past pipeline fill
        brute = Fraction(sum(s - (M * s + j - 2 * (K - k)) // M
                             for j in range(M)), M)
        assert a == brute == Fraction(2 * (K - k), M)
    assert isinstance(a, Fraction)
    total = stale.averaged_los_sum(K, M)
    assert total == Fraction(K * (K - 1), M)
    assert total == sum(stale.averaged_los(K, i, M) for i in range(1, K + 1))


def test_averaged_los_examples():
    assert stale.averaged_los(3, 2, 4) == Fraction(1, 2)
    assert stale.averaged_los(8, 1, 1) == 14
    assert stale.averaged_los(8, 1, 4) == Fraction(7, 2)
    assert all(stale.averaged_los(K, K, M) == 0
               for K in range(1, 9) for M in (1, 2, 4))


def test_averaged_los_nonincreasing_in_m():
    for K in (2, 3, 8):
        for k in range(1, K + 1):
            vals = [stale.averaged_los(K, k, M) for M in range(1, 9)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_accumulation_cuts_staleness_75_percent():
    before = stale.averaged_los(8, 1, 1)
    after = stale.averaged_los(8, 1, 4)
    assert (before, after) == (14, Fraction(7, 2))
    assert 1 - after / before == Fraction(3, 4)


def test_averaged_los_sum():
    # K=8, M=1: sum of 2*(K-k) = 2*(7+6+...+0) = 56
    assert stale.averaged_los_sum(8, 1) == 56
    assert stale.averaged_los_sum(3, 4) == Fraction(1, 2) + Fraction(1, 1)


# ------------------------------------------------------------ bound values

def test_theorem1_example():
    got = stale.theorem1_rhs(lr=0.1, grad_norm_sq=4.0, A=1.0, L=1.0,
                             M=2, dbar_sum=3.0)
    assert got == -0.1875


def test_theorem1_degenerate_and_monotone():
    assert stale.theorem1_rhs(0.0, 0.0, 1.0, 1.0, 1, 0.0) == 0.0
    vals = [stale.theorem1_rhs(0.1, 0.0, 1.0, 1.0, M, 3.0)
            for M in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theorem1_precondition():
    with pytest.raises(DomainError):
        stale.theorem1_rhs(2.0, 1.0, 1.0, 1.0, 1, 0.0)


def test_theorem2_example():
    got = stale.theorem2_rhs([0.1] * 10, gap=1.0, A=1.0, L=1.0,
                             M=1, dbar_sum=0.0)
    assert got == pytest.approx(2.2, abs=1e-12)


def test_theorem2_validation():
    with pytest.raises(DomainError):
        stale.theorem2_rhs([], 1.0, 1.0, 1.0, 1, 0.0)
    with pytest.raises(DomainError):
        stale.theorem2_rhs([0.1, 0.2], 1.0, 1.0, 1.0, 1, 0.0)  # increasing
    with pytest.raises(DomainError):
        stale.theorem2_rhs([2.0], 1.0, 1.0, 1.0, 1, 0.0)  # L*lr > 1


@pytest.mark.parametrize("lrs", [[0.1, 0.0], [-0.1], [float("nan")],
                                 [float("inf")]])
def test_theorem2_rejects_rates_that_are_not_positive_and_finite(lrs):
    with pytest.raises(DomainError, match="learning rates must be positive "
                                          "and finite"):
        stale.theorem2_rhs(lrs, 1.0, 1.0, 1.0, 1, 0.0)


def test_theorem2_improves_with_m():
    lrs = [0.05] * 20
    a = stale.theorem2_rhs(lrs, 1.0, 1.0, 1.0, 1, 6.0)
    b = stale.theorem2_rhs(lrs, 1.0, 1.0, 1.0, 2, 6.0)
    assert b < a


def test_theorem2_harmonic_vanishes():
    # with lr_s = c/(s+1) the bound tends to 0; sample S on a log grid and
    # require monotone decrease past the burn-in
    c, gap = 0.08, 0.01
    vals = []
    for S in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        lrs = c / np.arange(1.0, S + 1.0)
        vals.append(stale.theorem2_rhs(lrs, gap, 1.0, 1.0, 1, 0.0))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_theorem3_examples():
    lr = stale.theorem3_lr(1.0, 1.0, 4, 1.0, 1.0, 1, 0.0)
    assert lr == 0.5
    assert stale.theorem3_lr(1.0, 1.0, 16, 1.0, 1.0, 1, 0.0) == 0.25
    bound = stale.theorem3_bound(1.0, 1.0, 4, 1.0, 1.0, 1, 0.0)
    assert bound == 2.0
    assert stale.theorem3_bound(1.0, 1.0, 16, 1.0, 1.0, 1, 0.0) == 1.0


def test_theorem3_staleness_pushes_lr_down():
    lrs = [stale.theorem3_lr(1.0, 1.0, 4, 1.0, 1.0, 1, d)
           for d in (0.0, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))


def test_epsilon_one_minimizes_leading_factor():
    f = lambda e: (2 + 2 * e * e) / e
    assert f(1.0) <= min(f(e) for e in np.linspace(0.1, 4.0, 100))


def test_domain_validation():
    with pytest.raises(DomainError):
        stale.effective_version(-1, 0, 3, 1, 1)
    with pytest.raises(DomainError):
        stale.steady_staleness(3, 1, 4, 4)
    with pytest.raises(DomainError):
        stale.steady_staleness(3, 4, 1, 0)
    with pytest.raises(DomainError):
        stale.theorem3_lr(1.0, -1.0, 4, 1.0, 1.0, 1, 0.0)
    with pytest.raises(DomainError):
        stale.theorem3_bound(1.0, 1.0, 0, 1.0, 1.0, 1, 0.0)
    with pytest.raises(DomainError):
        stale.averaged_los(3, 2, 4.0)
    with pytest.raises(DomainError):
        stale.averaged_los(3, 1, 0)
    with pytest.raises(DomainError):
        stale.averaged_los_sum(0, 1)
