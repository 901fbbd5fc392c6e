"""Accumulator semantics, the accumulated-SGD step, and LR schedules."""
import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl import data, net, optimizer
from adl.errors import DomainError, ProtocolError
from adl.optimizer import (Accumulator, ConstantLr, Harmonic, SgdConfig,
                           Slot, StepDecay, ga_update, global_grad_norm,
                           grads_sumsq, lr_at)
from adl.partition import Partition
from adl.scheduler import TrainConfig, run_clocked


def acc_of(*grads, capacity=None, sizes=(1,)):
    acc = Accumulator(sizes, capacity or len(grads), 0)
    for t, g in enumerate(grads):
        acc.add([np.atleast_1d(np.asarray(g, dtype=float))], t, 0)
    return acc


def test_accumulate_two_scalars():
    acc = acc_of(0.2, 0.4)
    assert len(acc.slots) == 2
    np.testing.assert_allclose(acc.average()[0], [0.3])


def test_skipped_slot_contributes_zero():
    acc = Accumulator([1], 2, -1)
    acc.add([np.array([0.4])], 0, 0)
    assert acc.slots[0].skipped and not acc.slots[1].skipped
    assert acc.slots[0].batch_index == -1
    np.testing.assert_array_equal(acc.average()[0], [0.2])  # 0.4 / 2


@pytest.mark.parametrize("capacity,first,fill", [
    (3, -1, 1), (2, -2, 2), (2, -5, 2), (2, 0, 0), (1, 4, 0)])
def test_a_group_opens_with_its_fill_slots(capacity, first, fill):
    # the slots of negative batches are held from the start, at most
    # capacity of them; real gradients take the slots after them
    acc = Accumulator([1], capacity, first)
    assert acc.slots == [Slot(j, first + j) for j in range(fill)]
    for j in range(fill, capacity):
        acc.add([np.ones(1)], first + j, 0)
    assert [s.batch_index for s in acc.slots] == \
        list(range(first, first + capacity))


def test_a_first_gradient_is_added_to_zeros():
    # the sums start as 0.0 + g, the bits of zeros + g: -0.0 becomes +0.0
    acc = acc_of(-0.0)
    assert not np.signbit(acc.average()[0][0])


def test_the_first_gradient_becomes_the_sums():
    # the accumulator adopts the caller's arrays, turned into 0.0 + g in
    # place, and an M=1 update hands them over as the average
    g = np.array([-0.0, 1.5, -0.0])
    acc = Accumulator([3], 1, 0)
    acc.add([g], 0, 0)
    avg = acc.average()
    assert avg[0] is g
    assert not np.signbit(g).any()
    np.testing.assert_array_equal(g, [0.0, 1.5, 0.0])


def test_a_first_gradient_is_adopted_without_allocating():
    # one 256x256 affine layer's gradient: the first add keeps no copy
    n = net.affine(256, 256).param_count
    g = np.random.default_rng(0).standard_normal(n)
    acc = Accumulator([n], 2, 0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        acc.add([g], 0, 0)
        grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grown < 1024


_SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-323, 1.1e-308, -1.5e-310, np.inf,
            -np.inf, np.nan, 1.7e308, -1.7e308, 1.0, -3.0, 0.1]


@pytest.mark.parametrize("M,skipped", [(M, s) for M in (1, 2, 3, 4, 6, 8)
                                        for s in (0, 1) if s < M])
def test_the_average_has_the_bits_of_the_sum_over_m(M, skipped):
    # (0.0 + g1 + g2 + ...) / M bit for bit, NaN payloads and signs too,
    # at M=1 with no pass as at any other M; fill slots count toward M
    rng = np.random.default_rng(M * 10 + skipped)
    n = 4 * len(_SPECIAL)
    grads = []
    for _ in range(M - skipped):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
        g[rng.choice(n, len(_SPECIAL), replace=False)] = _SPECIAL
        grads.append(g)
    acc = Accumulator([n], M, -skipped)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = 0.0 + grads[0]
        for g in grads[1:]:
            expected = expected + g
        expected = expected / M
        for t, g in enumerate(grads):
            acc.add([g.copy()], t, 0)
        avg = acc.average()[0]
    assert np.array_equal(avg.view(np.int64), expected.view(np.int64))


def test_a_gradient_of_another_size_is_rejected():
    # a gradient must match its layer's size: no broadcast into the sums,
    # no mis-sized first gradient taken as the sums, and no real gradient
    # aimed at a parameterless layer dropped
    acc = Accumulator([3], 2, 0)
    acc.add([np.ones(3)], 0, 0)
    with pytest.raises(ProtocolError, match="gradient layout does not "
                                            "match accumulator"):
        acc.add([np.array([5.0])], 1, 0)
    for sizes, grads in (([3], [np.array([5.0])]),
                         ([3], [np.ones((3, 1))]),
                         ([0, 2], [np.ones(1), np.ones(2)])):
        with pytest.raises(ProtocolError, match="gradient layout does not "
                                                "match accumulator"):
            Accumulator(sizes, 1, 0).add(grads, 0, 0)
    acc = Accumulator([0, 2], 2, 0)
    acc.add([np.zeros(0), np.ones(2)], 0, 0)
    with pytest.raises(ProtocolError, match="gradient layout does not "
                                            "match accumulator"):
        acc.add([np.ones(1), np.ones(2)], 1, 0)


def test_overflow_is_protocol_violation():
    acc = acc_of(1.0)
    with pytest.raises(ProtocolError, match="overflow"):
        acc.add([np.array([1.0])], 5, 0)
    with pytest.raises(ProtocolError, match="overflow"):
        Accumulator([1], 1, -1).add([np.array([1.0])], 0, 0)
    assert len(acc.slots) == 1


def test_slot_is_a_replaceable_dataclass():
    slot = Slot(1, 7, 3)
    moved = dataclasses.replace(slot, version=None)
    assert moved == Slot(1, 7, None) and moved.skipped
    assert slot.version == 3 and not slot.skipped


def test_update_requires_full_group():
    acc = Accumulator([1], 3, 0)
    acc.add([np.array([1.0])], 0, 0)
    # the group is checked before the rate, so a NaN rate does not mask it
    for lr in (0.1, float("nan")):
        with pytest.raises(ProtocolError, match="update fired with 1/3 "
                                                "slots accumulated"):
            ga_update([np.array([0.0])], acc.average(), lr, SgdConfig())


def test_ga_update_rejects_nan_rate():
    with pytest.raises(DomainError):
        ga_update([np.array([0.0])], acc_of(0.2).average(), float("nan"),
                  SgdConfig())


def test_ga_update_example():
    # theta=1, lr=0.1, grads 0.2 and 0.4 averaged over M=2 -> 0.97
    avg = acc_of(0.2, 0.4).average()
    np.testing.assert_allclose(avg[0], [0.3])
    params, _ = ga_update([np.array([1.0])], avg, 0.1, SgdConfig())
    np.testing.assert_allclose(params[0], [0.97])


def test_all_skipped_group_is_zero_step():
    acc = Accumulator([2], 3, -3)
    theta = [np.array([1.5, -2.0])]
    params, _ = ga_update(theta, acc.average(), 0.5, SgdConfig())
    np.testing.assert_array_equal(params[0], theta[0])
    assert params[0] is not theta[0]  # fresh array either way


def test_momentum_displacement():
    # two unit gradients, momentum 0.9, lr 1: steps 1 then 1.9, total 2.9
    sgd = SgdConfig(momentum=0.9)
    theta = [np.array([0.0])]
    v = None
    for _ in range(2):
        acc = acc_of(1.0)
        theta, v = ga_update(theta, acc.average(), 1.0, sgd, v)
    np.testing.assert_allclose(theta[0], [-2.9])


def test_weight_decay_is_coupled():
    acc = acc_of(0.0)
    params, _ = ga_update([np.array([2.0])], acc.average(), 0.1,
                          SgdConfig(weight_decay=0.5))
    # step = g + lambda*theta = 1.0, so theta' = 2.0 - 0.1
    np.testing.assert_allclose(params[0], [1.9])


def test_m1_reduces_to_plain_sgd():
    g = np.array([0.3, -0.7])
    acc = Accumulator([2], 1, 0)
    acc.add([g], 0, 0)
    theta = [np.array([1.0, 1.0])]
    want = theta[0] - 0.2 * g  # before the update writes into g
    params, _ = ga_update(theta, acc.average(), 0.2, SgdConfig())
    np.testing.assert_array_equal(params[0], want)


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=6),
       st.permutations(range(6)))
@settings(max_examples=100, deadline=None)
def test_update_invariant_under_slot_permutation(grads, perm):
    perm = [p for p in perm if p < len(grads)]
    reordered = [grads[p] for p in perm]
    a = acc_of(*grads)
    b = acc_of(*reordered)
    pa, _ = ga_update([np.array([1.0])], a.average(), 0.1, SgdConfig())
    pb, _ = ga_update([np.array([1.0])], b.average(), 0.1, SgdConfig())
    # addition of two reals commutes exactly; longer sums agree to ulps
    np.testing.assert_allclose(pa[0], pb[0], rtol=1e-15, atol=1e-15)


def test_update_returns_fresh_arrays():
    # the new version is written into the average's arrays, never into
    # the old version's or the velocity's
    acc = acc_of(1.0)
    theta = [np.array([1.0])]
    avg = acc.average()
    params, vel = ga_update(theta, avg, 0.1, SgdConfig(momentum=0.5))
    assert params[0] is avg[0] and vel[0] is not avg[0]
    np.testing.assert_array_equal(theta[0], [1.0])
    np.testing.assert_array_equal(params[0], [0.9])
    # the accumulator kept no array: averaging the group again gives zeros
    # and leaves the version the average became as it was
    again = acc.average()
    assert again[0] is not avg[0] and again[0][0] == 0.0
    np.testing.assert_array_equal(params[0], [0.9])


def test_momentum_costs_the_velocity_and_no_more():
    # the width-256 relu regression net split 2+2 layer pairs plus the head
    # (K=2, M=1, 32 updates): the velocity is stepped in place, so momentum
    # raises run_clocked's tracemalloc peak by the velocity's own bytes
    # (2.01 MiB), not by a second layer-sized temporary on top of them
    specs = [net.affine(256, 256), net.relu(256)] * 4 + [net.affine(256, 1)]
    ds = data.gen_linreg(1024, 256, 0.1, seed=1)

    def peak(momentum):
        cfg = TrainConfig(specs, Partition((0, 4, 9)), net.MSE, 1, 64, 32,
                          ConstantLr(0.01), SgdConfig(momentum), seed=2)
        gc.collect()
        tracemalloc.start()
        try:
            run_clocked(cfg, ds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    velocity = 8 * sum(s.param_count for s in specs)
    assert peak(0.9) - peak(0.0) <= 1.05 * velocity


def test_an_update_at_momentum_0_allocates_nothing_parameter_sized():
    # the sums are divided in place into the average and the update
    # writes the new version into the average's arrays, so one 256x256
    # affine layer's update allocates nothing parameter-sized
    n = net.affine(256, 256).param_count
    rng = np.random.default_rng(0)
    acc = Accumulator([n], 2, 0)
    for t in range(2):
        acc.add([rng.standard_normal(n)], t, 0)
    theta = [rng.standard_normal(n)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ga_update(theta, acc.average(), 0.1, SgdConfig())
        grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grown < 1024


def test_the_sums_die_with_the_average_they_become():
    # a full group's sums are the update's average, and the update writes
    # the new version into them: once the average and that version are
    # dropped nothing holds them, though the accumulator lives on
    acc = acc_of(0.2, 0.4)
    avg = acc.average()
    params, _ = ga_update([np.array([1.0])], avg, 0.1, SgdConfig())
    sums = weakref.ref(avg[0])
    del avg
    assert sums() is params[0]
    del params
    assert sums() is None


def test_grad_norm_helpers():
    assert grads_sumsq([np.array([3.0]), np.array([4.0])]) == 25.0
    assert global_grad_norm([9.0, 16.0]) == 5.0
    for grads in ([], [np.zeros(0)], [np.zeros(0), np.zeros(0)]):
        total = grads_sumsq(grads)
        assert type(total) is float and total == 0.0


def test_grad_norms_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # Python 3.12's builtin sum() of floats compensates, 3.10's and 3.11's
    # do not: with a compensated sum() in adl.optimizer's namespace, the
    # norms must still read the plain left-to-right sums, 1e16 + 1 == 1e16
    monkeypatch.setattr(optimizer, "sum", raising=False,
                        value=lambda xs, start=0: math.fsum([start, *xs]))
    assert grads_sumsq([np.array([1e8]), np.ones(1), np.ones(1)]) == 1e16
    assert global_grad_norm([1e16, 1.0, 1.0]) == 1e8


def test_parameterless_module_update_writes_nothing():
    # a module of two parameterless layers: every vector is empty
    def group():
        acc = Accumulator([0, 0], 2, -1)
        acc.add([np.zeros(0), np.zeros(0)], 0, 0)
        return acc

    theta = [np.zeros(0), np.zeros(0)]
    sgd = SgdConfig(momentum=0.9, weight_decay=0.1)
    avg, avg2 = group().average(), group().average()
    params, vel = ga_update(theta, avg, 0.5, sgd)
    params2, vel2 = ga_update(params, avg2, 0.5, sgd, vel)
    assert all(p is t for p, t in zip(params + params2, theta + theta))
    assert all(v is w for v, w in zip(vel2, vel))
    assert [a.size for a in vel + avg + avg2] == [0] * 6


def test_sgd_config_validation():
    with pytest.raises(DomainError):
        SgdConfig(momentum=1.0)
    with pytest.raises(DomainError):
        SgdConfig(weight_decay=-0.1)
    with pytest.raises(DomainError):
        Accumulator([1], 0, 0)


# --- schedules ---------------------------------------------------------------

def test_harmonic_schedule():
    h = Harmonic(1.0)
    assert lr_at(h, 0) == 1.0
    assert lr_at(h, 3) == 0.25
    ss = np.arange(1, 10 ** 6 + 1, dtype=np.float64)
    partial_sq = np.sum((1.0 / ss) ** 2)
    assert partial_sq < np.pi ** 2 / 6
    assert np.sum(1.0 / ss) > 14.0  # diverges (log growth)


def test_step_decay_milestones():
    sched = StepDecay(base=0.1, milestones_epochs=(1.0,), factor=0.1,
                      ga_steps=1, batches_per_epoch=10)
    assert lr_at(sched, 0) == 0.1
    assert lr_at(sched, 9) == 0.1
    assert lr_at(sched, 10) == pytest.approx(0.01)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", ["ga_steps", "batches_per_epoch"])
def test_step_decay_rejects_counts_below_one(name, value):
    # at 0 the first lr_at divided by zero; below, no milestone ever passed
    with pytest.raises(DomainError, match=name):
        StepDecay(0.1, milestones_epochs=(1.0,), **{name: value})


def test_step_decay_rejects_decreasing_milestones():
    with pytest.raises(DomainError, match="milestones must not decrease"):
        StepDecay(0.1, milestones_epochs=(2.0, 1.0))


def test_step_decay_warmup_is_linear_then_nonincreasing():
    sched = StepDecay(base=0.2, warmup_updates=4, milestones_epochs=(2.0, 4.0),
                      factor=0.5, ga_steps=2, batches_per_epoch=8)
    ramp = [lr_at(sched, s) for s in range(4)]
    assert ramp == pytest.approx([0.05, 0.1, 0.15, 0.2])
    tail = [lr_at(sched, s) for s in range(4, 40)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_lr_at_validation():
    with pytest.raises(DomainError):
        lr_at(ConstantLr(0.1), -1)
    with pytest.raises(DomainError):
        lr_at(object(), 0)
