"""Accumulator semantics, the accumulated-SGD step, and LR schedules."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl.errors import DomainError, ProtocolError
from adl.optimizer import (Accumulator, ConstantLr, Harmonic, SgdConfig,
                           Slot, StepDecay, ga_update, global_grad_norm,
                           grads_sumsq, lr_at, scaled_base_lr)


def acc_of(*grads, capacity=None, sizes=(1,)):
    acc = Accumulator(sizes, capacity or len(grads))
    for t, g in enumerate(grads):
        acc.add([np.atleast_1d(np.asarray(g, dtype=float))], t, 0)
    return acc


def test_accumulate_two_scalars():
    acc = acc_of(0.2, 0.4)
    np.testing.assert_allclose(acc.grad_sums[0], [0.6])
    assert acc.count == 2 and acc.full


def test_skipped_slot_contributes_zero():
    acc = Accumulator([1], 2)
    acc.add_skipped(-2)
    acc.add([np.array([0.4])], 0, 0)
    np.testing.assert_array_equal(acc.grad_sums[0], [0.4])
    assert acc.slots[0].skipped and not acc.slots[1].skipped
    assert acc.slots[0].batch_index == -2


def test_overflow_is_protocol_violation():
    acc = acc_of(1.0)
    with pytest.raises(ProtocolError, match="overflow"):
        acc.add([np.array([1.0])], 5, 0)
    with pytest.raises(ProtocolError, match="overflow"):
        acc.add_skipped(-1)
    assert acc.count == 1


def test_slot_is_a_replaceable_dataclass():
    slot = Slot(1, 7, 3)
    moved = dataclasses.replace(slot, version=None)
    assert moved == Slot(1, 7, None) and moved.skipped
    assert slot.version == 3 and not slot.skipped


def test_update_requires_full_group():
    acc = Accumulator([1], 3)
    acc.add([np.array([1.0])], 0, 0)
    with pytest.raises(ProtocolError):
        ga_update([np.array([0.0])], acc, 0.1, SgdConfig())


def test_ga_update_rejects_nan_rate():
    with pytest.raises(DomainError):
        ga_update([np.array([0.0])], acc_of(0.2), float("nan"), SgdConfig())


def test_ga_update_example():
    # theta=1, lr=0.1, grads 0.2 and 0.4 averaged over M=2 -> 0.97
    acc = acc_of(0.2, 0.4)
    params, _, avg = ga_update([np.array([1.0])], acc, 0.1, SgdConfig())
    np.testing.assert_allclose(params[0], [0.97])
    np.testing.assert_allclose(avg[0], [0.3])


def test_all_skipped_group_is_zero_step():
    acc = Accumulator([2], 3)
    for t in (-3, -2, -1):
        acc.add_skipped(t)
    theta = [np.array([1.5, -2.0])]
    params, _, _ = ga_update(theta, acc, 0.5, SgdConfig())
    np.testing.assert_array_equal(params[0], theta[0])
    assert params[0] is not theta[0]  # fresh array either way


def test_momentum_displacement():
    # two unit gradients, momentum 0.9, lr 1: steps 1 then 1.9, total 2.9
    sgd = SgdConfig(momentum=0.9)
    theta = [np.array([0.0])]
    v = None
    for _ in range(2):
        acc = acc_of(1.0)
        theta, v, _ = ga_update(theta, acc, 1.0, sgd, v)
    np.testing.assert_allclose(theta[0], [-2.9])


def test_weight_decay_is_coupled():
    acc = acc_of(0.0)
    params, _, _ = ga_update([np.array([2.0])], acc, 0.1,
                             SgdConfig(weight_decay=0.5))
    # step = g + lambda*theta = 1.0, so theta' = 2.0 - 0.1
    np.testing.assert_allclose(params[0], [1.9])


def test_m1_reduces_to_plain_sgd():
    g = np.array([0.3, -0.7])
    acc = Accumulator([2], 1)
    acc.add([g], 0, 0)
    theta = [np.array([1.0, 1.0])]
    params, _, _ = ga_update(theta, acc, 0.2, SgdConfig())
    np.testing.assert_array_equal(params[0], theta[0] - 0.2 * g)


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=6),
       st.permutations(range(6)))
@settings(max_examples=100, deadline=None)
def test_update_invariant_under_slot_permutation(grads, perm):
    perm = [p for p in perm if p < len(grads)]
    reordered = [grads[p] for p in perm]
    a = acc_of(*grads)
    b = acc_of(*reordered)
    pa, _, _ = ga_update([np.array([1.0])], a, 0.1, SgdConfig())
    pb, _, _ = ga_update([np.array([1.0])], b, 0.1, SgdConfig())
    # addition of two reals commutes exactly; longer sums agree to ulps
    np.testing.assert_allclose(pa[0], pb[0], rtol=1e-15, atol=1e-15)


def test_update_returns_fresh_arrays():
    acc = acc_of(1.0)
    theta = [np.array([1.0])]
    params, vel, avg = ga_update(theta, acc, 0.1, SgdConfig(momentum=0.5))
    for fresh, ref in ((params, theta), (avg, acc.grad_sums)):
        assert fresh[0] is not ref[0]
    acc.reset()
    np.testing.assert_array_equal(avg[0], [1.0])  # unaffected by reset


def test_grad_norm_helpers():
    assert grads_sumsq([np.array([3.0]), np.array([4.0])]) == 25.0
    assert global_grad_norm([9.0, 16.0]) == 5.0
    for grads in ([], [np.zeros(0)], [np.zeros(0), np.zeros(0)]):
        total = grads_sumsq(grads)
        assert type(total) is float and total == 0.0


def test_parameterless_module_update_writes_nothing():
    # a module of two parameterless layers: every vector is empty
    acc = Accumulator([0, 0], 2)
    acc.add_skipped(-1)
    acc.add([np.zeros(0), np.zeros(0)], 0, 0)
    theta = [np.zeros(0), np.zeros(0)]
    sgd = SgdConfig(momentum=0.9, weight_decay=0.1)
    params, vel, avg = ga_update(theta, acc, 0.5, sgd)
    params2, vel2, _ = ga_update(params, acc, 0.5, sgd, vel)
    assert all(p is t for p, t in zip(params + params2, theta + theta))
    assert all(v is w for v, w in zip(vel2, vel))
    assert [a.size for a in vel + avg + acc.grad_sums] == [0] * 6


def test_sgd_config_validation():
    with pytest.raises(DomainError):
        SgdConfig(momentum=1.0)
    with pytest.raises(DomainError):
        SgdConfig(weight_decay=-0.1)
    with pytest.raises(DomainError):
        Accumulator([1], 0)


# --- schedules ---------------------------------------------------------------

def test_scaled_base_lr_rule():
    assert scaled_base_lr(32, 2) == 0.1 * 64 / 256
    assert scaled_base_lr(256, 1) == 0.1


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
