"""Gradient accumulation and the accumulated SGD update.

A module's parameters are a list of flat per-layer vectors; gradients
use the same layout.  The Accumulator sums exactly M gradient slots
(some possibly skipped during pipeline fill -- those contribute zero
but still count toward the group), then ga_update applies

    g_avg = grad_sum / M
    g'    = g_avg + weight_decay * theta        (coupled decay)
    v     = momentum * v + g'
    theta = theta - lr * v

returning fresh parameter arrays so older versions are never mutated.
The velocity v is private to its module and never recorded, so it is
stepped in place.  At momentum 0, v = g' is not kept and the velocity
returned is None.
The empty vectors of parameterless layers are passed through unchanged:
they hold nothing to sum, step or mutate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ProtocolError, check_finite_nonneg


@dataclass(frozen=True)
class SgdConfig:
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum}")
        check_finite_nonneg("weight decay", self.weight_decay)


@dataclass(frozen=True, slots=True)
class Slot:
    """Provenance of one accumulated gradient: which batch, which
    parameter version (None if the slot was skipped during fill)."""

    j: int
    batch_index: int
    version: int = None

    @property
    def skipped(self) -> bool:
        return self.version is None


class Accumulator:
    """Sums up to `capacity` gradient slots for one module."""

    def __init__(self, param_shapes, capacity: int):
        if capacity < 1:
            raise DomainError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.grad_sums = [np.zeros(int(n)) for n in param_shapes]
        self.slots = []

    @property
    def count(self) -> int:
        return len(self.slots)

    @property
    def full(self) -> bool:
        return self.count == self.capacity

    def _bump(self, batch_index: int, version):
        j = len(self.slots)
        if j == self.capacity:
            raise ProtocolError(
                f"accumulator overflow: {self.capacity} slots already held")
        self.slots.append(Slot(j, batch_index, version))

    def add(self, grads, batch_index: int, version: int):
        """Accumulate a real gradient (list of flat per-layer arrays)."""
        if len(grads) != len(self.grad_sums):
            raise ProtocolError("gradient layout does not match accumulator")
        self._bump(batch_index, version)
        for acc, g in zip(self.grad_sums, grads):
            if acc.size:
                acc += g

    def add_skipped(self, batch_index: int):
        """Record a pipeline-fill slot: contributes zero gradient but
        still advances the group toward the update."""
        self._bump(batch_index, None)

    def reset(self):
        for acc in self.grad_sums:
            if acc.size:
                acc.fill(0.0)
        self.slots = []


def ga_update(params, acc: Accumulator, lr: float, sgd: SgdConfig,
              velocity=None):
    """Apply one accumulated-SGD step.

    Requires a full accumulator (exactly capacity slots) -- the divisor
    is always the full group size M even when some slots were skipped.
    Returns (new_params, velocity, avg_grads).  params and acc are
    untouched, and the empty vectors of parameterless layers pass through
    as they are.  The velocity, zeros when None is passed, is stepped in
    place; at momentum 0 none is read and None is returned.
    """
    if not acc.full:
        raise ProtocolError(
            f"update fired with {acc.count}/{acc.capacity} slots accumulated")
    if not lr >= 0.0:
        raise DomainError(f"learning rate must be >= 0, got {lr}")
    avg = [gs / acc.capacity if gs.size else gs for gs in acc.grad_sums]
    momentum = sgd.momentum != 0.0
    if momentum and velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    new_params = []
    for p, g, v in zip(params, avg, velocity if momentum else avg):
        if p.size:  # an empty vector passes through
            step = g
            if sgd.weight_decay != 0.0:  # wd * p + g, the bits of g + wd * p
                step = np.multiply(sgd.weight_decay, p)
                step += g
            if momentum:  # the velocity is private to its module: in place
                v *= sgd.momentum
                v += step
                step = v
            q = np.multiply(lr, step)  # becomes the new version: p - lr * v
            p = np.subtract(p, q, out=q)
        new_params.append(p)
    return new_params, velocity if momentum else None, avg


def grads_sumsq(grads) -> float:
    """Sum of squared entries across a list of flat arrays, fixed order,
    skipping empty ones.  einsum, unlike np.dot, does not go through BLAS,
    so the bits do not depend on the BLAS thread count."""
    return sum((float(np.einsum("i,i->", g, g)) for g in grads if g.size),
               0.0)


def global_grad_norm(module_sumsqs) -> float:
    """Whole-network gradient norm from per-module squared sums, summed
    in module order so every runner reproduces identical bits."""
    return float(np.sqrt(sum(module_sumsqs)))


# --- learning-rate schedules -------------------------------------------------

@dataclass(frozen=True)
class ConstantLr:
    value: float

    def __post_init__(self):
        check_finite_nonneg("learning rate", self.value)


@dataclass(frozen=True)
class Harmonic:
    """lr_s = c / (s + 1); satisfies the diminishing-step conditions
    sum(lr) -> inf, sum(lr^2) < inf."""

    c: float

    def __post_init__(self):
        check_finite_nonneg("harmonic c", self.c)


@dataclass(frozen=True)
class StepDecay:
    """Step decay with linear per-update warm-up.

    Warm-up ramps from base/warmup_updates up to base across the first
    warmup_updates updates, then the rate is base * factor^(number of
    milestone epochs passed).  epochs are measured as s * M /
    batches_per_epoch.
    """

    base: float
    warmup_updates: int = 0
    milestones_epochs: tuple = ()
    factor: float = 0.1
    ga_steps: int = 1
    batches_per_epoch: int = 1

    def __post_init__(self):
        check_finite_nonneg("base learning rate", self.base)
        check_finite_nonneg("warm-up updates", self.warmup_updates)
        check_finite_nonneg("decay factor", self.factor)
        for m in self.milestones_epochs:
            check_finite_nonneg("milestone", m)
        if list(self.milestones_epochs) != sorted(self.milestones_epochs):
            raise DomainError(f"milestones must not decrease, got "
                              f"{self.milestones_epochs}")


def scaled_base_lr(batch_size: int, ga_steps: int) -> float:
    """Linear-scaling rule for the effective batch b*M: 0.1 * b*M / 256."""
    return 0.1 * batch_size * ga_steps / 256


def lr_at(schedule, s: int) -> float:
    """Learning rate used by update s+1 (0-based update counter)."""
    if s < 0:
        raise DomainError(f"update index must be >= 0, got {s}")
    if isinstance(schedule, ConstantLr):
        return schedule.value
    if isinstance(schedule, Harmonic):
        return schedule.c / (s + 1)
    if isinstance(schedule, StepDecay):
        if schedule.warmup_updates > 0 and s < schedule.warmup_updates:
            return schedule.base * (s + 1) / schedule.warmup_updates
        epochs = s * schedule.ga_steps / schedule.batches_per_epoch
        passed = sum(1 for m in schedule.milestones_epochs if epochs >= m)
        return schedule.base * schedule.factor ** passed
    raise DomainError(f"unknown schedule {schedule!r}")
