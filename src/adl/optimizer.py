"""Gradient accumulation and the accumulated SGD update.

A module's parameters are a list of flat per-layer vectors; gradients
use the same layout.  The Accumulator sums exactly M gradient slots,
then ga_update applies

    g_avg = grad_sum / M
    g'    = g_avg + weight_decay * theta        (coupled decay)
    v     = momentum * v + g'
    theta = theta - lr * v

writing each new version into the averaged gradient's own arrays, so
older versions are never mutated.  An Accumulator is one update group
of one module: it opens with its fill slots, whose batch is negative
while the pipeline fills (they add zero but count toward M), and is
dropped at its update.  It owns the gradients it is handed: the group's
first real gradient becomes its sums in place, later ones add into
them, average() divides them in place by M (M=1 makes no pass), and
ga_update writes the new version into them, so a group's sums become
the next version and an update without weight decay allocates nothing
parameter-sized.
The velocity v is private to its module and never recorded, so it is
stepped in place.  At momentum 0, v = g' is not kept and the velocity
returned is None.
The empty vectors of parameterless layers are passed through unchanged:
they hold nothing to sum, step or mutate.
"""
from __future__ import annotations

import math
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


@dataclass(slots=True)
class Slot:
    """Provenance of one accumulated gradient: which batch, which
    parameter version (None if the slot was skipped during fill).  Not
    frozen, as a frozen __init__ costs about three times as much, but
    never assigned to or hashed once built."""

    j: int
    batch_index: int
    version: int = None

    @property
    def skipped(self) -> bool:
        return self.version is None


class Accumulator:
    """One update group of one module, from its first slot to average():
    `capacity` slots of batches first_batch, first_batch + 1, ..., the
    negative ones held from the start as fill slots (version None), and
    from the first real gradient on their per-layer sums, held in that
    gradient's own list and arrays.  param_shapes, the per-layer sizes,
    is kept as given, so accumulators may share one list."""

    __slots__ = ("capacity", "_sizes", "_sums", "slots")

    def __init__(self, param_shapes, capacity: int, first_batch: int):
        if capacity < 1:
            raise DomainError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._sizes = param_shapes
        self._sums = None  # per-layer arrays while a real gradient is held
        self.slots = [Slot(j, first_batch + j) for j in range(
            min(capacity, -first_batch))] if first_batch < 0 else []

    def add(self, grads, batch_index: int, version: int):
        """Accumulate a real gradient (list of flat per-layer arrays) as
        the next slot.  The accumulator takes the list and its arrays
        over, so no one else may read them: the group's first gradient
        becomes the sums in place, 0.0 + g (-0.0 turns +0.0, the bits of
        zeros + g), and later ones add into them.  An empty vector has
        no bits and is kept as it is."""
        sizes, slots, sums = self._sizes, self.slots, self._sums
        if len(grads) != len(sizes):
            raise ProtocolError("gradient layout does not match accumulator")
        j = len(slots)
        if j == self.capacity:
            raise ProtocolError(
                f"accumulator overflow: {self.capacity} slots already held")
        slots.append(Slot(j, batch_index, version))
        if sums is None:  # the first gradient turns into 0.0 + g in place
            for g, n in zip(grads, sizes):
                if g.shape != (n,):
                    raise ProtocolError(
                        "gradient layout does not match accumulator")
                if n:
                    np.add(g, 0.0, g)
            self._sums = grads
            return
        for g, n, acc in zip(grads, sizes, sums):
            if g.shape != (n,):
                raise ProtocolError(
                    "gradient layout does not match accumulator")
            if n:
                np.add(acc, g, acc)

    def average(self):
        """Hand over the full group's sums divided in place by capacity,
        the bits of sum / capacity, or fresh zeros if it holds only fill
        slots; the accumulator then holds no array.  A capacity of 1
        makes no pass."""
        if len(self.slots) != self.capacity:
            raise ProtocolError(f"update fired with {len(self.slots)}/"
                                f"{self.capacity} slots accumulated")
        sums, self._sums = self._sums, None
        if sums is None:
            return [np.zeros(n) for n in self._sizes]
        if self.capacity > 1:
            for gs in sums:
                if gs.size:
                    gs /= self.capacity
        return sums


def ga_update(params, avg, lr: float, sgd: SgdConfig, velocity=None):
    """Apply one accumulated-SGD step to params with avg, a full group's
    averaged gradient (Accumulator.average()).

    Returns (new_params, velocity).  ga_update takes avg's arrays over,
    as Accumulator.add takes over gradients: each layer's lr * step is
    written into its averaged gradient, then the new version
    p - lr * step into the same array, so the new version's arrays are
    avg's and, without weight decay, the update allocates nothing
    parameter-sized.  step is read before it is overwritten, at every
    momentum and weight decay.  params are untouched, and the empty
    vectors of parameterless layers pass through as they are.  The
    velocity, zeros when None is passed, is stepped in place; at
    momentum 0 none is read and None is returned.
    """
    if not lr >= 0.0:
        raise DomainError(f"learning rate must be >= 0, got {lr}")
    momentum, decay = sgd.momentum, sgd.weight_decay
    if momentum and velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    new_params = []
    for p, g, v in zip(params, avg, velocity if momentum else avg):
        if p.size:  # an empty vector passes through
            step = g
            if decay:  # wd * p + g, the bits of g + wd * p
                step = np.multiply(decay, p)
                step += g
            if momentum:  # the velocity is private to its module: in place
                v *= momentum
                v += step
                step = v
            p = np.subtract(p, np.multiply(lr, step, out=g), out=g)  # in g
        new_params.append(p)
    return new_params, velocity if momentum else None


def grads_sumsq(grads) -> float:
    """Sum of squared entries across a list of flat arrays, fixed order,
    skipping empty ones.  einsum, unlike np.dot, does not go through BLAS,
    so the bits do not depend on the BLAS thread count.  The per-array
    sums are added left to right in a plain loop: the builtin sum() of
    Python 3.12 and later compensates, so its bits depend on the
    interpreter."""
    total = 0.0
    for g in grads:
        if g.size:
            total += float(np.einsum("i,i->", g, g))
    return total


def global_grad_norm(module_sumsqs) -> float:
    """Whole-network gradient norm from per-module squared sums, added
    left to right in module order, as grads_sumsq adds, so every runner
    and interpreter reproduces identical bits."""
    total = 0.0
    for sumsq in module_sumsqs:
        total += sumsq
    return math.sqrt(total)  # the correctly rounded root, as np.sqrt's


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
        if not (self.ga_steps >= 1 and self.batches_per_epoch >= 1):
            raise DomainError(f"ga_steps and batches_per_epoch must be >= 1, "
                              f"got {self.ga_steps}, {self.batches_per_epoch}")
        for m in self.milestones_epochs:
            check_finite_nonneg("milestone", m)
        if list(self.milestones_epochs) != sorted(self.milestones_epochs):
            raise DomainError(f"milestones must not decrease, got "
                              f"{self.milestones_epochs}")


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
