"""Synthetic datasets and counter-based batch sampling.

Batches are drawn with replacement by a counter-based RNG keyed on
(sampler_seed, batch_index), so batch t is a pure function of the pair:
any runner can materialize batch t at any time, in any order, and get
identical bits.  That property is what lets the delayed-gradient replay
oracle re-visit old batches exactly.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, check_finite_nonneg


@dataclass
class Dataset:
    inputs: np.ndarray   # (n, dim) float64
    targets: np.ndarray  # (n, out) float64 or (n,) int64 labels

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def gen_linreg(n: int, dim: int, noise_std: float, seed: int) -> Dataset:
    """Linear regression: x ~ N(0, I), y = W* x + eps, one output.

    W* is drawn from the seed with entries N(0, 1/dim) so ||W*|| is O(1);
    the optimal network is exactly (W*, bias 0) when noise_std == 0.
    """
    if n < 1 or dim < 1:
        raise ConfigError("linreg needs n >= 1 and dim >= 1")
    check_finite_nonneg("noise_std", noise_std, ConfigError)
    check_finite_nonneg("dataset seed", seed, ConfigError)
    rng = np.random.default_rng(seed)
    w_star = rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim)
    x = rng.normal(0.0, 1.0, size=(n, dim))
    y = x @ w_star
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, size=n)
    return Dataset(x, y[:, None])


def gen_two_spirals(n: int, noise_std: float, seed: int) -> Dataset:
    """Two interleaved planar spirals, labels 0/1, class counts balanced
    to within one point.  Coordinates are O(1); noise_std is added to
    both coordinates."""
    if n < 2:
        raise ConfigError("two_spirals needs n >= 2")
    check_finite_nonneg("noise_std", noise_std, ConfigError)
    check_finite_nonneg("dataset seed", seed, ConfigError)
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[1::2] = 1  # alternate so counts differ by at most 1
    counts = [0, 0]
    per_class = [(n + 1) // 2, n // 2]
    pts = np.zeros((n, 2))
    for i in range(n):
        c = int(labels[i])
        frac = counts[c] / max(1, per_class[c] - 1)
        counts[c] += 1
        angle = 3.0 * np.pi * frac + np.pi * c
        radius = 0.3 + 1.7 * frac
        pts[i, 0] = radius * np.cos(angle)
        pts[i, 1] = radius * np.sin(angle)
    if noise_std > 0:
        pts = pts + rng.normal(0.0, noise_std, size=(n, 2))
    return Dataset(pts, labels)


_sampler = threading.local()  # .philox: this thread's re-keyed Philox
_ZEROS = np.zeros(4, dtype=np.uint64)


def batch_indices(sampler_seed: int, t: int, n: int, batch_size: int):
    """Indices of batch t: uniform with replacement, pure in (seed, t).
    They are the first draws of a Philox generator keyed (seed, t) at
    counter 0; each thread re-keys one generator by assigning it one
    state template, its key set first, which draws what a new generator
    would, at a fraction of the cost."""
    if t < 0:
        raise DomainError(f"batch index must be >= 0, got {t}")
    if n < 1 or batch_size < 1:
        raise DomainError("need n >= 1 and batch_size >= 1")
    try:
        bits, rng, state, key = _sampler.philox
    except AttributeError:  # the thread's first batch
        rng, key = np.random.Generator(np.random.Philox()), [0, 0]
        state = {"bit_generator": "Philox", "buffer": _ZEROS,
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
                 "state": {"counter": _ZEROS, "key": key}}
        bits = rng.bit_generator
        _sampler.philox = bits, rng, state, key
    key[0], key[1] = int(sampler_seed) % 2 ** 64, t
    bits.state = state
    return rng.integers(0, n, size=batch_size)


def sample_batch(dataset: Dataset, batch_size: int, sampler_seed: int, t: int):
    """Materialize batch t as (inputs, targets): the rows of its indices,
    copied by take, which skips the set-up of an index expression."""
    idx = batch_indices(sampler_seed, t, dataset.n, batch_size)
    return dataset.inputs.take(idx, 0), dataset.targets.take(idx, 0)
