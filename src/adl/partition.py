"""Contiguous depth-wise partitions of a layer stack into K modules.

Module indices k are 1-based throughout (k = 1 is the input-side module,
k = K owns the loss).  Boundaries are stored 0-based and half-open:
module k owns layers bounds[k-1] .. bounds[k]-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Partition:
    bounds: tuple  # length K+1, bounds[0] == 0, bounds[K] == len(layers)

    def __post_init__(self):
        b = self.bounds
        if len(b) < 2 or b[0] != 0:
            raise ConfigError(f"bad partition bounds {b}")
        for lo, hi in zip(b, b[1:]):
            if hi <= lo:
                raise ConfigError("every module needs at least one layer")

    @property
    def K(self) -> int:
        return len(self.bounds) - 1

    def layers_of(self, k: int) -> range:
        """0-based layer indices owned by module k (1-based)."""
        if not 1 <= k <= self.K:
            raise ConfigError(f"module index {k} outside 1..{self.K}")
        return range(self.bounds[k - 1], self.bounds[k])


def partition_even(num_layers: int, K: int) -> Partition:
    """Split as evenly as possible; earlier modules get the extra layers."""
    if K < 1 or num_layers < K:
        raise ConfigError(f"cannot split {num_layers} layers into {K} modules")
    base, extra = divmod(num_layers, K)
    bounds = [0]
    for k in range(K):
        bounds.append(bounds[-1] + base + (1 if k < extra else 0))
    return Partition(tuple(bounds))


def partition_by_cost(costs, K: int) -> Partition:
    """Minimize the bottleneck (max module cost sum) over contiguous splits.

    Ties are broken toward the leftmost boundary set: each boundary is
    placed as early as possible subject to the optimum staying reachable.
    """
    costs = [float(c) for c in costs]
    n = len(costs)
    if K < 1 or n < K:
        raise ConfigError(f"cannot split {n} layers into {K} modules")
    if any(c < 0 for c in costs):
        raise ConfigError("layer costs must be non-negative")
    prefix = [0.0]
    for c in costs:
        prefix.append(prefix[-1] + c)
    if not math.isfinite(prefix[-1]):  # so is any NaN or infinite cost
        raise ConfigError("layer costs and their sum must be finite")

    def seg(lo, hi):  # cost of layers lo..hi-1
        return prefix[hi] - prefix[lo]

    # best[r][i]: minimal bottleneck splitting layers i..n-1 into r modules
    inf = float("inf")
    best = [[inf] * (n + 1) for _ in range(K + 1)]
    best[0][n] = 0.0
    for r in range(1, K + 1):
        for i in range(n - 1, -1, -1):
            acc = inf
            # at least 1 layer per module, leave >= r-1 layers for the rest
            for e in range(i + 1, n - (r - 1) + 1):
                cand = max(seg(i, e), best[r - 1][e])
                if cand < acc:
                    acc = cand
            best[r][i] = acc
    optimum = best[K][0]

    bounds = [0]
    i, r = 0, K
    while r > 0:
        for e in range(i + 1, n - (r - 1) + 1):
            if max(seg(i, e), best[r - 1][e]) <= optimum:
                bounds.append(e)
                i, r = e, r - 1
                break
    return Partition(tuple(bounds))
