"""Reference trainers the pipeline is checked against.

delayed_replay reconstructs what the pipeline is *supposed* to compute,
from first principles and without any message passing: the j-th
gradient of update s+1 in module k is the slice of a full-network
gradient of batch t = M*s + j - 2*(K-k), evaluated on the parameters of
version floor(t / M) (negative t are skipped fill slots).  That gradient
depends on t alone, so the replay reads the rule the other way round: it
walks the batches in order, runs one full pass of batch t on the live
version (which is floor(t / M) by construction) and adds module k's
slice to module k's accumulator for update floor((t + 2*(K-k)) / M).  At
the end of each group of M batches every module steps its slice of the
one whole-network parameter list.
Because the counter-based sampler lets any batch be rematerialized
exactly and ga_update is shared, a run_clocked trace must match the
replay bit for bit -- that equality is the core correctness claim for
the delayed-gradient bookkeeping.  The replay is an oracle, not a
training path.

The replay streams each update's K module records to scheduler._assemble,
which builds every runner's trace, version 0 of the history from the
config, so divergence follows the pipeline's rule: the trace and the
replay stop at the first update that divergence_reason names, and the
pipeline runners execute all S updates and cut their traces there.
Every runner names the same reason and S, and sets its own wall_time.

sync_ga_sgd is the replay's K = 1 case: one module over the whole
network has no delay, so update s+1 is M ordinary forward/backward
passes on version s followed by one accumulated-SGD step.  It must match
run_clocked with K = 1 bit for bit.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np

from .data import Dataset, sample_batch
from .net import init_states, net_backward, net_forward
from .optimizer import Accumulator, ga_update, grads_sumsq, lr_at
from .partition import Partition
from .scheduler import TrainConfig, WorkerUpdate, _assemble, _check_dataset
from .trace import RunTrace

__all__ = ["sync_ga_sgd", "delayed_replay"]


def sync_ga_sgd(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Plain gradient-accumulation SGD on the unsplit network: the
    delayed replay of a single module that owns every layer."""
    whole = Partition((0, len(cfg.layers)))
    trace = delayed_replay(dataclasses.replace(cfg, partition=whole), dataset)
    return dataclasses.replace(trace, mode="sync-ga")


def delayed_replay(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Recompute the pipeline's update sequence from its defining formula,
    with one forward/backward pass per batch on params, the live version
    of the whole network; module k steps its slice of it.  The replay
    sets wall_time itself: it covers the replay and building its records."""
    _check_dataset(cfg, dataset)
    K, M, S = cfg.K, cfg.ga_steps, cfg.updates
    params = [st.params for st in
              init_states(cfg.layers, cfg.seed, cfg.init_scale)]
    bounds = cfg.partition.bounds
    slices = {k: slice(bounds[k - 1], bounds[k]) for k in range(1, K + 1)}
    velocities = dict.fromkeys(slices)
    accs = {k: {} for k in slices}  # update index -> open Accumulator

    def acc_for(k, u):
        """Module k's accumulator for update u, opened with its fill slots."""
        acc = accs[k].get(u)
        if acc is None:
            acc = accs[k][u] = Accumulator(
                [p.size for p in params[slices[k]]], M)
            first = M * u - 2 * (K - k)
            for t in range(first, min(first + M, 0)):
                acc.add_skipped(t)
        return acc

    def replay(t):
        """Batch t on the live version t // M; each module's slice goes to
        the update that reads it.  Returns the loss."""
        x, y = sample_batch(dataset, cfg.batch_size, cfg.sampler_seed, t)
        loss, ctx = net_forward(cfg.layers, params, x, cfg.loss, y)
        grads, _ = net_backward(cfg.layers, params, ctx, False)
        for k, sl in slices.items():
            u = (t + 2 * (K - k)) // M
            if u < S:
                acc_for(k, u).add(grads[sl], t, t // M)
        return loss

    def close(k, s, losses=()):
        """Step module k to version s + 1 and return its WorkerUpdate."""
        sl, acc = slices[k], acc_for(k, s)
        del accs[k][s]
        params[sl], velocities[k], avg = ga_update(
            params[sl], acc, lr_at(cfg.schedule, s), cfg.sgd, velocities[k])
        return WorkerUpdate(
            grads_sumsq(avg), list(acc.slots),
            params[sl] if cfg.record_params else None,
            avg if cfg.record_grads else None, losses)

    def groups():
        """Replay update by update, yielding each one's K records."""
        for s in range(S):
            losses = [replay(t) for t in range(M * s, M * (s + 1))]
            yield [close(k, s) for k in range(1, K)] + [close(K, s, losses)]

    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = _assemble(cfg, "delayed-replay", groups())
    trace.wall_time = time.perf_counter() - t0
    return trace
