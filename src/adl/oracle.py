"""Reference trainers the pipeline is checked against.

delayed_replay reconstructs what the pipeline is *supposed* to compute,
from first principles and without any message passing: the j-th
gradient of update s+1 in module k is the slice of a full-network
gradient evaluated on the parameter snapshot of version
floor((M*s + j - 2*(K-k)) / M) with batch M*s + j - 2*(K-k) (negative
indices are skipped fill slots).  All modules then step simultaneously.
Because the counter-based sampler lets any batch be rematerialized
exactly and ga_update is shared, a healthy run_clocked trace must match
the replay bit for bit -- that equality is the core correctness claim
for the delayed-gradient bookkeeping.  The replay deliberately wastes
work (one full pass per module per slot); it is an oracle, not a
training path.

sync_ga_sgd is the replay's K = 1 case: one module over the whole
network has no delay, so update s+1 is M ordinary forward/backward
passes on version s followed by one accumulated-SGD step.  It must match
run_clocked with K = 1 bit for bit.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .data import Dataset, sample_batch
from .errors import ProtocolError
from .net import LayerState, init_states, net_backward, net_forward
from .optimizer import (Accumulator, ga_update, global_grad_norm,
                        grads_sumsq, lr_at)
from .partition import Partition
from .scheduler import TrainConfig, _check_dataset, prune_snapshots
from .trace import RunTrace, StopWatch, UpdateRecord

__all__ = ["sync_ga_sgd", "delayed_replay"]


def _wrap(params):
    return [LayerState(p) for p in params]


def sync_ga_sgd(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Plain gradient-accumulation SGD on the unsplit network: the
    delayed replay of a single module that owns every layer."""
    whole = Partition(len(cfg.layers), (0, len(cfg.layers)))
    trace = delayed_replay(dataclasses.replace(cfg, partition=whole), dataset)
    return dataclasses.replace(trace, mode="sync-ga")


def delayed_replay(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Recompute the pipeline's update sequence from its defining formula."""
    _check_dataset(cfg, dataset)
    specs = cfg.layers
    K, M, S = cfg.K, cfg.ga_steps, cfg.updates
    states0 = init_states(specs, cfg.seed, cfg.init_scale)
    module_layers = {k: list(cfg.partition.layers_of(k))
                     for k in range(1, K + 1)}
    module_params = {k: [states0[i].params for i in module_layers[k]]
                     for k in range(1, K + 1)}
    velocities = dict.fromkeys(module_params, None)
    snapshots = {0: [st.params for st in states0]}  # full net, per version
    updates, grads_hist = [], []
    diverged = False
    reason = None
    with StopWatch() as sw, np.errstate(over="ignore", invalid="ignore"):
        for s in range(S):
            lr = lr_at(cfg.schedule, s)
            sumsqs, slot_map, avg_flats = [], {}, []
            loss_close = None
            for k in range(1, K + 1):
                acc = Accumulator([p.size for p in module_params[k]], M)
                for j in range(M):
                    t = M * s + j - 2 * (K - k)
                    if t < 0:
                        acc.add_skipped(t)
                        continue
                    v = t // M  # == effective_version(s, j, K, k, M)
                    if v not in snapshots:
                        raise ProtocolError(f"replay does not hold version {v}")
                    x, y = sample_batch(dataset, cfg.batch_size,
                                        cfg.sampler_seed, t)
                    loss, ctx = net_forward(specs, _wrap(snapshots[v]), x,
                                            cfg.loss, y)
                    if k == K:
                        if not np.isfinite(loss) or \
                                abs(loss) > cfg.divergence_limit:
                            diverged = True
                            reason = reason or f"loss={loss!r} at batch {t}"
                        if j == M - 1:
                            loss_close = loss
                    grads, _ = net_backward(specs, _wrap(snapshots[v]), ctx,
                                            cfg.loss, y)
                    acc.add([grads[i] for i in module_layers[k]], t, v)
                slot_map[k] = list(acc.slots)
                module_params[k], velocities[k], avg = ga_update(
                    module_params[k], acc, lr, cfg.sgd, velocities[k])
                sumsq = grads_sumsq(avg)
                sumsqs.append(sumsq)
                if cfg.record_grads:
                    avg_flats.append(np.concatenate([a.ravel() for a in avg]))
                if not np.isfinite(sumsq) or \
                        np.sqrt(sumsq) > cfg.divergence_limit:
                    diverged = True
                    reason = reason or (f"module {k} gradient norm "
                                        f"{np.sqrt(sumsq)!r} at update {s + 1}")
            snapshots[s + 1] = [p for k in range(1, K + 1)
                                for p in module_params[k]]
            if not cfg.record_params:
                prune_snapshots(snapshots, M * (s + 1) - 2 * (K - 1), M)
            norm = global_grad_norm(sumsqs)
            updates.append(UpdateRecord(s, M * (s + 1) + K - 2, loss_close,
                                        norm, slot_map))
            if cfg.record_grads:
                grads_hist.append(np.concatenate(avg_flats))
            if not np.isfinite(norm) or norm > cfg.divergence_limit:
                diverged = True
                reason = reason or f"gradient norm {norm!r} at update {s + 1}"
            if diverged:
                break
    trace = RunTrace("delayed-replay", K, M, updates, diverged=diverged,
                     divergence_reason=reason, wall_time=sw.elapsed)
    if cfg.record_params and not diverged:
        trace.params = [np.concatenate([p.ravel() for p in snap])
                        for snap in snapshots.values()]
    if cfg.record_grads and not diverged:
        trace.grads = grads_hist
    return trace
