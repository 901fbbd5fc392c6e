"""Pipeline schedule, provenance, and the clocked runner."""
import gc
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adl import net
from adl.errors import ConfigError
from adl.optimizer import ConstantLr, SgdConfig
from adl.partition import Partition, partition_even
from adl.oracle import delayed_replay, sync_ga_sgd
from adl.scheduler import (TrainConfig, run_clocked, run_parallel,
                           schedule_position)
from adl.staleness import effective_version, steady_staleness
from adl.trace import compare_traces, read_csv
from adl import data, optimizer, oracle, scheduler

ROOT = Path(__file__).resolve().parents[1]


def earliest_ticks(K, max_batch):
    """Least-fixed-point schedule from the message dependencies alone.

    forward(b, k) needs forward(b, k-1) one tick earlier (activation
    hand-off) and the module free (one forward per tick); backward(b, k)
    needs backward(b, k+1) one tick earlier (gradient hand-off), its own
    forward done, and the module free.  The top module backpropagates in
    the same tick as its forward.
    """
    fwd = {}
    bwd = {}
    for b in range(max_batch + 1):
        for k in range(1, K + 1):
            lo = 0
            if k > 1:
                lo = max(lo, fwd[b, k - 1] + 1)
            if b > 0:
                lo = max(lo, fwd[b - 1, k] + 1)
            fwd[b, k] = lo
    for b in range(max_batch + 1):
        for k in range(K, 0, -1):
            lo = fwd[b, k]
            if k < K:
                lo = max(lo, bwd[b, k + 1] + 1)
            if b > 0:
                lo = max(lo, bwd[b - 1, k] + 1)
            bwd[b, k] = lo
    return fwd, bwd


def test_schedule_position_examples():
    assert schedule_position(0, 3, 3) == (2, 2)
    assert schedule_position(0, 1, 3) == (0, 4)
    for b in range(5):
        f, bk = schedule_position(b, 1, 1)
        assert f == bk == b


@pytest.mark.parametrize("K", [1, 2, 3, 4, 6])
def test_schedule_position_matches_dependency_fixpoint(K):
    fwd, bwd = earliest_ticks(K, 20)
    for b in range(21):
        for k in range(1, K + 1):
            assert schedule_position(b, k, K) == (fwd[b, k], bwd[b, k])


def test_schedule_position_validation():
    with pytest.raises(ConfigError):
        schedule_position(-1, 1, 1)
    with pytest.raises(ConfigError):
        schedule_position(0, 3, 2)


# ------------------------------------------------------------- provenance

@pytest.mark.parametrize("K", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [1, 3, 4])
def test_provenance_matches_staleness_formulas(K, M, ident_case):
    cfg, ds = ident_case(K, M, S=8)
    trace = run_clocked(cfg, ds)
    assert trace.S == 8 and not trace.diverged
    for rec in trace.updates:
        for k in range(1, K + 1):
            slots = rec.slots[k]
            assert [sl.j for sl in slots] == list(range(M))
            for j, sl in enumerate(slots):
                t_b = M * rec.s + j - 2 * (K - k)
                assert sl.batch_index == t_b
                if t_b < 0:
                    assert sl.skipped
                else:
                    assert sl.version == effective_version(rec.s, j, K, k, M)
                    assert rec.s - sl.version == steady_staleness(
                        K, k, M, j)


def test_group_delay_pattern_k3_m4(ident_case):
    # module 2 of a 3-module pipeline with M=4 sees delays (1,1,0,0)
    cfg, ds = ident_case(3, 4, S=10)
    trace = run_clocked(cfg, ds)
    for rec in trace.updates[1:]:
        ds_seen = [rec.s - sl.version for sl in rec.slots[2]]
        assert ds_seen == [1, 1, 0, 0]


def test_no_accumulation_constant_delay(ident_case):
    # M=1: after pipeline fill every gradient is exactly 2*(K-k) stale
    K = 3
    cfg, ds = ident_case(K, 1, S=12)
    trace = run_clocked(cfg, ds)
    for rec in trace.updates:
        for k in range(1, K + 1):
            sl = rec.slots[k][0]
            if rec.s >= 2 * (K - k):
                assert rec.s - sl.version == 2 * (K - k)
            else:
                assert sl.skipped


def test_update_ticks_and_counts(ident_case, monkeypatch):
    K, M, S = 3, 4, 5
    cfg, ds = ident_case(K, M, S)
    drawn = []

    def sample(dataset, size, seed, t):
        drawn.append(t)
        return data.sample_batch(dataset, size, seed, t)

    monkeypatch.setattr(scheduler, "sample_batch", sample)
    trace = run_clocked(cfg, ds)
    assert drawn == list(range(M * S))  # once per batch, by module 1
    assert trace.S == S
    assert [rec.tick for rec in trace.updates] == [
        M * (s + 1) + K - 2 for s in range(S)]
    assert all(set(rec.slots) == {1, 2, 3} for rec in trace.updates)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("K,M", list(itertools.product((2, 3, 4), (1, 2, 4))))
def test_snapshot_ring_does_not_depend_on_recording(K, M, record, spiral_case,
                                                    monkeypatch):
    # module k holds the versions its later backwards read, at most
    # ceil(2(K-k)/M) + 1, whether or not the history is recorded
    high, process_slot = {}, scheduler.ModuleWorker.process_slot

    def counted(worker, *args):
        out = process_slot(worker, *args)
        high[worker.k] = max(high.get(worker.k, 0), len(worker.snapshots))
        return out

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", counted)
    cfg, ds = spiral_case(K, M, S=12, record_params=record)
    trace = run_clocked(cfg, ds)
    assert high == {k: math.ceil(2 * (K - k) / M) + 1
                    for k in range(1, K + 1)}
    assert len(trace.params or ()) == (13 if record else 0)


@pytest.mark.parametrize("runner", [run_clocked, run_parallel])
@pytest.mark.parametrize("K,M", itertools.product((2, 3, 4), (1, 2, 3)))
def test_module_1_stashes_no_weights_for_the_first_layer(K, M, runner,
                                                         spiral_case,
                                                         monkeypatch):
    # the first layer forms no input gradient, so module 1's stash entries
    # hold None for it and every other layer's weights; the other modules
    # stash every layer's weights.  One list per version serves all its
    # entries, the live parameter list itself outside module 1, and the
    # versions held still peak at ceil(2(K-k)/M) + 1
    high, wrong, seen = {}, [], set()
    process_slot = scheduler.ModuleWorker.process_slot

    def checked(worker, u, *args):
        out = process_slot(worker, u, *args)
        k = worker.k
        high[k] = max(high.get(k, 0), len(worker.snapshots))
        lists = {}
        for _, _, v, params in worker.stash:
            seen.add(k)
            nones = [i for i, p in enumerate(params) if p is None]
            if nones != ([0] if k == 1 else []):
                wrong.append((k, u, v, nones))
            if lists.setdefault(v, params) is not params:
                wrong.append((k, u, v, "a second list"))
        if k > 1 and lists.get(worker.version, worker.params) is not \
                worker.params:
            wrong.append((k, u, "not the live list"))
        return out

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", checked)
    cfg, ds = spiral_case(K, M, S=12)
    assert runner(cfg, ds).S == 12
    assert wrong == [] and seen == set(range(1, K))  # module K keeps none
    assert high == {k: math.ceil(2 * (K - k) / M) + 1
                    for k in range(1, K + 1)}


# networks behind a parameterless first layer, split so that module 1
# holds its first affine layer alone, a layer with weights above it too,
# or no layer with parameters at all; first is the last layer module 1
# hands None
TANH_FIRST = [net.tanh(2), net.affine(2, 16), net.tanh(16), net.affine(16, 2)]
TANH_FIRST_5 = TANH_FIRST[:3] + [net.affine(16, 16), net.affine(16, 2)]


@pytest.mark.parametrize("runner", [run_clocked, run_parallel])
@pytest.mark.parametrize("M", (1, 2))
@pytest.mark.parametrize("specs,bounds,first", [
    (TANH_FIRST, (0, 2, 4), 1), (TANH_FIRST_5, (0, 4, 5), 1),
    (TANH_FIRST_5, (0, 1, 3, 5), 0)])
def test_module_1_reads_no_weights_up_to_its_first_affine_layer(
        specs, bounds, first, M, runner, monkeypatch):
    # module 1 hands its backward None for every layer up to and including
    # its first with parameters (every layer if it has none), so those
    # form no input gradient, its stash entries hold None there and its
    # first affine layer keeps only its live version; the layers above
    # form one input gradient per backward and keep their stashed versions
    S, K = 6, len(bounds) - 1
    local, wrong = threading.local(), []  # one slot's calls per thread
    formed = [0] * bounds[1]  # module 1's input gradients, by layer
    refs = {}  # (layer, version) -> weak reference to module 1's array
    process_slot, backward = (scheduler.ModuleWorker.process_slot,
                              scheduler.layer_backward)

    def watched_backward(*args):
        out = backward(*args)
        local.inputs.append(out[1] is not None)
        return out

    def watch(worker):
        for i, p in enumerate(worker.params):
            if p.size:
                refs.setdefault((i, worker.version), weakref.ref(p))

    def checked(worker, u, *args):
        local.inputs = []
        if worker.k > 1:
            return process_slot(worker, u, *args)
        watch(worker)
        out = process_slot(worker, u, *args)
        watch(worker)
        for i, made in enumerate(reversed(local.inputs)):
            formed[i] += made
        for _, _, v, params in worker.stash:
            nones = [i for i, p in enumerate(params) if p is None]
            if nones != list(range(first + 1)):
                wrong.append((u, v, nones))
        stashed = {v for _, _, v, _ in worker.stash}
        for layer in {i for i, _ in refs}:
            alive = {v for (i, v), ref in refs.items()
                     if i == layer and ref() is not None}
            want = {worker.version} | (set() if layer == first else stashed)
            if alive != want:
                wrong.append((u, layer, sorted(alive), sorted(want)))
        return out

    monkeypatch.setattr(scheduler, "layer_backward", watched_backward)
    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", checked)
    cfg = TrainConfig(specs, Partition(bounds), net.SOFTMAX_CE, M, 8, S,
                      ConstantLr(0.05), SgdConfig(), seed=0)
    assert runner(cfg, data.gen_two_spirals(64, 0.0, seed=1)).S == S
    backwards = M * S - 2 * (K - 1)
    assert formed == [0] * (first + 1) + [backwards] * (bounds[1] - first - 1)
    assert wrong == []


@pytest.mark.parametrize("runner", [run_clocked, run_parallel])
@pytest.mark.parametrize("K,M", itertools.product((2, 3, 4), (1, 2, 3, 4)))
def test_a_version_is_freed_after_its_last_reader(K, M, runner, spiral_case,
                                                  monkeypatch):
    # after slot u each layer with parameters of module k keeps alive its
    # live version and the versions of the batches b in (u - 2(K-k), u]
    # whose backward is still to come, and nothing else; module 1's first
    # layer, whose backward reads no weights, keeps only its live version.
    # A weak reference to each version of each such layer's array tells
    # which versions are still alive
    S = 6
    refs = {k: {} for k in range(1, K + 1)}  # one dict per module thread
    wrong, process_slot = [], scheduler.ModuleWorker.process_slot

    def watch(worker):
        for i, p in enumerate(worker.params):
            if p.size:
                refs[worker.k].setdefault((i, worker.version), weakref.ref(p))

    def checked(worker, u, *args):
        watch(worker)
        out = process_slot(worker, u, *args)
        watch(worker)
        k, d = worker.k, 2 * (K - worker.k)
        stashed = range(max(0, u - d + 1), min(u + 1, M * S - d))
        for layer in {i for i, _ in refs[k]}:
            alive = {v for (i, v), ref in refs[k].items()
                     if i == layer and ref() is not None}
            want = {worker.version}
            if (k, layer) != (1, 0):
                want |= {b // M for b in stashed}
            if alive != want:
                wrong.append((k, layer, u, sorted(alive), sorted(want)))
        return out

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", checked)
    cfg, ds = spiral_case(K, M, S=S)
    assert runner(cfg, ds).S == S
    assert all(refs.values())
    assert (0, 0) in refs[1]  # the first layer has weights to track
    assert wrong == []


@pytest.mark.parametrize("runner", [run_clocked, run_parallel, sync_ga_sgd,
                                    delayed_replay])
@pytest.mark.parametrize("K", (1, 2, 3))
def test_an_averaged_gradient_dies_with_its_update(K, runner, spiral_case,
                                                   monkeypatch):
    # at momentum 0 and without record_grads an update's averaged gradient
    # lives on only as the new version written into it: when ga_update is
    # entered, an average an earlier call of the same thread handed it is
    # alive only as an array of a version a module still reads.  Those are
    # the snapshots (live and stashed versions) of the pipeline workers
    # whose slots the thread runs, and in a replay each module's live
    # version, the last one returned per module.  Each module of
    # run_parallel is a thread, the other runners' modules take turns on one
    refs, wrong, workers, versions = {}, [], {}, []
    process_slot, ga_update = scheduler.ModuleWorker.process_slot, \
        scheduler.ga_update
    modules = 1 if runner is sync_ga_sgd else K

    def slot(worker, *args):
        workers.setdefault(threading.get_ident(), set()).add(worker)
        return process_slot(worker, *args)

    def read(me):
        if me in workers:
            return {id(p) for w in workers[me]
                    for params in w.snapshots.values() for p in params}
        return {id(ref()) for version in versions[-modules:]
                for ref in version if ref() is not None}

    def watched(params, avg, *args):
        me = threading.get_ident()
        mine = refs.setdefault(me, [])
        reads = read(me)
        wrong.extend(ref for ref in mine if ref() is not None
                     and id(ref()) not in reads)
        out = ga_update(params, avg, *args)
        mine.extend(weakref.ref(g) for g in avg if g.size)
        versions.append([weakref.ref(p) for p in out[0] if p.size])
        return out

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", slot)
    monkeypatch.setattr(scheduler, "ga_update", watched)
    monkeypatch.setattr(oracle, "ga_update", watched)
    cfg, ds = spiral_case(K, 2, S=4)
    assert runner(cfg, ds).S == 4
    assert sum(map(len, refs.values())) == 4 * 4  # S times 4 affine layers
    assert wrong == []


@pytest.mark.parametrize("runner", [run_clocked, run_parallel, sync_ga_sgd,
                                    delayed_replay])
@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("sgd", [SgdConfig(), SgdConfig(0.9, 1e-3)],
                         ids=["plain", "momentum-decay"])
def test_a_new_version_is_written_into_its_average(runner, record, sgd,
                                                   spiral_case, monkeypatch):
    # the update takes its average's arrays over: each new version's
    # arrays are the average's, and with record_grads the module records
    # a copy taken before the update, the bits of the average itself;
    # an average and the record made of it share a thread
    local, versions, records = threading.local(), [], []
    ga_update, worker_update = scheduler.ga_update, scheduler.WorkerUpdate

    class Accumulator(optimizer.Accumulator):
        __slots__ = ()

        def average(self):
            avg = super().average()
            local.average = [g.copy() for g in avg]
            return avg

    def update(params, avg, *args):
        out = ga_update(params, avg, *args)
        versions.append(all(p is g for p, g in zip(out[0], avg) if p.size))
        return out

    def recorded(sumsq, slots, params, grads, losses):
        if record:
            fresh = local.average
            records.append(len(grads) == len(fresh) and all(
                np.array_equal(g.view(np.int64), f.view(np.int64))
                for g, f in zip(grads, fresh)))
        else:
            records.append(grads is None)
        return worker_update(sumsq, slots, params, grads, losses)

    for mod in (scheduler, oracle):
        monkeypatch.setattr(mod, "Accumulator", Accumulator)
        monkeypatch.setattr(mod, "ga_update", update)
        monkeypatch.setattr(mod, "WorkerUpdate", recorded)
    cfg, ds = spiral_case(3, 2, S=4, sgd=sgd, record_grads=record)
    assert runner(cfg, ds).S == 4
    modules = 1 if runner is sync_ga_sgd else 3
    assert len(versions) == len(records) == modules * 4
    assert all(versions) and all(records)


@pytest.mark.parametrize("runner", [run_clocked, run_parallel])
@pytest.mark.parametrize("K,M", [(2, 1), (3, 2), (4, 3)])
def test_a_backward_leaves_nothing_alive_for_the_update(K, M, runner,
                                                        spiral_case,
                                                        monkeypatch):
    # when ga_update is entered, the slot's backward is over: of the
    # parameter gradients layer_backward returned only those the
    # accumulator adopted as its sums (one per layer), which are now the
    # average handed to the update, and those an earlier update wrote a
    # live or stashed version into are alive, each layer with parameters
    # holds only its live version and its stashed batches' versions
    # (module 1's first layer, whose backward reads no weights, only its
    # live version), and of this slot's layer outputs only the last and
    # the stashed ones are alive; each module of run_parallel is a thread,
    # so the slot's worker and outputs are kept per thread, and the
    # gradients per module, since run_clocked runs every module in one
    local, wrong, updates = threading.local(), [], []
    versions = {}  # (module, layer, version) -> weak reference to its array
    grads = {}  # module -> weak references to its parameter gradients
    process_slot = scheduler.ModuleWorker.process_slot
    forward, backward = scheduler.layer_forward, scheduler.layer_backward
    ga_update = scheduler.ga_update

    def slot(worker, *args):
        for i, p in enumerate(worker.params):
            if p.size:
                versions.setdefault((worker.k, i, worker.version),
                                    weakref.ref(p))
        local.worker, local.outputs = worker, []
        return process_slot(worker, *args)

    def watched_forward(*args):
        out = forward(*args)
        local.outputs.append(weakref.ref(out[0]))
        return out

    def watched_backward(*args):
        out = backward(*args)
        if out[0].size:
            grads.setdefault(local.worker.k, []).append(weakref.ref(out[0]))
        return out

    def update(*args):
        w = local.worker
        updates.append(w.k)
        held = {id(a) for a in args[1]} | {
            id(a) for params in w.snapshots.values() for a in params}
        live = {id(ref()) for ref in grads.get(w.k, ()) if ref() is not None}
        if not live <= held:
            wrong.append((w.k, w.version, "parameter gradient"))
        stashed = {v for _, _, v, _ in w.stash}
        for layer in {i for k, i, _ in versions if k == w.k}:
            alive = {v for (k, i, v), ref in versions.items()
                     if (k, i) == (w.k, layer) and ref() is not None}
            want = {w.version} | (set() if (w.k, layer) == (1, 0) else stashed)
            if alive != want:
                wrong.append((w.k, layer, w.version, "versions",
                              sorted(alive)))
        kept = {id(a) for _, inters, _, _ in w.stash for a in inters}
        outputs = [ref() for ref in local.outputs[:-1]]
        if any(a is not None and id(a) not in kept for a in outputs):
            wrong.append((w.k, w.version, "intermediate"))
        del outputs
        return ga_update(*args)

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", slot)
    monkeypatch.setattr(scheduler, "layer_forward", watched_forward)
    monkeypatch.setattr(scheduler, "layer_backward", watched_backward)
    monkeypatch.setattr(scheduler, "ga_update", update)
    cfg, ds = spiral_case(K, M, S=4)
    assert runner(cfg, ds).S == 4
    # versions 0..S-1 read, module 1's first layer among the layers tracked
    assert len(updates) == len({(k, v) for k, _, v in versions}) == K * 4
    assert (1, 0, 0) in versions
    assert wrong == []


@pytest.mark.parametrize("bounds", [(0, 8), (0, 4, 8), (0, 4, 6, 8)])
def test_a_slot_frees_each_intermediate_after_its_last_reader(bounds,
                                                             monkeypatch):
    # every module ends with an affine layer, whose output no module keeps,
    # so the intermediates a slot's backward reads are its batch's alone:
    # each is dead once the lowest layer that reads it has run, whatever
    # other layers read it too (a tanh's output is also the input the
    # identity and affine layers above it keep); the slot's own input,
    # held by its caller, is the one exception
    specs = [net.affine(2, 6), net.tanh(6), net.identity(6),
             net.affine(6, 6), net.relu(6), net.affine(6, 6), net.tanh(6),
             net.affine(6, 2)]
    cfg = TrainConfig(specs, Partition(bounds), net.SOFTMAX_CE, 2, 4, 3,
                      ConstantLr(0.1), seed=3)
    ds = data.gen_two_spirals(32, 0.0, seed=1)
    process_slot = scheduler.ModuleWorker.process_slot
    backward = scheduler.layer_backward
    read, early = [], []  # weak references to what this slot's backward read

    def slot(worker, u, x, *args):
        read.clear()
        out = process_slot(worker, u, x, *args)
        early.extend((worker.k, u) for ref in read
                     if ref() is not None and ref() is not x)
        return out

    def watched(spec, p, inter, gout):
        early.extend(spec for ref in read
                     if ref() is not None and ref() is not inter)
        read.append(weakref.ref(inter))
        return backward(spec, p, inter, gout)

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", slot)
    monkeypatch.setattr(scheduler, "layer_backward", watched)
    assert run_clocked(cfg, ds).S == 3
    assert early == []


def test_run_clocked_calls_every_name_the_tracer_wraps(spiral_case,
                                                       monkeypatch):
    # bench/tracing.py times these calls by replacing adl.scheduler's
    # module names and two methods, as this test counts them: a hot path
    # that stopped calling through one of them would drop its spans
    K, M, S = 3, 2, 4
    cfg, ds = spiral_case(K, M, S=S)
    names = ("sample_batch", "layer_forward", "layer_backward",
             "loss_and_grad", "ga_update", "grads_sumsq")
    calls = dict.fromkeys(names + ("add", "process_slot"), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(scheduler, name,
                            counted(name, getattr(scheduler, name)))
    monkeypatch.setattr(optimizer.Accumulator, "add",
                        counted("add", optimizer.Accumulator.add))
    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot",
                        counted("process_slot",
                                scheduler.ModuleWorker.process_slot))
    assert run_clocked(cfg, ds).S == S
    backward = sum((M * S - 2 * (K - k)) * len(cfg.partition.layers_of(k))
                   for k in range(1, K + 1))
    assert calls == {"process_slot": K * M * S, "sample_batch": M * S,
                     "layer_forward": M * S * len(cfg.layers),
                     "layer_backward": backward, "loss_and_grad": M * S,
                     "ga_update": K * S, "grads_sumsq": K * S,
                     "add": K * M * S - K * (K - 1)}


def test_tick_events_example(ident_case):
    # 3-module pipeline, M=4: at tick 5 module 2 forwards batch 4 and
    # backpropagates batch 2, with no update; its first update lands at
    # tick 4 (slot 3 closes the first group)
    cfg, ds = ident_case(3, 4, S=3, trace_ticks=True)
    trace = run_clocked(cfg, ds)
    at_5 = [(e.kind, e.index) for e in trace.events
            if e.tick == 5 and e.module == 2]
    assert at_5 == [("forward", 4), ("backward", 2)]
    first_update = next((e.tick, e.index) for e in trace.events
                        if e.module == 2 and e.kind == "update")
    assert first_update == (4, 1)


def schedule_events(K, M, S, last=math.inf):
    """The tick events of the pipeline from schedule_position and the
    update rule alone (update s+1 fires at the forward of batch
    M*(s+1) - 1), sorted by tick, module and forward < backward <
    update, through tick last."""
    MS, order = M * S, {"forward": 0, "backward": 1, "update": 2}
    events = []
    for k in range(1, K + 1):
        for b in range(MS):
            fwd, bwd = schedule_position(b, k, K)
            events.append((fwd, k, "forward", b))
            if bwd - (k - 1) < MS:  # the backward's slot exists
                events.append((bwd, k, "backward", b))
        for s in range(S):
            tick = schedule_position(M * (s + 1) - 1, k, K)[0]
            events.append((tick, k, "update", s + 1))
    return sorted((e for e in events if e[0] <= last),
                  key=lambda e: (e[0], e[1], order[e[2]]))


# M = 3 does not divide 2*(K-k) at K = 3 or 5; at K = 5, M = 1 the 3
# batches end before module 1's first backward; the last case diverges
TICK_GRID = [
    *((K, M, 3, 0.05) for K, M in itertools.product((1, 2, 3, 5),
                                                    (1, 2, 3, 4))),
    (3, 2, 60, 2000.0)]


@pytest.mark.parametrize("K,M,S,lr", TICK_GRID)
def test_tick_events_follow_the_schedule(K, M, S, lr, spiral_case):
    cfg, ds = spiral_case(K, M, S=S, lr=lr, trace_ticks=True)
    clocked = run_clocked(cfg, ds)
    assert clocked.diverged == (lr > 1)
    last = clocked.updates[-1].tick if clocked.diverged else math.inf
    expected = schedule_events(K, M, S, last)
    assert list(clocked.events) == expected
    assert list(run_parallel(cfg, ds).events) == expected
    if clocked.diverged:  # module K's update of the last kept version
        assert expected[-1] == (last, K, "update", clocked.S)


@pytest.mark.parametrize("M", (1, 2, 3, 4))
@pytest.mark.parametrize("runner", (run_clocked, run_parallel, delayed_replay))
def test_trace_slot_lists_hold_no_spare_capacity(runner, M, spiral_case):
    # every update keeps its K slot lists, so none may carry the spare
    # capacity a list grown by append holds
    cfg, ds = spiral_case(2, M, S=3)
    trace = runner(cfg, ds)
    assert trace.S == 3
    for rec in trace.updates:
        for slots in rec.slots.values():
            assert sys.getsizeof(slots) == sys.getsizeof(list(slots)), M


@pytest.mark.parametrize("runner", [run_clocked, delayed_replay])
def test_an_accumulator_dies_with_its_update(runner, spiral_case,
                                             monkeypatch):
    # each update group has its own accumulator: by the time any module
    # averages a group for its update, every accumulator an earlier update
    # consumed is gone
    cfg, ds = spiral_case(3, 2, S=6)
    consumed = []

    class Accumulator(optimizer.Accumulator):
        __slots__ = ("__weakref__",)

        def average(self):
            assert all(ref() is None for ref in consumed)
            consumed.append(weakref.ref(self))
            return super().average()

    for mod in (scheduler, oracle):
        monkeypatch.setattr(mod, "Accumulator", Accumulator)
    assert runner(cfg, ds).S == 6
    assert len(consumed) == 3 * 6


def test_a_tick_trace_holds_no_event(spiral_case):
    # the events are derived from the clock when read, so tick tracing
    # retains next to nothing over the same run without it, at any S
    def retained(S, ticks):
        cfg, ds = spiral_case(3, 2, S=S, trace_ticks=ticks)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_clocked(cfg, ds)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.S == S
        return kept

    for ticks in (False, True):  # warm every cache the runner fills once
        retained(2, ticks)
    for S in (16, 1024):
        assert retained(S, True) - retained(S, False) < 2048, S


def test_a_worker_holds_an_accumulator_only_while_its_group_is_open(
        spiral_case):
    # a group opens at its first slot and closes at its update
    cfg, ds = spiral_case(3, 2, S=4)
    workers = scheduler.build_workers(cfg)
    assert all(w.acc is None for w in workers)
    edges = scheduler._edges(cfg.K, 0.0)
    for _, k, u in scheduler._clock(cfg.K, cfg.total_batches):
        w = workers[k - 1]
        scheduler.feed_slot(w, u, scheduler._ports(edges, k), cfg, ds)
        assert (w.acc is None) == (u % 2 == 1)
    assert all(w.acc is None for w in workers)


def test_bootstrap_updates_are_zero_steps(spiral_case):
    # K=2, M=1: module 1's first two groups hold only skipped slots, so
    # its parameters stay at initialization through version 2
    cfg, ds = spiral_case(2, 1, S=6, record_params=True)
    trace = run_clocked(cfg, ds)
    n1 = sum(cfg.layers[i].param_count
             for i in cfg.partition.layers_of(1))
    p = trace.params
    np.testing.assert_array_equal(p[1][:n1], p[0][:n1])
    np.testing.assert_array_equal(p[2][:n1], p[0][:n1])
    assert not np.array_equal(p[3][:n1], p[0][:n1])
    # the loss-owning module is never skipped
    assert not np.array_equal(p[1][n1:], p[0][n1:])


def test_clocked_run_is_deterministic(spiral_case):
    cfg, ds = spiral_case(3, 2, S=10, record_params=True, record_grads=True)
    a = run_clocked(cfg, ds)
    b = run_clocked(cfg, ds)
    rep = compare_traces(a, b, tol=0.0)
    assert rep.passed and rep.max_param_diff == 0.0
    for ga, gb in zip(a.grads, b.grads):
        np.testing.assert_array_equal(ga, gb)


def test_replaced_seed_also_rekeys_the_sampler(spiral_case):
    cfg, ds = spiral_case(2, 2, S=6, seed=1, record_params=True)
    fresh, _ = spiral_case(2, 2, S=6, seed=7, record_params=True)
    rep = compare_traces(run_clocked(replace(cfg, seed=7), ds),
                         run_clocked(fresh, ds), tol=0.0)
    assert rep.passed and rep.max_param_diff == 0.0


def test_momentum_and_decay_run_through_pipeline(spiral_case):
    cfg, ds = spiral_case(3, 2, S=8, sgd=SgdConfig(momentum=0.9,
                                                   weight_decay=1e-3))
    trace = run_clocked(cfg, ds)
    assert trace.S == 8 and not trace.diverged


def test_divergence_stops_run_with_partial_trace(spiral_case):
    cfg, ds = spiral_case(2, 1, S=60, lr=2000.0)
    trace = run_clocked(cfg, ds)
    assert trace.diverged
    assert trace.divergence_reason
    assert 0 < trace.S < 60


def test_divergence_reason_priority():
    # modules 1..K-1 by norm in module order, then module K's first
    # offending loss, then module K's norm, then the whole-network norm
    reason = scheduler.divergence_reason
    nan, inf = float("nan"), float("inf")
    assert reason(4, None, [1.0, 1.0, 1.0], 2.0) is None
    assert reason(4, (13, 7.5), [16.0, 9.0, 25.0], 2.0) == \
        "module 1 gradient norm 4.0 at update 5"
    assert reason(4, (13, 7.5), [1.0, 9.0, 25.0], 2.0) == \
        "module 2 gradient norm 3.0 at update 5"
    assert reason(4, (13, 7.5), [1.0, 1.0, 25.0], 2.0) == \
        "loss=7.5 at batch 13"
    assert reason(4, None, [1.0, 1.0, 25.0], 2.0) == \
        "module 3 gradient norm 5.0 at update 5"
    assert reason(4, None, [1.0, 1.0, 1.0], 1.5) == \
        "global gradient norm 1.7320508075688772 at update 5"
    assert reason(0, None, [nan, 1.0], 1e12) == \
        "module 1 gradient norm nan at update 1"
    assert reason(0, (3, inf), [1.0, inf], 1e12) == "loss=inf at batch 3"
    assert reason(2, None, [inf], 1e12) == \
        "module 1 gradient norm inf at update 3"


def test_assemble_names_the_first_offending_loss_of_the_group(ident_case):
    # K = 2, M = 4: module K's losses of update 3 (s = 2) are batches 8..11
    inf, nan = float("inf"), float("nan")
    cfg, _ = ident_case(2, 4, S=5)
    losses = [(1.0, 0.9, 0.8, 0.7), (0.6, 0.6, 0.6, 0.55),
              (0.5, inf, nan, 0.1)]

    def groups():
        for group in losses:
            yield [scheduler.WorkerUpdate(1.0, [], None, None, ()),
                   scheduler.WorkerUpdate(1.0, [], None, None, group)]
        raise AssertionError("read past the diverging update")

    trace = scheduler._assemble(cfg, "adl-clocked", groups())
    assert trace.diverged and trace.S == 3
    assert trace.divergence_reason == "loss=inf at batch 9"
    assert [r.loss for r in trace.updates] == [0.7, 0.55, 0.1]


@pytest.mark.parametrize("runner", [run_clocked, run_parallel, sync_ga_sgd,
                                    delayed_replay])
def test_runner_owns_version_0_and_its_wall_time(runner, spiral_case):
    # _assemble builds version 0 from the config; each runner times itself
    cfg, ds = spiral_case(3, 2, S=4, record_params=True)
    trace = runner(cfg, ds)
    init = net.init_states(cfg.layers, cfg.seed, cfg.init_scale)
    np.testing.assert_array_equal(
        trace.params[0], np.concatenate([st.params for st in init]))
    assert len(trace.params) == 5
    assert trace.wall_time > 0.0


def test_loss_matches_full_batch_reference(spiral_case):
    # the recorded loss of update s is the top module's forward loss of
    # the group-closing batch, evaluated on version-s parameters: recompute
    # it from the snapshot history
    cfg, ds = spiral_case(3, 2, S=6, record_params=True)
    trace = run_clocked(cfg, ds)
    sizes = [spec.param_count for spec in cfg.layers]
    offsets = np.cumsum([0] + sizes)
    for rec in trace.updates:
        t_close = cfg.ga_steps * (rec.s + 1) - 1
        x, y = data.sample_batch(ds, cfg.batch_size, cfg.sampler_seed,
                                 t_close)
        flat = trace.params[rec.s]
        params = [flat[offsets[i]:offsets[i + 1]]
                  for i in range(len(cfg.layers))]
        loss, _ = net.net_forward(cfg.layers, params, x, cfg.loss, y)
        assert loss == rec.loss  # bit-identical


def test_config_needs_a_layer():
    with pytest.raises(ConfigError, match="need at least one layer"):
        TrainConfig([], partition_even(1, 1), net.MSE, 1, 4, 1,
                    ConstantLr(0.1))


def test_config_validation(monkeypatch):
    specs = [net.affine(2, 3), net.affine(4, 1)]
    with pytest.raises(ConfigError):
        TrainConfig(specs, partition_even(2, 1), net.MSE, 1, 4, 1,
                    ConstantLr(0.1))
    good = [net.affine(2, 3), net.affine(3, 1)]
    with pytest.raises(ConfigError):
        TrainConfig(good, partition_even(3, 1), net.MSE, 1, 4, 1,
                    ConstantLr(0.1))
    with pytest.raises(ConfigError):
        TrainConfig(good, partition_even(2, 1), "hinge", 1, 4, 1,
                    ConstantLr(0.1))
    with pytest.raises(ConfigError):
        TrainConfig(good, partition_even(2, 1), net.MSE, 0, 4, 1,
                    ConstantLr(0.1))
    cfg = TrainConfig(good, partition_even(2, 1), net.MSE, 1, 4, 1,
                      ConstantLr(0.1))
    with pytest.raises(ConfigError):
        run_clocked(cfg, data.gen_linreg(8, 5, 0.0, 0))
    # counts and the seed are Python or numpy integers, kept as int: a
    # float one would kill the run with a raw TypeError, and a numpy seed
    # would overflow in the sampler
    for name, bad in (("ga_steps", 2.0), ("updates", 1.0),
                      ("batch_size", 4.0), ("seed", 1.5), ("seed", True),
                      ("ga_steps", "2")):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            replace(cfg, **{name: bad})
    numpy_ints = replace(cfg, ga_steps=np.int64(2), updates=np.int32(1),
                         batch_size=np.uint8(4), seed=np.int64(3))
    assert {type(numpy_ints.seed), type(numpy_ints.batch_size)} == {int}
    assert run_clocked(numpy_ints, data.gen_linreg(8, 2, 0.0, 0)).S == 1
    # every runner checks the loss and the head against the dataset's
    # arrays, and refuses a bad pair before it draws a batch
    def no_batch(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(data, "batch_indices", no_batch)
    spirals = data.gen_two_spirals(16, 0.0, 0)
    linreg = data.gen_linreg(16, 2, 0.0, 0)
    mse = replace(cfg, partition=partition_even(2, 2))
    one_output = replace(mse, loss=net.SOFTMAX_CE)  # two classes
    ce = replace(one_output, layers=[net.affine(2, 3), net.affine(3, 2)])
    labels = spirals.targets

    def last_label(value):
        return replace(spirals, targets=np.append(labels[:-1], value))

    for bad, ds in ((mse, spirals), (one_output, spirals),
                    (ce, last_label(-1)), (ce, last_label(2)),
                    (ce, replace(spirals, targets=labels.astype(float))),
                    (ce, replace(spirals, targets=labels[:, None])),
                    (ce, replace(spirals, inputs=spirals.inputs[:, 0])),
                    (ce, replace(spirals, inputs=spirals.inputs[:0],
                                 targets=labels[:0])),
                    (ce, replace(spirals, targets=labels[:15])),
                    (mse, replace(linreg, targets=linreg.targets[:, 0]))):
        for runner in (run_clocked, run_parallel, delayed_replay,
                       sync_ga_sgd):
            with pytest.raises(ConfigError):
                runner(bad, ds)


def test_divergence_limit_must_be_at_least_0(spiral_case):
    # NaN would switch the magnitude rule off and a negative limit would
    # stop every run at update 1; math.inf switches the rule off on purpose
    for limit in (math.nan, -1.0):
        with pytest.raises(ConfigError, match="divergence_limit"):
            spiral_case(2, 1, S=6, divergence_limit=limit)
    cfg, ds = spiral_case(2, 1, S=6, lr=2000.0, divergence_limit=2.0)
    assert run_clocked(cfg, ds).diverged
    cfg, ds = spiral_case(2, 1, S=6, divergence_limit=math.inf)
    assert not run_clocked(cfg, ds).diverged


# Trains one width-256 network (a 65,792-entry layer gradient) and writes
# its run_clocked trace to argv[1] and, given argv[2], its run_parallel
# trace there.
_WIDE_RUN = """
import sys
from adl import data, net
from adl.optimizer import ConstantLr
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.trace import write_csv
layers = [net.affine(256, 256), net.LayerSpec(net.RELU, 256, 256),
          net.affine(256, 256), net.LayerSpec(net.RELU, 256, 256),
          net.affine(256, 1)]
cfg = TrainConfig(layers, partition_even(5, 2), net.MSE, 1, 64, 12,
                  ConstantLr(0.01), seed=3)
ds = data.gen_linreg(512, 256, 0.1, 5)
for runner, path in zip((run_clocked, run_parallel), sys.argv[1:]):
    write_csv(runner(cfg, ds), path)
"""


def test_trace_bits_do_not_depend_on_blas_threads(tmp_path):
    # the 2-thread child's run_parallel gives each module 1 BLAS thread
    traces = []
    for threads, runs in (("1", ["clocked"]), ("2", ["clocked", "parallel"])):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        paths = [str(tmp_path / f"blas{threads}-{run}.csv") for run in runs]
        done = subprocess.run([sys.executable, "-c", _WIDE_RUN, *paths],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        traces += [read_csv(path) for path in paths]
    for other in traces[1:]:
        report = compare_traces(traces[0], other, tol=0.0)
        assert report.passed, report.text()


def test_run_parallel_shares_blas_threads(spiral_case, monkeypatch):
    blas = scheduler._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled scipy-openblas")
    get, put, _ = blas
    seen = []
    sample_batch = scheduler.sample_batch

    def recording(*args):
        seen.append(get())
        return sample_batch(*args)

    monkeypatch.setattr(scheduler, "sample_batch", recording)
    before = get()
    put(2)
    try:
        for K, inside in ((2, 1), (1, 2)):
            seen.clear()
            cfg, ds = spiral_case(K, 2, S=3)
            run_parallel(cfg, ds)
            assert seen and set(seen) == {inside}, (K, seen)
            assert get() == 2
    finally:
        put(before)


def _tasks():
    return len(os.listdir("/proc/self/task"))


def _settled(count):
    """The thread count once it is back to `count`, or after 2 s: joined
    threads take a moment to leave /proc/self/task."""
    deadline = time.perf_counter() + 2.0
    while _tasks() != count and time.perf_counter() < deadline:
        time.sleep(0.01)
    return _tasks()


def test_run_parallel_parks_the_idle_blas_pool(spiral_case, monkeypatch):
    # a lone caller's K=2 run holds itself and the 2 workers and no
    # OpenBLAS server thread; beside a second thread the pool stays
    blas = scheduler._openblas()
    if blas is None or blas[2] is None:
        pytest.skip("numpy has no bundled scipy-openblas pool to park")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    get, put, _ = blas
    n = get()
    if n == 1:
        pytest.skip("OpenBLAS runs one thread, so it has no pool")
    seen = []
    sample_batch = scheduler.sample_batch

    def counting(*args):
        seen.append(_tasks())
        return sample_batch(*args)

    monkeypatch.setattr(scheduler, "sample_batch", counting)
    cfg, ds = spiral_case(2, 2, S=3)
    waiting = threading.Event()
    other = threading.Thread(target=waiting.wait)
    put(2)  # a K=2 share of 1
    try:
        assert threading.active_count() == 1
        # the caller and get() - 1 pool threads, once an earlier test's
        # joined threads have left: a spinning pool can starve their exit
        before = _settled(get())
        assert before > 1
        run_parallel(cfg, ds)
        assert max(seen) == 1 + cfg.K, seen
        assert get() == 2
        assert _settled(before) == before

        other.start()
        before = _tasks()
        seen.clear()
        run_parallel(cfg, ds)
        assert max(seen) == before + cfg.K, (before, seen)
        assert get() == 2
    finally:
        waiting.set()
        if other.is_alive():
            other.join()
        put(n)


# Loops threaded 512x512 matmuls in a second thread while run_parallel
# trains the width-256, K=2 network 200 times at a share of 1; every run
# must end with run_clocked's parameters.
_BUSY_NEIGHBOUR = """
import threading
import numpy as np
from adl import data, net
from adl.optimizer import ConstantLr
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
layers = [net.affine(256, 256), net.LayerSpec(net.RELU, 256, 256),
          net.affine(256, 256), net.LayerSpec(net.RELU, 256, 256),
          net.affine(256, 1)]
cfg = TrainConfig(layers, partition_even(5, 2), net.MSE, 1, 64, 4,
                  ConstantLr(0.01), seed=3)
ds = data.gen_linreg(512, 256, 0.1, 5)
want = run_clocked(cfg, ds).final_params
done = threading.Event()

def busy():
    a = np.ones((512, 512))
    while not done.is_set():
        a @ a

neighbour = threading.Thread(target=busy)
neighbour.start()
try:
    for _ in range(200):
        assert np.array_equal(run_parallel(cfg, ds).final_params, want)
finally:
    done.set()
    neighbour.join()
"""


def test_run_parallel_beside_a_threaded_matmul_does_not_hang():
    # parking the pool while another thread is inside a threaded call hangs
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _BUSY_NEIGHBOUR], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_numpy_without_scipy_openblas_is_left_alone(tmp_path, monkeypatch):
    # a numpy.libs entry that does not load is skipped, and none found is None
    site = tmp_path / "site-packages"
    (site / "numpy").mkdir(parents=True)
    (site / "numpy.libs").mkdir()
    (site / "numpy.libs" / "libscipy_openblas64_-fake.so").write_bytes(
        b"not a shared library")
    monkeypatch.setattr(np, "__file__", str(site / "numpy" / "__init__.py"))
    assert scheduler._openblas.__wrapped__() is None


def test_run_parallel_without_openblas_matches_the_clock(spiral_case,
                                                         monkeypatch):
    monkeypatch.setattr(scheduler, "_openblas", lambda: None)
    cfg, ds = spiral_case(2, 2, S=6, record_params=True, record_grads=True)
    a, b = run_clocked(cfg, ds), run_parallel(cfg, ds)
    report = compare_traces(a, b, tol=0.0)
    assert report.passed and report.max_param_diff == 0.0, report.text()
    for ga, gb in zip(a.grads, b.grads, strict=True):
        np.testing.assert_array_equal(ga, gb)


def test_a_signed_zero_product_reaches_no_trace(monkeypatch):
    # the affine kernels call ndarray.dot, which keeps the sign of a zero
    # product of two 1x1 operands where @'s BLAS call writes +0.0: on a
    # chain of 1-in, 1-out layers at batch 1 over signed zeros, the clock
    # writes the trace that the @ kernels write, bit for bit
    layers = [net.affine(1, 1), net.tanh(1), net.affine(1, 1),
              net.identity(1), net.affine(1, 1)]
    x = np.array([[-0.0], [0.5], [-0.0], [-1.5]])
    cfg = TrainConfig(layers, partition_even(5, 3), net.MSE, 1, 1, 8,
                      ConstantLr(0.1), record_params=True, record_grads=True)
    ds = data.Dataset(x, -x)
    forward, backward = net.layer_forward, net.layer_backward

    def matmul_forward(spec, params, h):
        if spec.kind != net.AFFINE:
            return forward(spec, params, h)
        w, b = net._weights(spec, params), params[spec.weight_count:]
        return h @ w.T + b, h

    def matmul_backward(spec, params, h, gout):
        if spec.kind != net.AFFINE:
            return backward(spec, params, h, gout)
        grad = np.concatenate([(gout.T @ h).ravel(), gout.sum(axis=0)])
        return grad, None if params is None else \
            gout @ net._weights(spec, params)

    with_dot = run_clocked(cfg, ds)
    monkeypatch.setattr(scheduler, "layer_forward", matmul_forward)
    monkeypatch.setattr(scheduler, "layer_backward", matmul_backward)
    with_matmul = run_clocked(cfg, ds)
    assert [(r.loss.hex(), r.grad_norm.hex()) for r in with_dot.updates] == \
        [(r.loss.hex(), r.grad_norm.hex()) for r in with_matmul.updates]
    a, b = with_dot, with_matmul
    for pa, pb in zip(a.params + a.grads + [a.final_params],
                      b.params + b.grads + [b.final_params], strict=True):
        assert pa.tobytes() == pb.tobytes()
