"""Depth-pipelined training with delayed gradients.

The network is split into K contiguous modules.  On a global integer
clock, module k forwards batch b at tick b + (k-1) and backpropagates
it 2*(K-k) ticks later, so one tick does at most one forward and one
backward per module.  Within a tick the order is forward, backward,
update.

Per-module bookkeeping is indexed by the local slot u = tick - (k-1):
the forward of slot u is batch u, the backward of slot u is batch
u - 2*(K-k) (negative during pipeline fill -- a skipped slot that
contributes a zero gradient), and the accumulated-SGD update fires at
slots u = M-1 mod M.  With M*S batches this yields exactly S updates in
every module and keeps the version law  param_version(batch t) =
floor(t / M)  everywhere, which is what makes the delayed-gradient
replay oracle exact.

A module may update between a batch's forward and its delayed backward,
so each stash entry carries the parameter list its forward read.  Updates
build fresh arrays, so that reference is the snapshot: an unrecorded
version lives exactly as long as it is current or a stashed batch reads it.

A ModuleWorker computes on plain arrays.  feed_slot alone owns the slot
protocol: it reads, index-checks, builds and sends the messages, plain
(batch, payload, target) tuples, on FIFO edges keyed (sender, receiver),
and both runners feed every slot through it.  They differ only in the
edges: run_clocked executes the tick loop in-process over deques;
run_parallel runs one thread per module over bounded queues and produces
a bit-identical trace (each worker performs the same float operations in
the same order, only wall-clock interleaving differs).

_assemble builds every runner's trace, the oracles' too, from the config
and the K module records of each update, and judges divergence from the
records alone: divergence_reason names the first update that offends and
the trace ends there, so every runner names the same reason and S.  Each
runner sets wall_time.  Tick events come from the clock: _tick_events
derives them from (K, M, S) over _clock, the slot order of run_clocked.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import queue
import threading
import time
from collections import deque, namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, sample_batch
from .errors import ConfigError, ProtocolError, check_finite_nonneg
from .net import (LOSS_KINDS, MSE, init_states, layer_backward,
                  layer_forward, loss_and_grad)
from .optimizer import (Accumulator, SgdConfig, ga_update, global_grad_norm,
                        grads_sumsq, lr_at)
from .partition import Partition
from .trace import RunTrace, TickEvent, UpdateRecord


def schedule_position(b: int, k: int, K: int):
    """(forward_tick, backward_tick) of batch b in module k: the backward
    lags the forward by exactly 2*(K-k) ticks."""
    if b < 0:
        raise ConfigError(f"batch index must be >= 0, got {b}")
    if not 1 <= k <= K:
        raise ConfigError(f"module k must lie in 1..K, got k={k}, K={K}")
    return b + (k - 1), b + 2 * K - k - 1


# One module's update: the squared norm of its averaged gradient, its
# provenance Slots j = 0..M-1, with record_params its new parameter list
# and with record_grads its averaged-gradient list.  losses holds module
# K's M batch losses of the group in batch order, and is () elsewhere.
WorkerUpdate = namedtuple("WorkerUpdate", "sumsq slots params grads losses")


def offends(x: float, limit: float) -> bool:
    """A loss or gradient norm that is not finite or exceeds the limit."""
    return not math.isfinite(x) or abs(x) > limit


def divergence_reason(s: int, bad_loss, sumsqs, limit: float):
    """Why update s+1 diverged, or None if it did not.

    sumsqs are the K modules' squared gradient norms of the update and
    bad_loss module K's first offending (batch, loss) of the group, or
    None.  The first offender in this order names the reason: modules
    1..K-1 by norm, module K's loss, module K's norm, the whole-network
    norm."""
    for k, sumsq in enumerate(sumsqs, 1):
        if k == len(sumsqs) and bad_loss is not None:
            batch, loss = bad_loss
            return f"loss={loss!r} at batch {batch}"
        norm = math.sqrt(sumsq)
        if offends(norm, limit):
            return f"module {k} gradient norm {norm!r} at update {s + 1}"
    norm = global_grad_norm(sumsqs)
    if offends(norm, limit):
        return f"global gradient norm {norm!r} at update {s + 1}"
    return None


def _check_counts(ga_steps: int, updates: int, batch_size: int):
    """TrainConfig's count check; `adl run` makes it before it builds a
    schedule from these counts."""
    if ga_steps < 1 or updates < 1 or batch_size < 1:
        raise ConfigError("ga_steps, updates and batch_size must be >= 1")


@dataclass
class TrainConfig:
    layers: list
    partition: Partition
    loss: str
    ga_steps: int                 # M
    batch_size: int
    updates: int                  # S
    schedule: object
    sgd: SgdConfig = field(default_factory=SgdConfig)
    seed: int = 0                 # parameter init and sampler key
    init_scale: float = 1.0
    record_params: bool = False
    record_grads: bool = False
    trace_ticks: bool = False
    divergence_limit: float = 1e12

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("need at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ConfigError(
                    f"layer chain mismatch: {a.kind}->{a.out_dim} feeds "
                    f"{b.kind}<-{b.in_dim}")
        if self.partition.bounds[-1] != len(self.layers):
            raise ConfigError("partition does not cover the layer stack")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.loss!r}")
        _check_counts(self.ga_steps, self.updates, self.batch_size)
        check_finite_nonneg("init_scale", self.init_scale, ConfigError)
        check_finite_nonneg("seed", self.seed, ConfigError)
        if not self.divergence_limit >= 0.0:  # NaN too; math.inf is allowed
            raise ConfigError(
                f"divergence_limit must be >= 0, got {self.divergence_limit}")

    @property
    def sampler_seed(self) -> int:
        """Key of the batch sampler; always equal to seed."""
        return self.seed

    @property
    def K(self) -> int:
        return self.partition.K

    @property
    def total_batches(self) -> int:
        return self.ga_steps * self.updates


class ModuleWorker:
    """One pipeline stage on plain arrays, blind to the edges: a contiguous
    slice of layers plus its accumulator, momentum and weight stash."""

    def __init__(self, k: int, cfg: TrainConfig, states):
        self.k = k
        self.M = cfg.ga_steps
        self.is_last = k == cfg.K
        self.cfg = cfg
        self.two_delta = 2 * (cfg.K - k)
        # batches u < stash_end have a backward in this module
        self.stash_end = cfg.total_batches - self.two_delta
        self.layer_range = cfg.partition.layers_of(k)
        self.specs = [cfg.layers[i] for i in self.layer_range]
        self.params = [states[i].params for i in self.layer_range]
        self.velocity = None
        self.version = 0
        self.stash = deque()  # FIFO of (batch, intermediates, version, params)
        self.acc = Accumulator([p.size for p in self.params], cfg.ga_steps)
        self.update_records = []
        self._losses = []  # module K: the open group's batch losses

    def _forward(self, u: int, x: np.ndarray, target):
        """Forward batch u; module K returns the loss gradient instead of
        its prediction."""
        if self.version != u // self.M:
            raise ProtocolError(
                f"version law broken: module {self.k} at version "
                f"{self.version} forwarding batch {u}")
        intermediates = []
        h = x
        for spec, p_flat in zip(self.specs, self.params):
            h, inter = layer_forward(spec, p_flat, h)
            intermediates.append(inter)
        if self.is_last:
            loss, h = loss_and_grad(self.cfg.loss, h, target)
            self._losses.append(loss)
        # stash what the delayed backward reads, if one will
        if u < self.stash_end:
            self.stash.append((u, intermediates, self.version, self.params))
            if len(self.stash) > self.two_delta + 1:
                raise ProtocolError(
                    f"stash occupancy {len(self.stash)} exceeds "
                    f"{self.two_delta + 1} in module {self.k}")
        return h

    def _backward(self, t_b: int, gout: np.ndarray):
        if not self.stash or self.stash[0][0] != t_b:
            raise ProtocolError(
                f"module {self.k} stash head is not batch {t_b}")
        _, intermediates, version, sparams = self.stash.popleft()
        grads = [None] * len(self.specs)
        g = gout
        for i in range(len(self.specs) - 1, -1, -1):
            # module 1's input gradient has no reader
            grads[i], g = layer_backward(self.specs[i], sparams[i],
                                         intermediates[i], g,
                                         i > 0 or self.k > 1)
        self.acc.add(grads, t_b, version)
        return g

    def _update(self):
        cfg = self.cfg
        slots = self.acc.slots  # reset() starts a new list
        self.params, self.velocity, avg = ga_update(
            self.params, self.acc, lr_at(cfg.schedule, self.version), cfg.sgd,
            self.velocity)
        self.acc.reset()
        # _losses is empty outside module K, and tuple() of it is ()
        self.update_records.append(WorkerUpdate(
            grads_sumsq(avg), slots,
            self.params if cfg.record_params else None,
            avg if cfg.record_grads else None, tuple(self._losses)))
        self._losses.clear()
        self.version += 1

    @property
    def snapshots(self):
        """{version: params} of the live version and each stashed batch's."""
        return {**{v: p for *_, v, p in self.stash}, self.version: self.params}

    def process_slot(self, u: int, x, target, gout):
        """Run slot 0 <= u < M*S: forward batch u, backward batch
        t_b = u - 2*(K-k) from gout, the gradient of its output (module K
        uses its own loss gradient), and update if u closes a group.
        Returns (output, input gradient of t_b or None if t_b < 0)."""
        y = self._forward(u, x, target)
        t_b = u - self.two_delta
        g_in = None
        if t_b >= 0:
            g_in = self._backward(t_b, y if self.is_last else gout)
        else:
            self.acc.add_skipped(t_b)
        if u % self.M == self.M - 1:
            self._update()
        return y, g_in

    def check_drained(self):
        if self.stash:
            raise ProtocolError(
                f"module {self.k} ended with {len(self.stash)} stashed contexts")
        if self.acc.count != 0:
            raise ProtocolError(
                f"module {self.k} ended with an open accumulator")
        if self.version != self.cfg.updates:
            raise ProtocolError(
                f"module {self.k} performed {self.version} updates, "
                f"expected {self.cfg.updates}")


def build_workers(cfg: TrainConfig):
    states = init_states(cfg.layers, cfg.seed, cfg.init_scale)
    return [ModuleWorker(k, cfg, states) for k in range(1, cfg.K + 1)]


def _check_dataset(cfg: TrainConfig, dataset: Dataset):
    """The one model-data check of every runner and of `adl run`, read off
    the arrays: n >= 1 input rows as wide as the first layer, and n
    targets the loss can score against the last layer's outputs."""
    x, y = dataset.inputs, dataset.targets
    first, out = cfg.layers[0].in_dim, cfg.layers[-1].out_dim
    if x.ndim != 2 or len(x) < 1:
        raise ConfigError(f"dataset inputs must be (n >= 1, dim) rows, "
                          f"got shape {x.shape}")
    n = len(x)
    if x.shape[1] != first:
        raise ConfigError(f"first layer in_dim {first} != "
                          f"dataset dim {x.shape[1]}")
    if y.shape[:1] != (n,):
        raise ConfigError(f"{n} inputs need {n} targets, got shape {y.shape}")
    if cfg.loss == MSE:
        if y.shape != (n, out):
            raise ConfigError(f"mse loss needs regression targets of shape "
                              f"({n}, {out}), got {y.shape}")
    elif y.ndim != 1 or y.dtype.kind not in "iu" or not (
            0 <= y.min() <= y.max() < out):
        raise ConfigError(f"softmax_ce loss needs classification labels: "
                          f"1-D integers in 0..{out - 1}")


def _assemble(cfg: TrainConfig, mode: str, groups) -> RunTrace:
    """Build any runner's trace from groups, which yields each update's K
    WorkerUpdate records in module order; version 0 of a parameter history
    comes from the config, and wall_time is the runner's to set.  An update
    records module K's last loss; the first update divergence_reason names,
    weighing module K's first offending loss, ends the trace and groups is
    not read past it."""
    K, M, limit = cfg.K, cfg.ga_steps, cfg.divergence_limit
    updates, reason = [], None
    params = [np.concatenate([st.params for st in init_states(
        cfg.layers, cfg.seed, cfg.init_scale)])] if cfg.record_params else None
    grads = [] if cfg.record_grads else None
    for s, recs in enumerate(groups):
        losses = recs[-1].losses
        sumsqs = [r.sumsq for r in recs]
        updates.append(UpdateRecord(
            s, M * (s + 1) + K - 2, losses[-1], global_grad_norm(sumsqs),
            {k: r.slots for k, r in enumerate(recs, 1)}))
        if params is not None:
            params.append(np.concatenate([p for r in recs for p in r.params]))
        if grads is not None:
            grads.append(np.concatenate([g for r in recs for g in r.grads]))
        bad_loss = next(((M * s + j, x) for j, x in enumerate(losses)
                         if offends(x, limit)), None)
        reason = divergence_reason(s, bad_loss, sumsqs, limit)
        if reason:
            break
    diverged = reason is not None
    trace = RunTrace(mode, K, M, updates, diverged=diverged,
                     divergence_reason=reason)
    if not diverged:
        trace.params, trace.grads = params, grads
    return trace


def feed_slot(w: ModuleWorker, u: int, edges: dict, cfg: TrainConfig,
              dataset: Dataset):
    """Gather worker w's slot-u inputs, run the slot and send its outputs.

    feed_slot alone reads, index-checks, builds and sends the (batch,
    payload, target) messages, through get() and put() on
    edges[(sender, receiver)] between adjacent modules.  Module 1 samples batch u once, and its target rides up to
    module K on the activations.  The input gradient of batch t_b goes
    down if module k-1 backpropagates t_b before its last slot."""
    k, t_b, last = w.k, u - w.two_delta, w.is_last
    if k == 1:
        x, target = sample_batch(dataset, cfg.batch_size, cfg.sampler_seed, u)
    else:
        b, x, target = edges[k - 1, k].get()
        if b != u:
            raise ProtocolError(f"module {k} expected activation {u}, got {b}")
    gout = None
    if not last and t_b >= 0:
        b, gout, _ = edges[k + 1, k].get()
        if b != t_b:
            raise ProtocolError(f"module {k} expected gradient for batch "
                                f"{t_b}, got {b}")
    y, g_in = w.process_slot(u, x, target, gout)
    if not last:
        edges[k, k + 1].put((u, y, target))
    if k > 1 and 0 <= t_b < w.stash_end - 2:
        edges[k, k - 1].put((t_b, g_in, None))


def _clock(K: int, MS: int):
    """(tick, k, u) of every slot of a K-module, MS-batch pipeline in the
    order run_clocked runs them: by tick, then by module."""
    for tick in range(MS + 2 * (K - 1)):
        for k in range(max(1, tick - MS + 2), min(K, tick + 1) + 1):
            yield tick, k, tick - (k - 1)


def _tick_events(cfg: TrainConfig, last):
    """Each slot's TickEvents through tick last: forward u, backward
    u - 2*(K-k) if >= 0, and the update to u // M + 1 if u closes a group."""
    K, M = cfg.K, cfg.ga_steps
    for tick, k, u in _clock(K, cfg.total_batches):
        if tick > last:
            return
        yield TickEvent(tick, k, "forward", u)
        if u >= 2 * (K - k):
            yield TickEvent(tick, k, "backward", u - 2 * (K - k))
        if u % M == M - 1:
            yield TickEvent(tick, k, "update", u // M + 1)


def _edges(K: int, make) -> dict:
    """make((sender, receiver)) for both directions of every module pair."""
    return {e: make(e) for k in range(1, K)
            for e in ((k, k + 1), (k + 1, k))}


def _finish(cfg: TrainConfig, workers, edges: dict, mode: str,
            wall: float) -> RunTrace:
    """Check that every edge and worker drained; assemble the trace."""
    for (a, b), edge in edges.items():
        if len(edge):
            raise ProtocolError(
                f"edge {a}->{b} ended with {len(edge)} unread messages")
    for w in workers:
        w.check_drained()
    trace = _assemble(cfg, mode, zip(*(w.update_records for w in workers)))
    trace.wall_time = wall
    if cfg.trace_ticks:
        last = trace.updates[-1].tick if trace.diverged else math.inf
        trace.events = list(_tick_events(cfg, last))
    return trace


class _Fifo(deque):
    """In-process edge of run_clocked; reading it empty is a ProtocolError."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    put = deque.append

    def get(self):
        if not self:
            raise ProtocolError("missing message on edge %d->%d" % self.key)
        return self.popleft()


def run_clocked(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Single-process reference execution of the pipeline clock."""
    _check_dataset(cfg, dataset)
    workers = build_workers(cfg)
    edges = _edges(cfg.K, _Fifo)
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for _, k, u in _clock(cfg.K, cfg.total_batches):
            feed_slot(workers[k - 1], u, edges, cfg, dataset)
    return _finish(cfg, workers, edges, "adl-clocked", time.perf_counter() - t0)


class _Stopped(Exception):
    """An edge of run_parallel was waited on after another worker failed."""


class _Edge:
    """Bounded FIFO between adjacent modules with stop-aware blocking."""

    def __init__(self, key, capacity: int, stop: threading.Event,
                 timeout: float):
        self.key = key
        self.q = queue.Queue(maxsize=capacity)
        self.stop = stop
        self.timeout = timeout

    def __len__(self):
        return self.q.qsize()

    def _wait(self, op, state: str):
        """Retry op every 50 ms; raise _Stopped once stop is set."""
        waited = 0.0
        while not self.stop.is_set():
            try:
                return op(timeout=0.05)
            except (queue.Full, queue.Empty):
                waited += 0.05
                if waited >= self.timeout:
                    raise ProtocolError("deadlock: edge %d->%d %s too long"
                                        % (*self.key, state))
        raise _Stopped

    def put(self, item):
        self._wait(functools.partial(self.q.put, item), "full")

    def get(self):
        return self._wait(self.q.get, "empty")


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled scipy-openblas,
    or None if this numpy has none."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = (lib.scipy_openblas_get_num_threads64_,
                        lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        put.argtypes = [ctypes.c_int]
        return get, put
    return None


@contextlib.contextmanager
def _blas_share(K: int):
    """Run the block with numpy's n OpenBLAS threads cut to one module
    thread's share, max(1, n // K); restore n afterwards."""
    blas = _openblas()
    n = blas[0]() if blas else 1
    share = max(1, n // K)
    if share == n:
        yield
        return
    blas[1](share)
    try:
        yield
    finally:
        blas[1](n)


def run_parallel(cfg: TrainConfig, dataset: Dataset,
                 deadlock_timeout: float = 60.0) -> RunTrace:
    """One thread per module, bounded FIFO edges, no global clock.

    Produces the same trace as run_clocked bit for bit: message order on
    every edge is fixed by batch index, and each worker executes the
    identical operation sequence.  Every worker runs all its slots, so a
    run executes all S updates and the trace ends at the first offending
    update whatever the thread timing.  An error stops all workers.

    While the workers run, numpy's bundled OpenBLAS runs max(1, n // K)
    threads instead of its n, so the K workers share the cores rather
    than each starting n BLAS threads; n is restored afterwards, also
    when the run raises.  The setting is process-wide: numpy calls of
    other threads see the reduced count while the run lasts.  A numpy
    without bundled scipy-openblas is left alone.
    """
    _check_dataset(cfg, dataset)
    workers = build_workers(cfg)
    stop = threading.Event()
    capacity = max(2, 2 * cfg.K)
    edges = _edges(cfg.K, lambda e: _Edge(e, capacity, stop,
                                          deadlock_timeout))
    errors = {}

    def drive(w: ModuleWorker):
        try:
            np.seterr(over="ignore", invalid="ignore")  # thread-local
            for u in range(cfg.total_batches):
                feed_slot(w, u, edges, cfg, dataset)
        except _Stopped:
            pass
        except BaseException as exc:  # noqa: BLE001 - ferried to the caller
            errors[w.k] = exc
            stop.set()

    threads = [threading.Thread(target=drive, args=(w,), daemon=True)
               for w in workers]
    with _blas_share(cfg.K):
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
    if errors:
        raise errors[min(errors)]
    return _finish(cfg, workers, edges, "adl-parallel", wall)
