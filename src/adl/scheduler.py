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

Because a module may update between a batch's forward and its delayed
backward, each worker keeps a ring of parameter snapshots per version.
Updates build fresh arrays, so a snapshot is just a reference to the
parameter list that was live at that version.

A ModuleWorker computes on plain arrays.  feed_slot alone owns the slot
protocol: it reads, index-checks, builds and sends the Messages on FIFO
edges keyed (sender, receiver), and both runners feed every slot through
it.  They differ only in the edges: run_clocked executes the tick loop
in-process over plain lists; run_parallel runs one thread per module
over bounded queues and produces a bit-identical trace (each worker
performs the same float operations in the same order, only wall-clock
interleaving differs).

Divergence is judged after the run, from the update records alone: a
run executes all S updates, divergence_reason names the first update
that offends, and the trace ends there.  The oracles apply the same rule
to the same records, so every runner names the same reason and S.
"""
from __future__ import annotations

import functools
import math
import queue
import threading
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, sample_batch
from .errors import ConfigError, ProtocolError
from .net import (LOSS_KINDS, init_states, layer_backward, layer_forward,
                  loss_and_grad)
from .optimizer import (Accumulator, SgdConfig, ga_update, global_grad_norm,
                        grads_sumsq, lr_at)
from .partition import Partition
from .trace import RunTrace, StopWatch, TickEvent, UpdateRecord

DIVERGENCE_LIMIT = 1e12


def schedule_position(b: int, k: int, K: int):
    """(forward_tick, backward_tick) of batch b in module k: the backward
    lags the forward by exactly 2*(K-k) ticks."""
    if b < 0:
        raise ConfigError(f"batch index must be >= 0, got {b}")
    if not 1 <= k <= K:
        raise ConfigError(f"module k must lie in 1..K, got k={k}, K={K}")
    return b + (k - 1), b + 2 * K - k - 1


# An activation sent up, or an input gradient sent down, one edge; an
# activation carries its batch's target up to module K.
Message = namedtuple("Message", "batch_index payload target",
                     defaults=(None,))
# One module's update: the squared norm of its averaged gradient, its
# provenance Slots j = 0..M-1 and, with record_grads, the flat gradient.
# Module K adds the loss of the group-closing batch and the group's first
# offending (batch, loss), or None.
WorkerUpdate = namedtuple("WorkerUpdate", "sumsq slots avg_flat loss bad_loss",
                          defaults=(None, None))


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
    divergence_limit: float = DIVERGENCE_LIMIT

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("need at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ConfigError(
                    f"layer chain mismatch: {a.kind}->{a.out_dim} feeds "
                    f"{b.kind}<-{b.in_dim}")
        if self.partition.num_layers != len(self.layers):
            raise ConfigError("partition does not cover the layer stack")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.ga_steps < 1 or self.updates < 1 or self.batch_size < 1:
            raise ConfigError("ga_steps, updates and batch_size must be >= 1")
        if not self.init_scale >= 0:
            raise ConfigError(f"init_scale must be >= 0, got {self.init_scale}")

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
    slice of layers plus its accumulator, momentum and snapshot ring."""

    def __init__(self, k: int, cfg: TrainConfig, states):
        self.k = k
        self.K = cfg.K
        self.cfg = cfg
        self.two_delta = 2 * (cfg.K - k)
        self.layer_range = cfg.partition.layers_of(k)
        self.specs = [cfg.layers[i] for i in self.layer_range]
        self.params = [states[i].params for i in self.layer_range]
        self.velocity = None
        self.version = 0
        self.snapshots = {0: self.params}
        self.stash = deque()  # FIFO of (batch, intermediates, version)
        self.acc = Accumulator([p.size for p in self.params], cfg.ga_steps)
        self.update_records = []
        self.events = [] if cfg.trace_ticks else None
        self._loss = None  # module K: loss of the latest forward
        self._bad_loss = None  # module K: first offending (batch, loss)

    def _forward(self, u: int, x: np.ndarray, target):
        """Forward batch u; module K returns the loss gradient instead of
        its prediction."""
        if self.version != u // self.cfg.ga_steps:
            raise ProtocolError(
                f"version law broken: module {self.k} at version "
                f"{self.version} forwarding batch {u}")
        intermediates = []
        h = x
        for spec, p_flat in zip(self.specs, self.params):
            h, inter = layer_forward(spec, p_flat, h)
            intermediates.append(inter)
        if self.k == self.K:
            self._loss, h = loss_and_grad(self.cfg.loss, h, target)
            if self._bad_loss is None and \
                    offends(self._loss, self.cfg.divergence_limit):
                self._bad_loss = (u, self._loss)
        # stash what the delayed backward reads, if one will
        if u < self.cfg.total_batches - self.two_delta:
            self.stash.append((u, intermediates, self.version))
            if len(self.stash) > self.two_delta + 1:
                raise ProtocolError(
                    f"stash occupancy {len(self.stash)} exceeds "
                    f"{self.two_delta + 1} in module {self.k}")
        if self.events is not None:
            self.events.append(TickEvent(u + self.k - 1, self.k, "forward", u))
        return h

    def _backward(self, t_b: int, gout: np.ndarray):
        if not self.stash or self.stash[0][0] != t_b:
            raise ProtocolError(
                f"module {self.k} stash head is not batch {t_b}")
        _, intermediates, version = self.stash.popleft()
        sparams = self.snapshots[version]
        grads = [None] * len(self.specs)
        g = gout
        for i in range(len(self.specs) - 1, -1, -1):
            grads[i], g = layer_backward(self.specs[i], sparams[i],
                                         intermediates[i], g)
        self.acc.add(grads, t_b, version)
        if self.events is not None:
            tick = t_b + self.two_delta + self.k - 1
            self.events.append(TickEvent(tick, self.k, "backward", t_b))
        return g

    def _update(self, u: int):
        s = self.version
        lr = lr_at(self.cfg.schedule, s)
        slots = list(self.acc.slots)
        self.params, self.velocity, avg = ga_update(
            self.params, self.acc, lr, self.cfg.sgd, self.velocity)
        self.acc.reset()
        sumsq = grads_sumsq(avg)
        avg_flat = np.concatenate([a.ravel() for a in avg]) \
            if self.cfg.record_grads else None
        if self.k == self.K:
            rec = WorkerUpdate(sumsq, slots, avg_flat, self._loss,
                               self._bad_loss)
            self._bad_loss = None
        else:
            rec = WorkerUpdate(sumsq, slots, avg_flat)
        self.update_records.append(rec)
        self.version += 1
        self.snapshots[self.version] = self.params
        if not self.cfg.record_params:
            # the oldest version a backward of a later slot reads
            oldest = (u + 1 - self.two_delta) // self.cfg.ga_steps
            for v in [v for v in self.snapshots if v < oldest]:
                del self.snapshots[v]
        if self.events is not None:
            self.events.append(
                TickEvent(u + self.k - 1, self.k, "update", self.version))

    def process_slot(self, u: int, x, target, gout):
        """Run slot 0 <= u < M*S: forward batch u, backward batch
        t_b = u - 2*(K-k) from gout, the gradient of its output (module K
        uses its own loss gradient), and update if u closes a group.
        Returns (output, input gradient of t_b or None if t_b < 0)."""
        y = self._forward(u, x, target)
        t_b = u - self.two_delta
        g_in = None
        if t_b >= 0:
            g_in = self._backward(t_b, y if self.k == self.K else gout)
        else:
            self.acc.add_skipped(t_b)
        if u % self.cfg.ga_steps == self.cfg.ga_steps - 1:
            self._update(u)
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
    if dataset.dim != cfg.layers[0].in_dim:
        raise ConfigError(
            f"dataset dim {dataset.dim} != first layer in_dim "
            f"{cfg.layers[0].in_dim}")


def _assemble(cfg: TrainConfig, workers, mode: str, wall: float) -> RunTrace:
    """Build the trace.  The first update divergence_reason names ends it;
    events after module K closed that update are dropped."""
    K, M = cfg.K, cfg.ga_steps
    updates, reason = [], None
    for s, recs in enumerate(zip(*(w.update_records for w in workers))):
        top = recs[-1]
        sumsqs = [r.sumsq for r in recs]
        updates.append(UpdateRecord(
            s, M * (s + 1) + K - 2, top.loss, global_grad_norm(sumsqs),
            {w.k: r.slots for w, r in zip(workers, recs)}))
        reason = divergence_reason(s, top.bad_loss, sumsqs,
                                   cfg.divergence_limit)
        if reason:
            break
    diverged = reason is not None
    trace = RunTrace(mode, K, M, updates, diverged=diverged,
                     divergence_reason=reason, wall_time=wall)
    if cfg.record_params and not diverged:
        trace.params = [
            np.concatenate([p.ravel() for w in workers
                            for p in w.snapshots[v]] or [np.zeros(0)])
            for v in range(len(updates) + 1)]
    if cfg.record_grads and not diverged:
        trace.grads = [
            np.concatenate([w.update_records[s].avg_flat for w in workers])
            for s in range(len(updates))]
    if cfg.trace_ticks:
        last = updates[-1].tick if diverged else math.inf
        order = {"forward": 0, "backward": 1, "update": 2}
        evs = [e for w in workers for e in w.events if e.tick <= last]
        trace.events = sorted(evs, key=lambda e: (e.tick, e.module,
                                                  order[e.kind]))
    return trace


def feed_slot(w: ModuleWorker, u: int, edges: dict, cfg: TrainConfig,
              dataset: Dataset):
    """Gather worker w's slot-u inputs, run the slot and send its outputs.

    feed_slot alone reads, index-checks, builds and sends the Messages,
    through get() and put() on edges[(sender, receiver)] between adjacent
    modules.  Module 1 samples batch u once, and its target rides up to
    module K on the activations.  The input gradient of batch t_b goes
    down if module k-1 backpropagates t_b before its last slot."""
    k, t_b = w.k, u - w.two_delta
    if k == 1:
        x, target = sample_batch(dataset, cfg.batch_size, cfg.sampler_seed, u)
    else:
        msg = edges[k - 1, k].get()
        if msg.batch_index != u:
            raise ProtocolError(
                f"module {k} expected activation {u}, got {msg.batch_index}")
        x, target = msg.payload, msg.target
    gout = None
    if k < w.K and t_b >= 0:
        msg = edges[k + 1, k].get()
        if msg.batch_index != t_b:
            raise ProtocolError(f"module {k} expected gradient for batch "
                                f"{t_b}, got {msg.batch_index}")
        gout = msg.payload
    y, g_in = w.process_slot(u, x, target, gout)
    if k < w.K:
        edges[k, k + 1].put(Message(u, y, target))
    if k > 1 and 0 <= t_b < cfg.total_batches - w.two_delta - 2:
        edges[k, k - 1].put(Message(t_b, g_in))


def _edges(K: int, make) -> dict:
    """make((sender, receiver)) for both directions of every module pair."""
    return {e: make(e) for k in range(1, K)
            for e in ((k, k + 1), (k + 1, k))}


def _check_drained(workers, edges: dict):
    for (a, b), edge in edges.items():
        if len(edge):
            raise ProtocolError(
                f"edge {a}->{b} ended with {len(edge)} unread messages")
    for w in workers:
        w.check_drained()


class _Fifo(list):
    """In-process edge of run_clocked; reading it empty is a ProtocolError."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    put = list.append

    def get(self):
        if not self:
            raise ProtocolError("missing message on edge %d->%d" % self.key)
        return self.pop(0)


def run_clocked(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Single-process reference execution of the pipeline clock."""
    _check_dataset(cfg, dataset)
    workers = build_workers(cfg)
    K, MS = cfg.K, cfg.total_batches
    edges = _edges(K, _Fifo)
    with StopWatch() as sw, np.errstate(over="ignore", invalid="ignore"):
        for tick in range(MS + 2 * (K - 1)):
            for w in workers:
                u = tick - (w.k - 1)
                if 0 <= u < MS:
                    feed_slot(w, u, edges, cfg, dataset)
    _check_drained(workers, edges)
    return _assemble(cfg, workers, "adl-clocked", sw.elapsed)


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


def run_parallel(cfg: TrainConfig, dataset: Dataset,
                 deadlock_timeout: float = 60.0) -> RunTrace:
    """One thread per module, bounded FIFO edges, no global clock.

    Produces the same trace as run_clocked bit for bit: message order on
    every edge is fixed by batch index, and each worker executes the
    identical operation sequence.  Every worker runs all its slots, so a
    run executes all S updates and the trace ends at the first offending
    update whatever the thread timing.  An error stops all workers.
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
    with StopWatch() as sw:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    _check_drained(workers, edges)
    return _assemble(cfg, workers, "adl-parallel", sw.elapsed)
