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
so each stash entry carries the weights its backward reads of the
version its forward read.  A backward reads a layer's weights only for
its input gradient, which module 1 sends nowhere, so module 1 stashes
first_module_params (None up to its first layer with parameters), the
other modules the live list, each built once per version.  An update
writes the new version into its averaged gradient's arrays and never
mutates an older one, so that reference is the snapshot: an unrecorded
version lives exactly as long as it is current or a stashed batch reads
it, and module 1's first layer with parameters only while current.

A ModuleWorker computes on plain arrays, and process_slot is its whole
slot: forward, stash, delayed backward, accumulation and update, with the
backward's arrays dead before the update.  feed_slot alone owns the slot
protocol: it reads, index-checks, builds and sends the messages, plain
tuples, (batch, activations, target) up and (batch, input gradient,
slot table) down, on edges keyed (sender, receiver) and looked up once
per run for each worker (_ports), and both runners feed every slot
through it.  Module K starts each batch's table, from slot index j to
the batch's Slot, and the modules below reuse it one at a time, so a run
builds one Slot per distinct (j, batch, version) of a real gradient.
Both build every edge from one class, an unbounded FIFO that the
schedule itself bounds, and differ only in how long a read waits:
run_clocked executes the tick loop in-process, and its reads never
wait; run_parallel runs one thread per module, and produces a
bit-identical trace (each worker performs the same float operations in
the same order, only wall-clock interleaving differs).

_assemble builds every runner's trace, the oracles' too, from the config
and the K module records of each update, and judges divergence from the
records alone: divergence_reason names the first update that offends and
the trace ends there, so every runner names the same reason and S.  Each
runner sets wall_time.  Tick events come from the clock: a trace keeps
TickEvents, an iterable derived from the clock each time it is read,
from (K, M, M*S) over _clock, the slot order of run_clocked.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, sample_batch
from .errors import ConfigError, ProtocolError, check_finite_nonneg, check_int
from .net import (LOSS_KINDS, MSE, first_module_params, init_states,
                  layer_backward, layer_forward, loss_and_grad)
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


class WorkerUpdate:
    """One module's update: the squared norm of its averaged gradient, its
    provenance Slots j = 0..M-1, with record_params its new parameter list
    and with record_grads its averaged-gradient list.  losses holds module
    K's M batch losses of the group in batch order, and is () elsewhere.
    Slotted, it builds in two thirds of a namedtuple's time and its object
    is 8 bytes smaller."""

    __slots__ = ("sumsq", "slots", "params", "grads", "losses")

    def __init__(self, sumsq, slots, params, grads, losses):
        self.sumsq, self.slots, self.params = sumsq, slots, params
        self.grads, self.losses = grads, losses


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
    whole = global_grad_norm(sumsqs)
    if bad_loss is None and not offends(whole, limit):
        return None  # no module's norm exceeds the whole network's
    for k, sumsq in enumerate(sumsqs, 1):
        if k == len(sumsqs) and bad_loss is not None:
            batch, loss = bad_loss
            return f"loss={loss!r} at batch {batch}"
        norm = math.sqrt(sumsq)
        if offends(norm, limit):
            return f"module {k} gradient norm {norm!r} at update {s + 1}"
    if offends(whole, limit):
        return f"global gradient norm {whole!r} at update {s + 1}"
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
        for key in ("ga_steps", "updates", "batch_size", "seed"):  # as ints
            setattr(self, key, check_int(key, getattr(self, key), ConfigError))
        _check_counts(self.ga_steps, self.updates, self.batch_size)
        check_finite_nonneg("init_scale", self.init_scale, ConfigError)
        check_finite_nonneg("seed", self.seed, ConfigError)
        if not self.divergence_limit >= 0.0:  # NaN too; math.inf is allowed
            raise ConfigError(
                f"divergence_limit must be >= 0, got {self.divergence_limit}")

    @property
    def sampler_seed(self) -> int:
        """Key of the batch sampler; always equal to seed, which the
        runners read in its place once a batch."""
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
        layers = cfg.partition.layers_of(k)
        self.specs = [cfg.layers[i] for i in layers]
        # the layer indices of a forward and of a backward, built once
        self._forward = range(len(layers))
        self._backward = self._forward[::-1]
        self._set_params([states[i].params for i in layers])
        self.velocity = None
        self.version = 0
        self.stash = deque()  # FIFO of (batch, intermediates, version, params)
        self._sizes = [p.size for p in self.params]
        self.acc = None  # the open group's Accumulator, None between groups
        self.update_records = []
        self._losses = []  # module K: the open group's batch losses

    def _set_params(self, params):
        """Make params the live version, and build once what a stashed
        batch keeps of it: the weights its backward reads, the live list
        itself outside module 1 and first_module_params in module 1, which
        sends no input gradient."""
        self.params = params
        self._stashed = params if self.k > 1 else first_module_params(
            self.specs, params)

    @property
    def snapshots(self):
        """{version: params} of the live version and each stashed batch's,
        the stashed lists as kept (first_module_params in module 1)."""
        return {**{v: p for *_, v, p in self.stash}, self.version: self.params}

    def process_slot(self, u: int, x, target, gout, table=None):
        """Run slot 0 <= u < M*S: forward batch u, backward batch
        t_b = u - 2*(K-k) from gout, the gradient of its output (module K
        outputs and uses its own loss gradient), and update if u closes a
        group; table, if given, is t_b's slot table (Accumulator.add).
        Returns (output, input gradient of t_b or None if t_b < 0)."""
        M, version, stash = self.M, self.version, self.stash
        if version != u // M:
            raise ProtocolError(
                f"version law broken: module {self.k} at version "
                f"{version} forwarding batch {u}")
        specs, params, n = self.specs, self.params, len(self.specs)
        inters = [None] * n  # filled by index: no loop variable outlives it
        h = x
        for i in self._forward:
            h, inters[i] = layer_forward(specs[i], params[i], h)
        if self.is_last:
            loss, h = loss_and_grad(self.cfg.loss, h, target)
            self._losses.append(loss)
        # stash what the delayed backward reads, if one will
        if u < self.stash_end:
            stash.append((u, inters, version, self._stashed))
            if len(stash) > self.two_delta + 1:
                raise ProtocolError(
                    f"stash occupancy {len(stash)} exceeds "
                    f"{self.two_delta + 1} in module {self.k}")
        t_b, g, j = u - self.two_delta, None, u % M
        if j == 0:  # a group opens with its fill slots
            self.acc = Accumulator(self._sizes, M, t_b)
        if t_b >= 0:
            if not stash or stash[0][0] != t_b:
                raise ProtocolError(
                    f"module {self.k} stash head is not batch {t_b}")
            _, inters, used, sparams = stash.popleft()
            grads = [None] * n
            g = h if self.is_last else gout
            # inters.pop() is layer i's intermediate, freed once read
            for i in self._backward:
                grads[i], g = layer_backward(specs[i], sparams[i],
                                             inters.pop(), g)
            self.acc.add(grads, t_b, used, table)
            del sparams, grads
        del inters  # the backward's arrays are dead before the update
        if j == M - 1:
            cfg, acc, self.acc = self.cfg, self.acc, None
            avg = acc.average()
            sumsq = grads_sumsq(avg)
            recorded = [g.copy() for g in avg] if cfg.record_grads else None
            params, self.velocity = ga_update(
                self.params, avg, lr_at(cfg.schedule, version), cfg.sgd,
                self.velocity)
            self._set_params(params)
            losses = ()  # module K's are the group's, outside it none
            if self.is_last:
                losses = tuple(self._losses)
                self._losses.clear()
            self.update_records.append(WorkerUpdate(
                sumsq, list(acc.slots),  # exact size: the trace keeps it
                params if cfg.record_params else None, recorded, losses))
            self.version = version + 1
        return h, g

    def check_drained(self):
        if self.stash:
            raise ProtocolError(
                f"module {self.k} ended with {len(self.stash)} stashed contexts")
        if self.acc is not None:
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


def feed_slot(w: ModuleWorker, u: int, ports: tuple, cfg: TrainConfig,
              dataset: Dataset):
    """Gather worker w's slot-u inputs, run the slot and send its outputs.

    feed_slot alone reads, index-checks, builds and sends the messages,
    through get() and put() on w's ports, its edges to the adjacent
    modules (see _ports).  Module 1, which has no activation input,
    samples batch u once, and its target rides up to module K on the
    activations.  Module K starts batch t_b's slot table, and the input
    gradient of t_b goes down with it if module k-1 backpropagates t_b
    before its last slot."""
    x_in, g_in, y_out, g_out = ports
    t_b = u - w.two_delta
    if x_in is None:
        x, target = sample_batch(dataset, cfg.batch_size, cfg.seed, u)
    else:
        b, x, target = x_in.get()
        if b != u:
            raise ProtocolError(
                f"module {w.k} expected activation {u}, got {b}")
    gout = table = None
    if g_in is None:
        table = {}  # module K starts batch t_b's slot table
    elif t_b >= 0:
        b, gout, table = g_in.get()
        if b != t_b:
            raise ProtocolError(f"module {w.k} expected gradient for batch "
                                f"{t_b}, got {b}")
    y, grad = w.process_slot(u, x, target, gout, table)
    if y_out is not None:
        y_out.put((u, y, target))
    if g_out is not None and 0 <= t_b < w.stash_end - 2:
        g_out.put((t_b, grad, table))


def _clock(K: int, MS: int):
    """(tick, k, u) of every slot of a K-module, MS-batch pipeline in the
    order run_clocked runs them: by tick, then by module."""
    for tick in range(MS + 2 * (K - 1)):
        for k in range(max(1, tick - MS + 2), min(K, tick + 1) + 1):
            yield tick, k, tick - (k - 1)


@dataclass(frozen=True)
class TickEvents:
    """The TickEvents of a K-module pipeline of MS batches at M through
    tick last, derived from the clock each time they are read: each slot
    has forward u, backward u - 2*(K-k) if >= 0, and the update to
    u // M + 1 if u closes a group.  The events are a function of the
    fields, so equal views have equal events."""

    K: int
    M: int
    MS: int
    last: float

    def __iter__(self):
        K, M, last = self.K, self.M, self.last
        for tick, k, u in _clock(K, self.MS):
            if tick > last:
                return
            yield TickEvent(tick, k, "forward", u)
            if u >= 2 * (K - k):
                yield TickEvent(tick, k, "backward", u - 2 * (K - k))
            if u % M == M - 1:
                yield TickEvent(tick, k, "update", u // M + 1)


class _Stopped(Exception):
    """An edge of run_parallel was read after another worker failed."""


_CLOSED = object()  # put on every edge of run_parallel once a worker fails
_take = queue.SimpleQueue.get  # _Edge's own read, looked up once


class _Edge(queue.SimpleQueue):
    """Unbounded FIFO between adjacent modules, the one edge class of both
    runners.  A read waits up to timeout for a message (0 in run_clocked,
    whose reads do not block) and raises ProtocolError if none comes;
    reading _CLOSED raises _Stopped.  Puts never wait, as the schedule
    bounds each edge: module k's slot u >= 2(K-k) first reads the gradient
    module k+1 sends at its slot u-2, which has read activation u-2, so
    edge k->k+1 holds at most max(2, 2(K-k)) activations; module k+1 sends
    gradient t after it reads activation t+2(K-k)-2, when module k has read
    gradient t-2, so edge k+1->k holds at most 2 gradients."""

    def __init__(self, key, timeout: float):
        self.key, self.timeout, self.block = key, timeout, timeout > 0

    def get(self):
        try:
            item = _take(self, self.block, self.timeout)
        except queue.Empty:
            raise ProtocolError("missing message on edge %d->%d after %g s"
                                % (*self.key, self.timeout)) from None
        if item is _CLOSED:
            raise _Stopped
        return item


def _edges(K: int, timeout: float) -> dict:
    """_Edge(e, timeout) for both directions e of every module pair."""
    return {e: _Edge(e, timeout) for k in range(1, K)
            for e in ((k, k + 1), (k + 1, k))}


def _ports(edges: dict, k: int) -> tuple:
    """Module k's edges, looked up once per run rather than per slot: its
    activation and gradient inputs (k-1 -> k, k+1 -> k), then its
    activation and gradient outputs (k -> k+1, k -> k-1), each None where
    module k has no such edge."""
    return tuple(edges.get(e) for e in ((k - 1, k), (k + 1, k), (k, k + 1),
                                        (k, k - 1)))


def _finish(cfg: TrainConfig, workers, edges: dict, mode: str,
            wall: float) -> RunTrace:
    """Check that every edge and worker drained; assemble the trace."""
    for (a, b), edge in edges.items():
        if edge.qsize():
            raise ProtocolError(
                f"edge {a}->{b} ended with {edge.qsize()} unread messages")
    for w in workers:
        w.check_drained()
    records = [w.update_records for w in workers]

    def groups():
        """Each update's K records, dropped once _assemble has built the
        update's UpdateRecord from them."""
        for s in range(cfg.updates):
            yield [r[s] for r in records]
            for r in records:
                r[s] = None

    trace = _assemble(cfg, mode, groups())
    trace.wall_time = wall
    if not trace.diverged:
        trace.final_params = np.concatenate([p for w in workers
                                             for p in w.params])
    if cfg.trace_ticks:
        last = trace.updates[-1].tick if trace.diverged else math.inf
        trace.events = TickEvents(cfg.K, cfg.ga_steps, cfg.total_batches,
                                  last)
    return trace


def run_clocked(cfg: TrainConfig, dataset: Dataset) -> RunTrace:
    """Single-process reference execution of the pipeline clock."""
    _check_dataset(cfg, dataset)
    workers = build_workers(cfg)
    edges = _edges(cfg.K, 0.0)
    ports = [_ports(edges, k) for k in range(1, cfg.K + 1)]
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for _, k, u in _clock(cfg.K, cfg.total_batches):
            feed_slot(workers[k - 1], u, ports[k - 1], cfg, dataset)
    return _finish(cfg, workers, edges, "adl-clocked", time.perf_counter() - t0)


@functools.cache
def _openblas():
    """(get, set, park) for numpy's bundled scipy-openblas, or None if
    this numpy has none: get and set its thread count, and park (shut
    down) its thread pool, None if the build does not export that."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = (lib.scipy_openblas_get_num_threads64_,
                        lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        put.argtypes = [ctypes.c_int]
        return get, put, getattr(lib, "blas_thread_shutdown_", None)
    return None


@contextlib.contextmanager
def _blas_share(K: int):
    """Run the block with numpy's n OpenBLAS threads cut to one module
    thread's share, max(1, n // K); restore n afterwards.  At a share of
    1 a lone caller also parks the pool, whose idle threads would spin on
    the modules' cores for about 2^28 cycles after their last job; setting
    n re-creates it.  Beside another thread the pool stays: a shutdown
    hangs while a thread is inside a threaded call."""
    blas = _openblas()
    n = blas[0]() if blas else 1
    share = max(1, n // K)
    if share == n:
        yield
        return
    _, put, park = blas
    put(share)  # first: a put re-creates a parked pool
    if share == 1 and park and threading.active_count() == 1:
        park()
    try:
        yield
    finally:
        put(n)


def run_parallel(cfg: TrainConfig, dataset: Dataset,
                 deadlock_timeout: float = 60.0) -> RunTrace:
    """One thread per module, no global clock, on the edges of
    run_clocked, whose reads here wait up to deadlock_timeout.

    Produces the same trace as run_clocked bit for bit: message order on
    every edge is fixed by batch index, and each worker executes the
    identical operation sequence.  Every worker runs all its slots, so a
    run executes all S updates and the trace ends at the first offending
    update whatever the thread timing.  A failing worker closes every edge.

    While the workers run, numpy's bundled OpenBLAS runs max(1, n // K)
    threads instead of its n, so the K workers share the cores rather
    than each starting n BLAS threads; n is restored afterwards, also
    when the run raises.  At a share of 1 a lone caller also parks
    OpenBLAS's idle thread pool for the run (see _blas_share).  The
    setting is process-wide: numpy calls of other threads see the
    reduced count while the run lasts.  A numpy without bundled
    scipy-openblas is left alone.
    """
    if not 0.0 < deadlock_timeout <= threading.TIMEOUT_MAX:  # NaN too
        raise ConfigError(f"deadlock_timeout must be > 0 and at most "
                          f"threading.TIMEOUT_MAX, got {deadlock_timeout}")
    _check_dataset(cfg, dataset)
    workers = build_workers(cfg)
    edges = _edges(cfg.K, deadlock_timeout)
    errors = {}

    def drive(w: ModuleWorker):
        try:
            np.seterr(over="ignore", invalid="ignore")  # thread-local
            ports = _ports(edges, w.k)
            for u in range(cfg.total_batches):
                feed_slot(w, u, ports, cfg, dataset)
        except _Stopped:
            pass
        except BaseException as exc:  # noqa: BLE001 - ferried to the caller
            errors[w.k] = exc
            for edge in edges.values():
                queue.SimpleQueue.put(edge, _CLOSED)  # bypasses a faulty put

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
