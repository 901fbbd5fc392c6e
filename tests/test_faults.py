"""Injected transport faults surface as ProtocolError and never hang.

Each fault subclasses _Edge, the one edge class both runners build, and
drops, duplicates or reorders one message on one edge.  A read of an empty
edge raises ProtocolError at once in run_clocked and after the deadlock
timeout in run_parallel.  A worker driven out of its schedule raises
ProtocolError itself, and an error raised inside a worker thread closes
every edge of run_parallel and reaches its caller.
"""
import threading
import time

import numpy as np
import pytest

from adl import scheduler
from adl.errors import ConfigError, ProtocolError
from adl.trace import compare_traces


def blas_threads():
    """numpy's OpenBLAS thread count, or None without scipy-openblas."""
    blas = scheduler._openblas()
    return blas and blas[0]()


def faulty(base, fault, target, nth=0):
    """`base` with message `nth` sent on edge `target` dropped, sent
    twice, or held back until after the next message."""

    class Faulty(base):
        def __init__(self, key, *args):
            super().__init__(key, *args)
            self.sent, self.held = 0, None

        def put(self, msg):
            hit = self.key == target and self.sent == nth
            self.sent += 1
            if hit and fault == "reorder":
                self.held = msg
                return
            if not (hit and fault == "drop"):
                super().put(msg)
            if hit and fault == "duplicate":
                super().put(msg)
            if self.held is not None and not hit:
                super().put(self.held)
                self.held = None

    return Faulty


# K=2, M=2, S=6: edge (1, 2) carries activations 0..11, edge (2, 1)
# gradients 0..9
FAULTS = [
    ("drop", (1, 2), 0, "expected activation 0, got 1"),
    ("duplicate", (1, 2), 0, "expected activation 1, got 0"),
    ("reorder", (1, 2), 0, "expected activation 0, got 1"),
    ("drop", (2, 1), 0, "missing message on edge 2->1"),
    ("duplicate", (2, 1), 0, "expected gradient for batch 1, got 0"),
    ("reorder", (2, 1), 0, "missing message on edge 2->1"),
    ("duplicate", (1, 2), 11, "edge 1->2 ended with 1 unread messages"),
]
# the last gradient: run_parallel can only notice it by timing out
LOST_LAST = ("drop", (2, 1), 9, "missing message on edge 2->1")


@pytest.mark.parametrize("fault,edge,nth,match", FAULTS + [LOST_LAST])
def test_clocked_reports_transport_faults(fault, edge, nth, match,
                                          spiral_case, monkeypatch):
    cfg, ds = spiral_case(2, 2, S=6)
    monkeypatch.setattr(scheduler, "_Edge",
                        faulty(scheduler._Edge, fault, edge, nth))
    start = time.perf_counter()
    with pytest.raises(ProtocolError, match=match):
        scheduler.run_clocked(cfg, ds)
    assert time.perf_counter() - start < 0.5  # a clocked read never waits


@pytest.mark.parametrize("fault,edge,nth,match", FAULTS)
def test_parallel_reports_transport_faults_without_hanging(
        fault, edge, nth, match, spiral_case, monkeypatch):
    cfg, ds = spiral_case(2, 2, S=6)
    monkeypatch.setattr(scheduler, "_Edge",
                        faulty(scheduler._Edge, fault, edge, nth))
    threads, blas = threading.active_count(), blas_threads()
    start = time.perf_counter()
    with pytest.raises(ProtocolError):
        scheduler.run_parallel(cfg, ds, deadlock_timeout=1.0)
    assert time.perf_counter() - start < 1.0
    assert threading.active_count() == threads
    assert blas_threads() == blas



def test_parallel_lost_last_message_trips_the_deadlock_timeout(
        spiral_case, monkeypatch):
    cfg, ds = spiral_case(2, 2, S=6)
    monkeypatch.setattr(scheduler, "_Edge",
                        faulty(scheduler._Edge, *LOST_LAST[:3]))
    threads, blas = threading.active_count(), blas_threads()
    start = time.perf_counter()
    with pytest.raises(ProtocolError,
                       match="missing message on edge 2->1 after 0.3 s"):
        scheduler.run_parallel(cfg, ds, deadlock_timeout=0.3)
    assert 0.3 <= time.perf_counter() - start < 1.3  # no early give-up
    assert threading.active_count() == threads
    assert blas_threads() == blas


def test_worker_rejects_a_slot_ahead_of_its_version(spiral_case):
    cfg, _ = spiral_case(2, 2, S=6)
    w = scheduler.build_workers(cfg)[0]
    x = np.zeros((cfg.batch_size, 2))
    with pytest.raises(ProtocolError, match="version law broken: module 1"):
        w.process_slot(cfg.ga_steps, x, None, None)


def test_worker_rejects_a_stash_beyond_its_delay(spiral_case):
    # module 1 of K=2 holds at most 2(K-k)+1 = 3 forwards awaiting backward
    cfg, _ = spiral_case(2, 4, S=2)
    w = scheduler.build_workers(cfg)[0]
    x = np.zeros((cfg.batch_size, 2))
    for _ in range(w.two_delta + 1):
        w.process_slot(0, x, None, None)
    with pytest.raises(ProtocolError, match="stash occupancy 4 exceeds 3"):
        w.process_slot(0, x, None, None)


def test_worker_rejects_a_backward_out_of_stash_order(spiral_case):
    cfg, _ = spiral_case(2, 2, S=6)
    w = scheduler.build_workers(cfg)[0]
    x = np.zeros((cfg.batch_size, 2))
    w.process_slot(0, x, None, None)
    w.process_slot(1, x, None, None)
    gout = np.zeros((cfg.batch_size, cfg.layers[2].out_dim))
    with pytest.raises(ProtocolError, match="module 1 stash head is not "
                                            "batch 1"):
        w.process_slot(3, x, None, gout)


def _sync_worker(spiral_case, slots):
    """The one worker of a K=1, M=2, S=6 run, after its first `slots`."""
    cfg, ds = spiral_case(1, 2, S=6)
    w = scheduler.build_workers(cfg)[0]
    for u in range(slots):
        x, target = scheduler.sample_batch(ds, cfg.batch_size,
                                           cfg.sampler_seed, u)
        w.process_slot(u, x, target, None)
    return w


def test_drain_check_rejects_stashed_contexts(spiral_case):
    cfg, _ = spiral_case(2, 2, S=6)
    w = scheduler.build_workers(cfg)[0]
    w.process_slot(0, np.zeros((cfg.batch_size, 2)), None, None)
    with pytest.raises(ProtocolError,
                       match="module 1 ended with 1 stashed contexts"):
        w.check_drained()


def test_drain_check_rejects_an_open_accumulator(spiral_case):
    w = _sync_worker(spiral_case, 3)
    with pytest.raises(ProtocolError,
                       match="module 1 ended with an open accumulator"):
        w.check_drained()


def test_drain_check_rejects_missing_updates(spiral_case):
    w = _sync_worker(spiral_case, 4)
    with pytest.raises(ProtocolError,
                       match="module 1 performed 2 updates, expected 6"):
        w.check_drained()


def test_accumulator_rejects_a_gradient_of_another_layout(spiral_case):
    cfg, _ = spiral_case(2, 2, S=6)
    w = scheduler.build_workers(cfg)[0]
    acc = scheduler.Accumulator(w._sizes, w.M, 0)  # a group of w's layout
    with pytest.raises(ProtocolError, match="gradient layout does not "
                                            "match accumulator"):
        acc.add(w.params[:1], 0, 0)


@pytest.mark.parametrize("timeout", [float("nan"), 0.0, -1.0, float("inf"),
                                     threading.TIMEOUT_MAX * 2])
def test_parallel_rejects_a_deadlock_timeout_before_any_thread(
        timeout, spiral_case, monkeypatch):
    # a NaN timeout never trips, so a lost message would hang the run, and
    # a wait past TIMEOUT_MAX overflows even with a message waiting
    cfg, ds = spiral_case(3, 2, S=6)
    started = []
    monkeypatch.setattr(scheduler.threading.Thread, "start",
                        lambda t: started.append(t))
    with pytest.raises(ConfigError, match="deadlock_timeout must be > 0"):
        scheduler.run_parallel(cfg, ds, deadlock_timeout=timeout)
    assert started == []


def test_parallel_runs_at_the_longest_deadlock_timeout(spiral_case):
    cfg, ds = spiral_case(3, 2, S=6, record_params=True)
    a = scheduler.run_clocked(cfg, ds)
    b = scheduler.run_parallel(cfg, ds, deadlock_timeout=threading.TIMEOUT_MAX)
    assert compare_traces(a, b, tol=0.0).passed
    np.testing.assert_array_equal(a.final_params, b.final_params)


def _fail_at(k, u, timeout, spiral_case, monkeypatch):
    """Run a K=3, M=2, S=6 run_parallel whose module k raises at slot u;
    assert that the run re-raises it within 1 s and joins all 3 threads."""
    cfg, ds = spiral_case(3, 2, S=6)
    boom = RuntimeError(f"module {k} failed at slot {u}")
    process_slot = scheduler.ModuleWorker.process_slot

    def failing(w, slot, *args):
        if (w.k, slot) == (k, u):
            raise boom
        return process_slot(w, slot, *args)

    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", failing)
    monkeypatch.setattr(scheduler.threading, "Thread", Recorded)
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as info:
        scheduler.run_parallel(cfg, ds, deadlock_timeout=timeout)
    assert time.perf_counter() - start < 1.0
    assert info.value is boom
    assert len(started) == 3
    assert not any(t.is_alive() for t in started)


def test_parallel_reraises_a_worker_error_and_joins_every_thread(
        spiral_case, monkeypatch):
    _fail_at(2, 5, 1.0, spiral_case, monkeypatch)


@pytest.mark.parametrize("k,u", [(1, 0), (2, 5), (3, 11)])
def test_a_failing_worker_closes_every_edge(k, u, spiral_case, monkeypatch):
    # the others stop at their next read, long before the 60 s timeout
    _fail_at(k, u, 60.0, spiral_case, monkeypatch)
