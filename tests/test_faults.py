"""Injected transport faults surface as ProtocolError and never hang.

Each fault subclasses the edge class a runner builds (the in-process FIFO
of run_clocked, the bounded queue of run_parallel) and drops, duplicates
or reorders one message on one edge.  A worker driven out of its schedule
raises ProtocolError itself, and an error raised inside a worker thread
reaches the caller of run_parallel.
"""
import threading
import time

import numpy as np
import pytest

from adl import scheduler
from adl.errors import ProtocolError


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
    monkeypatch.setattr(scheduler, "_Fifo",
                        faulty(scheduler._Fifo, fault, edge, nth))
    with pytest.raises(ProtocolError, match=match):
        scheduler.run_clocked(cfg, ds)


@pytest.mark.parametrize("fault,edge,nth,match", FAULTS)
def test_parallel_reports_transport_faults_without_hanging(
        fault, edge, nth, match, spiral_case, monkeypatch):
    cfg, ds = spiral_case(2, 2, S=6)
    monkeypatch.setattr(scheduler, "_Edge",
                        faulty(scheduler._Edge, fault, edge, nth))
    threads = threading.active_count()
    start = time.perf_counter()
    with pytest.raises(ProtocolError):
        scheduler.run_parallel(cfg, ds, deadlock_timeout=1.0)
    assert time.perf_counter() - start < 1.0
    assert threading.active_count() == threads



def test_parallel_lost_last_message_trips_the_deadlock_timeout(
        spiral_case, monkeypatch):
    cfg, ds = spiral_case(2, 2, S=6)
    monkeypatch.setattr(scheduler, "_Edge",
                        faulty(scheduler._Edge, *LOST_LAST[:3]))
    threads = threading.active_count()
    start = time.perf_counter()
    with pytest.raises(ProtocolError, match="deadlock: edge 2->1 empty"):
        scheduler.run_parallel(cfg, ds, deadlock_timeout=0.3)
    assert time.perf_counter() - start < 1.3
    assert threading.active_count() == threads


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
    for u in range(w.two_delta + 1):
        w._forward(u, x, None)
    with pytest.raises(ProtocolError, match="stash occupancy 4 exceeds 3"):
        w._forward(w.two_delta + 1, x, None)


def test_worker_rejects_a_backward_out_of_stash_order(spiral_case):
    cfg, _ = spiral_case(2, 2, S=6)
    w = scheduler.build_workers(cfg)[0]
    x = np.zeros((cfg.batch_size, 2))
    w._forward(0, x, None)
    w._forward(1, x, None)
    gout = np.zeros((cfg.batch_size, cfg.layers[2].out_dim))
    with pytest.raises(ProtocolError, match="module 1 stash head is not "
                                            "batch 1"):
        w._backward(1, gout)


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
    w._forward(0, np.zeros((cfg.batch_size, 2)), None)
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
    with pytest.raises(ProtocolError, match="gradient layout does not "
                                            "match accumulator"):
        w.acc.add(w.params[:1], 0, 0)


def test_parallel_reraises_a_worker_error_and_joins_every_thread(
        spiral_case, monkeypatch):
    cfg, ds = spiral_case(3, 2, S=6)
    boom = RuntimeError("module 2 failed at slot 5")
    process_slot = scheduler.ModuleWorker.process_slot

    def failing(w, u, *args):
        if (w.k, u) == (2, 5):
            raise boom
        return process_slot(w, u, *args)

    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", failing)
    monkeypatch.setattr(scheduler.threading, "Thread", Recorded)
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as info:
        scheduler.run_parallel(cfg, ds, deadlock_timeout=1.0)
    assert time.perf_counter() - start < 1.0
    assert info.value is boom
    assert len(started) == 3
    assert not any(t.is_alive() for t in started)
