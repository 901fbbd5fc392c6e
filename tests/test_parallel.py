"""Thread-per-module execution must replay the clocked trace bit for bit."""
import time

import numpy as np
import pytest

from adl import data, net, scheduler
from adl.optimizer import ConstantLr, SgdConfig
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.trace import compare_traces


@pytest.mark.parametrize("K,M", [(2, 1), (2, 4), (4, 1), (4, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_parallel_is_bit_identical_to_clocked(K, M, seed, spiral_case):
    cfg, ds = spiral_case(K, M, S=12, seed=seed, record_params=True,
                          record_grads=True)
    a = run_clocked(cfg, ds)
    b = run_parallel(cfg, ds)
    rep = compare_traces(a, b, tol=0.0)
    assert rep.passed, rep.text()
    assert rep.max_param_diff == 0.0
    for ga, gb in zip(a.grads, b.grads):
        np.testing.assert_array_equal(ga, gb)
    # provenance identical as well
    for ra, rb in zip(a.updates, b.updates):
        assert ra.slots == rb.slots


def test_parallel_single_module(spiral_case):
    cfg, ds = spiral_case(1, 2, S=8, record_params=True)
    rep = compare_traces(run_clocked(cfg, ds), run_parallel(cfg, ds), 0.0)
    assert rep.passed


def test_parallel_with_momentum(spiral_case):
    cfg, ds = spiral_case(3, 2, S=10, record_params=True,
                          sgd=SgdConfig(momentum=0.9, weight_decay=1e-4))
    rep = compare_traces(run_clocked(cfg, ds), run_parallel(cfg, ds), 0.0)
    assert rep.passed


def test_parallel_divergence_matches_clocked(spiral_case):
    cfg, ds = spiral_case(2, 1, S=60, lr=2000.0)
    a = run_clocked(cfg, ds)
    b = run_parallel(cfg, ds)
    assert a.diverged and b.diverged
    assert a.S == b.S
    assert a.divergence_reason == b.divergence_reason
    assert compare_traces(a, b, tol=0.0).passed


@pytest.mark.parametrize("K,lr,limit,held", [(2, 50.0, 1e12, 2),
                                             (3, 50.0, 1e12, 3),
                                             (2, 0.3, 30.0, 1),
                                             (3, 0.3, 30.0, 2)])
def test_parallel_divergence_does_not_depend_on_thread_timing(
        K, lr, limit, held, monkeypatch):
    # the module whose record names the reason (module K by its loss) is
    # held back after its slot in the diverging update, so the others run
    # ahead of it: at lr 50 module 1 diverges too, two updates later; at
    # lr 0.3 module K closes updates past the diverging one
    specs = [net.affine(6, 12), net.relu(12), net.affine(12, 12),
             net.identity(12), net.affine(12, 1)]
    cfg = TrainConfig(specs, partition_even(len(specs), K), net.MSE, 1, 8, 7,
                      ConstantLr(lr), SgdConfig(momentum=0.9), seed=5,
                      trace_ticks=True, divergence_limit=limit)
    ds = data.gen_linreg(96, 6, 0.1, seed=4)
    clocked = run_clocked(cfg, ds)
    assert clocked.diverged
    named = "loss=" if held == K else f"module {held} gradient norm"
    assert clocked.divergence_reason.startswith(named)
    closing = cfg.ga_steps * clocked.S - 1  # the diverging update's slot
    feed = scheduler.feed_slot

    def held_back(w, u, *args):
        running = feed(w, u, *args)
        if w.k == held and u == closing:
            time.sleep(0.05)
        return running

    monkeypatch.setattr(scheduler, "feed_slot", held_back)
    parallel = run_parallel(cfg, ds)
    assert parallel.divergence_reason == clocked.divergence_reason
    assert parallel.S == clocked.S
    assert compare_traces(clocked, parallel, tol=0.0).passed
    assert parallel.events == clocked.events


def test_parallel_wall_time_recorded(spiral_case):
    cfg, ds = spiral_case(2, 1, S=4)
    trace = run_parallel(cfg, ds)
    assert trace.wall_time > 0.0
    assert trace.mode == "adl-parallel"


def recording_peaks(base, peaks):
    """`base` that records in peaks[key] the most messages its edge held
    right after a put."""

    class Recorded(base):
        def put(self, msg):
            super().put(msg)
            peaks[self.key] = max(peaks.get(self.key, 0), self.qsize())

    return Recorded


@pytest.mark.parametrize("runner", [run_clocked, run_parallel])
@pytest.mark.parametrize("K", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("M", [1, 2, 4])
def test_the_schedule_bounds_every_edge(runner, K, M, ident_case,
                                        monkeypatch):
    # why no edge of either runner needs a capacity: edge k->k+1 holds at
    # most max(2, 2(K-k)) activations and edge k+1->k at most 2 gradients
    cfg, ds = ident_case(K, M, S=24 // M)
    peaks = {}
    monkeypatch.setattr(scheduler, "_Edge",
                        recording_peaks(scheduler._Edge, peaks))
    runner(cfg, ds)
    assert set(peaks) == {e for k in range(1, K)
                          for e in ((k, k + 1), (k + 1, k))}
    for (a, b), peak in peaks.items():
        assert peak <= (max(2, 2 * (K - a)) if b == a + 1 else 2), (a, b)
