"""Pipeline schedule, provenance, and the clocked runner."""
import itertools
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adl import net
from adl.errors import ConfigError
from adl.optimizer import ConstantLr, SgdConfig
from adl.partition import partition_even
from adl.oracle import delayed_replay, sync_ga_sgd
from adl.scheduler import (TrainConfig, run_clocked, run_parallel,
                           schedule_position)
from adl.staleness import effective_version, steady_staleness
from adl.trace import compare_traces, read_csv
from adl import data, scheduler

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
@pytest.mark.parametrize("K,M", itertools.product((2, 3, 4), (1, 2, 3, 4)))
def test_a_version_is_freed_after_its_last_reader(K, M, runner, spiral_case,
                                                  monkeypatch):
    # after slot u module k keeps alive its live version and the versions
    # of the batches b in (u - 2(K-k), u] whose backward is still to come,
    # and nothing else; a weak reference to each version's first non-empty
    # parameter array tells which versions are still alive
    S = 6
    refs = {k: {} for k in range(1, K + 1)}  # one dict per module thread
    wrong, process_slot = [], scheduler.ModuleWorker.process_slot

    def watch(worker):
        first = next(p for p in worker.params if p.size)
        refs[worker.k].setdefault(worker.version, weakref.ref(first))

    def checked(worker, u, *args):
        watch(worker)
        out = process_slot(worker, u, *args)
        watch(worker)
        k, d = worker.k, 2 * (K - worker.k)
        alive = {v for v, ref in refs[k].items() if ref() is not None}
        stashed = range(max(0, u - d + 1), min(u + 1, M * S - d))
        want = {b // M for b in stashed} | {worker.version}
        if alive != want:
            wrong.append((k, u, sorted(alive), sorted(want)))
        return out

    monkeypatch.setattr(scheduler.ModuleWorker, "process_slot", checked)
    cfg, ds = spiral_case(K, M, S=S)
    assert runner(cfg, ds).S == S
    assert all(refs.values())
    assert wrong == []


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
@pytest.mark.parametrize("K,M,S,lr", [
    *((K, M, 3, 0.05) for K, M in itertools.product((1, 2, 3, 5),
                                                    (1, 2, 3, 4))),
    (3, 2, 60, 2000.0)])
def test_tick_events_follow_the_schedule(K, M, S, lr, spiral_case):
    cfg, ds = spiral_case(K, M, S=S, lr=lr, trace_ticks=True)
    clocked = run_clocked(cfg, ds)
    assert clocked.diverged == (lr > 1)
    last = clocked.updates[-1].tick if clocked.diverged else math.inf
    expected = schedule_events(K, M, S, last)
    assert clocked.events == expected
    assert run_parallel(cfg, ds).events == expected
    if clocked.diverged:  # module K's update of the last kept version
        assert expected[-1] == (last, K, "update", clocked.S)


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
    get, put = blas
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
