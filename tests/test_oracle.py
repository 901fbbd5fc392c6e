"""Reference trainers and the central equivalence claims."""
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl import data, net, optimizer, oracle
from adl.errors import ComparisonError
from adl.optimizer import ConstantLr, Harmonic, SgdConfig, StepDecay
from adl.oracle import delayed_replay, sync_ga_sgd
from adl.partition import Partition, partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.trace import compare_traces, read_csv, write_csv


def assert_identical(a, b):
    rep = compare_traces(a, b, tol=0.0)
    assert rep.passed, rep.text()
    assert rep.max_loss_diff == 0.0 and rep.max_grad_norm_diff == 0.0
    if a.params is not None and b.params is not None:
        assert rep.max_param_diff == 0.0


@pytest.mark.parametrize("M", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k1_pipeline_equals_sync_ga(M, seed, spiral_case):
    cfg, ds = spiral_case(1, M, S=12, seed=seed, record_params=True)
    assert_identical(run_clocked(cfg, ds), sync_ga_sgd(cfg, ds))


@pytest.mark.parametrize("K,M", [(1, 2), (2, 1), (2, 4), (3, 2), (6, 1),
                                 (6, 4)])
def test_pipeline_equals_delayed_replay(K, M, spiral_case):
    cfg, ds = spiral_case(K, M, S=15, seed=3, record_params=True,
                          record_grads=True)
    a = run_clocked(cfg, ds)
    b = delayed_replay(cfg, ds)
    assert_identical(a, b)
    for ga, gb in zip(a.grads, b.grads):
        np.testing.assert_array_equal(ga, gb)


# parameterless layers between the affine ends, so some splits give modules
# of empty parameter vectors only
GRID_SPECS = [net.affine(2, 4), net.tanh(4), net.tanh(4), net.relu(4),
              net.affine(4, 2)]


def contiguous_splits(num_layers, max_K):
    """Every Partition of num_layers into K <= max_K contiguous modules."""
    for K in range(1, max_K + 1):
        for cuts in itertools.combinations(range(1, num_layers), K - 1):
            yield Partition((0, *cuts, num_layers))


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("sgd", [SgdConfig(),
                                 SgdConfig(momentum=0.9, weight_decay=1e-3)])
def test_four_runners_agree_over_every_split(M, sgd):
    ds = data.gen_two_spirals(64, 0.0, seed=5)
    for part in contiguous_splits(len(GRID_SPECS), len(GRID_SPECS)):
        cfg = TrainConfig(GRID_SPECS, part, net.SOFTMAX_CE, M, 8, 4,
                          ConstantLr(0.1), sgd, seed=2, record_params=True,
                          record_grads=True, trace_ticks=True)
        clocked = run_clocked(cfg, ds)
        others = [run_parallel(cfg, ds), delayed_replay(cfg, ds)]
        if part.K == 1:
            others.append(sync_ga_sgd(cfg, ds))
        for other in others:
            assert_identical(clocked, other)
            for name in ("params", "grads"):
                for a, b in zip(getattr(clocked, name), getattr(other, name),
                                strict=True):
                    np.testing.assert_array_equal(a, b)
            assert [r.slots for r in clocked.updates] == \
                [r.slots for r in other.updates], part
        assert others[0].events == clocked.events


@st.composite
def pipelines(draw):
    """A random (TrainConfig, Dataset): a stack of up to 3 affine layers,
    each followed by up to 2 tanh, relu or identity layers, behind an
    optional leading one (and identity layers to make up K), split into
    K <= 5 contiguous modules, with either loss, any schedule, rates that
    diverge, and runs shorter than the pipeline fill."""
    loss = draw(st.sampled_from([net.MSE, net.SOFTMAX_CE]))
    K = draw(st.integers(1, 5))
    n_affine = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=n_affine + 1,
                         max_size=n_affine + 1))
    if loss == net.SOFTMAX_CE:
        dims[-1] = max(dims[-1], 2)
    kinds = [net.TANH, net.RELU, net.IDENTITY]
    layers = [net.LayerSpec(kind, dims[0], dims[0])  # parameterless first
              for kind in draw(st.lists(st.sampled_from(kinds), max_size=1))]
    for d_in, d_out in zip(dims, dims[1:]):
        layers.append(net.affine(d_in, d_out))
        layers.extend(net.LayerSpec(kind, d_out, d_out) for kind in
                      draw(st.lists(st.sampled_from(kinds), max_size=2)))
    layers += [net.identity(dims[-1])] * (K - len(layers))  # K modules
    cuts = draw(st.permutations(range(1, len(layers))))[:K - 1]
    M = draw(st.integers(1, 4))
    lr = draw(st.sampled_from([0.0, 0.01, 0.1, 0.1, 1.0, 2000.0, 1e6]))
    schedule = draw(st.sampled_from([
        ConstantLr(lr), Harmonic(lr),
        StepDecay(lr, warmup_updates=draw(st.integers(0, 2)),
                  milestones_epochs=(0.5, 1.0), factor=0.5, ga_steps=M,
                  batches_per_epoch=draw(st.integers(1, 8)))]))
    sgd = SgdConfig(draw(st.sampled_from([0.0, 0.5, 0.9])),
                    draw(st.sampled_from([0.0, 1e-3, 0.5])))
    seed = draw(st.integers(0, 2 ** 16))
    cfg = TrainConfig(
        layers, Partition((0, *sorted(cuts), len(layers))), loss, M,
        draw(st.integers(1, 6)), draw(st.integers(1, 5)), schedule, sgd,
        seed=seed, init_scale=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])),
        record_params=draw(st.booleans()), record_grads=draw(st.booleans()),
        trace_ticks=draw(st.booleans()),
        divergence_limit=draw(st.sampled_from([0.0, 1.0, 1e12, 1e12, 1e12,
                                               math.inf])))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 8))
    x = rng.normal(size=(n, dims[0]))
    y = rng.normal(size=(n, dims[-1])) if loss == net.MSE \
        else rng.integers(0, dims[-1], size=n)
    return cfg, data.Dataset(x, y)


def bits(trace):
    """Everything a runner computes, as bytes and exact values: updates
    with provenance, the reason, params, grads and final_params."""
    def arrays(xs):
        return None if xs is None else [x.tobytes() for x in xs]

    updates = [(r.s, r.tick, struct.pack("<2d", r.loss, r.grad_norm),
                r.slots) for r in trace.updates]
    return (updates, trace.diverged, trace.divergence_reason,
            arrays(trace.params), arrays(trace.grads),
            arrays(None if trace.final_params is None
                   else [trace.final_params]))


@given(case=pipelines())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_four_runners_agree_on_random_pipelines(case, tmp_path_factory):
    # groups with no real gradient and runs shorter than the fill (M*S <
    # 2(K-k)) included: every runner computes the same bits, and the CSV
    # round trip compares equal at tol 0
    cfg, ds = case
    clocked, parallel = run_clocked(cfg, ds), run_parallel(cfg, ds)
    oracles = [delayed_replay(cfg, ds)]
    if cfg.K == 1:
        oracles.append(sync_ga_sgd(cfg, ds))
    for other in [parallel] + oracles:
        assert bits(other) == bits(clocked)
    events = [None if t.events is None else list(t.events)
              for t in (clocked, parallel)]
    assert events[0] == events[1] and (events[0] is None) != cfg.trace_ticks
    path = tmp_path_factory.getbasetemp() / "random_pipeline.csv"
    write_csv(clocked, path)
    assert compare_traces(clocked, read_csv(path), tol=0.0).passed


def test_equivalence_survives_momentum_decay_and_schedules(spiral_case):
    for sched in (Harmonic(0.3), ConstantLr(0.05)):
        cfg, ds = spiral_case(3, 2, S=10, record_params=True,
                              sgd=SgdConfig(momentum=0.9, weight_decay=1e-3))
        cfg.schedule = sched
        assert_identical(run_clocked(cfg, ds), delayed_replay(cfg, ds))


def test_k1_replay_reduces_to_sync(spiral_case):
    cfg, ds = spiral_case(1, 2, S=10, record_params=True, record_grads=True)
    assert_identical(delayed_replay(cfg, ds), sync_ga_sgd(cfg, ds))
    # sync ignores the partition: on a K=3 config it is the K=1 replay
    cfg3, _ = spiral_case(3, 2, S=10, record_params=True, record_grads=True)
    sync, clocked = sync_ga_sgd(cfg3, ds), run_clocked(cfg, ds)
    assert (sync.K, sync.mode) == (1, "sync-ga")
    assert_identical(clocked, sync)
    for ga, gb in zip(clocked.grads, sync.grads):
        np.testing.assert_array_equal(ga, gb)
    assert [r.slots for r in clocked.updates] == \
        [r.slots for r in sync.updates]


def test_replay_provenance_slots(spiral_case):
    cfg, ds = spiral_case(3, 4, S=6)
    trace = delayed_replay(cfg, ds)
    for rec in trace.updates:
        for k in range(1, 4):
            for j, sl in enumerate(rec.slots[k]):
                t_b = 4 * rec.s + j - 2 * (3 - k)
                assert sl.batch_index == t_b
                assert sl.skipped == (t_b < 0)
                if t_b >= 0:
                    assert sl.version == max(0, t_b // 4)


def test_module1_gradient_is_two_steps_stale():
    # K=2, M=1: module 1's update s+1 direction is the gradient of batch
    # s-2 evaluated on the parameters of version s-2
    specs = [net.affine(2, 4), net.tanh(4), net.affine(4, 2),
             net.affine(2, 2)]
    cfg = TrainConfig(specs, partition_even(4, 2), net.SOFTMAX_CE, 1, 8, 8,
                      ConstantLr(0.05), SgdConfig(), seed=5,
                      record_params=True, record_grads=True)
    ds = data.gen_two_spirals(64, 0.0, seed=6)
    trace = run_clocked(cfg, ds)
    sizes = [sp.param_count for sp in specs]
    offsets = np.cumsum([0] + sizes)
    n1 = sum(sizes[:2])  # module 1 = layers 0..1 under the even split
    for s in range(2, 8):
        t = s - 2
        flat = trace.params[t]
        params = [flat[offsets[i]:offsets[i + 1]] for i in range(4)]
        x, y = data.sample_batch(ds, 8, cfg.sampler_seed, t)
        _, ctx = net.net_forward(specs, params, x, cfg.loss, y)
        grads, _ = net.net_backward(specs, params, ctx)
        want = np.concatenate([g.ravel() for g in grads[:2]])
        np.testing.assert_array_equal(trace.grads[s][:n1], want)


def test_sync_descends_on_quadratic():
    ds = data.gen_linreg(512, 4, 0.0, seed=2)
    specs = [net.affine(4, 1)]
    X = np.hstack([ds.inputs, np.ones((ds.n, 1))])
    L = 2.0 * float(np.linalg.eigvalsh(X.T @ X / ds.n)[-1])
    cfg = TrainConfig(specs, partition_even(1, 1), net.MSE, 1, 512, 40,
                      ConstantLr(0.9 / L), SgdConfig(), seed=3)
    trace = sync_ga_sgd(cfg, ds)
    losses = [r.loss for r in trace.updates]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-2 * losses[0]


def test_sync_full_group_semantics(spiral_case):
    # all M gradients of a sync update come from the update's own version
    cfg, ds = spiral_case(1, 4, S=5)
    trace = sync_ga_sgd(cfg, ds)
    for rec in trace.updates:
        for j, sl in enumerate(rec.slots[1]):
            assert sl.version == rec.s
            assert sl.batch_index == 4 * rec.s + j


def test_compare_traces_reports_divergence(spiral_case):
    cfg, ds = spiral_case(2, 2, S=6)
    a = run_clocked(cfg, ds)
    b = run_clocked(cfg, ds)
    rep = compare_traces(a, b, 0.0)
    assert rep.passed and rep.first_divergence is None
    b.updates[3].loss += 1e-9
    rep2 = compare_traces(a, b, 1e-12)
    assert not rep2.passed and rep2.first_divergence == 3
    assert compare_traces(a, b, 1e-6).passed  # within tolerance
    b.updates.pop()
    with pytest.raises(ComparisonError):
        compare_traces(a, b, 0.0)


# spiral case, S=60: K, M, lr, divergence limit
DIVERGENCE_GRID = list(itertools.product(
    (2, 3), (1, 4), (2.0, 10.0, 50.0, 2000.0), (1e12, 1e3, 20.0, 5.0, 2.0)))


def test_divergence_in_oracles(spiral_case):
    # every runner judges the same update records by one rule, so all name
    # the same reason and S and keep the same records; sync is the K=1
    # replay.  Every fourth config of the grid covers each value of each
    # axis and reasons by loss, by module 1..K norms and no divergence.
    kinds = set()
    for K, M, lr, limit in DIVERGENCE_GRID[1::4]:
        cfg, ds = spiral_case(K, M, S=60, lr=lr, divergence_limit=limit)
        cfg1, _ = spiral_case(1, M, S=60, lr=lr, divergence_limit=limit)
        for runs in ([run_clocked(cfg, ds), run_parallel(cfg, ds),
                      delayed_replay(cfg, ds)],
                     [sync_ga_sgd(cfg1, ds), delayed_replay(cfg1, ds),
                      run_clocked(cfg1, ds)]):
            first, reason = runs[0], str(runs[0].divergence_reason)
            assert "np.float64" not in reason
            for trace in runs[1:]:
                assert trace.divergence_reason == first.divergence_reason
                assert trace.S == first.S
                assert compare_traces(first, trace, tol=0.0).passed
            kinds.add(reason.split(" ")[0].split("=")[0])
    assert kinds == {"None", "loss", "module"}


def test_replay_makes_one_pass_per_batch(spiral_case, monkeypatch):
    # the gradient of batch t does not depend on the module that reads it;
    # the replay's twin of test_run_clocked_calls_every_name_the_tracer_wraps
    # also counts the other names bench/tracing.py wraps in adl.oracle, and
    # Accumulator.add, which it calls as often as the clock does
    calls = {"sample_batch": [], "net_forward": 0}
    names = ("net_backward", "ga_update", "grads_sumsq")
    counts = dict.fromkeys(names + ("add",), 0)

    def sample(dataset, size, seed, t):
        calls["sample_batch"].append(t)
        return data.sample_batch(dataset, size, seed, t)

    def forward(*args):
        calls["net_forward"] += 1
        return net.net_forward(*args)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(oracle, "sample_batch", sample)
    monkeypatch.setattr(oracle, "net_forward", forward)
    for name in names:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    monkeypatch.setattr(optimizer.Accumulator, "add",
                        counted("add", optimizer.Accumulator.add))
    K, M, S = 3, 2, 6
    cfg, ds = spiral_case(K, M, S=S)
    assert delayed_replay(cfg, ds).S == 6
    assert calls == {"sample_batch": list(range(12)), "net_forward": 12}
    assert counts == {"net_backward": M * S, "ga_update": K * S,
                      "grads_sumsq": K * S, "add": K * M * S - K * (K - 1)}


@pytest.mark.parametrize("K,M", [(2, 1), (3, 4)])
def test_diverging_replay_stops_at_the_diverging_update(K, M, spiral_case,
                                                        monkeypatch):
    # the replay streams each update's records to _assemble, which reads
    # no further once divergence_reason names one
    calls = []

    def forward(*args):
        calls.append(1)
        return net.net_forward(*args)

    monkeypatch.setattr(oracle, "net_forward", forward)
    cfg, ds = spiral_case(K, M, S=60, lr=2000.0)
    trace = delayed_replay(cfg, ds)
    assert trace.diverged and trace.S < 60
    assert len(calls) == M * trace.S


@pytest.mark.parametrize("runner,K", [(sync_ga_sgd, 1), (delayed_replay, 3)])
def test_oracles_evaluate_the_loss_once_per_batch(runner, K, spiral_case,
                                                  monkeypatch):
    # net_backward starts from the loss gradient net_forward kept
    calls, loss_and_grad = [], net.loss_and_grad

    def counted(*args):
        calls.append(args[0])
        return loss_and_grad(*args)

    monkeypatch.setattr(net, "loss_and_grad", counted)
    cfg, ds = spiral_case(K, 2, S=6)
    assert runner(cfg, ds).S == 6
    assert len(calls) == 12


@pytest.mark.parametrize("runner", [sync_ga_sgd, delayed_replay])
def test_oracle_snapshots_stay_within_the_window(runner, spiral_case):
    # without record_params only the versions a later backward reads are
    # kept, so four times the updates must not cost four times the memory
    def peak(S):
        cfg, ds = spiral_case(3, 2, S=S, hidden=64)
        tracemalloc.start()
        try:
            runner(cfg, ds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) < 2 * peak(16)
