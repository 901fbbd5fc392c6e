"""Acceptance suite: one test per headline guarantee, run in order.

Each test prints a single summary line with the measured quantities so
`pytest -v -s tests/test_acceptance.py` reads as a checklist:

  a01  provenance grid exact over K<=10, M<=8, 51 updates, < 5 s
  a02  per-group staleness patterns (GA group and M=1 constant delay)
  a03  averaged staleness drop 14 -> 3.5 (exactly 75%)
  a04  clocked pipeline == delayed replay, tol 0
  a05  K=1 pipeline == synchronous GA-SGD, tol 0
  a06  threaded pipeline == clocked pipeline, tol 0
  a07  backward pass vs central finite differences, rel err < 1e-6
  a08  noiseless quadratic reaches a critical point, ||g|| < 1e-3
  a09  GA ablation on a deep pipeline: M=4 beats M=1 at the edge lr
  a10  bound calculators reproduce hand-worked values
  a11  threaded speedup >= 1.5x on >= 4 cores (skips otherwise)
"""
import os
import platform
import time
from fractions import Fraction

import numpy as np
import pytest

from adl.data import Dataset, gen_two_spirals
from adl.net import (affine, identity, net_backward, net_forward, relu,
                     tanh)
from adl.optimizer import ConstantLr, Harmonic, lr_at
from adl.oracle import delayed_replay, sync_ga_sgd
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.staleness import (averaged_los, effective_version,
                           steady_staleness, theorem1_rhs, theorem2_rhs,
                           theorem3_lr, theorem3_bound)
from adl.trace import compare_traces

from conftest import (_ident_case, _random_net, _spiral_case,
                      finite_diff_grad, rel_error)


def _assert_equivalent(ta, tb, check_grads=False):
    report = compare_traces(ta, tb, tol=0.0)
    assert report.passed, report.text()
    assert report.max_param_diff == 0.0
    if check_grads:
        for ga, gb in zip(ta.grads, tb.grads):
            assert np.array_equal(ga, gb)


def _load_flat(specs, flat):
    return np.split(flat, np.cumsum([s.param_count for s in specs])[:-1])


def test_a01_provenance_exact_over_full_grid():
    t0 = time.perf_counter()
    mismatches = checked = 0
    for K in range(1, 11):
        for M in range(1, 9):
            cfg, ds = _ident_case(K, M, S=51)
            trace = run_clocked(cfg, ds)
            assert trace.S == 51
            for rec in trace.updates:
                for k, slots in rec.slots.items():
                    delay = 2 * (K - k)
                    for slot in slots:
                        checked += 1
                        t_b = M * rec.s + slot.j - delay
                        ok = slot.batch_index == t_b
                        if t_b < 0:
                            ok = ok and slot.skipped
                        else:
                            ok = ok and slot.version == effective_version(
                                rec.s, slot.j, K, k, M)
                            ok = ok and rec.s - slot.version == \
                                steady_staleness(K, k, M, slot.j)
                        mismatches += not ok
    dt = time.perf_counter() - t0
    print(f"\n[a01] {checked} slots checked, {mismatches} mismatches, "
          f"{dt:.2f} s")
    assert mismatches == 0
    assert dt < 5.0


def test_a02_group_staleness_patterns():
    group = tuple(steady_staleness(3, 2, 4, j) for j in range(4))
    assert group == (1, 1, 0, 0)
    cfg, ds = _ident_case(3, 4, S=10)
    trace = run_clocked(cfg, ds)
    for rec in trace.updates:
        if rec.s >= 2:
            assert tuple(rec.s - sl.version for sl in rec.slots[2]) == \
                (1, 1, 0, 0)
    cfg1, ds1 = _ident_case(3, 1, S=20)
    t1 = run_clocked(cfg1, ds1)
    for rec in t1.updates:
        if rec.s >= 6:
            for k in (1, 2, 3):
                assert rec.s - rec.slots[k][0].version == 2 * (3 - k)
                assert steady_staleness(3, k, 1, 0) == 2 * (3 - k)
    print("\n[a02] K=3,M=4,k=2 group = (1,1,0,0); M=1 delay = 2(K-k)")


def test_a03_averaged_staleness_reduction():
    values = [averaged_los(8, 1, M) for M in range(1, 9)]
    assert values[0] == Fraction(14)
    assert values[3] == Fraction(7, 2)
    assert all(a >= b for a, b in zip(values, values[1:]))
    reduction = 1 - values[3] / values[0]
    assert reduction == Fraction(3, 4)
    print(f"\n[a03] averaged staleness M=1..8: "
          f"{[str(v) for v in values]}; reduction at M=4 = {reduction}")


def test_a04_clocked_matches_delayed_replay():
    t0 = time.perf_counter()
    pairs = 0
    for K in (1, 2, 3, 6):
        for M in (1, 2, 4):
            for seed in (0, 1, 2):
                cfg, ds = _spiral_case(K, M, S=200, seed=seed,
                                       record_params=True)
                cfg2, _ = _spiral_case(K, M, S=200, seed=seed,
                                       record_params=True)
                _assert_equivalent(run_clocked(cfg, ds),
                                   delayed_replay(cfg2, ds))
                pairs += 1
    dt = time.perf_counter() - t0
    print(f"\n[a04] {pairs} run pairs bit-identical in {dt:.1f} s")
    assert dt < 120.0


def test_a05_k1_pipeline_reduces_to_sync_ga():
    for M in (1, 2, 4):
        for seed in (0, 1, 2):
            cfg, ds = _spiral_case(1, M, S=60, seed=seed,
                                   record_params=True)
            cfg2, _ = _spiral_case(1, M, S=60, seed=seed,
                                   record_params=True)
            _assert_equivalent(run_clocked(cfg, ds), sync_ga_sgd(cfg2, ds))
    print("\n[a05] K=1 pipeline == sync GA-SGD for M in (1,2,4), 3 seeds")


def test_a06_parallel_matches_clocked():
    for K in (2, 4):
        for M in (1, 4):
            for seed in (0, 1, 2):
                cfg, ds = _spiral_case(K, M, S=50, seed=seed,
                                       record_params=True,
                                       record_grads=True)
                cfg2, _ = _spiral_case(K, M, S=50, seed=seed,
                                       record_params=True,
                                       record_grads=True)
                _assert_equivalent(run_parallel(cfg, ds),
                                   run_clocked(cfg2, ds),
                                   check_grads=True)
    print("\n[a06] threaded == clocked for K in (2,4), M in (1,4), 3 seeds")


def test_a07_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(20):
        specs, states, x, loss, target = _random_net(seed)
        _, ctx = net_forward(specs, states, x, loss, target)
        analytic, _ = net_backward(specs, states, ctx)
        numeric = finite_diff_grad(specs, states, x, loss, target,
                                   step=1e-5)
        worst = max(worst, rel_error(analytic, numeric))
    print(f"\n[a07] 20 nets, worst relative error {worst:.3e}")
    assert worst < 1e-6


def _whitened_linreg(n, dim, seed):
    """Noiseless linear data with an orthonormalized, centered design so
    the quadratic's curvature is isotropic and its smoothness constant
    is exactly 2."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, dim))
    q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), g]))
    x = q[:, 1:] * np.sqrt(n)
    w_star = rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim)
    return Dataset(x, (x @ w_star)[:, None])


def test_a08_quadratic_reaches_critical_point():
    t0 = time.perf_counter()
    ds = _whitened_linreg(2048, 20, seed=100)
    xt = np.hstack([ds.inputs, np.ones((ds.n, 1))])
    L = 2.0 * float(np.linalg.eigvalsh(xt.T @ xt / ds.n)[-1])
    schedule = Harmonic(1.0 / L)
    assert L * lr_at(schedule, 0) <= 1.0 + 1e-12
    specs = [affine(20, 1), identity(1), identity(1), identity(1)]
    cfg = TrainConfig(specs, partition_even(4, 4), "mse", 4, 256, 5000,
                      schedule, seed=0, init_scale=0.05)
    trace = run_clocked(cfg, ds)
    assert not trace.diverged
    states = _load_flat(specs, trace.final_params)
    _, ctx = net_forward(specs, states, ds.inputs, "mse", ds.targets)
    grads, _ = net_backward(specs, states, ctx)
    gnorm = float(np.sqrt(sum(float(g @ g) for g in grads)))
    dt = time.perf_counter() - t0
    print(f"\n[a08] L={L:.6f}, full-data ||g|| after 5000 updates = "
          f"{gnorm:.3e}, {dt:.1f} s")
    assert gnorm < 1e-3
    assert dt < 60.0


def _deep_spiral_specs(h=32):
    specs = [affine(2, h), tanh(h)]
    for _ in range(3):
        specs += [affine(h, h), tanh(h)]
    return specs + [affine(h, 2)]


def _final_training_loss(specs, trace, ds):
    if trace.diverged:
        return float("inf")
    states = _load_flat(specs, trace.final_params)
    loss, _ = net_forward(specs, states, ds.inputs, "softmax_ce",
                          ds.targets)
    return float(loss)


def test_a09_ga_ablation_on_deep_pipeline():
    ds = gen_two_spirals(256, 0.0, 42)
    specs = _deep_spiral_specs(32)
    total_batches = 8192
    lr = ConstantLr(0.5)

    def run(K, M, runner, seed):
        cfg = TrainConfig(specs, partition_even(len(specs), K),
                          "softmax_ce", M, 16, total_batches // M, lr,
                          seed=seed, init_scale=1.5)
        trace = runner(cfg, ds)
        return _final_training_loss(specs, trace, ds), trace.diverged

    seeds = (0, 1, 2)
    sync = [run(1, 1, sync_ga_sgd, s)[0] for s in seeds]
    m1 = [run(8, 1, run_clocked, s) for s in seeds]
    m4 = [run(8, 4, run_clocked, s) for s in seeds]
    med_sync = float(np.median(sync))
    med1 = float(np.median([r[0] for r in m1]))
    med4 = float(np.median([r[0] for r in m4]))
    print(f"\n[a09] median losses: sync={med_sync:.4f} "
          f"M=1:{med1:.4f} M=4:{med4:.4f}")
    assert med_sync < 0.05          # the calibrated lr trains fine in sync
    assert med4 <= med1 or all(d for _, d in m1)


def test_a10_bound_calculators():
    assert theorem1_rhs(0.1, 4.0, A=1.0, L=1.0, M=2, dbar_sum=3.0) \
        == -0.1875
    assert theorem3_lr(1.0, 1.0, 4, A=1.0, L=1.0, M=1, dbar_sum=0.0) == 0.5
    assert theorem3_bound(1.0, 1.0, 4, A=1.0, L=1.0, M=1,
                          dbar_sum=0.0) == 2.0
    lrs = 0.08 / (np.arange(1_000_000, dtype=np.float64) + 1.0)
    bound = theorem2_rhs(lrs, gap=0.01, A=1.0, L=1.0, M=1, dbar_sum=0.0)
    print(f"\n[a10] hand values exact; harmonic bound at S=1e6: "
          f"{bound:.4f}")
    assert bound < 0.05


def test_a11_parallel_speedup_on_multicore():
    cores = os.cpu_count() or 1
    machine = (f"{platform.platform()}, {cores} cores, "
               f"python {platform.python_version()}")
    if cores < 4:
        pytest.skip("throughput comparison needs >= 4 cores; "
                    f"machine: {machine}")
    width, n = 256, 512
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n, width))
    y = np.tanh(x @ rng.normal(size=(width, width)) / np.sqrt(width))
    ds = Dataset(x, y)
    specs = []
    for _ in range(4):
        specs += [affine(width, width), relu(width)]
    cfg = TrainConfig(specs, partition_even(8, 4), "mse", 1, 64, 40,
                      ConstantLr(1e-4), seed=0, init_scale=0.5)
    cfg2 = TrainConfig(specs, partition_even(8, 4), "mse", 1, 64, 40,
                       ConstantLr(1e-4), seed=0, init_scale=0.5)
    clocked = run_clocked(cfg, ds)
    parallel = run_parallel(cfg2, ds)
    speedup = clocked.wall_time / parallel.wall_time
    print(f"\n[a11] machine: {machine}; speedup = {speedup:.2f}x")
    assert speedup >= 1.5
