"""Synthetic datasets and the counter-based batch sampler."""
import sys
import threading

import numpy as np
import pytest

from adl import data
from adl import net
from adl.errors import ConfigError, DomainError
from adl.optimizer import Accumulator, ConstantLr, SgdConfig, ga_update


def test_linreg_is_realizable_at_zero_noise():
    ds = data.gen_linreg(256, 5, 0.0, seed=3)
    # least squares on [X, 1] must reach (numerically) zero residual
    X = np.hstack([ds.inputs, np.ones((ds.n, 1))])
    theta, *_ = np.linalg.lstsq(X, ds.targets, rcond=None)
    resid = X @ theta - ds.targets
    assert float(np.max(np.abs(resid))) < 1e-9


def test_dataset_regeneration_is_bit_identical():
    for make in (lambda s: data.gen_linreg(64, 3, 0.1, s),
                 lambda s: data.gen_two_spirals(64, 0.05, s)):
        a, b = make(9), make(9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)


def test_linreg_noise_floor():
    noise = 0.3
    ds = data.gen_linreg(20000, 4, noise, seed=5)
    X = np.hstack([ds.inputs, np.ones((ds.n, 1))])
    theta, *_ = np.linalg.lstsq(X, ds.targets, rcond=None)
    mse = float(np.mean(np.sum((X @ theta - ds.targets) ** 2, axis=1)))
    assert mse == pytest.approx(noise ** 2, rel=0.1)
    assert mse > 0.8 * noise ** 2  # irreducible part cannot be fit away


def test_two_spirals_shape_and_balance():
    ds = data.gen_two_spirals(400, 0.0, seed=1)
    assert ds.inputs.shape == (400, 2)
    assert ds.targets.shape == (400,) and ds.targets.dtype.kind == "i"
    counts = np.bincount(ds.targets, minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_two_spirals_classes_interleave():
    # the two arms share the radius range but differ in angle; a linear
    # probe should do poorly while radius+angle features separate them
    ds = data.gen_two_spirals(800, 0.0, seed=2)
    r = np.linalg.norm(ds.inputs, axis=1)
    assert r.min() > 0.1 and r.max() < 2.3
    # same radial band for both classes
    assert abs(r[ds.targets == 0].mean() - r[ds.targets == 1].mean()) < 0.2


def test_batch_is_pure_function_of_seed_and_counter():
    a = data.batch_indices(7, 123, n=50, batch_size=16)
    b = data.batch_indices(7, 123, n=50, batch_size=16)
    np.testing.assert_array_equal(a, b)
    c = data.batch_indices(7, 124, n=50, batch_size=16)
    assert not np.array_equal(a, c)
    # out-of-order materialization matches in-order
    later = data.batch_indices(7, 10 ** 6, n=50, batch_size=16)
    np.testing.assert_array_equal(
        later, data.batch_indices(7, 10 ** 6, n=50, batch_size=16))


def _fresh_philox(seed, t, n, size):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).integers(
        0, n, size=size)


@pytest.mark.parametrize("seed", [0, 11, -3])
def test_batch_indices_equal_a_fresh_philox_per_batch(seed):
    for t in range(1000):
        np.testing.assert_array_equal(data.batch_indices(seed, t, 50, 16),
                                      _fresh_philox(seed, t, 50, 16))


@pytest.mark.parametrize("kind,seed", [
    (np.int64, 3), (np.uint64, 3), (np.int64, -3), (np.int64, 2 ** 63 - 1),
    (np.uint64, 2 ** 64 - 1)])
def test_numpy_integer_seeds_draw_the_python_int_batches(kind, seed):
    ds = data.gen_linreg(32, 3, 0.0, seed=4)
    for t in (0, 5):
        got = data.sample_batch(ds, 4, kind(seed), t)
        want = data.sample_batch(ds, 4, seed, t)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


def test_batch_indices_are_pure_across_threads():
    # threads drawing at once, switched often, must not share one
    # generator's state
    def draw(seed, out):
        out.extend(data.batch_indices(seed, t, 97, 5) for t in range(1000))

    results = {seed: [] for seed in range(1, 5)}
    threads = [threading.Thread(target=draw, args=(s, results[s]))
               for s in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for seed, got in results.items():
        assert len(got) == 1000
        for t, idx in enumerate(got):
            np.testing.assert_array_equal(idx, _fresh_philox(seed, t, 97, 5))


def test_batch_larger_than_dataset_allowed():
    idx = data.batch_indices(0, 0, n=3, batch_size=64)
    assert idx.shape == (64,)
    assert set(np.unique(idx)) <= {0, 1, 2}


@pytest.mark.parametrize("n,dim", [(0, 3), (4, 0)])
def test_linreg_rejects_an_empty_shape(n, dim):
    with pytest.raises(ConfigError, match="linreg needs n >= 1 and dim >= 1"):
        data.gen_linreg(n, dim, 0.0, seed=0)


def test_two_spirals_need_two_points():
    with pytest.raises(ConfigError, match="two_spirals needs n >= 2"):
        data.gen_two_spirals(1, 0.0, seed=0)


def test_batch_indices_validation():
    with pytest.raises(DomainError, match="batch index must be >= 0, got -1"):
        data.batch_indices(0, -1, 4, 2)
    for n, batch_size in ((0, 2), (4, 0)):
        with pytest.raises(DomainError,
                           match="need n >= 1 and batch_size >= 1"):
            data.batch_indices(0, 0, n, batch_size)


def test_sample_batch_slices_dataset():
    ds = data.gen_linreg(32, 3, 0.0, seed=4)
    x, y = data.sample_batch(ds, 8, sampler_seed=11, t=5)
    idx = data.batch_indices(11, 5, 32, 8)
    np.testing.assert_array_equal(x, ds.inputs[idx])
    np.testing.assert_array_equal(y, ds.targets[idx])


def test_sampler_uniformity_chi_square():
    # 10^6 draws over 16 cells: chi-square within 3 sigma of its mean
    n, draws = 16, 10 ** 6
    per_batch = 1000
    counts = np.zeros(n)
    for t in range(draws // per_batch):
        idx = data.batch_indices(99, t, n, per_batch)
        counts += np.bincount(idx, minlength=n)
    expected = draws / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = n - 1
    assert abs(chi2 - dof) < 3.0 * np.sqrt(2.0 * dof)


def test_four_layer_tanh_net_masters_noiseless_spirals():
    # reference calibration: a 4-affine tanh classifier trained with the
    # synchronous runner separates the clean spirals almost perfectly
    from adl.oracle import sync_ga_sgd
    from adl.partition import partition_even
    from adl.scheduler import TrainConfig

    ds = data.gen_two_spirals(512, 0.0, seed=7)
    specs = [net.affine(2, 16), net.tanh(16), net.affine(16, 16),
             net.tanh(16), net.affine(16, 16), net.tanh(16),
             net.affine(16, 2)]
    cfg = TrainConfig(specs, partition_even(7, 1), net.SOFTMAX_CE, 1, 32,
                      6000, ConstantLr(1.0), seed=0, init_scale=1.0)
    trace = sync_ga_sgd(cfg, ds)
    states = np.split(trace.final_params,
                      np.cumsum([s.param_count for s in specs])[:-1])
    _, ctx = net.net_forward(specs, states, ds.inputs, net.SOFTMAX_CE,
                             ds.targets)
    accuracy = float(np.mean(np.argmax(ctx.output, axis=1) == ds.targets))
    assert accuracy > 0.95


def test_linear_fit_with_plain_sgd_reaches_noise_free_optimum():
    # sanity: the pieces assemble into a working least-squares solver
    ds = data.gen_linreg(512, 3, 0.0, seed=8)
    spec = net.affine(3, 1)
    states = net.init_states([spec], seed=0, scale=0.5)
    params = [states[0].params]
    vel = None
    for t in range(400):
        x, y = data.sample_batch(ds, 32, sampler_seed=1, t=t)
        _, ctx = net.net_forward([spec], params, x, net.MSE, y)
        grads, _ = net.net_backward([spec], params, ctx)
        acc = Accumulator([spec.param_count], 1, t)
        acc.add(grads, t, t)
        params, vel = ga_update(params, acc.average(), 0.1, SgdConfig(),
                                vel)
    loss, _ = net.net_forward([spec], params, ds.inputs, net.MSE,
                              ds.targets)
    assert loss < 1e-6
