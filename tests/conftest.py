import warnings

import numpy as np
import pytest

from adl import data, net
from adl.optimizer import ConstantLr, SgdConfig
from adl.partition import partition_even
from adl.scheduler import TrainConfig

# hypothesis's pytest plugin imports this module to report a failing
# example; libcst, which it imports, touches the deprecated
# mypy_extensions.TypedDict, and under -W error that warning would end
# the report in an INTERNALERROR with no falsifying example.  Importing it
# here, with only that warning ignored, leaves the report to print.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch too
        pass


def _random_net(seed):
    """Small random net + batch + loss for gradient checking.

    Mixes affine layers with tanh/relu/identity nonlinearities and
    alternates MSE / softmax-CE by seed parity.  Everything is drawn
    from a generator keyed by the seed, so a given seed is one fixed,
    reproducible test case.
    """
    rng = np.random.default_rng(seed)
    loss = net.MSE if seed % 2 == 0 else net.SOFTMAX_CE
    n_affine = int(rng.integers(1, 4))
    dims = [int(d) for d in rng.integers(1, 6, size=n_affine + 1)]
    if loss == net.SOFTMAX_CE and dims[-1] < 2:
        dims[-1] = 2
    specs = []
    for i in range(n_affine):
        specs.append(net.affine(dims[i], dims[i + 1]))
        if i < n_affine - 1:
            kind = (net.TANH, net.RELU, net.IDENTITY)[int(rng.integers(0, 3))]
            specs.append(net.LayerSpec(kind, dims[i + 1], dims[i + 1]))
    params = [s.params for s in
              net.init_states(specs, seed=seed + 1000, scale=1.2)]
    batch = int(rng.integers(1, 5))
    x = rng.normal(size=(batch, dims[0]))
    if loss == net.MSE:
        target = rng.normal(size=(batch, dims[-1]))
    else:
        target = rng.integers(0, dims[-1], size=batch)
    return specs, params, x, loss, target


@pytest.fixture
def random_net():
    return _random_net


def rel_error(analytic, reference):
    """max over layers of ||a - r||_inf / max(||r||_inf, 1e-8)."""
    worst = 0.0
    for a, r in zip(analytic, reference):
        if r.size == 0:
            continue
        denom = max(float(np.max(np.abs(r))), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - r))) / denom)
    return worst


@pytest.fixture
def grad_rel_error():
    return rel_error


def finite_diff_grad(specs, params, x, loss_kind, target, step=1e-6):
    """Central-difference gradient of the loss w.r.t. every parameter.

    Independent of the analytic backward pass; O(param_count) forward
    evaluations, so only for small networks.
    """
    grads = []
    for li, p in enumerate(params):
        g = np.zeros_like(p)
        for pi in range(p.size):
            hi, lo = list(params), list(params)
            hi[li], lo[li] = p.copy(), p.copy()
            hi[li][pi] += step
            lo[li][pi] -= step
            f_hi, _ = net.net_forward(specs, hi, x, loss_kind, target)
            f_lo, _ = net.net_forward(specs, lo, x, loss_kind, target)
            g[pi] = (f_hi - f_lo) / (2.0 * step)
        grads.append(g)
    return grads


@pytest.fixture
def finite_diff():
    return finite_diff_grad


def spiral_specs(hidden=8):
    """The 6-layer tanh classifier used across the pipeline tests."""
    return [net.affine(2, hidden), net.tanh(hidden),
            net.affine(hidden, hidden), net.tanh(hidden),
            net.affine(hidden, hidden), net.affine(hidden, 2)]


def _spiral_case(K, M, S, seed=0, hidden=8, n=256, batch=16, lr=0.05,
                 sgd=None, **cfg_kw):
    specs = spiral_specs(hidden)
    cfg = TrainConfig(specs, partition_even(len(specs), K), net.SOFTMAX_CE,
                      M, batch, S, ConstantLr(lr), sgd or SgdConfig(),
                      seed=seed, **cfg_kw)
    ds = data.gen_two_spirals(n, 0.0, seed=seed + 100)
    return cfg, ds


def _ident_case(K, M, S, seed=0, **cfg_kw):
    """Parameter-free K-module pipeline on scalar data: the cheapest way
    to exercise scheduling/provenance without numerics in the way."""
    specs = [net.identity(1) for _ in range(K)]
    cfg = TrainConfig(specs, partition_even(K, K), net.MSE, M, 2, S,
                      ConstantLr(0.05), SgdConfig(), seed=seed, **cfg_kw)
    ds = data.gen_linreg(16, 1, 0.0, seed=seed + 7)
    return cfg, ds


@pytest.fixture
def spiral_case():
    return _spiral_case


@pytest.fixture
def ident_case():
    return _ident_case
