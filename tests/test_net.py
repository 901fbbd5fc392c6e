"""Forward/backward correctness of the dense-network primitives."""
import numpy as np
import pytest

from adl import net
from adl.errors import DimensionError


def test_affine_forward_scalar():
    spec = net.affine(1, 1)
    state = np.array([2.0, 0.0])
    y, _ = net.layer_forward(spec, state, np.array([[3.0]]))
    np.testing.assert_array_equal(y, [[6.0]])


def test_relu_forward():
    spec = net.relu(2)
    y, _ = net.layer_forward(spec, np.zeros(spec.param_count),
                             np.array([[-1.0, 2.0]]))
    np.testing.assert_array_equal(y, [[0.0, 2.0]])


def test_affine_forward_dot_plus_bias():
    spec = net.affine(2, 1)
    state = np.array([1.0, 1.0, 1.0])
    y, _ = net.layer_forward(spec, state, np.array([[2.0, 3.0]]))
    np.testing.assert_array_equal(y, [[6.0]])


def test_affine_backward_example():
    # d(wx+b)/dw = x, d/db = 1, d/dx = w
    spec = net.affine(1, 1)
    state = np.array([2.0, 0.0])
    _, inter = net.layer_forward(spec, state, np.array([[3.0]]))
    pgrad, xgrad = net.layer_backward(spec, state, inter, np.array([[1.0]]))
    np.testing.assert_array_equal(pgrad, [3.0, 1.0])  # [dW, db]
    np.testing.assert_array_equal(xgrad, [[2.0]])


def test_relu_backward_dead_unit():
    spec = net.relu(1)
    state = np.zeros(spec.param_count)
    _, inter = net.layer_forward(spec, state, np.array([[-1.0]]))
    _, xgrad = net.layer_backward(spec, state, inter, np.array([[5.0]]))
    np.testing.assert_array_equal(xgrad, [[0.0]])


def test_relu_derivative_at_zero_is_zero():
    spec = net.relu(1)
    state = np.zeros(spec.param_count)
    _, inter = net.layer_forward(spec, state, np.array([[0.0]]))
    _, xgrad = net.layer_backward(spec, state, inter, np.array([[7.0]]))
    np.testing.assert_array_equal(xgrad, [[0.0]])


def test_relu_keeps_its_output_for_the_backward():
    # the output is positive exactly where the input is, -0.0 and NaN
    # included, so the backward reads it in place of the input
    spec = net.relu(5)
    state = np.zeros(spec.param_count)
    y, inter = net.layer_forward(spec, state,
                                 np.array([[-1.0, -0.0, 0.0, 2.0, np.nan]]))
    assert inter is y
    _, xgrad = net.layer_backward(spec, state, inter, np.full((1, 5), 3.0))
    np.testing.assert_array_equal(xgrad, [[0.0, 0.0, 0.0, 3.0, 0.0]])


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("batch,n_in,n_out", [(1, 1, 1), (5, 3, 4),
                                              (64, 256, 256), (64, 256, 1)])
def test_affine_kernels_match_the_plain_expressions(batch, n_in, n_out,
                                                    input_grad):
    # bit for bit: the forward against x @ w.T + b, the packed gradient
    # against the concatenation of gout.T @ x and the bias sum
    spec = net.affine(n_in, n_out)
    state = net.init_states([spec], seed=3)[0].params
    w, b = state[:n_out * n_in].reshape(n_out, n_in), state[n_out * n_in:]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(batch, n_in))
    gout = rng.normal(size=(batch, n_out))
    y, inter = net.layer_forward(spec, state, x)
    assert y.tobytes() == (x @ w.T + b).tobytes()
    pg, xg = net.layer_backward(spec, state, inter, gout, input_grad)
    want = np.concatenate([(gout.T @ x).ravel(), gout.sum(axis=0)])
    assert pg.shape == want.shape and pg.tobytes() == want.tobytes()
    if input_grad:
        assert xg.tobytes() == (gout @ w).tobytes()
    else:
        assert xg is None


def test_identity_net_zero_loss():
    specs = [net.identity(3)]
    states = [np.zeros(specs[0].param_count)]
    x = np.array([[0.5, -1.0, 2.0]])
    loss, _ = net.net_forward(specs, states, x, net.MSE, x)
    assert loss == 0.0


def test_mse_example_loss_four():
    # one affine layer w=1, b=0: prediction 1, target 3, loss (1-3)^2
    specs = [net.affine(1, 1)]
    states = [np.array([1.0, 0.0])]
    loss, _ = net.net_forward(specs, states, np.array([[1.0]]), net.MSE,
                              np.array([[3.0]]))
    assert loss == 4.0


@pytest.mark.parametrize("n_classes", [2, 5, 10])
def test_softmax_uniform_logits(n_classes):
    logits = np.zeros((1, n_classes))
    loss, _ = net.loss_and_grad(net.SOFTMAX_CE, logits, np.array([0]))
    assert loss == pytest.approx(np.log(n_classes), rel=1e-15)
    batch_logits = np.zeros((4, n_classes))
    labels = np.arange(4) % n_classes
    loss_b, _ = net.loss_and_grad(net.SOFTMAX_CE, batch_logits, labels)
    assert loss_b == pytest.approx(np.log(n_classes), rel=1e-15)


def test_halved_objective_gradient():
    # For (1/2)*(wx - y)^2 with w=1, x=1, y=3 the weight gradient is
    # (wx-y)*x = -2; our loss is the unhalved square, so scale by 1/2.
    specs = [net.affine(1, 1)]
    states = [np.array([1.0, 0.0])]
    _, ctx = net.net_forward(specs, states, np.array([[1.0]]), net.MSE,
                             np.array([[3.0]]))
    grads, _ = net.net_backward(specs, states, ctx)
    np.testing.assert_array_equal(0.5 * grads[0], [-2.0, -2.0])


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("kind", [net.AFFINE, net.TANH, net.RELU,
                                  net.IDENTITY])
def test_backward_linear_in_upstream(kind, alpha):
    # scaling the upstream gradient by a power of two scales both
    # outputs exactly
    spec = net.affine(3, 3) if kind == net.AFFINE else net.LayerSpec(kind, 3, 3)
    state = net.init_states([spec], seed=5)[0].params
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3))
    gout = rng.normal(size=(2, 3))
    _, inter = net.layer_forward(spec, state, x)
    pg, xg = net.layer_backward(spec, state, inter, gout)
    pg2, xg2 = net.layer_backward(spec, state, inter, alpha * gout)
    np.testing.assert_array_equal(pg2, alpha * pg)
    np.testing.assert_array_equal(xg2, alpha * xg)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_net_backward_matches_finite_differences(seed, random_net,
                                                 grad_rel_error, finite_diff):
    specs, states, x, loss, target = random_net(seed)
    _, ctx = net.net_forward(specs, states, x, loss, target)
    analytic, _ = net.net_backward(specs, states, ctx)
    numeric = finite_diff(specs, states, x, loss, target, step=1e-5)
    assert grad_rel_error(analytic, numeric) < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_net_backward_can_skip_the_input_gradient(seed, random_net):
    specs, states, x, loss, target = random_net(seed)
    _, ctx = net.net_forward(specs, states, x, loss, target)
    full, _ = net.net_backward(specs, states, ctx)
    grads, xgrad = net.net_backward(specs, states, ctx, False)
    assert xgrad is None  # layer 0 of every random net is affine
    for a, b in zip(grads, full):
        np.testing.assert_array_equal(a, b)


def test_input_gradient_matches_finite_differences():
    spec = net.affine(3, 2)
    state = net.init_states([spec], seed=3)[0].params
    target = np.array([[0.3, -0.2]])
    x = np.array([[0.1, 0.5, -0.4]])
    _, ctx = net.net_forward([spec], [state], x, net.MSE, target)
    _, xgrad = net.net_backward([spec], [state], ctx)
    step = 1e-5
    numeric = np.zeros_like(x)
    for i in range(x.shape[1]):
        hi, lo = x.copy(), x.copy()
        hi[0, i] += step
        lo[0, i] -= step
        f_hi, _ = net.net_forward([spec], [state], hi, net.MSE, target)
        f_lo, _ = net.net_forward([spec], [state], lo, net.MSE, target)
        numeric[0, i] = (f_hi - f_lo) / (2 * step)
    np.testing.assert_allclose(xgrad, numeric, rtol=1e-6, atol=1e-9)


def test_linear_net_analytic_gradient():
    # single affine + MSE has the closed form dW = (2/n) r^T X, db = (2/n) sum r
    rng = np.random.default_rng(11)
    spec = net.affine(4, 2)
    state = net.init_states([spec], seed=12)[0].params
    x = rng.normal(size=(8, 4))
    target = rng.normal(size=(8, 2))
    _, ctx = net.net_forward([spec], [state], x, net.MSE, target)
    grads, _ = net.net_backward([spec], [state], ctx)
    w = state[:8].reshape(2, 4)
    r = x @ w.T + state[8:] - target
    dw = (2.0 / 8) * (r.T @ x)
    db = (2.0 / 8) * r.sum(axis=0)
    np.testing.assert_allclose(grads[0],
                               np.concatenate([dw.ravel(), db]),
                               rtol=1e-9, atol=1e-12)


def test_forward_is_deterministic(random_net):
    specs, states, x, loss, target = random_net(6)
    a, _ = net.net_forward(specs, states, x, loss, target)
    b, _ = net.net_forward(specs, states, x, loss, target)
    assert a == b  # bit-identical


def test_zero_residual_gives_zero_grads():
    spec = net.affine(2, 2)
    state = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    _, ctx = net.net_forward([spec], [state], x, net.MSE, x)
    grads, _ = net.net_backward([spec], [state], ctx)
    np.testing.assert_array_equal(grads[0], np.zeros(6))


def test_finite_diff_on_parameterless_net(finite_diff):
    specs = [net.identity(2), net.relu(2)]
    states = [np.zeros(s.param_count) for s in specs]
    grads = finite_diff(specs, states, np.array([[1.0, -1.0]]),
                        net.MSE, np.array([[0.0, 0.0]]))
    assert all(g.size == 0 for g in grads)


def test_init_states_reproducible():
    specs = [net.affine(3, 4), net.tanh(4), net.affine(4, 2)]
    a = net.init_states(specs, seed=42, scale=0.7)
    b = net.init_states(specs, seed=42, scale=0.7)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.params, sb.params)
    np.testing.assert_array_equal(a[0].params[12:], np.zeros(4))  # biases
    assert a[1].params.size == 0


def test_dimension_validation():
    spec = net.affine(2, 3)
    state = np.zeros(spec.param_count)
    with pytest.raises(DimensionError):
        net.layer_forward(spec, state, np.zeros((1, 5)))
    with pytest.raises(DimensionError):
        net.loss_and_grad(net.MSE, np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        net.loss_and_grad(net.SOFTMAX_CE, np.zeros((2, 3)),
                          np.array([0.5, 1.5]))
    with pytest.raises(DimensionError):
        net.tanh(3) and net.LayerSpec(net.TANH, 3, 4)


@pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
def test_layers_take_only_batches(shape):
    # a single sample is a one-row batch; no other shape is accepted
    for spec in (net.affine(2, 3), net.tanh(2), net.relu(2), net.identity(2)):
        with pytest.raises(DimensionError, match="batch"):
            net.layer_forward(spec, np.zeros(spec.param_count),
                              np.zeros(shape))
    with pytest.raises(DimensionError, match="batch"):
        net.loss_and_grad(net.MSE, np.zeros(shape), np.zeros(shape))
    with pytest.raises(DimensionError, match="batch"):
        net.loss_and_grad(net.SOFTMAX_CE, np.zeros(shape), np.array([0]))


def test_parameterless_layers_share_one_read_only_gradient():
    x = np.array([[1.0, -2.0]])
    grads = [net.layer_backward(spec, np.zeros(spec.param_count), x, x)[0]
             for spec in (net.tanh(2), net.relu(2), net.identity(2))]
    assert all(g is grads[0] and g.size == 0 for g in grads)
    assert not grads[0].flags.writeable


def test_affine_packing_order():
    spec = net.affine(2, 2)
    # weight (out_dim, in_dim) row-major, then bias: the layer reads
    # column i of the weight for input unit i
    w, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0])
    state = np.concatenate([w.ravel(), b])
    np.testing.assert_array_equal(state, [1, 2, 3, 4, 5, 6])
    y, _ = net.layer_forward(spec, state, np.eye(2))
    np.testing.assert_array_equal(y, [[6, 9], [7, 10]])
