"""Forward/backward correctness of the dense-network primitives."""
import weakref

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
    pg, xg = net.layer_backward(spec, state if input_grad else None, inter,
                                gout)
    want = np.concatenate([(gout.T @ x).ravel(), gout.sum(axis=0)])
    assert pg.shape == want.shape and pg.tobytes() == want.tobytes()
    if input_grad:
        assert xg.tobytes() == (gout @ w).tobytes()
    else:
        assert xg is None


@pytest.mark.parametrize("batch,n_in,n_out", [(1, 1, 1), (5, 3, 4),
                                              (64, 256, 256)])
def test_an_affine_backward_without_input_gradient_reads_no_params(
        batch, n_in, n_out):
    # the stash keeps None for a layer whose input gradient has no reader:
    # the parameter gradient does not depend on the weights, bit for bit
    spec = net.affine(n_in, n_out)
    state = net.init_states([spec], seed=6)[0].params
    rng = np.random.default_rng(7)
    x = rng.normal(size=(batch, n_in))
    gout = rng.normal(size=(batch, n_out))
    pg, xg = net.layer_backward(spec, None, x, gout)
    assert xg is None
    for input_grad in (True, False):
        want, _ = net.layer_backward(spec, state if input_grad else None, x,
                                     gout)
        assert pg.shape == want.shape and pg.tobytes() == want.tobytes()


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
    _, ctx = net.net_forward(specs, states, x, loss, target)  # consumed
    grads, xgrad = net.net_backward(
        specs, net.first_module_params(specs, states), ctx)
    assert xgrad is None  # layer 0 of every random net is affine
    for a, b in zip(grads, full):
        np.testing.assert_array_equal(a, b)


def test_net_backward_frees_each_intermediate_after_its_last_reader(
        monkeypatch):
    # a tanh keeps its output, which the identity and affine layers above
    # it keep as their input: one array, read last by the tanh's backward
    specs = [net.affine(3, 4), net.tanh(4), net.identity(4), net.affine(4, 4),
             net.relu(4), net.affine(4, 2)]
    params = [st.params for st in net.init_states(specs, seed=1)]
    rng = np.random.default_rng(2)
    _, ctx = net.net_forward(specs, params, rng.normal(size=(5, 3)), net.MSE,
                             rng.normal(size=(5, 2)))
    # each intermediate with the lowest layer that reads it
    ids = [id(a) for a in ctx.intermediates]
    refs = [(weakref.ref(a), ids.index(id(a))) for a in ctx.intermediates]
    backward, entered, early = net.layer_backward, [], []

    def watched(spec, p, inter, gout):
        i = len(specs) - 1 - len(entered)  # every layer above i has run
        entered.append(i)
        early.extend(j for ref, j in refs if j > i and ref() is not None)
        return backward(spec, p, inter, gout)

    monkeypatch.setattr(net, "layer_backward", watched)
    net.net_backward(specs, params, ctx)
    assert entered == [5, 4, 3, 2, 1, 0]
    assert early == []
    assert ctx.intermediates == []  # consumed
    assert all(ref() is None for ref, _ in refs)


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


def test_layer_spec_validation():
    with pytest.raises(DimensionError, match="unknown layer kind 'conv'"):
        net.LayerSpec("conv", 2, 2)
    for dims in ((0, 2), (2, 0)):
        with pytest.raises(DimensionError,
                           match="layer dimensions must be positive"):
            net.LayerSpec(net.AFFINE, *dims)


def test_loss_validation():
    pred = np.zeros((2, 3))
    with pytest.raises(DimensionError, match=r"mse target shape \(2, 4\) "
                                             r"!= prediction \(2, 3\)"):
        net.loss_and_grad(net.MSE, pred, np.zeros((2, 4)))
    with pytest.raises(DimensionError, match="softmax_ce labels must be one "
                                             "per batch row"):
        net.loss_and_grad(net.SOFTMAX_CE, pred, np.array([0, 1, 2]))
    with pytest.raises(DimensionError, match="unknown loss kind 'hinge'"):
        net.loss_and_grad("hinge", pred, np.array([0, 1]))


def test_loss_rejects_an_empty_batch():
    # a mean over no rows divides by zero: rejected before any reduction
    for kind, target in ((net.MSE, np.zeros((0, 2))),
                         (net.SOFTMAX_CE, np.zeros(0, dtype=np.int64))):
        with pytest.raises(DimensionError, match=r"batch >= 1.*\(0, 2\)"):
            net.loss_and_grad(kind, np.zeros((0, 2)), target)


def ndarray_method_loss(kind, pred, target):
    """loss_and_grad written with the ndarray methods: .max and .sum for
    the reductions, and the loss divided as a numpy scalar."""
    batch = pred.shape[0]
    if kind == net.MSE:
        r = pred - target
        return float((r * r).sum() / batch), (2.0 / batch) * r
    z = pred - pred.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(batch)
    loss = float((lse - z[rows, target]).sum() / batch)
    p = np.exp(z - lse[:, None])
    p[rows, target] -= 1.0
    return loss, p / batch


SPECIAL_PREDICTIONS = {
    "tied": [[1.0, 1.0, 1.0], [0.5, 0.5, -2.0]],
    "signed zeros": [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]],
    "near +-1e300": [[1e300, -1e300, 0.0], [-1e300, -1e300, -1e300],
                     [1e300, 1e300, -1e300]],
    "a nan row": [[np.nan, 1.0, 2.0], [0.0, 1.0, -1.0]],
    "an inf row": [[np.inf, 1.0, -np.inf], [0.0, 3.0, -1.0]],
    "one row": [[0.3, -1.2, 2.5]],
    # x / 5 != x * (1 / 5) for the softmax_ce loss of the first and the mse
    # loss of the second: a loss scaled by the reciprocal fails
    "five rows": np.random.default_rng(0).normal(size=(5, 3)),
    "five other rows": np.random.default_rng(1).normal(size=(5, 3)),
}


@pytest.mark.parametrize("kind", [net.SOFTMAX_CE, net.MSE])
@pytest.mark.parametrize("case", sorted(SPECIAL_PREDICTIONS))
def test_loss_bits_match_the_ndarray_method_formula(kind, case):
    # the loss reduces through the ufuncs' own reduce and divides as a
    # float: the same bits as the ndarray methods, special values included
    pred = np.array(SPECIAL_PREDICTIONS[case])
    batch, out = pred.shape
    target = np.roll(pred, 1, axis=1) if kind == net.MSE else \
        np.arange(batch) * 2 % out
    with np.errstate(all="ignore"):
        loss, grad = net.loss_and_grad(kind, pred, target)
        want_loss, want_grad = ndarray_method_loss(kind, pred, target)
    assert np.float64(loss).view(np.uint64) == \
        np.float64(want_loss).view(np.uint64)
    np.testing.assert_array_equal(grad.view(np.uint64),
                                  want_grad.view(np.uint64))


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
