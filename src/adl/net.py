"""Dense feedforward networks with explicit forward/backward passes.

All tensors are float64 numpy arrays.  A network is a list of LayerSpec
plus a parallel list of flat parameter vectors, one per layer (empty
for a parameterless layer); init_states wraps each in a LayerState.
Affine parameters are packed weight-then-bias: W.ravel() (row-major,
shape (out_dim, in_dim)) followed by the bias (out_dim,).

Inputs are batches of shape (batch, in_dim).  Loss values and loss
gradients are means over the batch rows, so gradient sums over a batch
carry a 1/batch factor.  A NetContext keeps the loss gradient of its
forward pass, so the backward pass starts from it.  An affine layer keeps
its input for the backward, tanh and relu their output (relu's is > 0
exactly where its input is).

Everything here is deterministic: fixed loop order, no reassociating
reductions, so repeated evaluation of the same inputs is bit-identical.
The affine products call ndarray.dot, which reaches the BLAS routine the
@ operator reaches without the ufunc dispatch.  The two differ only for
two 1x1 operands, whose product dot forms directly, keeping the sign of
a zero product that @'s BLAS call writes as +0.0; no trace sees it, as
a gradient enters its sums as 0.0 + g and no loss reads that sign.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

AFFINE = "affine"
TANH = "tanh"
RELU = "relu"
IDENTITY = "identity"
LAYER_KINDS = (AFFINE, TANH, RELU, IDENTITY)

MSE = "mse"
SOFTMAX_CE = "softmax_ce"
LOSS_KINDS = (MSE, SOFTMAX_CE)


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    # derived from the three above when built: the weight count
    # out_dim * in_dim and the parameter count, weights plus biases (both
    # 0 for a parameterless layer)
    weight_count: int = field(init=False, repr=False, compare=False)
    param_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DimensionError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise DimensionError("layer dimensions must be positive")
        if self.kind != AFFINE and self.in_dim != self.out_dim:
            raise DimensionError(f"{self.kind} layer must preserve dimension")
        nw = self.out_dim * self.in_dim if self.kind == AFFINE else 0
        object.__setattr__(self, "weight_count", nw)
        object.__setattr__(self, "param_count",
                           nw + self.out_dim if nw else 0)


def affine(in_dim: int, out_dim: int) -> LayerSpec:
    return LayerSpec(AFFINE, in_dim, out_dim)


def tanh(dim: int) -> LayerSpec:
    return LayerSpec(TANH, dim, dim)


def relu(dim: int) -> LayerSpec:
    return LayerSpec(RELU, dim, dim)


def identity(dim: int) -> LayerSpec:
    return LayerSpec(IDENTITY, dim, dim)


# Flat float64 parameter vector for one layer (empty if parameterless).
LayerState = namedtuple("LayerState", "params")


def init_states(specs, seed: int, scale: float = 1.0) -> list:
    """Deterministic parameter init: affine weights ~ N(0, (scale/sqrt(in_dim))^2),
    biases zero.  Same (specs, seed, scale) always yields identical states."""
    rng = np.random.default_rng(seed)
    states = []
    for spec in specs:
        if spec.kind == AFFINE:
            w = rng.normal(0.0, scale / np.sqrt(spec.in_dim),
                           size=(spec.out_dim, spec.in_dim))
            b = np.zeros(spec.out_dim)
            states.append(LayerState(np.concatenate([w.ravel(), b])))
        else:
            states.append(LayerState(np.zeros(0)))
    return states


# the parameter gradient of every parameterless layer, shared
_NO_GRAD = np.zeros(0)
_NO_GRAD.flags.writeable = False


def _weights(spec: LayerSpec, params: np.ndarray):
    """The (out_dim, in_dim) weight matrix at the head of affine params."""
    return params[:spec.weight_count].reshape(spec.out_dim, spec.in_dim)


def layer_forward(spec: LayerSpec, params: np.ndarray, x: np.ndarray):
    """Return (output, intermediate).  The intermediate is whatever the
    backward pass needs so forward never has to be re-run."""
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise DimensionError(
            f"{spec.kind} expects a batch of shape (batch, {spec.in_dim}), "
            f"got shape {x.shape}")
    kind = spec.kind
    if kind == AFFINE:
        y = x.dot(_weights(spec, params).T)
        y += params[spec.weight_count:]
        return y, x
    if kind == TANH:
        y = np.tanh(x)
        return y, y
    if kind == RELU:
        y = np.maximum(x, 0.0)
        return y, y
    return x, x  # identity


def layer_backward(spec: LayerSpec, params: np.ndarray, intermediate, gout):
    """Return (param_grad, input_grad) given the upstream gradient gout.

    param_grad uses the same flat packing as params; a parameterless layer
    returns a shared read-only empty array.  The relu derivative at
    exactly 0 is taken to be 0.  params are read only for the input
    gradient: handed None for them, a layer forms none, returns None for
    it and, without parameters, reads no gout.
    """
    kind = spec.kind
    if kind == AFFINE:
        grad = np.empty(spec.param_count)  # packed like params, in place
        # the bias gradient is ndarray.sum's own reduction, without its
        # wrapper; outputs go by position, which spares a keyword parse
        np.dot(gout.T, intermediate, _weights(spec, grad))
        np.add.reduce(gout, 0, None, grad[spec.weight_count:])
        if params is None:
            return grad, None
        return grad, gout.dot(_weights(spec, params))
    if params is None:
        return _NO_GRAD, None
    if kind == TANH:  # gout * (1 - y * y) in one fresh array
        d = np.multiply(intermediate, intermediate)
        return _NO_GRAD, np.multiply(gout, np.subtract(1.0, d, d), d)
    if kind == RELU:  # intermediate is the output y: y > 0 iff x > 0
        return _NO_GRAD, gout * (intermediate > 0.0)
    return _NO_GRAD, gout  # identity


def first_module_params(specs, params) -> list:
    """Module 1's backward list: None up to and including the first layer
    with parameters (every layer, if none has any), whose input gradients
    nothing reads, then params."""
    for first, spec in enumerate(specs):
        if spec.param_count:
            break
    return [None] * (first + 1) + params[first + 1:]


def loss_and_grad(kind: str, pred: np.ndarray, target):
    """Return (loss, dloss/dpred) of a (batch >= 1, out) prediction, both
    means over the batch rows."""
    if pred.ndim != 2 or not pred.shape[0]:
        raise DimensionError(f"{kind} expects a (batch >= 1, out) "
                             f"prediction, got shape {pred.shape}")
    batch = pred.shape[0]
    if kind == MSE:
        target = np.asarray(target, dtype=np.float64)
        if target.shape != pred.shape:
            raise DimensionError(
                f"mse target shape {target.shape} != prediction {pred.shape}")
        r = pred - target
        return float(np.add.reduce(r * r, None)) / batch, (2.0 / batch) * r
    if kind == SOFTMAX_CE:
        labels = np.asarray(target)
        if labels.dtype.kind not in "iu":  # signed or unsigned integers
            raise DimensionError("softmax_ce expects integer class labels")
        if labels.shape != (batch,):
            raise DimensionError("softmax_ce labels must be one per batch row")
        # the reductions of ndarray.max and .sum without their Python
        # wrappers, and the loss divided as a float: the same bits
        z = pred - np.maximum.reduce(pred, 1, keepdims=True)
        lse = np.log(np.add.reduce(np.exp(z), 1))
        rows = np.arange(batch)
        loss = float(np.add.reduce(lse - z[rows, labels])) / batch
        p = np.exp(z - lse[:, None])
        p[rows, labels] -= 1.0
        return loss, p / batch
    raise DimensionError(f"unknown loss kind {kind!r}")


# Everything a backward pass needs from one forward pass, including the
# loss gradient dpred it starts from.
NetContext = namedtuple("NetContext", "intermediates output dpred")


def net_forward(specs, params, x, loss_kind: str, target):
    """Run the whole network forward; return (loss, NetContext)."""
    intermediates = []
    h = x
    for spec, p in zip(specs, params):
        h, inter = layer_forward(spec, p, h)
        intermediates.append(inter)
    loss, dpred = loss_and_grad(loss_kind, h, target)
    return loss, NetContext(intermediates, h, dpred)


def net_backward(specs, params, ctx: NetContext):
    """Backpropagate ctx.dpred through the whole network.

    Returns (param_grads, input_grad) where param_grads is one flat array
    per layer, in layer order; a layer handed None for params forms no
    input gradient (see layer_backward).  The backward consumes ctx: it
    takes each intermediate out of ctx.intermediates as its layer reads
    it, so an intermediate is freed once the last layer that reads it has
    run, and ctx.intermediates is empty afterwards.
    """
    g, inters = ctx.dpred, ctx.intermediates
    param_grads = [None] * len(specs)
    for i in range(len(specs) - 1, -1, -1):  # inters.pop() is layer i's
        param_grads[i], g = layer_backward(specs[i], params[i],
                                           inters.pop(), g)
    return param_grads, g
