"""A plain numpy forward and backward pass, written without `adl`.

`reference_gradient` is the checks' independent gradient.  `Yardstick`
times the same pass on a workload's network with fixed random inputs: it
runs next to every timed repetition, so the benchmark can divide out the
speed of the machine (see README, "Machine speed").
"""
from __future__ import annotations

import time
from collections import namedtuple

import numpy as np

Layer = namedtuple("Layer", "kind in_dim out_dim")


def _unflatten(layers, flat):
    params, off = [], 0
    for spec in layers:
        if spec.kind == "affine":
            nw = spec.out_dim * spec.in_dim
            w = flat[off:off + nw].reshape(spec.out_dim, spec.in_dim)
            b = flat[off + nw:off + nw + spec.out_dim]
            params.append((w, b))
            off += nw + spec.out_dim
        else:
            params.append(None)
    if off != flat.size:
        raise ValueError(f"{flat.size} parameters for a net of {off}")
    return params


def reference_gradient(layers, loss: str, flat, batches):
    """Averaged gradient of the loss over `batches` at the flat parameter
    vector.  Layers are read only for kind and dimensions; the flat layout
    is, per affine layer, W (out, in) row-major and then the bias."""
    params = _unflatten(layers, flat)
    total = np.zeros_like(flat)
    for x, y in batches:
        acts = [x]
        for spec, p in zip(layers, params):
            h = acts[-1]
            if spec.kind == "affine":
                h = h @ p[0].T + p[1]
            elif spec.kind == "tanh":
                h = np.tanh(h)
            elif spec.kind == "relu":
                h = np.maximum(h, 0.0)
            acts.append(h)
        out = acts[-1]
        n = out.shape[0]
        if loss == "mse":
            g = 2.0 * (out - y) / n
        else:
            z = out - out.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), y] -= 1.0
            g = p / n
        pieces = []
        for i in range(len(layers) - 1, -1, -1):
            spec = layers[i]
            if spec.kind == "affine":
                w = params[i][0]
                pieces.append(np.concatenate([(g.T @ acts[i]).ravel(),
                                              g.sum(axis=0)]))
                g = g @ w
            elif spec.kind == "tanh":
                g = g * (1.0 - acts[i + 1] ** 2)
            elif spec.kind == "relu":
                g = g * (acts[i] > 0.0)
        total += np.concatenate(pieces[::-1] or [np.zeros(0)])
    return total / len(batches)


class Yardstick:
    """`reference_gradient` over a network (INI `layers` syntax) on fixed
    random batches: how fast the machine runs at this moment."""

    def __init__(self, layers: str, loss: str, batch_size: int,
                 batches: int, nominal_s: float):
        rng = np.random.default_rng(0)
        self.layers = []
        for token in layers.split():
            kind, *dims = token.split(":")
            self.layers.append(Layer(kind, int(dims[0]), int(dims[-1])))
        size = sum(l.out_dim * (l.in_dim + 1) for l in self.layers
                   if l.kind == "affine")
        self.flat = rng.normal(0.0, 0.2, size=size)
        self.loss = loss
        b, d_in = batch_size, self.layers[0].in_dim
        d_out = self.layers[-1].out_dim
        self.batches = [
            (rng.normal(size=(b, d_in)),
             rng.normal(size=(b, d_out)) if self.loss == "mse"
             else rng.integers(0, d_out, size=b))
            for _ in range(batches)]
        self.nominal_s = nominal_s
        self.seconds()      # the first pass also starts BLAS threads

    def seconds(self) -> float:
        t0 = time.perf_counter()
        reference_gradient(self.layers, self.loss, self.flat, self.batches)
        return time.perf_counter() - t0
