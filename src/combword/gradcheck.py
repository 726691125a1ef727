"""Central finite-difference verification of every layer's backward pass.

Each check builds a randomly shaped layer in float64, projects its output to
a scalar with fixed random coefficients, and compares the analytic gradient
(from backward) against central differences, for every parameter element and
every input element. Inputs are nudged away from ReLU's kink so the numeric
derivative is well defined.
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid
from .network import Network, binary_cross_entropy

LAYER_KINDS = ("conv2d", "maxpool2d", "relu", "flatten", "dense", "sigmoid")
DEFAULT_TOLERANCE = 1e-4


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def _numeric_gradient(loss_fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = loss_fn()
        flat[i] = keep - eps
        lo = loss_fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def _check_projected(layer, x: np.ndarray, rng: np.random.Generator) -> float:
    """Max relative error over the layer's parameters and its input.

    The layer gets read-only views of ``x`` and of the projection, which it
    would otherwise be free to rectify or gate in place; the numeric
    gradient perturbs ``x`` itself.
    """
    xv = x.view()
    xv.flags.writeable = False
    proj = rng.standard_normal(layer.forward(xv).shape)
    proj.flags.writeable = False

    def loss_fn() -> float:
        return float(np.sum(layer.forward(xv) * proj))

    loss_fn()
    layer.backward(proj)
    worst = 0.0
    for p, g in zip(layer.params(), layer.grads()):
        worst = max(worst, relative_error(g, _numeric_gradient(loss_fn, p)))
    layer.forward(xv)  # refresh caches after the perturbed numeric passes
    analytic_dx = layer.backward(proj)
    worst = max(worst, relative_error(analytic_dx, _numeric_gradient(loss_fn, x)))
    return worst


def check_layer(kind: str, rng: np.random.Generator) -> float:
    """One random configuration of one layer kind, in float64."""
    n = int(rng.integers(1, 4))
    if kind == "conv2d":
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, k + 4))
        w = int(rng.integers(k, k + 4))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        layer = Conv2d(k, k, cin, cout, rng, dtype=np.float64)
        x = rng.standard_normal((n, h, w, cin))
    elif kind == "maxpool2d":
        ph = int(rng.integers(1, 4))
        pw = int(rng.integers(1, 4))
        h = int(rng.integers(ph, ph * 3 + 1))
        w = int(rng.integers(pw, pw * 3 + 1))
        c = int(rng.integers(1, 4))
        layer = MaxPool2d(ph, pw)
        x = rng.standard_normal((n, h, w, c))
    elif kind == "relu":
        layer = ReLU()
        x = rng.standard_normal((n, int(rng.integers(2, 12))))
        x += np.where(x >= 0, 0.05, -0.05)  # keep clear of the kink
    elif kind == "flatten":
        layer = Flatten()
        x = rng.standard_normal((n, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))))
    elif kind == "dense":
        nin = int(rng.integers(2, 12))
        nout = int(rng.integers(1, 6))
        layer = Dense(nin, nout, rng, dtype=np.float64)
        x = rng.standard_normal((n, nin))
    elif kind == "sigmoid":
        layer = Sigmoid()
        x = rng.standard_normal((n, int(rng.integers(1, 8)))) * 2.0
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    return _check_projected(layer, x, rng)


def run_gradcheck(seed: int) -> dict[str, float]:
    """Max relative error per layer kind for one seeded configuration draw."""
    rng = np.random.default_rng(seed)
    return {kind: check_layer(kind, rng) for kind in LAYER_KINDS}


def check_model_gradients(model: Network, x: np.ndarray, labels: np.ndarray) -> float:
    """End-to-end check of d(loss)/d(parameter) through a whole network."""

    def loss_fn() -> float:
        return binary_cross_entropy(model.forward(x), labels)[0]

    _, dprobs = binary_cross_entropy(model.forward(x), labels)
    model.backward(dprobs)
    analytic = [g.copy() for g in model.grads()]
    worst = 0.0
    for p, g in zip(model.params(), analytic):
        worst = max(worst, relative_error(g, _numeric_gradient(loss_fn, p)))
    return worst
