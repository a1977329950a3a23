"""Minimal feed-forward network with hand-written backpropagation.

Rectifier hidden layers, linear output, 64-bit floats throughout.  The loss is
the squared TD error on the single taken action, so the output gradient is
zero everywhere except that action's entry.  An Adam optimizer carries its
moment state per network.  Weights serialize to a small JSON document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

FORMAT_VERSION = 1


class WeightsFormatError(ValueError):
    """Weights document is malformed or internally inconsistent."""


@dataclass
class QNetwork:
    sizes: tuple[int, ...]
    weights: list[np.ndarray]  # per layer, shape (out, in)
    biases: list[np.ndarray]  # per layer, shape (out,)

    @property
    def d_in(self) -> int:
        return self.sizes[0]

    @property
    def d_out(self) -> int:
        return self.sizes[-1]


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_network(sizes, rng) -> QNetwork:
    """Xavier-uniform weights, zero biases, drawn from the given generator."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least input and output dimensions, got {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return QNetwork(sizes, weights, biases)


def _check_input(net: QNetwork, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.d_in:
        raise ValueError(f"input dimension {x.shape[-1]} does not match network d_in {net.d_in}")
    return x


def forward(net: QNetwork, x) -> np.ndarray:
    """Q-values for a single state vector."""
    a = _check_input(net, x)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = w @ a + b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a


def forward_batch(net: QNetwork, xs) -> np.ndarray:
    """Q-values for a (n, d_in) batch of states."""
    a = _check_input(net, xs)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a


def _forward_cached(net: QNetwork, a: np.ndarray):
    """Activations per layer (inputs included), pre-activations for hidden."""
    activations = [a]
    pre = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        if i < last:
            pre.append(z)
            a = np.maximum(z, 0.0)
        else:
            a = z
        activations.append(a)
    return activations, pre


def backward_batch(net: QNetwork, xs, td_targets, actions) -> tuple[float, Gradients]:
    """Mean squared TD loss over a batch and its mean gradients.

    Equivalent to averaging the loss (q[action] - target)^2 and its gradients
    over the samples one at a time.
    """
    xs = _check_input(net, np.atleast_2d(np.asarray(xs, dtype=np.float64)))
    targets = np.asarray(td_targets, dtype=np.float64)
    acts = np.asarray(actions, dtype=np.intp)
    n = xs.shape[0]
    activations, pre = _forward_cached(net, xs)
    q = activations[-1]
    errors = q[np.arange(n), acts] - targets
    loss = float(np.mean(errors * errors))

    delta = np.zeros_like(q)
    delta[np.arange(n), acts] = 2.0 * errors / n

    grad_w = [np.empty(0)] * len(net.weights)
    grad_b = [np.empty(0)] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * (pre[layer - 1] > 0.0)
    return loss, Gradients(grad_w, grad_b)


class Adam:
    """Adam with bias correction; moment state lives with this object."""

    def __init__(self, net: QNetwork, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in net.weights]
        self.v_w = [np.zeros_like(w) for w in net.weights]
        self.m_b = [np.zeros_like(b) for b in net.biases]
        self.v_b = [np.zeros_like(b) for b in net.biases]

    def step(self, net: QNetwork, grads: Gradients, lr: float) -> None:
        if len(grads.weights) != len(net.weights):
            raise ValueError("gradient shapes do not match the network")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for params, gs, ms, vs in (
            (net.weights, grads.weights, self.m_w, self.v_w),
            (net.biases, grads.biases, self.m_b, self.v_b),
        ):
            for p, g, m, v in zip(params, gs, ms, vs):
                if p.shape != g.shape:
                    raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * (g * g)
                p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def clone(net: QNetwork) -> QNetwork:
    return QNetwork(net.sizes, [w.copy() for w in net.weights], [b.copy() for b in net.biases])


def serialize(net: QNetwork) -> str:
    """Lossless JSON document; floats round-trip bit for bit."""
    doc = {
        "format_version": FORMAT_VERSION,
        "arch": list(net.sizes),
        "layers": [
            {"rows": int(w.shape[0]), "cols": int(w.shape[1]), "w": w.ravel().tolist(), "b": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }
    return json.dumps(doc, sort_keys=True)


def deserialize(text: str) -> QNetwork:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WeightsFormatError(f"weights document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "arch" not in doc or "layers" not in doc:
        raise WeightsFormatError("weights document must contain 'arch' and 'layers'")
    arch = tuple(int(s) for s in doc["arch"])
    layers = doc["layers"]
    if len(layers) != len(arch) - 1:
        raise WeightsFormatError(f"arch {list(arch)} expects {len(arch) - 1} layers, document has {len(layers)}")
    weights, biases = [], []
    for i, layer in enumerate(layers):
        rows, cols = int(layer["rows"]), int(layer["cols"])
        if rows != arch[i + 1] or cols != arch[i]:
            raise WeightsFormatError(
                f"layer {i}: shape ({rows}, {cols}) does not chain with arch {list(arch)}"
            )
        w = np.asarray(layer["w"], dtype=np.float64)
        b = np.asarray(layer["b"], dtype=np.float64)
        if w.size != rows * cols:
            raise WeightsFormatError(f"layer {i}: expected {rows * cols} weights, got {w.size}")
        if b.size != rows:
            raise WeightsFormatError(f"layer {i}: expected {rows} biases, got {b.size}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise WeightsFormatError(f"layer {i}: non-finite parameters")
        weights.append(w.reshape(rows, cols))
        biases.append(b)
    return QNetwork(arch, weights, biases)
