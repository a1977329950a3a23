"""Minimal feed-forward network with hand-written backpropagation.

Rectifier hidden layers, linear output, 64-bit floats throughout.  The loss is
the squared TD error on the single taken action, so the output gradient is
zero everywhere except that action's entry.  A network's parameters, its
gradients and Adam's moments are each one flat vector.  Weights serialize to a
small JSON document.
"""

from __future__ import annotations

import json
import math

import numpy as np

FORMAT_VERSION = 1


class WeightsFormatError(ValueError):
    """Weights document is malformed or internally inconsistent."""


class QNetwork:
    """Parameters in one contiguous vector ``flat``, laid out W0, b0, W1, b1, ...

    ``weights[i]`` (shape (out, in)) and ``biases[i]`` (shape (out,)) are views
    into ``flat``.  Gradients share this layout, so Adam and cloning act on
    ``flat`` alone.
    """

    def __init__(self, sizes: tuple[int, ...], flat: np.ndarray | None = None):
        self.sizes = tuple(sizes)
        shapes = list(zip(self.sizes[1:], self.sizes[:-1]))
        lengths = [n for fan_out, fan_in in shapes for n in (fan_out * fan_in, fan_out)]
        self.flat = np.zeros(sum(lengths)) if flat is None else flat
        parts = np.split(self.flat, np.cumsum(lengths)[:-1])
        self.weights = [w.reshape(shape) for w, shape in zip(parts[::2], shapes)]
        self.biases = parts[1::2]

    @property
    def d_in(self) -> int:
        return self.sizes[0]

    @property
    def d_out(self) -> int:
        return self.sizes[-1]


def positive_int(value, what: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int; bools, fractions and values below 1 raise ``error`` naming ``what``."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < 1:
        raise error(f"{what}: expected a positive integer, got {value!r}")
    return int(value)


def init_network(sizes, rng) -> QNetwork:
    """Xavier-uniform weights, zero biases, drawn from the given generator."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least input and output dimensions, got {sizes}")
    net = QNetwork(sizes)
    for w in net.weights:
        limit = math.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


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
    activations, _ = _forward_cached(net, _check_input(net, xs))
    return activations[-1]


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


def backward_batch(net: QNetwork, xs, td_targets, actions) -> tuple[float, QNetwork]:
    """Mean squared TD loss over a batch and its mean gradients, laid out as ``net``.

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

    grads = QNetwork(net.sizes)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads.weights[layer][...] = delta.T @ activations[layer]
        grads.biases[layer][...] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * (pre[layer - 1] > 0.0)
    return loss, grads


class Adam:
    """Adam with bias correction; moment state lives with this object."""

    def __init__(self, net: QNetwork, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)

    def step(self, net: QNetwork, grads: QNetwork, lr: float) -> None:
        if grads.sizes != net.sizes:
            raise ValueError(f"gradient sizes {grads.sizes} do not match the network's {net.sizes}")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads.flat
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (grads.flat * grads.flat)
        net.flat -= lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def clone(net: QNetwork) -> QNetwork:
    return QNetwork(net.sizes, net.flat.copy())


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
    arch = doc["arch"]
    if not isinstance(arch, list) or len(arch) < 2:
        raise WeightsFormatError(f"arch: expected a list of at least two layer widths, got {arch!r}")
    arch = tuple(positive_int(s, "arch", WeightsFormatError) for s in arch)
    layers = doc["layers"]
    if len(layers) != len(arch) - 1:
        raise WeightsFormatError(f"arch {list(arch)} expects {len(arch) - 1} layers, document has {len(layers)}")
    parts = []
    for i, layer in enumerate(layers):
        rows, cols = (positive_int(layer[k], f"layer {i}: {k}", WeightsFormatError) for k in ("rows", "cols"))
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
        parts += [w.ravel(), b.ravel()]
    return QNetwork(arch, np.concatenate(parts))
