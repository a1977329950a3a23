"""Minimal feed-forward network with hand-written backpropagation.

Rectifier hidden layers, linear output, 64-bit floats throughout.  The loss is
the squared TD error on the single taken action, so the output gradient is
zero everywhere except that action's entry.  A network's parameters, its
gradients and Adam's moments are each one flat vector; a leading axis on that
vector stacks several networks of one architecture, which the batched functions
(acting's ``forward`` is their one-row case) evaluate and train together.
Weights serialize to a small JSON document, of one network or one per junction
id, whose records are read and written by netmodel's record reader and writer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .netmodel import read_record, write_record

FORMAT_VERSION = 1


class WeightsFormatError(ValueError):
    """Weights document is malformed or internally inconsistent."""


class QNetwork:
    """Parameters in one contiguous vector ``flat``, laid out W0, b0, W1, b1, ...

    ``flat`` has shape (P,) for one network or (K, P) for K networks of the
    same sizes, one per row.  ``weights[i]`` (shape (..., out, in)) and
    ``biases[i]`` (shape (..., out)) are views into ``flat``.  Gradients share
    this layout, so Adam and cloning act on ``flat`` alone.
    """

    def __init__(self, sizes: tuple[int, ...], flat: np.ndarray | None = None):
        self.sizes = tuple(sizes)
        shapes = list(zip(self.sizes[1:], self.sizes[:-1]))
        lengths = [n for fan_out, fan_in in shapes for n in (fan_out * fan_in, fan_out)]
        self.flat = np.zeros(sum(lengths)) if flat is None else flat
        if self.flat.shape[-1] != sum(lengths):
            raise ValueError(f"sizes {self.sizes} need {sum(lengths)} parameters, got {self.flat.shape[-1]}")
        lead = self.flat.shape[:-1]
        parts = np.split(self.flat, np.cumsum(lengths)[:-1], axis=-1)
        self.weights = [w.reshape(lead + shape) for w, shape in zip(parts[::2], shapes)]
        self.biases = parts[1::2]
        # _forward's operands, each layer's weights transposed and its bias as a row: viewed once, not on every pass
        self._affine = [(w.swapaxes(-1, -2), b[..., None, :]) for w, b in zip(self.weights, self.biases)]

    @property
    def d_in(self) -> int:
        return self.sizes[0]

    @property
    def d_out(self) -> int:
        return self.sizes[-1]


def _check_layout(net, other, what: str) -> None:
    if other.sizes != net.sizes or other.flat.shape != net.flat.shape:
        raise ValueError(
            f"{what} sizes {other.sizes} (shape {other.flat.shape}) do not match the network's "
            f"{net.sizes} (shape {net.flat.shape})"
        )


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


class Workspace:
    """Per-layer arrays for batches of one shape: each layer's output and its loss gradient.

    ``batch`` is the states' shape without ``d_in``: (n,) for a (P,) network, (K, n) for a (K, P) one.
    ``forward``, ``forward_batch`` and ``backward_batch`` write into a workspace passed as ``out`` and into a fresh
    one otherwise, so a caller that repeats one batch shape allocates no per-layer arrays.
    """

    def __init__(self, sizes: tuple[int, ...], batch: tuple[int, ...]):
        self.activations = [np.empty((*batch, width)) for width in sizes[1:]]
        self.deltas = [np.empty((*batch, width)) for width in sizes[1:]]


def forward_batch(net: QNetwork, xs, out: Workspace | None = None) -> np.ndarray:
    """Q-values for a (..., n, d_in) batch of states; a (K, P) network takes K batches.

    The result is ``out``'s last activation, overwritten by the next call given ``out``."""
    xs = _check_input(net, np.atleast_2d(xs))
    return _forward(net, xs, (out or Workspace(net.sizes, xs.shape[:-1])).activations)


def forward(net: QNetwork, xs, out: Workspace | None = None) -> np.ndarray:
    """Q-values of one state per network: a (d_in,) state for a (P,) network, (K, d_in) states for a (K, P) one.

    The one-row case of ``forward_batch``'s pass, so acting and learning share one layer loop.  ``out`` is a
    ``Workspace`` of batch shape (1,) or (K, 1), made fresh when None; the result is a view into it.
    """
    xs = _check_input(net, xs)
    return _forward(net, xs[..., None, :], (out or Workspace(net.sizes, (*xs.shape[:-1], 1))).activations)[..., 0, :]


def _forward(net: QNetwork, a: np.ndarray, activations: list[np.ndarray]) -> np.ndarray:
    """Each layer's output into ``activations``, rectified in place on hidden layers; returns the last."""
    last = len(net.weights) - 1
    for i, ((w_t, b_row), z) in enumerate(zip(net._affine, activations)):
        a = np.matmul(a, w_t, out=z)
        a += b_row
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a


def backward_batch(net: QNetwork, xs, td_targets, actions, grads: QNetwork, out: Workspace | None = None):
    """Mean squared TD loss over a batch; its mean gradients go into ``grads``, laid out as ``net``.

    Equivalent to averaging the loss (q[action] - target)^2 and its gradients
    over the samples one at a time.  A (K, P) network takes (K, n, d_in)
    states and (K, n) targets and actions and returns K losses, network k
    trained on batch k.  ``out`` is as for ``forward_batch``.
    """
    _check_layout(net, grads, "gradient")
    xs = _check_input(net, np.atleast_2d(xs))
    targets = np.asarray(td_targets, dtype=np.float64)
    acts = np.asarray(actions, dtype=np.intp)
    n = xs.shape[-2]
    work = out or Workspace(net.sizes, xs.shape[:-1])
    activations, deltas = work.activations, work.deltas
    q = _forward(net, xs, activations)
    taken = np.arange(net.d_out) == acts[..., None]  # one-hot of each sample's action
    errors = q[taken].reshape(acts.shape) - targets
    losses = np.add.reduce(errors * errors, axis=-1) / n  # np.mean, without its dispatch

    delta = deltas[-1]
    delta.fill(0.0)
    np.copyto(delta, (2.0 * errors / n)[..., None], where=taken)
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), activations[layer - 1] if layer else xs, out=grads.weights[layer])
        np.add.reduce(delta, axis=-2, out=grads.biases[layer])
        if layer > 0:  # through the rectifier: its output is above 0 exactly where its input is
            delta = np.matmul(delta, net.weights[layer], out=deltas[layer - 1])
            delta *= activations[layer - 1] > 0.0
    return losses


class Adam:
    """Adam with bias correction; moment state and scratch space live with this object.

    ``net`` is a QNetwork of one network or of K stacked ones; one step updates all of its parameters.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net):
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self._step = np.empty_like(net.flat)
        self._scale = np.empty_like(net.flat)

    def step(self, net, grads, lr: float) -> None:
        """``net.flat -= lr * (m / c1) / (sqrt(v / c2) + eps)``, computed in place."""
        _check_layout(net, grads, "gradient")
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        g, step, scale = grads.flat, self._step, self._scale
        self.m *= self.BETA1
        np.multiply(g, 1.0 - self.BETA1, out=step)
        self.m += step
        self.v *= self.BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - self.BETA2
        self.v += step
        np.divide(self.m, c1, out=step)
        step *= lr
        np.divide(self.v, c2, out=scale)
        np.sqrt(scale, out=scale)
        scale += self.EPS
        step /= scale
        net.flat -= step


def clone(net: QNetwork) -> QNetwork:
    """A QNetwork of the same layout holding a copy of the parameters."""
    return QNetwork(net.sizes, net.flat.copy())


@dataclass
class _Layer:
    rows: int
    cols: int
    w: list[float]  # the (rows, cols) weights, row by row
    b: list[float]


@dataclass
class _Weights:  # the document of one network
    format_version: int
    arch: list[int]  # layer widths, input first
    layers: tuple[_Layer, ...]


@dataclass
class _PerJunction:  # the document of one network per junction id
    format_version: int
    multi: dict[str, _Weights]


def _record(net: QNetwork) -> _Weights:
    layers = (_Layer(*w.shape, w.ravel().tolist(), b.tolist()) for w, b in zip(net.weights, net.biases))
    return _Weights(FORMAT_VERSION, list(net.sizes), tuple(layers))


def serialize(net: QNetwork | dict[str, QNetwork]) -> str:
    """Lossless JSON document of one network, or of one network per junction id; floats round-trip bit for bit."""
    if isinstance(net, QNetwork):
        doc = _record(net)
    else:
        doc = _PerJunction(FORMAT_VERSION, {jid: _record(one) for jid, one in net.items()})
    return json.dumps(write_record(doc), sort_keys=True)


def deserialize(text: str) -> QNetwork | dict[str, QNetwork]:
    """Invert ``serialize``: one network, or one per junction id for a ``multi`` document.

    The reading rules are in ``docs/weights-format.md``; a fault raises WeightsFormatError naming its path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WeightsFormatError(f"weights document is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "multi" in doc:
        per_junction = read_record(_PerJunction, doc, "weights", WeightsFormatError, "weights.")
        _check_version(per_junction.format_version, "weights")
        return {jid: _network(one, f"weights.multi.{jid}") for jid, one in per_junction.multi.items()}
    return _network(read_record(_Weights, doc, "weights", WeightsFormatError, "weights."), "weights")


def _check_version(version: int, where: str) -> None:
    if version != FORMAT_VERSION:
        raise WeightsFormatError(f"{where}: format_version {version} is not supported, expected {FORMAT_VERSION}")


def _network(doc: _Weights, where: str) -> QNetwork:
    """The network a read document describes, once its shapes agree with its ``arch``."""
    _check_version(doc.format_version, where)
    arch = doc.arch
    if len(arch) < 2 or min(arch) < 1:
        raise WeightsFormatError(f"{where}: 'arch' must list at least two layer widths of at least 1, got {arch}")
    if len(doc.layers) != len(arch) - 1:
        raise WeightsFormatError(f"{where}: arch {arch} expects {len(arch) - 1} layers, document has {len(doc.layers)}")
    for i, (layer, fan_in, fan_out) in enumerate(zip(doc.layers, arch, arch[1:])):
        got, needed = (layer.rows, layer.cols, len(layer.w), len(layer.b)), (fan_out, fan_in, fan_out * fan_in, fan_out)
        if got != needed:
            raise WeightsFormatError(f"{where}.layers[{i}]: rows, cols, len(w), len(b) are {got}, arch {arch} needs "
                                     f"{needed}")
    return QNetwork(tuple(arch), np.concatenate([np.array(p) for layer in doc.layers for p in (layer.w, layer.b)]))
