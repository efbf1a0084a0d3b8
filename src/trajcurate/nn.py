"""Minimal multinomial MLP classifier trained with plain minibatch SGD.

Everything is numpy float64 in memory; checkpoints store parameters as
float32. Training is single-threaded and bitwise deterministic for a fixed
seed. ``loss_and_grad`` is the analytic-gradient side of a dual check: the
test suite pits it against central finite differences.

``train`` and ``loss_and_grad`` share one backprop (``_backprop``), so the
finite-difference checks test the gradient that training applies. ``train``
checks its inputs once and gathers each epoch's shuffled rows and one-hot
targets once. Its parameters and gradient are two flat vectors with
per-layer views, and each step runs in preallocated work arrays. The float
operations and their order are those of per-layer SGD over
``loss_and_grad``, so the trained parameters match it bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidArchitecture,
    IoFailure,
    LabelOutOfRange,
)


@dataclass
class MlpClassifier:
    """Fully-connected rectifier network with a softmax output head."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    seed: int = 0

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpClassifier":
        return replace(self, weights=[w.copy() for w in self.weights], biases=[b.copy() for b in self.biases])

    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass
class TrainConfig:
    """SGD hyperparameters. ``seed`` fixes shuffling order exactly."""

    learning_rate: float = 1e-2
    epochs: int = 300
    batch_size: int = 64
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


def init_mlp(layer_sizes: list[int] | tuple[int, ...], seed: int = 0) -> MlpClassifier:
    """Create a network with fan-in-scaled uniform weights and zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise InvalidArchitecture(f"need at least input and output sizes, got {sizes}")
    if any(s <= 0 for s in sizes):
        raise InvalidArchitecture(f"layer sizes must be positive, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpClassifier(layer_sizes=sizes, weights=weights, biases=biases, seed=seed)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _as_batch(model: MlpClassifier, x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise DimensionMismatch(f"input shape {np.asarray(x).shape} incompatible with input size {model.input_dim}")
    return arr, single


def forward(model: MlpClassifier, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one input vector or a batch of rows."""
    a, single = _as_batch(model, x)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    probs = _softmax(a @ model.weights[-1] + model.biases[-1])
    return probs[0] if single else probs


def _check_batch(
    model: MlpClassifier, x: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs as float64 rows and labels as int64, or a typed error."""
    x, _ = _as_batch(model, x)
    y = np.asarray(labels, dtype=np.int64).ravel()
    n = y.shape[0]
    if n == 0:
        raise EmptyTrainingSet("empty batch")
    if x.shape[0] != n:
        raise DimensionMismatch(f"{x.shape[0]} inputs for {n} labels")
    if y.min() < 0 or y.max() >= model.num_classes:
        raise LabelOutOfRange(f"labels must lie in [0, {model.num_classes})")
    return x, y


class _Workspace:
    """Work arrays for backprop over exactly ``rows`` rows, so a step
    allocates nothing. The gradient lands in the flat ``grad``
    (``get_flat_params`` layout) through its per-layer views ``dw`` and
    ``db``. With ``keep_logits`` the exponentials get their own buffer, so
    the shifted logits survive for the loss; otherwise ``exp`` runs in
    place."""

    def __init__(self, sizes: tuple[int, ...], rows: int, grad: np.ndarray, keep_logits: bool = False):
        hidden = sizes[1:-1]
        self.dw, self.db = _layer_views(grad, sizes)
        self.acts = [np.empty((rows, s)) for s in hidden]
        self.deltas = [np.empty((rows, s)) for s in hidden]
        self.masks = [np.empty((rows, s), dtype=bool) for s in hidden]
        self.logits = np.empty((rows, sizes[-1]))
        self.exp = np.empty_like(self.logits) if keep_logits else self.logits
        self.rowsum = np.empty((rows, 1))
        self.decay = [np.empty_like(dw) for dw in self.dw]


def _backprop(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    onehot: np.ndarray,
    l2: float,
    ws: _Workspace,
) -> None:
    """Gradient of the mean cross-entropy (+ l2 decay) over checked rows ``x``
    with one-hot targets, written into ``ws.dw``/``ws.db``. Afterwards
    ``ws.logits`` holds the shifted logits (with ``keep_logits``) and
    ``ws.rowsum`` the sums of their exponentials."""
    n = x.shape[0]
    a = x
    for w, b, z in zip(weights, biases, ws.acts):
        np.matmul(a, w, out=z)
        z += b
        a = np.maximum(z, 0.0, out=z)
    logits = np.matmul(a, weights[-1], out=ws.logits)
    logits += biases[-1]
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True, out=ws.rowsum)
    delta = np.exp(logits, out=ws.exp)
    delta /= np.add.reduce(delta, axis=1, keepdims=True, out=ws.rowsum)
    delta -= onehot  # subtracting 0.0 is exact, so only the label column moves
    delta /= n

    for layer in range(len(weights) - 1, -1, -1):
        a = ws.acts[layer - 1] if layer else x
        np.matmul(a.T, delta, out=ws.dw[layer])
        if l2:
            ws.dw[layer] += np.multiply(l2, weights[layer], out=ws.decay[layer])
        np.add.reduce(delta, axis=0, out=ws.db[layer])
        if layer:
            prev = np.matmul(delta, weights[layer].T, out=ws.deltas[layer - 1])
            prev *= np.greater(a, 0.0, out=ws.masks[layer - 1])
            delta = prev


def loss_and_grad(
    model: MlpClassifier,
    x: np.ndarray,
    labels: np.ndarray,
    l2: float = 0.0,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross-entropy (+ 0.5·l2·Σ‖W‖²) and its gradient per layer.

    Returns ``(loss, [(dW, db), ...])`` in layer order. Biases carry no
    weight decay.
    """
    x, y = _check_batch(model, x, labels)
    n = y.shape[0]
    ws = _Workspace(model.layer_sizes, n, np.empty(model.num_params()), keep_logits=True)
    _backprop(model.weights, model.biases, x, np.eye(model.num_classes)[y], l2, ws)
    ce = float(np.mean(np.log(ws.rowsum[:, 0]) - ws.logits[np.arange(n), y]))
    loss = ce + 0.5 * l2 * sum(float((w**2).sum()) for w in model.weights)
    return loss, list(zip(ws.dw, ws.db))


def train(
    model: MlpClassifier,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> MlpClassifier:
    """Run minibatch SGD and return the trained copy; the input is untouched.

    ``x`` and ``labels`` are checked once, up front, with the same typed
    errors as ``loss_and_grad``. Each step slices the epoch's gathered rows,
    runs the shared backprop and updates every parameter at once
    (``grad *= lr; params -= grad``: the products of ``W -= lr * dW``). The
    returned model's arrays are views of one new float64 vector.
    """
    x, y = _check_batch(model, x, labels)
    n, size = y.shape[0], cfg.batch_size
    params = get_flat_params(model)  # a fresh vector: the input stays untouched
    weights, biases = _layer_views(params, model.layer_sizes)
    grad = np.empty_like(params)
    starts = range(0, n, size)
    spaces = {r: _Workspace(model.layer_sizes, r, grad) for r in {min(size, n - i) for i in starts}}
    steps = [(slice(i, i + size), spaces[min(size, n - i)]) for i in starts]

    onehot = np.eye(model.num_classes)[y]
    x_epoch, onehot_epoch = np.empty_like(x), np.empty_like(onehot)
    lr, l2 = cfg.learning_rate, cfg.l2
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        # mode="clip" never goes out of bounds here and, unlike the default,
        # writes straight into ``out`` without a temporary
        np.take(x, perm, axis=0, out=x_epoch, mode="clip")
        np.take(onehot, perm, axis=0, out=onehot_epoch, mode="clip")
        for batch, ws in steps:
            _backprop(weights, biases, x_epoch[batch], onehot_epoch[batch], l2, ws)
            grad *= lr
            params -= grad
    return replace(model, weights=weights, biases=biases)


# --- flat parameter view (finite-difference checks, checkpoints) ---------------


def get_flat_params(model: MlpClassifier) -> np.ndarray:
    """Parameters as one vector: per layer, weights row-major then bias."""
    return flatten_grads(zip(model.weights, model.biases))


def _layer_views(flat: np.ndarray, sizes: tuple[int, ...]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a ``get_flat_params``-layout vector."""
    weights, biases, pos = [], [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + n_in * n_out].reshape(n_in, n_out))
        pos += n_in * n_out
        biases.append(flat[pos : pos + n_out])
        pos += n_out
    return weights, biases


def set_flat_params(model: MlpClassifier, flat: np.ndarray) -> None:
    """Replace the parameters with views of a float64 copy of ``flat``."""
    flat = np.array(flat, dtype=np.float64)
    if flat.shape[0] != model.num_params():
        raise DimensionMismatch(f"{flat.shape[0]} params for model with {model.num_params()}")
    model.weights, model.biases = _layer_views(flat, model.layer_sizes)


def flatten_grads(grads: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``[(dW, db), ...]`` as one vector in the ``get_flat_params`` layout."""
    return np.concatenate([a.ravel() for pair in grads for a in pair])


# --- checkpoints ----------------------------------------------------------------


def save_model(model: MlpClassifier, path: str | os.PathLike) -> None:
    """One file: newline-terminated JSON header, then the f32 LE blob."""
    header = {
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "seed": model.seed,
    }
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(get_flat_params(model).astype("<f4").tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_model(path: str | os.PathLike) -> MlpClassifier:
    """Read a ``save_model`` checkpoint.

    A missing, truncated or malformed file, or one holding NaN/Inf
    parameters, raises ``IoFailure``; impossible layer sizes raise
    ``InvalidArchitecture``.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    nl = raw.find(b"\n")
    if nl < 0:
        raise IoFailure(f"checkpoint {path}: no header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
        sizes = tuple(int(s) for s in header["layer_sizes"])
        seed = int(header.get("seed", 0))
        activation = str(header.get("activation", "relu"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IoFailure(f"checkpoint {path}: bad header ({exc})") from exc
    if seed < 0:
        raise IoFailure(f"checkpoint {path}: negative seed {seed}")
    # the blob length is checked against the header before anything is
    # allocated, so a corrupt size cannot ask for gigabytes
    blob = raw[nl + 1 :]
    expected = 4 * sum(n_in * n_out + n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) != expected:
        raise IoFailure(f"checkpoint {path}: blob {len(blob)} bytes, expected {expected}")
    params = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    if not np.isfinite(params).all():
        raise IoFailure(f"checkpoint {path}: non-finite parameters")
    model = init_mlp(sizes, seed=seed)
    model.activation = activation
    set_flat_params(model, params)
    return model
