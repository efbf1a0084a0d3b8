"""Minimal multinomial MLP classifier trained with plain minibatch SGD.

Everything is numpy float64 in memory; checkpoints store parameters as
float32. Training is single-threaded and bitwise deterministic for a fixed
seed. ``loss_and_grad`` is the analytic-gradient side of a dual check: the
test suite pits it against central finite differences.

``train`` and ``loss_and_grad`` share one backprop (``_backprop``), so the
finite-difference checks test the gradient that training applies. ``train``
validates its inputs once, before the first epoch; each SGD step then runs
only the backprop, with no loss, label scan or second softmax.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

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
        return MlpClassifier(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activation=self.activation,
            seed=self.seed,
        )

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


def _backprop(
    model: MlpClassifier,
    x: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Shifted logits, their exponentials and ``[(dW, db), ...]`` for checked rows."""
    n = y.shape[0]
    # forward, keeping pre-activations for backprop
    activations = [x]
    pre = []
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    logits = a @ model.weights[-1] + model.biases[-1]

    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.weights)
    for layer in range(len(model.weights) - 1, -1, -1):
        dw = activations[layer].T @ delta
        if l2:
            dw += l2 * model.weights[layer]
        db = delta.sum(axis=0)
        grads[layer] = (dw, db)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (pre[layer - 1] > 0.0)
    return shifted, e, grads


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
    shifted, e, grads = _backprop(model, x, y, l2)
    ce = float(np.mean(np.log(e.sum(axis=1)) - shifted[np.arange(y.shape[0]), y]))
    loss = ce + 0.5 * l2 * sum(float((w**2).sum()) for w in model.weights)
    return loss, grads


def train(
    model: MlpClassifier,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> MlpClassifier:
    """Run minibatch SGD and return the trained copy; the input is untouched.

    ``x`` and ``labels`` are checked once, up front, with the same typed
    errors as ``loss_and_grad``; each step then runs only the backprop.
    """
    x, y = _check_batch(model, x, labels)
    trained = model.copy()
    rng = np.random.default_rng(cfg.seed)
    n = y.shape[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for i in range(0, n, cfg.batch_size):
            idx = perm[i : i + cfg.batch_size]
            _, _, grads = _backprop(trained, x[idx], y[idx], cfg.l2)
            for (dw, db), w, b in zip(grads, trained.weights, trained.biases):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
    return trained


# --- flat parameter view (finite-difference checks, checkpoints) ---------------


def get_flat_params(model: MlpClassifier) -> np.ndarray:
    """Parameters as one vector: per layer, weights row-major then bias."""
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def set_flat_params(model: MlpClassifier, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape[0] != model.num_params():
        raise DimensionMismatch(f"{flat.shape[0]} params for model with {model.num_params()}")
    pos = 0
    for layer in range(len(model.weights)):
        w, b = model.weights[layer], model.biases[layer]
        model.weights[layer] = flat[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        model.biases[layer] = flat[pos : pos + b.size].copy()
        pos += b.size


def flatten_grads(grads: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    parts = []
    for dw, db in grads:
        parts.append(dw.ravel())
        parts.append(db.ravel())
    return np.concatenate(parts)


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
