"""Minimal multinomial MLP classifier trained with plain minibatch SGD.

Everything is numpy float64 in memory; checkpoints store parameters as
float32. Training is single-threaded and bitwise deterministic for a fixed
seed. ``loss_and_grad`` is the analytic-gradient side of a dual check: the
test suite pits it against central finite differences.

``train`` and ``loss_and_grad`` share one backprop (``_backprop``), so the
finite-difference checks test the gradient that training applies. ``train``
checks its inputs once and gathers each epoch's shuffled rows and one-hot
targets into two reused buffers a block of whole batches at a time. Its
parameters and gradient are two flat vectors with per-layer views, and
each step runs in preallocated work arrays. The float operations and their
order are those of per-layer SGD over ``loss_and_grad``, so the trained
parameters match it bit for bit.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidArchitecture,
    IoFailure,
    LabelOutOfRange,
    NonFiniteValue,
)


@dataclass
class MlpClassifier:
    """Fully-connected rectifier network with a softmax output head."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int = 0
    meta: dict = field(default_factory=dict)  # more checkpoint header entries

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _check_sizes(sizes: tuple[int, ...]) -> None:
    if len(sizes) < 2 or min(sizes) <= 0:
        raise InvalidArchitecture(f"need positive input and output sizes at least, got {sizes}")


def init_mlp(layer_sizes: list[int] | tuple[int, ...], seed: int = 0) -> MlpClassifier:
    """Create a network with fan-in-scaled uniform weights and zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    _check_sizes(sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpClassifier(layer_sizes=sizes, weights=weights, biases=biases, seed=seed)


def _as_batch(model: MlpClassifier, x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise DimensionMismatch(f"input shape {arr.shape} incompatible with input size {model.input_dim}")
    return arr


def forward(model: MlpClassifier, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of rows, (n, input_dim) -> (n, classes)."""
    a = _as_batch(model, x)
    return _softmax_forward(model.weights, model.biases, a, Workspace(model.layer_sizes, a.shape[0]))


def _check_batch(
    model: MlpClassifier, x: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs as float64 rows and labels as int64, or a typed error."""
    x = _as_batch(model, x)
    y = np.asarray(labels, dtype=np.int64).ravel()
    n = y.shape[0]
    if n == 0:
        raise EmptyTrainingSet("empty batch")
    if x.shape[0] != n:
        raise DimensionMismatch(f"{x.shape[0]} inputs for {n} labels")
    if y.min() < 0 or y.max() >= model.num_classes:
        raise LabelOutOfRange(f"labels must lie in [0, {model.num_classes})")
    return x, y


# Rows per block of train's gathered epoch, rounded down to whole batches.
_GATHER_ROWS = 1 << 11


class Workspace:
    """Work arrays for the forward pass over ``rows`` rows and, with a
    flat ``grad``, for backprop over them, so a step allocates nothing. The gradient lands in ``grad`` (``get_flat_params``
    layout) through its per-layer views ``dw`` and ``db``. With
    ``keep_logits`` the exponentials get their own buffer, so the shifted
    logits survive for the loss; otherwise ``exp`` runs in place."""

    def __init__(self, sizes: tuple[int, ...], rows: int, grad: np.ndarray | None = None, keep_logits: bool = False):
        hidden = sizes[1:-1]
        self.acts = [np.empty((rows, s)) for s in hidden]
        self.logits = np.empty((rows, sizes[-1]))
        self.exp = np.empty_like(self.logits) if keep_logits else self.logits
        self.rowsum = np.empty((rows, 1))
        if grad is not None:
            self.dw, self.db = _layer_views(grad, sizes)
            self.deltas = [np.empty((rows, s)) for s in hidden]
            self.masks = [np.empty((rows, s), dtype=bool) for s in hidden]
            self.decay = [np.empty_like(dw) for dw in self.dw]


def _softmax_forward(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Softmax probabilities of rows ``x`` in place in ``ws``, with the bits of
    ``maximum(a @ w + b, 0)`` and ``e / e.sum()`` on fresh arrays; ``ws.logits``
    keeps the shifted logits (``keep_logits``), ``ws.rowsum`` their exp sums."""
    a = x
    for w, b, z in zip(weights, biases, ws.acts):
        a = np.matmul(a, w, out=z)
        a += b
        np.maximum(a, 0.0, out=a)
    logits = np.matmul(a, weights[-1], out=ws.logits)
    logits += biases[-1]
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True, out=ws.rowsum)
    probs = np.exp(logits, out=ws.exp)
    probs /= np.add.reduce(probs, axis=1, keepdims=True, out=ws.rowsum)
    return probs


def _backprop(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    onehot: np.ndarray,
    l2: float,
    ws: Workspace,
) -> None:
    """Gradient of the mean cross-entropy (+ l2 decay) over checked rows ``x``
    with one-hot targets, written into ``ws.dw``/``ws.db``, after
    ``_softmax_forward``."""
    n = x.shape[0]
    delta = _softmax_forward(weights, biases, x, ws)
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
    ws = Workspace(model.layer_sizes, n, np.empty(model.num_params()), keep_logits=True)
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
    errors as ``loss_and_grad``. Each step slices the gathered block of rows,
    runs the shared backprop and updates every parameter at once
    (``grad *= lr; params -= grad``: the products of ``W -= lr * dW``). The
    returned model's arrays are views of one new float64 vector. A run that
    diverges to parameters a float32 checkpoint cannot hold raises
    ``NonFiniteValue``.
    """
    x, y = _check_batch(model, x, labels)
    n, size = y.shape[0], cfg.batch_size
    params = get_flat_params(model)  # a fresh vector: the input stays untouched
    weights, biases = _layer_views(params, model.layer_sizes)
    grad = np.empty_like(params)
    starts = range(0, n, size)
    spaces = {r: Workspace(model.layer_sizes, r, grad) for r in {min(size, n - i) for i in starts}}

    rows = min(n, max(1, _GATHER_ROWS // size) * size)  # whole batches
    eye = np.eye(model.num_classes)
    x_block, onehot_block = np.empty((rows, x.shape[1])), np.empty((rows, model.num_classes))
    lr, l2 = cfg.learning_rate, cfg.l2
    rng = np.random.default_rng(cfg.seed)
    # a diverging run overflows to Inf/NaN; that is checked once at the end
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            perm = rng.permutation(n)
            for lo in range(0, n, rows):
                idx = perm[lo : lo + rows]
                # mode="clip" never goes out of bounds here and, unlike the
                # default, writes straight into ``out`` without a temporary
                xb = np.take(x, idx, axis=0, out=x_block[: idx.size], mode="clip")
                onehot = np.take(eye, y[idx], axis=0, out=onehot_block[: idx.size], mode="clip")
                for i in range(0, idx.size, size):
                    ws = spaces[min(size, idx.size - i)]
                    _backprop(weights, biases, xb[i : i + size], onehot[i : i + size], l2, ws)
                    grad *= lr
                    params -= grad
    # checkpoints store float32, so a parameter beyond its range diverged too
    finite = np.abs(params) <= np.finfo(np.float32).max
    if not finite.all():
        raise NonFiniteValue("SGD diverged: trained model", int(np.argmin(finite)), "parameter")
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


def flatten_grads(grads: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``[(dW, db), ...]`` as one vector in the ``get_flat_params`` layout."""
    return np.concatenate([a.ravel() for pair in grads for a in pair])


# --- checkpoints ----------------------------------------------------------------


def save_model(model: MlpClassifier, path: str | os.PathLike) -> None:
    """One file: newline-terminated JSON header (``model.meta``, the
    architecture, ``"activation": "relu"`` and the blob's ``crc32``), then
    the f32 LE blob."""
    blob = get_flat_params(model).astype("<f4").tobytes()
    header = {
        **model.meta,
        "layer_sizes": list(model.layer_sizes),
        "activation": "relu",
        "seed": model.seed,
        "crc32": zlib.crc32(blob),
    }
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(blob)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_model(path: str | os.PathLike) -> MlpClassifier:
    """Read a ``save_model`` checkpoint.

    A missing, truncated or malformed file, one without a checksum or whose
    parameters do not match it, one naming an activation other than
    ``"relu"``, or one holding NaN/Inf parameters, raises ``IoFailure``;
    impossible layer sizes raise ``InvalidArchitecture``.
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
        sizes = tuple(int(s) for s in header.pop("layer_sizes"))
        seed = int(header.pop("seed", 0))
        activation = header.pop("activation", "relu")
        crc = header.pop("crc32", None)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IoFailure(f"checkpoint {path}: bad header ({exc})") from exc
    if seed < 0:
        raise IoFailure(f"checkpoint {path}: negative seed {seed}")
    if activation != "relu":  # the forward pass applies ReLU and nothing else
        raise IoFailure(f"checkpoint {path}: activation {json.dumps(activation)}, only \"relu\" is supported")
    # the blob length is checked against the header before anything is
    # allocated, so a corrupt size cannot ask for gigabytes
    blob = raw[nl + 1 :]
    expected = 4 * sum(n_in * n_out + n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) != expected:
        raise IoFailure(f"checkpoint {path}: blob {len(blob)} bytes, expected {expected}")
    if crc is None:
        raise IoFailure(f"checkpoint {path} records no checksum: retrain it with train-progress")
    if zlib.crc32(blob) != crc:
        raise IoFailure(f"checkpoint {path}: parameters do not match their crc32")
    params = np.frombuffer(blob, dtype="<f4")
    if not np.isfinite(params).all():  # checked before the cast, which warns on a signaling NaN
        raise IoFailure(f"checkpoint {path}: non-finite parameters")
    _check_sizes(sizes)
    weights, biases = _layer_views(params.astype(np.float64), sizes)
    return MlpClassifier(sizes, weights, biases, seed, header)
