"""Per-item reference implementations the tests compare the package against.

The pipeline runs only the batched forms of these: ``compute_features`` for
``embed_chunk``, the interval arithmetic of ``sample_training_pairs`` for
``bin_of``. The flat-parameter setter and the model copy serve the
finite-difference gradient check and the reference SGD loop.
"""

from dataclasses import replace

import numpy as np

from trajcurate.errors import DimensionMismatch
from trajcurate.nn import MlpClassifier, _layer_views
from trajcurate.progress import TemporalBins


def embed_chunk(obs: np.ndarray, actions: np.ndarray, action_weight: float) -> np.ndarray:
    """Joint state-action feature for one chunk's N subsampled frames.

    Layout: mean observation (D), consecutive observation differences
    ((N−1)·D), then flattened actions scaled by λ (N·A); L2-normalized.
    An all-zero chunk stays the zero vector.
    """
    obs = np.asarray(obs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if obs.ndim != 2 or actions.ndim != 2 or obs.shape[0] != actions.shape[0]:
        raise DimensionMismatch(
            f"chunk frames {obs.shape} and actions {actions.shape} disagree"
        )
    z_v = np.concatenate([obs.mean(axis=0), np.diff(obs, axis=0).ravel()])
    raw = np.concatenate([z_v, actions.ravel() * action_weight])
    norm = float(np.linalg.norm(raw))
    return raw / norm if norm > 0 else raw


def bin_of(bins: TemporalBins, dt: float) -> int:
    """Index of the bin that holds duration ``dt``; ``ValueError`` if negative."""
    if dt < 0:
        raise ValueError(f"duration {dt} < 0")
    idx = int(np.searchsorted(bins.edges, dt, side="right")) - 1
    return min(idx, bins.num_bins - 1)


def set_flat_params(model: MlpClassifier, flat: np.ndarray) -> None:
    """Replace the parameters with views of a float64 copy of ``flat``."""
    flat = np.array(flat, dtype=np.float64)
    if flat.shape[0] != model.num_params():
        raise DimensionMismatch(f"{flat.shape[0]} params for model with {model.num_params()}")
    model.weights, model.biases = _layer_views(flat, model.layer_sizes)


def copy_model(model: MlpClassifier) -> MlpClassifier:
    """The model with copies of its weight and bias arrays."""
    return replace(model, weights=[w.copy() for w in model.weights], biases=[b.copy() for b in model.biases])
