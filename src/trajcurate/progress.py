"""Task-progress classification over temporal bins.

A small MLP learns to predict, from the feature delta between two frames of
one trajectory, which duration bin separates them. At scoring time the
classifier's bin distribution is collapsed to a scalar progress estimate
``T_p`` (seconds) via probability-weighted bin representatives, so a window
that looks like it advanced the task slowly gets a small ``T_p``.

Training pairs are self-supervised: no labels beyond frame timestamps are
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import DimensionMismatch, EmptyTrainingSet, NegativeDuration
from .trajstore import Dataset

DEFAULT_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0)
DEFAULT_DT_CAP = 10.0


@dataclass(frozen=True)
class TemporalBins:
    """Half-open duration bins [edges[b], edges[b+1]), last bin unbounded.

    ``representatives[b]`` is the scalar stand-in for "somewhere in bin b"
    used when collapsing a bin distribution to seconds.
    """

    edges: tuple[float, ...] = DEFAULT_EDGES
    representatives: tuple[float, ...] = (0.25, 0.75, 1.5, 3.5, 7.5)

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        reps = tuple(float(r) for r in self.representatives)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "representatives", reps)
        if len(edges) < 2 or len(reps) != len(edges):
            raise ValueError("need one representative per bin")
        if edges[0] < 0 or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"edges must be nonnegative and strictly increasing, got {edges}")
        for b, r in enumerate(reps[:-1]):
            if not (edges[b] <= r < edges[b + 1]):
                raise ValueError(f"representative {r} outside bin {b}")
        if reps[-1] < edges[-1]:
            raise ValueError("last representative below its bin's lower edge")

    @property
    def num_bins(self) -> int:
        return len(self.edges)


def default_bins(dt_cap: float = DEFAULT_DT_CAP) -> TemporalBins:
    """The standard five bins; the open-ended bin is represented by the
    midpoint of [last edge, dt_cap]."""
    if dt_cap <= DEFAULT_EDGES[-1]:
        raise ValueError(f"dt_cap must exceed {DEFAULT_EDGES[-1]}")
    reps = [0.5 * (lo + hi) for lo, hi in zip(DEFAULT_EDGES, DEFAULT_EDGES[1:])]
    reps.append(0.5 * (DEFAULT_EDGES[-1] + dt_cap))
    return TemporalBins(edges=DEFAULT_EDGES, representatives=tuple(reps))


def bin_of(bins: TemporalBins, dt: float) -> int:
    if dt < 0:
        raise NegativeDuration(f"duration {dt} < 0")
    idx = int(np.searchsorted(bins.edges, dt, side="right")) - 1
    return min(idx, bins.num_bins - 1)


@dataclass
class PairSample:
    x: np.ndarray          # delta feature, length D
    label: int             # bin index of dt
    traj_id: str
    t: int                 # anchor frame
    dt: float              # seconds between the two frames


def _gap_range(bins: TemporalBins, b: int, fps: float, dt_cap: float) -> tuple[int, int]:
    """Integer frame gaps g whose duration g/fps falls in bin b (inclusive)."""
    lo = max(1, math.ceil(bins.edges[b] * fps - 1e-9))
    if b < bins.num_bins - 1:
        hi = math.ceil(bins.edges[b + 1] * fps - 1e-9) - 1
    else:
        hi = math.floor(dt_cap * fps + 1e-9)
    return lo, hi


def sample_training_pairs(
    ds: Dataset,
    bins: TemporalBins,
    pairs_per_traj: int = 100,
    dt_cap: float = DEFAULT_DT_CAP,
    seed: int = 0,
) -> list[PairSample]:
    """Draw (anchor, offset) frame pairs labeled by their duration bin.

    Per pair: anchor uniform over frames with at least one reachable bin,
    then a bin uniform over those reachable from that anchor, then the frame
    gap uniform over the bin's feasible gaps (open-ended bin truncated at
    ``dt_cap``). Sampling durations on the frame grid keeps every label
    exactly ``bin_of(dt)``. Each trajectory gets its own child RNG stream, so
    results are stable per trajectory.
    """
    if dt_cap <= bins.edges[-1]:
        raise ValueError(f"dt_cap {dt_cap} must exceed last edge {bins.edges[-1]}")
    children = np.random.SeedSequence(seed).spawn(len(ds.trajectories))
    out: list[PairSample] = []
    for traj, child in zip(ds.trajectories, children):
        n = traj.num_frames
        if n < 2:
            continue
        rng = np.random.default_rng(child)
        ranges = [_gap_range(bins, b, traj.fps, dt_cap) for b in range(bins.num_bins)]
        obs = traj.obs.astype(np.float64)
        for _ in range(pairs_per_traj):
            i = int(rng.integers(0, n - 1))
            feasible = [
                (b, lo, min(hi, n - 1 - i))
                for b, (lo, hi) in enumerate(ranges)
                if lo <= min(hi, n - 1 - i)
            ]
            if not feasible:
                continue
            b, lo, hi = feasible[int(rng.integers(0, len(feasible)))]
            g = int(rng.integers(lo, hi + 1))
            out.append(
                PairSample(
                    x=obs[i + g] - obs[i],
                    label=b,
                    traj_id=traj.id,
                    t=i,
                    dt=g / traj.fps,
                )
            )
    return out


@dataclass
class SamplingConfig:
    pairs_per_traj: int = 100
    dt_cap: float = DEFAULT_DT_CAP
    seed: int = 0

    def __post_init__(self):
        if not self.dt_cap > DEFAULT_EDGES[-1]:
            raise ValueError(f"dt_cap must exceed {DEFAULT_EDGES[-1]}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ValidationReport:
    pairs_train: int
    pairs_val: int
    accuracy: float
    confusion: list[list[int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pairs_train": self.pairs_train,
            "pairs_val": self.pairs_val,
            "accuracy": self.accuracy,
            "confusion": self.confusion,
        }


def train_progress_model(
    ds: Dataset,
    bins: TemporalBins,
    nn_cfg: nn.TrainConfig,
    sampling: SamplingConfig | None = None,
    hidden_sizes: tuple[int, ...] = (64, 64),
) -> tuple[nn.MlpClassifier, ValidationReport]:
    """Sample pairs, train the bin classifier, report held-out accuracy.

    The 90/10 validation split is by trajectory, not by pair, so near-twin
    frames of one trajectory cannot leak across the split.
    """
    sampling = sampling or SamplingConfig()
    pairs = sample_training_pairs(
        ds, bins, sampling.pairs_per_traj, sampling.dt_cap, sampling.seed
    )
    if not pairs:
        raise EmptyTrainingSet("no trainable pairs in dataset")

    ids = sorted({p.traj_id for p in pairs})
    rng = np.random.default_rng(sampling.seed)
    order = [ids[k] for k in rng.permutation(len(ids))]
    num_val = max(1, int(np.floor(0.1 * len(ids)))) if len(ids) >= 2 else 0
    val_ids = set(order[:num_val])

    x = np.stack([p.x for p in pairs])
    y = np.array([p.label for p in pairs], dtype=np.int64)
    in_val = np.array([p.traj_id in val_ids for p in pairs])

    if not np.any(~in_val):
        raise EmptyTrainingSet("validation split consumed every pair")
    model = nn.init_mlp([ds.obs_dim, *hidden_sizes, bins.num_bins], seed=nn_cfg.seed)
    model = nn.train(model, x[~in_val], y[~in_val], nn_cfg)

    b = bins.num_bins
    confusion = np.zeros((b, b), dtype=np.int64)
    n_val = int(in_val.sum())
    if n_val:
        preds = np.argmax(nn.forward(model, x[in_val]), axis=1)
        truth = y[in_val]
        np.add.at(confusion, (truth, preds), 1)
        accuracy = float(np.mean(preds == truth))
    else:
        accuracy = float("nan")
    report = ValidationReport(
        pairs_train=int((~in_val).sum()),
        pairs_val=n_val,
        accuracy=accuracy,
        confusion=confusion.tolist(),
    )
    return model, report


def progress_from_deltas(
    model: nn.MlpClassifier,
    bins: TemporalBins,
    deltas: np.ndarray,
    mode: str = "expectation",
) -> np.ndarray:
    """T_p for each delta-feature row, in seconds."""
    probs = np.atleast_2d(nn.forward(model, deltas))
    reps = np.asarray(bins.representatives)
    if probs.shape[1] != reps.shape[0]:
        raise DimensionMismatch(
            f"model emits {probs.shape[1]} classes for {reps.shape[0]} bins"
        )
    if mode == "expectation":
        return probs @ reps
    if mode == "argmax":
        return reps[np.argmax(probs, axis=1)]
    raise ValueError(f"unknown progress mode {mode!r}")
