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
from .errors import DimensionMismatch, EmptyTrainingSet
from .trajstore import Dataset, seconds_to_frames

DEFAULT_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0)
DEFAULT_DT_CAP = 10.0
# Rows moved per block when the training rows are partitioned in place.
_PARTITION_ROWS = 1 << 12
# 32-bit draws decoded together: pair sampling takes a block of trajectories
# whose draws add up to at most this many (or one trajectory) at a time.
_BLOCK_DRAWS = 1 << 16


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


@dataclass(frozen=True)
class TrainingPairs:
    """Training pairs as parallel arrays: row ``j`` is frame ``t[j]`` of
    ``ds.trajectories[traj[j]]`` and the frame ``dt[j]`` seconds later."""

    x: np.ndarray          # (n, D) float64 delta obs[t + g] - obs[t]
    label: np.ndarray      # (n,) int64 bin index of dt
    traj: np.ndarray       # (n,) int64 index into ds.trajectories
    t: np.ndarray          # (n,) int64 anchor frame
    dt: np.ndarray         # (n,) float64 seconds between the two frames

    def __len__(self) -> int:
        return self.label.shape[0]


def _gap_range(bins: TemporalBins, b: int, fps: float, dt_cap: float) -> tuple[int, int]:
    """Integer frame gaps g whose duration g/fps falls in bin b (inclusive)."""
    seconds_to_frames(max(bins.edges[-1], dt_cap), fps)  # a ConfigError past int64 frames
    lo = max(1, math.ceil(bins.edges[b] * fps - 1e-9))
    if b < bins.num_bins - 1:
        hi = math.ceil(bins.edges[b + 1] * fps - 1e-9) - 1
    else:
        hi = math.floor(dt_cap * fps + 1e-9)
    return lo, hi


def _bounded(draws: np.ndarray, pos: np.ndarray, rows: np.ndarray, r: np.ndarray, gens: list) -> np.ndarray:
    """``gens[k].integers(0, r)`` for each row k of ``rows``, decoded from its
    32-bit draws at ``pos`` by numpy's multiply-shift (Lemire): a range of one
    value takes no draw, a rejected draw moves that row alone on to its next,
    and a row that has used all its draws refills them from its generator."""
    r = r.astype(np.uint64)
    out = np.zeros(rows.size, dtype=np.int64)
    todo = np.flatnonzero(r > 1)
    while todo.size:
        k = rows[todo]
        for j in k[pos[k] == draws.shape[1]].tolist():
            draws[j], pos[j] = gens[j].integers(0, 2**32, size=draws.shape[1], dtype=np.uint32), 0
        m = draws[k, pos[k]] * r[todo]  # exact in uint64 for r <= 2**32
        pos[k] += 1
        out[todo] = m >> 32
        todo = todo[(m & 0xFFFFFFFF) < (2**32 - r[todo]) % r[todo]]
    return out


def sample_training_pairs(
    ds: Dataset,
    bins: TemporalBins,
    pairs_per_traj: int = 100,
    dt_cap: float = DEFAULT_DT_CAP,
    seed: int = 0,
) -> TrainingPairs:
    """Draw (anchor, offset) frame pairs labeled by their duration bin.

    Per pair: anchor uniform over frames with at least one reachable bin,
    then a bin uniform over those reachable from that anchor, then the frame
    gap uniform over the bin's feasible gaps (open-ended bin truncated at
    ``dt_cap``). Sampling durations on the frame grid makes every label
    the bin that holds ``dt``. Each trajectory gets its own child RNG
    stream, so results are stable per trajectory. A trajectory's 32-bit
    draws come from one call, and ``_bounded`` decodes them into the values
    scalar ``integers`` calls would return, for a block of trajectories one
    pair at a time, straight into int64 columns; then one gather per
    trajectory writes its deltas into ``x``.
    """
    if dt_cap <= bins.edges[-1]:
        raise ValueError(f"dt_cap {dt_cap} must exceed last edge {bins.edges[-1]}")
    children = np.random.SeedSequence(seed).spawn(len(ds.trajectories))
    # (bin, trajectory, anchor, gap) per pair, a block of trajectories at a time
    label, owner, t, gap = (np.empty(pairs_per_traj * len(ds.trajectories), dtype=np.int64) for _ in range(4))
    live = [k for k, traj in enumerate(ds.trajectories) if traj.num_frames >= 2]
    width, count = 3 * pairs_per_traj, 0
    step = max(1, _BLOCK_DRAWS // width)
    for first in range(0, len(live), step):
        ks = live[first : first + step]
        gens = [np.random.default_rng(children[k]) for k in ks]
        draws = np.empty((len(ks), width), dtype=np.uint32)
        for j, rng in enumerate(gens):
            draws[j] = rng.integers(0, 2**32, size=width, dtype=np.uint32)
        n = np.array([ds.trajectories[k].num_frames for k in ks], dtype=np.int64)
        ranges = np.array([[_gap_range(bins, b, ds.trajectories[k].fps, dt_cap) for b in range(bins.num_bins)] for k in ks])
        rows, pos = np.arange(len(ks)), np.zeros(len(ks), dtype=np.int64)
        kept = np.zeros((len(ks), pairs_per_traj), dtype=bool)
        for s in range(pairs_per_traj):  # row j's pair s goes to count + j * pairs_per_traj + s
            i = _bounded(draws, pos, rows, n - 1, gens)
            hi = np.minimum(ranges[..., 1], (n - 1 - i)[:, None])
            feasible = ranges[..., 0] <= hi
            ok = np.flatnonzero(feasible.any(axis=1))
            choice = _bounded(draws, pos, ok, feasible[ok].sum(axis=1), gens)
            b = (np.cumsum(feasible[ok], axis=1) <= choice[:, None]).sum(axis=1)
            at = count + ok * pairs_per_traj + s
            label[at], t[at], kept[ok, s] = b, i[ok], True
            gap[at] = ranges[ok, b, 0] + _bounded(draws, pos, ok, hi[ok, b] - ranges[ok, b, 0] + 1, gens)
        end = count + int(kept.sum())
        if end < count + kept.size:  # some anchors reached no bin: close the gaps
            for column in (label, t, gap):
                column[count:end] = column[count : count + kept.size][kept.ravel()]
        owner[count:end] = np.repeat(ks, kept.sum(axis=1))
        count = end
        del draws, gens  # before the next block's, and before x

    label, owner, t, gap = label[:count], owner[:count], t[:count], gap[:count]
    x = np.empty((count, ds.obs_dim))
    bounds = np.searchsorted(owner, np.arange(len(ds.trajectories) + 1)).tolist()
    for traj, lo, hi in zip(ds.trajectories, bounds, bounds[1:]):
        if lo == hi:
            continue
        obs = traj.frames()[0]
        # dtype=float64 widens both frames before subtracting, as astype would
        np.subtract(obs[t[lo:hi] + gap[lo:hi]], obs[t[lo:hi]], out=x[lo:hi], dtype=np.float64)
    dt = np.array([traj.fps for traj in ds.trajectories], dtype=np.float64)[owner]
    np.divide(gap, dt, out=dt)  # seconds: gap / fps, with no second float array
    return TrainingPairs(x=x, label=label, traj=owner, t=t, dt=dt)


@dataclass
class SamplingConfig:
    pairs_per_traj: int = 100
    dt_cap: float = DEFAULT_DT_CAP

    def __post_init__(self):
        if self.pairs_per_traj < 1:
            raise ValueError("pairs_per_traj must be >= 1")
        if not self.dt_cap > DEFAULT_EDGES[-1]:
            raise ValueError(f"dt_cap must exceed {DEFAULT_EDGES[-1]}")


@dataclass
class ValidationReport:
    pairs_train: int
    pairs_val: int
    accuracy: float
    confusion: list[list[int]] = field(default_factory=list)


def train_progress_model(
    ds: Dataset,
    bins: TemporalBins,
    nn_cfg: nn.TrainConfig,
    sampling: SamplingConfig | None = None,
    hidden_sizes: tuple[int, ...] = (64, 64),
) -> tuple[nn.MlpClassifier, ValidationReport]:
    """Sample pairs, train the bin classifier, report held-out accuracy.

    The 90/10 validation split is by trajectory, not by pair, so near-twin
    frames of one trajectory cannot leak across the split. ``nn_cfg.seed``
    seeds the pair sampling and the split as well as the training.
    """
    sampling = sampling or SamplingConfig()
    pairs = sample_training_pairs(ds, bins, sampling.pairs_per_traj, sampling.dt_cap, nn_cfg.seed)
    if not pairs:
        raise EmptyTrainingSet("no trainable pairs in dataset")

    # shuffle the trajectories that own pairs, taken in id order
    owners = sorted(np.flatnonzero(np.bincount(pairs.traj)).tolist(), key=lambda k: ds.trajectories[k].id)
    rng = np.random.default_rng(nn_cfg.seed)
    order = np.array(owners)[rng.permutation(len(owners))]
    num_val = max(1, int(np.floor(0.1 * len(owners)))) if len(owners) >= 2 else 0
    held_out = np.zeros(len(ds.trajectories), dtype=bool)
    held_out[order[:num_val]] = True
    in_val = held_out[pairs.traj]
    train_rows = np.flatnonzero(~in_val)
    if not train_rows.size:
        raise EmptyTrainingSet("validation split consumed every pair")

    # a stable partition without a copy of the training rows: the held-out
    # rows are copied aside, then the training rows and labels move, in order
    # and a block at a time, to the front of x and y, which SGD reads as
    # prefix views
    x, y, n_train = pairs.x, pairs.label, train_rows.size
    del pairs  # the other columns are not needed for training
    x_val, truth = x[in_val], y[in_val]
    for lo in range(0, n_train, _PARTITION_ROWS):
        rows = train_rows[lo : lo + _PARTITION_ROWS]
        x[lo : lo + rows.size], y[lo : lo + rows.size] = x[rows], y[rows]
    del train_rows
    model = nn.init_mlp([ds.obs_dim, *hidden_sizes, bins.num_bins], seed=nn_cfg.seed)
    model = nn.train(model, x[:n_train], y[:n_train], nn_cfg)
    del x, y  # the training rows go before the validation forward

    b = bins.num_bins
    confusion = np.zeros((b, b), dtype=np.int64)
    n_val = truth.size
    if n_val:
        preds = np.argmax(nn.forward(model, x_val), axis=1)
        np.add.at(confusion, (truth, preds), 1)
        accuracy = float(np.mean(preds == truth))
    else:
        accuracy = float("nan")
    report = ValidationReport(
        pairs_train=n_train,
        pairs_val=n_val,
        accuracy=accuracy,
        confusion=confusion.tolist(),
    )
    return model, report


def progress_from_deltas(model: nn.MlpClassifier, bins: TemporalBins, deltas: np.ndarray,
                         mode: str = "expectation") -> np.ndarray:
    """T_p for each row of the (n, D) delta features, in seconds."""
    probs = nn.forward(model, deltas)
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
