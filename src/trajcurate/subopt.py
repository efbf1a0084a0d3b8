"""Per-transition suboptimality scoring.

The pipeline per trajectory: score every sliding window as seconds of lag
(window length minus predicted progress), average the windows touching each
frame, accumulate with a temporal discount so isolated spikes bleed into
their neighborhood, then blend each frame's score with the trajectory mean.
Frames whose final score exceeds ``epsilon_s`` are flagged for deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import EmptyScores
from .progress import TemporalBins, progress_from_deltas
from .trajstore import (
    SUBOPTIMAL,
    CurationMask,
    Dataset,
    Trajectory,
    TrajectoryMask,
    seconds_to_frames,
)


@dataclass
class SuboptConfig:
    """Knobs for the scoring pipeline.

    ``epsilon_s`` only has meaning relative to ``gamma``: discounting with a
    larger gamma inflates every score, so the two must be tuned as a pair.
    ``discount_direction`` chooses whether evidence flows from past frames
    into later ones ("past", the default) or the reverse ("future").
    """

    window_seconds: float = 2.0
    stride_frames: int = 1
    gamma: float = 0.9
    mix_weight: float = 0.5
    epsilon_s: float = 0.58
    discount_direction: str = "past"
    progress_mode: str = "expectation"

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if not (0.0 <= self.mix_weight <= 1.0):
            raise ValueError("mix_weight must lie in [0, 1]")
        if self.stride_frames < 1:
            raise ValueError("stride_frames must be >= 1")
        if self.discount_direction not in ("past", "future"):
            raise ValueError("discount_direction must be 'past' or 'future'")
        if self.progress_mode not in ("expectation", "argmax"):
            raise ValueError("progress_mode must be 'expectation' or 'argmax'")


@dataclass
class ScoreSeries:
    """All intermediate score arrays for one trajectory.

    ``window_scores`` has one entry per sliding window; the remaining arrays
    have one entry per frame.
    """

    traj_id: str
    window_scores: np.ndarray
    sample_scores: np.ndarray
    discounted: np.ndarray
    final: np.ndarray


def aggregate_sample_scores(
    window_scores: np.ndarray,
    w: int,
    traj_len: int,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Average of all windows whose start falls in [i-w, i], per frame i.

    Near trajectory edges fewer windows exist; the average is over however
    many are actually there, so edge frames are not systematically
    under-scored. Frames covered by no window score 0. ``starts`` defaults
    to the dense stride-1 grid.
    """
    scores = np.asarray(window_scores, dtype=np.float64)
    num_windows = scores.shape[0]
    if num_windows == 0:
        return np.zeros(traj_len)
    if starts is None:
        starts = np.arange(num_windows)
    csum = np.concatenate([[0.0], np.cumsum(scores)])
    i = np.arange(traj_len)
    lo = np.searchsorted(starts, i - w, side="left")
    hi = np.searchsorted(starts, i, side="right")
    out = np.zeros(traj_len)
    covered = hi > lo
    out[covered] = (csum[hi[covered]] - csum[lo[covered]]) / (hi[covered] - lo[covered])
    return out


def discount_scores(v_hat: np.ndarray, gamma: float, direction: str = "past") -> np.ndarray:
    """Exponentially accumulated scores: V_i = v̂_i + γ·V_{i−1}.

    ``direction="future"`` runs the same recurrence from the end of the
    trajectory backward, so late evidence surfaces in earlier frames. The
    loop runs on Python floats: the IEEE float64 operations numpy's scalars do.
    """
    v_hat = np.asarray(v_hat, dtype=np.float64)
    if direction == "future":
        return discount_scores(v_hat[::-1], gamma, "past")[::-1]
    acc, gamma, values = 0.0, float(gamma), v_hat.tolist()
    for i, v in enumerate(values):
        values[i] = acc = v + gamma * acc
    return np.array(values, dtype=np.float64)


def mix_scores(discounted: np.ndarray, w: float = 0.5) -> np.ndarray:
    """Blend each frame with its trajectory mean: w·mean + (1−w)·V_i."""
    v = np.asarray(discounted, dtype=np.float64)
    if v.size == 0:
        raise EmptyScores("cannot mix an empty score series")
    return w * v.mean() + (1.0 - w) * v


def subopt_mask(final: np.ndarray, epsilon_s: float, has_windows: bool = True) -> np.ndarray:
    """Boolean drop flags: strictly above the threshold.

    Trajectories too short to contain a single window carry no usable
    evidence, so their frames are never dropped (``has_windows=False``).
    """
    final = np.asarray(final, dtype=np.float64)
    if not has_windows:
        return np.zeros(final.shape, dtype=bool)
    return final > epsilon_s


def score_trajectory(
    traj: Trajectory,
    model: nn.MlpClassifier,
    bins: TemporalBins,
    cfg: SuboptConfig,
) -> tuple[ScoreSeries, np.ndarray]:
    """Full scoring pipeline for one trajectory: (series, drop flags)."""
    n = traj.num_frames
    w = seconds_to_frames(cfg.window_seconds, traj.fps)
    starts = np.arange(0, n - w + 1, cfg.stride_frames) if n >= w else np.empty(0, dtype=int)
    if starts.size:
        # dtype=float64 widens both frames before subtracting, as astype would
        step = cfg.stride_frames
        deltas = np.subtract(traj.obs[w - 1 :: step], traj.obs[: n - w + 1 : step], dtype=np.float64)
        t_p = progress_from_deltas(model, bins, deltas, cfg.progress_mode)
        ws = cfg.window_seconds - t_p
    else:
        ws = np.empty(0)
    v_hat = aggregate_sample_scores(ws, w, n, starts)
    v = discount_scores(v_hat, cfg.gamma, cfg.discount_direction)
    final = mix_scores(v, cfg.mix_weight) if n else np.empty(0)
    drop = subopt_mask(final, cfg.epsilon_s, has_windows=starts.size > 0)
    series = ScoreSeries(traj.id, ws, v_hat, v, final)
    return series, drop


def score_dataset(
    ds: Dataset, model: nn.MlpClassifier, bins: TemporalBins, cfg: SuboptConfig
) -> tuple[list[ScoreSeries], CurationMask]:
    """Score every trajectory in order. Each per-frame array of the series and
    masks is a view into one dataset-wide array, filled a trajectory at a time."""
    bounds = np.cumsum([0, *(t.num_frames for t in ds.trajectories)]).tolist()
    sample, discounted, final = (np.empty(bounds[-1]) for _ in range(3))
    keep = np.empty(bounds[-1], dtype=bool)
    reason = np.zeros(bounds[-1], dtype=np.uint8)
    dup_similarity = np.full(bounds[-1], -1.0)
    series_list = []
    masks = {}
    for traj, lo, hi in zip(ds.trajectories, bounds, bounds[1:]):
        series, drop = score_trajectory(traj, model, bins, cfg)
        part = slice(lo, hi)
        sample[part], discounted[part], final[part] = series.sample_scores, series.discounted, series.final
        np.logical_not(drop, out=keep[part])
        reason[part][drop] = SUBOPTIMAL
        series_list.append(ScoreSeries(traj.id, series.window_scores, sample[part], discounted[part], final[part]))
        masks[traj.id] = TrajectoryMask(traj.id, keep[part], reason[part], final[part], dup_similarity[part])
    return series_list, CurationMask(masks=masks)


def subopt_report(series_list: list[ScoreSeries], mask: CurationMask, cfg: SuboptConfig) -> dict:
    """Summary suitable for JSON: score histogram plus deletion ratio."""
    finals = (
        np.concatenate([s.final for s in series_list])
        if series_list
        else np.empty(0)
    )
    if finals.size:
        counts, edges = np.histogram(finals, bins=64)
        histogram = {"bin_edges": edges.tolist(), "counts": counts.tolist()}
    else:
        histogram = {"bin_edges": [], "counts": []}
    total, dropped = mask.total_frames, mask.dropped_frames()
    return {
        "format_version": 1,
        "epsilon_s": cfg.epsilon_s,
        "gamma": cfg.gamma,
        "mix_weight": cfg.mix_weight,
        "window_seconds": cfg.window_seconds,
        "num_frames": total,
        "dropped_frames": dropped,
        "deletion_ratio": dropped / total if total else 0.0,
        "score_histogram": histogram,
    }
