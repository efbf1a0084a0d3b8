"""Per-transition suboptimality scoring.

The pipeline per trajectory: score every sliding window as seconds of lag
(window length minus predicted progress), average the windows touching each
frame, accumulate with a temporal discount so isolated spikes bleed into
their neighborhood, then blend each frame's score with the trajectory mean.
Frames whose final score exceeds ``epsilon_s`` are flagged for deletion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import EmptyScores
from .progress import TemporalBins, progress_from_deltas
from .trajstore import (
    SUBOPTIMAL,
    UNCHUNKED_SENTINEL,
    CurationMask,
    Dataset,
    Trajectory,
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
    """One trajectory's scores: one per window of ``window`` frames, every
    ``cfg.stride_frames``, and the final one per frame. The stages between,
    ``sample_scores`` and ``discounted``, are recomputed when read."""

    traj_id: str
    window_scores: np.ndarray
    final: np.ndarray
    window: int = field(kw_only=True)
    cfg: SuboptConfig = field(kw_only=True)

    @property
    def sample_scores(self) -> np.ndarray:
        starts = np.arange(0, self.final.size - self.window + 1, self.cfg.stride_frames)
        return aggregate_sample_scores(self.window_scores, self.window, self.final.size, starts)

    @property
    def discounted(self) -> np.ndarray:
        return discount_scores(self.sample_scores, self.cfg.gamma, self.cfg.discount_direction)


def aggregate_sample_scores(
    window_scores: np.ndarray,
    w: int,
    traj_len: int,
    starts: np.ndarray,
) -> np.ndarray:
    """Average of all windows whose start falls in [i-w, i], per frame i;
    ``starts`` holds each window's first frame, ascending.

    Near trajectory edges fewer windows exist; the average is over however
    many are actually there, so edge frames are not systematically
    under-scored. Frames covered by no window score 0.
    """
    scores = np.asarray(window_scores, dtype=np.float64)
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


def score_trajectory(traj: Trajectory, model: nn.MlpClassifier, bins: TemporalBins,
                     cfg: SuboptConfig) -> tuple[ScoreSeries, np.ndarray]:
    """Full scoring pipeline for one trajectory: (series, drop flags)."""
    n, step, w = traj.num_frames, cfg.stride_frames, seconds_to_frames(cfg.window_seconds, traj.fps)
    count = len(range(0, n - w + 1, step))
    windows = np.empty(0)
    if count:
        obs = traj.frames()[0]
        # dtype=float64 widens both frames before subtracting, as astype would
        deltas = np.subtract(obs[w - 1 :: step], obs[: n - w + 1 : step], dtype=np.float64)
        windows = progress_from_deltas(model, bins, deltas, cfg.progress_mode)
        np.subtract(cfg.window_seconds, windows, out=windows)
    series = ScoreSeries(traj.id, windows, np.empty(n), window=w, cfg=cfg)
    if n:
        series.final = mix_scores(series.discounted, cfg.mix_weight)
    return series, subopt_mask(series.final, cfg.epsilon_s, has_windows=count > 0)


def score_dataset(
    ds: Dataset, model: nn.MlpClassifier, bins: TemporalBins, cfg: SuboptConfig, *, series: bool = True
) -> tuple[list[ScoreSeries], CurationMask]:
    """Score every trajectory in order. Dataset-wide, only the mask's final scores
    (each series' ``final`` is a view of its slice), drop flags and, unless ``series``
    is False (the list is then empty), the series' window scores are held."""
    bounds = ds.frame_bounds()
    final = np.empty(bounds[-1])
    keep = np.empty(bounds[-1], dtype=bool)
    reason = np.zeros(bounds[-1], dtype=np.uint8)
    series_list = []
    for traj, lo, hi in zip(ds.trajectories, bounds.tolist(), bounds[1:].tolist()):
        one, drop = score_trajectory(traj, model, bins, cfg)
        part = slice(lo, hi)
        final[part] = one.final
        one.final = final[part]
        np.logical_not(drop, out=keep[part])
        reason[part][drop] = SUBOPTIMAL
        if series:
            series_list.append(one)
    ids = tuple(t.id for t in ds.trajectories)
    # no frame is covered by a chunk here: a read-only broadcast holds no memory
    return series_list, CurationMask(ids, bounds, keep, reason, final, np.broadcast_to(UNCHUNKED_SENTINEL, final.shape))


def subopt_report(mask: CurationMask, cfg: SuboptConfig) -> dict:
    """Summary suitable for JSON: histogram of the mask's scores plus deletion ratio."""
    scores, histogram = mask.subopt_score, {"bin_edges": [], "counts": []}
    if scores.size:  # np.histogram(scores, bins=64), a block at a time: no full-size temporaries
        span, counts = (float(scores.min()), float(scores.max())), 0
        for lo in range(0, scores.size, 4096):
            part, edges = np.histogram(scores[lo : lo + 4096], bins=64, range=span)
            counts = counts + part
        histogram = {"bin_edges": edges.tolist(), "counts": counts.tolist()}
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
