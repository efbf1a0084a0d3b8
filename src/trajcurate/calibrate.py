"""Threshold ↔ deletion-ratio analysis and mask combination.

Shipping thresholds tuned elsewhere rarely transfer across feature spaces,
so the supported workflow is: sweep a threshold grid into a ratio curve,
pick the threshold matching a target deletion ratio, then merge the
suboptimality and duplicate masks into one curation decision per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dedup import Chunks, ClusterModel, DedupConfig, _keep_one_drops
from .errors import EmptyScores, MaskShapeMismatch
from .trajstore import DUPLICATE, SUBOPTIMAL, CurationMask, Dataset


@dataclass
class RatioCurve:
    """Deletion ratio as a function of threshold, sampled on a grid."""

    method: str                          # "suboptimal" or "dedup"
    points: list[tuple[float, float]]    # (threshold, deletion_ratio)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "points": [[float(t), float(r)] for t, r in self.points],
        }

    def is_monotone(self) -> bool:
        ratios = [r for _, r in sorted(self.points)]
        return all(a >= b for a, b in zip(ratios, ratios[1:]))


def ratio_curve(scores: np.ndarray, thresholds: np.ndarray) -> RatioCurve:
    """Fraction of scores strictly above each threshold (remove-above)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyScores("ratio curve needs at least one score")
    points = [(float(t), float(np.mean(s > t))) for t in sorted(np.asarray(thresholds, dtype=np.float64))]
    return RatioCurve(method="suboptimal", points=points)


def dedup_ratio_curve(
    ds: Dataset,
    cfg: DedupConfig,
    thresholds: np.ndarray,
    clustered: tuple[Chunks, np.ndarray, ClusterModel, np.ndarray],
) -> RatioCurve:
    """Deletion ratio per threshold, from one replay of the keep-one rule.

    The greedy rule makes the drop-set depend on the threshold in a way raw
    score exceedance does not, so the masking is replayed for every grid
    point together over the Gram blocks of each cluster in ``clustered``,
    the ``cluster_dataset`` result, which the caller computes once. Chunks
    tile without overlap, so a threshold's dropped frames are its dropped
    chunks' spans summed.
    """
    chunks, features, model, scores = clustered
    if not chunks:
        raise EmptyScores("no chunks to sweep")
    grid = np.sort(np.asarray(thresholds, dtype=np.float64), kind="stable")
    if cfg.drop_all_over_threshold:
        drop = np.asarray(scores) > grid[:, None]
    else:
        drop = _keep_one_drops(ds, chunks, features, model, grid)
    dropped = drop @ chunks.span
    total = sum(t.num_frames for t in ds.trajectories)
    points = [(t, d / total if total else 0.0) for t, d in zip(grid.tolist(), dropped.tolist())]
    return RatioCurve(method="dedup", points=points)


def threshold_for_ratio(scores: np.ndarray, target_ratio: float) -> tuple[float, float]:
    """Exact order-statistic threshold: largest achievable ratio ≤ target.

    Returns (threshold, achieved_ratio). With remove-above semantics the
    achievable ratios are the jump points of the empirical survival
    function; sorting descending and indexing at floor(target·n) lands on
    the tightest one. target 1.0 needs a threshold strictly below the
    minimum score, taken one ulp under it.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyScores("cannot calibrate an empty score set")
    if not (0.0 <= target_ratio <= 1.0):
        raise ValueError(f"target_ratio {target_ratio} outside [0, 1]")
    ordered = np.sort(s)[::-1]
    n = s.size
    m = int(np.floor(target_ratio * n))
    # target·n can round across an integer: m is the largest count with m / n <= target
    if m < n and (m + 1) / n <= target_ratio:
        m += 1
    elif m / n > target_ratio:
        m -= 1
    if m >= n:
        theta = float(np.nextafter(ordered[-1], -np.inf))
    else:
        theta = float(ordered[m])
    achieved = float(np.mean(s > theta))
    return theta, achieved


def invert_sampled_curve(curve: RatioCurve, target_ratio: float) -> tuple[float, float]:
    """Operating point from a sampled curve: the point with the largest
    ratio ≤ target (ties → larger threshold). Falls back to the smallest
    sampled ratio when every point overshoots."""
    if not curve.points:
        raise EmptyScores("empty ratio curve")
    feasible = [(r, t) for t, r in curve.points if r <= target_ratio]
    if feasible:
        best_r = max(r for r, _ in feasible)
        best_t = max(t for r, t in feasible if r == best_r)
        return best_t, best_r
    r, t = min((r, -t) for t, r in curve.points)
    return -t, r


def combine_masks(subopt: CurationMask, dup: CurationMask) -> CurationMask:
    """Union of drop decisions; kept frames stay kept only if both agree.

    Both masks must list the same ids in the same order with the same bounds.
    Scores are carried over from their source mask: suboptimality scores
    from the first argument, duplicate similarities from the second.
    """
    if subopt.ids != dup.ids or not np.array_equal(subopt.bounds, dup.bounds):
        raise MaskShapeMismatch("the masks differ in their ids, the order of the ids or the frame counts")
    drop_s, drop_d = ~subopt.keep, ~dup.keep
    return CurationMask(subopt.ids, subopt.bounds, keep=~(drop_s | drop_d),
                        reason=drop_s * np.uint8(SUBOPTIMAL) | drop_d * np.uint8(DUPLICATE),
                        subopt_score=subopt.subopt_score, dup_similarity=dup.dup_similarity)


def calibration_report(
    curves: list[RatioCurve],
    operating_points: list[dict],
) -> dict:
    """JSON-ready summary: sampled curves plus chosen operating points."""
    return {
        "format_version": 1,
        "curves": [c.to_dict() for c in curves],
        "operating_points": operating_points,
    }
