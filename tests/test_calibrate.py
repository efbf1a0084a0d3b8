"""Threshold/ratio calibration and mask combination."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trajcurate.calibrate import (
    RatioCurve,
    calibration_report,
    combine_masks,
    dedup_ratio_curve,
    invert_sampled_curve,
    ratio_curve,
    threshold_for_ratio,
)
from trajcurate.dedup import DedupConfig
from trajcurate.errors import EmptyScores, MaskShapeMismatch
from trajcurate.trajstore import REASONS, CurationMask, TrajectoryMask

from conftest import make_dataset


def oracle_threshold(scores, target):
    """Best achievable (threshold, ratio) by trying every candidate cut."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    candidates = [float(np.nextafter(scores.min(), -np.inf))] + sorted(set(scores.tolist()))
    best = (None, -1.0)
    for theta in candidates:
        r = float(np.mean(scores > theta))
        if r <= target and r > best[1]:
            best = (theta, r)
    return best[1]


# --- ratio curves -------------------------------------------------------------


def test_ratio_curve_strict_inequality():
    curve = ratio_curve(np.array([0.1, 0.5, 0.9]), np.array([0.5]))
    # the score equal to the threshold is kept
    assert curve.points == [(0.5, pytest.approx(1 / 3))]


def test_ratio_curve_extremes():
    scores = np.array([0.2, 0.4, 0.6])
    curve = ratio_curve(scores, np.array([0.0, 0.6, 1.0]))
    assert dict(curve.points)[0.0] == 1.0   # below the minimum drops all
    assert dict(curve.points)[0.6] == 0.0   # at the maximum keeps all
    assert dict(curve.points)[1.0] == 0.0


def test_ratio_curve_sorted_and_monotone():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=500)
    grid = rng.uniform(-3, 3, size=21)
    curve = ratio_curve(scores, grid)
    assert [t for t, _ in curve.points] == sorted(grid.tolist())
    assert curve.is_monotone()


def test_ratio_curve_empty():
    with pytest.raises(EmptyScores):
        ratio_curve(np.empty(0), np.array([0.5]))


@given(seed=st.integers(0, 2**16), n=st.integers(1, 200))
@settings(max_examples=50)
def test_ratio_curve_monotone_property(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    grid = rng.uniform(-3, 3, size=15)
    assert ratio_curve(scores, grid).is_monotone()


def test_is_monotone_detects_violations():
    bad = RatioCurve("suboptimal", [(0.0, 0.2), (1.0, 0.5)])
    assert not bad.is_monotone()


# --- exact inversion ------------------------------------------------------------


def test_threshold_for_ratio_pins():
    scores = np.array([0.1, 0.5, 0.9])
    theta, achieved = threshold_for_ratio(scores, 1 / 3)
    assert (theta, achieved) == (0.5, pytest.approx(1 / 3))

    # target 0 keeps everything: threshold at the maximum
    theta, achieved = threshold_for_ratio(scores, 0.0)
    assert theta == 0.9 and achieved == 0.0

    # target 1 drops everything: one ulp below the minimum
    theta, achieved = threshold_for_ratio(scores, 1.0)
    assert theta == np.nextafter(0.1, -np.inf) and achieved == 1.0


def test_threshold_for_ratio_hits_uniform_target_exactly():
    rng = np.random.default_rng(1)
    scores = rng.permutation(np.linspace(0, 1, 100))  # 100 distinct values
    theta, achieved = threshold_for_ratio(scores, 0.30)
    assert achieved == pytest.approx(0.30)
    assert float(np.mean(scores > theta)) == pytest.approx(0.30)


def test_threshold_for_ratio_with_ties_undershoots():
    scores = np.full(10, 2.0)
    theta, achieved = threshold_for_ratio(scores, 0.5)
    # all scores tie: the only achievable ratios are 0 and 1
    assert achieved == 0.0 and theta == 2.0


def test_threshold_for_ratio_validation():
    with pytest.raises(EmptyScores):
        threshold_for_ratio(np.empty(0), 0.5)
    with pytest.raises(ValueError):
        threshold_for_ratio(np.array([1.0]), 1.5)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 120),
    target=st.floats(0.0, 1.0),
    dup=st.booleans(),
)
@settings(max_examples=80)
@example(seed=0, n=50, target=0.58, dup=False)  # 0.58 * 50 rounds to just under 29
def test_threshold_for_ratio_matches_oracle(seed, n, target, dup):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if dup and n >= 4:
        scores[: n // 2] = scores[n // 2 : 2 * (n // 2)]  # force ties
    theta, achieved = threshold_for_ratio(scores, target)
    assert achieved == float(np.mean(scores > theta))
    assert achieved <= target + 1e-15
    # no achievable ratio between ours and the target was skipped
    assert achieved == pytest.approx(oracle_threshold(scores, target))


# --- sampled-curve inversion -------------------------------------------------------


def test_invert_sampled_curve_picks_largest_feasible():
    curve = RatioCurve("dedup", [(0.2, 0.8), (0.5, 0.4), (0.8, 0.1)])
    assert invert_sampled_curve(curve, 0.45) == (0.5, 0.4)
    assert invert_sampled_curve(curve, 0.4) == (0.5, 0.4)
    assert invert_sampled_curve(curve, 0.05) == (0.8, 0.1)  # fallback: smallest ratio


def test_invert_sampled_curve_tie_takes_larger_threshold():
    curve = RatioCurve("dedup", [(0.3, 0.25), (0.6, 0.25), (0.9, 0.0)])
    assert invert_sampled_curve(curve, 0.3) == (0.6, 0.25)


def test_invert_sampled_curve_empty():
    with pytest.raises(EmptyScores):
        invert_sampled_curve(RatioCurve("dedup", []), 0.5)


@given(seed=st.integers(0, 2**16), target=st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_invert_sampled_curve_property(seed, target):
    rng = np.random.default_rng(seed)
    pts = sorted((float(t), float(r)) for t, r in zip(rng.uniform(0, 1, 9), rng.uniform(0, 1, 9)))
    curve = RatioCurve("dedup", pts)
    theta, achieved = invert_sampled_curve(curve, target)
    assert (theta, achieved) in [(t, r) for t, r in pts]
    feasible = [r for _, r in pts if r <= target]
    if feasible:
        assert achieved == max(feasible)
    else:
        assert achieved == min(r for _, r in pts)


# --- dedup curve -----------------------------------------------------------------


def test_dedup_ratio_curve_replays_masking():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, num_traj=4, n=40, fps=10.0)
    # two exact twins ensure a high-similarity pair exists
    ds.trajectories[1].obs = ds.trajectories[0].obs.copy()
    ds.trajectories[1].actions = ds.trajectories[0].actions.copy()
    cfg = DedupConfig(k=2)
    curve = dedup_ratio_curve(ds, cfg, np.array([-1.0, 0.9999, 2.0]))
    ratios = dict(curve.points)
    # above any cosine nothing is dropped; at -1 keep-one drops all but one per cluster
    assert ratios[2.0] == 0.0
    assert ratios[-1.0] > ratios[0.9999] >= 2 * 20 / (4 * 40) - 1e-12
    assert curve.is_monotone()
    assert curve.method == "dedup"


def test_dedup_ratio_curve_empty_dataset():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, num_traj=1, n=5, fps=10.0)  # too short to chunk
    with pytest.raises(EmptyScores):
        dedup_ratio_curve(ds, DedupConfig(), np.array([0.5]))


# --- mask combination ----------------------------------------------------------------


def _mask_from_bits(tid, drops, reason):
    n = len(drops)
    return TrajectoryMask(
        traj_id=tid,
        keep=[not d for d in drops],
        reason=[reason if d else "" for d in drops],
        subopt_score=np.arange(n, dtype=np.float64),
        dup_similarity=np.full(n, 0.5),
    )


def _cm(drops_by_tid, reason):
    return CurationMask(masks={
        tid: _mask_from_bits(tid, drops, reason) for tid, drops in drops_by_tid.items()
    })


def drop_sets(cm):
    return {
        tid: frozenset(np.flatnonzero(~cm[tid].keep).tolist()) for tid in cm.masks
    }


def test_combine_masks_reasons():
    sub = _cm({"a": [True, True, False, False]}, "suboptimal")
    dup = _cm({"a": [True, False, True, False]}, "duplicate")
    out = combine_masks(sub, dup)
    assert [REASONS[r] for r in out["a"].reason] == ["both", "suboptimal", "duplicate", ""]
    np.testing.assert_array_equal(out["a"].keep, [False, False, False, True])
    # scores come from their source masks
    np.testing.assert_array_equal(out["a"].subopt_score, sub["a"].subopt_score)
    np.testing.assert_array_equal(out["a"].dup_similarity, dup["a"].dup_similarity)


def test_combine_masks_identical_masks_mark_both():
    sub = _cm({"a": [True, False]}, "suboptimal")
    dup = _cm({"a": [True, False]}, "duplicate")
    out = combine_masks(sub, dup)
    assert [REASONS[r] for r in out["a"].reason] == ["both", ""]


def test_combine_masks_disjoint_ratios_add():
    # 100 frames: 10 suboptimal drops, 5 separate duplicate drops
    sub_bits = [i < 10 for i in range(100)]
    dup_bits = [50 <= i < 55 for i in range(100)]
    out = combine_masks(_cm({"a": sub_bits}, "suboptimal"), _cm({"a": dup_bits}, "duplicate"))
    assert out.deletion_ratio() == pytest.approx(0.15)
    assert out.dropped_frames(("suboptimal",)) == 10
    assert out.dropped_frames(("duplicate",)) == 5
    assert out.dropped_frames(("both",)) == 0


def test_combine_masks_overlap_identity():
    rng = np.random.default_rng(4)
    sub_bits = rng.random(60) < 0.3
    dup_bits = rng.random(60) < 0.3
    out = combine_masks(
        _cm({"a": sub_bits.tolist()}, "suboptimal"),
        _cm({"a": dup_bits.tolist()}, "duplicate"),
    )
    n_sub = out.dropped_frames(("suboptimal", "both"))
    n_dup = out.dropped_frames(("duplicate", "both"))
    n_both = out.dropped_frames(("both",))
    assert out.dropped_frames() == n_sub + n_dup - n_both


def test_combine_masks_shape_errors():
    with pytest.raises(MaskShapeMismatch):
        combine_masks(_cm({"a": [True]}, "suboptimal"), _cm({"b": [True]}, "duplicate"))
    with pytest.raises(MaskShapeMismatch):
        combine_masks(_cm({"a": [True]}, "suboptimal"), _cm({"a": [True, False]}, "duplicate"))


@given(
    a=st.lists(st.booleans(), min_size=1, max_size=25),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50)
def test_combine_masks_dropset_algebra(a, seed):
    """Union semantics: commutative, associative, idempotent on drop-sets."""
    rng = np.random.default_rng(seed)
    n = len(a)
    b = (rng.random(n) < 0.4).tolist()
    c = (rng.random(n) < 0.4).tolist()
    ma = _cm({"t": a}, "suboptimal")
    mb = _cm({"t": b}, "duplicate")
    mc = _cm({"t": c}, "duplicate")

    assert drop_sets(combine_masks(ma, mb)) == drop_sets(combine_masks(mb, ma))
    assert drop_sets(combine_masks(combine_masks(ma, mb), mc)) == drop_sets(
        combine_masks(ma, combine_masks(mb, mc))
    )
    assert drop_sets(combine_masks(ma, ma)) == drop_sets(ma)
    # and the union really is the set union
    assert drop_sets(combine_masks(ma, mb))["t"] == (
        drop_sets(ma)["t"] | drop_sets(mb)["t"]
    )


# --- report ---------------------------------------------------------------------------


def test_calibration_report_shape():
    curve = RatioCurve("suboptimal", [(0.1, 0.9), (0.9, 0.1)])
    ops = [{"method": "suboptimal", "target_ratio": 0.2, "threshold": 0.5, "achieved_ratio": 0.2}]
    report = calibration_report([curve], ops)
    assert report["format_version"] == 1
    assert report["curves"][0]["method"] == "suboptimal"
    assert report["curves"][0]["points"] == [[0.1, 0.9], [0.9, 0.1]]
    assert report["operating_points"] == ops
