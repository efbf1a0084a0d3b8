"""Synthetic benchmark generator and its ground-truth evaluation helpers."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate.errors import InvalidConfig, ShapeMismatch
from trajcurate.synthgen import (
    ANOMALY_TYPES,
    GroundTruth,
    SynthConfig,
    auroc,
    evaluate_masks,
    generate,
    separation_self_check,
)
from trajcurate.trajstore import CurationMask, Dataset, Trajectory, TrajectoryMask


SMALL = SynthConfig(
    num_traj=24,
    frames_per_traj=200,
    obs_dim=24,
    anomaly_rates={t: 0.125 for t in ANOMALY_TYPES},
    duplicate_rate=0.05,
    seed=3,
)


@pytest.fixture(scope="module")
def small_benchmark():
    return generate(SMALL)


def kind_of(gt, tid):
    segs = gt.anomaly_segments[tid]
    return segs[0][2] if segs else "clean"


def _traj(ds, tid):
    return next(t for t in ds.trajectories if t.id == tid)


def oracle_auroc(scores, labels):
    """Pair-counting Mann-Whitney estimate, ties at half credit."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    if not pos or not neg:
        return float("nan")
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


# --- config -------------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"num_traj": 0},
    {"frames_per_traj": 1},
    {"fps": 0.0},
    {"obs_dim": 0},
    {"action_dim": 0},
    {"noise_sigma": -0.1},
    {"chunk_seconds": 0.0},
    {"duplicate_rate": 1.5},
    {"anomaly_rates": {"pause": -0.1}},
    {"anomaly_rates": {"teleport": 0.1}},
    {"anomaly_rates": {t: 0.3 for t in ANOMALY_TYPES}},  # sums to 1.2
    {"phase_gain": 0.0},
    {"phase_turns": 0.0},
    {"phase_turns": 1.2},
    {"context_scale": -1.0},
])
def test_config_validation(kw):
    with pytest.raises(InvalidConfig):
        SynthConfig(**kw)


def test_default_config_is_clean():
    cfg = SynthConfig()
    assert all(v == 0.0 for v in cfg.anomaly_rates.values())
    assert cfg.duplicate_rate == 0.05


# --- determinism and shape ---------------------------------------------------------


def test_generate_deterministic():
    ds1, gt1 = generate(SMALL)
    ds2, gt2 = generate(SMALL)
    for a, b in zip(ds1.trajectories, ds2.trajectories):
        assert a.id == b.id and a.labels == b.labels
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)
    assert gt1.to_dict() == gt2.to_dict()


def test_generate_seed_changes_data():
    ds1, _ = generate(SMALL)
    ds2, _ = generate(SynthConfig(**{**SMALL.__dict__, "seed": 4}))
    assert not np.array_equal(ds1.trajectories[0].obs, ds2.trajectories[0].obs)


def test_generate_shapes(small_benchmark):
    ds, gt = small_benchmark
    assert len(ds) == 24
    assert ds.obs_dim == 24 and ds.action_dim == 2
    for traj in ds.trajectories:
        assert traj.num_frames == 200
        assert traj.fps == 10.0
        assert traj.obs.dtype == np.float32
        # per-frame labels mirror the ground-truth anomaly tags
        assert traj.labels == gt.frame_tags[traj.id]
    assert gt.chunk_span == 20
    assert all(len(g) == 10 for g in gt.chunk_groups.values())


def test_anomaly_counts_match_rates(small_benchmark):
    _, gt = small_benchmark
    by_kind = {}
    for tid in gt.frame_tags:
        k = kind_of(gt, tid)
        by_kind[k] = by_kind.get(k, 0) + 1
    # 12.5% of 24 = 3 per type
    assert all(by_kind[t] == 3 for t in ANOMALY_TYPES)
    assert by_kind["clean"] == 12


# --- phase semantics -----------------------------------------------------------------


def _segments_by_kind(gt):
    out = {t: [] for t in ANOMALY_TYPES}
    for tid, segs in gt.anomaly_segments.items():
        for a, b, kind in segs:
            out[kind].append((tid, a, b))
    return out


def test_clean_phase_strictly_increasing(small_benchmark):
    # planted chunks rewrite φ over their span (the content really is the
    # source's moment), so end-to-end strictness holds for clean
    # trajectories that carry no planted chunk
    ds, gt = small_benchmark
    unplanted = 0
    for traj in ds.trajectories:
        if kind_of(gt, traj.id) != "clean" or any(gt.chunk_groups[traj.id]):
            continue
        unplanted += 1
        phi = gt.phi[traj.id]
        assert phi[0] == 0.0
        assert phi[-1] == pytest.approx(1.0, abs=1e-9)
        assert (np.diff(phi) > 0).all()
    assert unplanted > 0


def test_clean_phase_strictly_increasing_outside_planted_spans(small_benchmark):
    ds, gt = small_benchmark
    w = gt.chunk_span
    for traj in ds.trajectories:
        if kind_of(gt, traj.id) != "clean":
            continue
        phi = gt.phi[traj.id]
        planted = np.zeros(traj.num_frames, bool)
        for c, gid in enumerate(gt.chunk_groups[traj.id]):
            if gid:
                planted[c * w : (c + 1) * w] = True
        # a diff is untouched when neither endpoint is inside a planted span
        diffs = np.diff(phi)
        clean_diff = ~planted[:-1] & ~planted[1:]
        assert (diffs[clean_diff] > 0).all()


def test_tags_cover_exactly_the_segments(small_benchmark):
    _, gt = small_benchmark
    for tid, tags in gt.frame_tags.items():
        expected = ["clean"] * len(tags)
        for a, b, kind in gt.anomaly_segments[tid]:
            assert 0 <= a < b <= len(tags)
            for f in range(a, b):
                expected[f] = kind
        assert tags == expected


def test_pause_freezes_phase_and_actions(small_benchmark):
    ds, gt = small_benchmark
    segs = _segments_by_kind(gt)["pause"]
    assert segs
    for tid, a, b in segs:
        phi = gt.phi[tid]
        np.testing.assert_array_equal(phi[a:b], phi[a])
        # frozen φ means frozen position, so the planted actions are zero
        actions = _traj(ds, tid).actions
        np.testing.assert_array_equal(actions[a : b - 1], 0.0)


def test_slow_halves_progress(small_benchmark):
    _, gt = small_benchmark
    segs = _segments_by_kind(gt)["slow"]
    assert segs
    base = 1.0 / 199
    for tid, a, b in segs:
        phi = gt.phi[tid]
        m = b - a - 1
        assert phi[b - 1] - phi[a] == pytest.approx(0.5 * m * base, rel=1e-9)


def test_back_and_forth_never_runs_ahead(small_benchmark):
    _, gt = small_benchmark
    segs = _segments_by_kind(gt)["back_and_forth"]
    assert segs
    for tid, a, b in segs:
        phi = gt.phi[tid]
        # zero net progress across the oscillation
        assert phi[b - 1] == pytest.approx(phi[a], abs=1e-12)
        # and it retreats first, so φ stays at or below its entry value
        assert phi[a:b].max() <= phi[a] + 1e-12
        assert phi[a:b].min() < phi[a]


def test_failure_retry_slides_back(small_benchmark):
    _, gt = small_benchmark
    segs = _segments_by_kind(gt)["failure_retry"]
    assert segs
    for tid, a, b in segs:
        phi = gt.phi[tid]
        # the tagged slip gives back 0.2 of φ ...
        assert phi[b - 1] - phi[a] == pytest.approx(-0.2, abs=1e-9)
        # ... without ever dipping below the task start
        assert phi.min() >= 0.0
        # recovery runs at base rate afterwards, so the retry costs progress
        assert phi[-1] < 1.0
        # slips are short: 0.5-1 s
        assert 0.5 * 10 <= b - a <= 10 + 1


def test_anomalous_phase_never_negative(small_benchmark):
    _, gt = small_benchmark
    for phi in gt.phi.values():
        assert phi.min() >= 0.0


# --- planted duplicates -----------------------------------------------------------


def test_duplicate_groups_are_clean_pairs(small_benchmark):
    ds, gt = small_benchmark
    groups = gt.groups()
    assert groups
    for members in groups.values():
        assert len(members) == 2
        for tid, start in members:
            assert kind_of(gt, tid) == "clean"
            assert start % gt.chunk_span == 0


def test_duplicate_content_copied(small_benchmark):
    ds, gt = small_benchmark
    w = gt.chunk_span
    for members in gt.groups().values():
        (tid_a, a), (tid_b, b) = members
        traj_a, traj_b = _traj(ds, tid_a), _traj(ds, tid_b)
        obs_a = traj_a.obs[a : a + w].astype(np.float64).ravel()
        obs_b = traj_b.obs[b : b + w].astype(np.float64).ravel()
        cos = obs_a @ obs_b / (np.linalg.norm(obs_a) * np.linalg.norm(obs_b))
        assert cos > 0.999
        # actions are copied verbatim
        np.testing.assert_array_equal(
            traj_a.actions[a : a + w], traj_b.actions[b : b + w]
        )
        # and the target's ground-truth phase now mirrors the source's
        np.testing.assert_array_equal(
            gt.phi[tid_a][a : a + w], gt.phi[tid_b][b : b + w]
        )


def test_separation_self_check(small_benchmark):
    ds, gt = small_benchmark
    check = separation_self_check(ds, gt)
    assert check["num_chunks"] == 24 * 10
    # planted twins sit far above every unplanted pair
    assert check["planted_min_similarity"] > 0.99
    assert check["nonplanted_max_similarity"] < 0.99
    assert check["distinct_phase_max_similarity"] < 0.9
    assert check["action_weight"] > 0


def _dense_separation_check(ds, gt):
    """Reference: the same extremes from full chunks × chunks matrices."""
    from trajcurate.dedup import DedupConfig, chunk_dataset, compute_features

    cfg = DedupConfig(chunk_seconds=gt.chunk_span / ds.trajectories[0].fps)
    chunks = chunk_dataset(ds, cfg)
    features, lam = compute_features(ds, chunks, cfg)
    gid_of = {}
    for tid, gids in gt.chunk_groups.items():
        for c, gid in enumerate(gids):
            gid_of[(tid, c * gt.chunk_span)] = gid
    tids = [ds.trajectories[i].id for i in chunks.traj]
    ids = np.array([gid_of.get((tid, start), 0) for tid, start in zip(tids, chunks.start.tolist())])

    sims = features @ features.T
    np.fill_diagonal(sims, -np.inf)
    same_group = (ids[:, None] == ids[None, :]) & (ids[:, None] > 0)
    np.fill_diagonal(same_group, False)
    planted_min = float(sims[same_group].min()) if same_group.any() else float("nan")
    others = np.where(same_group, -np.inf, sims)
    others_max = float(others.max())

    phases = []
    for tid, start, span in zip(tids, chunks.start, chunks.span):
        phi = gt.phi.get(tid)
        mid = start + span // 2
        phases.append(phi[mid] if phi is not None else np.nan)
    phases = np.array(phases)
    far_phase = np.abs(phases[:, None] - phases[None, :]) > 0.3
    far_max = float(others[far_phase].max()) if far_phase.any() else float("nan")
    return {
        "action_weight": lam,
        "num_chunks": len(chunks),
        "planted_min_similarity": planted_min,
        "nonplanted_max_similarity": others_max,
        "distinct_phase_max_similarity": far_max,
    }


@pytest.mark.parametrize("block_elems", [1, 7 * 240, 1 << 18])
def test_separation_self_check_blocks_match_dense(small_benchmark, monkeypatch, block_elems):
    # 1 entry gives one row per block; 7 * 240 gives 7-row blocks, the last
    # one partial; the default fits all 240 chunks in one block.
    from trajcurate import synthgen

    ds, gt = small_benchmark
    monkeypatch.setattr(synthgen, "_CHECK_BLOCK_ELEMS", block_elems)
    got = separation_self_check(ds, gt)
    want = _dense_separation_check(ds, gt)
    assert got["num_chunks"] == want["num_chunks"]
    assert got["action_weight"] == want["action_weight"]
    # a row block's matrix product may round differently from the full one
    for key in ("planted_min_similarity", "nonplanted_max_similarity",
                "distinct_phase_max_similarity"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12)


def test_separation_self_check_matches_dense_off_the_planted_grid(small_benchmark):
    """A copy of a planted trajectory at 1.5× its fps has 1.5× longer chunks,
    so only every other one starts on the planted grid: that one takes the
    group planted there, the others none, as in the per-chunk lookup."""
    ds, gt = small_benchmark
    src = next(t for t in ds.trajectories if any(gt.chunk_groups[t.id]))
    fast = Trajectory(id="zz-fast", fps=1.5 * src.fps, obs=src.obs.copy(), actions=src.actions.copy())
    mixed = Dataset(trajectories=[*ds.trajectories, fast], obs_dim=ds.obs_dim, action_dim=ds.action_dim)
    truth = dataclasses.replace(
        gt,
        chunk_groups={**gt.chunk_groups, fast.id: gt.chunk_groups[src.id]},
        phi={**gt.phi, fast.id: gt.phi[src.id]},
    )
    got, want = separation_self_check(mixed, truth), _dense_separation_check(mixed, truth)
    assert got["num_chunks"] == want["num_chunks"] == 240 + 6
    assert got["action_weight"] == want["action_weight"]
    for key in ("planted_min_similarity", "nonplanted_max_similarity",
                "distinct_phase_max_similarity"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12)


# --- ground truth round trips --------------------------------------------------------


def test_ground_truth_round_trip(small_benchmark, tmp_path):
    _, gt = small_benchmark
    gt.save(tmp_path / "ground_truth.json")
    back = GroundTruth.load(tmp_path / "ground_truth.json")
    assert back.frame_tags == gt.frame_tags
    assert back.chunk_groups == gt.chunk_groups
    assert back.chunk_span == gt.chunk_span
    assert back.anomaly_segments == gt.anomaly_segments


def test_duplicates_file(small_benchmark, tmp_path):
    _, gt = small_benchmark
    gt.save_duplicates(tmp_path / "duplicates.json", 2.0)
    doc = json.loads((tmp_path / "duplicates.json").read_text())
    assert doc["format_version"] == 1
    assert doc["chunk_seconds"] == 2.0
    groups = gt.groups()
    assert set(doc["groups"]) == {str(g) for g in groups}
    for gid, members in groups.items():
        assert doc["groups"][str(gid)] == [[tid, start] for tid, start in members]


# --- auroc ----------------------------------------------------------------------------


def test_auroc_pins():
    assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auroc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert auroc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5
    assert np.isnan(auroc(np.array([0.5, 0.5]), np.array([1, 1])))


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    ties=st.booleans(),
)
@settings(max_examples=60)
def test_auroc_matches_pair_counting(n, seed, ties):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores)  # heavy ties
    labels = rng.random(n) < 0.5
    got = auroc(scores, labels)
    want = oracle_auroc(scores.tolist(), labels.tolist())
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-12)


# --- mask evaluation ------------------------------------------------------------------


def _tiny_gt():
    """Two 10-frame trajectories; t0 frames 2-5 paused; chunks of 5 frames
    with (t0 chunk 1, t1 chunk 0) planted as duplicate group 1."""
    return GroundTruth(
        frame_tags={
            "t0": ["clean"] * 2 + ["pause"] * 4 + ["clean"] * 4,
            "t1": ["clean"] * 10,
        },
        chunk_groups={"t0": [0, 1], "t1": [1, 0]},
        chunk_span=5,
        anomaly_segments={"t0": [(2, 6, "pause")], "t1": []},
    )


def _mask_for(gt, drops_by_tid, reason, scores_by_tid=None):
    masks = {}
    for tid, tags in gt.frame_tags.items():
        n = len(tags)
        drops = drops_by_tid.get(tid, [False] * n)
        scores = (scores_by_tid or {}).get(tid, [0.0] * n)
        masks[tid] = TrajectoryMask(
            traj_id=tid,
            keep=[not d for d in drops],
            reason=[reason if d else "" for d in drops],
            subopt_score=scores,
            dup_similarity=[-1.0] * n,
        )
    return CurationMask(masks=masks)


def test_evaluate_masks_perfect_detection():
    gt = _tiny_gt()
    anomaly = [t != "clean" for t in gt.frame_tags["t0"]]
    mask = _mask_for(
        gt,
        {"t0": anomaly},
        "suboptimal",
        scores_by_tid={"t0": [float(a) for a in anomaly], "t1": [0.0] * 10},
    )
    metrics = evaluate_masks(mask, gt)
    assert metrics["anomaly"]["precision"] == 1.0
    assert metrics["anomaly"]["recall"] == 1.0
    assert metrics["anomaly"]["auroc"] == 1.0
    assert metrics["anomaly"]["fpr_clean"] == 0.0
    assert metrics["anomaly"]["per_type_recall"]["pause"] == 1.0
    assert np.isnan(metrics["anomaly"]["per_type_recall"]["slow"])
    assert metrics["anomaly"]["no_drops"] is False


def test_evaluate_masks_no_drops_convention():
    gt = _tiny_gt()
    metrics = evaluate_masks(_mask_for(gt, {}, "suboptimal"), gt)
    assert metrics["anomaly"]["precision"] == 1.0
    assert metrics["anomaly"]["no_drops"] is True
    assert metrics["anomaly"]["recall"] == 0.0
    assert metrics["duplicates"]["precision"] == 1.0
    assert metrics["duplicates"]["no_drops"] is True


def test_evaluate_masks_false_positives_counted():
    gt = _tiny_gt()
    # drop two clean frames and two anomalous ones
    drops = [True, True, True, True] + [False] * 6
    metrics = evaluate_masks(_mask_for(gt, {"t0": drops}, "suboptimal"), gt)
    assert metrics["anomaly"]["precision"] == 0.5
    assert metrics["anomaly"]["recall"] == 0.5
    assert metrics["anomaly"]["fpr_clean"] == pytest.approx(2 / 16)


def test_evaluate_masks_duplicate_metrics():
    gt = _tiny_gt()
    # dropping exactly one member of the planted pair: precision 1, recall 1
    one_member = {"t1": [True] * 5 + [False] * 5}
    metrics = evaluate_masks(_mask_for(gt, one_member, "duplicate"), gt)
    assert metrics["duplicates"]["precision"] == 1.0
    assert metrics["duplicates"]["recall"] == 1.0
    assert metrics["duplicates"]["num_groups"] == 1
    assert metrics["duplicates"]["num_dropped_chunks"] == 1

    # dropping an unplanted chunk costs precision
    extra = {"t1": [True] * 10}
    metrics = evaluate_masks(_mask_for(gt, extra, "duplicate"), gt)
    assert metrics["duplicates"]["precision"] == 0.5
    assert metrics["duplicates"]["recall"] == 1.0

    # dropping both members still recovers the group only once
    both = {"t0": [False] * 5 + [True] * 5, "t1": [True] * 5 + [False] * 5}
    metrics = evaluate_masks(_mask_for(gt, both, "duplicate"), gt)
    assert metrics["duplicates"]["precision"] == 1.0
    assert metrics["duplicates"]["recall"] == 1.0


def test_evaluate_masks_partial_chunk_not_counted():
    gt = _tiny_gt()
    # four of five frames dropped: the chunk does not count as removed
    partial = {"t1": [True] * 4 + [False] * 6}
    metrics = evaluate_masks(_mask_for(gt, partial, "duplicate"), gt)
    assert metrics["duplicates"]["num_dropped_chunks"] == 0
    assert metrics["duplicates"]["recall"] == 0.0


def test_evaluate_masks_reason_attribution():
    gt = _tiny_gt()
    # duplicate-reason drops do not count toward anomaly detection
    drops = {"t0": [t != "clean" for t in gt.frame_tags["t0"]]}
    metrics = evaluate_masks(_mask_for(gt, drops, "duplicate"), gt)
    assert metrics["anomaly"]["recall"] == 0.0
    assert metrics["anomaly"]["no_drops"] is True


def test_evaluate_masks_shape_errors():
    gt = _tiny_gt()
    with pytest.raises(ShapeMismatch):
        evaluate_masks(CurationMask(masks={"t0": TrajectoryMask.keep_all("t0", 10)}), gt)
    bad = CurationMask(masks={
        "t0": TrajectoryMask.keep_all("t0", 10),
        "t1": TrajectoryMask.keep_all("t1", 9),
    })
    with pytest.raises(ShapeMismatch):
        evaluate_masks(bad, gt)
