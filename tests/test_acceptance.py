"""Acceptance suite: one test per releasable guarantee.

Each criterion is a single test with its stated tolerance and time budget,
so the ``pytest -v`` output reads as a checklist. The tests reuse the
brute-force oracles from the unit suites and the session-scoped benchmark
fixtures; a failure here means a guarantee is broken, not merely a code
path.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from trajcurate.calibrate import dedup_ratio_curve, ratio_curve, threshold_for_ratio
from trajcurate.cli import main
from trajcurate.dedup import (
    DedupConfig,
    chunk_dataset,
    cluster_dataset,
    dedup_dataset,
    duplicate_mask,
    kmeans,
    similarity_scores,
)
from trajcurate.nn import flatten_grads, init_mlp, loss_and_grad
from trajcurate.progress import default_bins
from trajcurate.subopt import (
    SuboptConfig,
    discount_scores,
    mix_scores,
    score_dataset,
    score_trajectory,
    subopt_mask,
)
from trajcurate.synthgen import SynthConfig, auroc, evaluate_masks, generate
from trajcurate.trajstore import Dataset, Trajectory

from conftest import frame_tags, make_mask, make_trajectory
from test_nn import numerical_gradient
from test_subopt import _pipeline_oracle


# --- shared heavyweight artifacts ------------------------------------------------


@pytest.fixture(scope="module")
def default_clustered(default_benchmark):
    """Chunks/features/k-means/similarities for the clean benchmark."""
    ds, _ = default_benchmark
    return cluster_dataset(ds, DedupConfig())


@pytest.fixture(scope="module")
def anomalous_scores(anomalous_benchmark, anomalous_model):
    """Suboptimality scores for the 20%-anomalous benchmark, with timing."""
    ds, _ = anomalous_benchmark
    model = anomalous_model[0]
    start = time.perf_counter()
    series, _ = score_dataset(ds, model, default_bins(), SuboptConfig())
    seconds = time.perf_counter() - start
    finals = np.concatenate([s.final for s in series])
    return series, finals, seconds


# --- criterion 1 ------------------------------------------------------------------


def test_criterion_1_formulas_match_brute_force(tiny_model):
    """Window/aggregate/discount/mix scores equal a loop-written re-derivation
    on 50 random trajectories (length <= 200, window <= 20 frames), 1e-9
    relative, under 10 s."""
    rng = np.random.default_rng(101)
    bins = default_bins()
    start = time.perf_counter()
    for _ in range(50):
        fps = float(rng.choice([5.0, 10.0, 20.0]))
        w_frames = int(rng.integers(1, 21))
        cfg = SuboptConfig(
            window_seconds=w_frames / fps,
            stride_frames=int(rng.integers(1, 4)),
            gamma=float(rng.uniform(0.0, 0.99)),
            discount_direction=str(rng.choice(["past", "future"])),
            mix_weight=float(rng.uniform(0.0, 1.0)),
            progress_mode=str(rng.choice(["expectation", "argmax"])),
        )
        traj = make_trajectory(rng, n=int(rng.integers(2, 201)), obs_dim=6, fps=fps)
        series, _ = score_trajectory(traj, tiny_model, bins, cfg)
        ws, v_hat, v, final = _pipeline_oracle(traj, tiny_model, bins, cfg)
        for got, want in (
            (series.window_scores, ws),
            (series.sample_scores, v_hat),
            (series.discounted, v),
            (series.final, final),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"CRITERION 1: PASS — 50 trajectories, all four stages within 1e-9 ({elapsed:.2f}s)")


# --- criterion 2 ------------------------------------------------------------------


def _kink_margin(model, x):
    """Smallest |pre-activation| over all hidden units and samples.

    A central difference with step eps only estimates the derivative if no
    ReLU argument changes sign inside the probed interval, so inputs whose
    margin is below a few eps must be rejected, not graded.
    """
    h = np.asarray(x, dtype=np.float64)
    margin = np.inf
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        pre = h @ w + b
        margin = min(margin, float(np.abs(pre).min()))
        h = np.maximum(pre, 0.0)
    return margin


def test_criterion_2_gradients_match_finite_differences():
    """Analytic gradients vs central differences (eps=1e-4), 1e-5 relative,
    on 20 random small models, under 10 s."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(20):
        sizes = [int(rng.integers(2, 7)), int(rng.integers(3, 9)), int(rng.integers(2, 6))]
        if rng.random() < 0.5:
            sizes.insert(2, int(rng.integers(3, 7)))
        model = init_mlp(sizes, seed=int(rng.integers(0, 2**31)))
        batch = int(rng.integers(2, 9))
        while True:
            x = rng.normal(size=(batch, sizes[0]))
            if _kink_margin(model, x) > 1e-3:
                break
        y = rng.integers(0, sizes[-1], size=batch)
        l2 = float(rng.choice([0.0, 0.01]))
        _, grads = loss_and_grad(model, x, y, l2)
        numeric = numerical_gradient(model, x, y, l2=l2, eps=1e-4)
        np.testing.assert_allclose(flatten_grads(grads), numeric, rtol=1e-5, atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"CRITERION 2: PASS — 20 models within 1e-5 of central differences ({elapsed:.2f}s)")


# --- criterion 3 ------------------------------------------------------------------


def test_criterion_3_progress_classifier_accuracy(progress_model):
    """Held-out bin accuracy >= 0.70 on the default benchmark, trained in
    under 3 minutes single-threaded."""
    _, report, seconds = progress_model
    assert report.pairs_val > 0
    assert report.accuracy >= 0.70
    assert seconds < 180.0
    print(f"CRITERION 3: PASS — held-out accuracy {report.accuracy:.3f} (trained in {seconds:.0f}s)")


# --- criterion 4 ------------------------------------------------------------------


def test_criterion_4_anomaly_detection(anomalous_benchmark, anomalous_scores):
    """AUROC >= 0.80 against anomaly frames; at the threshold matching the
    true anomaly fraction, pause and back_and_forth recall >= 0.6; scoring
    plus evaluation under 2 minutes."""
    ds, gt = anomalous_benchmark
    series, finals, score_seconds = anomalous_scores
    start = time.perf_counter()

    tags = frame_tags(gt)
    anomaly = np.concatenate(
        [[tag != "clean" for tag in tags[t.id]] for t in ds.trajectories]
    ).astype(bool)
    roc = auroc(finals, anomaly)
    assert roc >= 0.80

    theta, _ = threshold_for_ratio(finals, float(anomaly.mean()))
    parts = {}
    for traj, s in zip(ds.trajectories, series):
        drop = subopt_mask(s.final, theta, has_windows=s.window_scores.size > 0)
        parts[traj.id] = (~drop, ["suboptimal" if d else "" for d in drop], s.final,
                          [-1.0] * traj.num_frames)
    metrics = evaluate_masks(make_mask(parts), gt)
    per_type = metrics["anomaly"]["per_type_recall"]
    assert per_type["pause"] >= 0.6
    assert per_type["back_and_forth"] >= 0.6

    elapsed = score_seconds + (time.perf_counter() - start)
    assert elapsed < 120.0
    print(
        f"CRITERION 4: PASS — AUROC {roc:.3f}, recall pause {per_type['pause']:.2f} / "
        f"back_and_forth {per_type['back_and_forth']:.2f} ({elapsed:.1f}s)"
    )


# --- criterion 5 ------------------------------------------------------------------


def test_criterion_5_dedup_exactness_and_planted_duplicates(default_benchmark, default_clustered, tmp_path):
    """Similarity scores equal the exhaustive per-cluster oracle; planted
    duplicates recovered with precision 1.0 / recall >= 0.95 at eps_d=0.99;
    wholesale duplication deletes half of all chunked frames."""
    ds, gt = default_benchmark
    chunks, features, model, scores = default_clustered

    checked = 0
    for c in range(model.k):
        members = np.flatnonzero(model.assignment == c)
        if members.size > 200:
            continue
        for i in members:
            best = -2.0
            for j in members:
                if j != i:
                    best = max(best, float(features[i] @ features[j]))
            assert abs(scores[i] - best) <= 1e-12
            checked += 1
    assert checked == len(chunks)

    mask, _ = dedup_dataset(ds, DedupConfig())
    dup = evaluate_masks(mask, gt)["duplicates"]
    assert dup["num_groups"] > 0
    assert dup["precision"] == 1.0
    assert dup["recall"] >= 0.95

    # wholesale case: duplicate every trajectory of a duplicate-free dataset
    # (pre-planted pairs would merge into groups of four and overshoot 0.5)
    base, _ = generate(SynthConfig(duplicate_rate=0.0), tmp_path)
    copies = [
        Trajectory(id=f"{t.id}-copy", fps=t.fps, obs=t.obs.copy(), actions=t.actions.copy())
        for t in base.trajectories
    ]
    doubled = Dataset(
        trajectories=[*base.trajectories, *copies],
        obs_dim=base.obs_dim,
        action_dim=base.action_dim,
    )
    cfg = DedupConfig()
    mask2, _ = dedup_dataset(doubled, cfg)
    chunked = int(chunk_dataset(doubled, cfg).span.sum())
    dropped = int((~mask2.keep).sum())
    ratio = dropped / chunked
    assert abs(ratio - 0.5) <= 0.02
    print(
        f"CRITERION 5: PASS — oracle exact on {checked} chunks, precision {dup['precision']:.2f}, "
        f"recall {dup['recall']:.2f}, wholesale ratio {ratio:.3f}"
    )


# --- criterion 6 ------------------------------------------------------------------


def test_criterion_6_calibration_inversion(anomalous_scores, default_benchmark, default_clustered):
    """threshold_for_ratio hits 10/20/30% within one percentage point and
    both ratio curves are monotone non-increasing at every sample."""
    _, finals, _ = anomalous_scores
    achieved_all = []
    for target in (0.10, 0.20, 0.30):
        theta, achieved = threshold_for_ratio(finals, target)
        assert abs(achieved - target) <= 0.01
        assert float(np.mean(finals > theta)) == achieved
        achieved_all.append(achieved)

    sub_curve = ratio_curve(finals, np.quantile(finals, np.linspace(0.0, 1.0, 33)))
    assert sub_curve.is_monotone()

    ds, _ = default_benchmark
    sims = default_clustered[3]
    sims = sims[sims > -1.5]
    grid = np.append(np.quantile(sims, np.linspace(0.0, 1.0, 17)), 1.0 + 1e-9)
    dup_curve = dedup_ratio_curve(ds, DedupConfig(), grid, default_clustered)
    assert dup_curve.is_monotone()
    print(
        "CRITERION 6: PASS — achieved ratios "
        + ", ".join(f"{a:.4f}" for a in achieved_all)
        + "; both curves monotone"
    )


# --- criterion 7 ------------------------------------------------------------------


def _one_chunk_each(traj_ids):
    """A dataset of 20-frame trajectories at 10 fps: one 2-second chunk each."""
    rng = np.random.default_rng(0)
    trajs = [make_trajectory(rng, tid, n=20, fps=10.0) for tid in traj_ids]
    return Dataset(trajectories=trajs, obs_dim=6, action_dim=3)


def test_criterion_7_monotonicity_and_boundaries():
    """Drop-sets monotone in both thresholds; gamma=0 and w=0 are identity
    transforms; constant scores are mixing fixed points; exact threshold
    ties are kept; k-means inertia never increases between iterations."""
    rng = np.random.default_rng(707)

    # drop-set monotone in eps_s
    finals = rng.uniform(-1.0, 2.0, size=500)
    drops = [subopt_mask(finals, e) for e in np.sort(rng.uniform(-1.0, 2.0, size=9))]
    for wide, narrow in zip(drops, drops[1:]):
        assert not (narrow & ~wide).any()

    # drop-set monotone in eps_d; keep-one is a subset of drop-all
    feats = rng.normal(size=(40, 6))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    cmodel = kmeans(feats, 4, seed=0)
    sims = similarity_scores(cmodel, feats)
    # one 20-frame chunk on each of 40 trajectories
    ds = _one_chunk_each([f"t{i:02d}" for i in range(40)])
    chunks = chunk_dataset(ds, DedupConfig())
    prev_all = None
    for eps in np.linspace(-1.05, 1.05, 9):
        drop_all, _ = duplicate_mask(ds, chunks, sims, feats, cmodel, float(eps), True)
        drop_keep, _ = duplicate_mask(ds, chunks, sims, feats, cmodel, float(eps))
        assert not (drop_keep & ~drop_all).any()
        if prev_all is not None:
            assert not (drop_all & ~prev_all).any()
        prev_all = drop_all

    # gamma=0 collapses discounting; w=0 disables mixing
    v = rng.normal(size=80)
    np.testing.assert_array_equal(discount_scores(v, 0.0, "past"), v)
    np.testing.assert_array_equal(discount_scores(v, 0.0, "future"), v)
    np.testing.assert_array_equal(mix_scores(v, 0.0), v)

    # constant scores are fixed points of mixing at any weight
    const = np.full(60, 0.37)
    for w in (0.0, 0.25, 0.5, 0.9, 1.0):
        np.testing.assert_allclose(mix_scores(const, w), const, rtol=1e-15)

    # scores exactly at the threshold are kept, both paths
    assert not subopt_mask(np.full(10, 0.58), 0.58).any()
    twins = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tmodel = kmeans(twins, 1, seed=0)
    tsims = similarity_scores(tmodel, twins)
    tds = _one_chunk_each([f"p{i}" for i in range(3)])
    tchunks = chunk_dataset(tds, DedupConfig())
    for mode in (False, True):
        tie_drop, _ = duplicate_mask(tds, tchunks, tsims, twins, tmodel, 1.0, mode)
        assert not tie_drop.any()

    # k-means inertia is non-increasing across the recorded history
    pts = rng.normal(size=(300, 8)) + rng.integers(0, 3, size=(300, 1)) * 4.0
    history = kmeans(pts, 7, seed=3).inertia_history
    assert len(history) >= 1
    for a, b in zip(history, history[1:]):
        assert b <= a + 1e-9 * max(1.0, abs(a))
    print("CRITERION 7: PASS — monotonicity and boundary identities hold")


# --- criterion 8 ------------------------------------------------------------------


PIPELINE_CONFIG = {
    "seed": 0,
    "synth": {
        "num_traj": 48,
        "frames_per_traj": 240,
        "obs_dim": 32,
        "anomaly_rates": {
            "pause": 0.05,
            "slow": 0.05,
            "back_and_forth": 0.05,
            "failure_retry": 0.05,
        },
        "duplicate_rate": 0.05,
    },
    "train": {"epochs": 100, "pairs_per_traj": 80, "hidden_sizes": [32, 32]},
}


def _run_pipeline(root: Path, cfg_path: Path, data: Path, threads: int) -> Path:
    """train-progress -> curate -> report into ``root``; returns ``root``."""
    model = root / "model.ckpt"
    curated = root / "curated"
    steps = [
        ["train-progress", "--data", str(data), "--out", str(model)],
        ["curate", "--data", str(data), "--model", str(model), "--out", str(curated)],
        ["report", "--masks", str(curated), "--truth", str(data)],
    ]
    for argv in steps:
        code = main([*argv, "--config", str(cfg_path), "--threads", str(threads)])
        assert code == 0, f"step {argv[0]} failed"
    return root


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_pipeline_determinism(tmp_path_factory):
    """Two single-threaded gen->train->curate->report runs are byte-identical;
    four threads yield the same masks; one full pipeline finishes in under
    5 minutes."""
    root = tmp_path_factory.mktemp("determinism")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))

    start = time.perf_counter()
    data = root / "data"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data), "--threads", "1"]) == 0
    run1 = _run_pipeline(root / "run1", cfg_path, data, threads=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    data2 = root / "data2"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data2), "--threads", "1"]) == 0
    assert _tree_bytes(data) == _tree_bytes(data2)

    run2 = _run_pipeline(root / "run2", cfg_path, data, threads=1)
    tree1, tree2 = _tree_bytes(run1), _tree_bytes(run2)
    assert sorted(tree1) == sorted(tree2)
    mismatched = [name for name in tree1 if tree1[name] != tree2[name]]
    assert mismatched == []

    run4 = _run_pipeline(root / "run4", cfg_path, data, threads=4)
    mask_files = sorted((run1 / "curated" / "masks").glob("*.json"))
    assert mask_files
    for path in mask_files:
        m1 = json.loads(path.read_text())
        m4 = json.loads((run4 / "curated" / "masks" / path.name).read_text())
        assert m1["keep"] == m4["keep"]
        assert m1["reason"] == m4["reason"]
        np.testing.assert_allclose(m1["subopt_score"], m4["subopt_score"], rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(m1["dup_similarity"], m4["dup_similarity"], rtol=1e-6, atol=1e-6)
    print(
        f"CRITERION 8: PASS — byte-identical runs, thread-invariant masks "
        f"({len(mask_files)} trajectories), pipeline {elapsed:.0f}s"
    )
