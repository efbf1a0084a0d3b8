"""Suboptimality scoring against independent brute-force formula evaluation.

The oracle functions below re-derive every stage from its definition with
plain loops — no cumulative sums, no recurrences — so any vectorization bug
in the implementation shows up as a mismatch.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate.errors import EmptyScores
from trajcurate.nn import forward, init_mlp
from trajcurate.progress import default_bins
from trajcurate.subopt import (
    ScoreSeries,
    SuboptConfig,
    aggregate_sample_scores,
    discount_scores,
    mix_scores,
    score_dataset,
    score_trajectory,
    subopt_mask,
    subopt_report,
)
from trajcurate.trajstore import REASONS, SUBOPTIMAL, CurationMask, load_dataset, save_dataset, seconds_to_frames

from conftest import make_dataset, make_mask, make_trajectory


# --- oracles -------------------------------------------------------------------


def oracle_aggregate(window_scores, w, n, starts=None):
    if starts is None:
        starts = list(range(len(window_scores)))
    out = np.zeros(n)
    for i in range(n):
        vals = [v for s, v in zip(starts, window_scores) if i - w <= s <= i]
        if vals:
            out[i] = sum(vals) / len(vals)
    return out


def oracle_discount(v_hat, gamma, direction="past"):
    n = len(v_hat)
    out = np.zeros(n)
    for i in range(n):
        if direction == "past":
            out[i] = sum(gamma ** (i - j) * v_hat[j] for j in range(i + 1))
        else:
            out[i] = sum(gamma ** (j - i) * v_hat[j] for j in range(i, n))
    return out


def oracle_mix(v, w):
    return np.array([w * np.mean(v) + (1 - w) * vi for vi in v])


def oracle_window_scores(traj, model, bins, cfg):
    w = seconds_to_frames(cfg.window_seconds, traj.fps)
    reps = np.array(bins.representatives)
    scores, starts = [], []
    for s in range(0, traj.num_frames - w + 1, cfg.stride_frames):
        delta = traj.obs[s + w - 1].astype(np.float64) - traj.obs[s].astype(np.float64)
        probs = forward(model, delta[None])[0]
        if cfg.progress_mode == "expectation":
            t_p = float(probs @ reps)
        else:
            t_p = float(reps[np.argmax(probs)])
        scores.append(cfg.window_seconds - t_p)
        starts.append(s)
    return np.array(scores), np.array(starts, dtype=int)


# --- config --------------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"window_seconds": 0.0},
    {"gamma": -0.1},
    {"gamma": 1.5},
    {"mix_weight": 2.0},
    {"stride_frames": 0},
    {"discount_direction": "sideways"},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SuboptConfig(**kw)


def test_config_defaults():
    cfg = SuboptConfig()
    assert cfg.window_seconds == 2.0
    assert cfg.gamma == 0.9
    assert cfg.mix_weight == 0.5
    assert cfg.epsilon_s == 0.58


# --- per-frame aggregation --------------------------------------------------------


def test_aggregate_worked_example():
    # 7 frames, 3-frame windows, scores a..e; every average written out
    a, b, c, d, e = 1.0, 2.0, 4.0, 8.0, 16.0
    got = aggregate_sample_scores(np.array([a, b, c, d, e]), w=3, traj_len=7, starts=np.arange(5))
    expected = [
        a,
        (a + b) / 2,
        (a + b + c) / 3,
        (a + b + c + d) / 4,
        (b + c + d + e) / 4,
        (c + d + e) / 3,
        (d + e) / 2,
    ]
    np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_aggregate_with_stride():
    scores = np.array([1.0, 2.0, 3.0])
    got = aggregate_sample_scores(scores, w=3, traj_len=7, starts=np.array([0, 2, 4]))
    np.testing.assert_allclose(got, oracle_aggregate(scores, 3, 7, [0, 2, 4]), rtol=1e-15)


def test_aggregate_uncovered_frames_are_zero():
    got = aggregate_sample_scores(np.array([5.0]), w=3, traj_len=12, starts=np.array([5]))
    covered = np.zeros(12, bool)
    covered[5:9] = True  # starts in [i-3, i] ∋ 5 ⇔ 5 ≤ i ≤ 8
    np.testing.assert_array_equal(got[covered], 5.0)
    np.testing.assert_array_equal(got[~covered], 0.0)


def test_aggregate_empty_windows():
    np.testing.assert_array_equal(aggregate_sample_scores(np.empty(0), 3, 5, np.empty(0, np.int64)), np.zeros(5))


@given(
    n=st.integers(1, 60),
    w=st.integers(1, 20),
    stride=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60)
def test_aggregate_matches_oracle(n, w, stride, seed):
    rng = np.random.default_rng(seed)
    starts = np.arange(0, max(0, n - w) + 1, stride)
    scores = rng.uniform(-2, 2, size=starts.size)
    got = aggregate_sample_scores(scores, w, n, starts)
    np.testing.assert_allclose(
        got, oracle_aggregate(scores, w, n, list(starts)), rtol=1e-12, atol=1e-12
    )


# --- discounting -------------------------------------------------------------------


def test_discount_matches_geometric_sum():
    rng = np.random.default_rng(0)
    v_hat = rng.uniform(-1, 1, size=50)
    for direction in ("past", "future"):
        got = discount_scores(v_hat, 0.9, direction)
        np.testing.assert_allclose(
            got, oracle_discount(v_hat, 0.9, direction), rtol=1e-12, atol=1e-12
        )


def test_discount_gamma_zero_is_identity():
    v_hat = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(discount_scores(v_hat, 0.0), v_hat)
    np.testing.assert_array_equal(discount_scores(v_hat, 0.0, "future"), v_hat)


def test_discount_directions_mirror():
    v_hat = np.array([1.0, 2.0, 3.0, 4.0])
    past = discount_scores(v_hat, 0.7, "past")
    future = discount_scores(v_hat[::-1], 0.7, "future")
    np.testing.assert_allclose(past, future[::-1], rtol=1e-15)


@given(
    gamma=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 300),
)
@settings(max_examples=40, deadline=None)
def test_discount_matches_oracle_property(gamma, seed, n):
    v_hat = np.random.default_rng(seed).uniform(-1, 1, size=n)
    got = discount_scores(v_hat, gamma)
    np.testing.assert_allclose(got, oracle_discount(v_hat, gamma), rtol=1e-9, atol=1e-9)


def numpy_scalar_discount(v_hat, gamma, direction="past"):
    """The recurrence as it ran over numpy float64 scalars: the bit-level
    reference for ``discount_scores``."""
    v_hat = np.asarray(v_hat, dtype=np.float64)
    out = np.empty_like(v_hat)
    if v_hat.size == 0:
        return out
    if direction == "future":
        return numpy_scalar_discount(v_hat[::-1], gamma, "past")[::-1]
    acc = 0.0
    for i, v in enumerate(v_hat):
        acc = v + gamma * acc
        out[i] = acc
    return out


@given(
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**16),
    n=st.integers(0, 300),
    direction=st.sampled_from(["past", "future"]),
)
@settings(max_examples=60, deadline=None)
def test_discount_matches_parent_loop_bitwise(gamma, seed, n, direction):
    rng = np.random.default_rng(seed)
    # mixed magnitudes and signs, signed zeros among them
    v_hat = rng.uniform(-1, 1, size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    v_hat[rng.random(n) < 0.1] = -0.0
    got = discount_scores(v_hat, gamma, direction)
    assert got.dtype == np.float64 and got.shape == v_hat.shape
    assert got.tobytes() == numpy_scalar_discount(v_hat, gamma, direction).tobytes()


# --- mixing ---------------------------------------------------------------------


def test_mix_worked_example():
    v = np.array([0.0, 1.0, 2.0])  # mean 1.0
    np.testing.assert_allclose(mix_scores(v, 0.5), [0.5, 1.0, 1.5], rtol=1e-15)


def test_mix_weight_zero_is_identity():
    v = np.array([0.3, -0.2, 0.9])
    np.testing.assert_array_equal(mix_scores(v, 0.0), v)


def test_mix_weight_one_collapses_to_mean():
    v = np.array([0.3, -0.2, 0.9])
    np.testing.assert_allclose(mix_scores(v, 1.0), np.full(3, v.mean()), rtol=1e-15)


def test_mix_constant_series_is_fixed_point():
    v = np.full(10, 0.42)
    for w in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(mix_scores(v, w), v, rtol=1e-15)


def test_mix_rejects_empty():
    with pytest.raises(EmptyScores):
        mix_scores(np.empty(0))


# --- threshold mask -----------------------------------------------------------------


def test_mask_threshold_is_strict():
    final = np.array([0.57, 0.58, 0.580000001, 1.0])
    drop = subopt_mask(final, epsilon_s=0.58)
    np.testing.assert_array_equal(drop, [False, False, True, True])


def test_mask_short_trajectory_never_drops():
    final = np.array([10.0, 10.0])
    assert not subopt_mask(final, 0.58, has_windows=False).any()


@given(eps_lo=st.floats(-1, 1), eps_hi=st.floats(-1, 1), seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_mask_monotone_in_threshold(eps_lo, eps_hi, seed):
    lo, hi = sorted([eps_lo, eps_hi])
    final = np.random.default_rng(seed).uniform(-1, 1, size=30)
    drop_hi = subopt_mask(final, hi)
    drop_lo = subopt_mask(final, lo)
    # raising the threshold can only shrink the drop-set
    assert not (drop_hi & ~drop_lo).any()


# --- full pipeline vs oracle ---------------------------------------------------------


def _pipeline_oracle(traj, model, bins, cfg):
    ws, starts = oracle_window_scores(traj, model, bins, cfg)
    w = seconds_to_frames(cfg.window_seconds, traj.fps)
    v_hat = oracle_aggregate(ws, w, traj.num_frames, list(starts))
    v = oracle_discount(v_hat, cfg.gamma, cfg.discount_direction)
    final = oracle_mix(v, cfg.mix_weight)
    return ws, v_hat, v, final


@pytest.mark.parametrize("cfg", [
    SuboptConfig(),
    SuboptConfig(stride_frames=3),
    SuboptConfig(discount_direction="future", gamma=0.5),
    SuboptConfig(progress_mode="argmax", mix_weight=0.2),
])
def test_score_trajectory_matches_oracle(tiny_model, cfg):
    rng = np.random.default_rng(11)
    bins = default_bins()
    traj = make_trajectory(rng, n=57, obs_dim=6, fps=10.0)
    series, drop = score_trajectory(traj, tiny_model, bins, cfg)
    ws, v_hat, v, final = _pipeline_oracle(traj, tiny_model, bins, cfg)
    np.testing.assert_allclose(series.window_scores, ws, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(series.sample_scores, v_hat, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(series.discounted, v, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(series.final, final, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(drop, final > cfg.epsilon_s)


@given(n=st.integers(1, 60), w=st.integers(1, 25), stride=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_score_trajectory_window_count(n, w, stride):
    # one window per stride step that fits: starts 0, stride, ... up to n - w
    rng = np.random.default_rng(0)
    traj = make_trajectory(rng, n=n, fps=1.0)
    cfg = SuboptConfig(window_seconds=float(w), stride_frames=stride)
    series, _ = score_trajectory(traj, init_mlp([6, 8, 5], seed=7), default_bins(), cfg)
    assert series.window_scores.size == (0 if n < w else (n - w) // stride + 1)


def test_short_trajectory_all_kept(tiny_model):
    rng = np.random.default_rng(13)
    bins = default_bins()
    # 5 frames < one 20-frame window
    traj = make_trajectory(rng, n=5, obs_dim=6, fps=10.0)
    series, drop = score_trajectory(traj, tiny_model, bins, SuboptConfig(epsilon_s=-100.0))
    assert series.window_scores.size == 0
    np.testing.assert_array_equal(series.final, np.zeros(5))
    assert not drop.any()


def test_pipeline_linearity(tiny_model):
    """Aggregation, discounting and mixing are all linear maps."""
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, 30)
    y = rng.uniform(-1, 1, 30)

    def f(v):
        return mix_scores(discount_scores(aggregate_sample_scores(v, 4, 33, np.arange(30)), 0.9), 0.5)

    np.testing.assert_allclose(f(2.5 * x), 2.5 * f(x), rtol=1e-12)
    np.testing.assert_allclose(f(x + y), f(x) + f(y), rtol=1e-10, atol=1e-12)


# --- dataset-level API ----------------------------------------------------------------


def test_score_dataset_threads_agree(tiny_model):
    # scoring runs on one thread; two calls must agree bit for bit
    rng = np.random.default_rng(15)
    ds = make_dataset(rng, num_traj=6, n=45, obs_dim=6)
    bins = default_bins()
    cfg = SuboptConfig()
    series1, mask1 = score_dataset(ds, tiny_model, bins, cfg)
    series2, mask2 = score_dataset(ds, tiny_model, bins, cfg)
    for a, b in zip(series1, series2):
        assert a.final.tobytes() == b.final.tobytes()
    np.testing.assert_array_equal(mask1.keep, mask2.keep)
    # without the series, the same mask
    none, mask3 = score_dataset(ds, tiny_model, bins, cfg, series=False)
    assert none == [] and mask3.subopt_score.tobytes() == mask1.subopt_score.tobytes()
    assert mask3.keep.tobytes() == mask1.keep.tobytes() and mask3.reason.tobytes() == mask1.reason.tobytes()


@pytest.mark.parametrize("stride", [1, 3])
def test_score_dataset_views_match_score_trajectory(tiny_model, stride):
    rng = np.random.default_rng(18)
    ds = make_dataset(rng, num_traj=4, n=45, obs_dim=6)
    ds.trajectories.insert(2, make_trajectory(rng, "short", n=12))  # shorter than a window
    ds.trajectories.append(make_trajectory(rng, "slow", n=37, fps=7.0))
    cfg = SuboptConfig(stride_frames=stride)
    series, mask = score_dataset(ds, tiny_model, default_bins(), cfg)
    assert [s.traj_id for s in series] == [t.id for t in ds.trajectories]
    assert mask.ids == tuple(t.id for t in ds.trajectories)
    assert mask.bounds.tolist() == [0, 45, 90, 102, 147, 192, 229]
    assert (mask.dup_similarity == -1.0).all()
    for traj, s, lo, hi in zip(ds.trajectories, series, mask.bounds, mask.bounds[1:]):
        want, drop = score_trajectory(traj, tiny_model, default_bins(), cfg)
        for field in ("window_scores", "sample_scores", "discounted", "final"):
            assert getattr(s, field).tobytes() == getattr(want, field).tobytes()
        assert mask.keep[lo:hi].tobytes() == (~drop).tobytes()
        assert mask.reason[lo:hi].tobytes() == (drop * SUBOPTIMAL).astype(np.uint8).tobytes()
        assert mask.subopt_score[lo:hi].tobytes() == want.final.tobytes()
        # the series' finals are views of the mask's dataset-wide scores
        assert s.final.base is mask.subopt_score
    assert series[2].window_scores.size == 0 and mask.keep[90:102].all()


def test_score_dataset_memory_is_its_outputs_plus_one_trajectory():
    """What the result holds is the final scores, the drop flags and, unless
    ``series=False`` drops them, the window scores, with no other per-frame
    array; the traced peak adds only one set of forward buffers, sized by the
    most windows of a trajectory, and one trajectory's per-frame stages."""
    rng = np.random.default_rng(19)
    ds = make_dataset(rng, num_traj=20, n=1500, obs_dim=32)
    model = init_mlp([32, 64, 64, 5], seed=3)
    for stride, series in ((1, True), (5, True), (1, False)):
        tracemalloc.start()
        try:
            result = score_dataset(ds, model, default_bins(), SuboptConfig(stride_frames=stride), series=series)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frames, windows = 1500, len(range(0, 1500 - 20 + 1, stride))  # 2 s windows at 10 fps
        outputs = 20 * (frames * (8 + 1 + 1) + series * windows * 8)  # final, keep, reason; window scores
        assert outputs <= kept < outputs + (1 << 15)  # ids, series objects
        # the window deltas, both hidden layers' activations, logits and row sums
        work = windows * (32 + 64 + 64 + 5 + 1) * 8
        assert peak < kept + work + 128 * frames
        assert sum(s.window_scores.size for s in result[0]) == series * 20 * windows
        del result


def test_score_dataset_on_a_loaded_dataset_reads_one_trajectory_at_a_time(tmp_path):
    """Loading and scoring together trace the outputs, the forward buffers,
    one trajectory's per-frame stages and one read buffer of one trajectory's
    frames: no dataset-wide frames."""
    ds = make_dataset(np.random.default_rng(19), num_traj=20, n=1500, obs_dim=32)
    save_dataset(ds, tmp_path / "data")
    model = init_mlp([32, 64, 64, 5], seed=3)
    tracemalloc.start()
    try:
        result = score_dataset(load_dataset(tmp_path / "data"), model, default_bins(), SuboptConfig())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frames, windows = 1500, 1500 - 20 + 1
    work = windows * (32 + 64 + 64 + 5 + 1) * 8
    read_buffer = frames * (32 + ds.action_dim) * 4
    assert peak < kept + work + 128 * frames + read_buffer
    assert sum(s.window_scores.size for s in result[0]) == 20 * windows


def test_score_series_takes_window_and_cfg_by_keyword():
    """A call in the field order of the series' earlier layout (traj_id,
    window_scores, sample_scores, discounted, final) fails at once."""
    scores = np.zeros(30)
    with pytest.raises(TypeError):
        ScoreSeries("t", np.zeros(11), scores, scores, scores)
    series = ScoreSeries("t", np.zeros(11), scores, window=20, cfg=SuboptConfig())
    assert series.sample_scores.shape == series.discounted.shape == (30,)


def test_score_dataset_mask_layout(tiny_model):
    rng = np.random.default_rng(16)
    ds = make_dataset(rng, num_traj=3, n=45, obs_dim=6)
    cfg = SuboptConfig(epsilon_s=-10.0)  # everything scores above this
    _, mask = score_dataset(ds, tiny_model, default_bins(), cfg)
    assert mask.ids == tuple(t.id for t in ds.trajectories)
    assert mask.bounds.tolist() == [0, 45, 90, 135]
    assert not mask.keep.any()
    assert {REASONS[r] for r in mask.reason} == {"suboptimal"}
    assert (mask.dup_similarity == -1.0).all()


def test_subopt_report_shape(tiny_model):
    rng = np.random.default_rng(17)
    ds = make_dataset(rng, num_traj=3, n=45, obs_dim=6)
    cfg = SuboptConfig()
    _, mask = score_dataset(ds, tiny_model, default_bins(), cfg)
    report = subopt_report(mask, cfg)
    assert report["format_version"] == 1
    assert report["num_frames"] == 3 * 45
    assert report["epsilon_s"] == cfg.epsilon_s
    hist = report["score_histogram"]
    assert sum(hist["counts"]) == 3 * 45
    assert len(hist["bin_edges"]) == 65
    assert hist["counts"] == np.histogram(mask.subopt_score, bins=64)[0].tolist()
    assert 0.0 <= report["deletion_ratio"] <= 1.0


def _scores_on_edges(n):
    """``n`` scores that repeat their min and max and hold every one of their 65
    histogram edges, where the bin index is most easily off by one."""
    rng = np.random.default_rng(23)
    scores = np.round(rng.normal(0.4, 0.3, n), 3)
    edges = np.histogram(scores, bins=64)[1]
    scores[: 2 * edges.size : 2] = edges
    scores[1 : 2 * edges.size : 2] = np.nextafter(edges, -np.inf).clip(edges[0])
    return rng.permutation(scores)


@pytest.mark.parametrize("scores", [np.full(1000, 0.3), np.array([-0.0]), np.array([0.7]), _scores_on_edges(150_000)],
                         ids=["constant", "one_negative_zero", "one_frame", "150k_frames_on_edges"])
def test_subopt_report_histogram_is_np_histogram(scores):
    """Built a block at a time over the global min and max, the histogram has
    the counts and edges of one ``np.histogram`` of all the scores."""
    n = scores.size
    mask = CurationMask(("t0",), [0, n], np.ones(n, bool), np.zeros(n, np.uint8), scores, np.full(n, -1.0))
    counts, edges = np.histogram(scores, bins=64)
    hist = subopt_report(mask, SuboptConfig())["score_histogram"]
    assert json.dumps(hist) == json.dumps({"bin_edges": edges.tolist(), "counts": counts.tolist()})


def test_subopt_report_memory_is_one_block():
    """``np.histogram`` of 150k scores makes 65536-element temporaries (about
    2 MB traced); the report's blocks stay far below that."""
    scores = _scores_on_edges(150_000)
    mask = CurationMask(("t0",), [0, scores.size], np.ones(scores.size, bool), np.zeros(scores.size, np.uint8),
                        scores, np.full(scores.size, -1.0))
    tracemalloc.start()
    try:
        subopt_report(mask, SuboptConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 8 * 10  # a few float64 and intp arrays of one 4096-score block


def test_subopt_report_empty():
    report = subopt_report(make_mask({}), SuboptConfig())
    assert report["num_frames"] == 0
    assert report["score_histogram"]["counts"] == []
