"""Container format, frame/second conversion, and curation-mask round trips."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate.errors import (
    DimensionMismatch,
    InvalidManifest,
    IoFailure,
    MaskShapeMismatch,
    MissingManifest,
    NonFiniteValue,
    TruncatedBlob,
)
from trajcurate.trajstore import (
    REASONS,
    CurationMask,
    Dataset,
    Trajectory,
    TrajectoryMask,
    load_dataset,
    read_masks,
    save_dataset,
    seconds_to_frames,
    write_masks,
)

from conftest import make_dataset, make_trajectory


# --- frame/second conversion ----------------------------------------------------


def test_seconds_to_frames_pins():
    assert seconds_to_frames(2.0, 10.0) == 20
    assert seconds_to_frames(1.0, 30.0) == 30
    # rounds half up
    assert seconds_to_frames(0.25, 10.0) == 3
    assert seconds_to_frames(0.24, 10.0) == 2
    # never below one frame
    assert seconds_to_frames(0.01, 10.0) == 1


@pytest.mark.parametrize("seconds,fps", [(0.0, 10.0), (-1.0, 10.0), (1.0, 0.0), (1.0, -5.0)])
def test_seconds_to_frames_rejects_nonpositive(seconds, fps):
    with pytest.raises(ValueError):
        seconds_to_frames(seconds, fps)


@given(
    seconds=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    fps=st.floats(min_value=0.1, max_value=240.0, allow_nan=False),
)
def test_seconds_to_frames_matches_round_half_up(seconds, fps):
    w = seconds_to_frames(seconds, fps)
    assert w >= 1
    assert w == max(1, int(np.floor(seconds * fps + 0.5)))


# --- dataset container -------------------------------------------------------------


def test_dataset_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, num_traj=3, n=17)
    ds.trajectories[0].labels = ["clean"] * 17
    save_dataset(ds, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert len(back) == 3
    assert back.obs_dim == ds.obs_dim and back.action_dim == ds.action_dim
    for a, b in zip(ds.trajectories, back.trajectories):
        assert a.id == b.id and a.fps == b.fps
        assert a.obs.dtype == b.obs.dtype == np.float32
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)
        assert a.labels == b.labels


def test_loaded_labels_share_one_string_per_value(tmp_path):
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, num_traj=3, n=17)
    for traj in ds.trajectories:
        traj.labels = ["clean"] * 10 + ["pause"] * 7
    save_dataset(ds, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert [t.labels for t in back.trajectories] == [t.labels for t in ds.trajectories]
    assert all(type(label) is str for t in back.trajectories for label in t.labels)
    assert len({id(label) for t in back.trajectories for label in t.labels}) == 2


def test_dataset_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, num_traj=2, n=9)
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    for name in ["manifest.json", "trajectories/t000.bin"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_dataset_threads_match(tmp_path):
    # loading runs on one thread; two loads must agree bit for bit
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, num_traj=6, n=12)
    save_dataset(ds, tmp_path / "data")
    one = load_dataset(tmp_path / "data")
    two = load_dataset(tmp_path / "data")
    assert [t.id for t in one.trajectories] == [t.id for t in two.trajectories]
    for a, b in zip(one.trajectories, two.trajectories):
        assert a.obs.tobytes() == b.obs.tobytes()
        assert a.actions.tobytes() == b.actions.tobytes()


def test_missing_manifest(tmp_path):
    with pytest.raises(MissingManifest):
        load_dataset(tmp_path / "nope")


def test_invalid_manifest_json(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "manifest.json").write_text("{not json")
    with pytest.raises(InvalidManifest):
        load_dataset(root)


def test_manifest_missing_key(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"format_version": 1, "obs_dim": 2}))
    with pytest.raises(InvalidManifest):
        load_dataset(root)


def _saved_dataset(tmp_path, **kw):
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, **kw)
    save_dataset(ds, tmp_path / "data")
    return tmp_path / "data"


def test_truncated_blob(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    blob = root / "trajectories" / "t000.bin"
    blob.write_bytes(blob.read_bytes()[:-7])
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_bad_magic(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    blob = root / "trajectories" / "t000.bin"
    raw = bytearray(blob.read_bytes())
    raw[:4] = b"XXXX"
    blob.write_bytes(bytes(raw))
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_missing_blob(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    (root / "trajectories" / "t000.bin").unlink()
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_frame_count_mismatch(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trajectories"][0]["num_frames"] = 11
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_row_width_mismatch_is_dimension_error(tmp_path):
    # blob written with 6+3 floats per row, manifest claims 5+3
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["obs_dim"] = 5
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DimensionMismatch):
        load_dataset(root)


def test_nonfinite_rejected(tmp_path):
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, num_traj=1, n=10)
    ds.trajectories[0].obs[3, 1] = np.nan
    with pytest.raises(NonFiniteValue) as err:
        save_dataset(ds, tmp_path / "data")
    assert "frame 3" in str(err.value)


def test_unsafe_id_rejected(tmp_path):
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, num_traj=1, n=4)
    ds.trajectories[0].id = "../evil"
    with pytest.raises(IoFailure):
        save_dataset(ds, tmp_path / "data")


@pytest.mark.parametrize("bad_id", ["../outside", "..", ".", "a/b", "x\n"])
def test_unsafe_manifest_id_rejected(tmp_path, bad_id):
    root = _saved_dataset(tmp_path, num_traj=2, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trajectories"][0]["id"] = bad_id
    (root / "manifest.json").write_text(json.dumps(manifest))
    # a blob where the id points, so only the id check can refuse the load
    target = root / "trajectories" / f"{bad_id}.bin"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes((root / "trajectories" / "t000.bin").read_bytes())
    with pytest.raises(InvalidManifest, match="plain file name"):
        load_dataset(root)
    ds = make_dataset(np.random.default_rng(8), num_traj=1, n=4)
    ds.trajectories[0].id = bad_id
    with pytest.raises(IoFailure):
        save_dataset(ds, tmp_path / "saved")


def test_trajectory_validate_errors():
    rng = np.random.default_rng(9)
    traj = make_trajectory(rng, n=5, obs_dim=4, action_dim=2)
    with pytest.raises(DimensionMismatch):
        traj.validate(obs_dim=3, action_dim=2)
    traj2 = make_trajectory(rng, n=5)
    traj2.fps = 0.0
    with pytest.raises(InvalidManifest):
        traj2.validate(6, 3)


def test_blob_header_layout(tmp_path):
    """The on-disk layout is magic, u32 version, u32 count, then f32 rows."""
    root = _saved_dataset(tmp_path, num_traj=1, n=4, obs_dim=2, action_dim=1)
    raw = (root / "trajectories" / "t000.bin").read_bytes()
    assert raw[:4] == b"TRJC"
    version, count = struct.unpack("<II", raw[4:12])
    assert (version, count) == (1, 4)
    assert len(raw) == 12 + 4 * 3 * 4
    ds = load_dataset(root)
    flat = np.frombuffer(raw[12:], dtype="<f4").reshape(4, 3)
    np.testing.assert_array_equal(flat[:, :2], ds.trajectories[0].obs)


@given(
    n=st.integers(1, 20),
    obs_dim=st.integers(1, 8),
    action_dim=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_property(tmp_path_factory, n, obs_dim, action_dim, seed):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng, num_traj=2, n=n, obs_dim=obs_dim, action_dim=action_dim)
    root = tmp_path_factory.mktemp("rt")
    save_dataset(ds, root)
    back = load_dataset(root)
    for a, b in zip(ds.trajectories, back.trajectories):
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)


# --- curation masks ----------------------------------------------------------------


def _mask(traj_id="t0", keep=(1, 0, 1), reason=("", "suboptimal", "")):
    n = len(keep)
    return TrajectoryMask(
        traj_id=traj_id,
        keep=np.array(keep, dtype=bool),
        reason=list(reason),
        subopt_score=np.linspace(0, 1, n),
        dup_similarity=np.full(n, -1.0),
    )


def test_mask_shape_validation():
    with pytest.raises(MaskShapeMismatch):
        TrajectoryMask("t0", np.ones(3, bool), [""] * 2, np.zeros(3), np.zeros(3))
    with pytest.raises(MaskShapeMismatch):
        _mask(reason=("", "bogus", ""))


def test_keep_all():
    m = TrajectoryMask.keep_all("t9", 5)
    assert m.keep.all() and [REASONS[r] for r in m.reason] == [""] * 5
    assert (m.dup_similarity == -1.0).all()


def test_curation_mask_counting():
    cm = CurationMask(masks={
        "a": _mask("a", keep=(1, 0, 0), reason=("", "suboptimal", "duplicate")),
        "b": _mask("b", keep=(0, 1, 1), reason=("both", "", "")),
    })
    assert cm.total_frames == 6
    assert cm.dropped_frames() == 3
    assert cm.dropped_frames(reasons=("suboptimal", "both")) == 2
    assert cm.dropped_frames(reasons=("duplicate",)) == 1
    assert cm.deletion_ratio() == pytest.approx(0.5)
    assert cm["a"].traj_id == "a"


@given(
    frames=st.lists(
        st.lists(st.tuples(st.booleans(), st.sampled_from(REASONS)), max_size=20),
        max_size=4,
    ),
    reasons=st.none() | st.lists(st.sampled_from([*REASONS, "bogus"]), max_size=4).map(tuple),
)
@settings(max_examples=200, deadline=None)
def test_dropped_frames_matches_frame_walk(frames, reasons):
    cm = CurationMask(masks={
        f"t{i}": TrajectoryMask(f"t{i}", [k for k, _ in fr], [r for _, r in fr],
                                np.zeros(len(fr)), np.zeros(len(fr)))
        for i, fr in enumerate(frames)
    })
    if reasons is None:
        expected = sum(1 for fr in frames for k, _ in fr if not k)
    else:
        expected = sum(1 for fr in frames for k, r in fr if not k and r in reasons)
    assert cm.dropped_frames(reasons) == expected


def test_empty_mask_ratio_is_zero():
    assert CurationMask(masks={}).deletion_ratio() == 0.0


def test_mask_round_trip(tmp_path):
    cm = CurationMask(masks={
        "a": _mask("a"),
        "b": _mask("b", keep=(0, 0, 1, 1), reason=("both", "duplicate", "", "")),
    })
    write_masks(cm, tmp_path)
    assert (tmp_path / "masks" / "a.json").is_file()
    back = read_masks(tmp_path / "masks")
    assert set(back.masks) == {"a", "b"}
    for tid in cm.masks:
        np.testing.assert_array_equal(back[tid].keep, cm[tid].keep)
        np.testing.assert_array_equal(back[tid].reason, cm[tid].reason)
        np.testing.assert_array_equal(back[tid].subopt_score, cm[tid].subopt_score)
        np.testing.assert_array_equal(back[tid].dup_similarity, cm[tid].dup_similarity)


def test_mask_files_are_valid_sorted_json(tmp_path):
    write_masks(CurationMask(masks={"a": _mask("a")}), tmp_path)
    text = (tmp_path / "masks" / "a.json").read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert doc["format_version"] == 1


@pytest.mark.parametrize("field, value", [
    ("subopt_score", np.nan), ("subopt_score", -np.inf), ("dup_similarity", np.inf),
])
def test_nonfinite_mask_is_rejected_before_writing(tmp_path, field, value):
    bad = _mask("b")
    getattr(bad, field)[1] = value
    with pytest.raises(NonFiniteValue, match="mask of trajectory 'b' frame 1"):
        write_masks(CurationMask(masks={"b": bad}), tmp_path)
    assert not (tmp_path / "masks" / "b.json").exists()


@given(
    keep=st.lists(st.booleans(), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_mask_round_trip_property(tmp_path_factory, keep, seed):
    rng = np.random.default_rng(seed)
    n = len(keep)
    reasons = ["" if k else rng.choice(["suboptimal", "duplicate", "both"]) for k in keep]
    cm = CurationMask(masks={
        "t": TrajectoryMask("t", np.array(keep), reasons,
                            rng.normal(size=n), rng.uniform(-2, 1, n)),
    })
    root = tmp_path_factory.mktemp("masks")
    write_masks(cm, root)
    back = read_masks(root / "masks")
    np.testing.assert_array_equal(back["t"].keep, cm["t"].keep)
    np.testing.assert_array_equal(back["t"].reason, cm["t"].reason)
    # JSON float text round-trips IEEE doubles exactly
    np.testing.assert_array_equal(back["t"].subopt_score, cm["t"].subopt_score)
    np.testing.assert_array_equal(back["t"].dup_similarity, cm["t"].dup_similarity)


def json_dumps_masks(mask):
    """The mask files as the ``json`` encoder writes them: the byte-level
    reference for ``write_masks``' token-built text."""
    return {
        traj_id: json.dumps({
            "format_version": 1,
            "id": traj_id,
            "keep": m.keep.astype(int).tolist(),
            "reason": [REASONS[c] for c in m.reason.tolist()],
            "subopt_score": m.subopt_score.tolist(),
            "dup_similarity": m.dup_similarity.tolist(),
        }, sort_keys=True, allow_nan=False) + "\n"
        for traj_id, m in mask.masks.items()
    }


_BOUNDARY_FLOATS = [
    0.0, -0.0, 1.0, -1.0, -2.0, 0.1, 1e16, 9999999999999998.0, 1e-5, 1.0000000000000002e-05,
    9.999999999999999e-06, 1e15, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
]
_mask_floats = st.lists(
    st.sampled_from(_BOUNDARY_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
    max_size=40,
)


@given(
    columns=st.lists(st.tuples(_mask_floats, st.integers(0, 2**16)), min_size=1, max_size=3),
    ids=st.lists(st.sampled_from(["t0", "plain-id_1.x", 'q"uote\\slé中']),
                 min_size=3, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_write_masks_equals_json_encoder_bytes(tmp_path_factory, columns, ids):
    masks = {}
    for traj_id, (values, seed) in zip(ids, columns):
        rng = np.random.default_rng(seed)
        n, scores = len(values), np.array(values, dtype=np.float64)
        # the dup column repeats at most three of the values, as chunk similarities do
        dup = scores[rng.integers(0, max(1, min(3, n)), size=n)]
        masks[traj_id] = TrajectoryMask(traj_id, rng.random(n) < 0.5,
                                        rng.integers(0, 4, size=n), scores, dup)
    mask = CurationMask(masks=masks)
    root = tmp_path_factory.mktemp("masks")
    write_masks(mask, root)
    written = {p.stem: p.read_bytes() for p in (root / "masks").iterdir()}
    assert written == {k: v.encode() for k, v in json_dumps_masks(mask).items()}


def test_rewritten_masks_hold_only_the_new_run(tmp_path):
    write_masks(CurationMask(masks={t: _mask(t) for t in "abcdef"}), tmp_path)
    assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == [f"{t}.json" for t in "abcdef"]
    write_masks(CurationMask(masks={t: _mask(t) for t in "wxyz"}), tmp_path)
    assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == [f"{t}.json" for t in "wxyz"]
    assert [p.name for p in tmp_path.iterdir()] == ["masks"]  # no staging or retired directory
    assert sorted(read_masks(tmp_path / "masks").masks) == list("wxyz")


def test_failed_mask_write_keeps_the_previous_masks(tmp_path, monkeypatch):
    write_masks(CurationMask(masks={t: _mask(t) for t in "abc"}), tmp_path)
    before = {p.name: p.read_bytes() for p in (tmp_path / "masks").iterdir()}
    write_text = Path.write_text

    def fail_on_y(path, *args, **kwargs):
        if path.name == "y.json":
            raise OSError(28, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_y)
    with pytest.raises(IoFailure, match="No space left"):
        write_masks(CurationMask(masks={t: _mask(t) for t in "xyz"}), tmp_path)
    assert {p.name: p.read_bytes() for p in (tmp_path / "masks").iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["masks"]


def test_nonfinite_mask_writes_no_file_of_any_mask(tmp_path):
    bad = _mask("b")
    bad.dup_similarity[2] = np.nan
    with pytest.raises(NonFiniteValue, match="mask of trajectory 'b' frame 2"):
        write_masks(CurationMask(masks={"a": _mask("a"), "b": bad}), tmp_path)
    assert not (tmp_path / "masks").exists()
