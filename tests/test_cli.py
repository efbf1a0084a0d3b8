"""Subcommand plumbing: artifacts, exit codes, config/flag precedence."""

import contextlib
import inspect
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trajcurate
from trajcurate import cli, trajstore
from trajcurate.cli import _kept_ranges, main
from trajcurate.config import _SECTION_KEYS, config_from_dict
from trajcurate.dedup import DedupConfig
from trajcurate.errors import ConfigError
from trajcurate.nn import TrainConfig, load_model
from trajcurate.progress import SamplingConfig, default_bins
from trajcurate.subopt import SuboptConfig, score_trajectory
from trajcurate.synthgen import GroundTruth, SynthConfig, generate
from trajcurate.trajstore import load_dataset

from conftest import frame_tags


PIPELINE_CONFIG = {
    "seed": 0,
    "synth": {
        "num_traj": 12,
        "frames_per_traj": 120,
        "obs_dim": 24,
        "duplicate_rate": 0.05,
    },
    "train": {"epochs": 25, "pairs_per_traj": 60, "hidden_sizes": [16]},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run: gen → train → score → dedup → calibrate → curate → report."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))
    data = root / "data"
    model = root / "model.ckpt"
    paths = {
        "root": root, "config": str(cfg_path), "data": data, "model": model,
        "scored": root / "scored", "deduped": root / "deduped",
        "curated": root / "curated",
    }
    steps = [
        ["gen", "--out", str(data)],
        ["train-progress", "--data", str(data), "--out", str(model)],
        ["score-subopt", "--data", str(data), "--model", str(model),
         "--out", str(paths["scored"])],
        ["dedup", "--data", str(data), "--out", str(paths["deduped"])],
        ["calibrate", "--data", str(data), "--model", str(model),
         "--out", str(root / "calib"), "--targets", "0.1,0.3"],
        ["curate", "--data", str(data), "--model", str(model),
         "--out", str(paths["curated"])],
        ["report", "--masks", str(paths["curated"]), "--truth", str(data)],
    ]
    for argv in steps:
        code = main([*argv, "--config", str(cfg_path)])
        assert code == 0, f"step {argv[0]} failed"
    return paths


def test_gen_artifacts(pipeline):
    """gen writes the manifest, the blobs and the ground truth, and nothing else."""
    data = pipeline["data"]
    assert sorted(p.name for p in data.iterdir()) == ["ground_truth.json", "manifest.json", "trajectories"]
    assert (data / "manifest.json").is_file() and (data / "ground_truth.json").is_file()
    ds = load_dataset(data)
    assert len(ds) == 12
    assert ds.obs_dim == 24
    assert all(t.num_frames == 120 for t in ds.trajectories)


def test_train_artifacts(pipeline):
    model = load_model(pipeline["model"])
    assert model.layer_sizes == (24, 16, 5)
    val = json.loads((pipeline["root"] / "model.ckpt.validation.json").read_text())
    assert val["format_version"] == 1
    assert val["pairs_train"] > 0 and val["pairs_val"] > 0
    assert len(val["confusion"]) == 5


def test_score_subopt_artifacts(pipeline):
    out = pipeline["scored"]
    masks = sorted((out / "masks").glob("*.json"))
    assert len(masks) == 12
    report = json.loads((out / "subopt_report.json").read_text())
    assert report["num_frames"] == 12 * 120
    assert sum(report["score_histogram"]["counts"]) == 12 * 120
    scores = sorted((out / "scores").glob("*.json"))
    assert len(scores) == 12
    doc = json.loads(scores[0].read_text())
    assert len(doc["final"]) == 120
    assert len(doc["window_scores"]) == 120 - 20 + 1


def test_score_subopt_scores_are_score_trajectory_series(pipeline):
    """``scores/`` holds each trajectory's ``score_trajectory`` series, the
    per-frame stages included, in ``json.dumps`` text of its float lists."""
    cfg = config_from_dict(PIPELINE_CONFIG)
    model, ds = load_model(pipeline["model"]), load_dataset(pipeline["data"])
    for traj in ds.trajectories:
        series, _ = score_trajectory(traj, model, default_bins(cfg.sampling.dt_cap), cfg.subopt)
        doc = {"format_version": 1, "id": traj.id, **{
            key: getattr(series, key).tolist()
            for key in ("window_scores", "sample_scores", "discounted", "final")}}
        text = (pipeline["scored"] / "scores" / f"{traj.id}.json").read_text()
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dedup_artifacts(pipeline):
    out = pipeline["deduped"]
    assert len(list((out / "masks").glob("*.json"))) == 12
    report = json.loads((out / "dedup_report.json").read_text())
    assert report["num_chunks"] == 12 * 6
    assert report["k"] >= 1


def test_calibrate_artifacts(pipeline):
    report = json.loads((pipeline["root"] / "calib" / "calibration_report.json").read_text())
    assert report["format_version"] == 1
    methods = {c["method"] for c in report["curves"]}
    assert methods == {"suboptimal", "dedup"}
    targets = {p["target_ratio"] for p in report["operating_points"]}
    assert targets == {0.1, 0.3}
    for curve in report["curves"]:
        ratios = [r for _, r in sorted(curve["points"])]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_curate_artifacts(pipeline):
    out = pipeline["curated"]
    manifest = json.loads((out / "curated_manifest.json").read_text())
    report = json.loads((out / "curation_report.json").read_text())
    assert manifest["total_frames"] == 12 * 120
    assert set(manifest["trajectories"]) == {f"traj_{i:04d}" for i in range(12)}
    # kept_ranges must cover exactly the kept frames
    for tid, entry in manifest["trajectories"].items():
        covered = sum(b - a for a, b in entry["kept_ranges"])
        assert covered == entry["kept_frames"]
    dropped = report["dropped"]
    assert dropped["total"] == (
        dropped["suboptimal_only"] + dropped["duplicate_only"] + dropped["both"]
    )
    assert manifest["kept_frames"] == manifest["total_frames"] - dropped["total"]
    # the combined ratio identity, recomputed from the mask files
    n_sub = n_dup = n_both = 0
    for mask_file in (out / "masks").glob("*.json"):
        doc = json.loads(mask_file.read_text())
        for keep, reason in zip(doc["keep"], doc["reason"]):
            if not keep:
                n_sub += reason in ("suboptimal", "both")
                n_dup += reason in ("duplicate", "both")
                n_both += reason == "both"
    total = manifest["total_frames"]
    assert report["ratios"]["total"] == pytest.approx(
        (n_sub + n_dup - n_both) / total
    )


def test_report_artifacts(pipeline):
    doc = json.loads((pipeline["curated"] / "evaluation_report.json").read_text())
    assert doc["format_version"] == 1
    assert set(doc["anomaly"]["per_type_recall"]) == {
        "pause", "slow", "back_and_forth", "failure_retry"
    }
    assert 0.0 <= doc["duplicates"]["recall"] <= 1.0


def test_reports_are_canonical_json(pipeline):
    for path in [
        pipeline["scored"] / "subopt_report.json",
        pipeline["deduped"] / "dedup_report.json",
        pipeline["curated"] / "curation_report.json",
        pipeline["root"] / "calib" / "calibration_report.json",
    ]:
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert "timestamp" not in text


def oracle_kept_ranges(keep):
    """Half-open runs of kept frames, walked frame by frame."""
    ranges, run_start = [], None
    for i, k in enumerate(keep):
        if k and run_start is None:
            run_start = i
        elif not k and run_start is not None:
            ranges.append([run_start, i])
            run_start = None
    if run_start is not None:
        ranges.append([run_start, len(keep)])
    return ranges


@given(keep=st.lists(st.booleans(), max_size=60))
@example(keep=[])
@example(keep=[True] * 9)
@example(keep=[False] * 9)
@settings(max_examples=200, deadline=None)
def test_kept_ranges_matches_frame_walk(keep):
    ranges = _kept_ranges(np.array(keep, dtype=bool))
    assert ranges == oracle_kept_ranges(keep)
    assert all(type(x) is int for r in ranges for x in r)


# --- exit codes ------------------------------------------------------------------


def test_threads_zero_is_usage_error(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "d"), "--threads", "0"]) == 1


def test_unknown_config_key_writes_nothing(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"synth": {"bogus": 1}}))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_config_sections_accept_their_dataclass_fields():
    sections = {
        "subopt": [SuboptConfig()],
        "dedup": [DedupConfig()],
        "train": [TrainConfig(), SamplingConfig()],
        "synth": [SynthConfig()],
    }
    for section, defaults in sections.items():
        for default in defaults:
            for f in fields(default):
                config_from_dict({section: {f.name: getattr(default, f.name)}})
    config_from_dict({"train": {"hidden_sizes": [8]}})


def test_integer_config_fields_reject_floats_and_booleans():
    sections = [
        ("subopt", SuboptConfig()), ("dedup", DedupConfig()), ("train", TrainConfig()),
        ("train", SamplingConfig()), ("synth", SynthConfig()),
    ]
    for section, default in sections:
        for f in fields(default):
            value = getattr(default, f.name)
            if type(value) is not int:
                continue
            config_from_dict({section: {f.name: value}})
            for bad in (value + 0.5, True):
                with pytest.raises(ConfigError, match="must be an integer"):
                    config_from_dict({section: {f.name: bad}})


def test_float_and_bool_config_fields_take_only_their_json_types():
    sections = [
        ("subopt", SuboptConfig()), ("dedup", DedupConfig()), ("train", TrainConfig()),
        ("train", SamplingConfig()), ("synth", SynthConfig()),
    ]
    for section, default in sections:
        hints = get_type_hints(type(default))
        for f in fields(default):
            if hints[f.name] in (float, float | None):
                config_from_dict({section: {f.name: getattr(default, f.name)}})
                for bad in (True, False, "1.0"):
                    with pytest.raises(ConfigError, match="must be a number"):
                        config_from_dict({section: {f.name: bad}})
            if hints[f.name] is bool:
                config_from_dict({section: {f.name: True}})
                for bad in (0, 1, "false", None):
                    with pytest.raises(ConfigError, match="must be true or false"):
                        config_from_dict({section: {f.name: bad}})


def test_a_numpy_integer_on_an_integer_key_is_a_config_error():
    """A value JSON cannot encode is shown by its repr, not raised as a
    TypeError from formatting the message."""
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"dedup": {"k": np.int64(3)}})
    assert str(exc.value) == f"'dedup.k' must be an integer, got {np.int64(3)!r}"
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"dedup": {"k": 3.0}})
    assert str(exc.value) == "'dedup.k' must be an integer, got 3.0"


def test_a_numpy_float32_on_a_float_key_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"dedup": {"epsilon_d": np.float32(0.5)}})
    assert str(exc.value) == f"'dedup.epsilon_d' must be a number, got {np.float32(0.5)!r}"
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"dedup": {"epsilon_d": "0.5"}})
    assert str(exc.value) == "'dedup.epsilon_d' must be a number, got \"0.5\""


class _Literal(str):
    """A config value given as its JSON text, for a literal that json.dumps
    never writes, such as 1e999."""


@pytest.mark.parametrize("command,section,key,value", [
    ("curate", "dedup", "k", 0),
    ("curate", "dedup", "k", -2),
    ("curate", "dedup", "k", 1.5),
    ("curate", "dedup", "max_iters", 1.5),
    ("curate", "dedup", "n_subsample", 2.5),
    ("curate", "dedup", "seed", -1),
    ("train-progress", "train", "epochs", 1.5),
    ("train-progress", "train", "epochs", True),
    ("train-progress", "train", "batch_size", 2.5),
    ("train-progress", "train", "pairs_per_traj", "x"),
    ("train-progress", "train", "seed", -1),
    ("train-progress", "train", "dt_cap", 3),
    ("curate", "subopt", "stride_frames", 1.5),
    ("curate", "subopt", "progress_mode", "median"),
    ("gen", "synth", "seed", -1),
    ("curate", "subopt", "window_seconds", math.inf),
    ("curate", "dedup", "chunk_seconds", math.inf),
    ("curate", "dedup", "chunk_seconds", _Literal("1e999")),
    # integers past float range, and past the digits Python converts from text
    pytest.param("curate", "subopt", "window_seconds", _Literal("1" + "0" * 400), id="window_seconds-401-digits"),
    pytest.param("curate", "subopt", "window_seconds", _Literal("1" + "0" * 5000), id="window_seconds-5001-digits"),
    ("train-progress", "train", "dt_cap", math.inf),
    ("gen", "synth", "fps", math.inf),
    # finite, but too many frames once multiplied by a frame rate
    ("curate", "subopt", "window_seconds", 1e308),
    ("curate", "dedup", "chunk_seconds", 1e308),
    ("train-progress", "train", "dt_cap", 1e308),
    ("score-subopt", "train", "dt_cap", 1e308),
    ("curate", "train", "dt_cap", 1e308),
    ("calibrate", "train", "dt_cap", 1e308),
    ("gen", "synth", "fps", 1e308),
    ("curate", "subopt", "epsilon_s", math.nan),
    ("curate", "dedup", "epsilon_d", math.nan),
    ("curate", "dedup", "action_weight", math.inf),
    ("train-progress", "train", "learning_rate", math.nan),
    ("curate", "dedup", "max_iters", 0),
    ("curate", "dedup", "max_iters", -3),
    ("train-progress", "train", "pairs_per_traj", 0),
    ("train-progress", "train", "pairs_per_traj", -5),
    # a bool key takes only true or false, a float key never a boolean
    ("dedup", "dedup", "drop_all_over_threshold", "false"),
    ("dedup", "dedup", "drop_all_over_threshold", 0),
    ("gen", "synth", "fps", True),
    ("gen", "synth", "anomaly_rates", {"pause": True}),
    ("curate", "subopt", "gamma", True),
    ("curate", "subopt", "epsilon_s", "0.5"),
    ("train-progress", "train", "hidden_sizes", [True, 4]),
])
def test_bad_config_value_is_config_error(pipeline, tmp_path, capsys, command, section, key, value):
    cfg = tmp_path / "config.json"
    text = value if isinstance(value, _Literal) else json.dumps(value)
    cfg.write_text(f'{{"{section}": {{"{key}": {text}}}}}')
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command != "gen":
        argv += ["--data", str(pipeline["data"])]
    if command in ("score-subopt", "curate", "calibrate"):
        argv += ["--model", str(pipeline["model"])]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_invalid_config_json(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text("{broken")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_missing_required_path_is_usage_error(tmp_path):
    assert main(["train-progress", "--out", str(tmp_path / "m")]) == 1


def test_missing_dataset_is_data_error(tmp_path):
    code = main([
        "train-progress", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m"),
    ])
    assert code == 2


def test_corrupt_blob_is_data_error(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--config", _tiny_cfg(tmp_path)]) == 0
    blob = next((out / "trajectories").glob("*.bin"))
    blob.write_bytes(blob.read_bytes()[:-9])
    assert main(["dedup", "--data", str(out), "--out", str(tmp_path / "d")]) == 2


def test_blob_replaced_after_load_is_data_error(pipeline, tmp_path, monkeypatch, capsys):
    """curate reads each blob again in every pass: a blob replaced by another
    trajectory's valid frames after the load fails the manifest's crc32, with
    one error line and no output committed."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    blobs = sorted((data / "trajectories").glob("*.bin"))

    def load_then_replace(path):
        ds = load_dataset(path)
        shutil.copyfile(blobs[0], blobs[1])  # every trajectory has the same frame count
        return ds

    monkeypatch.setattr("trajcurate.cli.load_dataset", load_then_replace)
    capsys.readouterr()
    argv = ["curate", "--config", pipeline["config"], "--data", str(data),
            "--model", str(pipeline["model"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and "crc32" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corrupt", [
    "mask_json", "mask_without_keep", "empty_ground_truth",
    "scalar_keep", "string_keep", "scalar_subopt_score", "nested_dup_similarity",
    "zero_chunk_span", "chunk_groups_past_frames",
    "segment_negative_start", "segment_reversed", "segment_past_end",
    "segment_of_uncounted_id", "segment_of_unknown_type",
    "mask_id_repeated", "mask_nan_score", "mask_infinite_similarity",
    "frame_count_huge", "frame_count_negative", "frame_count_infinite",
])
def test_report_bad_input_is_data_error(tmp_path, capsys, corrupt):
    data, out = tmp_path / "data", tmp_path / "d"
    assert main(["gen", "--out", str(data), "--config", _tiny_cfg(tmp_path)]) == 0
    assert main(["dedup", "--data", str(data), "--out", str(out)]) == 0
    mask = next((out / "masks").glob("*.json"))
    doc = json.loads(mask.read_text())
    if corrupt == "mask_json":
        mask.write_text("{broken")
    elif corrupt == "mask_without_keep":
        del doc["keep"]
        mask.write_text(json.dumps(doc))
    elif corrupt == "scalar_keep":
        mask.write_text(json.dumps({**doc, "keep": 5}))
    elif corrupt == "string_keep":
        mask.write_text(json.dumps({**doc, "keep": ["x", *doc["keep"][1:]]}))
    elif corrupt == "scalar_subopt_score":
        mask.write_text(json.dumps({**doc, "subopt_score": 0.5}))
    elif corrupt == "nested_dup_similarity":
        mask.write_text(json.dumps({**doc, "dup_similarity": [[v] for v in doc["dup_similarity"]]}))
    elif corrupt == "mask_id_repeated":
        # a later file holding another trajectory's data under the first one's id
        other = json.loads(sorted((out / "masks").glob("*.json"))[1].read_text())
        (out / "masks" / "zzz.json").write_text(json.dumps({**other, "id": doc["id"]}))
    elif corrupt in ("mask_nan_score", "mask_infinite_similarity"):
        key, token = {"mask_nan_score": ("subopt_score", "NaN"),
                      "mask_infinite_similarity": ("dup_similarity", "Infinity")}[corrupt]
        head, tail = mask.read_text().split(f'"{key}": [', 1)
        mask.write_text(f'{head}"{key}": [{token}, {tail.split(", ", 1)[1]}')  # in the first value's place
    elif corrupt != "empty_ground_truth":
        truth = json.loads((data / "ground_truth.json").read_text())
        frames = truth["frame_counts"][doc["id"]]
        if corrupt == "zero_chunk_span":
            truth["chunk_span_frames"] = 0
        elif corrupt == "chunk_groups_past_frames":
            truth["chunk_groups"][doc["id"]] += [0] * 100
        elif corrupt == "segment_of_uncounted_id":
            # its segments would be dropped and its frames scored as clean
            truth["anomaly_segments"]["ghost"] = [[0, 3, "pause"]]
        elif corrupt == "segment_of_unknown_type":
            truth["anomaly_segments"][doc["id"]] = [[0, 3, "not-a-type"]]
        elif corrupt.startswith("frame_count_"):
            # a count is read as a number, never as that many frames
            truth["frame_counts"][doc["id"]] = {"frame_count_huge": 10**12, "frame_count_negative": -1,
                                                "frame_count_infinite": float("inf")}[corrupt]
        else:
            # a < 0 would tag the last frames by wrap-around, a > b no frame at all
            a, b = {"segment_negative_start": (-3, 2), "segment_reversed": (5, 3),
                    "segment_past_end": (frames - 2, frames + 1)}[corrupt]
            truth["anomaly_segments"][doc["id"]] = [[a, b, "pause"]]
        (data / "ground_truth.json").write_text(json.dumps(truth))
    else:
        (data / "ground_truth.json").write_text("{}")
    capsys.readouterr()
    assert main(["report", "--masks", str(out), "--truth", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1
    assert "ground truth" in err or not corrupt.startswith("frame_count_")


@pytest.mark.parametrize("learning_rate", [1e3, 1e6])
def test_diverged_training_is_data_error(tmp_path, capsys, learning_rate):
    """1e6 drives the parameters to NaN; 1e3 to values that are finite in
    float64 but overflow the float32 checkpoint."""
    data, model = tmp_path / "data", tmp_path / "m.ckpt"
    assert main(["gen", "--out", str(data), "--config", _tiny_cfg(tmp_path)]) == 0
    cfg = tmp_path / "lr.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": learning_rate, "epochs": 3}}))
    capsys.readouterr()
    argv = ["train-progress", "--data", str(data), "--out", str(model), "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the progress line, then one error line and no numpy warning
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("training on ")
    assert lines[1].startswith("trajcurate: data error: SGD diverged")
    assert list(tmp_path.glob("m.ckpt*")) == []


def test_exhausted_memory_is_exit_two(tmp_path, capsys):
    """A layer of 10^12 units cannot be allocated: numpy's MemoryError ends in
    one line naming the command, not in a traceback with the config-error code."""
    data, model = tmp_path / "data", tmp_path / "m.ckpt"
    assert main(["gen", "--out", str(data), "--config", _tiny_cfg(tmp_path)]) == 0
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"train": {"hidden_sizes": [10**12]}}))
    capsys.readouterr()
    argv = ["train-progress", "--data", str(data), "--out", str(model), "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("training on ")
    assert lines[1].startswith("trajcurate: train-progress ran out of memory: ")
    assert list(tmp_path.glob("m.ckpt*")) == []


@pytest.mark.parametrize("command", ["dedup", "curate", "calibrate"])
def test_unwritable_out_is_data_error(pipeline, tmp_path, capsys, command):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    argv = [command, "--config", pipeline["config"], "--data", str(pipeline["data"]),
            "--out", str(blocker / "sub")]
    if command != "dedup":
        argv += ["--model", str(pipeline["model"])]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1


# Every command in pipeline order, each writing under one directory: the six
# or four trajectories of TINY_CONFIG come from the config file named for them.
_COMMAND_FLAGS = {
    "gen": ["--out", "data"],
    "train-progress": ["--data", "data", "--out", "model.ckpt"],
    "score-subopt": ["--data", "data", "--model", "model.ckpt", "--out", "scored"],
    "dedup": ["--data", "data", "--out", "deduped"],
    "calibrate": ["--data", "data", "--model", "model.ckpt", "--out", "calib"],
    "curate": ["--data", "data", "--model", "model.ckpt", "--out", "curated"],
    "report": ["--masks", "curated", "--truth", "data"],
}
TINY_CONFIG = {
    "seed": 0,
    "synth": {"num_traj": 6, "frames_per_traj": 60, "obs_dim": 8, "duplicate_rate": 0.2},
    "train": {"epochs": 2, "pairs_per_traj": 20, "hidden_sizes": [8]},
}


def _argv(command, num_traj):
    return [command, "--config", f"tiny{num_traj}.json", *_COMMAND_FLAGS[command]]


def _run_chain(num_traj, commands=tuple(_COMMAND_FLAGS)):
    """Run ``commands`` in the working directory on ``num_traj`` trajectories."""
    for command in commands:
        assert main(_argv(command, num_traj)) == 0, command


def _tree(root):
    """Every file and directory under ``root``: relative path -> bytes, or None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def six_run(tmp_path_factory):
    """A directory holding every command's outputs on six trajectories, and the
    configs of six and of four."""
    root = tmp_path_factory.mktemp("six_run")
    for n in (6, 4):
        (root / f"tiny{n}.json").write_text(json.dumps(
            {**TINY_CONFIG, "synth": {**TINY_CONFIG["synth"], "num_traj": n}}))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        _run_chain(6)
    return root


def test_every_command_run_again_equals_a_fresh_run(six_run, tmp_path, monkeypatch):
    """Every command on four trajectories into the paths of a six-trajectory
    run leaves exactly the files of a fresh four-trajectory run."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    _run_chain(4)
    again = _tree(Path("."))
    for path in Path(".").iterdir():
        if not path.name.startswith("tiny"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    _run_chain(4)
    assert again == _tree(Path("."))
    assert len(list(Path("curated/masks").iterdir())) == 4


def test_a_leftover_chunk_embeddings_file_changes_nothing(tmp_path, monkeypatch, capsys):
    """A seed-1 gen into the root of a seed-0 one leaves a chunk_embeddings.bin
    put there in place. No command reads it: dedup, calibrate and curate write the
    bytes and print the lines that they do in a root that never held it."""
    runs = {}
    for name in ("stale", "fresh"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        for seed in (0, 1):
            Path(f"seed{seed}.json").write_text(json.dumps({**TINY_CONFIG, "seed": seed}))
        if name == "stale":
            assert main(["gen", "--config", "seed0.json", *_COMMAND_FLAGS["gen"]]) == 0
            Path("data/chunk_embeddings.bin").write_bytes(b"CEMB" + bytes(range(256)))
        printed = {}
        for command in ("gen", "train-progress", "dedup", "calibrate", "curate"):
            capsys.readouterr()
            assert main([command, "--config", "seed1.json", *_COMMAND_FLAGS[command]]) == 0, command
            printed[command] = capsys.readouterr()
        assert Path("data/chunk_embeddings.bin").exists() == (name == "stale")
        runs[name] = printed, {d: _tree(Path(d)) for d in ("deduped", "calib", "curated")}
    assert runs["stale"] == runs["fresh"]


# the output that each command finds replaced: a file by a directory, or masks/ by a file
_BLOCKED_TARGET = {
    "gen": "data/ground_truth.json",
    "train-progress": "model.ckpt.validation.json",
    "score-subopt": "scored/subopt_report.json",
    "dedup": "deduped/dedup_report.json",
    "calibrate": "calib/calibration_report.json",
    "curate": "curated/masks",
    "report": "curated/evaluation_report.json",
}


@pytest.mark.parametrize("fault", ["target_kind", "nth_move"])
@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
def test_failed_command_leaves_the_previous_outputs_whole(six_run, tmp_path, monkeypatch, capsys,
                                                          command, fault):
    """A four-trajectory run into the paths of a six-trajectory one fails, when
    one target has the other kind (file or directory), or at the n-th move of
    its commit for every n: every file stays as it was, byte for byte, and no
    staging directory is left."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    commands = list(_COMMAND_FLAGS)
    _run_chain(4, commands[:commands.index(command)])

    def failed_whole():
        """The error line of a failed run that changed nothing, or None when the run went through."""
        before = _tree(Path("."))
        capsys.readouterr()
        code = main(_argv(command, 4))
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            return None
        assert code == 2 and err[-1].startswith("trajcurate: data error: ")
        assert _tree(Path(".")) == before
        assert not list(Path(".").rglob(".trajcurate-*"))
        return err[-1]

    if fault == "target_kind":
        target = Path(_BLOCKED_TARGET[command])
        if target.is_dir():
            shutil.rmtree(target)
            target.write_text("a file\n")
        else:
            target.unlink()
            target.mkdir()
        assert failed_whole().endswith(f" {target} is {'not ' if target.is_file() else ''}a directory")
        return
    replace, countdown = os.replace, [0]

    def fail_nth(src, dst):
        countdown[0] -= 1
        if countdown[0] == 0:
            raise OSError(28, "No space left on device")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_nth)
    for n in itertools.count(1):
        countdown[0] = n
        if failed_whole() is None:
            break
    # every command replaces at least one previous output: a move aside, a move in
    assert n > 2


def test_failed_blob_io_in_gen_leaves_the_previous_outputs_whole(six_run, tmp_path, monkeypatch, capsys):
    """gen writes each blob as it builds its trajectory, then reads and writes again the
    two blobs whose planted copy has its source in a later trajectory, and its self-check
    reads the four staged blobs, all before the commit. An OSError at the k-th blob open,
    for every k, ends in exit 2 with one error line: every previous output stays as it
    was, byte for byte, and no staging directory is left."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    before, real_open, countdown, modes = _tree(Path(".")), open, [0], []

    def fail_kth(path, mode="r", *args, **kwargs):
        if str(path).endswith(".bin"):
            modes.append(mode)
            countdown[0] -= 1
            if countdown[0] == 0:
                raise OSError(28, "No space left on device")
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(trajstore, "open", fail_kth, raising=False)
    for k in itertools.count(1):
        countdown[0], modes[:] = k, []
        capsys.readouterr()
        if main(_argv("gen", 4)) == 0:
            break
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("trajcurate: data error: ") and "No space left" in err[0]
        assert _tree(Path(".")) == before
        assert not list(Path(".").rglob(".trajcurate-*"))
    assert modes == ["wb"] * 4 + ["rb", "wb"] * 2 + ["rb"] * 4 and k == len(modes) + 1
    assert len(list(Path("data/trajectories").iterdir())) == 4


def test_empty_manifest_is_exit_0_or_one_error_line(six_run, tmp_path, monkeypatch, capsys):
    """On a dataset whose manifest lists no trajectories, every command that reads
    one either succeeds or ends in exit 2 with one typed error line, its last."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    manifest = json.loads(Path("data/manifest.json").read_text())
    Path("data/manifest.json").write_text(json.dumps({**manifest, "trajectories": []}))
    for command in ("train-progress", "score-subopt", "dedup", "curate", "calibrate"):
        capsys.readouterr()
        code = main(_argv(command, 6))
        err = capsys.readouterr().err.splitlines()
        assert not any("Traceback" in line for line in err), command
        if code:
            assert code == 2 and err[-1].startswith("trajcurate: data error: "), (command, err)
            assert sum(line.startswith("trajcurate: ") for line in err) == 1, (command, err)


def test_checkpoint_bins_must_match_the_config(six_run, tmp_path, monkeypatch, capsys):
    """A checkpoint records the bins it was trained with: scored with a config
    whose gap cap moves the last bin's representative, every scoring command
    exits 1 naming both and writes nothing."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    header = json.loads(Path("model.ckpt").read_bytes().split(b"\n", 1)[0])
    assert header["bins"] == {"edges": [0.0, 0.5, 1.0, 2.0, 5.0],
                              "representatives": [0.25, 0.75, 1.5, 3.5, 7.5]}
    Path("cap30.json").write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "dt_cap": 30}}))
    before = _tree(Path("."))
    for command in ("score-subopt", "calibrate", "curate"):
        capsys.readouterr()
        assert main([command, "--config", "cap30.json", *_COMMAND_FLAGS[command]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("trajcurate: config error: ") and err.count("\n") == 1
        assert "3.5, 7.5]" in err and "3.5, 17.5]" in err
        assert _tree(Path(".")) == before


def test_checkpoint_without_bins_is_data_error(six_run, tmp_path, monkeypatch, capsys):
    """A header without bins is not scored with the config's: it asks for retraining."""
    _assert_header_entry_asks_for_retraining(six_run, tmp_path, monkeypatch, capsys, "bins")


def test_checkpoint_without_checksum_is_data_error(six_run, tmp_path, monkeypatch, capsys):
    """A header without the parameters' crc32 is not trusted: it asks for retraining."""
    _assert_header_entry_asks_for_retraining(six_run, tmp_path, monkeypatch, capsys, "crc32")


def test_checkpoint_with_another_activation_is_data_error(six_run, tmp_path, monkeypatch, capsys):
    """The forward pass applies ReLU only, so a header naming another activation
    is not scored as if it named ReLU: every scoring command exits 2 with one
    line and writes nothing."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    header, blob = Path("model.ckpt").read_bytes().split(b"\n", 1)
    assert json.loads(header)["activation"] == "relu"
    Path("model.ckpt").write_bytes(header.replace(b'"relu"', b'"tanh"') + b"\n" + blob)
    before = _tree(Path("."))
    for command in ("score-subopt", "calibrate", "curate"):
        capsys.readouterr()
        assert main(_argv(command, 6)) == 2
        err = capsys.readouterr().err
        assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1
        assert '"tanh"' in err
        assert _tree(Path(".")) == before


def _assert_header_entry_asks_for_retraining(six_run, tmp_path, monkeypatch, capsys, entry):
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    header, blob = Path("model.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    del header[entry]
    Path("model.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + blob)
    for command in ("score-subopt", "calibrate", "curate"):
        capsys.readouterr()
        assert main(_argv(command, 6)) == 2
        err = capsys.readouterr().err
        assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1
        assert "retrain" in err


_DATA_READERS = ("train-progress", "score-subopt", "dedup", "calibrate", "curate")
# each input of the six-trajectory run, and the commands that read it
_INPUTS = {
    "manifest": ("data/manifest.json", _DATA_READERS),
    "blob": ("data/trajectories/traj_0001.bin", _DATA_READERS),
    "checkpoint": ("model.ckpt", ("score-subopt", "calibrate", "curate")),
    "mask": ("curated/masks/traj_0001.json", ("report",)),
    "ground_truth": ("data/ground_truth.json", ("report",)),
    "config": ("tiny6.json", tuple(_COMMAND_FLAGS)),
}


@pytest.mark.parametrize("corruption", ["truncate", "flip", "directory"])
@pytest.mark.parametrize("name", sorted(_INPUTS))
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_corrupt_input_ends_in_one_error_line(six_run, tmp_path_factory, data, name, corruption):
    """One input truncated, one byte of it flipped, or the file replaced by a
    directory: a command that reads it exits 1 or 2 with one error line, and
    never with a traceback. A flipped byte may leave a valid file (a digit in
    a number); then the command may succeed. A flipped byte in a checkpoint's
    parameters or in a dataset blob always exits 2."""
    path, readers = _INPUTS[name]
    command = data.draw(st.sampled_from(readers), label="command")
    run = tmp_path_factory.mktemp("corrupt")
    shutil.copytree(six_run, run, dirs_exist_ok=True)
    target = run / path
    raw = target.read_bytes()
    if corruption == "truncate":  # at least the closing brace of a JSON file goes
        target.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 2), label="length")])
    elif corruption == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        bits = data.draw(st.integers(1, 255), label="bits")
        target.write_bytes(raw[:at] + bytes([raw[at] ^ bits]) + raw[at + 1:])
    else:
        target.unlink()
        target.mkdir()
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(run)
        code = main(_argv(command, 6))
    lines = err.getvalue().splitlines()
    if name == "checkpoint" and corruption == "flip" and at > raw.index(b"\n"):
        assert code == 2  # a changed parameter byte fails the checkpoint's crc32
    if name == "blob" and corruption == "flip":
        assert code == 2  # a changed payload byte fails the manifest's crc32
    if code != 0 or corruption != "flip":
        assert code in (1, 2)
        errors = [line for line in lines if line.startswith("trajcurate: ")]
        assert errors and errors == lines[-1:]


def test_manifest_id_leaving_out_is_data_error(pipeline, tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(pipeline["data"], data)
    manifest = json.loads((data / "manifest.json").read_text())
    entry = manifest["trajectories"][0]
    (data / "trajectories" / f"{entry['id']}.bin").rename(tmp_path / "outside.bin")
    # masks/<id>.json would land in run/, beside --out
    entry["id"] = "../../outside"
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    argv = ["curate", "--config", pipeline["config"], "--data", str(data),
            "--model", str(pipeline["model"]), "--out", str(run / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1 and "plain file name" in err
    assert not run.exists() or all(p.is_relative_to(run / "out") for p in run.rglob("*"))


# 24 trajectories of 64 observation dimensions: the classifier's and the
# similarities' matrix products are large enough for OpenBLAS to split them
# over threads, and on a 2-core host every mask file's bytes then depend on the
# BLAS thread count
BLAS_CONFIG = {
    "seed": 0,
    "synth": {"num_traj": 24, "frames_per_traj": 300, "obs_dim": 64, "duplicate_rate": 0.05},
    "train": {"epochs": 2, "pairs_per_traj": 20, "hidden_sizes": [64]},
}


@pytest.fixture(scope="module")
def blas_run(tmp_path_factory):
    """A dataset and checkpoint of ``BLAS_CONFIG``, and a function that runs
    ``curate`` on them in a fresh process with extra flags and environment."""
    root = tmp_path_factory.mktemp("blas")
    config = root / "config.json"
    config.write_text(json.dumps(BLAS_CONFIG))
    data, model = root / "data", root / "model" / "model.ckpt"
    assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    assert main(["train-progress", "--config", str(config), "--data", str(data), "--out", str(model)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")

    def curate(name, *flags, **env):
        out = root / name
        subprocess.run(
            [sys.executable, "-c", "import sys; from trajcurate.cli import main; sys.exit(main())",
             "curate", "--config", str(config), "--data", str(data), "--model", str(model),
             "--out", str(out), *flags],
            env={**os.environ, **env,
                 "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
            check=True, capture_output=True, timeout=300,
        )
        return {p.name: p.read_bytes() for p in sorted((out / "masks").glob("*.json"))}

    return curate


def test_blas_thread_count_keeps_decisions(blas_run):
    """A different number of OpenBLAS threads may split a matrix product
    differently, which can move the last bits of a score; the decisions stay."""
    one, two = blas_run("threads1", "--threads", "1"), blas_run("threads2", "--threads", "2")
    assert one and sorted(one) == sorted(two)
    for name in one:
        a, b = json.loads(one[name]), json.loads(two[name])
        assert a["keep"] == b["keep"] and a["reason"] == b["reason"]
        for key in ("subopt_score", "dup_similarity"):
            np.testing.assert_allclose(a[key], b[key], rtol=1e-6, atol=1e-6)


def test_threads_flag_makes_the_bytes_independent_of_the_blas_environment(blas_run):
    """``--threads 1`` sets OpenBLAS's thread count itself, so the mask files
    do not depend on ``OPENBLAS_NUM_THREADS`` (the core count's default)."""
    found = cli._set_blas_threads(1)
    if found is None:
        pytest.skip("numpy loaded no bundled OpenBLAS: --threads changes nothing")
    cli._set_blas_threads(found)
    one = blas_run("env1", "--threads", "1", OPENBLAS_NUM_THREADS="1")
    assert one and one == blas_run("env2", "--threads", "1", OPENBLAS_NUM_THREADS="2")


def test_threads_flag_holds_for_the_command_and_is_undone(tmp_path, monkeypatch):
    """In process, ``--threads N`` sets the BLAS thread count for the command
    alone, on success and on failure; without the flag the count is left be."""
    found = cli._set_blas_threads(3)
    if found is None:
        pytest.skip("numpy loaded no bundled OpenBLAS: --threads changes nothing")
    seen = []

    def probe(args, cfg):
        seen.append(cli._set_blas_threads(2))  # the count the command runs with
        return 0

    monkeypatch.setitem(cli._COMMANDS, "gen", probe)
    try:
        assert main(["gen", "--out", str(tmp_path / "d"), "--threads", "1"]) == 0
        assert cli._set_blas_threads(3) == 3
        assert main(["curate", "--data", str(tmp_path / "missing"), "--model", str(tmp_path / "m"),
                     "--out", str(tmp_path / "o"), "--threads", "2"]) == 2
        assert cli._set_blas_threads(3) == 3
        assert main(["gen", "--out", str(tmp_path / "d")]) == 0
        after = cli._set_blas_threads(found)
    finally:
        cli._set_blas_threads(found)
    assert seen == [1, 3] and after == 2


# runs each command of argv[1] (a JSON list of argvs) in one fresh process and
# prints, after each, which of two numpy modules it has loaded beyond those that
# `import numpy` loads itself (numpy >= 2 loads both lazily, 1.x eagerly)
_LOADED_MODULES_SCRIPT = """
import json, sys
import numpy
watched = {"numpy.ma", "numpy.random"} - set(sys.modules)
from trajcurate.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    print("LOADED", json.dumps(sorted(watched & set(sys.modules))))
"""


def test_only_calibrate_loads_numpy_ma_and_score_subopt_no_numpy_random(tmp_path):
    """``np.unique`` without return flags imports numpy.ma (1.3 MB), which only
    calibrate needs (``np.quantile``). Scoring builds the classifier from
    the checkpoint without numpy.random, which k-means and training load."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def loaded(*commands):
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES_SCRIPT, json.dumps([_argv(c, 6) for c in commands])],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line[len("LOADED "):]) for line in proc.stdout.splitlines() if line.startswith("LOADED ")]

    (tmp_path / "tiny6.json").write_text(json.dumps(TINY_CONFIG))
    assert all("numpy.ma" not in mods for mods in loaded("gen", "train-progress", "dedup", "curate"))
    assert loaded("score-subopt") == [[]]


# each mutation, and the fault that the error line names
_MANIFEST_MUTATIONS = {
    "fps_text": (lambda m: m["trajectories"][0].update(fps="fast"), "'fps' is not a number"),
    "fps_nan": (lambda m: m["trajectories"][0].update(fps=float("nan")), "fps must be positive and finite"),
    "fps_infinite": (lambda m: m["trajectories"][0].update(fps=float("inf")), "fps must be positive and finite"),
    "num_frames_text": (lambda m: m["trajectories"][0].update(num_frames="many"), "'num_frames' is not a number"),
    "num_frames_null": (lambda m: m["trajectories"][0].update(num_frames=None), "'num_frames' is not a number"),
    "obs_dim_text": (lambda m: m.update(obs_dim="wide"), "'obs_dim' is not a number"),
    "action_dim_list": (lambda m: m.update(action_dim=[3]), "'action_dim' is not a number"),
    "trajectories_number": (lambda m: m.update(trajectories=5), "'trajectories' is not a list"),
    "trajectory_entry_number": (lambda m: m["trajectories"].__setitem__(0, 5), "entry missing 'id'"),
}


@pytest.mark.parametrize("mutation", sorted(_MANIFEST_MUTATIONS))
def test_malformed_manifest_is_data_error(pipeline, tmp_path, capsys, mutation):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    manifest = json.loads((data / "manifest.json").read_text())
    mutate, fault = _MANIFEST_MUTATIONS[mutation]
    mutate(manifest)
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    argv = ["curate", "--config", pipeline["config"], "--data", str(data),
            "--model", str(pipeline["model"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1 and fault in err


def test_manifest_with_per_frame_labels_still_loads(pipeline, tmp_path):
    """Earlier versions wrote each frame's ground-truth tag into the manifest
    as ``labels``; such a dataset curates to the same masks, the key ignored."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    manifest = json.loads((data / "manifest.json").read_text())
    tags = frame_tags(GroundTruth.load(data / "ground_truth.json"))
    assert all("labels" not in entry for entry in manifest["trajectories"])
    for entry in manifest["trajectories"]:
        entry["labels"] = tags[entry["id"]]
    (data / "manifest.json").write_text(json.dumps(manifest))
    argv = ["curate", "--config", pipeline["config"], "--data", str(data),
            "--model", str(pipeline["model"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    want = pipeline["curated"] / "masks"
    assert sorted(p.name for p in (tmp_path / "out" / "masks").iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (tmp_path / "out" / "masks" / path.name).read_bytes() == path.read_bytes()


def test_bad_targets_is_usage_error(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--config", _tiny_cfg(tmp_path)]) == 0
    for targets in ("0.1,oops", "1.5"):
        capsys.readouterr()
        code = main([
            "calibrate", "--data", str(out), "--model", "irrelevant",
            "--out", str(tmp_path / "calib"), "--targets", targets,
        ])
        assert code == 1
        assert "--targets" in capsys.readouterr().err


def test_calibrate_without_out_writes_nothing_into_the_dataset(six_run, tmp_path, monkeypatch, capsys):
    """calibrate needs --out or the config's out, as every writing command does: it does
    not fall back to --data, where a later gen would leave its report beside a new dataset."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    before = sorted(p.relative_to("data") for p in Path("data").rglob("*"))
    capsys.readouterr()
    assert main(["calibrate", "--config", "tiny6.json", "--data", "data", "--model", "model.ckpt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: config error: ") and err.count("\n") == 1 and "--out" in err
    assert sorted(p.relative_to("data") for p in Path("data").rglob("*")) == before


def test_manifest_entry_without_crc32_is_data_error(six_run, tmp_path, monkeypatch, capsys):
    """Every manifest entry records its blob's crc32: dedup on a dataset whose
    manifest lost one entry's exits 2 with one line naming that trajectory and
    asking for a new gen, and writes nothing."""
    shutil.copytree(six_run, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    manifest = json.loads(Path("data/manifest.json").read_text())
    del manifest["trajectories"][2]["crc32"]
    Path("data/manifest.json").write_text(json.dumps(manifest))
    shutil.rmtree("deduped")
    before = _tree(Path("."))
    capsys.readouterr()
    assert main(_argv("dedup", 6)) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1
    assert "'traj_0002'" in err and "crc32" in err and "re-run gen" in err
    assert _tree(Path(".")) == before


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--frobnicate"])
    assert err.value.code == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 1


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(trajcurate).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(trajcurate.__all__) == public | {"__version__"}
    assert len(trajcurate.__all__) == len(set(trajcurate.__all__))


def _tiny_cfg(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "synth": {"num_traj": 3, "frames_per_traj": 60, "obs_dim": 20,
                  "duplicate_rate": 0.0},
    }))
    return str(path)


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "out": str(tmp_path / "from_config"),
        "synth": {"num_traj": 3, "frames_per_traj": 60, "obs_dim": 20,
                  "duplicate_rate": 0.0},
    }))
    flag_out = tmp_path / "from_flag"
    assert main(["gen", "--config", str(cfg), "--out", str(flag_out)]) == 0
    assert flag_out.is_dir()
    assert not (tmp_path / "from_config").exists()


def test_config_supplies_out(tmp_path):
    cfg = tmp_path / "config.json"
    out = tmp_path / "from_config"
    cfg.write_text(json.dumps({
        "out": str(out),
        "synth": {"num_traj": 3, "frames_per_traj": 60, "obs_dim": 20,
                  "duplicate_rate": 0.0},
    }))
    assert main(["gen", "--config", str(cfg)]) == 0
    assert (out / "manifest.json").is_file()


def test_gen_prints_summary(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d"), "--config", _tiny_cfg(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "planted min cosine" in out
    assert "clean" in out


def test_gen_is_deterministic_across_runs(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    assert main(["gen", "--out", str(tmp_path / "a"), "--config", cfg]) == 0
    assert main(["gen", "--out", str(tmp_path / "b"), "--config", cfg]) == 0
    for name in ["manifest.json", "ground_truth.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for blob in (tmp_path / "a" / "trajectories").glob("*.bin"):
        twin = tmp_path / "b" / "trajectories" / blob.name
        assert blob.read_bytes() == twin.read_bytes()


def test_config_doc_tables_list_every_config_key():
    """docs/config.md's tables list the keys a config takes, section by section:
    the top level's, then each section's, and no other."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    listed = {}
    for part in doc.split("\n## ")[1:]:
        heading, body = part.split("\n", 1)
        keys = set(re.findall(r"^\| `(\w+)`", body, re.M))
        if keys:
            listed[heading.split("`")[1] if "`" in heading else heading] = keys
    assert listed == {"Top level": {"data", "out", "seed"}, **_SECTION_KEYS}


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    """README's "Library use" snippet, run as written on a small generated
    dataset, so the documented API cannot drift from the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ds, _ = generate(SynthConfig(num_traj=6, frames_per_traj=60, obs_dim=8), "bench")
    capsys.readouterr()
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("held-out bin accuracy ")
    assert sorted(p.name for p in (tmp_path / "curated" / "masks").iterdir()) == [
        f"{t.id}.json" for t in sorted(ds.trajectories, key=lambda t: t.id)
    ]
