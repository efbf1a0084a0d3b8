"""Subcommand plumbing: artifacts, exit codes, config/flag precedence."""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trajcurate
from trajcurate.cli import _kept_ranges, main
from trajcurate.config import config_from_dict
from trajcurate.dedup import DedupConfig
from trajcurate.errors import ConfigError
from trajcurate.nn import TrainConfig, load_model
from trajcurate.progress import SamplingConfig
from trajcurate.subopt import SuboptConfig
from trajcurate.synthgen import SynthConfig
from trajcurate.trajstore import load_dataset


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
    data = pipeline["data"]
    assert (data / "manifest.json").is_file()
    assert (data / "ground_truth.json").is_file()
    assert (data / "duplicates.json").is_file()
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
    unexposed = {("synth", "phase_turns"), ("synth", "context_scale")}
    for section, defaults in sections.items():
        for default in defaults:
            for f in fields(default):
                raw = {section: {f.name: getattr(default, f.name)}}
                if (section, f.name) in unexposed:
                    with pytest.raises(ConfigError):
                        config_from_dict(raw)
                else:
                    config_from_dict(raw)
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


@pytest.mark.parametrize("corrupt", [
    "mask_json", "mask_without_keep", "empty_ground_truth",
    "scalar_keep", "scalar_subopt_score", "nested_dup_similarity",
    "zero_chunk_span", "chunk_groups_past_frames",
    "segment_negative_start", "segment_reversed", "segment_past_end",
    "segment_of_uncounted_id", "segment_of_unknown_type",
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
    elif corrupt == "scalar_subopt_score":
        mask.write_text(json.dumps({**doc, "subopt_score": 0.5}))
    elif corrupt == "nested_dup_similarity":
        mask.write_text(json.dumps({**doc, "dup_similarity": [[v] for v in doc["dup_similarity"]]}))
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


def test_nonfinite_chunk_embedding_is_data_error(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "d"
    assert main(["gen", "--out", str(data), "--config", _tiny_cfg(tmp_path)]) == 0
    from trajcurate.dedup import save_chunk_embeddings

    # 3 trajectories x 3 chunks; one infinite component in chunk 4
    emb = np.random.default_rng(0).normal(size=(9, 4))
    emb[4, 2] = np.inf
    save_chunk_embeddings(data / "chunk_embeddings.bin", emb)
    capsys.readouterr()
    assert main(["dedup", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1
    assert "chunk 4 contains NaN/Inf" in err
    assert not (out / "masks").exists() or not any((out / "masks").iterdir())


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


def test_curate_again_into_one_out_leaves_only_its_masks(pipeline, tmp_path):
    """A 6-trajectory curate, then a 4-trajectory one into the same --out:
    the masks and the report cover the second dataset only."""
    out = tmp_path / "curated"
    for num_traj in (6, 4):
        cfg = tmp_path / f"config{num_traj}.json"
        cfg.write_text(json.dumps({**PIPELINE_CONFIG, "synth": {**PIPELINE_CONFIG["synth"], "num_traj": num_traj}}))
        data = tmp_path / f"data{num_traj}"
        assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["curate", "--config", str(cfg), "--data", str(data),
                     "--model", str(pipeline["model"]), "--out", str(out)]) == 0
    assert len(list((out / "masks").glob("*.json"))) == 4
    assert main(["report", "--masks", str(out), "--truth", str(data)]) == 0


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
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1
    assert not run.exists() or all(p.is_relative_to(run / "out") for p in run.rglob("*"))


def test_blas_thread_count_keeps_decisions(pipeline, tmp_path):
    """OpenBLAS may split a matrix product over threads whatever --threads
    says, which can move the last bits of a score; the decisions stay."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    masks = {}
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-c", "import sys; from trajcurate.cli import main; sys.exit(main())",
             "curate", "--config", pipeline["config"], "--data", str(pipeline["data"]),
             "--model", str(pipeline["model"]), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        masks[blas_threads] = {p.name: json.loads(p.read_text()) for p in (out / "masks").glob("*.json")}
    assert masks["1"] and sorted(masks["1"]) == sorted(masks["2"])
    for name, one in masks["1"].items():
        two = masks["2"][name]
        assert one["keep"] == two["keep"] and one["reason"] == two["reason"]
        for key in ("subopt_score", "dup_similarity"):
            np.testing.assert_allclose(one[key], two[key], rtol=1e-6, atol=1e-6)


_MANIFEST_MUTATIONS = {
    "fps_text": lambda m: m["trajectories"][0].update(fps="fast"),
    "fps_nan": lambda m: m["trajectories"][0].update(fps=float("nan")),
    "fps_infinite": lambda m: m["trajectories"][0].update(fps=float("inf")),
    "num_frames_text": lambda m: m["trajectories"][0].update(num_frames="many"),
    "num_frames_null": lambda m: m["trajectories"][0].update(num_frames=None),
    "obs_dim_text": lambda m: m.update(obs_dim="wide"),
    "action_dim_list": lambda m: m.update(action_dim=[3]),
    "trajectories_number": lambda m: m.update(trajectories=5),
    "trajectory_entry_number": lambda m: m["trajectories"].__setitem__(0, 5),
    "labels_number": lambda m: m["trajectories"][0].update(labels=5),
    "labels_of_numbers": lambda m: m["trajectories"][0].update(
        labels=[0] * m["trajectories"][0]["num_frames"]),
    "labels_unhashable": lambda m: m["trajectories"][0].update(
        labels=[["clean"]] * m["trajectories"][0]["num_frames"]),
    "labels_mixed": lambda m: m["trajectories"][0].update(
        labels=["clean", 1.5, True] + ["clean"] * (m["trajectories"][0]["num_frames"] - 3)),
}


@pytest.mark.parametrize("mutation", sorted(_MANIFEST_MUTATIONS))
def test_malformed_manifest_is_data_error(pipeline, tmp_path, capsys, mutation):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    manifest = json.loads((data / "manifest.json").read_text())
    _MANIFEST_MUTATIONS[mutation](manifest)
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    argv = ["curate", "--config", pipeline["config"], "--data", str(data),
            "--model", str(pipeline["model"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajcurate: data error: ") and err.count("\n") == 1


def test_bad_targets_is_usage_error(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--config", _tiny_cfg(tmp_path)]) == 0
    code = main([
        "calibrate", "--data", str(out), "--model", "irrelevant",
        "--targets", "0.1,oops",
    ])
    assert code == 1
    code = main([
        "calibrate", "--data", str(out), "--model", "irrelevant",
        "--targets", "1.5",
    ])
    assert code == 1


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
    for name in ["manifest.json", "ground_truth.json", "duplicates.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for blob in (tmp_path / "a" / "trajectories").glob("*.bin"):
        twin = tmp_path / "b" / "trajectories" / blob.name
        assert blob.read_bytes() == twin.read_bytes()


def test_precomputed_embeddings_are_used(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--config", _tiny_cfg(tmp_path)]) == 0
    # 3 trajectories x 3 chunks of 20 frames; bogus low-dim embeddings
    rng = np.random.default_rng(0)
    from trajcurate.dedup import save_chunk_embeddings

    save_chunk_embeddings(out / "chunk_embeddings.bin", rng.normal(size=(9, 4)))
    assert main(["dedup", "--data", str(out), "--out", str(tmp_path / "dd")]) == 0
    assert "precomputed chunk embeddings" in capsys.readouterr().err
