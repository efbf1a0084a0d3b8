"""Shared fixtures.

The benchmark datasets and the trained progress classifiers are expensive
(minutes of CPU), so they are built once per session and shared across
test modules. Everything here is deterministic: same seeds, same bytes.
The model fixtures also record their training wall time because the
acceptance suite asserts a runtime budget on training.
"""

import time

import numpy as np
import pytest

from trajcurate.nn import TrainConfig, init_mlp
from trajcurate.progress import SamplingConfig, default_bins, train_progress_model
from trajcurate.synthgen import SynthConfig, generate
from trajcurate.trajstore import REASONS, CurationMask, Dataset, Trajectory


def make_trajectory(rng, traj_id="t0", n=40, obs_dim=6, action_dim=3, fps=10.0):
    return Trajectory(
        id=traj_id,
        fps=fps,
        obs=rng.normal(size=(n, obs_dim)).astype(np.float32),
        actions=rng.normal(size=(n, action_dim)).astype(np.float32),
    )


def make_dataset(rng, num_traj=4, n=40, obs_dim=6, action_dim=3, fps=10.0):
    trajs = [
        make_trajectory(rng, f"t{i:03d}", n, obs_dim, action_dim, fps)
        for i in range(num_traj)
    ]
    return Dataset(trajectories=trajs, obs_dim=obs_dim, action_dim=action_dim)


def make_mask(parts: dict) -> CurationMask:
    """A mask from per-trajectory fields, laid out in the dict's order: ``parts``
    maps each id to its ``(keep, reason, subopt_score, dup_similarity)``. A reason
    given by its name in ``REASONS`` becomes its code."""
    lengths = [len(fields[0]) for fields in parts.values()]
    columns = [[v for fields in parts.values() for v in fields[i]] for i in range(4)]
    columns[1] = np.array([REASONS.index(r) if isinstance(r, str) else r for r in columns[1]], dtype=np.uint8)
    return CurationMask(tuple(parts), np.cumsum([0, *lengths]), *columns)


def frame_tags(gt) -> dict[str, list[str]]:
    """Per-frame tags of a ground truth, "clean" or the anomaly type, built
    from its frame counts and anomaly segments."""
    tags = {tid: ["clean"] * n for tid, n in gt.frame_counts.items()}
    for tid, segs in gt.anomaly_segments.items():
        for a, b, kind in segs:
            tags[tid][a:b] = [kind] * (b - a)
    return tags


@pytest.fixture(scope="session")
def default_benchmark(tmp_path_factory):
    """The stock benchmark: 200 clean trajectories with planted duplicates."""
    return generate(SynthConfig(), tmp_path_factory.mktemp("default_benchmark"))


@pytest.fixture(scope="session")
def anomalous_benchmark(tmp_path_factory):
    """Benchmark variant where 20% of trajectories carry an anomaly."""
    cfg = SynthConfig(
        anomaly_rates={
            "pause": 0.05,
            "slow": 0.05,
            "back_and_forth": 0.05,
            "failure_retry": 0.05,
        }
    )
    return generate(cfg, tmp_path_factory.mktemp("anomalous_benchmark"))


@pytest.fixture(scope="session")
def progress_model(default_benchmark):
    """(model, validation report, training seconds) on the clean benchmark."""
    ds, _ = default_benchmark
    start = time.perf_counter()
    model, report = train_progress_model(
        ds, default_bins(), TrainConfig(), SamplingConfig()
    )
    return model, report, time.perf_counter() - start


@pytest.fixture(scope="session")
def anomalous_model(anomalous_benchmark):
    """Classifier trained on the anomalous benchmark, as a real run would."""
    ds, _ = anomalous_benchmark
    start = time.perf_counter()
    model, report = train_progress_model(
        ds, default_bins(), TrainConfig(), SamplingConfig()
    )
    return model, report, time.perf_counter() - start


@pytest.fixture()
def tiny_model():
    """Small untrained network for formula-level tests (fast, deterministic)."""
    return init_mlp([6, 8, 5], seed=7)
