"""Batch curation for sequential demonstration datasets.

Two complementary filters over trajectory data: a self-supervised
task-progress classifier that scores each transition for suboptimality, and
a clustering-based detector for near-duplicate state-action chunks. Both
emit per-frame deletion masks, calibrated either to fixed thresholds or to
target deletion ratios.
"""

from .calibrate import (
    RatioCurve,
    combine_masks,
    dedup_ratio_curve,
    invert_sampled_curve,
    ratio_curve,
    threshold_for_ratio,
)
from .dedup import (
    Chunks,
    ClusterModel,
    DedupConfig,
    chunk_dataset,
    dedup_dataset,
    duplicate_mask,
    embed_chunk,
    kmeans,
    similarity_scores,
)
from .errors import ConfigError, CurationError
from .nn import MlpClassifier, TrainConfig, forward, init_mlp, load_model, save_model, train
from .progress import (
    SamplingConfig,
    TemporalBins,
    TrainingPairs,
    ValidationReport,
    bin_of,
    default_bins,
    sample_training_pairs,
    train_progress_model,
)
from .subopt import (
    ScoreSeries,
    SuboptConfig,
    aggregate_sample_scores,
    discount_scores,
    mix_scores,
    score_dataset,
    subopt_mask,
)
from .synthgen import GroundTruth, SynthConfig, auroc, evaluate_masks, generate
from .trajstore import (
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

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # containers
    "Dataset", "Trajectory", "TrajectoryMask", "CurationMask", "load_dataset",
    "save_dataset", "read_masks", "write_masks", "seconds_to_frames",
    # classifier
    "MlpClassifier", "TrainConfig", "init_mlp", "forward", "train",
    "save_model", "load_model",
    # progress
    "TemporalBins", "TrainingPairs", "SamplingConfig", "ValidationReport",
    "bin_of", "default_bins", "sample_training_pairs", "train_progress_model",
    # suboptimality
    "SuboptConfig", "ScoreSeries", "aggregate_sample_scores", "discount_scores",
    "mix_scores", "subopt_mask", "score_dataset",
    # dedup
    "DedupConfig", "Chunks", "ClusterModel", "chunk_dataset", "embed_chunk",
    "kmeans", "similarity_scores", "duplicate_mask", "dedup_dataset",
    # calibration
    "RatioCurve", "ratio_curve", "dedup_ratio_curve", "threshold_for_ratio",
    "invert_sampled_curve", "combine_masks",
    # synthetic benchmark
    "SynthConfig", "GroundTruth", "generate", "evaluate_masks", "auroc",
    # errors
    "CurationError", "ConfigError",
]
