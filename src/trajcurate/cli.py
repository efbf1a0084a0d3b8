"""Command-line pipeline driver.

Exit codes: 0 success, 1 usage/configuration error, 2 data error.
Summaries go to stdout; diagnostics to stderr; reports are JSON files with
sorted keys and no timestamps, so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    calibration_report,
    combine_masks,
    dedup_ratio_curve,
    invert_sampled_curve,
    ratio_curve,
    threshold_for_ratio,
)
from .config import PipelineConfig, load_config
from .dedup import cluster_dataset, dedup_dataset, load_chunk_embeddings
from .errors import ConfigError, CurationError, IoFailure
from .nn import load_model, save_model
from .progress import TemporalBins, default_bins, train_progress_model
from .subopt import score_dataset, subopt_report
from .synthgen import generate, GroundTruth, evaluate_masks, separation_self_check
from .trajstore import (
    REASONS,
    load_dataset,
    read_masks,
    save_dataset,
    seconds_to_frames,
    write_masks,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this pipeline reserves 2 for data
    problems, so usage failures are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_json(path: Path, payload: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _require(value: str | None, fallback: str | None, name: str) -> str:
    resolved = value if value is not None else fallback
    if resolved is None:
        raise ConfigError(f"missing required path: give --{name} or set '{name}' in the config")
    return resolved


def _kept_ranges(keep: np.ndarray) -> list[list[int]]:
    """Half-open [start, end) runs of kept frames."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], keep, [False]))))
    return edges.reshape(-1, 2).tolist()


def _print_table(rows: list[tuple], header: tuple) -> None:
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def _progress_bins(cfg: PipelineConfig, ds) -> TemporalBins:
    """Bins for the gap cap, which must count in frames at the top fps (a ConfigError)."""
    if ds.trajectories:
        seconds_to_frames(cfg.sampling.dt_cap, max(t.fps for t in ds.trajectories))
    return default_bins(cfg.sampling.dt_cap)


# --- subcommands ------------------------------------------------------------------


def _cmd_gen(args, cfg: PipelineConfig) -> int:
    out = Path(_require(args.out, cfg.out, "out"))
    ds, gt = generate(cfg.synth)
    save_dataset(ds, out)
    gt.save(out / "ground_truth.json")
    gt.save_duplicates(out / "duplicates.json", cfg.synth.chunk_seconds)
    check = separation_self_check(ds, gt)
    print(f"generated {len(ds)} trajectories, {ds.total_frames} frames -> {out}", file=sys.stderr)

    by_kind: dict[str, int] = {}
    for segs in gt.anomaly_segments.values():
        kind = segs[0][2] if segs else "clean"
        by_kind[kind] = by_kind.get(kind, 0) + 1
    rows = [(k, v) for k, v in sorted(by_kind.items())]
    rows.append(("duplicate groups", len(gt.groups())))
    rows.append(("planted min cosine", f"{check['planted_min_similarity']:.6f}"))
    rows.append(("non-planted max cosine", f"{check['nonplanted_max_similarity']:.6f}"))
    _print_table(rows, ("category", "value"))
    return 0


def _cmd_train_progress(args, cfg: PipelineConfig) -> int:
    data = _require(args.data, cfg.data, "data")
    out = Path(_require(args.out, cfg.out, "out"))
    ds = load_dataset(data)
    bins = _progress_bins(cfg, ds)
    print(f"training on {len(ds)} trajectories ({ds.total_frames} frames)", file=sys.stderr)
    model, report = train_progress_model(ds, bins, cfg.train, cfg.sampling, cfg.hidden_sizes)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_json(Path(str(out) + ".validation.json"),
                {"format_version": 1, **asdict(report)})
    _print_table(
        [
            ("train pairs", report.pairs_train),
            ("validation pairs", report.pairs_val),
            ("held-out accuracy", f"{report.accuracy:.4f}"),
        ],
        ("metric", "value"),
    )
    return 0


def _cmd_score_subopt(args, cfg: PipelineConfig) -> int:
    data = _require(args.data, cfg.data, "data")
    out = Path(_require(args.out, cfg.out, "out"))
    model = load_model(_require(args.model, None, "model"))
    ds = load_dataset(data)
    bins = _progress_bins(cfg, ds)
    series, mask = score_dataset(ds, model, bins, cfg.subopt)
    write_masks(mask, out)
    scores_dir = out / "scores"
    try:
        scores_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    for s in series:
        _write_json(scores_dir / f"{s.traj_id}.json", {
            "format_version": 1,
            "id": s.traj_id,
            "window_scores": s.window_scores.tolist(),
            "sample_scores": s.sample_scores.tolist(),
            "discounted": s.discounted.tolist(),
            "final": s.final.tolist(),
        })
    _write_json(out / "subopt_report.json", subopt_report(series, mask, cfg.subopt))
    _print_table(
        [
            ("frames", mask.total_frames),
            ("dropped", mask.dropped_frames()),
            ("deletion ratio", f"{mask.deletion_ratio():.4f}"),
        ],
        ("metric", "value"),
    )
    return 0


def _load_embeddings_if_present(data: str):
    path = Path(data) / "chunk_embeddings.bin"
    if path.exists():
        embeddings = load_chunk_embeddings(path)
        print(f"using precomputed chunk embeddings: {path}", file=sys.stderr)
        return embeddings
    return None


def _cmd_dedup(args, cfg: PipelineConfig) -> int:
    data = _require(args.data, cfg.data, "data")
    out = Path(_require(args.out, cfg.out, "out"))
    ds = load_dataset(data)
    mask, report = dedup_dataset(ds, cfg.dedup, _load_embeddings_if_present(data))
    write_masks(mask, out)
    _write_json(out / "dedup_report.json", report)
    _print_table(
        [
            ("chunks", report["num_chunks"]),
            ("clusters", report["k"]),
            ("dropped frames", mask.dropped_frames()),
            ("deletion ratio", f"{mask.deletion_ratio():.4f}"),
        ],
        ("metric", "value"),
    )
    return 0


def _parse_targets(spec: str) -> list[float]:
    try:
        targets = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --targets value {spec!r}: {exc}") from exc
    if not targets or any(not (0.0 <= t <= 1.0) for t in targets):
        raise ConfigError("--targets must be comma-separated ratios in [0, 1]")
    return targets


def _quantile_grid(values: np.ndarray, count: int) -> np.ndarray:
    qs = np.linspace(0.0, 1.0, count)
    return np.unique(np.quantile(values, qs))


def _cmd_calibrate(args, cfg: PipelineConfig) -> int:
    data = _require(args.data, cfg.data, "data")
    out = Path(args.out if args.out is not None else (cfg.out or data))
    targets = _parse_targets(args.targets)
    model = load_model(_require(args.model, None, "model"))
    ds = load_dataset(data)
    bins = _progress_bins(cfg, ds)

    # only the final scores stay: the other score arrays are freed before clustering
    finals = np.concatenate([s.final for s in score_dataset(ds, model, bins, cfg.subopt)[0]])
    sub_curve = ratio_curve(finals, _quantile_grid(finals, 33))

    clustered = cluster_dataset(ds, cfg.dedup, _load_embeddings_if_present(data))
    sims = clustered[3][clustered[3] > -1.5]
    if sims.size:
        grid = np.append(_quantile_grid(sims, 17), max(1.0, float(sims.max()) + 1e-9))
        dup_curve = dedup_ratio_curve(ds, cfg.dedup, grid, clustered)
        dup_curves = [dup_curve]
    else:
        dup_curve = None
        dup_curves = []

    points = []
    for target in targets:
        theta, achieved = threshold_for_ratio(finals, target)
        points.append({
            "method": "suboptimal", "target_ratio": target,
            "threshold": theta, "achieved_ratio": achieved,
        })
        if dup_curve is not None:
            theta_d, achieved_d = invert_sampled_curve(dup_curve, target)
            points.append({
                "method": "dedup", "target_ratio": target,
                "threshold": theta_d, "achieved_ratio": achieved_d,
            })
    _write_json(out / "calibration_report.json",
                calibration_report([sub_curve, *dup_curves], points))

    rows = [
        (c.method, f"{t:.6f}", f"{r:.4f}")
        for c in [sub_curve, *dup_curves]
        for t, r in c.points
    ]
    _print_table(rows, ("method", "threshold", "deletion_ratio"))
    print()
    _print_table(
        [(p["method"], p["target_ratio"], f"{p['threshold']:.6f}", f"{p['achieved_ratio']:.4f}")
         for p in points],
        ("method", "target", "threshold", "achieved"),
    )
    return 0


def _cmd_curate(args, cfg: PipelineConfig) -> int:
    data = _require(args.data, cfg.data, "data")
    out = Path(_require(args.out, cfg.out, "out"))
    model = load_model(_require(args.model, None, "model"))
    ds = load_dataset(data)
    bins = _progress_bins(cfg, ds)

    series, sub_mask = score_dataset(ds, model, bins, cfg.subopt)
    sub_report = subopt_report(series, sub_mask, cfg.subopt)
    del series  # the mask keeps what is written; the other score arrays go before clustering
    dup_mask, dedup_rep = dedup_dataset(ds, cfg.dedup, _load_embeddings_if_present(data))
    combined = combine_masks(sub_mask, dup_mask)
    write_masks(combined, out)

    total = combined.total_frames
    counts = dict(zip(REASONS, combined.reason_counts().tolist()))
    n_both, n_total = counts["both"], sum(counts.values())
    n_sub, n_dup = counts["suboptimal"] + n_both, counts["duplicate"] + n_both
    ratios = {name: n / total if total else 0.0
              for name, n in (("suboptimal", n_sub), ("dedup", n_dup), ("total", n_total))}

    manifest = {
        "format_version": 1,
        "source": str(data),
        "total_frames": total,
        "kept_frames": total - n_total,
        "trajectories": {
            tid: {
                "num_frames": len(m.keep),
                "kept_frames": int(m.keep.sum()),
                "kept_ranges": _kept_ranges(m.keep),
            }
            for tid, m in sorted(combined.masks.items())
        },
    }
    _write_json(out / "curated_manifest.json", manifest)
    _write_json(out / "curation_report.json", {
        "format_version": 1,
        "total_frames": total,
        "dropped": {
            "suboptimal_only": n_sub - n_both,
            "duplicate_only": n_dup - n_both,
            "both": n_both,
            "total": n_total,
        },
        "ratios": ratios,
        "subopt_report": sub_report,
        "dedup_report": dedup_rep,
    })
    _print_table(
        [
            ("Suboptimal-Only", n_sub, f"{ratios['suboptimal']:.4f}"),
            ("Deduplication-Only", n_dup, f"{ratios['dedup']:.4f}"),
            ("Total", n_total, f"{ratios['total']:.4f}"),
        ],
        ("method", "frames dropped", "deletion ratio"),
    )
    return 0


def _cmd_report(args, cfg: PipelineConfig) -> int:
    masks_root = Path(_require(args.masks, cfg.out, "masks"))
    truth_root = Path(_require(args.truth, cfg.data, "truth"))
    mask = read_masks(masks_root / "masks")
    gt = GroundTruth.load(truth_root / "ground_truth.json")
    metrics = evaluate_masks(mask, gt)
    _write_json(masks_root / "evaluation_report.json", {"format_version": 1, **metrics})

    anom = metrics["anomaly"]
    dup = metrics["duplicates"]
    rows = [
        ("anomaly AUROC", f"{anom['auroc']:.4f}"),
        ("anomaly precision", f"{anom['precision']:.4f}"),
        ("anomaly recall", f"{anom['recall']:.4f}"),
        ("clean-frame FPR", f"{anom['fpr_clean']:.4f}"),
        *[(f"recall[{k}]", f"{v:.4f}") for k, v in sorted(anom["per_type_recall"].items())],
        ("duplicate precision", f"{dup['precision']:.4f}"),
        ("duplicate recall", f"{dup['recall']:.4f}"),
    ]
    _print_table(rows, ("metric", "value"))
    return 0


# --- entry point ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="trajcurate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, **flags) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON pipeline config")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: every stage runs on one thread")
        for flag, help_str in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", default=None, help=help_str)

    add("gen", "generate the labeled synthetic benchmark",
        out="output dataset directory")
    add("train-progress", "train the task-progress classifier",
        data="dataset directory", out="checkpoint path to write")
    add("score-subopt", "score transitions and emit suboptimality masks",
        data="dataset directory", model="progress checkpoint", out="output directory")
    add("dedup", "cluster chunks and emit duplicate masks",
        data="dataset directory", out="output directory")
    add("calibrate", "sweep thresholds against deletion ratios",
        data="dataset directory", model="progress checkpoint",
        out="report directory (defaults to --data)",
        targets="comma-separated target deletion ratios")
    add("curate", "full pipeline: combined masks + curated manifest",
        data="dataset directory", model="progress checkpoint", out="output directory")
    add("report", "evaluate masks against synthetic ground truth",
        masks="directory holding masks/ from a previous run",
        truth="dataset directory containing ground_truth.json")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "train-progress": _cmd_train_progress,
    "score-subopt": _cmd_score_subopt,
    "dedup": _cmd_dedup,
    "calibrate": _cmd_calibrate,
    "curate": _cmd_curate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("trajcurate: error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if args.command == "calibrate" and args.targets is None:
            args.targets = "0.1,0.2,0.3"
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"trajcurate: config error: {exc}", file=sys.stderr)
        return 1
    except CurationError as exc:
        print(f"trajcurate: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
