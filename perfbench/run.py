"""trajcurate benchmark: the README pipeline, run through the CLI and timed
from outside the program.

    python3 perfbench/run.py --workload readme --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout. Each ``trajcurate`` command runs in
a fresh child process (child.py) with ``--threads 1``; the timer covers
``trajcurate.cli.main`` only. A run makes rounds of ``gen -> train-progress
-> curate -> calibrate``; ``gen`` runs five times, each into its own
directory, and each pass command stays in the rounds until its runs add up
to ``--seconds`` (the pass commands read the first dataset). Each time
metric is the median over a step's runs. ``report`` then runs once.

With ``--trace 1`` the untimed pass commands run once each; the run then
generates and runs one more pass with every public trajcurate function
wrapped in a span (tracing.py), and reports the per-layer metrics and the
tracing overhead instead of the end-to-end ones.
``--table`` prints every measured metric with its unit and direction as
well. ``--smoke`` shrinks the workload to a few short trajectories.

Every run gates correctness: each command exits 0, masks cover every frame
of every trajectory, and the masks' SHA-256 and deletion ratio are the same
in the traced pass and in every earlier run of the same source code, config
and seed in this checkout (kept in .perfbench/ledger.json).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Work files go to
``.perfbench/`` in the current directory; the record of each run
(environment, config, metrics, spans) stays in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
GEN_RUNS = 5
MAX_RUNS = 20
RUN_LIMIT_S = 170.0
PASS_COMMANDS = ("train-progress", "curate", "calibrate", "report")
STEPS = ("gen", *PASS_COMMANDS)
TIMED_STEPS = STEPS[:-1]


class Run:
    """One benchmark run: its work directory, the child processes it started
    and the tally of commands and checks attempted and failed."""

    def __init__(self, root: Path, work: Path, run_id: str):
        self.root = root
        self.work = work
        self.run_id = run_id
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def command(self, argv: list[str], tag: str, trace: bool) -> dict | None:
        """Run one trajcurate command in a fresh child; None if it failed."""
        result = self.work / f"{tag}.result.json"
        log = self.work / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.root / "src"), str(result),
               "1" if trace else "0", f"{self.run_id}/{tag}", "--", *argv, "--threads", "1"]
        env = {**os.environ, "TMPDIR": str(self.work)}
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=self.root, env=env)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        ok = proc.returncode == 0 and result.is_file()
        out = json.loads(result.read_text()) if ok else None
        if not self.check(ok and out["rc"] == 0, f"{tag}: exit {proc.returncode}, see {log}"):
            return None
        return out


def tree_digest(root: Path, pattern: str = "*") -> tuple[str, int]:
    """SHA-256 over the relative path and bytes of every file under ``root``
    matching ``pattern``, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def command_argv(name: str, config: Path, data: Path, out: Path) -> list[str]:
    """The CLI arguments of one step: ``gen`` writes ``data``; the pass
    commands read ``data`` and write under ``out``."""
    model = out / "model.ckpt"
    flags = {
        "gen": ["--out", data],
        "train-progress": ["--data", data, "--out", model],
        "curate": ["--data", data, "--model", model, "--out", out / "curated"],
        "calibrate": ["--data", data, "--model", model, "--out", out / "calibration"],
        "report": ["--masks", out / "curated", "--truth", data],
    }[name]
    return [name, "--config", str(config), *map(str, flags)]


def inspect_outputs(run: Run, data: Path, out: Path) -> dict:
    """Gate one pass's outputs and read the numbers they carry."""
    manifest = json.loads((data / "manifest.json").read_text())
    frames = {t["id"]: t["num_frames"] for t in manifest["trajectories"]}
    masks_dir = out / "curated" / "masks"
    files = sorted(p.name for p in masks_dir.glob("*.json"))
    covered = files == sorted(f"{tid}.json" for tid in frames)
    dropped = 0
    for tid, n in frames.items() if covered else ():
        doc = json.loads((masks_dir / f"{tid}.json").read_text())
        fields = ("keep", "reason", "subopt_score", "dup_similarity")
        covered &= doc["id"] == tid and all(len(doc[f]) == n for f in fields)
        dropped += n - sum(doc["keep"])
    run.check(covered, f"{out.name}: masks do not cover every frame of every trajectory")

    ratio = json.loads((out / "curated" / "curation_report.json").read_text())["ratios"]["total"]
    run.check(covered and ratio == dropped / sum(frames.values()),
              f"{out.name}: curation_report deletion ratio {ratio} disagrees with the masks")
    evaluation = json.loads((out / "curated" / "evaluation_report.json").read_text())
    validation = json.loads((out / "model.ckpt.validation.json").read_text())
    quality = {
        "anomaly_auroc": evaluation["anomaly"]["auroc"],
        "dup_precision": evaluation["duplicates"]["precision"],
        "dup_recall": evaluation["duplicates"]["recall"],
        "val_accuracy": validation["accuracy"],
    }
    run.check(all(math.isfinite(v) for v in quality.values()),
              f"{out.name}: non-finite quality metric {quality}")
    digest, size = tree_digest(masks_dir)
    return {"masks_sha256": digest, "mask_bytes": size, "deletion_ratio": ratio, "quality": quality}


def check_ledger(run: Run, ledger: Path, key: str, outcome: dict) -> None:
    """Compare this run's masks with every earlier run of the same source,
    config and seed in this checkout, and record them if this is the first."""
    entries = json.loads(ledger.read_text()) if ledger.is_file() else {}
    seen = entries.setdefault(key, outcome)
    run.check(seen == outcome, f"masks differ from an earlier run of the same code: {seen} vs {outcome}")
    tmp = ledger.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(entries, indent=1, sort_keys=True))
    os.replace(tmp, ledger)


def layer_metrics(spans_by_command: dict[str, list[dict]], outputs: dict) -> dict:
    """Per-layer metrics from one traced gen + pass: busy seconds summed over
    calls, counts, and each command's cli self time."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str, str], float] = {}
    self_s = {}
    for command, spans in spans_by_command.items():
        for span, own in zip(spans, tracing.self_times(spans)):
            busy[span["name"]] = busy.get(span["name"], 0.0) + tracing.duration_s(span)
            calls[span["name"]] = calls.get(span["name"], 0) + 1
            for key, value in span["counts"].items():
                counts[command, span["name"], key] = counts.get((command, span["name"], key), 0) + value
            if span["name"] == "cli.main":
                self_s[command] = own

    def total(name: str, key: str) -> float:
        return sum(v for (_, n, k), v in counts.items() if n == name and k == key)

    def curate(name: str, key: str) -> float:
        return counts.get(("curate", name, key), 0)

    m = {f"{name}_s": seconds for name, seconds in busy.items() if name != "cli.main"}
    m.update({f"cli.{command.split('-')[0]}_self_s": s for command, s in self_s.items()})
    m.update({
        "nn.sgd_steps": total("nn.train", "sgd_steps"),
        "nn.samples_per_s": total("nn.train", "samples") / busy["nn.train"],
        "progress.pairs": total("progress.sample_training_pairs", "pairs"),
        "progress.pair_yield": total("progress.sample_training_pairs", "pairs")
        / total("progress.sample_training_pairs", "pairs_requested"),
        "dedup.chunks": curate("dedup.compute_features", "chunks"),
        "dedup.k": curate("dedup.kmeans", "k"),
        "dedup.kmeans_iters": curate("dedup.kmeans", "iters"),
        "dedup.kmeans_reseeds": curate("dedup.kmeans", "reseeds"),
        "dedup.duplicate_mask_calls": calls["dedup.duplicate_mask"],
        "dedup.dropped_chunks": curate("dedup.duplicate_mask", "dropped_chunks"),
        "calibrate.curve_points": total("calibrate.dedup_ratio_curve", "points"),
        "subopt.windows": curate("subopt.score_dataset", "windows"),
        "subopt.windows_per_s": total("subopt.score_dataset", "windows") / busy["subopt.score_dataset"],
        "trajstore.mask_bytes": outputs["mask_bytes"],
        "deletion_ratio": outputs["deletion_ratio"],
        # report takes a quarter second on readme, too short for a bounded
        # end-to-end metric on a shared machine; its traced span stands in.
        "cli.report_s": tracing.duration_s(spans_by_command["report"][0]),
    })
    return m


def environment(config: dict) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "threads": 1,
        "config": config,
    }


def measure(args, root: Path, work: Path, run: Run) -> dict | None:
    """Set-up, the measured pass and the optional traced pass; the record
    with its metrics, or None when a command failed."""
    config = workloads.config(args.workload, args.seed, args.smoke)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    # Rounds: gen runs GEN_RUNS times, each into its own directory; each pass
    # command runs once per round until its runs add up to --seconds, so
    # short commands are measured many times, spread over the whole run.
    # A traced run needs the untraced times only for the tracing overhead,
    # so it measures each pass command once. report's time is not an
    # end-to-end metric, so it runs once, last.
    samples: dict[str, list[dict]] = {name: [] for name in STEPS}
    data, out = work / "data0", work / "pass"
    budget = 0.0 if args.trace else args.seconds

    def wanted(name: str) -> bool:
        runs = samples[name]
        if name == "gen":
            return len(runs) < GEN_RUNS
        return not runs or (len(runs) < MAX_RUNS and sum(r["elapsed_s"] for r in runs) < budget)

    while any(map(wanted, TIMED_STEPS)):
        for name in filter(wanted, TIMED_STEPS):
            i = len(samples[name])
            argv = command_argv(name, config_path, work / f"data{i}" if name == "gen" else data, out)
            samples[name].append(run.command(argv, f"{name}.{i}", trace=False))
            if samples[name][-1] is None:
                return None
    samples["report"].append(run.command(command_argv("report", config_path, data, out), "report.0", False))
    if samples["report"][0] is None:
        return None
    run.check(len({tree_digest(work / f"data{i}") for i in range(len(samples["gen"]))}) == 1,
              "gen wrote different datasets from one config")
    outputs = inspect_outputs(run, data, out)
    source, _ = tree_digest(root / "src" / "trajcurate", "*.py")
    key = f"{args.workload}|seed={args.seed}|config={hashlib.sha256(config_path.read_bytes()).hexdigest()}|src={source}"
    check_ledger(run, root / ".perfbench" / "ledger.json", key,
                 {"masks_sha256": outputs["masks_sha256"], "deletion_ratio": outputs["deletion_ratio"]})

    median = statistics.median
    seconds = {name: median(r["elapsed_s"] for r in rs) for name, rs in samples.items()}
    rss = {name: median(r["peak_rss_mb"] for r in rs) for name, rs in samples.items()}
    metrics = {
        "setup_s": seconds["gen"],
        "setup_rss_mb": rss["gen"],
        **{f"{name.split('-')[0]}_s": seconds[name] for name in TIMED_STEPS[1:]},
        "peak_rss_mb": max(rss[name] for name in PASS_COMMANDS),
        **outputs["quality"],
    }
    record = {"environment": environment(config), "samples": samples, "outputs": outputs}

    if args.trace:
        data, out = work / "traced_data", work / "traced"
        results = {}
        for name in STEPS:
            results[name] = run.command(command_argv(name, config_path, data, out), f"{name}.traced", True)
            if results[name] is None:
                return None
        traced_out = inspect_outputs(run, data, out)
        run.check(traced_out["masks_sha256"] == outputs["masks_sha256"],
                  "traced pass wrote different masks from the untraced pass")
        for command, result in results.items():
            errors = tracing.accounting_errors(result["spans"], result["elapsed_s"])
            run.check(not errors, f"traced {command}: {errors}")
        metrics.update(layer_metrics({c: r["spans"] for c, r in results.items()}, traced_out))
        metrics["trace.overhead_s"] = sum(r["elapsed_s"] for r in results.values()) - sum(seconds.values())
        record["traced"] = results
    record["metrics"] = metrics
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure each pass command until its runs add up to this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="also print every metric as a table")
    parser.add_argument("--smoke", action="store_true", help="tiny workload, for the benchmark's tests")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "trajcurate" / "cli.py").is_file():
        print(f"perfbench: no trajcurate source tree at {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}-{os.getpid()}"
    work = root / ".perfbench" / "runs" / run_id
    work.mkdir(parents=True)
    run = Run(root, work, run_id)
    record = None
    try:
        record = measure(args, root, work, run)
    finally:
        # Datasets and outputs always go; logs stay when something failed.
        keep_logs = record is None or bool(run.failures)
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif not keep_logs:
                path.unlink()
        if not keep_logs:
            work.rmdir()

    metrics = {}
    if record is not None:
        record["metrics"]["success_rate"] = 1.0 - len(run.failures) / run.attempted
        metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                   for m in reported}
        results = root / ".perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{run_id}.json").write_text(json.dumps(
            {"args": vars(args), "failures": run.failures, "attempted": run.attempted, **record},
            indent=1, sort_keys=True, default=str))
        if args.table:
            units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
            for name, value in sorted(record["metrics"].items()):
                m = units.get(name, {"unit": "-", "better": "-"})
                print(f"{name:40s} {value:16.6f} {m['unit']:8s} {m['better']}")
    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not run.failures, "attempted": max(run.attempted, 1),
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
