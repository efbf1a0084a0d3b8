"""Check that a revision and this checkout write the same bytes.

    python tools/same_bytes.py REV [--scale N] [--config FILE]
    python tools/same_bytes.py --compare OLD_DIR NEW_DIR

Run from a git checkout of trajcurate. The first form checks REV out with
``git worktree add`` into a temporary directory and runs all seven
trajcurate commands at ``--threads 1``, in REV's tree and in this checkout's,
on the ``readme`` and ``highrate`` configs of ``perfbench/workloads.py``
(seed 0). ``--scale N`` adds the ``readme`` config at N trajectories with
``train.epochs`` 20; ``--config FILE`` runs that config in place of the
workloads. The second form compares two output trees that are already there.

Every output file and every command's standard output must match byte for
byte. The one exception is the ``source`` path in ``curated_manifest.json``,
which records where the data was. On a difference the script names each
file, gives for each mask the count of changed keep/drop decisions, and exits
1; it exits 0 when everything matches, and 2 when a command fails. The
worktree is removed on every path.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One interpreter per tree runs the commands in order, writing each one's
# exit code and standard output to a file of its own under stdout/.
_RUNNER = """
import contextlib, io, json, sys
from trajcurate.cli import main
for argv in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(argv)
    with open(f"stdout/{argv[0]}.txt", "w") as fh:
        fh.write(f"exit {code}\\n{text.getvalue()}")
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def commands(config: Path) -> list[list[str]]:
    """The seven commands over one output tree, with paths relative to it."""
    cfg, data, model = ["--config", str(config)], ["--data", "data"], ["--model", "model/model.ckpt"]
    argvs = [
        ["gen", *cfg, "--out", "data"],
        ["train-progress", *cfg, *data, "--out", "model/model.ckpt"],
        ["score-subopt", *cfg, *data, *model, "--out", "subopt"],
        ["dedup", *cfg, *data, "--out", "dedup"],
        ["curate", *cfg, *data, *model, "--out", "curated"],
        ["calibrate", *cfg, *data, *model, "--out", "calib"],
        ["report", *cfg, "--masks", "curated", "--truth", "data"],
    ]
    return [[*argv, "--threads", "1"] for argv in argvs]


def run_tree(src: Path, config: Path, out: Path) -> None:
    """Run the seven commands with trajcurate from ``src`` into ``out``."""
    (out / "stdout").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argvs = json.dumps(commands(config.resolve()))
    result = subprocess.run([sys.executable, "-c", _RUNNER, argvs], cwd=out, env=env)
    if result.returncode:
        raise RuntimeError(f"a command failed with trajcurate from {src}")


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "curated_manifest.json":
        try:
            source = json.loads(data)["source"]
        except (ValueError, KeyError, TypeError):
            return data  # compared as it is
        data = data.replace(json.dumps(source).encode(), b'"<source>"', 1)
    return data


def _changed_decisions(old: Path, new: Path) -> str:
    try:
        a, b = (json.loads(p.read_bytes())["keep"] for p in (old, new))
    except (ValueError, KeyError, TypeError):
        return "not a readable mask in both trees"
    if len(a) != len(b):
        return f"{len(a)} frames against {len(b)}"
    return f"{sum(x != y for x, y in zip(a, b))} of {len(a)} keep/drop decisions changed"


def compare(old: Path, new: Path) -> list[str]:
    """One line for each file that differs between two output trees."""
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {'the old' if a.is_file() else 'the new'} tree")
        elif _comparable(a) != _comparable(b):
            detail = f" ({_changed_decisions(a, b)})" if rel.parent.name == "masks" else ""
            lines.append(f"{rel}: differs{detail}")
    return lines


def configs(args, work: Path) -> dict[str, Path]:
    """The named configs to run, written under ``work``."""
    if args.config:
        return {"config": Path(args.config)}
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    docs = {name: workloads.config(name, 0) for name in ("readme", "highrate")}
    if args.scale:
        scaled = docs[f"scale{args.scale}"] = workloads.config("readme", 0)
        scaled["synth"]["num_traj"], scaled["train"] = args.scale, {"epochs": 20}
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc, indent=2))
    return {name: work / f"{name}.json" for name in docs}


def same_bytes(args) -> int:
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        work, tree = Path(tmp), Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT)]
        if subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), args.rev]).returncode:
            print(f"same_bytes: cannot check out {args.rev}", file=sys.stderr)
            return 2
        try:
            differences = []
            for name, config in configs(args, work).items():
                print(f"{name}: running {args.rev} and this checkout", file=sys.stderr)
                run_tree(tree / "src", config, work / name / "old")
                run_tree(ROOT / "src", config, work / name / "new")
                differences += [f"{name}/{line}" for line in compare(work / name / "old", work / name / "new")]
        except RuntimeError as exc:
            print(f"same_bytes: {exc}", file=sys.stderr)
            return 2
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=False)
            subprocess.run([*git, "worktree", "prune"], check=False)
    return report(differences)


def report(differences: list[str]) -> int:
    for line in differences:
        print(line)
    print("same bytes" if not differences else f"{len(differences)} files differ")
    return 1 if differences else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare this checkout with")
    parser.add_argument("--scale", type=int, default=0, help="add the readme config at this many trajectories, 20 epochs")
    parser.add_argument("--config", help="run this config in place of the benchmark workloads")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two existing output trees")
    args = parser.parse_args(argv)
    if args.compare:
        return report(compare(Path(args.compare[0]), Path(args.compare[1])))
    if not args.rev:
        parser.error("give a revision, or --compare OLD NEW")
    return same_bytes(args)


if __name__ == "__main__":
    sys.exit(main())
