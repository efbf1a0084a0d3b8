"""tools/same_bytes.py: the same-bytes check between a revision and this checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from trajcurate.trajstore import write_masks

from conftest import make_mask

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bytes.py"


def _tool(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], cwd=cwd, capture_output=True, text=True)


def _in_a_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    return probe.returncode == 0


@pytest.mark.skipif(not _in_a_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_head_against_this_checkout_writes_the_same_bytes(tmp_path):
    config = tmp_path / "tiny6.json"
    config.write_text(json.dumps({
        "seed": 0,
        "synth": {"num_traj": 6, "frames_per_traj": 60, "obs_dim": 8, "duplicate_rate": 0.2},
        "train": {"epochs": 2, "pairs_per_traj": 20, "hidden_sizes": [8]},
    }))
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"], capture_output=True, text=True).stdout
    result = _tool("HEAD", "--config", config)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "same bytes"
    # the worktree is gone again
    assert subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True).stdout == worktrees


def _output_tree(root: Path, source: str) -> Path:
    mask = make_mask({
        "t0": ([1, 1, 0], [0, 0, 1], [0.1, 0.2, 0.9], [-1.0, -1.0, -1.0]),
        "t1": ([1, 0], [0, 2], [0.0, 0.0], [0.5, 0.999]),
    })
    write_masks(mask, root / "curated")
    (root / "curated" / "curated_manifest.json").write_text(json.dumps({"source": source, "kept": {}}))
    (root / "stdout").mkdir()
    (root / "stdout" / "report.txt").write_text("exit 0\nanomaly AUROC 0.9\n")
    return root


def test_a_flipped_mask_byte_is_named_with_its_changed_decision(tmp_path):
    old = _output_tree(tmp_path / "old", "/one/place/data")
    new = _output_tree(tmp_path / "new", "/another/place/data")
    # only the data path differs so far, which the check leaves out
    result = _tool("--compare", old, new)
    assert (result.returncode, result.stdout) == (0, "same bytes\n")

    path = new / "curated" / "masks" / "t1.json"
    text = path.read_bytes()
    at = text.index(b'"keep": [1, 0]') + len(b'"keep": [')
    path.write_bytes(text[:at] + b"0" + text[at + 1:])
    result = _tool("--compare", old, new)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "curated/masks/t1.json: differs (1 of 2 keep/drop decisions changed)",
        "1 files differ",
    ]
