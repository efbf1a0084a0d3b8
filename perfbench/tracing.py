"""In-memory span tracing around trajcurate's public functions.

A traced command replaces each function listed in ``WRAPPED`` with a wrapper
that opens a span on entry and closes it on return. The wrapper is written
into every ``trajcurate`` module that refers to the function, so calls that
cross modules (``cli`` -> ``dedup``, ``calibrate`` -> ``dedup``,
``progress`` -> ``nn``) are seen as well. The program's source is untouched.

A span is a dict ``{name, start_ns, end_ns, parent, run_id, counts}``;
``parent`` is the index of the enclosing span in the same list, or None.
Spans stay in memory until the command ends and are then written out whole.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# layer (trajcurate module) -> public functions traced in it. Every function
# here is called a handful of times per command, never per frame or per
# minibatch, so the wrappers cost microseconds in total.
WRAPPED = {
    "cli": ["main"],
    "trajstore": ["load_dataset", "save_dataset", "write_masks", "read_masks"],
    "synthgen": ["generate", "separation_self_check", "evaluate_masks"],
    "progress": ["train_progress_model", "sample_training_pairs"],
    "nn": ["train"],
    "subopt": ["score_dataset"],
    "dedup": ["dedup_dataset", "cluster_dataset", "compute_features", "kmeans",
              "similarity_scores", "duplicate_mask"],
    "calibrate": ["dedup_ratio_curve", "combine_masks"],
}


def _pairs(result, a):
    return {"pairs": len(result),
            "pairs_requested": len(a["ds"].trajectories) * a["pairs_per_traj"]}


def _sgd(result, a):
    n = len(a["labels"])
    return {"sgd_steps": a["cfg"].epochs * math.ceil(n / a["cfg"].batch_size),
            "samples": a["cfg"].epochs * n}


def _windows(result, a):
    return {"windows": sum(int(s.window_scores.size) for s in result[0])}


def _kmeans(result, a):
    return {"k": result.k, "iters": len(result.inertia_history), "reseeds": result.reseeds}


# "layer.function" -> counts taken from the call's bound arguments and result,
# after the span has closed.
COUNTERS = {
    "progress.sample_training_pairs": _pairs,
    "nn.train": _sgd,
    "subopt.score_dataset": _windows,
    "dedup.compute_features": lambda r, a: {"chunks": int(r[0].shape[0])},
    "dedup.kmeans": _kmeans,
    "dedup.duplicate_mask": lambda r, a: {"dropped_chunks": int(r[0].sum())},
    "calibrate.dedup_ratio_curve": lambda r, a: {"points": len(r.points)},
}


class Tracer:
    """Span recorder for one single-threaded command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start_ns": time.perf_counter_ns(), "end_ns": None,
                           "parent": parent, "run_id": self.run_id, "counts": {}})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end_ns"] = time.perf_counter_ns()
        self._open.pop()


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[index]["counts"] = counter(result, bound.arguments)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Route every call to a ``WRAPPED`` function through ``tracer``.

    ``trajcurate.cli`` must already be imported, so that every module holding
    a reference to a traced function is in ``sys.modules``.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "trajcurate" or n.startswith("trajcurate."))]
    for layer, names in WRAPPED.items():
        module = sys.modules[f"trajcurate.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            traced = _wrap(tracer, f"{layer}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)


def duration_s(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - c) / 1e9 for s, c in zip(spans, covered)]


def accounting_errors(spans: list[dict], elapsed_s: float) -> list[str]:
    """Check that one command's spans account for its traced duration.

    There must be one root span (``cli.main``); every child must lie inside
    its parent and after its previous sibling, so that the self times of all
    spans add up to the root's duration; and the root must cover the timer
    the child process put around ``main`` to within 1 ms.
    """
    errors = []
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != "cli.main":
        return [f"expected one cli.main root span, got {[s['name'] for s in roots]}"]
    last_child_end: dict[int, int] = {}
    for s in spans:
        if s["end_ns"] is None:
            errors.append(f"{s['name']}: span never closed")
            continue
        p = s["parent"]
        if p is None:
            continue
        parent = spans[p]
        if s["start_ns"] < max(parent["start_ns"], last_child_end.get(p, 0)) \
                or s["end_ns"] > parent["end_ns"]:
            errors.append(f"{s['name']}: outside its parent {parent['name']} or overlaps a sibling")
        last_child_end[p] = s["end_ns"]
    if errors:
        return errors
    root = duration_s(roots[0])
    total_self = sum(self_times(spans))
    if abs(total_self - root) > 1e-6:
        errors.append(f"self times sum to {total_self:.6f} s, root span is {root:.6f} s")
    if not (0.0 <= elapsed_s - root <= 1e-3):
        errors.append(f"root span {root:.6f} s vs timed main {elapsed_s:.6f} s")
    return errors
