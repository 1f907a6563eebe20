"""In-memory spans around the calls into each fairint module.

The traced run wraps, for its own duration, the functions and methods
through which one fairint module calls another (for example the name
``train`` inside ``fairint.cli``, or ``FairIntModel.sar_forward``). Each
wrapper records one span: name, start, end and the span that was open
when it was called. Every wrapper is removed again when the traced
section ends, so the untraced runs execute the program as shipped.

Garbage-collector pauses are recorded beside the spans through
``gc.callbacks``; they overlap the spans rather than nest in them.
"""

import bisect
import contextlib
import functools
import gc
import json
import time
from collections import Counter

import numpy as np

import fairint.autodiff
import fairint.cli
import fairint.losses
import fairint.metrics
import fairint.model
import fairint.training


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "model.forward" if training else "model.eval_forward"


# (owner, attribute, span name). A callable span name picks the name per
# call. Each call site is wrapped where the caller looks the name up, so a
# function imported into two modules is wrapped in both.
INSTRUMENTED = [
    (fairint.cli, "load_schema", "data.load_schema"),
    (fairint.cli, "load_csv", "data.load_csv"),
    (fairint.cli, "split", "data.split"),
    (fairint.cli, "apply_standardization", "data.standardize"),
    (fairint.cli, "full_batch", "data.full_batch"),
    (fairint.cli, "train", "training.train"),
    (fairint.cli, "evaluate_model", "training.evaluate_model"),
    (fairint.cli, "save_model", "model.save"),
    (fairint.cli, "load_model", "model.load"),
    (fairint.cli, "sensitive_probe", "probe.fit"),
    (fairint.training, "batches", "data.batches"),
    (fairint.training, "full_batch", "data.full_batch"),
    (fairint.training, "joint_loss", "losses.joint"),
    (fairint.training, "ce_loss", "losses.ce"),
    (fairint.training, "backward", "autodiff.backward"),
    (fairint.training, "evaluate_model", "training.validate"),
    (fairint.training.Adam, "step", "training.adam"),
    (fairint.losses, "ce_loss", "losses.ce"),
    (fairint.losses, "reconstruction_loss", "losses.sar"),
    (fairint.losses, "group_divergence_loss", "losses.ifc"),
    (fairint.losses, "group_gap_loss", "losses.fc"),
    (fairint.losses, "assign_groups", "losses.groups"),
    (fairint.metrics, "evaluate", "metrics.evaluate"),
    (fairint.metrics, "sar_accuracy", "metrics.sar_accuracy"),
    (fairint.autodiff, "graph_nodes", "autodiff.graph_nodes"),
    (fairint.model._EmbeddingBase, "embed_features", "model.embed"),
    (fairint.model.FairIntModel, "sar_forward", "model.sar"),
    (fairint.model.FairIntModel, "bid_attention", "model.bid"),
    (fairint.model.FairIntModel, "interaction_embedding", "model.interaction"),
    (fairint.model.FairIntModel, "residual_fuse", "model.fuse"),
    (fairint.model.FairIntModel, "predict", "model.predict"),
    (fairint.model.FairIntModel, "forward", _forward_name),
    (fairint.model.VanillaModel, "forward", _forward_name),
]


class Patches:
    """Replaces attributes for a while and puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """Spans and GC pauses of one traced run, kept in memory until written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [name, start, end, parent index or -1]
        self.gc_pauses = []  # (start, end, objects collected)
        self._stack = []
        self._gc_start = None
        self._patches = None

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """One span around a call made from the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _traced(self, original, name):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name(args, kwargs) if callable(name) else name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append((self._gc_start, time.perf_counter(), info.get("collected", 0)))
            self._gc_start = None

    def __enter__(self):
        self._patches = Patches()
        for owner, attr, name in INSTRUMENTED:
            self._patches.wrap(owner, attr, functools.partial(self._traced, name=name))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
            for start, end, collected in self.gc_pauses:
                fh.write(json.dumps({"name": "gc", "start": start, "end": end,
                                     "collected": collected, "run": self.run_id}) + "\n")


class NodeCounter:
    """Counts, per training step, the graph nodes by op and whether both pseudo-groups were present.

    Counting walks each step's graph once more, so it runs in its own pass,
    apart from the timed and the traced passes.
    """

    def __init__(self):
        self.steps = []        # one Counter of node ops per step
        self.active_steps = 0  # steps whose batch held both pseudo-groups
        self._patches = None

    def _backward(self, original):
        @functools.wraps(original)
        def backward(root, *args, **kwargs):
            self.steps.append(Counter(node.op for node in fairint.autodiff.graph_nodes(root)))
            return original(root, *args, **kwargs)

        return backward

    def _assign_groups(self, original):
        @functools.wraps(original)
        def assign_groups(*args, **kwargs):
            groups = original(*args, **kwargs)
            self.active_steps += int(np.unique(groups).size >= 2)
            return groups

        return assign_groups

    def __enter__(self):
        self._patches = Patches()
        self._patches.wrap(fairint.training, "backward", self._backward)
        self._patches.wrap(fairint.losses, "assign_groups", self._assign_groups)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def summary(self) -> dict:
        return NodeCounter.merge([self])

    @staticmethod
    def merge(counters) -> dict:
        """Counts over all steps of the given passes; op names are those of the largest step."""
        steps = [c for counter in counters for c in counter.steps]
        sizes = [sum(c.values()) for c in steps]
        largest = steps[sizes.index(max(sizes))]
        return {
            "steps": len(steps),
            "active_steps": sum(counter.active_steps for counter in counters),
            "nodes_max": max(sizes),
            "nodes_min": min(sizes),
            "nodes_total": sum(sizes),
            "ops_of_largest": dict(sorted(largest.items())),
        }


# Spans that together make up one training step, in the order train() runs them.
STEP_PARTS = ("model.forward", "losses.joint", "losses.ce", "autodiff.backward", "training.adam")


class SpanTable:
    """Durations, self times and ancestry of a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.gc_pauses = tracer.gc_pauses
        self.duration = [end - start for _, start, end, _ in self.spans]
        self.self_time = list(self.duration)
        # a parent is always opened, so listed, before its children
        self.ancestry = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self.self_time[parent] -= self.duration[i]
                self.ancestry.append(self.ancestry[parent] | {self.spans[parent][0]})
            else:
                self.ancestry.append(frozenset())

    def select(self, name, under=None):
        """Indices of spans called ``name``, optionally only those with an ancestor called ``under``."""
        return [i for i, span in enumerate(self.spans)
                if span[0] == name and (under is None or under in self.ancestry[i])]

    def total(self, indices, self_only=False) -> float:
        times = self.self_time if self_only else self.duration
        return sum(times[i] for i in indices)

    def step_spans(self):
        """Top-level step parts: the loss span inside joint_loss is not counted twice."""
        return [i for i, span in enumerate(self.spans)
                if span[0] in STEP_PARTS and span[3] >= 0
                and self.spans[span[3]][0] == "training.train"]

    def self_ms_by_name(self) -> dict:
        """Span name -> {calls, total_ms, self_ms}, over every span recorded."""
        out = {}
        for i, span in enumerate(self.spans):
            row = out.setdefault(span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += self.duration[i] * 1000.0
            row["self_ms"] += self.self_time[i] * 1000.0
        return dict(sorted(out.items()))

    def gc_within(self, indices):
        """(seconds, objects) of GC pauses that started inside the given spans."""
        intervals = sorted((self.spans[i][1], self.spans[i][2]) for i in indices)
        starts = [a for a, _ in intervals]
        seconds = collected = 0
        for start, end, count in self.gc_pauses:
            k = bisect.bisect_right(starts, start) - 1
            if k >= 0 and start <= intervals[k][1]:
                seconds += end - start
                collected += count
        return seconds, collected
