"""In-memory span recorder that wraps the public functions of each vslct layer.

A span is (name, start, end, parent, op): the wrapped call's name, its
perf_counter interval, the index of the span open when it started (-1 for
none) and the benchmark op it belongs to.  Spans stay in Python lists
while the run lasts and are written out once, when it ends.

Every layer is measured from outside: `Recorder.installed()` replaces
each traced name with a wrapper and restores the original on exit.  A
plain function is replaced in every loaded vslct module that holds it,
because `from vslct.x import f` copies the name and the caller then looks
it up in its own module (training.py calls `sgd_step`, analysis.py calls
`train_lct`, cli.py calls `run_sweep`).  Methods are replaced on their
class, which is where every call site finds them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# Every span the benchmark reports, in layer order.  A listed span that is
# never called reports calls = 0; it does not vanish.
SPAN_NAMES = (
    "training.train_lct",
    "training.train_baseline",
    "training.batch_loss_and_grads",
    "training.draw",
    "training.hyper_at",
    "training.evaluate",
    "network.forward.step",
    "network.forward.eval",
    "network.backward",
    "network.sgd_step",
    "network.init",
    "network.save_checkpoint",
    "network.load_checkpoint",
    "losses.vs_loss_binary_batch",
    "losses.vs_loss_grad_batch",
    "lindist.sample",
    "metrics.roc_curve",
    "metrics.confusion_at_threshold",
    "metrics.roc_at_fpr_grid",
    "analysis.run_sweep",
    "analysis.aggregate_roc",
    "analysis.auc_stats",
    "analysis.paired_t_test",
    "analysis.polyfit_r2",
    "data.synth_gaussian",
    "data.load_csv",
    "data.save_csv",
    "cli.sweep",
    "cli.roc",
    "cli.analyze",
)

# Per-span statistics: (suffix, unit).
SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))

# Ratios measured at span boundaries, beyond the per-span statistics.
EXTRA_METRICS = (
    ("network.sgd_step.clip_frac", "ratio"),
    ("analysis.run_sweep.reuse_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# (module, attribute, span name) for plain functions.
FUNCTION_TARGETS = (
    ("vslct.training", "train_lct", "training.train_lct"),
    ("vslct.training", "train_baseline", "training.train_baseline"),
    ("vslct.training", "batch_loss_and_grads", "training.batch_loss_and_grads"),
    ("vslct.training", "evaluate", "training.evaluate"),
    ("vslct.network", "sgd_step", "network.sgd_step"),
    ("vslct.network", "save_checkpoint", "network.save_checkpoint"),
    ("vslct.network", "load_checkpoint", "network.load_checkpoint"),
    ("vslct.losses", "vs_loss_binary_batch", "losses.vs_loss_binary_batch"),
    ("vslct.losses", "vs_loss_grad_batch", "losses.vs_loss_grad_batch"),
    ("vslct.metrics", "roc_curve", "metrics.roc_curve"),
    ("vslct.metrics", "confusion_at_threshold", "metrics.confusion_at_threshold"),
    ("vslct.metrics", "roc_at_fpr_grid", "metrics.roc_at_fpr_grid"),
    ("vslct.analysis", "run_sweep", "analysis.run_sweep"),
    ("vslct.analysis", "aggregate_roc", "analysis.aggregate_roc"),
    ("vslct.analysis", "auc_stats", "analysis.auc_stats"),
    ("vslct.analysis", "paired_t_test", "analysis.paired_t_test"),
    ("vslct.analysis", "polyfit_r2", "analysis.polyfit_r2"),
    ("vslct.data", "synth_gaussian", "data.synth_gaussian"),
    ("vslct.data", "load_csv", "data.load_csv"),
    ("vslct.data", "save_csv", "data.save_csv"),
    # `vslct <command>` run in process; the span is named after the command.
    ("vslct.cli", "main", "cli"),
)

# (module, class, method, span name) for methods.
METHOD_TARGETS = (
    ("vslct.training", "LctConfig", "draw", "training.draw"),
    ("vslct.training", "LctConfig", "hyper_at", "training.hyper_at"),
    ("vslct.network", "MlpFilmModel", "forward", "network.forward"),
    ("vslct.network", "MlpFilmModel", "backward", "network.backward"),
    ("vslct.network", "MlpFilmModel", "init", "network.init"),
    ("vslct.lindist", "LinearDistribution", "sample", "lindist.sample"),
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{span}.{suffix}", unit) for span in SPAN_NAMES for suffix, unit in SPAN_STATS]
    return names + list(EXTRA_METRICS)


class Recorder:
    """Holds spans as parallel lists and the counters measured at span boundaries.

    `hooks` maps a span name to a callback after(args, kwargs, result) that
    runs after every call of that target, so a workload can see what a
    layer returned without patching anything itself.  With trace=False the
    recorder wraps only the hooked targets and records no spans: untraced
    runs get the hooks at the cost of one plain wrapper per hooked call.
    """

    def __init__(self, trace: bool = True, hooks: dict | None = None):
        self.trace = trace
        self.hooks = hooks or {}
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list = []
        self.current_op = None
        self._stack: list[int] = []
        self.clipped = 0
        self.runs_requested = 0
        self._patches = None

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.name[i] == name for i in self._stack)

    def _wrap(self, fn, name, afters=()):
        """Wrapper recording one span per call, then running `afters`; `name` may be a callable of the call."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            for after in afters:
                after(args, kwargs, out)
            return out

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            for after in afters:
                after(args, kwargs, out)
            return out

        return wrapper if self.trace else hooked

    # -- installing -------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced or hooked name."""
        patches = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "vslct" or n.startswith("vslct.")]
        for module_name, attr, span in FUNCTION_TARGETS:
            if not (self.trace or span in self.hooks):
                continue
            original = getattr(importlib.import_module(module_name), attr)
            name = (lambda args: f"cli.{args[0][0]}") if span == "cli" else span
            wrapper = self._wrap(original, name, self._afters(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        for module_name, cls_name, attr, span in METHOD_TARGETS:
            if not (self.trace or span in self.hooks):
                continue
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, span, self._afters(span)))
            else:
                name = self._forward_name if span == "network.forward" else span
                wrapper = self._wrap(original, name, self._afters(span))
            patches.append((cls, attr, original, wrapper))
        return patches

    def _afters(self, span: str) -> list:
        """Callbacks after each call of `span`: the recorder's own counters, then the hook."""
        counters = {"network.sgd_step": self._count_clip, "analysis.run_sweep": self._count_requested}
        afters = [counters[span]] if self.trace and span in counters else []
        return afters + ([self.hooks[span]] if span in self.hooks else [])

    def _forward_name(self, _args) -> str:
        return "network.forward.eval" if self.inside("training.evaluate") else "network.forward.step"

    def _count_clip(self, _args, kwargs, norm) -> None:
        clip = kwargs.get("clip_norm")
        if clip is not None and norm > clip:
            self.clipped += 1

    def _count_requested(self, args, _kwargs, _rows) -> None:
        if self.current_op != "setup":
            self.runs_requested += len(args[0])

    @contextmanager
    def installed(self, op):
        """Trace every target while the block runs, attributing spans to `op`."""
        if self._patches is None:
            self._patches = self._build_patches()
        self.current_op = op
        for owner, key, _original, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _wrapper in reversed(self._patches):
                setattr(owner, key, original)
            self.current_op = None

    # -- summaries --------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.array(self.end) - np.array(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        parent = np.array(self.parent, dtype=np.int64)
        child_total = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child_total, parent[has_parent], dur[has_parent])
        return dur - child_total

    def self_time_by_op(self) -> dict:
        """Sum of self times of each op's spans, which is the time its spans cover."""
        out: dict = {}
        for s, op in zip(self.self_times().tolist(), self.op):
            out[op] = out.get(op, 0.0) + s
        return out

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] == name:
                return True
            p = self.parent[p]
        return False

    def span_metrics(self) -> dict[str, float]:
        """calls, self_s and p50_us for every listed span."""
        names = np.array(self.name, dtype=object)
        dur = self.durations()
        selves = self.self_times()
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            mask = names == span if names.size else np.zeros(0, dtype=bool)
            n = int(np.count_nonzero(mask))
            out[f"{span}.calls"] = n
            out[f"{span}.self_s"] = float(np.sum(selves[mask])) if n else 0.0
            out[f"{span}.p50_us"] = float(np.median(dur[mask])) * 1e6 if n else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as JSON columns (times in seconds)."""
        payload = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
