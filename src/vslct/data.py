"""Datasets for imbalanced binary classification experiments.

The synthetic task is two isotropic unit-variance Gaussians whose means
are `separation` apart, the shift spread evenly over all features.
Imbalance is produced by subsampling the minority class of a balanced
pool, mirroring the common practice of deriving rare-class benchmarks
from balanced ones.

CSV layout: header f0,...,f{d-1},label; one sample per row; label 0 is
the majority class by convention.  `load_csv` parses a well-formed body
with numpy's C reader and hands anything else to a Python line scan, so
it accepts exactly the files the scan alone would, with the same arrays,
and the scan names the first bad line.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from vslct._util import atomic_write_bytes
from vslct.losses import ClassCounts

__all__ = ["Dataset", "synth_gaussian", "subsample_minority", "load_csv", "save_csv"]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix x of shape (n, d) and 0/1 labels y of shape (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(f"y must be 1-D with one label per row, got shape {y.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def counts(self) -> ClassCounts:
        """Class sizes; raises if class 1 outnumbers class 0."""
        return ClassCounts(n0=int(np.sum(self.y == 0)), n1=int(np.sum(self.y == 1)))


def synth_gaussian(n0: int, n1: int, dim: int, separation: float, rng: np.random.Generator) -> Dataset:
    """Two unit-variance Gaussian classes with mean distance `separation`.

    Class 0 is centered at the origin; class 1 at separation/sqrt(dim) in
    every coordinate, so each feature is equally informative.  Rows are
    shuffled so class blocks do not survive into unshuffled batches.
    """
    if n0 < 1 or n1 < 1:
        raise ValueError(f"class sizes must be >= 1, got n0={n0}, n1={n1}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if separation < 0.0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    shift = separation / math.sqrt(dim)
    x0 = rng.standard_normal((n0, dim))
    x1 = rng.standard_normal((n1, dim)) + shift
    x = np.concatenate([x0, x1], axis=0)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    perm = rng.permutation(n0 + n1)
    return Dataset(x=x[perm], y=y[perm])


def subsample_minority(data: Dataset, beta: float, rng: np.random.Generator) -> Dataset:
    """Thin class 1 until the imbalance ratio reaches beta.

    The retained minority size is floor(n0 / beta), drawn without
    replacement; all majority samples are kept and rows are reshuffled.
    """
    if not beta >= 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    idx0 = np.nonzero(data.y == 0)[0]
    idx1 = np.nonzero(data.y == 1)[0]
    target = int(idx0.size / beta)
    if target < 1:
        raise ValueError(f"beta={beta} leaves no minority samples from n0={idx0.size}")
    if target > idx1.size:
        raise ValueError(f"beta={beta} needs {target} minority samples, only {idx1.size} available")
    chosen = rng.choice(idx1, size=target, replace=False)
    keep = np.concatenate([idx0, chosen])
    keep = keep[rng.permutation(keep.size)]
    return Dataset(x=data.x[keep], y=data.y[keep])


def save_csv(data: Dataset, path) -> None:
    """Write header f0,...,f{d-1},label and one full-precision row per sample.

    The file appears atomically: readers never observe a partial dataset.
    """
    lines = [",".join([f"f{j}" for j in range(data.dim)] + ["label"])]
    for i in range(data.n):
        lines.append(",".join([repr(float(v)) for v in data.x[i]] + [str(int(data.y[i]))]))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    After the header checks the body goes to numpy's C reader
    (`np.loadtxt`), several times faster than a Python parse.  Its result
    is kept only if every label is exactly "0" or "1" and every feature is
    finite.  Every other body goes to a line scan: one loadtxt refuses
    (blank lines of spaces or tabs, digits grouped as in 1_0, any bad
    line), a blank one (loadtxt would warn), and one holding a NUL (numpy
    drops a label's trailing NULs, so "1\\0" would read as "1").  The scan
    returns the same arrays on every body both accept, and it is the only
    code that names a bad line.

    Errors cite the offending 1-based line number: wrong field count,
    unparseable or non-finite feature, non-0/1 label, or a missing/empty body.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first, _, body = text.partition("\n")
    if not first.strip():
        raise ValueError(f"{path}: missing header line")
    header = first.split(",")
    if header[-1] != "label" or len(header) < 2:
        raise ValueError(f"{path}: header must be f0,...,label, got {first!r}")
    dim = len(header) - 1
    if body.strip() and "\0" not in body:
        try:
            table = np.loadtxt(io.StringIO(body), dtype=[("x", np.float64, (dim,)), ("label", "U2")], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            ones = table["label"] == "1"
            x = np.ascontiguousarray(table["x"])
            if np.all(ones | (table["label"] == "0")) and np.all(np.isfinite(x)):
                return Dataset(x=x, y=ones.astype(np.int64))
    return _scan_csv(path, text.split("\n"), dim)


def _scan_csv(path, lines: list[str], dim: int) -> Dataset:
    """Parse the body lines[1:] one line at a time, naming the first bad line."""
    rows: list[list[float]] = []
    labels: list[int] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        fields = ln.split(",")
        if len(fields) != dim + 1:
            raise ValueError(f"{path}: line {lineno}: expected {dim + 1} fields, got {len(fields)}")
        try:
            rows.append([float(tok) for tok in fields[:-1]])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unparseable feature value") from None
        if fields[-1] not in ("0", "1"):
            raise ValueError(f"{path}: line {lineno}: label must be 0 or 1, got {fields[-1]!r}")
        labels.append(int(fields[-1]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.array(rows, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        lineno = [n for n, ln in enumerate(lines[1:], start=2) if ln.strip()][int(np.argmin(finite))]
        raise ValueError(f"{path}: line {lineno}: features must be finite")
    return Dataset(x=x, y=np.array(labels, dtype=np.int64))
