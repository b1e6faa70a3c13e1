"""ROC curves and AUC for binary scores.

Conventions used throughout:

* Scores are minority-class probabilities (or any monotone transform);
  higher means more confident in class 1.
* A threshold t predicts class 1 exactly when score > t, strictly.
* The ROC curve enumerates thresholds +inf, then each distinct score in
  descending order, then -inf; the +inf point and the highest-score point
  coincide at (0, 0), so the highest score is dropped.  Every curve point
  is therefore reproduced exactly by `confusion_at_threshold` at the
  matching entry of `thresholds`.
* AUC integrates the curve by the trapezoid rule, which on step-shaped
  ROC data equals the tie-aware pair-counting probability
  P(score_pos > score_neg) + 0.5 P(tie).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LabeledScores",
    "ConfusionCounts",
    "RocCurve",
    "roc_curve",
    "auc_pair_oracle",
    "confusion_at_threshold",
    "roc_at_fpr_grid",
]


@dataclass(frozen=True)
class LabeledScores:
    """Parallel arrays of classifier scores and 0/1 labels.

    Scores become float64 and labels int64, without a copy when they
    already are; the class sizes n_pos and n_neg are counted once, here.
    """

    scores: np.ndarray
    labels: np.ndarray
    n_pos: int = field(init=False, repr=False, compare=False)
    n_neg: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.ndim != 1:
            raise ValueError("scores and labels must be one-dimensional")
        if scores.shape != labels.shape:
            raise ValueError(f"length mismatch: {scores.shape[0]} scores, {labels.shape[0]} labels")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        n_pos = int(np.count_nonzero(labels == 1))
        n_neg = int(np.count_nonzero(labels == 0))
        if n_pos + n_neg != labels.size:
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        object.__setattr__(self, "n_pos", n_pos)
        object.__setattr__(self, "n_neg", n_neg)

    def require_both_classes(self) -> None:
        if self.n_pos == 0 or self.n_neg == 0:
            raise ValueError("need at least one sample of each class")


@dataclass(frozen=True)
class ConfusionCounts:
    """2x2 confusion table at a fixed threshold."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> float:
        pos = self.tp + self.fn
        if pos == 0:
            raise ValueError("TPR undefined without positive samples")
        return self.tp / pos

    @property
    def fpr(self) -> float:
        neg = self.fp + self.tn
        if neg == 0:
            raise ValueError("FPR undefined without negative samples")
        return self.fp / neg


@dataclass(frozen=True)
class RocCurve:
    """Operating points (fpr[i], tpr[i]) achieved by score > thresholds[i]."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    @property
    def auc(self) -> float:
        """Area under the curve by the trapezoid rule."""
        return float(np.trapezoid(self.tpr, self.fpr))


def roc_curve(data: LabeledScores) -> RocCurve:
    """Full ROC curve over all distinct-score thresholds.

    The first point is (0, 0) at threshold +inf and the last is (1, 1) at
    threshold -inf; interior point i is the confusion at `thresholds[i]`,
    i.e. counts over samples scoring strictly above it.

    Cumulative counts are read only at the last index of each tied block,
    and a tied 0.0 and -0.0 are reported as the threshold 0.0, so the
    order within a tie is never read and any sort kind gives the same
    curve.
    """
    data.require_both_classes()
    order = np.argsort(-data.scores)
    s = data.scores[order]
    # last index of each tied block = cumulative counts through that score
    is_end = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=is_end[:-1])
    is_end[-1] = True
    block_end = np.flatnonzero(is_end)
    tp = np.cumsum(data.labels[order])[block_end]
    del order, is_end  # the curve's three arrays come next, so drop what is no longer read
    tpr, fpr, thresholds = (np.empty(block_end.size + 1) for _ in range(3))
    tpr[0] = fpr[0] = 0.0
    np.divide(tp, data.n_pos, out=tpr[1:])
    # the point after block k is achieved by thresholding at the next
    # distinct score below it (or -inf after the last block)
    thresholds[0], thresholds[-1] = np.inf, -np.inf
    np.take(s, block_end[1:], out=thresholds[1:-1])
    thresholds[1:-1] += 0.0  # a tied block of 0.0 and -0.0 reads 0.0
    fp = np.add(block_end, 1, out=block_end)
    fp -= tp
    np.divide(fp, data.n_neg, out=fpr[1:])
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def confusion_at_threshold(data: LabeledScores, threshold: float) -> ConfusionCounts:
    """Confusion table for the strict rule: predict 1 iff score > threshold."""
    pred = data.scores > threshold
    tp = int(np.count_nonzero(pred & (data.labels == 1)))
    fp = int(np.count_nonzero(pred)) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=data.n_neg - fp, fn=data.n_pos - tp)


def auc_pair_oracle(data: LabeledScores) -> float:
    """AUC by direct pair counting: P(pos > neg) + 0.5 P(pos == neg).

    Quadratic in class sizes; intended as an independent cross-check of
    the trapezoid value on the ROC curve.
    """
    data.require_both_classes()
    pos = data.scores[data.labels == 1]
    neg = data.scores[data.labels == 0]
    greater = np.sum(pos[:, None] > neg[None, :], dtype=np.float64)
    ties = np.sum(pos[:, None] == neg[None, :], dtype=np.float64)
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


def roc_at_fpr_grid(curve: RocCurve, fpr_grid: np.ndarray) -> np.ndarray:
    """TPR of the curve's upper envelope at the requested FPR values.

    Vertical segments (several TPRs at one FPR) contribute their top
    point; between distinct FPRs the curve is interpolated linearly,
    matching the trapezoid geometry used for the AUC.  The curve is one
    from :func:`roc_curve`: fpr non-decreasing from 0 to 1.
    """
    fpr_grid = np.asarray(fpr_grid, dtype=np.float64)
    if not np.all((fpr_grid >= 0.0) & (fpr_grid <= 1.0)):  # written so that NaN fails too
        raise ValueError("FPR grid values must lie in [0, 1]")
    fpr, tpr = curve.fpr, curve.tpr
    # (x0, y0): the last point at or left of each grid value, the top of a
    # vertical run as fpr[0] = 0; (x1, y1): the first point to its right
    left = np.searchsorted(fpr, fpr_grid, side="right") - 1
    right = np.minimum(left + 1, fpr.size - 1)
    x0, y0, x1, y1 = fpr[left], tpr[left], fpr[right], tpr[right]
    # only an exact hit on the last point divides 0 by 0, and a hit reads y0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - y0) / (x1 - x0)
    return np.where(x0 == fpr_grid, y0, slope * (fpr_grid - x0) + y0)
