"""Output checks.  Each returns a list of failure messages; empty means pass.

The checks are plain functions of the program's outputs so the self-tests
can feed each one a wrong answer and see it fail.
"""

from __future__ import annotations

import numpy as np

from vslct import metrics

# Trapezoid AUC against the pair-counting oracle: both are exact rationals
# evaluated in float64, so only rounding separates them.
ORACLE_TOL = 1e-12

# Distance allowed between a run's auc_mean and the value recorded for its
# workload and seed (reference_aucs.json).  A change that reorders float
# operations in training (a fused loss, FiLM once per batch) moves the last
# bits of the weights, and the AUC by far less than this: a relative change
# of 1e-9 in the learning rate left it unchanged, one of 1e-3 moved it by
# 3e-4.  A change in what the model learns moves it more.
REFERENCE_AUC_TOL = 0.005

# Acceptance 09: one conditioned model's ranking barely moves with lambda.
SCAN_AUC_RANGE = 0.01


def row_auc(run_id: str, auc: float, scored) -> list[str]:
    """Scores are finite and the stored trapezoid AUC equals the pair oracle."""
    scores = np.asarray(scored.scores)
    if not np.all(np.isfinite(scores)):
        return [f"{run_id}: non-finite scores"]
    oracle = metrics.auc_pair_oracle(scored)
    if not abs(auc - oracle) <= ORACLE_TOL:
        return [f"{run_id}: trapezoid AUC {auc!r} != pair oracle {oracle!r}"]
    return []


def reference_auc(workload: str, auc: float, reference: float) -> list[str]:
    if not abs(auc - reference) <= REFERENCE_AUC_TOL:
        return [f"{workload}: auc_mean {auc!r} is more than {REFERENCE_AUC_TOL} from the reference {reference!r}"]
    return []


def same_row(first, again) -> list[str]:
    """A repeated op reproduces its first result bit for bit."""
    fields = ("run_id", "kind", "seed", "auc")
    if any(getattr(first, f) != getattr(again, f) for f in fields):
        return [f"{first.run_id}: row fields differ on repetition"]
    if first.scores.tobytes() != again.scores.tobytes() or not np.array_equal(first.labels, again.labels):
        return [f"{first.run_id}: scores or labels differ in their bits on repetition"]
    return []


def same_rows(expected: list, got: list) -> list[str]:
    if [r.run_id for r in expected] != [r.run_id for r in got]:
        return ["decoded rows are not the rows written in setup"]
    return [msg for a, b in zip(expected, got) for msg in same_row(a, b)]


def checkpoint_round_trip(model, loaded) -> list[str]:
    if loaded.config != model.config:
        return ["checkpoint round trip changed the model config"]
    bad = [k for k in model.params if model.params[k].tobytes() != loaded.params[k].tobytes() or model.params[k].shape != loaded.params[k].shape]
    return [f"checkpoint round trip is not bit-exact for {bad}"] if bad else []


def confusion_matches_roc(scored, curve, conf, threshold: float) -> list[str]:
    """TPR/FPR at `threshold` equal the ROC point with the same positives."""
    k = int(np.unique(scored.scores[scored.scores > threshold]).size)
    if (conf.tpr, conf.fpr) != (float(curve.tpr[k]), float(curve.fpr[k])):
        return [f"confusion at {threshold} gives (tpr, fpr) = ({conf.tpr!r}, {conf.fpr!r}), ROC point {k} is ({curve.tpr[k]!r}, {curve.fpr[k]!r})"]
    return []


def roc_envelope(tpr_grid: np.ndarray) -> list[str]:
    """An ROC envelope on [0, 1] is non-decreasing and ends at TPR 1."""
    if np.any(np.diff(tpr_grid) < 0.0) or tpr_grid[0] < 0.0 or tpr_grid[-1] != 1.0:
        return ["ROC envelope on the FPR grid is not a non-decreasing curve ending at 1"]
    return []


def lambda_scan(lambdas, aucs, tprs) -> list[str]:
    """Acceptance 09: AUC range below SCAN_AUC_RANGE, TPR never falls as lambda rises."""
    out = []
    spread = max(aucs) - min(aucs)
    if not spread < SCAN_AUC_RANGE:
        out.append(f"AUC range across lambda is {spread!r}, not below {SCAN_AUC_RANGE}")
    order = np.argsort(lambdas)
    ordered = np.asarray(tprs)[order]
    if np.any(np.diff(ordered) < 0.0):
        out.append(f"TPR at 0.5 decreases as lambda rises: {ordered.tolist()}")
    return out


def no_training(calls: int) -> list[str]:
    return [f"{calls} training calls during a pure resume"] if calls else []


def exit_codes(codes: dict) -> list[str]:
    return [f"vslct {cmd} exited with {code}" for cmd, code in codes.items() if code != 0]


def group_means(report: dict, expected: dict) -> list[str]:
    """`vslct analyze` group means equal analysis.auc_stats on the same rows."""
    out = []
    for kind, mean in expected.items():
        got = report.get("groups", {}).get(kind, {}).get("mean")
        if got != mean:
            out.append(f"analyze mean for {kind} is {got!r}, auc_stats gives {mean!r}")
    return out


def expected_counts(got: dict, expected: dict) -> list[str]:
    return [f"{name}: {got.get(name)} calls, expected {n}" for name, n in expected.items() if got.get(name) != n]


def coverage(op, wall: float, covered: float, allowed: float) -> list[str]:
    """Span self times of one traced op add up to its wall time within `allowed`."""
    gap = (wall - covered) / wall
    if not -allowed <= gap <= allowed:
        return [f"op {op}: spans cover {covered!r} s of {wall!r} s (gap {gap:.2e} beyond {allowed:.2e})"]
    return []
