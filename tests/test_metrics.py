"""Tests for ROC construction, AUC, and the pair-counting cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vslct.metrics import (
    ConfusionCounts,
    LabeledScores,
    RocCurve,
    auc_pair_oracle,
    confusion_at_threshold,
    roc_at_fpr_grid,
    roc_curve,
)

# Worked example: scores/labels chosen to exercise a cross-class tie.
EX_SCORES = np.array([0.9, 0.8, 0.8, 0.3, 0.2])
EX_LABELS = np.array([1, 1, 0, 0, 1])
EX_AUC = 7.0 / 12.0


def random_labeled_scores(rng, quantize: bool) -> LabeledScores:
    n_pos = int(rng.integers(5, 80))
    n_neg = int(rng.integers(5, 80))
    scores = rng.normal(size=n_pos + n_neg) + np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    if quantize:
        scores = np.round(scores, 1)
    labels = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    perm = rng.permutation(scores.size)
    return LabeledScores(scores=scores[perm], labels=labels[perm])


def stable_sort_roc(data: LabeledScores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds) from a stable sort: the reference for roc_curve."""
    order = np.argsort(-data.scores, kind="stable")
    s = data.scores[order]
    y = data.labels[order]
    block_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tpr = np.concatenate(([0.0], np.cumsum(y == 1)[block_end] / data.n_pos))
    fpr = np.concatenate(([0.0], np.cumsum(y == 0)[block_end] / data.n_neg))
    # a tied 0.0 and -0.0 are one score, reported as 0.0
    thresholds = np.concatenate(([np.inf], s[block_end][1:] + 0.0, [-np.inf]))
    return fpr, tpr, thresholds


# magnitudes across the exponent range: subnormals, the smallest normal,
# 2 and above (which set the top exponent bit) and the largest doubles
EDGE_MAGNITUDES = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-30, 2.0, 3.0, 1e30, 1e300, 1.7e308, 1.7976931348623157e308]


@st.composite
def labeled_scores(draw) -> LabeledScores:
    """Both classes present; scores either continuous or drawn from a few values, across the exponent range, with pairs s and -s and a tied 0.0/-0.0 block."""
    n = draw(st.integers(2, 60))
    labels = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    labels[:2] = [0, 1]
    score = st.one_of(
        st.floats(-5.0, 5.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(EDGE_MAGNITUDES + [-m for m in EDGE_MAGNITUDES]),
    )
    if draw(st.booleans()):
        values = draw(st.lists(score, min_size=1, max_size=4, unique=True))
        scores = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    else:
        scores = draw(st.lists(score, min_size=n, max_size=n))
    # the last rows mirror the first ones: s and -s have one magnitude but are two scores
    mirrored = draw(st.integers(0, n // 2))
    scores[n - mirrored :] = [-v for v in scores[:mirrored]]
    # a tied block of 0.0 and -0.0 in any order, which reads as one score
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=n))
    scores[: len(zeros)] = zeros
    return LabeledScores(np.array(scores), labels)


class TestLabeledScores:
    """Input validation for the score container."""

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LabeledScores(scores=np.array([0.1, 0.2]), labels=np.array([1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledScores(scores=np.array([0.1, 0.2]), labels=np.array([0, 2]))

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError):
            LabeledScores(scores=np.array([0.1, np.nan]), labels=np.array([0, 1]))

    def test_requires_both_classes_for_roc(self):
        with pytest.raises(ValueError):
            roc_curve(LabeledScores(scores=np.array([0.1, 0.2]), labels=np.array([1, 1])))

    def test_class_counts(self):
        data = LabeledScores(scores=EX_SCORES, labels=EX_LABELS)
        assert data.n_pos == 3
        assert data.n_neg == 2

    def test_int64_labels_kept_other_dtypes_converted(self):
        scores = np.array([0.1, 0.2, 0.3])
        labels = np.array([0, 1, 1], dtype=np.int64)
        assert LabeledScores(scores, labels).labels is labels
        for other in (labels.astype(bool), labels.astype(np.int32), labels.astype(np.float64)):
            data = LabeledScores(scores, other)
            assert data.labels.dtype == np.int64
            assert data.labels.tolist() == [0, 1, 1]
            assert (data.n_pos, data.n_neg) == (2, 1)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledScores(scores, np.array([0.0, 1.0, np.nan]))


class TestRocCurve:
    """Curve shape, endpoints, and the worked example."""

    def test_worked_example(self):
        curve = roc_curve(LabeledScores(EX_SCORES, EX_LABELS))
        np.testing.assert_allclose(curve.fpr, [0.0, 0.0, 0.5, 1.0, 1.0])
        np.testing.assert_allclose(curve.tpr, [0.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, 1.0])
        np.testing.assert_array_equal(curve.thresholds, [np.inf, 0.8, 0.3, 0.2, -np.inf])
        np.testing.assert_allclose(curve.auc, EX_AUC, rtol=1e-15)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            data = random_labeled_scores(rng, quantize=bool(rng.integers(0, 2)))
            curve = roc_curve(data)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert np.all(np.diff(curve.fpr) >= 0.0)
            assert np.all(np.diff(curve.tpr) >= 0.0)
            assert np.all(np.diff(curve.thresholds) < 0.0)

    def test_points_reproduced_by_strict_thresholding(self):
        rng = np.random.default_rng(31)
        data = random_labeled_scores(rng, quantize=True)
        curve = roc_curve(data)
        for i, t in enumerate(curve.thresholds):
            counts = confusion_at_threshold(data, float(t))
            np.testing.assert_allclose(counts.fpr, curve.fpr[i], rtol=1e-14)
            np.testing.assert_allclose(counts.tpr, curve.tpr[i], rtol=1e-14)

    def test_tied_signed_zeros_give_threshold_zero(self):
        labels = np.array([1, 0, 1, 0])
        for scores in ([1.0, 0.0, -0.0, -1.0], [1.0, -0.0, 0.0, -1.0]):
            curve = roc_curve(LabeledScores(np.array(scores), labels))
            assert curve.thresholds.tobytes() == np.array([np.inf, 0.0, -1.0, -np.inf]).tobytes()

    def test_all_tied_scores(self):
        data = LabeledScores(scores=np.full(10, 0.7), labels=np.array([1, 0] * 5))
        curve = roc_curve(data)
        np.testing.assert_allclose(curve.fpr, [0.0, 1.0])
        np.testing.assert_allclose(curve.tpr, [0.0, 1.0])
        np.testing.assert_allclose(curve.auc, 0.5, rtol=1e-15)


class TestRocCurveProperties:
    """roc_curve on tie-heavy and continuous scores."""

    @settings(max_examples=200, deadline=None)
    @given(data=labeled_scores())
    def test_equal_to_stable_sort_monotone_and_oracle_auc(self, data):
        curve = roc_curve(data)
        fpr, tpr, thresholds = stable_sort_roc(data)
        assert curve.fpr.tobytes() == fpr.tobytes()
        assert curve.tpr.tobytes() == tpr.tobytes()
        assert curve.thresholds.tobytes() == thresholds.tobytes()
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0.0) and np.all(np.diff(curve.tpr) >= 0.0)
        assert abs(curve.auc - auc_pair_oracle(data)) <= 1e-12

    def test_large_set_equal_to_stable_sort(self):
        # probabilities with ties, their mirror images, and magnitudes across the exponent range
        rng = np.random.default_rng(36)
        probs = 1.0 / (1.0 + np.exp(-3.0 * rng.normal(size=12_000)))
        probs[:2000] = np.round(probs[:2000], 2)
        exponents = rng.integers(-1074, 1024, size=4000)
        wide = np.ldexp(rng.uniform(0.5, 1.0, size=4000), exponents) * rng.choice([-1.0, 1.0], size=4000)
        edges = rng.choice(EDGE_MAGNITUDES + [0.0, -0.0], size=1000)
        scores = np.concatenate([probs, -probs[:3000], wide[np.isfinite(wide)], edges, -edges])
        scores = scores[rng.permutation(scores.size)]
        labels = (rng.uniform(size=scores.size) < 0.3).astype(np.int64)
        data = LabeledScores(scores, labels)
        assert data.n_pos > 0 and data.n_neg > 0 and scores.size >= 20_000
        curve = roc_curve(data)
        for got, expected in zip((curve.fpr, curve.tpr, curve.thresholds), stable_sort_roc(data)):
            assert got.tobytes() == expected.tobytes()


class TestAuc:
    """Trapezoid AUC against pair counting and its symmetries."""

    def test_perfect_and_reversed(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert roc_curve(LabeledScores(scores, labels)).auc == 1.0
        assert roc_curve(LabeledScores(-scores, labels)).auc == 0.0

    def test_reversal_complements_auc(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            data = random_labeled_scores(rng, quantize=True)
            a = roc_curve(data).auc
            b = roc_curve(LabeledScores(-data.scores, data.labels)).auc
            np.testing.assert_allclose(a + b, 1.0, atol=1e-12)

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(33)
        for i in range(60):
            data = random_labeled_scores(rng, quantize=(i % 2 == 0))
            assert abs(roc_curve(data).auc - auc_pair_oracle(data)) < 1e-9

    def test_pair_oracle_worked_example(self):
        np.testing.assert_allclose(auc_pair_oracle(LabeledScores(EX_SCORES, EX_LABELS)), EX_AUC, rtol=1e-15)


class TestConfusion:
    """Strict-threshold confusion tables."""

    def test_strict_inequality_at_tied_score(self):
        data = LabeledScores(EX_SCORES, EX_LABELS)
        counts = confusion_at_threshold(data, 0.8)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 0, 2, 2)

    def test_rates_and_accuracy(self):
        counts = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
        np.testing.assert_allclose(counts.tpr, 0.6)
        np.testing.assert_allclose(counts.fpr, 0.2)

    def test_undefined_rates_raise(self):
        with pytest.raises(ValueError):
            _ = ConfusionCounts(tp=0, fp=1, tn=1, fn=0).tpr
        with pytest.raises(ValueError):
            _ = ConfusionCounts(tp=1, fp=0, tn=0, fn=1).fpr


class TestRocAtFprGrid:
    """Upper-envelope evaluation of the curve at fixed FPR values."""

    def test_vertical_jump_returns_top(self):
        curve = roc_curve(LabeledScores(EX_SCORES, EX_LABELS))
        np.testing.assert_allclose(roc_at_fpr_grid(curve, np.array([0.0])), [1.0 / 3.0])
        np.testing.assert_allclose(roc_at_fpr_grid(curve, np.array([1.0])), [1.0])

    def test_linear_between_distinct_fprs(self):
        curve = roc_curve(LabeledScores(EX_SCORES, EX_LABELS))
        np.testing.assert_allclose(roc_at_fpr_grid(curve, np.array([0.25])), [0.5])
        np.testing.assert_allclose(roc_at_fpr_grid(curve, np.array([0.75])), [2.0 / 3.0])

    def test_grid_integral_approximates_auc(self):
        rng = np.random.default_rng(34)
        data = random_labeled_scores(rng, quantize=False)
        curve = roc_curve(data)
        grid = np.linspace(0.0, 1.0, 20001)
        dense = roc_at_fpr_grid(curve, grid)
        np.testing.assert_allclose(np.trapezoid(dense, grid), curve.auc, atol=1e-5)

    def test_equal_to_np_interp_on_tied_curves(self):
        # np.interp resolves duplicate x values to the same envelope, though
        # numpy does not document it; it is the reference here
        rng = np.random.default_rng(35)
        curves = [roc_curve(LabeledScores(EX_SCORES, EX_LABELS))]
        curves += [roc_curve(random_labeled_scores(rng, quantize=i % 2 == 0)) for i in range(200)]
        for curve in curves:
            grid = np.concatenate([np.linspace(0.0, 1.0, 101), rng.uniform(size=50), curve.fpr])
            got = roc_at_fpr_grid(curve, grid)
            assert got.tobytes() == np.interp(grid, curve.fpr, curve.tpr).tobytes()

    def test_rejects_out_of_range_grid(self):
        curve = roc_curve(LabeledScores(EX_SCORES, EX_LABELS))
        with pytest.raises(ValueError):
            roc_at_fpr_grid(curve, np.array([-0.1]))
        with pytest.raises(ValueError):
            roc_at_fpr_grid(curve, np.array([1.1]))

    def test_rejects_nan_in_grid(self):
        curve = roc_curve(LabeledScores(EX_SCORES, EX_LABELS))
        with pytest.raises(ValueError, match="must lie in"):
            roc_at_fpr_grid(curve, np.array([np.nan, 0.5]))
