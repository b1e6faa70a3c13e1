"""Tests for dataset generation, subsampling, and CSV round trips."""

import re

import numpy as np
import pytest

from vslct.data import Dataset, load_csv, save_csv, subsample_minority, synth_gaussian

# Best achievable AUC for two unit Gaussians `sep` apart is
# Phi(sep / sqrt(2)); value below is for sep = 2.5.
BAYES_AUC_SEP_2_5 = 0.9614500641282291


class TestDataset:
    """Container validation."""

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros(3), y=np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), y=np.zeros(4, dtype=int))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([[np.inf, 0.0]]), y=np.array([0]))
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 2)), y=np.array([0, 2]))

    def test_counts(self):
        d = Dataset(x=np.zeros((5, 1)), y=np.array([0, 0, 0, 1, 1]))
        assert d.counts.n0 == 3 and d.counts.n1 == 2
        assert d.n == 5 and d.dim == 1

    def test_counts_requires_majority_convention(self):
        d = Dataset(x=np.zeros((3, 1)), y=np.array([1, 1, 0]))
        with pytest.raises(ValueError):
            _ = d.counts


class TestSynthGaussian:
    """Synthetic two-Gaussian generator."""

    def test_shapes_and_counts(self):
        d = synth_gaussian(n0=200, n1=50, dim=4, separation=2.0, rng=np.random.default_rng(40))
        assert d.x.shape == (250, 4)
        assert d.counts.n0 == 200 and d.counts.n1 == 50

    def test_deterministic_given_seed(self):
        a = synth_gaussian(100, 30, 3, 1.5, np.random.default_rng(41))
        b = synth_gaussian(100, 30, 3, 1.5, np.random.default_rng(41))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_rows_are_shuffled(self):
        d = synth_gaussian(50, 50, 2, 0.0, np.random.default_rng(42))
        assert not (np.all(d.y[:50] == 0) and np.all(d.y[50:] == 1))

    def test_class_means_separated_as_requested(self):
        sep = 2.5
        d = synth_gaussian(20_000, 20_000, 5, sep, np.random.default_rng(43))
        mu0 = d.x[d.y == 0].mean(axis=0)
        mu1 = d.x[d.y == 1].mean(axis=0)
        np.testing.assert_allclose(np.linalg.norm(mu1 - mu0), sep, atol=0.05)
        # the shift is spread evenly over coordinates
        np.testing.assert_allclose(mu1 - mu0, np.full(5, sep / np.sqrt(5)), atol=0.05)

    def test_optimal_direction_auc_near_bayes(self):
        sep = 2.5
        d = synth_gaussian(20_000, 20_000, 10, sep, np.random.default_rng(44))
        score = d.x.sum(axis=1)  # proportional to the likelihood-ratio statistic
        from vslct.metrics import LabeledScores, roc_curve

        auc = roc_curve(LabeledScores(score, d.y)).auc
        np.testing.assert_allclose(auc, BAYES_AUC_SEP_2_5, atol=0.005)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synth_gaussian(0, 10, 2, 1.0, rng)
        with pytest.raises(ValueError):
            synth_gaussian(10, 10, 0, 1.0, rng)
        with pytest.raises(ValueError):
            synth_gaussian(10, 10, 2, -1.0, rng)


class TestSubsampleMinority:
    """Imbalance by thinning class 1."""

    def test_floor_rounding(self):
        base = synth_gaussian(5000, 500, 2, 1.0, np.random.default_rng(45))
        at100 = subsample_minority(base, beta=100.0, rng=np.random.default_rng(46))
        assert at100.counts.n0 == 5000 and at100.counts.n1 == 50
        at200 = subsample_minority(base, beta=200.0, rng=np.random.default_rng(46))
        assert at200.counts.n1 == 25
        at10 = subsample_minority(base, beta=10.0, rng=np.random.default_rng(46))
        assert at10.counts.n1 == 500

    def test_majority_rows_all_kept(self):
        base = synth_gaussian(300, 100, 2, 1.0, np.random.default_rng(47))
        thin = subsample_minority(base, beta=10.0, rng=np.random.default_rng(48))
        kept0 = thin.x[thin.y == 0]
        orig0 = base.x[base.y == 0]
        assert kept0.shape == orig0.shape
        order = np.lexsort(kept0.T)
        order_orig = np.lexsort(orig0.T)
        np.testing.assert_array_equal(kept0[order], orig0[order_orig])

    def test_minority_rows_come_from_original(self):
        base = synth_gaussian(300, 100, 2, 1.0, np.random.default_rng(49))
        thin = subsample_minority(base, beta=30.0, rng=np.random.default_rng(50))
        orig1 = {tuple(row) for row in base.x[base.y == 1]}
        assert all(tuple(row) in orig1 for row in thin.x[thin.y == 1])
        assert thin.counts.n1 == 10

    def test_validation(self):
        base = synth_gaussian(100, 10, 2, 1.0, np.random.default_rng(51))
        with pytest.raises(ValueError):
            subsample_minority(base, beta=0.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            subsample_minority(base, beta=5.0, rng=np.random.default_rng(0))  # needs 20 > 10
        with pytest.raises(ValueError):
            subsample_minority(base, beta=200.0, rng=np.random.default_rng(0))  # floor -> 0


class TestCsvRoundTrip:
    """Full-precision CSV serialization."""

    def test_round_trip_is_exact(self, tmp_path):
        base = synth_gaussian(30, 10, 3, 1.7, np.random.default_rng(57))
        path = tmp_path / "data.csv"
        save_csv(base, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.x, base.x)
        np.testing.assert_array_equal(back.y, base.y)

    def test_header_format(self, tmp_path):
        base = synth_gaussian(2, 1, 2, 0.5, np.random.default_rng(58))
        path = tmp_path / "data.csv"
        save_csv(base, path)
        assert path.read_text().splitlines()[0] == "f0,f1,label"

    def test_errors_cite_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)
        path.write_text("f0,f1,label\n1.0,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)
        path.write_text("f0,f1,label\n1.0,2.0,7\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_non_finite_feature_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n\n1.0,nan,1\n-inf,0.0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: features must be finite")):
            load_csv(path)

    def test_structural_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)
        path.write_text("f0,f1,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)
