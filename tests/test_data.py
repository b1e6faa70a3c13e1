"""Tests for dataset generation, subsampling, and CSV round trips."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vslct import data
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

    @pytest.mark.parametrize(
        "beta, message", [(float("nan"), "beta must be >= 1, got nan"), (float("inf"), "beta=inf leaves no minority samples")], ids=["nan", "inf"]
    )
    def test_non_finite_beta_named(self, beta, message):
        base = synth_gaussian(100, 10, 2, 1.0, np.random.default_rng(51))
        with pytest.raises(ValueError, match=message):
            subsample_minority(base, beta=beta, rng=np.random.default_rng(0))


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


def outcome(read):
    """The bytes, shape and dtypes read() returns, or the message of its ValueError."""
    try:
        got = read()
    except ValueError as exc:
        return ("error", str(exc))
    return ("data", got.x.tobytes(), got.x.shape, got.x.dtype.str, got.x.flags.c_contiguous, got.y.tobytes(), got.y.dtype.str)


def scanned(path):
    """What the line scan alone makes of the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return outcome(lambda: data._scan_csv(path, lines, len(lines[0].split(",")) - 1))


def write_exact(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# Bodies after the header f0,f1,label.  None: the scan accepts the body;
# otherwise a fragment of the scan's error.
EDGE_BODIES = [
    ("plain", "1.5,-2.0,0\n0.25,3.0,1\n", None),
    ("no final newline", "1.5,-2.0,0\n0.25,3.0,1", None),
    ("blank line", "1.5,-2.0,0\n\n0.25,3.0,1\n", None),
    ("spaces-only line", "1.5,-2.0,0\n   \n0.25,3.0,1\n", None),
    ("tab-only line", "1.5,-2.0,0\n\t\n0.25,3.0,1\n", None),
    ("crlf", "1.5,-2.0,0\r\n0.25,3.0,1\r\n", None),
    ("spaces around features", " 1.5 ,\t-2.0,1\n", None),
    ("signed zero and subnormal", "-0.0,5e-324,1\n", None),
    ("underscore digits", "1_0,2.0,1\n", None),
    ("label 1.0", "1.0,2.0,1.0\n", "label must be 0 or 1, got '1.0'"),
    ("label with a leading space", "1.0,2.0, 1\n", "label must be 0 or 1, got ' 1'"),
    ("label 10", "1.0,2.0,10\n", "label must be 0 or 1, got '10'"),
    ("label with a trailing space", "1.0,2.0,1 \n", "label must be 0 or 1, got '1 '"),
    ("label with a trailing NUL", "1.0,2.0,1\x00\n", "label must be 0 or 1, got '1\\x00'"),
    ("nan", "1.0,2.0,0\nnan,2.0,1\n", "line 3: features must be finite"),
    ("inf", "1.0,inf,0\n", "line 2: features must be finite"),
    ("-inf after a blank line", "1.0,2.0,0\n\n1.0,-inf,0\n", "line 4: features must be finite"),
    ("1e400 overflows", "1e400,2.0,0\n", "line 2: features must be finite"),
    ("too few fields", "1.0,2.0,0\n1.0,2.0\n", "line 3: expected 3 fields, got 2"),
    ("too many fields", "1.0,2.0,0,1\n", "line 2: expected 3 fields, got 4"),
    ("comment line", "# note\n1.0,2.0,0\n", "line 2: expected 3 fields, got 1"),
    ("commented row", "1.0,2.0,0\n#1.0,2.0,1\n", "line 3: unparseable feature value"),
    ("unparseable feature", "1.0,oops,1\n", "line 2: unparseable feature value"),
    ("empty body", "", "no data rows"),
    ("blank body", "\n\n", "no data rows"),
    ("whitespace body", " \n\t\n", "no data rows"),
]


class TestCsvReader:
    """load_csv's C reader and its line scan give the same arrays or the same error."""

    @pytest.mark.parametrize("body, expected", [case[1:] for case in EDGE_BODIES], ids=[case[0] for case in EDGE_BODIES])
    def test_agrees_with_the_line_scan(self, tmp_path, body, expected):
        path = tmp_path / "edge.csv"
        newline = "\r\n" if "\r\n" in body else "\n"
        write_exact(path, "f0,f1,label" + newline + body)
        got = outcome(lambda: load_csv(path))
        assert got == scanned(path)
        if expected is None:
            assert got[0] == "data"
        else:
            assert got[0] == "error" and got[1].startswith(f"{path}: ") and expected in got[1]

    def test_saved_files_never_reach_the_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        base = synth_gaussian(30, 10, 3, 1.7, np.random.default_rng(59))
        save_csv(base, path)
        monkeypatch.setattr(data, "_scan_csv", None)
        back = load_csv(path)
        assert back.x.tobytes() == base.x.tobytes() and back.y.tobytes() == base.y.tobytes()

    def test_empty_body_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(path)
        assert caught == []

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, max_value=1e-307, min_value=-1e-307),
                    st.sampled_from([-0.0, 5e-324, 0.1, 1 / 3, 2.2250738585072009e-308, 1.7976931348623157e308]),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        ),
        labels=st.lists(st.integers(0, 1), min_size=8, max_size=8),
    )
    def test_save_load_round_trip_is_bit_exact(self, tmp_path, values, labels):
        base = Dataset(x=np.array(values), y=np.array(labels[: len(values)]))
        path = tmp_path / "round.csv"
        save_csv(base, path)
        back = load_csv(path)
        assert back.x.tobytes() == base.x.tobytes() and back.x.shape == base.x.shape and back.x.flags.c_contiguous
        assert back.y.tobytes() == base.y.tobytes()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.one_of(
                st.lists(st.text(st.sampled_from("01.5e-+_ \t\x00\x0cnaif#"), max_size=5), min_size=1, max_size=4).map(",".join),
                st.lists(st.sampled_from(["0", "1", "2.5", "-0.0", "1e400", "nan", "1_0", " 1", "1\x00", "1.0", "", "\t"]), min_size=1, max_size=4).map(",".join),
            ),
            max_size=5,
        ),
    )
    def test_any_body_agrees_with_the_line_scan(self, tmp_path, rows):
        path = tmp_path / "fuzz.csv"
        write_exact(path, "f0,f1,label\n" + "\n".join(rows))
        assert outcome(lambda: load_csv(path)) == scanned(path)
