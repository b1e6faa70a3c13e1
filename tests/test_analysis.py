"""Tests for sweep orchestration and the self-contained statistics."""

import itertools
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vslct._util import floats_from_hex, floats_to_hex
from vslct.analysis import (
    AucStats,
    _save_row,
    aggregate_roc,
    auc_stats,
    load_rows,
    paired_t_test,
    polyfit_r2,
    regularized_incomplete_beta,
    run_sweep,
    SweepRow,
    SweepRun,
    _poly_design,
    sweep_report,
)
from vslct.data import synth_gaussian
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams
from vslct.metrics import LabeledScores
from vslct.training import LctConfig, TrainConfig


def t_pvalue_by_quadrature(t: float, df: int) -> float:
    """Two-sided p-value by numerically integrating the t density."""
    from scipy.integrate import quad

    norm = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)

    def pdf(u):
        return norm * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    tail, _ = quad(pdf, abs(t), np.inf, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * tail


class TestIncompleteBeta:
    """Continued-fraction regularized incomplete beta."""

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            a = float(rng.uniform(0.5, 20.0))
            b = float(rng.uniform(0.5, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            total = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(b, a, 1.0 - x)
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 3.0, 10.0):
            np.testing.assert_allclose(regularized_incomplete_beta(a, a, 0.5), 0.5, atol=1e-13)

    def test_uniform_special_case(self):
        # I_x(1, 1) is the identity
        for x in (0.1, 0.25, 0.9):
            np.testing.assert_allclose(regularized_incomplete_beta(1.0, 1.0, x), x, rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestPairedTTest:
    """Statistic and p-value, with an integration oracle."""

    def test_exact_small_case(self):
        # differences 1,2,3,4: t = sqrt(15) with 3 degrees of freedom
        result = paired_t_test(np.array([2.0, 4.0, 6.0, 8.0]), np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(result.statistic, math.sqrt(15.0), rtol=1e-12)
        assert result.df == 3

    def test_single_df_closed_form(self):
        # two pairs with difference 0 and 2: t = 1, df = 1, p = 1/2
        result = paired_t_test(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(result.statistic, 1.0, rtol=1e-14)
        np.testing.assert_allclose(result.p_value, 0.5, rtol=1e-12)

    def test_p_value_matches_quadrature(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n) + rng.uniform(-0.3, 0.3)
            result = paired_t_test(a, b)
            expected = t_pvalue_by_quadrature(result.statistic, result.df)
            np.testing.assert_allclose(result.p_value, expected, atol=1e-9)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(102)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        np.testing.assert_allclose(r1.statistic, -r2.statistic, rtol=1e-14)
        np.testing.assert_allclose(r1.p_value, r2.p_value, rtol=1e-14)

    def test_degenerate_differences(self):
        same = np.array([1.0, 2.0, 3.0])
        r = paired_t_test(same, same)
        assert r.statistic == 0.0 and r.p_value == 1.0
        r = paired_t_test(same + 2.0, same)
        assert math.isinf(r.statistic) and r.statistic > 0 and r.p_value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            paired_t_test(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestPolyfit:
    """Quadratic surface fitting and R^2 accounting."""

    def test_recovers_exact_quadratic(self):
        rng = np.random.default_rng(103)
        x = rng.uniform(-2.0, 2.0, size=(60, 2))
        y = 2.0 - x[:, 0] + 3.0 * x[:, 1] + 0.5 * x[:, 0] ** 2 + x[:, 1] ** 2 - 2.0 * x[:, 0] * x[:, 1]
        fit = polyfit_r2(x, y, degree=2)
        assert fit.column_names == ("1", "x0", "x1", "x0^2", "x1^2", "x0*x1")
        np.testing.assert_allclose(fit.coefficients, [2.0, -1.0, 3.0, 0.5, 1.0, -2.0], atol=1e-10)
        np.testing.assert_allclose(fit.r2, 1.0, atol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(104)
        x = rng.uniform(-1.0, 1.0, size=(80, 3))
        y = rng.normal(size=80) + x @ np.array([1.0, -2.0, 0.5])
        fit = polyfit_r2(x, y, degree=2)
        design, _ = _poly_design(x, 2)
        ref = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-9)
        resid = y - design @ ref
        ref_r2 = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
        np.testing.assert_allclose(fit.r2, ref_r2, atol=1e-9)

    def test_r2_non_decreasing_with_nested_terms(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=(40, 2))
            y = rng.normal(size=40)
            r1 = polyfit_r2(x, y, degree=1).r2
            r2 = polyfit_r2(x, y, degree=2).r2
            assert r2 >= r1 - 1e-12
            assert r1 <= 1.0 + 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_predict_matches_fit(self, degree):
        rng = np.random.default_rng(106)
        x = rng.uniform(-1.0, 1.0, size=(30, 2))
        y = 1.0 + x[:, 0] - 0.5 * x[:, 1] ** degree
        fit = polyfit_r2(x, y, degree=degree)
        np.testing.assert_allclose(_poly_design(x, degree)[0] @ fit.coefficients, y, atol=1e-10)

    def test_constant_y_is_perfect_fit(self):
        x = np.linspace(0.0, 1.0, 10)
        fit = polyfit_r2(x, np.full(10, 3.0), degree=1)
        assert fit.r2 == 1.0

    def test_rank_deficiency_raises(self):
        x = np.linspace(0.0, 1.0, 20)
        dup = np.column_stack([x, 2.0 * x])
        with pytest.raises(ValueError, match="rank"):
            polyfit_r2(dup, np.sin(x), degree=1)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError, match="samples"):
            polyfit_r2(np.ones((3, 2)), np.ones(3), degree=2)

    def test_two_valued_features_get_no_square(self):
        # the directional baseline grid: omega and gamma take two values, tau three, three seeds each
        x = np.array([p for p in itertools.product([0.5, 0.9], [0.0, 0.2], [0.0, 1.0, 3.0]) for _ in range(3)])
        y = np.random.default_rng(107).uniform(0.5, 1.0, size=x.shape[0])
        fit = polyfit_r2(x, y, degree=2)
        assert fit.column_names == ("1", "x0", "x1", "x2", "x2^2", "x0*x1", "x0*x2", "x1*x2")
        # the full 10-column design spans the same space: its minimum-norm fit gives the same values
        full = np.column_stack([np.ones(x.shape[0]), x, x**2, x[:, 0] * x[:, 1], x[:, 0] * x[:, 2], x[:, 1] * x[:, 2]])
        ref, _, rank, _ = np.linalg.lstsq(full, y, rcond=None)
        assert rank == 8
        np.testing.assert_allclose(_poly_design(x, 2)[0] @ fit.coefficients, full @ ref, atol=1e-12)
        resid = y - full @ ref
        ref_r2 = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
        assert abs(fit.r2 - ref_r2) <= 1e-12


def test_sweep_report_fits_the_directional_baseline_grid():
    rng = np.random.default_rng(108)
    rows = [
        {"run_id": f"base-{i}", "kind": "baseline", "seed": seed, "auc": float(rng.uniform(0.5, 1.0)), "params": {"omega": w, "gamma": g, "tau": t}}
        for i, (w, g, t, seed) in enumerate(itertools.product([0.5, 0.9], [0.0, 0.2], [0.0, 1.0, 3.0], [0, 1, 2]))
    ]
    fit = sweep_report(rows)["baseline_surface_fit"]
    assert fit["features"] == ["omega", "gamma", "tau"]
    assert fit["columns"] == ["1", "x0", "x1", "x2", "x2^2", "x0*x1", "x0*x2", "x1*x2"]
    assert 0.0 <= fit["r2"] <= 1.0


def tiny_sweep_runs():
    lct = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 3.0, 0.15)})
    runs = []
    for seed in (0, 1):
        runs.append(SweepRun(run_id=f"base-s{seed}", kind="baseline", seed=seed, eval_cond=(0.0,), hyper=VsHyperParams()))
        runs.append(SweepRun(run_id=f"lct-s{seed}", kind="lct", seed=seed, eval_cond=(1.5,), lct=lct))
    return runs


TINY_TRAIN = TrainConfig(epochs=2, batch_size=32, seed=0)


@pytest.fixture(scope="module")
def data():
    train = synth_gaussian(60, 20, 2, 2.0, np.random.default_rng(110))
    test = synth_gaussian(40, 40, 2, 2.0, np.random.default_rng(111))
    return train, test


class TestSweep:
    """Run execution, persistence, and resume semantics."""

    def test_rows_in_input_order(self, data):
        train, test = data
        runs = tiny_sweep_runs()
        rows = run_sweep(runs, train, test, TINY_TRAIN)
        assert [r.run_id for r in rows] == [r.run_id for r in runs]
        for row in rows:
            assert 0.0 <= row.auc <= 1.0
            assert row.scores.shape == (test.n,)

    def test_duplicate_run_ids_rejected(self, data):
        train, test = data
        runs = tiny_sweep_runs()
        with pytest.raises(ValueError, match="unique"):
            run_sweep(runs + [runs[0]], train, test, TINY_TRAIN)

    def test_persist_and_reload_bit_exact(self, data, tmp_path):
        train, test = data
        runs = tiny_sweep_runs()
        first = run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{r.run_id}.json" for r in runs)
        again = run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        for a, b in zip(first, again):
            assert a.auc == b.auc
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_resume_skips_completed_runs(self, data, tmp_path):
        train, test = data
        runs = tiny_sweep_runs()
        run_sweep(runs[:2], train, test, TINY_TRAIN, out_dir=tmp_path)
        mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        executed = []
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path, progress=lambda i, n, row: executed.append(row.run_id))
        assert len(executed) == 4
        for p in tmp_path.iterdir():
            if p.name in mtimes:
                assert p.stat().st_mtime_ns == mtimes[p.name]

    def test_corrupt_row_raises_with_path(self, data, tmp_path):
        train, test = data
        runs = tiny_sweep_runs()[:1]
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        path = tmp_path / f"{runs[0].run_id}.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=str(path)):
            run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)

    def test_mismatched_row_identity_raises(self, data, tmp_path):
        train, test = data
        runs = tiny_sweep_runs()[:1]
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        other = SweepRun(run_id=runs[0].run_id, kind="baseline", seed=99, eval_cond=(0.0,), hyper=VsHyperParams())
        with pytest.raises(ValueError, match="stale or corrupt"):
            run_sweep([other], train, test, TINY_TRAIN, out_dir=tmp_path)

    def test_run_validation(self):
        with pytest.raises(ValueError):
            SweepRun(run_id="bad/slash", kind="baseline", seed=0, eval_cond=(), hyper=VsHyperParams())
        with pytest.raises(ValueError):
            SweepRun(run_id="x", kind="baseline", seed=0, eval_cond=())
        with pytest.raises(ValueError):
            SweepRun(run_id="x", kind="other", seed=0, eval_cond=(), hyper=VsHyperParams())
        with pytest.raises(ValueError, match="eval_cond must not be empty"):
            SweepRun(run_id="x", kind="baseline", seed=0, eval_cond=(), hyper=VsHyperParams())
        with pytest.raises(ValueError, match="not start with '.'"):
            SweepRun(run_id=".x", kind="baseline", seed=0, eval_cond=(0.0,), hyper=VsHyperParams())
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": 1.0})
        with pytest.raises(ValueError):
            SweepRun(run_id="x", kind="lct", seed=0, eval_cond=(1.0, 2.0), lct=lct)


# Signed zeros, the extreme subnormals and normals, and both infinities.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf]
finite_or_inf = st.floats(allow_nan=False)
FINITE_SPECIAL_FLOATS = [v for v in SPECIAL_FLOATS if math.isfinite(v)]


class TestRowCodec:
    """Hex floats and stored sweep rows round-trip bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(finite_or_inf, max_size=40))
    def test_hex_floats_bit_exact(self, values):
        original = np.array(SPECIAL_FLOATS + values, dtype=np.float64)
        assert floats_from_hex(floats_to_hex(original)).tobytes() == original.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        # SweepRun rejects a leading '.', and load_rows skips such files
        run_id=st.text(alphabet="abcXYZ019._-", min_size=1, max_size=20).filter(lambda s: s[0] != "."),
        kind=st.sampled_from(["baseline", "lct"]),
        seed=st.integers(0, 2**63 - 1),
        auc=finite_or_inf,
        # a row holds finite scores only; test_hex_floats_bit_exact covers the +-inf round trip
        pairs=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 1)), max_size=30),
    )
    def test_saved_row_bit_exact(self, run_id, kind, seed, auc, pairs):
        scores = np.array(FINITE_SPECIAL_FLOATS + [s for s, _ in pairs], dtype=np.float64)
        labels = np.array([i % 2 for i in range(len(FINITE_SPECIAL_FLOATS))] + [y for _, y in pairs], dtype=np.int64)
        row = SweepRow(run_id=run_id, kind=kind, seed=seed, auc=auc, scores=scores, labels=labels)
        with tempfile.TemporaryDirectory() as out_dir:
            _save_row(out_dir, row)
            (loaded,) = load_rows(out_dir)
        assert (loaded.run_id, loaded.kind, loaded.seed) == (run_id, kind, seed)
        assert np.float64(loaded.auc).tobytes() == np.float64(auc).tobytes()
        assert loaded.scores.tobytes() == scores.tobytes()
        assert loaded.labels.tobytes() == labels.tobytes()

    def test_load_rows_skips_dot_files_and_other_json(self, tmp_path):
        for seed in (0, 1):
            _save_row(tmp_path, SweepRow(f"r{seed}", "lct", seed, 0.75, np.array([0.25, 0.5]), np.array([0, 1])))
        before = load_rows(tmp_path)
        (tmp_path / "summary.json").write_text(json.dumps({"rows": [], "stats": {}}))
        (tmp_path / "report.json").write_text(json.dumps({"groups": {}, "paired_by_seed": None, "baseline_surface_fit": None}))
        (tmp_path / ".tmp-x1y2r0.json").write_text('{"run_id": "r0", "kind": "lct", "scores": ["0x1.')
        after = load_rows(tmp_path)
        assert [(r.run_id, r.auc, r.scores.tobytes(), r.labels.tobytes()) for r in after] == [
            (r.run_id, r.auc, r.scores.tobytes(), r.labels.tobytes()) for r in before
        ]
        stored = json.loads((tmp_path / "r0.json").read_text())
        for key in stored:
            partial = {k: v for k, v in stored.items() if k != key}
            (tmp_path / "partial.json").write_text(json.dumps(partial))
            with pytest.raises(ValueError, match="partial.json: not a sweep row"):
                load_rows(tmp_path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("labels", [0, 2, 0], "labels must be 0 or 1"),
            ("labels", [0, 1], "length mismatch: 3 scores, 2 labels"),
            ("scores", ["0x1.0p-1", "inf", "0x0.0p+0"], "scores must be finite"),
        ],
    )
    def test_bad_stored_row_raises_naming_the_file(self, data, tmp_path, key, value, message):
        run = SweepRun(run_id="r0", kind="baseline", seed=0, eval_cond=(0.0,), hyper=VsHyperParams())
        _save_row(tmp_path, SweepRow("r0", "baseline", 0, 0.5, np.array([0.5, 0.25, 0.0]), np.array([0, 1, 0])))
        path = tmp_path / "r0.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a sweep row: {message}")):
            load_rows(tmp_path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: stale or corrupt sweep row ({message})")):
            run_sweep([run], *data, TINY_TRAIN, out_dir=tmp_path)


class TestAggregation:
    """AUC dispersion and ROC envelope averaging."""

    def make_row(self, run_id, auc, seed=0):
        return SweepRow(
            run_id=run_id,
            kind="baseline",
            seed=seed,
            auc=auc,
            scores=np.array([0.1, 0.9]),
            labels=np.array([0, 1]),
        )

    def test_auc_stats(self):
        rows = [self.make_row(f"r{i}", auc) for i, auc in enumerate([0.8, 0.9, 1.0])]
        stats = auc_stats(rows)
        assert isinstance(stats, AucStats)
        np.testing.assert_allclose(stats.mean, 0.9, rtol=1e-14)
        np.testing.assert_allclose(stats.std, 0.1, rtol=1e-12)
        assert stats.n == 3
        with pytest.raises(ValueError):
            auc_stats(rows[:1])

    def test_aggregate_roc_identical_sets(self):
        scores = LabeledScores(np.array([0.9, 0.7, 0.4, 0.2]), np.array([1, 1, 0, 0]))
        grid = np.linspace(0.0, 1.0, 11)
        agg = aggregate_roc([scores, scores], grid)
        np.testing.assert_array_equal(agg.std_tpr, np.zeros(11))
        assert agg.n == 2
        np.testing.assert_allclose(agg.mean_tpr[-1], 1.0)

    def test_aggregate_roc_requires_input(self):
        with pytest.raises(ValueError):
            aggregate_roc([], np.linspace(0, 1, 5))
