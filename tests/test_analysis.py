"""Tests for sweep orchestration and the self-contained statistics."""

import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from records import record
from vslct._util import read_record, record_array, write_record
from vslct.analysis import (
    AucStats,
    _check_run_ids,
    _data_digest,
    _labels_path,
    _save_labels,
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
from vslct.data import Dataset, synth_gaussian
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


def baseline_rows(grid, rng_seed):
    """Summary rows of a baseline grid of (omega, gamma, tau) points with random AUCs."""
    rng = np.random.default_rng(rng_seed)
    return [
        {"run_id": f"base-{i}", "kind": "baseline", "seed": i, "auc": float(rng.uniform(0.5, 1.0)), "params": {"omega": w, "gamma": g, "tau": t}}
        for i, (w, g, t) in enumerate(grid)
    ]


def test_sweep_report_fits_when_rows_outnumber_twice_the_design_columns():
    # omega two-valued, tau three-valued, two seeds: 12 rows for a 5-column design
    rows = baseline_rows([(w, 0.0, t) for w, t, _ in itertools.product([0.5, 0.9], [0.0, 1.0, 3.0], [0, 1])], 109)
    fit = sweep_report(rows)["baseline_surface_fit"]
    assert fit["features"] == ["omega", "tau"]
    assert fit["columns"] == ["1", "x0", "x1", "x1^2", "x0*x1"]
    assert 0.0 <= fit["r2"] <= 1.0


def test_sweep_report_records_a_skipped_fit():
    # gamma = omega / 5 is collinear with omega
    rows = baseline_rows([(w, w / 5.0, t) for w, t, _ in itertools.product([0.5, 0.7, 0.9], [0.0, 1.0, 3.0], [0, 1, 2])], 110)
    assert sweep_report(rows)["baseline_surface_fit"] == {"skipped": "rank-deficient design matrix (rank 6 < 10 columns)"}


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


def stored_files(directory) -> dict:
    """Every file under directory, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


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
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([f"{r.run_id}.json" for r in runs] + ["labels"])
        # the rows hold no labels; one file holds them for every row
        assert [p.name for p in (tmp_path / "labels").iterdir()] == [f"{_data_digest(test)}.json"]
        assert not any("labels" in record(tmp_path / f"{r.run_id}.json") for r in runs)
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

    def test_stale_row_fails_naming_every_differing_field(self, data, tmp_path):
        train, test = data
        runs = tiny_sweep_runs()
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        stored = stored_files(tmp_path)
        other_train = synth_gaussian(60, 20, 2, 2.0, np.random.default_rng(112))
        longer_range = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 4.0, 0.15)})
        cases = [
            (runs, other_train, replace(TINY_TRAIN, epochs=3), ["train.epochs: stored 2, requested 3", "data.train: stored"]),
            (runs, train, replace(TINY_TRAIN, batch_size=16, lr=0.2), ["train.batch_size: stored 32, requested 16; train.lr: stored 0.1, requested 0.2"]),
            (runs, other_train, TINY_TRAIN, [f'data.train: stored "{_data_digest(train)}", requested "{_data_digest(other_train)}"']),
            ([replace(runs[0], hyper=VsHyperParams(omega=0.9))], train, TINY_TRAIN, ["run.omega: stored 0.5, requested 0.9"]),
            ([replace(runs[1], lct=longer_range)], train, TINY_TRAIN, ["run.conditioned.tau.b: stored 3.0, requested 4.0"]),
        ]
        for requested, train_data, train_config, named in cases:
            with pytest.raises(ValueError, match="stale or corrupt sweep row .*; delete it to recompute") as exc:
                run_sweep(requested, train_data, test, train_config, out_dir=tmp_path)
            for field_message in named:
                assert field_message in str(exc.value)
        assert stored_files(tmp_path) == stored

    def test_every_stale_row_counted_before_any_run_trains(self, data, tmp_path, monkeypatch):
        train, test = data
        runs = tiny_sweep_runs()
        run_sweep(runs[:3], train, test, replace(TINY_TRAIN, epochs=3), out_dir=tmp_path)
        stored = stored_files(tmp_path)

        def no_training(run, *args, **kwargs):
            raise AssertionError(f"{run.run_id} trained")

        monkeypatch.setattr("vslct.analysis.train_run", no_training)
        # the missing run comes first, so a per-run check would train it before failing
        with pytest.raises(ValueError) as exc:
            run_sweep([runs[3], *runs[:3]], train, test, replace(TINY_TRAIN, epochs=4), out_dir=tmp_path)
        assert str(exc.value) == (
            f"{tmp_path}: 3 of 3 stored rows are stale or corrupt; the first: {tmp_path / 'base-s0.json'}: "
            "stale or corrupt sweep row (train.epochs: stored 3, requested 4); delete it to recompute"
        )
        assert stored_files(tmp_path) == stored

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

    @pytest.mark.parametrize("entry, shown", [(True, "True"), ("1.0", "'1.0'"), (None, "None")])
    def test_eval_cond_entries_must_be_real_naming_the_run(self, entry, shown):
        with pytest.raises(ValueError, match=re.escape(f"x: eval_cond entry must be a real number, got {shown}")):
            SweepRun(run_id="x", kind="baseline", seed=0, eval_cond=(0.0, entry), hyper=VsHyperParams())

    def test_eval_cond_stored_as_plain_floats(self):
        run = SweepRun(run_id="x", kind="baseline", seed=0, eval_cond=np.array([1.5, 2.0], dtype=np.float32), hyper=VsHyperParams())
        assert run.eval_cond == (1.5, 2.0) and all(type(v) is float for v in run.eval_cond)

    @pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("0", "'0'"), (True, "True"), (-1, "-1")])
    def test_seed_must_be_an_integer_naming_the_run(self, seed, shown):
        with pytest.raises(ValueError, match=re.escape(f"x: seed must be an integer >= 0, got {shown}")):
            SweepRun(run_id="x", kind="baseline", seed=seed, eval_cond=(0.0,), hyper=VsHyperParams())

    def test_numpy_scalars_train_and_save_the_run(self, data, tmp_path):
        train, test = data
        run = SweepRun(run_id="base-np", kind="baseline", seed=np.int64(0), eval_cond=(0.0,), hyper=VsHyperParams())
        assert type(run.seed) is int
        config = TrainConfig(epochs=np.int64(1), batch_size=np.int64(32), lr=np.float32(0.25), seed=np.int64(0))
        [row] = run_sweep([run], train, test, config, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-np.json", "labels"]
        [again] = run_sweep([run], train, test, TrainConfig(epochs=1, batch_size=32, lr=0.25), out_dir=tmp_path)
        assert again.scores.tobytes() == row.scores.tobytes()


def lct_run(eval_cond, **conditioned):
    return SweepRun(run_id="r", kind="lct", seed=0, eval_cond=eval_cond, lct=LctConfig(base=VsHyperParams(0.9, 0.2, 1.0), conditioned=conditioned))


class TestSweepRunParams:
    """SweepRun.params, the one JSON description of a run, key for key and in order."""

    @pytest.mark.parametrize(
        "run, expected",
        [
            (
                SweepRun(run_id="r", kind="baseline", seed=0, eval_cond=(0.0,), hyper=VsHyperParams(0.9, 0.2, 1.0)),
                {"eval_cond": [0.0], "omega": 0.9, "gamma": 0.2, "tau": 1.0},
            ),
            (
                lct_run((0.5,), omega=make_linear(0.0, 1.0, 0.5)),
                {"eval_cond": [0.5], "gamma": 0.2, "tau": 1.0, "conditioned": {"omega": {"a": 0.0, "b": 1.0, "h_b": 0.5}}},
            ),
            (
                lct_run((1.0,), gamma=make_linear(0.0, 2.0, 0.25)),
                {"eval_cond": [1.0], "omega": 0.9, "tau": 1.0, "conditioned": {"gamma": {"a": 0.0, "b": 2.0, "h_b": 0.25}}},
            ),
            (
                lct_run((3.0,), tau=make_linear(0.0, 3.0, 0.66)),
                {"eval_cond": [3.0], "omega": 0.9, "gamma": 0.2, "conditioned": {"tau": {"a": 0.0, "b": 3.0, "h_b": 0.66}}},
            ),
            (
                lct_run((0.5, 1.5), tau=make_linear(0.0, 3.0, 0.2), omega=make_linear(0.0, 1.0, 1.5)),
                {"eval_cond": [0.5, 1.5], "gamma": 0.2, "conditioned": {"omega": {"a": 0.0, "b": 1.0, "h_b": 1.5}, "tau": {"a": 0.0, "b": 3.0, "h_b": 0.2}}},
            ),
            (lct_run((1.0,), tau=1), {"eval_cond": [1.0], "omega": 0.9, "gamma": 0.2, "conditioned": {"tau": 1.0}}),
        ],
        ids=["baseline", "omega", "gamma", "tau", "omega-and-tau", "point-mass"],
    )
    def test_params_exactly(self, run, expected):
        assert json.dumps(run.params, allow_nan=False) == json.dumps(expected)

    def test_each_call_returns_a_fresh_object(self):
        run = lct_run((0.5, 1.5), omega=make_linear(0.0, 1.0, 1.5), tau=make_linear(0.0, 3.0, 0.2))
        before = json.dumps(run.params)
        params = run.params
        params["eval_cond"].append(9.0)
        params["conditioned"]["tau"]["b"] = 9.0
        params["gamma"] = 9.0
        assert json.dumps(run.params) == before


# Signed zeros, the extreme subnormals and normals, and both infinities.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf]
finite_or_inf = st.floats(allow_nan=False)
FINITE_SPECIAL_FLOATS = [v for v in SPECIAL_FLOATS if math.isfinite(v)]


def fingerprint_for(run, train, test, train_config=TINY_TRAIN):
    """The fingerprint run_sweep stores for `run` on these datasets."""
    model = {"input_dim": train.dim, "cond_dim": len(run.eval_cond), "trunk_widths": [64, 64], "film_hidden": 128, "film_affine": False, "film_zero_init": True}
    train_block = {"epochs": train_config.epochs, "batch_size": train_config.batch_size, "lr": train_config.lr}
    data = {"train": _data_digest(train), "test": _data_digest(test)}
    return {"run": run.params, "model": model, "train": train_block, "data": data, "versions": {"sampler": 1, "numerics": 1}}


def store(out_dir, row, fingerprint):
    """Store row as run_sweep does: its file, and its labels under the fingerprint's test digest."""
    _save_row(out_dir, row, fingerprint)
    digest = fingerprint["data"]["test"]
    _save_labels(_labels_path(out_dir, digest), digest, row.labels)


def replace_by_a_directory(path):
    path.unlink()
    path.mkdir()


# A fingerprint for rows that no resume reads: load_rows needs only its test digest.
UNREAD_FINGERPRINT = {"data": {"test": "0" * 64}}


def golden_row_inputs():
    """The run, datasets and TrainConfig of the golden row below."""
    train = Dataset(x=np.array([[0.0, 1.0], [1.0, 0.0]]), y=np.array([0, 1]))
    test = Dataset(x=np.array([[0.5, 0.5], [0.25, 0.75]]), y=np.array([0, 1]))
    lct = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 3.0, 0.5)})
    run = SweepRun(run_id="lct-s3", kind="lct", seed=3, eval_cond=(1.5,), lct=lct)
    return run, train, test, TrainConfig(epochs=3, batch_size=128, lr=0.1)


# The records _save_row and run_sweep write for the golden row and its
# test labels, pinned so any change to the row format, the array layout or
# the fingerprint shows up here.
GOLDEN_ROW = (
    b'{"format":4,"run_id":"lct-s3","kind":"lct","seed":3,"auc":"0x1.8000000000000p-1",'
    b'"fingerprint":{"run":{"eval_cond":[1.5],"omega":0.5,"gamma":0.0,'
    b'"conditioned":{"tau":{"a":0.0,"b":3.0,"h_b":0.5}}},'
    b'"model":{"input_dim":2,"cond_dim":1,"trunk_widths":[64,64],"film_hidden":128,"film_affine":false,"film_zero_init":true},'
    b'"train":{"epochs":3,"batch_size":128,"lr":0.1},'
    b'"data":{"train":"acc73a3280c41f19a5d53bb8b3fa367daa5c8d1c062d0b6e7f3fa071b1ba9dac",'
    b'"test":"e9459f0c7143c4620adb7570ca33f7d9e3f38d2317986e1022dbea4b6fdf0e52"},'
    b'"versions":{"sampler":1,"numerics":1}},"scores":{"dtype":"<f8","shape":[2]}}\n' + bytes.fromhex("000000000000d03f000000000000e03f")
)
GOLDEN_LABELS_NAME = "e9459f0c7143c4620adb7570ca33f7d9e3f38d2317986e1022dbea4b6fdf0e52.json"
GOLDEN_LABELS = (
    b'{"format":4,"test":"e9459f0c7143c4620adb7570ca33f7d9e3f38d2317986e1022dbea4b6fdf0e52","labels":{"dtype":"<i8","shape":[2]}}\n'
    + bytes.fromhex("00000000000000000100000000000000")
)

# The golden row and its labels as format 3 wrote them: one line of JSON
# each, the arrays as the hex of their bytes.
FORMAT_3_ROW_TEXT = (
    '{"format": 3, "run_id": "lct-s3", "kind": "lct", "seed": 3, "auc": "0x1.8000000000000p-1", '
    '"scores": {"dtype": "<f8", "shape": [2], "hex": "000000000000d03f000000000000e03f"}, '
    '"fingerprint": {"run": {"eval_cond": [1.5], "omega": 0.5, "gamma": 0.0, '
    '"conditioned": {"tau": {"a": 0.0, "b": 3.0, "h_b": 0.5}}}, '
    '"model": {"input_dim": 2, "cond_dim": 1, "trunk_widths": [64, 64], "film_hidden": 128, "film_affine": false, "film_zero_init": true}, '
    '"train": {"epochs": 3, "batch_size": 128, "lr": 0.1}, '
    '"data": {"train": "acc73a3280c41f19a5d53bb8b3fa367daa5c8d1c062d0b6e7f3fa071b1ba9dac", '
    '"test": "e9459f0c7143c4620adb7570ca33f7d9e3f38d2317986e1022dbea4b6fdf0e52"}, '
    '"versions": {"sampler": 1, "numerics": 1}}}'
)
FORMAT_3_LABELS_TEXT = (
    '{"format": 3, "test": "e9459f0c7143c4620adb7570ca33f7d9e3f38d2317986e1022dbea4b6fdf0e52", '
    '"labels": {"dtype": "<i8", "shape": [2], "hex": "00000000000000000100000000000000"}}'
)

# The golden row as format 2 wrote it: its labels inside, and a fingerprint
# of the run, train and data blocks only.
FORMAT_2_ROW_TEXT = (
    '{"format": 2, "run_id": "lct-s3", "kind": "lct", "seed": 3, "auc": "0x1.8000000000000p-1", '
    '"scores": {"dtype": "<f8", "shape": [2], "hex": "000000000000d03f000000000000e03f"}, '
    '"labels": {"dtype": "<i8", "shape": [2], "hex": "00000000000000000100000000000000"}, '
    '"fingerprint": {"run": {"eval_cond": [1.5], "omega": 0.5, "gamma": 0.0, '
    '"conditioned": {"tau": {"a": 0.0, "b": 3.0, "h_b": 0.5}}}, "train": {"epochs": 3, "batch_size": 128, "lr": 0.1}, '
    '"data": {"train": "acc73a3280c41f19a5d53bb8b3fa367daa5c8d1c062d0b6e7f3fa071b1ba9dac", '
    '"test": "e9459f0c7143c4620adb7570ca33f7d9e3f38d2317986e1022dbea4b6fdf0e52"}}}'
)

# The golden row with the run block as written before it became
# SweepRun.params: the lct base nested under "base", the tau it replaces included.
BASE_LAYOUT_ROW = GOLDEN_ROW.replace(b'"omega":0.5,"gamma":0.0,', b'"base":{"omega":0.5,"gamma":0.0,"tau":0.0},')


# The header of a record holding two floats under "a".
A_HEADER = b'{"format":4,"a":{"dtype":"<f8","shape":[2]}}'


class TestRowCodec:
    """The array codec and stored sweep rows round-trip bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(finite_or_inf, max_size=40), cols=st.integers(1, 4), ints=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=10))
    def test_array_codec_bit_exact(self, values, cols, ints):
        flat = np.array(SPECIAL_FLOATS + values, dtype=np.float64)
        two_d = flat[: flat.size // cols * cols].reshape(-1, cols)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "a")
            for original in (flat, two_d, two_d.T, np.empty((0, cols)), np.array(ints, dtype=np.int64), np.empty((cols, 0), dtype=np.int64)):
                write_record(path, {"note": "x"}, "a", original)
                header, body = read_record(path)
                assert header == {"format": 4, "note": "x", "a": {"dtype": original.dtype.str, "shape": list(original.shape)}}
                decoded = record_array(header["a"], body)
                assert (decoded.dtype, decoded.shape) == (original.dtype, original.shape)
                assert decoded.tobytes() == np.ascontiguousarray(original).tobytes()
                assert decoded.flags.writeable and decoded.dtype.isnative

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"shape": 2}, "array shape must be a list of sizes >= 0, got 2"),
            ({"shape": [True, 2]}, "array shape must be a list of sizes >= 0, got [True, 2]"),
            ({"dtype": "<f4"}, "array dtype must be one of ['<f8', '<i8'], got '<f4'"),
            ({"shape": [2.0]}, "array shape must be a list of sizes >= 0, got [2.0]"),
        ],
    )
    def test_malformed_array_payload_raises(self, change, message):
        good = {"dtype": "<f8", "shape": [2]}
        with pytest.raises(ValueError, match=re.escape(message)):
            record_array({**good, **change}, np.array([0.25, 0.5]).tobytes())

    @pytest.mark.parametrize(
        "stored, error, message",
        [
            pytest.param(b'{"format":4,"a":\n' + bytes(16), ValueError, "Expecting value: line 1 column 17", id="header-not-json"),
            pytest.param(b'[4,{"dtype":"<f8","shape":[2]}]\n' + bytes(16), TypeError, "expected a JSON object, got list", id="header-not-an-object"),
            pytest.param(A_HEADER, ValueError, "no newline after the record's JSON header", id="without-newline"),
            pytest.param(A_HEADER + b"\n" + bytes(15), ValueError, "array of 15 bytes does not hold shape [2] of 8-byte <f8", id="body-too-short"),
            pytest.param(A_HEADER + b"\n" + bytes(24), ValueError, "array of 24 bytes does not hold shape [2] of 8-byte <f8", id="body-too-long"),
            pytest.param(b'{"format":4,"a":{"dtype":"<f4","shape":[4]}}\n' + bytes(16), ValueError, "array dtype must be one of ['<f8', '<i8'], got '<f4'", id="unknown-dtype"),
            pytest.param(b'{"format":4,"a":{"dtype":"<f8","shape":[3]}}\n' + bytes(16), ValueError, "array of 16 bytes does not hold shape [3] of 8-byte <f8", id="shape-larger-than-body"),
            pytest.param(b'{"format":4,"a":{"dtype":"<f8","shape":[-2]}}\n' + bytes(16), ValueError, "array shape must be a list of sizes >= 0, got [-2]", id="negative-size"),
        ],
    )
    def test_malformed_record_raises(self, tmp_path, stored, error, message):
        (tmp_path / "a").write_bytes(stored)
        with pytest.raises(error, match=re.escape(message)):
            header, body = read_record(tmp_path / "a")
            record_array(header["a"], body)

    @settings(max_examples=100, deadline=None)
    @given(
        # check_run_ids, which load_rows applies, rejects a leading '.'
        run_id=st.text(alphabet="abcXYZ019._-", min_size=1, max_size=20).filter(lambda s: s[0] != "."),
        kind=st.sampled_from(["baseline", "lct"]),
        seed=st.integers(0, 2**63 - 1),
        auc=finite_or_inf,
        # a row holds finite scores only; test_array_codec_bit_exact covers the +-inf round trip
        pairs=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 1)), max_size=30),
    )
    def test_saved_row_bit_exact(self, run_id, kind, seed, auc, pairs):
        scores = np.array(FINITE_SPECIAL_FLOATS + [s for s, _ in pairs], dtype=np.float64)
        labels = np.array([i % 2 for i in range(len(FINITE_SPECIAL_FLOATS))] + [y for _, y in pairs], dtype=np.int64)
        row = SweepRow(run_id=run_id, kind=kind, seed=seed, auc=auc, scores=scores, labels=labels)
        with tempfile.TemporaryDirectory() as out_dir:
            store(out_dir, row, UNREAD_FINGERPRINT)
            (loaded,) = load_rows(out_dir, [run_id])
        assert (loaded.run_id, loaded.kind, loaded.seed) == (run_id, kind, seed)
        assert np.float64(loaded.auc).tobytes() == np.float64(auc).tobytes()
        assert loaded.scores.tobytes() == scores.tobytes()
        assert loaded.labels.tobytes() == labels.tobytes()

    def test_saved_row_golden_text(self, tmp_path):
        run, train, test, train_config = golden_row_inputs()
        row = SweepRow("lct-s3", "lct", 3, 0.75, np.array([0.25, 0.5]), np.array([0, 1]))
        _save_row(tmp_path, row, fingerprint_for(run, train, test, train_config))
        assert (tmp_path / "lct-s3.json").read_bytes() == GOLDEN_ROW
        # run_sweep requests the same fingerprint, so it reuses the row instead of training,
        # and writes the labels file that was missing
        (resumed,) = run_sweep([run], train, test, train_config, out_dir=tmp_path)
        assert (resumed.auc, resumed.scores.tobytes(), resumed.labels.tobytes()) == (row.auc, row.scores.tobytes(), row.labels.tobytes())
        assert stored_files(tmp_path) == {"lct-s3.json": GOLDEN_ROW, f"labels/{GOLDEN_LABELS_NAME}": GOLDEN_LABELS}
        (loaded,) = load_rows(tmp_path, ["lct-s3"])
        assert (loaded.auc, loaded.scores.tobytes(), loaded.labels.tobytes()) == (row.auc, row.scores.tobytes(), row.labels.tobytes())

    def test_missing_labels_file_fails_and_a_pure_resume_rewrites_it_training_nothing(self, data, tmp_path, monkeypatch):
        train, test = data
        runs = tiny_sweep_runs()
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        stored = stored_files(tmp_path)
        labels = tmp_path / "labels" / f"{_data_digest(test)}.json"
        labels.unlink()
        with pytest.raises(ValueError, match=re.escape(f"{labels}: missing or corrupt test labels ([Errno 2] No such file or directory")):
            load_rows(tmp_path, [run.run_id for run in runs])

        def no_training(run, *args, **kwargs):
            raise AssertionError(f"{run.run_id} trained")

        monkeypatch.setattr("vslct.analysis.train_run", no_training)
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        assert stored_files(tmp_path) == stored

    def test_labels_file_of_other_test_data_fails_naming_both_digests(self, data, tmp_path):
        train, test = data
        runs = tiny_sweep_runs()[:1]
        run_sweep(runs, train, test, TINY_TRAIN, out_dir=tmp_path)
        digest, other = _data_digest(test), _data_digest(train)
        path = tmp_path / "labels" / f"{digest}.json"
        record(path, lambda header: {**header, "test": other})
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing or corrupt test labels (recorded for test data {other}, the rows name test data {digest})")):
            load_rows(tmp_path, [runs[0].run_id])

    @pytest.mark.parametrize("digest", ["../" + "0" * 61, "0" * 63, "A" * 64, 7])
    def test_row_naming_no_digest_is_not_a_sweep_row(self, tmp_path, digest):
        _save_row(tmp_path, SweepRow("r0", "lct", 0, 0.75, np.array([0.25, 0.5]), np.array([0, 1])), {"data": {"test": digest}})
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'r0.json'}: not a sweep row: test data digest must be 64 lowercase hex digits, got {digest!r}")):
            load_rows(tmp_path, ["r0"])

    def test_format_2_row_fails_saying_recompute(self, tmp_path):
        (tmp_path / "lct-s3.json").write_text(FORMAT_2_ROW_TEXT)
        assert_golden_row_fails_saying_recompute(tmp_path, 2)

    def test_format_3_row_fails_saying_recompute(self, tmp_path):
        (tmp_path / "lct-s3.json").write_text(FORMAT_3_ROW_TEXT)
        (tmp_path / "labels").mkdir()
        (tmp_path / "labels" / GOLDEN_LABELS_NAME).write_text(FORMAT_3_LABELS_TEXT)
        assert_golden_row_fails_saying_recompute(tmp_path, 3)

    def test_format_3_labels_file_fails_saying_recompute(self, tmp_path, monkeypatch):
        run, train, test, train_config = golden_row_inputs()
        (tmp_path / "lct-s3.json").write_bytes(GOLDEN_ROW)
        (tmp_path / "labels").mkdir()
        path = tmp_path / "labels" / GOLDEN_LABELS_NAME
        path.write_text(FORMAT_3_LABELS_TEXT)
        message = "stored in format 3, this version reads format 4 only; recompute it"
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing or corrupt test labels ({message}); delete it if present")):
            load_rows(tmp_path, ["lct-s3"])

        def no_training(run, *args, **kwargs):
            raise AssertionError(f"{run.run_id} trained")

        # a pure resume takes its labels from the test data and writes nothing
        with monkeypatch.context() as patched:
            patched.setattr("vslct.analysis.train_run", no_training)
            (resumed,) = run_sweep([run], train, test, train_config, out_dir=tmp_path)
        assert resumed.labels.tobytes() == test.y.tobytes()
        assert stored_files(tmp_path) == {"lct-s3.json": GOLDEN_ROW, f"labels/{GOLDEN_LABELS_NAME}": FORMAT_3_LABELS_TEXT.encode()}
        # a resume that recomputes a row rewrites the labels file too
        (tmp_path / "lct-s3.json").unlink()
        run_sweep([run], train, test, train_config, out_dir=tmp_path)
        assert (tmp_path / "labels" / GOLDEN_LABELS_NAME).read_bytes() == GOLDEN_LABELS
        (loaded,) = load_rows(tmp_path, ["lct-s3"])
        assert loaded.labels.tobytes() == test.y.tobytes()

    def test_row_of_another_sampler_version_fails_naming_it(self, tmp_path):
        run, train, test, train_config = golden_row_inputs()
        path = tmp_path / "lct-s3.json"
        path.write_bytes(GOLDEN_ROW.replace(b'"sampler":1', b'"sampler":0'))
        with pytest.raises(ValueError, match=re.escape(f"{path}: stale or corrupt sweep row (versions.sampler: stored 0, requested 1)")):
            run_sweep([run], train, test, train_config, out_dir=tmp_path)

    def test_base_layout_row_fails_to_resume_and_stays_untouched(self, tmp_path):
        run, train, test, train_config = golden_row_inputs()
        path = tmp_path / "lct-s3.json"
        path.write_bytes(BASE_LAYOUT_ROW)
        with pytest.raises(ValueError, match=re.escape(f"{path}: stale or corrupt sweep row (")) as exc:
            run_sweep([run], train, test, train_config, out_dir=tmp_path)
        assert str(exc.value).endswith(
            "(run.omega: stored nothing, requested 0.5; run.gamma: stored nothing, requested 0.0; "
            "run.base.omega: stored 0.5, requested nothing; run.base.gamma: stored 0.0, requested nothing; "
            "run.base.tau: stored 0.0, requested nothing); delete it to recompute"
        )
        assert path.read_bytes() == BASE_LAYOUT_ROW
        assert [p.name for p in tmp_path.iterdir()] == ["lct-s3.json"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("labels", np.array([0, 2, 0]), "labels must be 0 or 1"),
            ("labels", np.array([0, 1]), "length mismatch: 3 scores, 2 labels"),
            ("scores", np.array([0.5, math.inf, 0.0]), "scores must be finite"),
            # the other cases damage the row file's bytes
            pytest.param("row", replace_by_a_directory, "[Errno 21] Is a directory", id="row-a-directory"),
            pytest.param("row", lambda path: path.write_bytes(b"{not json\n" + bytes(24)), "Expecting property name enclosed in double quotes", id="row-header-not-json"),
            pytest.param("row", lambda path: path.write_bytes(b'"r0"\n' + bytes(24)), "expected a JSON object, got str", id="row-header-not-an-object"),
            pytest.param("row", lambda path: path.write_bytes(path.read_bytes().partition(b"\n")[0]), "no newline after the record's JSON header", id="row-without-newline"),
            pytest.param("row", lambda path: path.write_bytes(path.read_bytes()[:-8]), "array of 16 bytes does not hold shape [3] of 8-byte <f8", id="row-body-too-short"),
            pytest.param("row", lambda path: path.write_bytes(path.read_bytes() + bytes(8)), "array of 32 bytes does not hold shape [3] of 8-byte <f8", id="row-body-too-long"),
            pytest.param("row", lambda path: record(path, lambda h: {**h, "scores": {"dtype": ">f8", "shape": [3]}}), "array dtype must be one of ['<f8', '<i8'], got '>f8'", id="row-unknown-dtype"),
        ],
    )
    def test_bad_stored_row_raises_naming_the_file(self, data, tmp_path, key, value, message):
        train, _ = data
        test = Dataset(x=np.zeros((3, 2)), y=np.array([0, 1, 0]))
        run = SweepRun(run_id="r0", kind="baseline", seed=0, eval_cond=(0.0,), hyper=VsHyperParams())
        store(tmp_path, SweepRow("r0", "baseline", 0, 0.5, np.array([0.5, 0.25, 0.0]), test.y), fingerprint_for(run, train, test))
        path = tmp_path / "r0.json"
        # the stored labels live in the labels file, which load_rows joins to each row
        damaged = tmp_path / "labels" / f"{_data_digest(test)}.json" if key == "labels" else path
        if key == "row":
            value(damaged)
        else:
            write_record(damaged, record(damaged), key, value)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a sweep row: {message}")):
            load_rows(tmp_path, ["r0"])
        if key == "labels":
            # resume takes the labels of the test data whose digest the row matched, not the file's
            (resumed,) = run_sweep([run], train, test, TINY_TRAIN, out_dir=tmp_path)
            assert resumed.labels.tobytes() == test.y.tobytes()
        else:
            with pytest.raises(ValueError) as exc:
                run_sweep([run], train, test, TINY_TRAIN, out_dir=tmp_path)
            assert str(exc.value).startswith(f"{tmp_path}: 1 of 1 stored rows are stale or corrupt; the first: {path}: stale or corrupt sweep row ({message}")
            assert str(exc.value).endswith("); delete it to recompute")

    def test_format_1_row_fails_saying_recompute(self, tmp_path):
        row = {"run_id": "lct-s3", "kind": "lct", "seed": 3, "auc": "0x1.8p-1", "scores": ["0x1.0p-2", "0x1.0p-1"], "labels": [0, 1]}
        (tmp_path / "lct-s3.json").write_text(json.dumps(row))
        assert_golden_row_fails_saying_recompute(tmp_path, 1)


def assert_golden_row_fails_saying_recompute(directory, version):
    """load_rows and a resume of the golden run both fail on its row file, stored in `version`, saying to recompute it; no file changes."""
    run, train, test, train_config = golden_row_inputs()
    path = directory / "lct-s3.json"
    stored = stored_files(directory)
    message = f"stored in format {version}, this version reads format 4 only; recompute it"
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a sweep row: {message}")):
        load_rows(directory, ["lct-s3"])
    with pytest.raises(ValueError, match=re.escape(f"{path}: stale or corrupt sweep row ({message}); delete it to recompute")):
        run_sweep([run], train, test, train_config, out_dir=directory)
    assert stored_files(directory) == stored


def store_rows(out_dir, run_ids):
    """Store one small lct row per run_id, as run_sweep would, under UNREAD_FINGERPRINT."""
    for seed, run_id in enumerate(run_ids):
        store(out_dir, SweepRow(run_id, "lct", seed, 0.75, np.array([0.25, 0.5 + seed]), np.array([0, 1])), UNREAD_FINGERPRINT)


class TestLoadRows:
    """load_rows reads exactly the rows it is given, by run_id, and no others."""

    def test_listed_rows_in_the_given_order(self, tmp_path):
        store_rows(tmp_path, ["r0", "r1", "r2"])
        rows = load_rows(tmp_path, ["r2", "r0"])
        assert [(r.run_id, r.seed, r.scores.tolist()) for r in rows] == [("r2", 2, [0.25, 2.5]), ("r0", 0, [0.25, 0.5])]

    def test_listed_row_that_is_missing_fails_naming_its_path(self, tmp_path):
        store_rows(tmp_path, ["r0"])
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'r1.json'}: not a sweep row: [Errno 2] No such file or directory")):
            load_rows(tmp_path, ["r0", "r1"])

    def test_row_stored_under_another_run_id_fails_naming_its_path(self, tmp_path):
        store_rows(tmp_path, ["r0"])
        (tmp_path / "r1.json").write_bytes((tmp_path / "r0.json").read_bytes())
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'r1.json'}: not a sweep row: stored as run_id 'r0', listed as 'r1'")):
            load_rows(tmp_path, ["r1"])

    @pytest.mark.parametrize(
        "run_ids, message",
        [
            (["r0", "r0"], "run_ids must be unique within a sweep; repeated: ['r0']"),
            (["../r0"], "run_id must be non-empty, filesystem-safe and not start with '.', got '../r0'"),
            ([".r0"], "got '.r0'"),
            ([""], "got ''"),
        ],
    )
    def test_bad_run_ids_fail_before_any_file_is_opened(self, tmp_path, monkeypatch, run_ids, message):
        def opened(path):
            raise AssertionError(f"{path} opened")

        monkeypatch.setattr("vslct.analysis.read_record", opened)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_rows(tmp_path, run_ids)

    def test_run_id_rule_accepts_the_old_rules_set_on_every_bmp_code_point(self):
        # the rule was a per-character generator: isalnum or one of "._-", not dot-leading
        def old_rule(run_id):
            return bool(run_id) and run_id[0] != "." and all(c.isalnum() or c in "._-" for c in run_id)

        def accepted(run_id):
            try:
                _check_run_ids([run_id])
            except ValueError:
                return False
            return True

        differ = [hex(cp) for cp in range(0x10000) for run_id in (chr(cp), "r" + chr(cp)) if accepted(run_id) != old_rule(run_id)]
        assert differ == []

    def test_listed_partial_row_is_not_a_sweep_row(self, tmp_path):
        store_rows(tmp_path, ["r0"])
        path = tmp_path / "partial.json"
        stored = {**record(tmp_path / "r0.json"), "run_id": "partial"}
        for key in stored:
            path.write_bytes((tmp_path / "r0.json").read_bytes())
            record(path, lambda header: {k: v for k, v in stored.items() if k != key})
            with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'partial.json'}: not a sweep row: ")):
                load_rows(tmp_path, ["r0", "partial"])


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
