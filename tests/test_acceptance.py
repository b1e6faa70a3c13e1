"""Acceptance suite: one test per shipping criterion.

Each test prints a single line `acceptance NN <label>: PASS|FAIL` through
the capture-disabled channel, so running pytest shows a live verdict per
criterion in addition to pytest's own PASSED/FAILED report.  Criteria 8
and 9 are stochastic end-to-end experiments pinned to the seeds published
in configs/directional.json; everything else is exact numerics.
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.integrate

from vslct.analysis import auc_stats, paired_t_test, polyfit_r2, run_sweep
from vslct.config import grid_runs, train_config_from_json
from vslct.data import synth_gaussian
from vslct.lindist import make_linear
from vslct.losses import (
    ClassCounts,
    LogitPair,
    VsHyperParams,
    break_even_alpha,
    break_even_line,
    break_even_softmax_score,
    softplus,
    vs_loss_binary,
    vs_loss_general,
    vs_loss_grad_logits,
    vs_loss_partials_hyper,
)
from vslct.metrics import LabeledScores, auc_pair_oracle, confusion_at_threshold, roc_curve
from vslct.network import ModelConfig, MlpFilmModel, count_film_weights
from vslct.training import LctConfig, TrainConfig, batch_loss_and_grads, evaluate, train_lct

CONFIG_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "directional.json")


@pytest.fixture
def announce(capsys):
    """One visible verdict line per criterion, printed past pytest capture."""

    @contextlib.contextmanager
    def _announce(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nacceptance {num:02d} {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"\nacceptance {num:02d} {label}: PASS")

    return _announce


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def test_c01_loss_form_equivalence(announce):
    with announce(1, "loss-form-equivalence"):
        rng = np.random.default_rng(11)
        started = time.monotonic()
        worst = 0.0
        for _ in range(1000):
            z = LogitPair(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
            n1 = int(rng.integers(10, 500))
            counts = ClassCounts(n0=int(n1 * rng.uniform(1.5, 200.0)), n1=n1)
            p = VsHyperParams(
                omega=rng.uniform(0.05, 0.95), gamma=rng.uniform(0.0, 0.5), tau=rng.uniform(0.0, 3.0)
            )
            y = int(rng.integers(0, 2))
            worst = max(
                worst,
                rel_err(vs_loss_binary(y, z, p, counts.beta), vs_loss_general(y, z, p, counts), floor=1e-300),
            )
        elapsed = time.monotonic() - started
        assert worst < 1e-10, f"worst relative disagreement {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_gradient_suite(announce):
    with announce(2, "gradient-suite"):
        rng = np.random.default_rng(22)
        h = 1e-5
        started = time.monotonic()
        worst_logit = worst_hyper = worst_identity = 0.0
        for _ in range(300):
            z0, z1 = rng.uniform(-4.0, 4.0, 2)
            beta = rng.uniform(2.0, 200.0)
            p = VsHyperParams(
                omega=rng.uniform(0.1, 0.9), gamma=rng.uniform(0.0, 0.5), tau=rng.uniform(0.0, 3.0)
            )
            y = int(rng.integers(0, 2))
            g = vs_loss_grad_logits(y, LogitPair(z0, z1), p, beta)
            for idx in (0, 1):
                zp, zm = [z0, z1], [z0, z1]
                zp[idx] += h
                zm[idx] -= h
                fd = (vs_loss_binary(y, LogitPair(*zp), p, beta) - vs_loss_binary(y, LogitPair(*zm), p, beta)) / (2 * h)
                worst_logit = max(worst_logit, rel_err(g[idx], fd))
            d_omega, d_gamma, d_tau = vs_loss_partials_hyper(LogitPair(z0, z1), p, beta)
            for name, ana in (("omega", d_omega), ("gamma", d_gamma), ("tau", d_tau)):
                fields = {"omega": p.omega, "gamma": p.gamma, "tau": p.tau}
                up, down = dict(fields), dict(fields)
                up[name] += h
                down[name] -= h
                fd = (
                    vs_loss_binary(1, LogitPair(z0, z1), VsHyperParams(**up), beta)
                    - vs_loss_binary(1, LogitPair(z0, z1), VsHyperParams(**down), beta)
                ) / (2 * h)
                worst_hyper = max(worst_hyper, rel_err(ana, fd))
            worst_identity = max(worst_identity, abs(d_gamma - (z1 / beta**p.gamma) * d_tau))
        elapsed = time.monotonic() - started
        assert worst_logit < 1e-5, f"worst logit-gradient error {worst_logit:.3e}"
        assert worst_hyper < 1e-5, f"worst hyperparameter-partial error {worst_hyper:.3e}"
        assert worst_identity < 1e-12, f"gamma/tau identity residual {worst_identity:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c03_break_even_geometry(announce):
    with announce(3, "break-even-geometry"):
        for omega in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99):
            alpha = break_even_alpha(omega)
            residual = omega * softplus(-alpha) - (1.0 - omega) * softplus(alpha)
            assert abs(residual) < 1e-12, f"residual {residual:.3e} at omega={omega}"
            if omega == 0.5:
                assert abs(alpha) < 1e-12
            else:
                assert math.copysign(1.0, alpha) == math.copysign(1.0, omega - 0.5)
        for beta, tau in ((10.0, 1.0), (100.0, 2.5), (7.0, 0.3)):
            line = break_even_line(VsHyperParams(omega=0.5, gamma=0.0, tau=tau), beta)
            assert line.slope == 1.0
            assert abs(line.intercept - tau * math.log(beta)) < 1e-12
        for beta, gamma in ((10.0, 0.3), (100.0, 0.15)):
            line = break_even_line(VsHyperParams(omega=0.5, gamma=gamma, tau=0.0), beta)
            assert abs(line.slope - beta**gamma) < 1e-12
            assert abs(line.intercept) < 1e-12
        assert abs(break_even_softmax_score(10.0, 2.0) - 100.0 / 101.0) < 1e-15


def test_c04_linear_distribution(announce):
    with announce(4, "linear-distribution"):
        started = time.monotonic()
        for h_b in (0.0, 0.15, 1.0 / 3.0, 0.5, 2.0 / 3.0):
            dist = make_linear(0.0, 3.0, h_b)
            grid = np.linspace(dist.a, dist.b, 100001)
            assert abs(np.trapezoid(dist.pdf(grid), grid) - 1.0) < 1e-12
            margin = 0.001 * (dist.b - dist.a)
            x = np.linspace(dist.a + margin, dist.b - margin, 4001)
            assert np.max(np.abs(dist.ppf(dist.cdf(x)) - x)) < 1e-10
            u = np.linspace(1e-6, 1.0 - 1e-6, 4001)
            assert np.max(np.abs(dist.cdf(dist.ppf(u)) - u)) < 1e-10
        triangular = make_linear(0.0, 3.0, 0.0)
        assert abs(triangular.median() - (3.0 - math.sqrt(4.5))) < 1e-12
        sample = triangular.sample(1_000_000, np.random.default_rng(4))
        x = np.sort(sample)
        n = x.size
        cdf = triangular.cdf(x)
        ks = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(0, n) / n)))
        elapsed = time.monotonic() - started
        assert ks < 0.005, f"KS distance {ks:.5f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c05_auc_oracle_equivalence(announce):
    with announce(5, "auc-oracle-equivalence"):
        rng = np.random.default_rng(55)
        worst = 0.0
        for i in range(200):
            n = int(rng.integers(5, 80))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if i % 2 == 0:
                scores = rng.choice(np.linspace(0.0, 1.0, 7), size=n)
            else:
                scores = rng.normal(size=n)
                scores[rng.integers(0, n)] = scores[rng.integers(0, n)]
            data = LabeledScores(scores=scores, labels=labels)
            worst = max(worst, abs(roc_curve(data).auc - auc_pair_oracle(data)))
        assert worst < 1e-9, f"worst trapezoid-vs-pair gap {worst:.3e}"


def test_c06_film_parameter_count(announce):
    with announce(6, "film-parameter-count"):
        config = ModelConfig(input_dim=32, cond_dim=1, trunk_widths=(64, 64), film_hidden=128, film_affine=False)
        assert count_film_weights(config) == 8320


def test_c07_whole_model_gradient_check(announce):
    with announce(7, "whole-model-gradient-check"):
        rng = np.random.default_rng(77)
        x = rng.normal(size=(6, 3))
        y = np.array([0, 1, 0, 0, 1, 1])
        cond = np.tile(rng.normal(size=(1, 2)), (6, 1))
        hyper = VsHyperParams(omega=0.7, gamma=0.2, tau=1.0)
        h = 1e-6
        for affine in (False, True):
            config = ModelConfig(
                input_dim=3, cond_dim=2, trunk_widths=(8, 8), film_hidden=8,
                film_affine=affine, film_zero_init=False,
            )
            model = MlpFilmModel.init(config, np.random.default_rng(7))
            _, grads = batch_loss_and_grads(model, x, y, cond, hyper, beta=10.0)
            worst = 0.0
            for key in model.PARAM_KEYS:
                param = model.params[key]
                grad = grads[key]
                for idx in np.ndindex(param.shape):
                    keep = param[idx]
                    param[idx] = keep + h
                    up, _ = batch_loss_and_grads(model, x, y, cond, hyper, beta=10.0)
                    param[idx] = keep - h
                    down, _ = batch_loss_and_grads(model, x, y, cond, hyper, beta=10.0)
                    param[idx] = keep
                    worst = max(worst, rel_err(grad[idx], (up - down) / (2 * h)))
            assert worst < 1e-3, f"worst parameter-gradient error {worst:.3e} (affine={affine})"


def load_directional_config():
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dataset_from_block(block):
    return synth_gaussian(
        n0=block["n0"], n1=block["n1"], dim=block["dim"], separation=block["sep"],
        rng=np.random.default_rng(block["seed"]),
    )


def test_c08_directional_variance_reduction(announce, capsys):
    with announce(8, "directional-variance-reduction"):
        started = time.monotonic()
        config = load_directional_config()
        train_data = dataset_from_block(config["train_data"])
        test_data = dataset_from_block(config["test_data"])
        assert train_data.counts.beta == 100.0
        runs = grid_runs(config["sweep"])
        train_config = train_config_from_json(config["sweep"]["train"], "sweep.train")
        rows = run_sweep(runs, train_data, test_data, train_config)
        elapsed = time.monotonic() - started
        baseline = [r for r in rows if r.kind == "baseline"]
        lct = [r for r in rows if r.kind == "lct"]
        assert len(baseline) == 36 and len(lct) == 36
        base_stats, lct_stats = auc_stats(baseline), auc_stats(lct)
        with capsys.disabled():
            print(
                f"\n  baseline auc mean={base_stats.mean:.4f} std={base_stats.std:.5f}"
                f" | conditioned auc mean={lct_stats.mean:.4f} std={lct_stats.std:.5f}"
                f" | {elapsed:.0f}s for {len(rows)} runs"
            )
        assert lct_stats.std < base_stats.std, (
            f"conditioned std {lct_stats.std:.5f} not below baseline std {base_stats.std:.5f}"
        )
        assert lct_stats.mean >= base_stats.mean - 0.005, (
            f"conditioned mean {lct_stats.mean:.4f} fell more than 0.005 below baseline {base_stats.mean:.4f}"
        )
        assert elapsed < 1200.0, f"took {elapsed:.0f}s"


def test_c09_eval_conditioning_invariance(announce, capsys):
    with announce(9, "eval-conditioning-invariance"):
        train_data = synth_gaussian(n0=1500, n1=500, dim=2, separation=1.0, rng=np.random.default_rng(101))
        test_data = synth_gaussian(n0=500, n1=500, dim=2, separation=1.0, rng=np.random.default_rng(202))
        lct = LctConfig(base=VsHyperParams(omega=0.5, gamma=0.0, tau=0.0), conditioned={"tau": make_linear(0.0, 3.0, 0.0)})
        result = train_lct(train_data, lct, TrainConfig(epochs=150, batch_size=128, lr=0.1, seed=0))
        aucs, tprs = [], []
        for lam in (0.0, 1.0, 2.0, 3.0):
            scored = evaluate(result.model, test_data, np.full(1, lam))
            aucs.append(roc_curve(scored).auc)
            tprs.append(confusion_at_threshold(scored, 0.5).tpr)
        with capsys.disabled():
            print(f"\n  auc range {max(aucs) - min(aucs):.2e}; tpr at 0.5 per lambda: {[round(t, 3) for t in tprs]}")
        assert max(aucs) - min(aucs) < 0.01
        assert all(b > a for a, b in zip(tprs, tprs[1:])), f"tpr not strictly increasing: {tprs}"


def t_pvalue_by_quadrature(t, df):
    def pdf(s):
        return (
            math.gamma((df + 1) / 2.0)
            / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
            * (1.0 + s * s / df) ** (-(df + 1) / 2.0)
        )

    tail, _ = scipy.integrate.quad(pdf, abs(t), np.inf, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * tail


def test_c10_statistics_oracles(announce):
    with announce(10, "statistics-oracles"):
        rng = np.random.default_rng(1010)
        x = rng.uniform(-2.0, 2.0, size=(40, 2))
        y = 2.0 - x[:, 0] + 3.0 * x[:, 1] + 0.5 * x[:, 0] ** 2 - 2.0 * x[:, 0] * x[:, 1] + rng.normal(0, 0.3, 40)
        fit = polyfit_r2(x, y, degree=2)
        design = np.column_stack(
            [np.ones(40), x[:, 0], x[:, 1], x[:, 0] ** 2, x[:, 1] ** 2, x[:, 0] * x[:, 1]]
        )
        oracle_coef = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.max(np.abs(np.asarray(fit.coefficients) - oracle_coef)) < 1e-9
        resid = y - design @ oracle_coef
        oracle_r2 = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
        assert abs(fit.r2 - oracle_r2) < 1e-9
        assert polyfit_r2(x, y, degree=2).r2 >= polyfit_r2(x, y, degree=1).r2 - 1e-12
        assert polyfit_r2(x, y, degree=2).r2 >= polyfit_r2(x[:, :1], y, degree=2).r2 - 1e-12
        for n, shift, scale in ((4, 0.5, 1.0), (8, 0.0, 2.0), (15, 1.0, 0.5), (30, -0.2, 1.5)):
            a = rng.normal(0.0, 1.0, n)
            b = a + shift + rng.normal(0.0, scale, n)
            result = paired_t_test(a, b)
            assert abs(result.p_value - t_pvalue_by_quadrature(result.statistic, result.df)) < 1e-6
