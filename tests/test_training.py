"""Tests for training loops: schedules, determinism, conditioning semantics."""

import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from vslct.data import Dataset, synth_gaussian
from vslct.lindist import LinearDistribution, make_linear
from vslct.losses import VsHyperParams, vs_loss_and_grad_batch, vs_loss_binary_batch
from vslct.metrics import roc_curve
from vslct.network import MlpFilmModel, ModelConfig, Workspace, sgd_step
from vslct.training import (
    CLIP_NORM,
    LR_DROP_FACTOR,
    LR_MILESTONES,
    MOMENTUM,
    LctConfig,
    TrainConfig,
    batch_loss_and_grads,
    evaluate,
    lr_at_epoch,
    train_baseline,
    train_lct,
)

FAST = TrainConfig(epochs=3, batch_size=32, seed=7)


def small_data(n0=60, n1=20, seed=80):
    return synth_gaussian(n0=n0, n1=n1, dim=3, separation=2.0, rng=np.random.default_rng(seed))


class TestTrainConfig:
    """Protocol defaults and validation."""

    def test_defaults(self):
        c = TrainConfig()
        assert c.epochs == 500
        assert c.batch_size == 128
        assert c.lr == 0.1
        assert c.seed == 0
        assert (MOMENTUM, CLIP_NORM, LR_DROP_FACTOR, LR_MILESTONES) == (0.9, 0.5, 0.1, (0.8, 0.9))

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=float("nan"))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", 2.5, "epochs must be an integer >= 1, got 2.5"),
            ("epochs", True, "epochs must be an integer >= 1, got True"),
            ("batch_size", 64.0, "batch_size must be an integer >= 1, got 64.0"),
            ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
            ("seed", -1, "seed must be an integer >= 0, got -1"),
            ("seed", "0", "seed must be an integer >= 0, got '0'"),
            ("seed", False, "seed must be an integer >= 0, got False"),
            ("lr", True, "lr must be a finite number > 0, got True"),
            ("lr", float("inf"), "lr must be a finite number > 0, got inf"),
            ("lr", "0.1", "lr must be a finite number > 0, got '0.1'"),
        ],
    )
    def test_bad_field_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{field: value})

    def test_numpy_values_stored_as_plain_int_and_float(self):
        c = TrainConfig(epochs=np.int64(3), batch_size=np.int32(32), lr=np.float32(0.5), seed=np.uint8(7))
        assert c == TrainConfig(epochs=3, batch_size=32, lr=0.5, seed=7)
        assert [type(v) for v in (c.epochs, c.batch_size, c.lr, c.seed)] == [int, int, float, int]
        assert json.loads(json.dumps(asdict(c))) == {"epochs": 3, "batch_size": 32, "lr": 0.5, "seed": 7}


class TestLrSchedule:
    """Step decay at floor(fraction * epochs)."""

    def test_standard_protocol(self):
        c = TrainConfig(epochs=500)
        assert lr_at_epoch(c, 0) == 0.1
        assert lr_at_epoch(c, 399) == 0.1
        np.testing.assert_allclose(lr_at_epoch(c, 400), 0.01, rtol=1e-12)
        np.testing.assert_allclose(lr_at_epoch(c, 449), 0.01, rtol=1e-12)
        np.testing.assert_allclose(lr_at_epoch(c, 450), 0.001, rtol=1e-12)
        np.testing.assert_allclose(lr_at_epoch(c, 499), 0.001, rtol=1e-12)

    def test_scaled_epoch_budget(self):
        c = TrainConfig(epochs=10)
        assert lr_at_epoch(c, 7) == 0.1
        np.testing.assert_allclose(lr_at_epoch(c, 8), 0.01, rtol=1e-12)
        np.testing.assert_allclose(lr_at_epoch(c, 9), 0.001, rtol=1e-12)

    def test_out_of_range(self):
        c = TrainConfig(epochs=10)
        with pytest.raises(ValueError):
            lr_at_epoch(c, 10)
        with pytest.raises(ValueError):
            lr_at_epoch(c, -1)


class TestLctConfig:
    """Conditioned-hyperparameter bookkeeping."""

    def test_names_follow_fixed_order(self):
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": 1.0, "omega": 0.7})
        assert lct.names == ("omega", "tau")
        assert lct.cond_dim == 2

    def test_point_mass_draw_consumes_no_randomness(self):
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": 2.0})
        rng = np.random.default_rng(81)
        before = rng.bit_generator.state
        np.testing.assert_array_equal(lct.draw(rng), [2.0])
        assert rng.bit_generator.state == before

    def test_distribution_draw_within_support(self):
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 3.0, 0.15)})
        rng = np.random.default_rng(82)
        for _ in range(100):
            v = lct.draw(rng)
            assert 0.0 <= v[0] <= 3.0

    def test_hyper_at(self):
        base = VsHyperParams(omega=0.9, gamma=0.2, tau=0.0)
        lct = LctConfig(base=base, conditioned={"tau": make_linear(0.0, 3.0, 0.0)})
        h = lct.hyper_at(np.array([1.5]))
        assert h == VsHyperParams(omega=0.9, gamma=0.2, tau=1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LctConfig(base=VsHyperParams(), conditioned={})
        with pytest.raises(ValueError):
            LctConfig(base=VsHyperParams(), conditioned={"delta": 1.0})
        with pytest.raises(ValueError):
            LctConfig(base=VsHyperParams(), conditioned={"omega": make_linear(0.0, 2.0, 0.5)})
        with pytest.raises(ValueError):
            LctConfig(base=VsHyperParams(), conditioned={"tau": -1.0})
        with pytest.raises(ValueError):
            LctConfig(base=VsHyperParams(), conditioned={"tau": "high"})
        with pytest.raises(ValueError, match="tau: expected a float or LinearDistribution, got bool"):
            LctConfig(base=VsHyperParams(), conditioned={"tau": True})

    @pytest.mark.parametrize("mass", [np.int64(1), np.float32(1.0), np.float64(1.0), 1])
    def test_numpy_point_mass_taken_as_a_float(self, mass):
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": mass})
        values = lct.draw(np.random.default_rng(83))
        assert values.tolist() == [1.0]
        hyper = lct.hyper_at(values)
        assert hyper == VsHyperParams(tau=1.0) and type(hyper.tau) is float

    def test_names_built_once(self):
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 3.0, 0.0), "omega": 0.7})
        assert lct.names == ("omega", "tau") and lct.names is lct.names
        assert lct == LctConfig(base=VsHyperParams(), conditioned={"omega": 0.7, "tau": make_linear(0.0, 3.0, 0.0)})
        assert "names" not in repr(lct)

    def test_hyper_at_equals_replacing_the_base(self):
        base = VsHyperParams(omega=0.9, gamma=0.2, tau=0.5)
        lct = LctConfig(base=base, conditioned={"omega": make_linear(0.0, 1.0, 1.5), "tau": make_linear(0.0, 3.0, 0.3)})
        rng = np.random.default_rng(84)
        for _ in range(200):
            values = lct.draw(rng)
            hyper = lct.hyper_at(values)
            assert hyper == replace(base, omega=float(values[0]), tau=float(values[1]))
            assert all(type(v) is float for v in (hyper.omega, hyper.gamma, hyper.tau))


class TestDeterminism:
    """Bit-exact reproducibility from the run seed."""

    def test_baseline_reproducible(self):
        data = small_data()
        a = train_baseline(data, VsHyperParams(), FAST)
        b = train_baseline(data, VsHyperParams(), FAST)
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_array_equal(a.model.params[k], b.model.params[k])
        np.testing.assert_array_equal(a.epoch_losses, b.epoch_losses)

    def test_lct_reproducible(self):
        data = small_data()
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 3.0, 0.15)})
        a = train_lct(data, lct, FAST)
        b = train_lct(data, lct, FAST)
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_array_equal(a.model.params[k], b.model.params[k])

    def test_seed_changes_outcome(self):
        data = small_data()
        a = train_baseline(data, VsHyperParams(), FAST)
        b = train_baseline(data, VsHyperParams(), TrainConfig(epochs=3, batch_size=32, seed=8))
        assert any(not np.array_equal(a.model.params[k], b.model.params[k]) for k in MlpFilmModel.PARAM_KEYS)


class TestPointMassCollapse:
    """LCT with a point mass must equal the matching baseline exactly."""

    def test_trajectories_identical(self):
        data = small_data()
        tau = 2.0
        lct_result = train_lct(
            data,
            LctConfig(base=VsHyperParams(omega=0.5, gamma=0.0, tau=0.0), conditioned={"tau": tau}),
            FAST,
        )
        base_result = train_baseline(
            data,
            VsHyperParams(omega=0.5, gamma=0.0, tau=tau),
            FAST,
            const_cond=np.array([tau]),
        )
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_array_equal(lct_result.model.params[k], base_result.model.params[k])
        np.testing.assert_array_equal(lct_result.epoch_losses, base_result.epoch_losses)


class TestLambdaAccounting:
    """One draw per mini-batch, from a dedicated stream."""

    def test_trace_matches_dedicated_stream(self, monkeypatch):
        data = small_data(n0=70, n1=30)  # 100 rows, batch 32 -> 4 batches/epoch
        dist = make_linear(0.0, 3.0, 0.15)
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": dist})
        trace = []
        draw = LctConfig.draw

        def recording_draw(self, rng):
            values = draw(self, rng)
            trace.append(values)
            return values

        # This compares `sample` with itself, so a scalar `sample(1, rng)`
        # that drifted from `ppf` would pass here; TestScalarDraw in
        # test_lindist.py and TestStepOracle below check that.
        monkeypatch.setattr(LctConfig, "draw", recording_draw)
        train_lct(data, lct, FAST)
        lam_rng = np.random.default_rng(np.random.SeedSequence(FAST.seed).spawn(3)[2])
        expected = [dist.sample(1, lam_rng)[0] for _ in range(3 * 4)]
        np.testing.assert_array_equal(np.array(trace), np.reshape(expected, (12, 1)))


def plain_training(data, model_config, config, batch_settings):
    """The training loop as a plain step, the oracle for `_run_training`.

    forward/backward in a fresh workspace of the batch's rows per step,
    the gradients concatenated into a fresh flat array, np.stack for the
    logit gradient and np.mean for the loss, on the same three seed streams.
    """
    init_rng, shuffle_rng, lam_rng = (np.random.default_rng(ss) for ss in np.random.SeedSequence(config.seed).spawn(3))
    model = MlpFilmModel.init(model_config, init_rng)
    velocity = np.zeros_like(model.flat)
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        perm = shuffle_rng.permutation(data.n)
        total = 0.0
        for start in range(0, data.n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            cond_row, hyper = batch_settings(lam_rng)
            logits, cache = model.forward(data.x[idx], model.film(cond_row.reshape(1, -1)), Workspace(model_config, idx.size))
            losses, g0, g1 = vs_loss_and_grad_batch(data.y[idx], logits[:, 0], logits[:, 1], hyper, data.counts.beta)
            grads = model.backward(cache, np.stack([g0, g1], axis=1) / idx.size)
            flat_grads = np.concatenate([grads[k] for k in MlpFilmModel.PARAM_KEYS], axis=None)
            sgd_step(model.flat, flat_grads, velocity, lr=lr, momentum=MOMENTUM, clip_norm=CLIP_NORM)
            total += float(np.mean(losses)) * idx.size
        epoch_losses.append(total / data.n)
    return model, np.array(epoch_losses)


def plain_draw(lct, rng):
    """LctConfig.draw through `ppf` on a one-element array, the path `sample(1, rng)` took before its scalar form."""
    values = []
    for name in lct.names:
        dist = lct.conditioned[name]
        values.append(float(dist.ppf(rng.random(1))[0]) if isinstance(dist, LinearDistribution) else float(dist))
    values = np.array(values)
    return values, lct.hyper_at(values)


class TestStepOracle:
    """The step on one reused workspace trains bit for bit like the plain step on fresh ones."""

    # 100 rows in batches of 32: the last batch of each epoch has 4 rows
    DATA = small_data(n0=70, n1=30)

    @pytest.mark.parametrize("affine", [False, True], ids=["additive", "affine"])
    @pytest.mark.parametrize(
        "conditioned",
        [None, make_linear(0.0, 3.0, 0.0), make_linear(0.0, 3.0, 0.66), 2.0],
        ids=["baseline", "falling", "rising", "point-mass"],
    )
    def test_flat_params_and_losses_bit_identical(self, affine, conditioned):
        data = self.DATA
        model_config = ModelConfig(input_dim=3, film_affine=affine, film_zero_init=False)
        if conditioned is None:
            hyper = VsHyperParams(omega=0.9, gamma=0.2, tau=1.0)
            cond_row = np.array([3.0])
            result = train_baseline(data, hyper, FAST, model_config, const_cond=cond_row)
            model, losses = plain_training(data, model_config, FAST, lambda _rng: (cond_row, hyper))
        else:
            lct = LctConfig(base=VsHyperParams(omega=0.9), conditioned={"tau": conditioned})
            result = train_lct(data, lct, FAST, model_config)
            model, losses = plain_training(data, model_config, FAST, lambda rng: plain_draw(lct, rng))
        assert data.n % FAST.batch_size != 0
        assert result.model.flat.tobytes() == model.flat.tobytes()
        assert result.epoch_losses.tobytes() == losses.tobytes()


class TestBatchLossAndGrads:
    """Whole-model gradient check through the VS loss."""

    def test_loss_value_matches_direct_computation(self):
        data = small_data()
        config = ModelConfig(input_dim=3, cond_dim=1, trunk_widths=(8, 8), film_hidden=8, film_zero_init=False)
        model = MlpFilmModel.init(config, np.random.default_rng(83))
        hyper = VsHyperParams(omega=0.8, gamma=0.3, tau=1.0)
        cond = np.full((data.n, 1), 1.0)
        loss, _ = batch_loss_and_grads(model, data.x, data.y, cond, hyper, beta=3.0)
        logits, _ = model.forward(data.x, model.film(cond), Workspace(config, data.n))
        expected = float(np.mean(vs_loss_binary_batch(data.y, logits[:, 0], logits[:, 1], hyper, beta=3.0)))
        np.testing.assert_allclose(loss, expected, rtol=1e-14)

    @pytest.mark.parametrize(
        "affine, cond_rows",
        [(False, 16), (True, 16), (False, 1), (True, 1)],
        ids=["False", "True", "False-one-row", "True-one-row"],
    )
    def test_gradient_check(self, affine, cond_rows):
        rng = np.random.default_rng(84)
        x = rng.normal(size=(16, 3))
        y = rng.integers(0, 2, size=16)
        cond = rng.uniform(0.0, 3.0, size=(cond_rows, 1))
        config = ModelConfig(input_dim=3, cond_dim=1, trunk_widths=(8, 8), film_hidden=8, film_affine=affine, film_zero_init=False)
        model = MlpFilmModel.init(config, np.random.default_rng(85))
        hyper = VsHyperParams(omega=0.7, gamma=0.2, tau=1.5)
        _, grads = batch_loss_and_grads(model, x, y, cond, hyper, beta=10.0)
        h = 1e-6
        worst = 0.0
        for key in MlpFilmModel.PARAM_KEYS:
            flat = model.params[key].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = batch_loss_and_grads(model, x, y, cond, hyper, beta=10.0)
                flat[idx] = orig - h
                down, _ = batch_loss_and_grads(model, x, y, cond, hyper, beta=10.0)
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                ana = grads[key].ravel()[idx]
                worst = max(worst, abs(ana - fd) / max(abs(ana), abs(fd), 1e-8))
        assert worst < 1e-3


class TestNonFiniteTraining:
    """A step with a non-finite loss or gradient norm stops the run where it happens."""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gradients_raise_naming_the_step(self):
        data = small_data()
        huge = Dataset(x=data.x * 1e155, y=data.y)
        with pytest.raises(ValueError, match=r"epoch 0, batch 0, conditioning \[0\.0\]: loss .*, gradient norm inf"):
            train_baseline(huge, VsHyperParams(), FAST)


class TestEvaluate:
    """Fixed-conditioning scoring."""

    def test_scores_shape_and_labels(self):
        data = small_data()
        result = train_baseline(data, VsHyperParams(), FAST)
        scored = evaluate(result.model, data, eval_cond=0.0)
        assert scored.scores.shape == (data.n,)
        np.testing.assert_array_equal(scored.labels, data.y)

    def test_zero_init_film_is_conditioning_invariant_before_training(self):
        data = small_data()
        model = MlpFilmModel.init(ModelConfig(input_dim=3), np.random.default_rng(86))
        a = evaluate(model, data, eval_cond=0.0)
        b = evaluate(model, data, eval_cond=3.0)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_cond_size_validation(self):
        data = small_data()
        model = MlpFilmModel.init(ModelConfig(input_dim=3, cond_dim=2), np.random.default_rng(87))
        with pytest.raises(ValueError):
            evaluate(model, data, eval_cond=np.array([1.0, 2.0, 3.0]))


class TestConvergence:
    """End-to-end sanity: training separates an easy task."""

    def test_baseline_learns(self):
        train = synth_gaussian(n0=200, n1=200, dim=2, separation=3.0, rng=np.random.default_rng(88))
        test = synth_gaussian(n0=300, n1=300, dim=2, separation=3.0, rng=np.random.default_rng(89))
        result = train_baseline(train, VsHyperParams(), TrainConfig(epochs=40, batch_size=64, seed=1))
        auc = roc_curve(evaluate(result.model, test, eval_cond=0.0)).auc
        assert auc > 0.95
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_lct_learns(self):
        train = synth_gaussian(n0=300, n1=100, dim=2, separation=3.0, rng=np.random.default_rng(90))
        test = synth_gaussian(n0=300, n1=300, dim=2, separation=3.0, rng=np.random.default_rng(91))
        lct = LctConfig(base=VsHyperParams(), conditioned={"tau": make_linear(0.0, 3.0, 0.15)})
        result = train_lct(train, lct, TrainConfig(epochs=40, batch_size=64, seed=2))
        auc = roc_curve(evaluate(result.model, test, eval_cond=1.5)).auc
        assert auc > 0.95
