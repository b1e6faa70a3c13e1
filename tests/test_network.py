"""Tests for the FiLM-conditioned MLP: shapes, gradients, optimizer, checkpoints."""

import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vslct
from vslct.network import (
    SCORE_BLOCK_ROWS,
    MlpFilmModel,
    ModelConfig,
    count_film_weights,
    load_checkpoint,
    minority_score,
    save_checkpoint,
    sgd_step,
)

REFERENCE_CONFIG = ModelConfig(input_dim=10, cond_dim=1, trunk_widths=(64, 64), film_hidden=128)


def tiny_config(affine: bool) -> ModelConfig:
    return ModelConfig(
        input_dim=3,
        cond_dim=2,
        trunk_widths=(8, 8),
        film_hidden=8,
        film_affine=affine,
        film_zero_init=False,
    )


def quadratic_objective(model: MlpFilmModel, x: np.ndarray, cond: np.ndarray):
    """J = 0.5 * sum(logits^2); its logit gradient is the logits themselves."""
    logits, cache = model.forward(x, cond)
    return 0.5 * float(np.sum(logits * logits)), model.backward(cache, logits)


class TestModelConfig:
    """Config validation and derived sizes."""

    def test_film_out_dim(self):
        assert REFERENCE_CONFIG.film_out_dim == 64
        affine = ModelConfig(input_dim=10, film_affine=True)
        assert affine.film_out_dim == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, trunk_widths=(64,))
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, film_hidden=0)


class TestFilmWeightCount:
    """FiLM block size accounting (weights only, biases excluded)."""

    def test_reference_additive_count(self):
        assert count_film_weights(REFERENCE_CONFIG) == 8320

    def test_affine_doubles_output_block(self):
        affine = ModelConfig(input_dim=10, cond_dim=1, trunk_widths=(64, 64), film_hidden=128, film_affine=True)
        assert count_film_weights(affine) == 128 + 128 * 128

    def test_scales_with_cond_dim(self):
        three = ModelConfig(input_dim=10, cond_dim=3, trunk_widths=(64, 64), film_hidden=128)
        assert count_film_weights(three) == 3 * 128 + 128 * 64


class TestForward:
    """Forward-pass semantics."""

    def test_output_shape(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(60))
        logits, _ = model.forward(np.zeros((5, 3)), np.zeros((5, 2)))
        assert logits.shape == (5, 2)

    def test_zero_init_film_ignores_conditioning(self):
        for affine in (False, True):
            config = ModelConfig(input_dim=4, cond_dim=1, trunk_widths=(16, 16), film_hidden=32, film_affine=affine, film_zero_init=True)
            model = MlpFilmModel.init(config, np.random.default_rng(61))
            x = np.random.default_rng(62).normal(size=(7, 4))
            a, _ = model.forward(x, np.zeros((7, 1)))
            b, _ = model.forward(x, np.full((7, 1), 3.0))
            np.testing.assert_array_equal(a, b)

    def test_trained_film_weights_respond_to_conditioning(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(63))
        x = np.random.default_rng(64).normal(size=(6, 3))
        a, _ = model.forward(x, np.zeros((6, 2)))
        b, _ = model.forward(x, np.ones((6, 2)))
        assert np.max(np.abs(a - b)) > 1e-6

    def test_rows_independent(self):
        model = MlpFilmModel.init(tiny_config(True), np.random.default_rng(65))
        rng = np.random.default_rng(66)
        x = rng.normal(size=(9, 3))
        cond = rng.normal(size=(9, 2))
        logits, _ = model.forward(x, cond)
        perm = rng.permutation(9)
        permuted, _ = model.forward(x[perm], cond[perm])
        np.testing.assert_array_equal(permuted, logits[perm])

    def test_shape_validation(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(67))
        with pytest.raises(ValueError):
            model.forward(np.zeros((5, 4)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            model.forward(np.zeros((5, 3)), np.zeros((4, 2)))

    def test_one_row_shape_validation(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(67))
        with pytest.raises(ValueError):
            model.forward(np.zeros((5, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            model.forward(np.zeros((5, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("cond_rows", [1, 9], ids=["one-row", "per-row"])
    @pytest.mark.parametrize("affine", [False, True])
    def test_in_place_trunk_matches_out_of_place_formula(self, affine, cond_rows):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(70))
        p = model.params
        rng = np.random.default_rng(71)
        x = rng.normal(size=(9, 3))
        cond = rng.normal(size=(cond_rows, 2))
        x_before = x.copy()
        logits, cache = model.forward(x, cond)
        h0 = np.maximum(x @ p["trunk0_w"] + p["trunk0_b"], 0.0)
        h1 = np.maximum(h0 @ p["trunk1_w"] + p["trunk1_b"], 0.0)
        film_out = np.maximum(cond @ p["film0_w"] + p["film0_b"], 0.0) @ p["film1_w"] + p["film1_b"]
        mu, raw = film_out[:, :8], film_out[:, 8:]
        hmod = ((1.0 + raw) * h1 if affine else h1) + mu
        np.testing.assert_array_equal(cache["h0"], h0)
        np.testing.assert_array_equal(cache["h1"], h1)
        np.testing.assert_array_equal(cache["hmod"], hmod)
        np.testing.assert_array_equal(logits, hmod @ p["head_w"] + p["head_b"])
        np.testing.assert_array_equal(x, x_before)
        for a, b in [("h0", "h1"), ("h0", "hmod"), ("h1", "hmod")]:
            assert not np.shares_memory(cache[a], cache[b])

    def test_init_deterministic(self):
        a = MlpFilmModel.init(tiny_config(True), np.random.default_rng(68))
        b = MlpFilmModel.init(tiny_config(True), np.random.default_rng(68))
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_array_equal(a.params[k], b.params[k])


def width64_config(affine: bool) -> ModelConfig:
    """The default trunk width, so blocks run the BLAS kernels that real models do."""
    return ModelConfig(input_dim=2, cond_dim=2, trunk_widths=(64, 64), film_hidden=16, film_affine=affine, film_zero_init=False)


class TestBlockedScores:
    """`scores` runs `forward` over consecutive blocks of SCORE_BLOCK_ROWS rows."""

    @pytest.mark.parametrize("cond_rows", ["shared", "per-row"])
    @pytest.mark.parametrize("affine", [False, True])
    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4097])
    def test_equal_to_forward_over_the_same_blocks(self, n, affine, cond_rows):
        assert SCORE_BLOCK_ROWS == 2048
        model = MlpFilmModel.init(width64_config(affine), np.random.default_rng(90))
        rng = np.random.default_rng(91)
        x = rng.normal(size=(n, 2))
        cond = rng.uniform(0.0, 3.0, size=(1 if cond_rows == "shared" else n, 2))
        scores = model.scores(x, cond)
        blocks = [
            model.forward(x[i : i + SCORE_BLOCK_ROWS], cond if cond_rows == "shared" else cond[i : i + SCORE_BLOCK_ROWS])[0]
            for i in range(0, n, SCORE_BLOCK_ROWS)
        ]
        assert scores.tobytes() == minority_score(np.concatenate(blocks)).tobytes()
        unblocked = minority_score(model.forward(x, cond)[0])
        np.testing.assert_allclose(scores, unblocked, rtol=0.0, atol=1e-14)
        if n <= SCORE_BLOCK_ROWS:
            assert scores.tobytes() == unblocked.tobytes()

    def test_shapes_checked_before_slicing(self):
        model = MlpFilmModel.init(width64_config(False), np.random.default_rng(92))
        n = 2 * SCORE_BLOCK_ROWS + 1
        with pytest.raises(ValueError, match=re.escape(f"x must have shape (n, 2), got ({n}, 3)")):
            model.scores(np.zeros((n, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match=re.escape(f"cond must have shape ({n}, 2) or (1, 2), got ({n - 1}, 2)")):
            model.scores(np.zeros((n, 2)), np.zeros((n - 1, 2)))
        with pytest.raises(ValueError, match=re.escape(f"cond must have shape ({n}, 2) or (1, 2), got ({n}, 1)")):
            model.scores(np.zeros((n, 2)), np.zeros((n, 1)))

    def test_peak_memory_bounded_by_blocks(self):
        # unblocked, forward's three (n, 64) float64 arrays alone take 154 MB here
        model = MlpFilmModel.init(width64_config(True), np.random.default_rng(93))
        x = np.random.default_rng(94).normal(size=(100_000, 2))
        cond = np.ones((1, 2))
        tracemalloc.start()
        try:
            model.scores(x, cond)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's mmap and trim thresholds")
    def test_blocks_reuse_pages_in_a_fresh_process(self):
        # A fresh interpreter has glibc's initial thresholds, under which 1 MB
        # activations are mapped or trimmed afresh for every block: about
        # 36 000 page faults per call on 10^5 rows.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from vslct.network import MlpFilmModel, ModelConfig
            model = MlpFilmModel.init(ModelConfig(input_dim=2, film_zero_init=False), np.random.default_rng(0))
            x = np.random.default_rng(1).normal(size=(100_000, 2))
            model.scores(x, np.ones((1, 1)))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            model.scores(x, np.ones((1, 1)))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vslct.__file__)), OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert int(run.stdout) < 1000


class TestBackward:
    """Hand-written backward pass against finite differences."""

    @pytest.mark.parametrize("affine", [False, True])
    def test_full_gradient_check(self, affine):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(69))
        rng = np.random.default_rng(70)
        x = rng.normal(size=(12, 3))
        cond = rng.uniform(0.0, 3.0, size=(12, 2))
        _, grads = quadratic_objective(model, x, cond)
        h = 1e-6
        worst = 0.0
        for key in MlpFilmModel.PARAM_KEYS:
            flat = model.params[key].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = quadratic_objective(model, x, cond)
                flat[idx] = orig - h
                down, _ = quadratic_objective(model, x, cond)
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                ana = grads[key].ravel()[idx]
                err = abs(ana - fd) / max(abs(ana), abs(fd), 1e-8)
                worst = max(worst, err)
        assert worst < 1e-3

    def test_backward_linear_in_upstream(self):
        model = MlpFilmModel.init(tiny_config(True), np.random.default_rng(71))
        rng = np.random.default_rng(72)
        x = rng.normal(size=(5, 3))
        cond = rng.normal(size=(5, 2))
        _, cache = model.forward(x, cond)
        d = rng.normal(size=(5, 2))
        g1 = model.backward(cache, d)
        g2 = model.backward(cache, 2.0 * d)
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_allclose(g2[k], 2.0 * g1[k], rtol=1e-13)


class TestSharedConditioningRow:
    """A (1, cond_dim) conditioning row equals that row tiled over the batch."""

    @pytest.mark.parametrize("affine", [False, True])
    def test_forward_matches_tiled(self, affine):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(76))
        rng = np.random.default_rng(77)
        x = rng.normal(size=(11, 3))
        row = rng.uniform(0.0, 3.0, size=(1, 2))
        shared, _ = model.forward(x, row)
        tiled, _ = model.forward(x, np.tile(row, (11, 1)))
        np.testing.assert_allclose(shared, tiled, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("affine", [False, True])
    def test_backward_matches_tiled(self, affine):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(78))
        rng = np.random.default_rng(79)
        x = rng.normal(size=(11, 3))
        row = rng.uniform(0.0, 3.0, size=(1, 2))
        _, shared = quadratic_objective(model, x, row)
        _, tiled = quadratic_objective(model, x, np.tile(row, (11, 1)))
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_allclose(shared[k], tiled[k], rtol=1e-12, atol=0.0, err_msg=k)


class TestFlatParameters:
    """One flat buffer behind the named parameter views."""

    def test_params_are_views_of_flat_in_key_order(self):
        model = MlpFilmModel.init(tiny_config(True), np.random.default_rng(80))
        flat = np.concatenate([model.params[k] for k in MlpFilmModel.PARAM_KEYS], axis=None)
        assert flat.tobytes() == model.flat.tobytes()
        model.params["head_b"][1] = 7.0
        assert model.flat[-1] == 7.0

    def test_copy_owns_its_buffer(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(81))
        other = model.copy()
        other.params["trunk0_w"][0, 0] += 1.0
        assert other.flat.tobytes() != model.flat.tobytes()

    def test_wrong_shape_rejected(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(82))
        params = dict(model.params, head_b=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="head_b"):
            MlpFilmModel(model.config, params)


class TestOptimizer:
    """Momentum and global-norm clipping semantics on flat parameter vectors."""

    def test_momentum_displacement_ratio(self):
        params = np.array([1.0])
        velocity = np.zeros_like(params)
        grads = np.array([0.5])
        p0 = params.copy()
        sgd_step(params, grads.copy(), velocity, lr=0.1, momentum=0.9, clip_norm=math.inf)
        p1 = params.copy()
        sgd_step(params, grads.copy(), velocity, lr=0.1, momentum=0.9, clip_norm=math.inf)
        p2 = params.copy()
        np.testing.assert_allclose((p1 - p2) / (p0 - p1), 1.9, rtol=1e-14)

    def test_zero_momentum_is_plain_sgd(self):
        params = np.array([2.0, -1.0])
        velocity = np.zeros_like(params)
        sgd_step(params, np.array([0.5, 0.25]), velocity, lr=0.2, momentum=0.0, clip_norm=math.inf)
        np.testing.assert_allclose(params, [2.0 - 0.1, -1.0 - 0.05], rtol=1e-15)

    def test_clip_rescales_to_budget(self):
        # with lr 1 and no momentum, the step is exactly the clipped gradient
        grads = np.array([3.0, 4.0])
        params = np.zeros(2)
        norm = sgd_step(params, grads, np.zeros(2), lr=1.0, momentum=0.0, clip_norm=0.5)
        clipped = -params
        assert norm == 5.0
        np.testing.assert_allclose(np.sqrt(np.sum(clipped * clipped)), 0.5, rtol=1e-12)
        np.testing.assert_allclose(clipped[0] / clipped[1], 0.75, rtol=1e-12)

    def test_clip_inactive_below_budget(self):
        grads = np.array([0.3, 0.4])
        params = np.zeros(2)
        norm = sgd_step(params, grads, np.zeros(2), lr=1.0, momentum=0.0, clip_norm=0.5)
        assert norm == 0.5
        assert (-params).tobytes() == grads.tobytes()

    def test_clip_applied_before_momentum(self):
        params = np.array([0.0])
        velocity = np.zeros_like(params)
        sgd_step(params, np.array([10.0]), velocity, lr=1.0, momentum=0.9, clip_norm=1.0)
        np.testing.assert_allclose(params, [-1.0], rtol=1e-14)
        sgd_step(params, np.array([10.0]), velocity, lr=1.0, momentum=0.9, clip_norm=1.0)
        np.testing.assert_allclose(params, [-1.0 - 1.9], rtol=1e-14)

    def test_validation(self):
        params = np.array([0.0])
        velocity = np.zeros_like(params)
        grads = np.array([1.0])
        with pytest.raises(ValueError):
            sgd_step(params, grads, velocity, lr=0.0, momentum=0.9, clip_norm=math.inf)
        with pytest.raises(ValueError):
            sgd_step(params, grads, velocity, lr=0.1, momentum=1.0, clip_norm=math.inf)
        with pytest.raises(ValueError):
            sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, clip_norm=0.0)
        with pytest.raises(ValueError, match="clip_norm"):
            sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, clip_norm=float("nan"))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_norm_leaves_state_untouched(self):
        params = np.array([1.0, 2.0])
        velocity = np.array([0.5, -0.5])
        for bad in (np.array([np.inf, 0.0]), np.array([np.nan, 1.0]), np.array([1e200, 1e200])):
            norm = sgd_step(params, bad, velocity, lr=0.1, momentum=0.9, clip_norm=0.5)
            assert not np.isfinite(norm)
            np.testing.assert_array_equal(params, [1.0, 2.0])
            np.testing.assert_array_equal(velocity, [0.5, -0.5])


class TestCheckpoint:
    """Bit-exact JSON serialization."""

    @pytest.mark.parametrize("affine", [False, True])
    def test_round_trip_exact(self, tmp_path, affine):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(73))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, meta={"epoch": 7})
        loaded, meta = load_checkpoint(path)
        assert meta == {"epoch": 7}
        assert loaded.config == model.config
        for k in MlpFilmModel.PARAM_KEYS:
            np.testing.assert_array_equal(loaded.params[k], model.params[k])

    @settings(max_examples=50, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 5)] * 5),
        affine=st.booleans(),
        zero_init=st.booleans(),
        data=st.data(),
    )
    def test_random_shapes_bit_exact(self, dims, affine, zero_init, data):
        input_dim, cond_dim, w1, w2, film_hidden = dims
        config = ModelConfig(input_dim, cond_dim, (w1, w2), film_hidden, film_affine=affine, film_zero_init=zero_init)
        model = MlpFilmModel.init(config, np.random.default_rng(0))
        size = model.flat.size
        model.flat[:] = data.draw(st.lists(st.floats(allow_nan=False), min_size=size, max_size=size))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_checkpoint(path, model)
            loaded, _ = load_checkpoint(path)
        assert loaded.config == config
        assert loaded.flat.tobytes() == model.flat.tobytes()
        for k in MlpFilmModel.PARAM_KEYS:
            assert loaded.params[k].shape == model.params[k].shape
            assert loaded.params[k].tobytes() == model.params[k].tobytes()

    def test_floats_stored_as_hex(self, tmp_path):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(74))
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        assert "0x1." in path.read_text()

    def test_truncated_checkpoint_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, MlpFilmModel.init(tiny_config(False), np.random.default_rng(76)))
        path.write_text(path.read_text()[:100])
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid checkpoint")):
            load_checkpoint(path)

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"config": {"input_dim": 3}}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)


class TestMinorityScore:
    """Softmax probability of class 1."""

    def test_matches_two_class_softmax(self):
        logits = np.array([[0.0, 0.0], [1.0, 3.0], [2.0, -1.0]])
        expected = np.exp(logits[:, 1]) / np.exp(logits).sum(axis=1)
        np.testing.assert_allclose(minority_score(logits), expected, rtol=1e-12)

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        np.testing.assert_allclose(minority_score(logits), [0.0, 1.0], atol=1e-300)

    def test_model_scores_shape(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(75))
        s = model.scores(np.zeros((4, 3)), np.zeros((4, 2)))
        assert s.shape == (4,)
        assert np.all((s >= 0.0) & (s <= 1.0))
