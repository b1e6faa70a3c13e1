"""Tests for the FiLM-conditioned MLP: shapes, gradients, optimizer, checkpoints."""

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vslct
from records import record
from vslct import network
from vslct._util import record_array, write_record
from vslct.network import (
    SCORE_BLOCK_ROWS,
    MlpFilmModel,
    ModelConfig,
    Workspace,
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


def fresh_forward(model: MlpFilmModel, x: np.ndarray, cond: np.ndarray):
    """`forward` into a workspace of x's rows made for this call, so its arrays outlive later calls."""
    return model.forward(x, cond, Workspace(model.config, len(x)))


def scores_over_blocks(model: MlpFilmModel, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """`minority_score` of `forward` on the blocks `scores` uses: all of x up to SCORE_BLOCK_ROWS rows, half that above."""
    n = len(x)
    rows = n if n <= SCORE_BLOCK_ROWS else SCORE_BLOCK_ROWS // 2
    per_row = len(cond) == n
    blocks = [fresh_forward(model, x[i : i + rows], cond[i : i + rows] if per_row else cond)[0] for i in range(0, n, rows)]
    return minority_score(np.concatenate(blocks))


def quadratic_objective(model: MlpFilmModel, x: np.ndarray, cond: np.ndarray):
    """J = 0.5 * sum(logits^2); its logit gradient is the logits themselves."""
    logits, cache = fresh_forward(model, x, cond)
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

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("input_dim", 2.5, "2.5"),
            ("input_dim", True, "True"),
            ("cond_dim", 1.0, "1.0"),
            ("film_hidden", 128.5, "128.5"),
            ("trunk_widths", (64.9, 3.5), "64.9"),
            ("trunk_widths", (64, False), "False"),
        ],
    )
    def test_non_integral_size_rejected_naming_the_field(self, field, value, shown):
        with pytest.raises(ValueError, match=re.escape(field) + ".* must be an integer >= 1, got " + re.escape(shown)):
            ModelConfig(**{"input_dim": 2, field: value})

    @pytest.mark.parametrize("field", ["film_affine", "film_zero_init"])
    @pytest.mark.parametrize("value", ["yes", None, 1, 0.0, np.array([True])], ids=["str", "None", "int", "float", "array"])
    def test_non_bool_flag_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a bool, got {value!r}")):
            ModelConfig(**{"input_dim": 2, field: value})

    def test_numpy_bool_flags_stored_as_bool(self):
        config = ModelConfig(input_dim=2, film_affine=np.bool_(True), film_zero_init=np.bool_(False))
        assert config == ModelConfig(input_dim=2, film_affine=True, film_zero_init=False)
        assert type(config.film_affine) is bool and type(config.film_zero_init) is bool

    def test_numpy_integer_sizes_stored_as_int(self, tmp_path):
        config = ModelConfig(input_dim=np.int64(2), cond_dim=np.int32(1), trunk_widths=(np.int64(8), 4), film_hidden=np.uint8(16))
        assert config == ModelConfig(input_dim=2, trunk_widths=(8, 4), film_hidden=16)
        assert all(type(v) is int for v in (config.input_dim, config.cond_dim, config.film_hidden, *config.trunk_widths))
        save_checkpoint(tmp_path / "model.json", MlpFilmModel.init(config, np.random.default_rng(0)))
        assert load_checkpoint(tmp_path / "model.json")[0].config == config


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
        logits, _ = fresh_forward(model, np.zeros((5, 3)), np.zeros((5, 2)))
        assert logits.shape == (5, 2)

    def test_zero_init_film_ignores_conditioning(self):
        for affine in (False, True):
            config = ModelConfig(input_dim=4, cond_dim=1, trunk_widths=(16, 16), film_hidden=32, film_affine=affine, film_zero_init=True)
            model = MlpFilmModel.init(config, np.random.default_rng(61))
            x = np.random.default_rng(62).normal(size=(7, 4))
            a, _ = fresh_forward(model, x, np.zeros((7, 1)))
            b, _ = fresh_forward(model, x, np.full((7, 1), 3.0))
            np.testing.assert_array_equal(a, b)

    def test_trained_film_weights_respond_to_conditioning(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(63))
        x = np.random.default_rng(64).normal(size=(6, 3))
        a, _ = fresh_forward(model, x, np.zeros((6, 2)))
        b, _ = fresh_forward(model, x, np.ones((6, 2)))
        assert np.max(np.abs(a - b)) > 1e-6

    def test_rows_independent(self):
        model = MlpFilmModel.init(tiny_config(True), np.random.default_rng(65))
        rng = np.random.default_rng(66)
        x = rng.normal(size=(9, 3))
        cond = rng.normal(size=(9, 2))
        logits, _ = fresh_forward(model, x, cond)
        perm = rng.permutation(9)
        permuted, _ = fresh_forward(model, x[perm], cond[perm])
        np.testing.assert_array_equal(permuted, logits[perm])

    def test_shape_validation(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(67))
        with pytest.raises(ValueError):
            fresh_forward(model, np.zeros((5, 4)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            fresh_forward(model, np.zeros((5, 3)), np.zeros((4, 2)))

    def test_one_row_shape_validation(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(67))
        with pytest.raises(ValueError):
            fresh_forward(model, np.zeros((5, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fresh_forward(model, np.zeros((5, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("cond_rows", [1, 9], ids=["one-row", "per-row"])
    @pytest.mark.parametrize("affine", [False, True])
    def test_in_place_trunk_matches_out_of_place_formula(self, affine, cond_rows):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(70))
        p = model.params
        rng = np.random.default_rng(71)
        x = rng.normal(size=(9, 3))
        cond = rng.normal(size=(cond_rows, 2))
        x_before = x.copy()
        logits, cache = fresh_forward(model, x, cond)
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
    """`scores` runs `forward` over blocks of rows, on one thread or on several."""

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
        assert scores.tobytes() == scores_over_blocks(model, x, cond).tobytes()
        unblocked = minority_score(fresh_forward(model, x, cond)[0])
        np.testing.assert_allclose(scores, unblocked, rtol=0.0, atol=1e-14)
        if n <= SCORE_BLOCK_ROWS:
            assert scores.tobytes() == unblocked.tobytes()

    @pytest.mark.parametrize("affine", [False, True])
    @pytest.mark.parametrize("n", [128, 1024, 672, 1000])
    def test_tiled_forward_gives_the_broadcast_logits(self, n, affine):
        # 672 rows are whole 128-row groups; 1000 rows are not, and take the broadcast row
        model = MlpFilmModel.init(width64_config(affine), np.random.default_rng(107))
        x = np.random.default_rng(108).normal(size=(n, 2))
        cond = np.full((1, 2), 2.5)
        expected = fresh_forward(model, x, cond)[0]
        workspace = Workspace(model.config, SCORE_BLOCK_ROWS // 2)
        workspace._constants = model._tiled_constants(cond)
        logits, cache = model.forward(x, cond, workspace)
        assert logits.tobytes() == expected.tobytes() and cache is None

    def test_shapes_checked_before_slicing(self):
        model = MlpFilmModel.init(width64_config(False), np.random.default_rng(92))
        n = 2 * SCORE_BLOCK_ROWS + 1
        with pytest.raises(ValueError, match=re.escape(f"x must have shape (n, 2), got ({n}, 3)")):
            model.scores(np.zeros((n, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match=re.escape(f"cond must have shape ({n}, 2) or (1, 2), got ({n - 1}, 2)")):
            model.scores(np.zeros((n, 2)), np.zeros((n - 1, 2)))
        with pytest.raises(ValueError, match=re.escape(f"cond must have shape ({n}, 2) or (1, 2), got ({n}, 1)")):
            model.scores(np.zeros((n, 2)), np.zeros((n, 1)))

    def test_peak_memory_bounded_by_blocks(self, monkeypatch):
        # unblocked, forward's three (n, 64) float64 arrays alone take 154 MB here
        model = MlpFilmModel.init(width64_config(True), np.random.default_rng(93))
        x = np.random.default_rng(94).normal(size=(100_000, 2))
        cond = np.ones((1, 2))
        for workers in (1, 2):
            monkeypatch.setattr(network, "_score_workers", lambda: workers)
            tracemalloc.start()
            try:
                model.scores(x, cond)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, workers

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

    @pytest.mark.parametrize("cond_rows", [1, 0])
    def test_no_rows_give_an_empty_array(self, cond_rows):
        model = MlpFilmModel.init(width64_config(False), np.random.default_rng(95))
        scores = model.scores(np.zeros((0, 2)), np.ones((cond_rows, 2)))
        assert (scores.shape, scores.dtype) == ((0,), np.float64)

    @pytest.mark.parametrize(
        "workers, n, rows",
        [(w, n, SCORE_BLOCK_ROWS // 2) for w in (1, 2, 3) for n in (2049, 3073, 4097, 100_000)]
        + [(4, 2049, SCORE_BLOCK_ROWS // 2), (4, 4097, SCORE_BLOCK_ROWS // 2)]
        + [(w, n, n) for w in (1, 2, 3) for n in (0, 1000, SCORE_BLOCK_ROWS)],
    )
    def test_one_workspace_per_worker(self, monkeypatch, workers, n, rows):
        # a larger set runs in fixed blocks on min(W, blocks) threads, each with
        # one workspace of a block; a smaller one in one workspace on the caller
        made = []

        class CountedWorkspace(Workspace):
            def __init__(self, config, rows):
                made.append(rows)
                super().__init__(config, rows)

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(network, "_score_workers", lambda: workers)
        model = MlpFilmModel.init(width64_config(True), np.random.default_rng(96))
        x = np.random.default_rng(97).normal(size=(n, 2))
        expected = model.scores(x, np.ones((1, 2)))
        started = []
        monkeypatch.setattr(network, "Workspace", CountedWorkspace)
        monkeypatch.setattr(threading, "Thread", CountedThread)
        assert model.scores(x, np.ones((1, 2))).tobytes() == expected.tobytes()
        threads = min(workers, math.ceil(n / rows)) if n > SCORE_BLOCK_ROWS else 1
        assert made == [rows] * threads
        assert len(started) == threads - 1

    @pytest.mark.parametrize("cond_rows", ["shared", "per-row"])
    @pytest.mark.parametrize("affine", [False, True])
    @pytest.mark.parametrize("n", [2048, 2049, 3073, 4097, 100_000])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_never_changes_a_bit(self, monkeypatch, workers, n, affine, cond_rows):
        model = MlpFilmModel.init(width64_config(affine), np.random.default_rng(98))
        rng = np.random.default_rng(99)
        x = rng.normal(size=(n, 2))
        cond = rng.uniform(0.0, 3.0, size=(1 if cond_rows == "shared" else n, 2))
        expected = scores_over_blocks(model, x, cond)
        monkeypatch.setattr(network, "_score_workers", lambda: workers)
        assert model.scores(x, cond).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_block_error_raised_after_every_thread_joined(self, monkeypatch, failing):
        worker_started = threading.Event()
        original = MlpFilmModel.forward

        def forward(self, x, cond, workspace):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker:
                worker_started.set()
            else:
                # a worker takes its first block before the caller takes one
                assert worker_started.wait(10)
            if on_worker == (failing == "worker"):
                raise KeyError(f"block of {len(x)} rows failed on the {failing}")
            return original(self, x, cond, workspace)

        model = MlpFilmModel.init(width64_config(False), np.random.default_rng(100))
        x = np.random.default_rng(101).normal(size=(4 * SCORE_BLOCK_ROWS, 2))
        monkeypatch.setattr(network, "_score_workers", lambda: 2)
        monkeypatch.setattr(MlpFilmModel, "forward", forward)
        before = threading.active_count()
        with pytest.raises(KeyError, match=f"block of 1024 rows failed on the {failing}"):
            model.scores(x, np.ones((1, 2)))
        assert threading.active_count() == before

    def test_callers_scoring_at_once_get_the_serial_bytes(self, monkeypatch):
        # each call tiles its own row constants and runs its own threads; a
        # mixed-up tile or block would change some caller's bytes
        monkeypatch.setattr(network, "_score_workers", lambda: 3)
        rng = np.random.default_rng(104)
        models = [MlpFilmModel.init(width64_config(affine), rng) for affine in (False, True)]
        sets = [(model, rng.normal(size=(5 * SCORE_BLOCK_ROWS + 7, 2)), np.full((1, 2), lam)) for model in models for lam in (0.5, 2.5)]
        sets.append((models[1], rng.normal(size=(3 * SCORE_BLOCK_ROWS, 2)), rng.uniform(0.0, 3.0, size=(3 * SCORE_BLOCK_ROWS, 2))))
        expected = [scores_over_blocks(model, x, cond).tobytes() for model, x, cond in sets]
        results = {i: [] for i in range(len(sets))}
        start = threading.Barrier(len(sets))

        def caller(i):
            model, x, cond = sets[i]
            start.wait(10)
            for _ in range(4):
                results[i].append(model.scores(x, cond).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(sets))]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert [set(r) for r in results.values()] == [{e} for e in expected]
        assert all(len(r) == 4 for r in results.values())

    @pytest.mark.parametrize(
        "blas_threads, workers",
        [(None, 1), ("1", 8), ("2", 4), ("3", 2), ("8", 1), ("16", 1), ("0", 1), ("-1", 1), ("x", 1), ("", 1)],
    )
    def test_worker_count_rule(self, monkeypatch, blas_threads, workers):
        # usable cores // OPENBLAS_NUM_THREADS when that is a positive integer, else 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        assert network._score_workers() == workers

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="counts usable cores with os.sched_getaffinity")
    def test_one_blas_thread_process_scores_like_the_serial_path(self, monkeypatch):
        # a fresh process at one BLAS thread scores on every usable core
        script = textwrap.dedent(
            """
            import hashlib, os
            import numpy as np
            from vslct import network
            from vslct.network import MlpFilmModel, ModelConfig
            model = MlpFilmModel.init(ModelConfig(input_dim=2, cond_dim=2, film_affine=True, film_zero_init=False), np.random.default_rng(102))
            x = np.random.default_rng(103).normal(size=(100_000, 2))
            scores = model.scores(x, np.full((1, 2), 1.5))
            print(network._score_workers(), len(os.sched_getaffinity(0)), hashlib.sha256(scores.tobytes()).hexdigest())
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vslct.__file__)), OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        workers, cores, digest = run.stdout.split()
        assert workers == cores
        monkeypatch.setattr(network, "_score_workers", lambda: 1)
        model = MlpFilmModel.init(ModelConfig(input_dim=2, cond_dim=2, film_affine=True, film_zero_init=False), np.random.default_rng(102))
        x = np.random.default_rng(103).normal(size=(100_000, 2))
        assert digest == hashlib.sha256(model.scores(x, np.full((1, 2), 1.5)).tobytes()).hexdigest()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts pages under glibc's malloc")
    def test_later_calls_fault_no_new_pages_in_a_fresh_process(self):
        # Every block of every call runs in one workspace of one allocation,
        # so once the process holds its pages, a call faults almost none in.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from vslct.network import MlpFilmModel, ModelConfig
            model = MlpFilmModel.init(ModelConfig(input_dim=2, film_zero_init=False), np.random.default_rng(0))
            x = np.random.default_rng(1).normal(size=(100_000, 2))
            for _ in range(5):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                model.scores(x, np.ones((1, 1)))
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vslct.__file__)), OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        faults = [int(line) for line in run.stdout.split()]
        assert len(faults) == 5
        assert all(count < 50 for count in faults[2:]), faults


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
        _, cache = fresh_forward(model, x, cond)
        d = rng.normal(size=(5, 2))
        # the gradients are views of the workspace, valid until its next use
        g1 = {k: g.copy() for k, g in model.backward(cache, d).items()}
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
        shared, _ = fresh_forward(model, x, row)
        tiled, _ = fresh_forward(model, x, np.tile(row, (11, 1)))
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

    def test_model_keeps_the_buffer_it_is_built_from(self):
        config = tiny_config(False)
        flat = np.random.default_rng(82).normal(size=MlpFilmModel.init(config, np.random.default_rng(0)).flat.size)
        model = MlpFilmModel(config, flat)
        assert model.flat is flat
        assert all(np.shares_memory(view, flat) for view in model.params.values())

    def test_wrong_shape_rejected(self):
        config = tiny_config(False)
        p = MlpFilmModel.init(config, np.random.default_rng(82)).flat.size
        wrong = {
            "one-too-many": np.zeros(p + 1),
            "float32": np.zeros(p, dtype=np.float32),
            "int64": np.zeros(p, dtype=np.int64),
            "2-D": np.zeros((p, 1)),
            "non-contiguous": np.zeros(2 * p)[::2],
            "read-only": np.frombuffer(np.zeros(p).tobytes()),
            "params-dict": {"head_b": np.zeros(2)},
        }
        for name, flat in wrong.items():
            with pytest.raises(ValueError, match=re.escape(f"flat must be a C-contiguous, writeable float64 array of shape ({p},)")):
                MlpFilmModel(config, flat)
                pytest.fail(name)


class TestWorkspace:
    """forward/backward into a reused workspace equal calls into a fresh one; nothing leaks outside training."""

    @pytest.mark.parametrize("n", [9, 4], ids=["full", "leading-rows"])
    @pytest.mark.parametrize("cond_rows", ["one-row", "per-row"])
    @pytest.mark.parametrize("affine", [False, True])
    def test_bit_identical_to_allocating_path(self, affine, cond_rows, n):
        model = MlpFilmModel.init(tiny_config(affine), np.random.default_rng(90))
        rng = np.random.default_rng(91)
        x = rng.normal(size=(n, 3))
        cond = rng.normal(size=(1 if cond_rows == "one-row" else n, 2))
        dlogits = rng.normal(size=(n, 2))
        workspace = Workspace(model.config, 9)
        # a short batch follows full ones, so fill every buffer first
        _, full = model.forward(rng.normal(size=(9, 3)), rng.normal(size=(9, 2)), workspace)
        model.backward(full, rng.normal(size=(9, 2)))
        logits, cache = fresh_forward(model, x, cond)
        grads = model.backward(cache, dlogits)
        ws_logits, ws_cache = model.forward(x, cond, workspace)
        ws_grads = model.backward(ws_cache, dlogits)
        assert ws_logits.tobytes() == logits.tobytes()
        assert np.shares_memory(ws_logits, workspace.take(n)["logits"])
        flat = np.concatenate([grads[k] for k in MlpFilmModel.PARAM_KEYS], axis=None)
        assert workspace.flat_grads.tobytes() == flat.tobytes()
        assert ws_grads is workspace.grads
        for key in MlpFilmModel.PARAM_KEYS:
            assert np.shares_memory(ws_grads[key], workspace.flat_grads)

    def test_allocating_calls_return_independent_arrays(self):
        model = MlpFilmModel.init(tiny_config(True), np.random.default_rng(92))
        rng = np.random.default_rng(93)
        x = rng.normal(size=(6, 3))
        cond = rng.normal(size=(1, 2))
        dlogits = rng.normal(size=(6, 2))
        computed = ("h0", "h1", "g", "sigma", "hmod")
        calls = []
        for _ in range(2):
            logits, cache = fresh_forward(model, x, cond)
            grads = model.backward(cache, dlogits)
            calls.append([logits, *(cache[k] for k in computed), *grads.values()])
        first, second = calls
        assert len(second) == 1 + len(computed) + len(MlpFilmModel.PARAM_KEYS)
        for a in second:
            assert not any(np.shares_memory(a, b) for b in first)
            assert not np.shares_memory(a, model.flat)

    def test_copy_and_checkpoint_never_see_the_workspace(self, tmp_path):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(94))
        rng = np.random.default_rng(95)
        save_checkpoint(tmp_path / "before.json", model)
        workspace = Workspace(model.config, 5)
        _, cache = model.forward(rng.normal(size=(5, 3)), rng.normal(size=(1, 2)), workspace)
        model.backward(cache, rng.normal(size=(5, 2)))
        save_checkpoint(tmp_path / "after.json", model)
        assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
        copy = model.copy()
        assert set(vars(copy)) == set(vars(model)) == {"config", "flat", "params"}
        buffers = [workspace.flat_grads, *workspace.take(5).values()]
        for a in [copy.flat, model.flat]:
            assert not any(np.shares_memory(a, b) for b in buffers)

    def test_batch_larger_than_workspace_names_both_row_counts(self):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(96))
        workspace = Workspace(model.config, 8)
        with pytest.raises(ValueError, match="batch of 9 rows does not fit a workspace of 8 rows"):
            model.forward(np.zeros((9, 3)), np.zeros((1, 2)), workspace)


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

    def test_nan_lr_rejected_before_any_update(self):
        params = np.array([0.5])
        velocity = np.array([0.25])
        for lr in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"lr must be a finite number > 0, got {lr}"):
                sgd_step(params, np.array([1.0]), velocity, lr=lr, momentum=0.9, clip_norm=math.inf)
            assert (params.tolist(), velocity.tolist()) == ([0.5], [0.25])

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
    """Bit-exact records of config, meta and the flat parameter buffer."""

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

    def test_load_builds_the_model_on_the_decoded_array(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(path, MlpFilmModel.init(tiny_config(True), np.random.default_rng(73)))
        decoded = []
        monkeypatch.setattr(network, "record_array", lambda meta, raw: decoded.append(record_array(meta, raw)) or decoded[-1])
        loaded, _ = load_checkpoint(path)
        assert len(decoded) == 1 and loaded.flat is decoded[0]

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

    def test_stored_as_a_record(self, tmp_path):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(74))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, meta={"epoch": 7})
        header = {"format": 4, "config": asdict(model.config), "meta": {"epoch": 7}, "flat": {"dtype": "<f8", "shape": [model.flat.size]}}
        assert path.read_bytes() == json.dumps(header, separators=(",", ":")).encode() + b"\n" + model.flat.astype("<f8").tobytes()

    def test_non_finite_meta_fails_at_write_time(self, tmp_path):
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            save_checkpoint(path, MlpFilmModel.init(tiny_config(False), np.random.default_rng(74)), meta={"final_loss": float("nan")})
        assert not path.exists()

    @pytest.mark.parametrize("meta", [[1], [], "x", 0], ids=["list", "empty-list", "str", "zero"])
    def test_meta_that_is_not_a_dict_fails_at_write_time(self, tmp_path, meta):
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=f"meta must be a dict or None, got {type(meta).__name__}"):
            save_checkpoint(path, MlpFilmModel.init(tiny_config(False), np.random.default_rng(74)), meta=meta)
        assert list(tmp_path.iterdir()) == []

    def test_format_2_checkpoint_fails_saying_recompute(self, tmp_path):
        model = MlpFilmModel.init(tiny_config(True), np.random.default_rng(76))
        path = tmp_path / "model.json"
        params = {k: {"dtype": "<f8", "shape": list(v.shape), "hex": v.astype("<f8").tobytes().hex()} for k, v in model.params.items()}
        path.write_text(json.dumps({"format": 2, "config": asdict(model.config), "params": params, "meta": {"epoch": 3}}))
        stored = path.read_bytes()
        message = "stored in format 2, this version reads format 4 only; recompute it"
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid checkpoint: {message}")):
            load_checkpoint(path)
        assert path.read_bytes() == stored

    def test_format_1_checkpoint_fails_saying_recompute(self, tmp_path):
        model = MlpFilmModel.init(tiny_config(False), np.random.default_rng(75))
        path = tmp_path / "model.json"
        params = {k: {"shape": list(v.shape), "data": [float(x).hex() for x in v.ravel()]} for k, v in model.params.items()}
        path.write_text(json.dumps({"config": asdict(model.config), "params": params, "meta": {}}))
        message = "stored in format 1, this version reads format 4 only; recompute it"
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid checkpoint: {message}")):
            load_checkpoint(path)

    def test_truncated_checkpoint_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, MlpFilmModel.init(tiny_config(False), np.random.default_rng(76)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid checkpoint")):
            load_checkpoint(path)

    def test_non_integral_config_size_is_not_a_valid_checkpoint(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, MlpFilmModel.init(REFERENCE_CONFIG, np.random.default_rng(77)))
        record(path, lambda header: {**header, "config": {**header["config"], "trunk_widths": [64.5, 64]}})
        message = "trunk_widths entry must be an integer >= 1, got 64.5"
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid checkpoint: {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "fields, meta, flat, message",
        [
            pytest.param({}, [1, 2], np.zeros(218), "meta must be a JSON object, got list", id="meta-not-an-object"),
            pytest.param({}, {}, np.zeros(219), "flat must be a C-contiguous, writeable float64 array of shape (218,), got float64 of shape (219,)", id="one-parameter-too-many"),
            pytest.param({}, {}, np.zeros(218, dtype=np.int64), "flat must be a C-contiguous, writeable float64 array of shape (218,), got int64 of shape (218,)", id="integer-parameters"),
            pytest.param({"film_affine": "yes"}, {}, np.zeros(218), "film_affine must be a bool, got 'yes'", id="flag-not-a-bool"),
        ],
    )
    def test_record_that_does_not_fit_a_checkpoint_names_the_file(self, tmp_path, fields, meta, flat, message):
        path = tmp_path / "model.json"
        write_record(path, {"config": {**asdict(tiny_config(False)), **fields}, "meta": meta}, "flat", flat)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid checkpoint: {message}")):
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
