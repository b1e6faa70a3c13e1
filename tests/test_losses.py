"""Tests for the VS loss family: closed forms, gradients, break-even geometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vslct.losses import (
    BreakEvenLine,
    ClassCounts,
    LogitPair,
    VsHyperParams,
    break_even_alpha,
    break_even_line,
    break_even_softmax_score,
    loss_difference_grid,
    sigmoid,
    softplus,
    vs_loss_binary,
    vs_loss_and_grad_batch,
    vs_loss_binary_batch,
    vs_loss_general,
    vs_loss_grad_batch,
    vs_loss_grad_logits,
    vs_loss_partials_hyper,
)

# Values below were computed independently with high-precision arithmetic
# and frozen; tests compare implementation output against them.
HALF_LN_2 = 0.34657359027997264
HALF_LN_11 = 1.1989476363991853
HALF_SOFTPLUS_NEG_10 = 2.2699449608432323e-05
ALPHA_075 = 0.7644901716800709
ALPHA_09 = 1.5457604350462635
P1_CROSS_08 = 0.7244919590005157
SCORE_BETA10_TAU2 = 0.9900990099009901  # 100/101


def random_counts(rng) -> ClassCounts:
    n1 = int(rng.integers(10, 500))
    n0 = int(n1 * rng.uniform(1.0, 50.0))
    return ClassCounts(n0=max(n0, n1), n1=n1)


def random_params(rng) -> VsHyperParams:
    return VsHyperParams(
        omega=float(rng.uniform(0.05, 0.95)),
        gamma=float(rng.uniform(0.0, 1.0)),
        tau=float(rng.uniform(0.0, 3.0)),
    )


class TestElementary:
    """Stable softplus/sigmoid helpers."""

    def test_softplus_known_values(self):
        np.testing.assert_allclose(softplus(0.0), math.log(2.0), rtol=1e-15)
        np.testing.assert_allclose(softplus(-10.0), math.log1p(math.exp(-10.0)), rtol=1e-15)

    def test_softplus_extreme_arguments(self):
        assert softplus(1000.0) == 1000.0
        assert softplus(-1000.0) == 0.0
        assert math.isfinite(softplus(750.0))

    def test_sigmoid_extreme_arguments(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        np.testing.assert_allclose(sigmoid(0.0), 0.5, rtol=1e-15)

    def test_sigmoid_is_softplus_derivative(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-20.0, 20.0, size=100)
        h = 1e-6
        fd = (softplus(x + h) - softplus(x - h)) / (2.0 * h)
        np.testing.assert_allclose(sigmoid(x), fd, atol=1e-8)


class TestLossForms:
    """General two-class form, simplified binary form, and their agreement."""

    def test_cross_entropy_point(self):
        p = VsHyperParams(omega=0.5, gamma=0.0, tau=0.0)
        z = LogitPair(0.0, 0.0)
        np.testing.assert_allclose(vs_loss_binary(1, z, p, beta=4.0), HALF_LN_2, rtol=1e-14)
        np.testing.assert_allclose(vs_loss_binary(0, z, p, beta=4.0), HALF_LN_2, rtol=1e-14)

    def test_additive_shift_point(self):
        p = VsHyperParams(omega=0.5, gamma=0.0, tau=1.0)
        z = LogitPair(0.0, 0.0)
        np.testing.assert_allclose(vs_loss_binary(1, z, p, beta=10.0), HALF_LN_11, rtol=1e-14)

    def test_confident_majority_point(self):
        p = VsHyperParams(omega=0.5, gamma=0.0, tau=0.0)
        z = LogitPair(10.0, 0.0)
        np.testing.assert_allclose(vs_loss_binary(0, z, p, beta=4.0), HALF_SOFTPLUS_NEG_10, rtol=1e-12)

    def test_general_matches_binary(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            counts = random_counts(rng)
            p = random_params(rng)
            z = LogitPair(float(rng.uniform(-30.0, 30.0)), float(rng.uniform(-30.0, 30.0)))
            y = int(rng.integers(0, 2))
            general = vs_loss_general(y, z, p, counts)
            binary = vs_loss_binary(y, z, p, counts.beta)
            np.testing.assert_allclose(binary, general, rtol=1e-10, atol=1e-10)

    def test_class_weights_scale_linearly(self):
        z = LogitPair(1.3, -0.4)
        base1 = vs_loss_binary(1, z, VsHyperParams(omega=1.0, gamma=0.1, tau=2.0), beta=7.0)
        base0 = vs_loss_binary(0, z, VsHyperParams(omega=0.0, gamma=0.1, tau=2.0), beta=7.0)
        for omega in (0.1, 0.5, 0.9):
            p = VsHyperParams(omega=omega, gamma=0.1, tau=2.0)
            np.testing.assert_allclose(vs_loss_binary(1, z, p, beta=7.0), omega * base1, rtol=1e-14)
            np.testing.assert_allclose(vs_loss_binary(0, z, p, beta=7.0), (1.0 - omega) * base0, rtol=1e-14)

    def test_extreme_logits_stay_finite(self):
        p = VsHyperParams(omega=0.9, gamma=0.3, tau=3.0)
        for z in (LogitPair(1000.0, -1000.0), LogitPair(-1000.0, 1000.0)):
            for y in (0, 1):
                assert math.isfinite(vs_loss_binary(y, z, p, beta=100.0))
                assert vs_loss_binary(y, z, p, beta=100.0) >= 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        p = VsHyperParams(omega=0.7, gamma=0.25, tau=1.5)
        y = rng.integers(0, 2, size=64)
        z0 = rng.uniform(-5.0, 5.0, size=64)
        z1 = rng.uniform(-5.0, 5.0, size=64)
        batch = vs_loss_binary_batch(y, z0, z1, p, beta=12.0)
        scalar = [vs_loss_binary(int(yi), LogitPair(a, b), p, beta=12.0) for yi, a, b in zip(y, z0, z1)]
        np.testing.assert_allclose(batch, scalar, rtol=1e-14)

    def test_invalid_label_rejected(self):
        p = VsHyperParams()
        with pytest.raises(ValueError):
            vs_loss_binary(2, LogitPair(0.0, 0.0), p, beta=2.0)
        with pytest.raises(ValueError):
            vs_loss_general(-1, LogitPair(0.0, 0.0), p, ClassCounts(10, 5))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            VsHyperParams(omega=1.5)
        with pytest.raises(ValueError):
            VsHyperParams(gamma=-0.1)
        with pytest.raises(ValueError):
            VsHyperParams(tau=-1.0)
        for name in ("omega", "gamma", "tau"):
            with pytest.raises(ValueError, match=name):
                VsHyperParams(**{name: float("nan")})
        with pytest.raises(ValueError):
            ClassCounts(n0=5, n1=10)

    @pytest.mark.parametrize("name", ["omega", "gamma", "tau"])
    @pytest.mark.parametrize("value, shown", [(True, "True"), ("1", "'1'"), (None, "None"), (1j, "1j")])
    def test_non_real_params_rejected_naming_the_field(self, name, value, shown):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {shown}")):
            VsHyperParams(**{name: value})

    @pytest.mark.parametrize("name", ["gamma", "tau"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_params_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite, got {value}"):
            VsHyperParams(**{name: value})

    def test_params_stored_as_plain_floats(self):
        p = VsHyperParams(omega=np.float32(0.5), gamma=np.int64(1), tau=1)
        assert (p.omega, p.gamma, p.tau) == (0.5, 1.0, 1.0)
        assert all(type(v) is float for v in (p.omega, p.gamma, p.tau))
        with pytest.raises(ValueError):
            LogitPair(float("nan"), 0.0)


class TestGradients:
    """Analytic derivatives against central finite differences."""

    def test_logit_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(300):
            p = random_params(rng)
            beta = float(rng.uniform(1.5, 200.0))
            y = int(rng.integers(0, 2))
            z0 = float(rng.uniform(-10.0, 10.0))
            z1 = float(rng.uniform(-10.0, 10.0))
            g0, g1 = vs_loss_grad_logits(y, LogitPair(z0, z1), p, beta)
            fd0 = (vs_loss_binary(y, LogitPair(z0 + h, z1), p, beta) - vs_loss_binary(y, LogitPair(z0 - h, z1), p, beta)) / (2.0 * h)
            fd1 = (vs_loss_binary(y, LogitPair(z0, z1 + h), p, beta) - vs_loss_binary(y, LogitPair(z0, z1 - h), p, beta)) / (2.0 * h)
            np.testing.assert_allclose(g0, fd0, rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(g1, fd1, rtol=1e-5, atol=1e-7)

    def test_hyper_partials_match_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(300):
            omega = float(rng.uniform(0.1, 0.9))
            gamma = float(rng.uniform(0.1, 1.0))
            tau = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(1.5, 200.0))
            z = LogitPair(float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-10.0, 10.0)))
            p = VsHyperParams(omega=omega, gamma=gamma, tau=tau)
            d_omega, d_gamma, d_tau = vs_loss_partials_hyper(z, p, beta)

            def loss_at(om=omega, ga=gamma, ta=tau):
                return vs_loss_binary(1, z, VsHyperParams(omega=om, gamma=ga, tau=ta), beta)

            np.testing.assert_allclose(d_omega, (loss_at(om=omega + h) - loss_at(om=omega - h)) / (2.0 * h), rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(d_gamma, (loss_at(ga=gamma + h) - loss_at(ga=gamma - h)) / (2.0 * h), rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(d_tau, (loss_at(ta=tau + h) - loss_at(ta=tau - h)) / (2.0 * h), rtol=1e-5, atol=1e-7)

    def test_gamma_partial_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = VsHyperParams(
                omega=float(rng.uniform(0.05, 0.95)),
                gamma=float(rng.uniform(0.0, 1.0)),
                tau=float(rng.uniform(0.0, 3.0)),
            )
            beta = float(rng.uniform(1.5, 200.0))
            z = LogitPair(float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-10.0, 10.0)))
            _, d_gamma, d_tau = vs_loss_partials_hyper(z, p, beta)
            assert abs(d_gamma - (z.z1 / beta**p.gamma) * d_tau) < 1e-12

    def test_gradient_signs(self):
        p = VsHyperParams(omega=0.6, gamma=0.2, tau=1.0)
        g0, g1 = vs_loss_grad_logits(1, LogitPair(0.0, 0.0), p, beta=10.0)
        assert g0 > 0.0 and g1 < 0.0
        g0, g1 = vs_loss_grad_logits(0, LogitPair(0.0, 0.0), p, beta=10.0)
        assert g0 < 0.0 and g1 > 0.0

    def test_batch_gradients_match_scalar(self):
        rng = np.random.default_rng(6)
        p = VsHyperParams(omega=0.8, gamma=0.4, tau=0.7)
        y = rng.integers(0, 2, size=50)
        z0 = rng.uniform(-5.0, 5.0, size=50)
        z1 = rng.uniform(-5.0, 5.0, size=50)
        b0, b1 = vs_loss_grad_batch(y, z0, z1, p, beta=30.0)
        for i in range(50):
            s0, s1 = vs_loss_grad_logits(int(y[i]), LogitPair(float(z0[i]), float(z1[i])), p, beta=30.0)
            np.testing.assert_allclose([b0[i], b1[i]], [s0, s1], rtol=1e-14)


def three_exp_sigmoid(x: np.ndarray) -> np.ndarray:
    """The former sigmoid, kept as the bit-level reference."""
    neg = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), neg / (1.0 + neg))


class TestElementaryProperties:
    """softplus and sigmoid over |z| <= 800, the tails |z| >= 700 drawn on purpose."""

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.lists(
            st.one_of(st.floats(-800.0, 800.0), st.floats(700.0, 800.0), st.floats(-800.0, -700.0)),
            min_size=1,
            max_size=20,
        )
    )
    def test_finite_bounded_and_equal_to_three_exp_form(self, z):
        z = np.array(z)
        s = sigmoid(z)
        assert np.all(np.isfinite(softplus(z)))
        assert np.all(np.isfinite(s)) and np.all((s >= 0.0) & (s <= 1.0))
        assert s.tobytes() == three_exp_sigmoid(z).tobytes()


class TestFusedKernelProperties:
    """vs_loss_and_grad_batch over the whole hyperparameter box, |z| <= 800."""

    @settings(max_examples=300, deadline=None)
    @given(
        y=st.sampled_from([0, 1]),
        z0=st.floats(-800.0, 800.0),
        z1=st.floats(-800.0, 800.0),
        omega=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 2.0),
        tau=st.floats(0.0, 3.0),
        n1=st.integers(1, 10_000),
        extra=st.integers(0, 1_000_000),
    )
    def test_loss_and_gradients(self, y, z0, z1, omega, gamma, tau, n1, extra):
        p = VsHyperParams(omega=omega, gamma=gamma, tau=tau)
        counts = ClassCounts(n0=n1 + extra, n1=n1)
        beta = counts.beta
        loss, g0, g1 = vs_loss_and_grad_batch(np.array([y]), np.array([z0]), np.array([z1]), p, beta)
        assert np.isfinite(loss[0]) and loss[0] >= 0.0
        general = vs_loss_general(y, LogitPair(z0, z1), p, counts)
        # acceptance 01's tolerance: relative error below 1e-10 over a 1e-300 floor
        assert abs(loss[0] - general) / max(abs(loss[0]), abs(general), 1e-300) < 1e-10
        assert g1.tobytes() == (-g0 / beta**gamma).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.lists(st.tuples(st.floats(-800.0, 800.0), st.floats(-800.0, 800.0)), min_size=1, max_size=20),
        gamma=st.floats(0.0, 2.0),
        tau=st.floats(0.0, 3.0),
        beta=st.floats(1.0, 1e4),
    )
    def test_omega_one_positive_loss_is_softplus_of_the_margin(self, z, gamma, tau, beta):
        # the docstring's claim, bit for bit: at y = 1 the weight is omega = 1
        z0, z1 = np.array(z).T
        loss = vs_loss_and_grad_batch(np.ones(z0.size, dtype=np.int64), z0, z1, VsHyperParams(omega=1.0, gamma=gamma, tau=tau), beta)[0]
        margin = z0 + tau * math.log(beta) - z1 / beta**gamma
        assert loss.tobytes() == softplus(margin).tobytes()


class TestBreakEven:
    """Break-even offset, line, and softmax score."""

    def test_alpha_symmetric_point(self):
        assert abs(break_even_alpha(0.5)) < 1e-12

    def test_alpha_frozen_values(self):
        np.testing.assert_allclose(break_even_alpha(0.75), ALPHA_075, rtol=1e-12)
        np.testing.assert_allclose(break_even_alpha(0.9), ALPHA_09, rtol=1e-12)

    def test_alpha_residual_small(self):
        rng = np.random.default_rng(7)
        for omega in rng.uniform(0.02, 0.98, size=50):
            a = break_even_alpha(float(omega))
            residual = (1.0 + math.exp(-a)) ** omega - (1.0 + math.exp(a)) ** (1.0 - omega)
            assert abs(residual) < 1e-12

    def test_alpha_root_outside_the_starting_bracket(self):
        # the root lies near -64.9, beyond the initial bracket of +-50, so the bracket must expand
        omega = 1e-30
        a = break_even_alpha(omega)
        assert a < -50.0
        residual = omega * softplus(-a) - (1.0 - omega) * softplus(a)
        assert abs(residual) <= 1e-12 * omega * softplus(-a)

    def test_alpha_antisymmetry_and_monotonicity(self):
        rng = np.random.default_rng(8)
        omegas = np.sort(rng.uniform(0.05, 0.95, size=20))
        alphas = [break_even_alpha(float(w)) for w in omegas]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        for w in omegas:
            assert abs(break_even_alpha(float(w)) + break_even_alpha(float(1.0 - w))) < 1e-10

    def test_alpha_domain_validation(self):
        with pytest.raises(ValueError):
            break_even_alpha(0.0)
        with pytest.raises(ValueError):
            break_even_alpha(1.0)

    def test_line_formula(self):
        p = VsHyperParams(omega=0.75, gamma=0.5, tau=2.0)
        beta = 9.0
        line = break_even_line(p, beta)
        assert isinstance(line, BreakEvenLine)
        np.testing.assert_allclose(line.slope, 3.0, rtol=1e-14)
        np.testing.assert_allclose(line.intercept, 3.0 * (2.0 * math.log(9.0) + ALPHA_075), rtol=1e-12)
        np.testing.assert_allclose(line.alpha_omega, ALPHA_075, rtol=1e-12)

    def test_losses_equal_on_line(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_params(rng)
            beta = float(rng.uniform(1.5, 100.0))
            line = break_even_line(p, beta)
            z0 = float(rng.uniform(-5.0, 5.0))
            z = LogitPair(z0, line.slope * z0 + line.intercept)
            l1 = vs_loss_binary(1, z, p, beta)
            l0 = vs_loss_binary(0, z, p, beta)
            np.testing.assert_allclose(l1, l0, rtol=1e-10, atol=1e-12)

    def test_softmax_score_frozen_value(self):
        np.testing.assert_allclose(break_even_softmax_score(10.0, 2.0), SCORE_BETA10_TAU2, rtol=1e-14)

    def test_softmax_score_properties(self):
        assert break_even_softmax_score(50.0, 0.0) == 0.5
        scores = [break_even_softmax_score(100.0, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(scores, scores[1:]))
        assert break_even_softmax_score(100.0, 3.0) < 1.0

    def test_break_even_alpha_gives_softmax_crossing(self):
        # sigmoid(alpha_omega) is the softmax score where p1^omega = (1-p1)^(1-omega)
        def crossing(omega):
            return sigmoid(break_even_alpha(omega))

        np.testing.assert_allclose(crossing(0.5), 0.5, atol=1e-12)
        np.testing.assert_allclose(crossing(0.8), P1_CROSS_08, rtol=1e-12)
        rng = np.random.default_rng(10)
        for omega in rng.uniform(0.05, 0.95, size=30):
            q = crossing(float(omega))
            assert abs(omega * math.log(q) - (1.0 - omega) * math.log1p(-q)) < 1e-12
        values = [crossing(w) for w in (0.2, 0.4, 0.6, 0.8)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLossDifferenceGrid:
    """Tabulated loss(1) - loss(0) over a logit grid."""

    def test_antisymmetric_at_cross_entropy(self):
        grid = loss_difference_grid(VsHyperParams(0.5, 0.0, 0.0), beta=10.0, lo=-3.0, hi=3.0, steps=21)
        np.testing.assert_allclose(grid.diff, -grid.diff.T, atol=1e-14)

    def test_sign_matches_line_side(self):
        p = VsHyperParams(omega=0.7, gamma=0.3, tau=1.2)
        beta = 20.0
        line = break_even_line(p, beta)
        grid = loss_difference_grid(p, beta, lo=-8.0, hi=8.0, steps=33)
        for i, z0 in enumerate(grid.z0_values):
            boundary = line.slope * z0 + line.intercept
            for j, z1 in enumerate(grid.z1_values):
                if z1 > boundary + 1e-9:
                    assert grid.diff[i, j] < 0.0
                elif z1 < boundary - 1e-9:
                    assert grid.diff[i, j] > 0.0

    def test_rows_index_first_logit(self):
        p = VsHyperParams(omega=0.6, gamma=0.0, tau=0.5)
        grid = loss_difference_grid(p, beta=5.0, lo=-2.0, hi=2.0, steps=5)
        z = LogitPair(float(grid.z0_values[1]), float(grid.z1_values[3]))
        expected = vs_loss_binary(1, z, p, 5.0) - vs_loss_binary(0, z, p, 5.0)
        np.testing.assert_allclose(grid.diff[1, 3], expected, rtol=1e-14)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            loss_difference_grid(VsHyperParams(), beta=5.0, lo=1.0, hi=-1.0, steps=10)
        with pytest.raises(ValueError):
            loss_difference_grid(VsHyperParams(), beta=5.0, lo=-1.0, hi=1.0, steps=1)


class TestNonFiniteBeta:
    """Every public function that takes an imbalance ratio rejects NaN and +-inf, naming beta."""

    CALLS = {
        "vs_loss_binary": lambda beta: vs_loss_binary(1, LogitPair(0.0, 0.0), VsHyperParams(), beta),
        "vs_loss_grad_logits": lambda beta: vs_loss_grad_logits(1, LogitPair(0.0, 0.0), VsHyperParams(), beta),
        "vs_loss_partials_hyper": lambda beta: vs_loss_partials_hyper(LogitPair(0.0, 0.0), VsHyperParams(), beta),
        "break_even_line": lambda beta: break_even_line(VsHyperParams(), beta),
        "break_even_softmax_score": lambda beta: break_even_softmax_score(beta, 1.0),
        "loss_difference_grid": lambda beta: loss_difference_grid(VsHyperParams(), beta, -1.0, 1.0, 3),
    }

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("function", sorted(CALLS))
    def test_rejected(self, function, beta):
        with pytest.raises(ValueError, match=f"beta must be >= 1 and finite, got {beta}"):
            self.CALLS[function](beta)

    def test_finite_beta_still_accepted(self):
        for call in self.CALLS.values():
            call(2.0)

    def test_softmax_score_rejects_non_finite_tau(self):
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"tau must be >= 0 and finite, got {tau}"):
                break_even_softmax_score(10.0, tau)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0)])
    def test_grid_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            loss_difference_grid(VsHyperParams(), 2.0, lo, hi, 3)
