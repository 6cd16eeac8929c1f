import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad.baselines import _completeness


class TestSaliency:
    def test_linear_gradient(self):
        m = fg.linear_model([1.0, 2.0])
        att = fg.saliency(m, [7.0, -3.0])
        assert np.array_equal(att.values, [1.0, 2.0])

    def test_zero_at_stationary_point(self):
        m = fg.quadratic_model([1.0, 2.0], [0.5, -0.5])
        att = fg.saliency(m, [0.5, -0.5])
        assert np.array_equal(att.values, np.zeros(2))

    def test_equals_gradient_on_mlp(self):
        model = fg.random_mlp(3, hidden=(5,), activation="tanh", seed=1)
        x = np.array([0.2, -0.4, 0.9])
        assert np.array_equal(fg.saliency(model, x).values, fg.gradient(model, x))


class TestSmoothgrad:
    def test_zero_sigma_equals_saliency_bitwise(self):
        model = fg.random_mlp(3, hidden=(5,), activation="tanh", seed=2)
        x = np.array([0.1, 0.5, -0.2])
        cfg = fg.SmoothGradConfig(sigma=0.0, samples=17, seed=3)
        assert np.array_equal(fg.smoothgrad(model, x, cfg).values,
                              fg.saliency(model, x).values)

    def test_constant_gradient_is_noise_invariant(self):
        m = fg.linear_model([2.0, -1.0])
        x = np.array([0.3, 0.7])
        cfg = fg.SmoothGradConfig(sigma=1.5, samples=40, seed=0)
        assert np.allclose(fg.smoothgrad(m, x, cfg).values,
                           fg.saliency(m, x).values, atol=1e-12)

    def test_monte_carlo_self_consistency(self):
        # A much larger sample is the oracle; agreement within 3 standard
        # errors of the smaller estimate, component-wise.
        m = fg.gauss_bump(2)
        x = np.zeros(2)
        small = fg.smoothgrad(m, x, fg.SmoothGradConfig(sigma=0.5, samples=10**4, seed=1))
        big = fg.smoothgrad(m, x, fg.SmoothGradConfig(sigma=0.5, samples=10**6, seed=2))
        rng = np.random.default_rng(1)
        grads = fg.gradient_batch(m, x + 0.5 * rng.standard_normal((10**4, 2)))
        se = grads.std(axis=0, ddof=1) / 100.0
        assert np.all(np.abs(small.values - big.values) < 3.0 * se)

    def test_determinism(self):
        model = fg.random_mlp(2, hidden=(4,), activation="softplus", seed=5)
        cfg = fg.SmoothGradConfig(sigma=0.3, samples=25, seed=9)
        x = np.array([0.4, 0.6])
        assert np.array_equal(fg.smoothgrad(model, x, cfg).values,
                              fg.smoothgrad(model, x, cfg).values)


class TestIntegratedGradients:
    def test_linear_exact_for_any_steps(self):
        m = fg.linear_model([2.0, -3.0])
        x = np.array([1.0, 2.0])
        for steps in (1, 7, 100):
            att = fg.integrated_gradients(m, x, fg.IgConfig(steps=steps))
            assert np.allclose(att.values, [2.0, -6.0], atol=1e-12)

    def test_zero_at_baseline(self):
        model = fg.random_mlp(3, hidden=(5,), activation="tanh", seed=4)
        x = np.array([0.3, 0.1, -0.2])
        att = fg.integrated_gradients(model, x, fg.IgConfig(baseline=x))
        assert np.array_equal(att.values, np.zeros(3))

    def test_completeness_on_softplus_mlp(self):
        model = fg.random_mlp(4, hidden=(8,), activation="softplus", seed=6)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        att = fg.integrated_gradients(model, x, fg.IgConfig(steps=200))
        delta = fg.evaluate(model, x) - fg.evaluate(model, np.zeros(4))
        assert abs(att.values.sum() - delta) <= 0.01 * abs(delta)

    def test_completeness_error_shrinks_with_steps(self):
        # Error at 2*steps below error at steps in >= 90% of random trials.
        model = fg.random_mlp(3, hidden=(6,), activation="tanh",
                              head=fg.Head("sigmoid"), seed=7)
        rng = np.random.default_rng(8)
        improved = 0
        for _ in range(50):
            x = rng.standard_normal(3) * 2.0
            coarse = fg.integrated_gradients(model, x, fg.IgConfig(steps=8))
            fine = fg.integrated_gradients(model, x, fg.IgConfig(steps=16))
            e_coarse = abs(_completeness(model, x, coarse)["gap"])
            e_fine = abs(_completeness(model, x, fine)["gap"])
            if e_fine < e_coarse:
                improved += 1
        assert improved >= 45

    def test_completeness_gap_uses_the_maps_baseline(self):
        model = fg.random_mlp(3, activation="tanh", seed=1)
        x = np.array([0.5, -0.2, 0.3])
        for baseline in (None, np.ones(3)):
            att = fg.integrated_gradients(model, x, fg.IgConfig(baseline=baseline, steps=200))
            assert abs(_completeness(model, x, att)["gap"]) < 1e-6

    def test_completeness_gap_needs_a_baseline(self):
        m = fg.linear_model([1.0, 2.0])
        with pytest.raises(ValueError, match="no baseline"):
            _completeness(m, [1.0, 1.0], fg.saliency(m, [1.0, 1.0]))

    def test_baseline_dimension_checked(self):
        m = fg.linear_model([1.0, 2.0])
        with pytest.raises(fg.DimensionMismatch):
            fg.integrated_gradients(m, [1.0, 1.0], fg.IgConfig(baseline=[0.0]))


def test_random_attribution_is_seeded():
    m = fg.linear_model([1.0, 2.0])
    a = fg.random_attribution(m, [0.0, 0.0], seed=3)
    b = fg.random_attribution(m, [0.0, 0.0], seed=3)
    c = fg.random_attribution(m, [0.0, 0.0], seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
