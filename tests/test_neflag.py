import itertools

import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad import neflag
from fluxgrad.geometry import sphere_points
from fluxgrad.neflag import NeflagConfig, SphereSpec


class TestSampleSphere:
    def test_point_lies_on_unit_sphere(self):
        p = fg.sample_sphere(SphereSpec(np.zeros(2), 1.0), seed=0)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-9

    def test_point_at_distance_from_shifted_center(self):
        sphere = SphereSpec(np.array([5.0, 5.0]), 0.1)
        p = fg.sample_sphere(sphere, seed=1)
        assert abs(np.linalg.norm(p - sphere.center) - 0.1) <= 1e-9 * 0.1

    def test_mean_of_many_samples_is_near_zero(self):
        # Monte-Carlo symmetry check for uniformity on the sphere.
        sphere = SphereSpec(np.zeros(3), 1.0)
        rng = np.random.default_rng(7)
        pts = np.array([fg.sample_sphere(sphere, rng) for _ in range(10**5)])
        assert np.all(np.abs(pts.mean(axis=0)) < 0.02)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            SphereSpec(np.zeros(2), 0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_radius_must_be_finite(self, radius):
        with pytest.raises(ValueError, match="finite"):
            SphereSpec(np.zeros(2), radius)


class TestFluxAt:
    def test_linear_outward_flux(self):
        m = fg.linear_model([1.0, 0.0])
        sphere = SphereSpec(np.zeros(2), 0.1)
        p = fg.flux_at(m, sphere, [0.1, 0.0])
        assert p.flux == pytest.approx(1.0)
        assert p.approx_flux == pytest.approx(1.0)
        assert abs(np.linalg.norm(p.normal) - 1.0) <= 1e-9

    def test_linear_inward_flux(self):
        m = fg.linear_model([1.0, 0.0])
        p = fg.flux_at(m, SphereSpec(np.zeros(2), 0.1), [-0.1, 0.0])
        assert p.flux == pytest.approx(-1.0)
        assert p.is_negative

    def test_quadratic_exposes_first_order_error(self):
        # exact flux 0.1; the secant surrogate sees only half of it.
        m = fg.quadratic_model([1.0, 1.0])
        p = fg.flux_at(m, SphereSpec(np.zeros(2), 0.1), [0.1, 0.0])
        assert p.flux == pytest.approx(0.1)
        assert p.approx_flux == pytest.approx(0.05)

    def test_flux_is_the_gradient_along_the_normal(self):
        p = fg.FluxPoint(np.array([0.6, 0.8]), np.array([2.0, -1.0]), np.array([0.6, 0.8]), 0.0)
        assert p.flux == pytest.approx(0.4) and not p.is_negative

    def test_off_sphere_point_rejected(self):
        m = fg.linear_model([1.0, 0.0])
        with pytest.raises(fg.OffSphere):
            fg.flux_at(m, SphereSpec(np.zeros(2), 0.1), [0.11, 0.0])


class TestRecurrenceStep:
    def test_linear_normalized_step(self):
        m = fg.linear_model([3.0, 4.0])
        sphere = SphereSpec(np.zeros(2), 1.0)
        out = fg.recurrence_step(m, sphere, [0.6, 0.8], rule="normalized")
        assert np.allclose(out, [-0.6, -0.8])

    def test_linear_sign_step(self):
        m = fg.linear_model([3.0, 4.0])
        sphere = SphereSpec(np.zeros(2), 1.0)
        out = fg.recurrence_step(m, sphere, [0.6, 0.8], rule="sign")
        assert np.array_equal(out, [-1.0, -1.0])

    def test_zero_gradient_raises(self):
        m = fg.quadratic_model([1.0, 1.0])
        sphere = SphereSpec(np.array([1.0, 0.0]), 0.5)
        with pytest.raises(fg.StationaryGradient):
            fg.recurrence_step(m, sphere, [0.0, 0.0], rule="normalized")

    def test_normalized_iterates_stay_on_sphere(self):
        m = fg.random_mlp(3, hidden=(5,), activation="softplus", seed=2)
        sphere = SphereSpec(np.array([0.2, -0.1, 0.4]), 0.1)
        x = fg.sample_sphere(sphere, seed=3)
        for _ in range(25):
            x = fg.recurrence_step(m, sphere, x, rule="normalized")
            d = np.linalg.norm(x - sphere.center)
            assert abs(d - 0.1) <= 1e-9 * 0.1

    def test_one_step_fixed_point_on_linear_field(self):
        a = np.array([3.0, 4.0])
        m = fg.linear_model(a)
        sphere = SphereSpec(np.zeros(2), 1.0)
        target = -a / np.linalg.norm(a)
        first = fg.recurrence_step(m, sphere, [1.0, 0.0], rule="normalized")
        second = fg.recurrence_step(m, sphere, first, rule="normalized")
        assert np.allclose(first, target, atol=1e-15)
        assert np.linalg.norm(second - first) < 1e-12

    def test_anisotropic_quadratic_enters_two_cycle(self):
        # With eps comparable to the field curvature the fixed point at the
        # on-sphere minimizer is repelling (multiplier -eps*l2/(l1*|x*|) = -4
        # here) and the iteration settles into a period-2 orbit instead of
        # converging.  This pins the actual behavior of the plain update.
        m = fg.quadratic_model([1.0, 4.0])
        sphere = SphereSpec(np.array([1.0, 0.0]), 0.5)
        x = np.array([1.0, 0.5])
        for _ in range(200):
            x = fg.recurrence_step(m, sphere, x, rule="normalized")
        once = fg.recurrence_step(m, sphere, x, rule="normalized")
        twice = fg.recurrence_step(m, sphere, once, rule="normalized")
        assert np.linalg.norm(once - x) > 0.1
        assert np.linalg.norm(twice - x) < 1e-9

    def test_descent_on_softplus_models(self):
        # Statistical: f non-increasing after the first step in >=95% of
        # seeded trials (the update is only an approximate descent method).
        model = fg.random_mlp(4, hidden=(8,), activation="softplus", seed=1)
        ok = 0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            sphere = SphereSpec(rng.standard_normal(4), 0.1)
            x = fg.sample_sphere(sphere, rng)
            values = []
            for _ in range(20):
                x = fg.recurrence_step(model, sphere, x, rule="normalized")
                values.append(fg.evaluate(model, x))
            if np.all(np.diff(values) <= 1e-12):
                ok += 1
        assert ok >= 19


class TestFindNegativeFluxPoint:
    def test_linear_one_step(self):
        m = fg.linear_model([1.0, 0.0])
        sphere = SphereSpec(np.zeros(2), 0.1)
        cfg = NeflagConfig(epsilon=0.1, n_samples=1, max_steps=1, step_rule="normalized")
        p = fg.find_negative_flux_point(m, sphere, cfg, seed=0)
        assert np.allclose(p.location, [-0.1, 0.0])
        assert p.flux == pytest.approx(-1.0)

    def test_minimum_center_has_no_negative_flux(self):
        # At a minimum the gradient field points outward everywhere.
        m = fg.quadratic_model([1.0, 1.0])
        sphere = SphereSpec(np.zeros(2), 0.1)
        cfg = NeflagConfig(epsilon=0.1, n_samples=2, step_rule="none")
        with pytest.raises(fg.NoNegativeFlux):
            fg.find_negative_flux_point(m, sphere, cfg, seed=0)

    def test_trained_mlp_confident_point_yields_negative_flux(self):
        X, y = fg.blob_dataset(200, margin=1.0, seed=3)
        fit = fg.fit_toy_model(X, y, epochs=500)
        scores = [fg.evaluate(fit.model, x) for x in X]
        x0 = X[int(np.argmax(scores))]
        sphere = SphereSpec(x0, 0.1)
        negative = 0
        for s in range(100):
            x_t = fg.sample_sphere(sphere, s)
            for _ in range(20):
                x_t = fg.recurrence_step(fit.model, sphere, x_t, "normalized")
            negative += fg.flux_at(fit.model, sphere, x_t).flux < 0
        assert negative >= 95


class TestNeflagAttribute:
    def test_single_sample_normalized_on_linear_field(self):
        m = fg.linear_model([1.0, 0.0])
        cfg = NeflagConfig(epsilon=0.1, n_samples=1, max_steps=1,
                           step_rule="normalized")
        att = fg.neflag_attribute(m, [0.0, 0.0], cfg)
        assert np.allclose(att.values, [0.1, 0.0], atol=1e-15)
        assert att.samples_used == 1

    def test_hand_traced_sign_rule(self):
        m = fg.linear_model([3.0, 4.0])
        cfg = NeflagConfig(epsilon=1.0, n_samples=1, max_steps=1, step_rule="sign")
        att = fg.neflag_attribute(m, [0.0, 0.0], cfg)
        assert np.array_equal(att.values, [3.0, 4.0])

    def test_matches_monte_carlo_negative_hemisphere_integral(self):
        # Independent oracle: brute-force estimate of the element-wise
        # negative-flux surface integral, compared direction-wise after
        # normalization (raw scales differ by construction).
        a = np.array([1.0, 2.0, 3.0])
        m = fg.linear_model(a)
        est = fg.surface_flux_integral(
            m, SphereSpec(np.zeros(3), 0.1), 10**6, seed=42,
            mode="elementwise", subset="negative",
        )
        oracle = np.abs(np.asarray(est.value))
        oracle = oracle / oracle.sum()
        cfg = NeflagConfig(epsilon=0.1, n_samples=200, max_steps=1, step_rule="normalized")
        att = fg.neflag_attribute(m, np.zeros(3), cfg)
        mine = np.abs(att.values) / np.abs(att.values).sum()
        assert np.all(np.abs(mine - oracle) / oracle < 0.05)

    def test_negative_flux_filter(self):
        model = fg.random_mlp(3, hidden=(6,), activation="softplus", seed=8)
        x = np.array([0.4, -0.2, 0.1])
        sphere = SphereSpec(x, 0.1)
        cfg = NeflagConfig(epsilon=0.1, n_samples=5, step_rule="none", seed=5)
        for s in range(20):
            p = fg.find_negative_flux_point(model, sphere, cfg, seed=s)
            assert p.flux < 0

    def test_linear_ordering_matches_weight_magnitudes(self):
        a = np.array([1.0, 2.0, 3.0])
        m = fg.linear_model(a)
        for seed in range(5):
            cfg = NeflagConfig(epsilon=0.1, n_samples=50, max_steps=1,
                               step_rule="sign", seed=seed)
            att = fg.neflag_attribute(m, np.zeros(3), cfg)
            assert np.array_equal(np.argsort(np.abs(att.values)), np.argsort(np.abs(a)))

    def test_determinism(self):
        model = fg.random_mlp(4, hidden=(6,), activation="tanh",
                              head=fg.Head("sigmoid"), seed=4)
        x = np.array([0.3, 0.1, -0.5, 0.2])
        cfg = NeflagConfig(seed=11)
        first = fg.neflag_attribute(model, x, cfg)
        second = fg.neflag_attribute(model, x, cfg)
        assert np.array_equal(first.values, second.values)
        assert first.samples_used == second.samples_used

    def test_params_name_every_config_field(self):
        cfg = NeflagConfig(epsilon=0.2, n_samples=3, max_steps=2, step_rule="normalized", seed=5)
        att = fg.neflag_attribute(fg.linear_model([1.0, -2.0]), np.zeros(2), cfg)
        assert att.params == {"epsilon": 0.2, "n": 3, "m": 2, "step_rule": "normalized", "seed": 5}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NeflagConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            NeflagConfig(n_samples=0)
        with pytest.raises(ValueError):
            NeflagConfig(step_rule="bogus")


class TestTaylorHeatmap:
    def test_linear_completeness(self):
        m = fg.linear_model([2.0, 5.0])
        att = fg.taylor_heatmap(m, [1.0, 1.0], [0.0, 0.0])
        assert np.array_equal(att.values, [2.0, 5.0])
        assert att.values.sum() == fg.evaluate(m, [1.0, 1.0]) - fg.evaluate(m, [0.0, 0.0])

    def test_zero_at_expansion_point(self):
        m = fg.random_mlp(3, hidden=(5,), activation="tanh", seed=6)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(fg.taylor_heatmap(m, x, x).values, np.zeros(3))

    def test_equals_single_sample_flux_contribution(self):
        model = fg.random_mlp(3, hidden=(5,), activation="softplus", seed=6)
        x = np.array([0.5, -0.1, 0.2])
        sphere = SphereSpec(x, 0.1)
        x_t = fg.sample_sphere(sphere, seed=9)
        heat = fg.taylor_heatmap(model, x, x_t)
        contribution = fg.gradient(model, x_t) * (x - x_t)
        assert np.array_equal(heat.values, contribution)


def sequential_sample(model, sphere, cfg, starts):
    """One sample's search, candidate by candidate, from the public one-point functions.

    ``starts`` yields the sample's sphere draws in order.
    """
    for _ in range(10 * cfg.n_samples):
        x_t = next(starts)
        if cfg.step_rule != "none":
            for _ in range(cfg.max_steps):
                x_t = fg.recurrence_step(model, sphere, x_t, cfg.step_rule)
        off = x_t - sphere.center
        dist = np.linalg.norm(off)
        if dist == 0.0:
            raise fg.OffSphere("candidate point coincides with the sphere center")
        grad = fg.gradient(model, x_t)
        if grad @ (off / dist) < 0:
            return x_t, grad
    raise fg.NoNegativeFlux("no negative flux")


def sequential_outcomes(model, x, cfg):
    """Each sample's (point, gradient) or exception, searched one sample after another.

    One generator on the seed's first child draws (n_samples, N) blocks of
    sphere points; sample i's k-th draw is row i of the k-th block.
    """
    sphere = SphereSpec(x, cfg.epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    blocks = []

    def starts(i):
        for k in itertools.count():
            if k == len(blocks):
                blocks.append(sphere_points(rng, cfg.n_samples, sphere.center, sphere.radius))
            yield blocks[k][i]

    outcomes = []
    for i in range(cfg.n_samples):
        try:
            outcomes.append(sequential_sample(model, sphere, cfg, starts(i)))
        except fg.FluxgradError as exc:
            outcomes.append(exc)
    return outcomes


class TestLockstepSearch:
    CONFIGS = {
        "sign": {},
        "normalized-m5": {"step_rule": "normalized", "max_steps": 5},
        "none": {"step_rule": "none"},
    }

    @pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
    def test_matches_sequential_reference(self, kw):
        model = fg.random_mlp(5, hidden=(7,), activation="tanh",
                              head=fg.Head("sigmoid"), seed=12)
        rng = np.random.default_rng(3)
        for seed in range(6):
            x = rng.standard_normal(5)
            cfg = NeflagConfig(seed=seed, n_samples=8, **kw)
            total = np.zeros(5)
            for point, grad in sequential_outcomes(model, x, cfg):
                total += grad * (x - point)
            att = fg.neflag_attribute(model, x, cfg)
            assert np.max(np.abs(att.values - total)) <= 1e-12 * np.max(np.abs(total))
            assert att.samples_used == cfg.n_samples

    def test_raises_what_the_lowest_index_failing_sample_raises(self):
        # |x1| with a dead zone |x1| < 0.01 around the centre: the centre is a
        # minimum, so every candidate outside the zone is rejected, and a step
        # from inside the zone meets a zero gradient.  Samples end in
        # NoNegativeFlux or StationaryGradient, depending on their stream.
        t = 0.01
        vee = fg.mlp_model([
            fg.Layer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-t, -t]), "relu"),
            fg.Layer(np.array([[1.0, 1.0]]), np.zeros(1), "identity"),
        ])
        bowl = fg.quadratic_model([1.0, 1.0])
        later_failure_first = 0
        for model, kw in ((vee, {}), (vee, {"max_steps": 3}),
                          (bowl, {})):
            for seed in range(25):
                cfg = NeflagConfig(epsilon=0.1, n_samples=2, step_rule="normalized",
                                   seed=seed, **kw)
                outcomes = sequential_outcomes(model, np.zeros(2), cfg)
                failures = [o for o in outcomes if isinstance(o, Exception)]
                assert failures
                with pytest.raises(type(failures[0])):
                    fg.neflag_attribute(model, np.zeros(2), cfg)
                later_failure_first += [type(f) for f in failures] == [
                    fg.NoNegativeFlux, fg.StationaryGradient]
        # the lockstep search meets sample 1's zero gradient rounds before
        # sample 0 runs out of candidates, and must still raise sample 0's error
        assert later_failure_first >= 1

    def test_one_gradient_batch_call_per_step(self, monkeypatch):
        calls = []
        for name in ("gradient_batch", "gradient", "evaluate"):
            fn = getattr(neflag, name)
            monkeypatch.setattr(neflag, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        # every candidate is accepted: a linear field has negative flux at -sign(a)
        model = fg.linear_model([1.0, -2.0, 3.0])
        fg.neflag_attribute(model, np.zeros(3), NeflagConfig())
        assert calls == ["gradient_batch"] * 2
        calls.clear()
        fg.neflag_attribute(model, np.zeros(3), NeflagConfig(step_rule="normalized", max_steps=5))
        assert calls == ["gradient_batch"] * 6

    def test_one_generator_and_full_blocks_per_attribution(self, monkeypatch):
        generators, rows = [], []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: generators.append(a) or default_rng(*a))
        monkeypatch.setattr(neflag, "sphere_points",
                            lambda rng, n, *a: rows.append(n) or sphere_points(rng, n, *a))
        model = fg.random_mlp(5, hidden=(7,), activation="tanh", seed=12)
        # the none rule rejects candidates with outward flux, so samples leave
        # the search in different rounds
        cfg = NeflagConfig(n_samples=9, seed=4, step_rule="none")
        generators.clear()
        rows.clear()
        fg.neflag_attribute(model, np.full(5, 0.3), cfg)
        assert len(generators) == 1
        assert len(rows) > 2 and set(rows) == {9}

    @pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
    def test_one_sample_keeps_the_stream_of_its_seed_child(self, kw):
        model = fg.random_mlp(5, hidden=(7,), activation="tanh",
                              head=fg.Head("sigmoid"), seed=12)
        rng = np.random.default_rng(5)
        for seed in range(6):
            x = rng.standard_normal(5)
            cfg = NeflagConfig(seed=seed, n_samples=1, **kw)
            sphere = SphereSpec(x, cfg.epsilon)
            child = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            draws = (fg.sample_sphere(sphere, child) for _ in itertools.count())
            point, grad = sequential_sample(model, sphere, cfg, draws)
            att = fg.neflag_attribute(model, x, cfg)
            assert np.array_equal(att.values, grad * (x - point))
