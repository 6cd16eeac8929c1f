import hashlib
import itertools
import warnings

import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad import geometry, neflag
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
        assert len(rows) > 2 and rows[0] == 9 and all(r % 9 == 0 for r in rows)

    def test_one_draw_of_three_blocks_is_three_draws_of_one(self):
        # a chunk of k rounds draws its k blocks at once: row i of block r must stay sample i's r-th start
        center = np.array([0.5, -1.0, 2.0, 0.0, 3.0])
        whole = sphere_points(np.random.default_rng(8), 27, center, 0.1)
        rng = np.random.default_rng(8)
        parts = np.concatenate([sphere_points(rng, 9, center, 0.1) for _ in range(3)])
        assert whole.tobytes() == parts.tobytes()

    @pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
    def test_no_gradient_call_gets_more_rows_than_samples(self, monkeypatch, kw):
        rows = []
        monkeypatch.setattr(neflag, "gradient_batch",
                            lambda model, xs: rows.append(len(xs)) or fg.gradient_batch(model, xs))
        model = fg.random_mlp(5, hidden=(7,), activation="tanh", head=fg.Head("sigmoid"), seed=12)
        x = np.random.default_rng(3).standard_normal(5)
        for seed in range(6):
            fg.neflag_attribute(model, x, NeflagConfig(seed=seed, n_samples=8, **kw))
        assert rows and max(rows) <= 8

    def test_a_minimum_spends_every_round_then_raises(self, monkeypatch):
        # every start on the sphere about the minimum of a bowl has outward flux, so all
        # six samples stay pending and each chunk is one round
        rows = []
        monkeypatch.setattr(neflag, "sphere_points",
                            lambda rng, n, *a: rows.append(n) or sphere_points(rng, n, *a))
        cfg = NeflagConfig(n_samples=6, step_rule="none")
        with pytest.raises(fg.NoNegativeFlux, match="after 60 attempts"):
            fg.neflag_attribute(fg.quadratic_model([1.0, 1.0]), np.zeros(2), cfg)
        assert rows == [6] * 60  # 10 * n_samples rounds of (n_samples, N) blocks

    def test_growing_chunks_stop_at_the_round_budget(self, monkeypatch):
        # sample 0 always starts at +e1 on the field of x1, where the flux is outward;
        # the others are accepted, so the chunks grow until its budget runs out
        rows = []

        def draw(rng, n, center, radius):
            rows.append(n)
            pts = sphere_points(rng, n, center, radius)
            pts[::6] = center + [radius, 0.0]
            return pts

        monkeypatch.setattr(neflag, "sphere_points", draw)
        cfg = NeflagConfig(n_samples=6, step_rule="none")
        with pytest.raises(fg.NoNegativeFlux, match="after 60 attempts"):
            fg.neflag_attribute(fg.linear_model([1.0, 0.0]), np.zeros(2), cfg)
        assert sum(rows) == 10 * 6 * 6 and max(rows) == 6 * 6  # at most n_samples rounds of one pending sample

    @pytest.mark.parametrize("rule, rounds_of_sample_0, outcome", [
        # accepted in round 1: the stationary round 2 ran in its chunk but ends nothing
        pytest.param("normalized", "RAS", [0.0, 0.4], id="RAS-outcome0"),
        pytest.param("normalized", "RSA", fg.StationaryGradient, id="RSA-StationaryGradient"),
        # the same under the none rule, whose round 2 start is the centre itself
        pytest.param("none", "RAC", [0.0, 0.4], id="none-RAC-outcome0"),
        pytest.param("none", "RCA", fg.OffSphere, id="none-RCA-OffSphere"),
    ])
    def test_a_sample_ends_at_its_first_round_that_accepts_or_fails(self, monkeypatch, rule, rounds_of_sample_0,
                                                                      outcome):
        # a ramp |x1| flat for |x1| < 0.01, minus relu(x2): a start's normalized step accepts (A),
        # is rejected (R) or meets a zero gradient (S); under the none rule a start accepts (A), is
        # rejected (R) or lies on the centre (C).  Samples 2 and 3 accept at once, so rounds 1 and 2
        # of samples 0 and 1 share one chunk, whose rows run s0 s1 s0 s1.
        t = 0.01
        model = fg.mlp_model([
            fg.Layer(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.array([-t, -t, 0.0]), "relu"),
            fg.Layer(np.array([[1.0, 1.0, -1.0]]), np.zeros(1), "identity"),
        ])
        start = {"A": [0.0, 0.1], "R": [0.1, 0.0], "S": [0.0, -0.1], "C": [0.0, 0.0]}
        script = iter([start[r] for block in zip(rounds_of_sample_0, "RRA", "AAA", "AAA") for r in block])
        rows = []
        monkeypatch.setattr(neflag, "sphere_points",
                            lambda rng, n, center, radius: rows.append(n) or np.array([next(script) for _ in range(n)]))
        cfg = NeflagConfig(n_samples=4, step_rule=rule)
        if isinstance(outcome, list):
            assert np.array_equal(fg.neflag_attribute(model, np.zeros(2), cfg).values, outcome)
        else:
            with pytest.raises(outcome):
                fg.neflag_attribute(model, np.zeros(2), cfg)
        assert rows == [4, 8]

    def test_a_stationary_step_fails_its_candidate_though_a_later_step_accepts(self, monkeypatch):
        # relu(x1 + 0.2 - 10 relu(-x2 - 0.05)) is flat at the start (0, -0.1), so the first sign step lands on
        # the centre, where the gradient is e1; the second reaches (-0.1, 0), whose flux is negative
        model = fg.mlp_model([
            fg.Layer(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, -0.05]), "relu"),
            fg.Layer(np.array([[1.0, -10.0]]), np.array([-0.8]), "relu"),
            fg.Layer(np.array([[1.0]]), np.zeros(1), "identity"),
        ])
        assert neflag.flux_at(model, SphereSpec(np.zeros(2), 0.1), [-0.1, 0.0]).is_negative
        monkeypatch.setattr(neflag, "sphere_points", lambda rng, n, center, radius: np.tile([0.0, -0.1], (n, 1)))
        for n in (1, 3):
            with pytest.raises(fg.StationaryGradient):
                fg.neflag_attribute(model, np.zeros(2), NeflagConfig(n_samples=n, max_steps=2))

    def test_chunks_cut_the_gradient_calls_of_the_none_rule(self, monkeypatch):
        calls = []
        monkeypatch.setattr(neflag, "gradient_batch",
                            lambda model, xs: calls.append(len(xs)) or fg.gradient_batch(model, xs))
        model = fg.random_mlp(5, hidden=(7,), activation="tanh", head=fg.Head("sigmoid"), seed=12)
        for seed, x in enumerate(np.random.default_rng(3).standard_normal((8, 5))):
            fg.neflag_attribute(model, x, NeflagConfig(seed=seed, step_rule="none"))
        assert len(calls) == 24  # a first round and about two chunks an attribution

    PINNED = {
        "sign": "ff7e2dd563a5185b29ccfda23b700634dc932b54f4bc8ade2df0438b57d2e77c",
        "normalized-m5": "35183fc9aabebc2a455ca6653edb8d55cd5596ef0de42f251b243cec2d9cc212",
        "none": "c6422ed466308f90cfeae9a84503b37a64b196ccb90521f7ce4dc93036508b6f",
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_maps_are_pinned(self, name):
        # The sha256 of 16 maps at each of two seeds on the criterion-10 toy fit, recorded before a failed
        # row stayed in its chunk: any drift in a map fails here.  The none rule's maps take chunks of many rounds.
        w = [4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        fit = fg.fit_toy_model(*fg.linear_rule_dataset(w, n=400, seed=5), hidden=(8,), epochs=500,
                               learning_rate=0.5, seed=2)
        digest = hashlib.sha256()
        for seed in (31, 104729):
            xs, _ = fg.linear_rule_dataset(w, n=16, seed=seed)
            for j, x in enumerate(xs):
                cfg = NeflagConfig(seed=seed + j, **self.CONFIGS[name])
                digest.update(fg.neflag_attribute(fit.model, x, cfg).values.tobytes())
        assert digest.hexdigest() == self.PINNED[name]

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


TANH_NET = fg.random_mlp(4, hidden=(5,), activation="tanh", head=fg.Head("sigmoid"), seed=3)


@pytest.mark.parametrize("kw", TestLockstepSearch.CONFIGS.values(), ids=TestLockstepSearch.CONFIGS.keys())
def test_non_finite_input_is_rejected_under_every_step_rule(kw):
    for x in ([np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf, 0.0]):
        with np.errstate(invalid="ignore"), pytest.raises(fg.NonFiniteInput):
            fg.neflag_attribute(TANH_NET, np.array(x), NeflagConfig(**kw))


@pytest.mark.parametrize("kw", TestLockstepSearch.CONFIGS.values(), ids=TestLockstepSearch.CONFIGS.keys())
def test_non_finite_input_is_rejected_before_any_arithmetic_warns(kw):
    for x in ([np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf, 0.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from the search would fail here
            with pytest.raises(fg.NonFiniteInput):
                fg.neflag_attribute(TANH_NET, np.array(x), NeflagConfig(**kw))


HUGE_CENTRE = {  # at 1e308 the 0.1 step is lost in rounding: the sphere is refused before any model call
    "tanh-sign": (TANH_NET, {}),
    "tanh-normalized-m5": (TANH_NET, {"step_rule": "normalized", "max_steps": 5}),
    "tanh-none": (TANH_NET, {"step_rule": "none"}),
    "linear-sign": (fg.linear_model([1.0, -2.0, 3.0]), {}),
    "quadratic-normalized": (fg.quadratic_model([1.0, 2.0]), {"step_rule": "normalized"}),
}


@pytest.mark.parametrize("model, kw", HUGE_CENTRE.values(), ids=HUGE_CENTRE.keys())
def test_huge_centre_raises_a_fluxgrad_error(model, kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic overflows
        with pytest.raises(fg.OffSphere, match=r"radius 0.1 is lost in rounding at a center of magnitude 1e\+308"):
            fg.neflag_attribute(model, np.full(model.dim, 1e308), NeflagConfig(**kw))


def test_sphere_radius_must_move_every_coordinate_of_its_center():
    # ulp(1e15) is 0.125, so a 0.1 step still moves it; ulp(1e16) is 2, so it does not
    SphereSpec(np.array([0.0, 1e15]), 0.1)
    for center in ([0.0, 1e16], [-1e16, 3.0]):
        with pytest.raises(fg.OffSphere, match="lost in rounding"):
            SphereSpec(np.array(center), 0.1)
    with pytest.raises(fg.OffSphere, match="magnitude 1e\\+16"):
        SphereSpec(np.array([1e16, -2e15]), 1.0)
    SphereSpec(np.array([1e16, -2e15]), 4.0)
    SphereSpec(np.array([0.0, -2.0**53]), 1.0)  # one-sided: -2**53 + 1 is exact, though -2**53 - 1 rounds back
    for center in ([np.nan, 0.0], [0.0, -np.inf]):  # the same pass finds a non-finite center
        with pytest.raises(fg.NonFiniteInput):
            SphereSpec(np.array(center), 0.1)


@pytest.mark.parametrize("width", [1, 8, 784])
def test_row_norms_equal_numpys_bit_for_bit(width):
    rng = np.random.default_rng(width)
    scale = 10.0 ** rng.choice([-200, -1, 0, 200], size=(64, 1))  # products near 1e+-400 over- and underflow
    a = scale * rng.standard_normal((64, width))
    with np.errstate(over="ignore", under="ignore"):
        got, want = geometry._row_norms(a), np.linalg.norm(a, axis=1)
    assert np.array_equal(got, want)
    assert np.isinf(got).any() and (got == 0.0).any()


def test_candidate_on_the_centre_names_the_radius_lost_in_rounding():
    # ulp(1e15) is 0.125: the sphere passes its check, since 0.1 rounds up to one ulp, but a draw
    # whose three offsets all fall below half an ulp rounds back onto the centre
    model = fg.random_mlp(3, hidden=(6,), activation="tanh", seed=1)
    want = ("candidate point coincides with the sphere center: radius 0.1 is lost in rounding "
            "at a center of magnitude 1e+15")
    with pytest.raises(fg.OffSphere) as info:
        fg.neflag_attribute(model, np.full(3, 1e15), NeflagConfig(step_rule="none"))
    assert str(info.value) == want
