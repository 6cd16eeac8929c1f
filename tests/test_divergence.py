import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import fluxgrad as fg
from fluxgrad import geometry, models
from fluxgrad.neflag import SphereSpec


def divergence_fd(model, x) -> float:
    """div F at x: central differences of the exact gradient field, the oracle ``laplacian_batch`` is checked against.

    Only the second derivative is finite-differenced, with step 1e-4; the
    field values themselves use analytic gradients, so a single FD level
    controls the error.  Like ``laplacian_batch``, it refuses a field that is
    not continuously differentiable and an input of the wrong shape.
    """
    models._require_smooth(model)
    h = 1e-4
    x = models._check_input(model, x)
    steps = h * np.eye(x.size)
    plus, minus = fg.gradient_batch(model, x + steps), fg.gradient_batch(model, x - steps)
    return float(np.sum(np.diag(plus) - np.diag(minus)) / (2.0 * h))


class TestDivergenceFd:
    def test_quadratic_divergence_is_trace(self):
        m = fg.quadratic_model([1.0, 2.0, 3.0])
        for x in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
            assert divergence_fd(m, x) == pytest.approx(6.0, abs=1e-6)

    def test_linear_field_has_zero_divergence(self):
        m = fg.linear_model([1.0, -3.0])
        assert divergence_fd(m, [2.0, 5.0]) == pytest.approx(0.0, abs=1e-9)

    def test_gauss_bump_laplacian_at_peak(self):
        m = fg.gauss_bump(2)
        assert divergence_fd(m, [0.0, 0.0]) == pytest.approx(-2.0, abs=1e-5)

    def test_relu_field_rejected(self):
        m = fg.random_mlp(2, hidden=(4,), activation="relu", seed=0)
        with pytest.raises(fg.NotSmooth, match="continuously differentiable"):
            divergence_fd(m, [0.1, 0.2])


class TestVolumeIntegral:
    def test_constant_divergence_times_disk_area(self):
        m = fg.quadratic_model([1.0, 2.0])
        est = fg.volume_divergence_integral(m, SphereSpec(np.zeros(2), 1.0), 20000, seed=0)
        assert est.value == pytest.approx(3.0 * np.pi, rel=1e-6)

    def test_linear_field_integrates_to_zero(self):
        m = fg.linear_model([1.0, 2.0])
        est = fg.volume_divergence_integral(m, SphereSpec(np.zeros(2), 1.0), 5000, seed=1)
        assert abs(est.value) < 1e-8

    def test_gauss_bump_matches_surface_flux(self):
        m = fg.gauss_bump(2)
        sphere = SphereSpec(np.zeros(2), 0.5)
        lhs = fg.volume_divergence_integral(m, sphere, 50000, seed=2)
        rhs = fg.surface_flux_integral(m, sphere, 50000, seed=3)
        combined = np.hypot(lhs.standard_error, rhs.standard_error)
        assert abs(lhs.value - rhs.value) < 3.0 * combined


class TestSurfaceFluxIntegral:
    def test_uniform_field_zero_total_flux(self):
        m = fg.linear_model([1.0, -2.0, 0.5])
        est = fg.surface_flux_integral(m, SphereSpec(np.zeros(3), 1.0), 20000, seed=0)
        assert est.value == 0.0  # each pair's normals are u and exactly -u, so its fluxes cancel exactly

    def test_quadratic_total_flux_equals_divergence_integral(self):
        m = fg.quadratic_model([1.0, 2.0])
        est = fg.surface_flux_integral(m, SphereSpec(np.zeros(2), 1.0), 50000, seed=4)
        assert abs(est.value - 3.0 * np.pi) < 3.0 * est.standard_error

    def test_negative_subset_matches_quadrature_oracle(self):
        # Independent 1-D oracle on the unit circle: the negative part of
        # cos(theta) integrates to -2 over a period.
        oracle, _ = quad(lambda t: min(np.cos(t), 0.0), 0.0, 2.0 * np.pi)
        assert oracle == pytest.approx(-2.0, abs=1e-9)
        m = fg.linear_model([1.0, 0.0])
        est = fg.surface_flux_integral(
            m, SphereSpec(np.zeros(2), 1.0), 10**6, seed=5, subset="negative"
        )
        assert est.value == pytest.approx(oracle, rel=0.01)

    def test_flux_sign_partition_is_exact(self):
        model = fg.random_mlp(3, hidden=(5,), activation="softplus", seed=3)
        sphere = SphereSpec(np.array([0.2, 0.1, -0.3]), 0.5)
        kw = dict(samples=5000, seed=6)
        full = fg.surface_flux_integral(model, sphere, **kw)
        neg = fg.surface_flux_integral(model, sphere, subset="negative", **kw)
        pos = fg.surface_flux_integral(model, sphere, subset="positive", **kw)
        # same samples, so agreement is to roundoff (summation order differs)
        assert full.value == pytest.approx(neg.value + pos.value, rel=1e-12, abs=1e-12)

    def test_elementwise_sum_equals_dot_mode(self):
        model = fg.random_mlp(3, hidden=(5,), activation="softplus", seed=3)
        sphere = SphereSpec(np.zeros(3), 0.4)
        dot = fg.surface_flux_integral(model, sphere, 5000, seed=7, mode="dot")
        elem = fg.surface_flux_integral(model, sphere, 5000, seed=7, mode="elementwise")
        assert np.asarray(elem.value).sum() == pytest.approx(dot.value, abs=1e-12)

    def test_standard_error_scales_like_root_n(self):
        model = fg.gauss_bump(2, center=[0.3, 0.0])
        sphere = SphereSpec(np.zeros(2), 0.5)
        ratios = []
        for seed in range(20):
            small = fg.surface_flux_integral(model, sphere, 2000, seed=seed)
            big = fg.surface_flux_integral(model, sphere, 4000, seed=seed + 1000)
            ratios.append(small.standard_error / big.standard_error)
        assert 1.3 <= np.mean(ratios) <= 1.5


@pytest.mark.parametrize("samples", [1, 5])
def test_estimate_types_and_one_sample_standard_error(samples):
    model = fg.quadratic_model([1.0, 2.0, 3.0])
    sphere = SphereSpec(np.array([0.1, 0.0, -0.2]), 0.5)
    vol = fg.volume_divergence_integral(model, sphere, samples, seed=3)
    dot = fg.surface_flux_integral(model, sphere, samples, seed=3)
    elem = fg.surface_flux_integral(model, sphere, samples, seed=3, mode="elementwise")
    for est in (vol, dot):
        assert type(est.value) is float and type(est.standard_error) is float
    for value in (elem.value, elem.standard_error):
        assert type(value) is np.ndarray and value.shape == (3,)
    assert vol.samples == dot.samples == elem.samples == samples
    assert np.asarray(elem.value).sum() == pytest.approx(dot.value, abs=1e-12)
    if samples == 1:
        assert vol.standard_error == dot.standard_error == 0.0
        assert np.array_equal(elem.standard_error, np.zeros(3))


class TestSecantFluxErrorOrder:
    def test_error_halves_with_radius(self):
        # |exact - approx| is first order in the radius, so halving the
        # radius should roughly halve the mean error.
        m = fg.gauss_bump(2)
        x = np.array([0.5, 0.3])
        rng = np.random.default_rng(42)
        dirs = rng.standard_normal((100, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        fx = fg.evaluate(m, x)

        def mean_err(eps):
            errs = []
            for d in dirs:
                p = x + eps * d
                exact = float(fg.gradient(m, p) @ d)
                approx = (fg.evaluate(m, p) - fx) / eps
                errs.append(abs(exact - approx))
            return np.mean(errs)

        ratio = mean_err(0.1) / mean_err(0.05)
        assert 1.6 <= ratio <= 2.4


class TestTheoremReport:
    def test_quadratic_report_passes_with_closed_form(self):
        m = fg.quadratic_model([1.0, 2.0, 3.0])
        report = fg.divergence_theorem_report(m, SphereSpec(np.zeros(3), 0.5), 50000, seed=0)
        assert report.passed
        assert report.volume_integral == pytest.approx(np.pi, rel=1e-6)

    def test_linear_report_trivially_passes(self):
        m = fg.linear_model([1.0, 2.0])
        report = fg.divergence_theorem_report(m, SphereSpec(np.zeros(2), 1.0), 5000, seed=1)
        assert report.passed

    def test_softplus_mlp_report_passes(self):
        model = fg.random_mlp(2, hidden=(8,), activation="softplus", seed=12)
        report = fg.divergence_theorem_report(
            model, SphereSpec(np.array([0.3, -0.2]), 0.1), 50000, seed=2
        )
        assert report.passed

    def test_json_schema(self):
        m = fg.linear_model([1.0])
        report = fg.divergence_theorem_report(m, SphereSpec(np.zeros(1), 1.0), 100, seed=0)
        doc = report.to_json()
        assert set(doc) == {"lhs", "rhs", "diff", "stderr", "pass", "samples"}

    @pytest.mark.parametrize("surface, se, passed", [
        (90.0, 4.0, True), (90.0, 3.0, False),  # |diff| 10 against 3 standard errors
        (98.5, 0.0, True), (97.5, 0.0, False),  # |diff| 1.5 or 2.5 against 2% of 100
    ])
    def test_verdict_is_the_looser_of_3_standard_errors_and_2_percent(self, surface, se, passed):
        report = fg.DivergenceTheoremReport(100.0, surface, se, 10)
        assert report.difference == report.volume_integral - surface
        assert report.passed is passed and report.to_json()["pass"] is passed


def _laplacian_zoo():
    """Every kind, every head and every smooth activation, with one and two hidden layers."""
    heads = {"identity": (1, fg.Head()), "sigmoid": (1, fg.Head("sigmoid")),
             "softmax": (3, fg.Head("softmax", target=1)), "logit": (3, fg.Head("softmax", target=2, use_logit=True))}
    zoo = {
        "linear": fg.linear_model([1.0, -2.0, 0.5], 0.3),
        "linear-sigmoid": fg.linear_model([1.0, -2.0, 0.5], 0.3, head=fg.Head("sigmoid")),
        "quadratic": fg.quadratic_model([1.0, 2.0, -3.0], [0.1, 0.2, 0.3]),
        "quadratic-sigmoid": fg.quadratic_model([1.0, 2.0, -3.0], head=fg.Head("sigmoid")),
        "gauss": fg.gauss_mixture_model([1.0, -0.5], [[0.0, 0.0, 0.0], [0.5, 0.1, -0.2]], [0.7, 1.3]),
        "gauss-sigmoid": fg.gauss_bump(3, center=[0.2, 0.0, -0.1], sigma=0.8, head=fg.Head("sigmoid")),
    }
    for act in ("tanh", "softplus", "identity"):
        for hidden in ((6,), (5, 4)):
            for name, (k, head) in heads.items():
                zoo[f"mlp-{act}-{len(hidden)}-{name}"] = fg.random_mlp(
                    3, hidden=hidden, out_dim=k, activation=act, seed=len(zoo), head=head)
    rng = np.random.default_rng(0)
    layers = [fg.Layer(rng.standard_normal((4, 3)), rng.standard_normal(4), "tanh"),
              fg.Layer(rng.standard_normal((2, 4)), rng.standard_normal(2), "softplus")]
    zoo["mlp-nonlinear-output"] = fg.mlp_model(layers, head=fg.Head("softmax", target=0))
    zoo["mlp-one-identity-layer"] = fg.mlp_model([fg.Layer([[1.0, -2.0, 0.5]], [0.1])], head=fg.Head("sigmoid"))
    return zoo


LAPLACIAN_ZOO = _laplacian_zoo()


class TestLaplacianBatch:
    @pytest.mark.parametrize("model", LAPLACIAN_ZOO.values(), ids=LAPLACIAN_ZOO.keys())
    def test_matches_the_finite_difference_oracle(self, model):
        # divergence_fd's central differences of the gradient have O(h^2) truncation error at
        # h = 1e-4, 1e-8 times a fourth derivative: 100 h^2 leaves room for these models' sizes
        xs = np.random.default_rng(1).normal(scale=0.8, size=(6, 3))
        got = fg.laplacian_batch(model, xs)
        assert got.shape == (6,)
        want = [divergence_fd(model, x) for x in xs]
        np.testing.assert_allclose(got, want, rtol=0, atol=100 * 1e-4**2)

    def test_closed_forms(self):
        xs = np.random.default_rng(2).standard_normal((4, 3))
        assert np.array_equal(fg.laplacian_batch(fg.linear_model([1.0, 2.0, 3.0]), xs), np.zeros(4))
        assert np.array_equal(fg.laplacian_batch(fg.quadratic_model([1.0, 2.0, -4.0]), xs), np.full(4, -1.0))
        # a bump's Laplacian is -N / sigma^2 at its peak
        assert fg.laplacian_batch(fg.gauss_bump(3, sigma=0.5), np.zeros((1, 3)))[0] == pytest.approx(-12.0)

    def test_relu_is_not_smooth(self):
        model = fg.random_mlp(2, hidden=(4,), activation="relu", seed=0)
        sphere = SphereSpec(np.zeros(2), 0.5)
        for call in (lambda: fg.laplacian_batch(model, np.zeros((1, 2))),
                     lambda: fg.volume_divergence_integral(model, sphere, 100),
                     lambda: fg.divergence_theorem_report(model, sphere, 100)):
            with pytest.raises(fg.NotSmooth, match="continuously differentiable"):
                call()


def _field_model():  # verify-field's model shape: dim 8, hidden (32,) tanh, 3 logits, softmax head
    return fg.random_mlp(8, hidden=(32,), out_dim=3, activation="tanh", seed=9, head=fg.Head("softmax", target=0))


def _deep_and_wide_nets():
    """Shapes the zoo lacks: a layer product after the first-layer fold, no second layer, and N far from K2."""
    rng = np.random.default_rng(4)
    widths, acts = (5, 7, 4, 6, 3), ("tanh", "softplus", "identity", "identity")
    mixed = [fg.Layer(rng.standard_normal((n_out, n_in)) / 2, 0.1 * rng.standard_normal(n_out), act)
             for n_in, n_out, act in zip(widths, widths[1:], acts)]
    return {
        "three-hidden-tanh-softplus-identity": fg.mlp_model(mixed, head=fg.Head("softmax", target=2)),
        "one-tanh-layer-softmax": fg.mlp_model([fg.Layer(rng.standard_normal((3, 4)), rng.standard_normal(3), "tanh")],
                                               head=fg.Head("softmax", target=1)),
        "verify-field-dim-8": _field_model(),
        "wide-input-64-16-10": fg.random_mlp(64, hidden=(16,), out_dim=10, seed=2, head=fg.Head("softmax", target=3)),
    }


DEEP_AND_WIDE_NETS = _deep_and_wide_nets()


@pytest.mark.parametrize("model", DEEP_AND_WIDE_NETS.values(), ids=DEEP_AND_WIDE_NETS.keys())
def test_deep_and_wide_nets_match_the_finite_difference_oracle(model):
    xs = np.random.default_rng(1).normal(scale=0.8, size=(6, model.dim))
    want = [divergence_fd(model, x) for x in xs]
    np.testing.assert_allclose(fg.laplacian_batch(model, xs), want, rtol=0, atol=100 * 1e-4**2)


def _per_direction_laplacian(layers, xs):
    """Reference: the forward Laplacian with one input direction's tangents at a time, rows first."""
    a, slopes = xs, []
    for layer in layers:
        a = models._act(layer.activation, a @ layer.weight.T + layer.bias)
        slopes.append(models._act_derivs(layer.activation, a))
    sq = [np.zeros_like(d1) for d1, _ in slopes]
    tangents = []
    for i in range(xs.shape[1]):
        t = np.zeros(xs.shape[1])
        t[i] = 1.0
        for layer, (d1, _), s in zip(layers, slopes, sq):
            t = t @ layer.weight.T
            s += t * t
            t = d1 * t
        tangents.append(t.T)  # direction i's (K, n) Jacobian column
    lap = np.zeros(xs.shape[1])
    for layer, (d1, d2), s in zip(layers, slopes, sq):
        lap = d1 * (lap @ layer.weight.T) + d2 * s
    return a, lap, np.stack(tangents)


MLP_NETS = {name: m for name, m in {**LAPLACIAN_ZOO, **DEEP_AND_WIDE_NETS}.items() if m.kind == "mlp"}


@pytest.mark.parametrize("model", MLP_NETS.values(), ids=MLP_NETS.keys())
def test_direction_major_pass_matches_the_per_direction_loop(model):
    # the same sums in another order: the products may round differently, so agree to 1e-12 of each array's size
    xs = np.random.default_rng(3).normal(scale=0.8, size=(40, model.dim))
    arrays = models._mlp_laplacian(model.params, xs, models._laplacian_fold(model.params))
    for got, want in zip(arrays, _per_direction_laplacian(model.params, xs)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def _unit_slope_laplacian(layers, xs, fold):
    """Reference: _mlp_laplacian with an identity layer's slope arrays of ones and zeros, and their x1 and +0 passes."""
    a, slopes = xs.T, []
    for layer in layers:
        a = models._act(layer.activation, layer.weight @ a + layer.bias[:, None])
        slopes.append(models._act_derivs(layer.activation, a))
    w1 = layers[0].weight
    t = (fold @ slopes[0][0]).reshape(xs.shape[1], len(fold) // xs.shape[1], len(xs))
    sq = [np.sum(w1 * w1, axis=1)[:, None]]
    for k, layer in enumerate(layers[1:], 1):
        t = t if k == 1 else layer.weight @ t
        sq.append(np.einsum("ikn,ikn->kn", t, t))
        t *= slopes[k][0]
    lap = slopes[0][1] * sq[0]
    for layer, (d1, d2), s in zip(layers[1:], slopes[1:], sq[1:]):
        lap = d1 * (layer.weight @ lap) + d2 * s
    return a.T, lap.T, t


def _identity_layer_nets():
    rng = np.random.default_rng(8)
    stacks = {
        "first-and-last": ("identity", "tanh", "identity"),
        "hidden-and-last": ("tanh", "identity", "softplus", "identity"),
        "two-in-a-row": ("softplus", "identity", "identity"),
        "first-two-then-tanh": ("identity", "identity", "tanh"),
        "only-one": ("identity",),
        "none": ("tanh", "softplus"),
    }
    nets = {}
    for name, acts in stacks.items():
        widths = (4, *rng.integers(2, 7, len(acts) - 1), 3)
        layers = [fg.Layer(rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out), act)
                  for n_in, n_out, act in zip(widths, widths[1:], acts)]
        nets[name] = fg.mlp_model(layers, head=fg.Head("softmax", target=1))
    return nets


IDENTITY_LAYER_NETS = _identity_layer_nets()


@pytest.mark.parametrize("model", IDENTITY_LAYER_NETS.values(), ids=IDENTITY_LAYER_NETS.keys())
def test_identity_layers_skip_their_unit_slopes_bit_for_bit(model):
    # a later identity layer gets no slope arrays and no x1 and +0 passes; the first keeps its ones, the fold's operand
    xs = np.random.default_rng(6).normal(scale=0.8, size=(300, model.dim))
    fold = models._laplacian_fold(model.params)
    got = models._mlp_laplacian(model.params, xs, fold)
    want = _unit_slope_laplacian(model.params, xs, fold)
    for g, w, slow in zip(got, want, _per_direction_laplacian(model.params, xs)):
        assert g.shape == w.shape and np.array_equal(g, w)
        np.testing.assert_allclose(g, slow, rtol=0, atol=1e-12 * max(1.0, np.abs(slow).max()))


def _explicit_gram_laplacian(model, xs):
    """Reference: the head's chain rule on the (n, K, K) Gram matrix of the raw input gradients, formed explicitly."""
    if model.kind == "mlp":
        raw, lap, t = models._mlp_laplacian(model.params, xs, models._laplacian_fold(model.params))
        gram = np.einsum("ikn,iln->nkl", t, t)
    else:
        raw, forward = models._raw_batch(model, xs)
        lap = fg.laplacian_batch(model._replace(head=fg.Head()), xs)[:, None]  # the raw Laplacian
        gram = np.sum(models._raw_grad_batch(model, xs, forward, np.ones_like(raw)) ** 2, axis=1)[:, None, None]
    h = model.head
    if h.type == "identity" or h.use_logit:
        return lap[:, h.target or 0]
    if h.type == "sigmoid":
        p = models.expit(raw[:, 0])
        return p * (1.0 - p) * (lap[:, 0] + (1.0 - 2.0 * p) * gram[:, 0, 0])
    p = models.softmax(raw)
    u = np.eye(p.shape[1])[h.target] - p
    quad_u, quad_p = (np.einsum("nk,nkl,nl->n", v, gram, v) for v in (u, p))
    return p[:, h.target] * (np.sum(u * lap, axis=1) + quad_u - np.einsum("nkk,nk->n", gram, p) + quad_p)


HEADED_MODELS = {**LAPLACIAN_ZOO, **DEEP_AND_WIDE_NETS}


@pytest.mark.parametrize("model", HEADED_MODELS.values(), ids=HEADED_MODELS.keys())
def test_head_reads_the_tangents_as_the_explicit_gram_chain_rule_does(model):
    # the head contracts the tangents direction by direction; u'Gu, p.diag(G) and p'Gp summed in another order
    xs = np.random.default_rng(7).normal(scale=0.8, size=(300, model.dim))
    want = _explicit_gram_laplacian(model, xs)
    np.testing.assert_allclose(fg.laplacian_batch(model, xs), want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_report_checks_the_gradient(monkeypatch):
    # The volume side no longer goes through gradient_batch, so a gradient 10% too large fails the report.
    model = fg.random_mlp(3, hidden=(6,), activation="softplus", seed=5)
    sphere = SphereSpec(np.array([0.2, 0.1, -0.3]), 0.5)
    assert fg.divergence_theorem_report(model, sphere, 20000, seed=1).passed
    exact = fg.divergence.gradient_batch
    monkeypatch.setattr(fg.divergence, "gradient_batch", lambda m, xs: 1.1 * exact(m, xs))
    assert not fg.divergence_theorem_report(model, sphere, 20000, seed=1).passed


def test_pairs_fail_a_gradient_10_percent_too_large_at_the_cli_default(monkeypatch):
    # with one draw per row this report passed: diff 2.0e-4 against a standard error of 5.3e-4
    model = fg.random_mlp(4, hidden=(8,), out_dim=3, activation="tanh", seed=1, head=fg.Head("softmax", target=0))
    sphere = SphereSpec(np.zeros(4), 0.5)
    assert fg.divergence_theorem_report(model, sphere, 100_000).passed
    exact = fg.divergence.gradient_batch
    monkeypatch.setattr(fg.divergence, "gradient_batch", lambda m, xs: 1.1 * exact(m, xs))
    assert not fg.divergence_theorem_report(model, sphere, 100_000).passed


@pytest.mark.parametrize("integral", [fg.volume_divergence_integral, fg.surface_flux_integral])
def test_standard_error_matches_the_spread_across_seeds(integral):
    # the pairs' standard error, not the rows': rows that are pairs' halves would read several times too wide
    model, sphere = _field_model(), SphereSpec(np.full(8, 0.1), 0.5)
    estimates = [integral(model, sphere, 2000, seed=seed) for seed in range(200)]
    spread = np.std([est.value for est in estimates], ddof=1)
    reported = np.sqrt(np.mean([est.standard_error ** 2 for est in estimates]))
    assert reported == pytest.approx(spread, rel=0.2)


@pytest.mark.parametrize("k", [1, 2, 5, 6])
def test_pairs_are_a_direction_and_its_exact_negation(k):
    u = np.random.default_rng(0).standard_normal((k - k // 2, 3))
    rows = fg.divergence._mirrored(u, k)
    assert np.array_equal(rows[::2], u) and np.array_equal(rows[1::2], -u[:k // 2])


@pytest.mark.parametrize("vals, units", [
    ([7.0], [7.0]), ([1.0, 3.0], [2.0]), ([1.0, 3.0, 2.0, 6.0, 10.0], [2.0, 4.0, 10.0]),
    ([[1.0, 0.0], [3.0, -4.0], [5.0, 1.0]], [[2.0, -2.0], [5.0, 1.0]]),  # element-wise rows
])
def test_estimate_units_are_pair_means_and_an_odd_last_row(vals, units):
    est, units = fg.divergence._estimate(np.array(vals), 2.0), np.array(units)
    se = 2.0 * units.std(axis=0, ddof=1) / np.sqrt(len(units)) if len(units) > 1 else np.zeros_like(units[0])
    assert est.samples == len(vals)
    assert np.array_equal(est.value, 2.0 * units.mean(axis=0)) and np.array_equal(est.standard_error, se)


def test_a_report_needs_two_units_a_side():
    # 2 samples are one pair a side, so standard error 0: a correct model's Monte Carlo difference would FAIL
    model, sphere = _field_model(), SphereSpec(np.full(8, 0.1), 0.5)
    for samples in (1, 2):
        with pytest.raises(ValueError, match="samples must be >= 3"):
            fg.divergence_theorem_report(model, sphere, samples)
    report = fg.divergence_theorem_report(model, sphere, 3)  # a pair and a lone row a side
    assert report.combined_standard_error > 0.0 and report.passed


def test_exactly_zero_report_passes():
    assert fg.DivergenceTheoremReport(0.0, 0.0, 0.0, 10).passed
    report = fg.divergence_theorem_report(fg.quadratic_model([0.0, 0.0]), SphereSpec(np.zeros(2), 1.0), 1000)
    assert report.volume_integral == report.surface_integral == report.combined_standard_error == 0.0
    assert report.passed


def test_report_temporaries_stay_within_the_block_budget():
    model, samples = _field_model(), 10_000
    tracemalloc.start()
    try:
        fg.divergence_theorem_report(model, SphereSpec(np.full(8, 0.1), 0.5), samples, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the surface side's normals, points and gradients, the gradient blocks before they are
    # joined, and a handful of block temporaries; one unblocked (10,000, 32) temporary is 20 blocks
    assert peak < 8 * models._BLOCK_BYTES + 4 * samples * model.dim * 8


def test_volume_side_holds_one_sample_array_plus_block_temporaries():
    model, samples = _field_model(), 10_000
    sphere = SphereSpec(np.full(8, 0.1), 0.5)
    tracemalloc.start()
    try:
        fg.volume_divergence_integral(model, sphere, samples, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the ball's points, scaled and shifted where they were drawn and normed 128 KiB of rows at a time, and
    # laplacian_batch's block temporaries (about five); drawing out of place held three (samples, N) arrays
    assert peak < samples * model.dim * 8 + 6 * models._BLOCK_BYTES


class _ZeroRowFirst:
    """A generator whose first normal draw has an all-zero row, which sphere_directions must redraw."""

    def __init__(self, seed, row):
        self.rng, self.row = np.random.default_rng(seed), row

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        if self.row is not None:
            g[self.row], self.row = 0.0, None
        return g


def _out_of_place_directions(rng, n, dim):
    """Reference: sphere_directions as it was, normed in one pass and divided into a new array."""
    g = rng.standard_normal((n, dim))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-300):
        bad = norms < 1e-300
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


@pytest.mark.parametrize("n, dim", [(1, 3), (5000, 8), (50, 784), (17_000, 1)])  # the last three in 3 norm blocks
@pytest.mark.parametrize("zero_row", [None, 0, -1])
def test_in_place_draws_equal_the_out_of_place_formulas(n, dim, zero_row):
    got = geometry.sphere_directions(_ZeroRowFirst(1, zero_row), n, dim)
    assert np.array_equal(got, _out_of_place_directions(_ZeroRowFirst(1, zero_row), n, dim))


def test_directions_normed_in_8_row_blocks_equal_the_one_block_draw(monkeypatch):
    # geometry reads models._BLOCK_BYTES at each draw, so a smaller budget reaches the norms
    whole = geometry.sphere_directions(np.random.default_rng(6), 50, 8)
    monkeypatch.setattr(models, "_BLOCK_BYTES", 8 * 8 * 8)  # 8 rows a block
    blocks, row_norms = [], geometry._row_norms
    monkeypatch.setattr(geometry, "_row_norms", lambda a: blocks.append(len(a)) or row_norms(a))
    assert geometry.sphere_directions(np.random.default_rng(6), 50, 8).tobytes() == whole.tobytes()
    assert blocks == [8] * 6 + [2]


@pytest.mark.parametrize("samples", [1, 513, 1537])
def test_surface_block_draws_match_one_whole_draw(samples):
    # each 512-row block draws the directions of its 256 pairs, the stream one draw of every pair's direction
    # makes; rows 2j and 2j + 1 take direction j as u and as -u, and an odd count's last row is unpaired
    model, sphere = _field_model(), SphereSpec(np.full(8, 0.1), 0.5)
    dirs = geometry.sphere_directions(np.random.default_rng(4), samples - samples // 2, 8)
    normals = dirs[np.arange(samples) // 2] * np.where(np.arange(samples) % 2, -1.0, 1.0)[:, None]
    grads = np.concatenate([fg.gradient_batch(model, sphere.center + sphere.radius * normals[rows])
                            for rows in models._row_blocks(model, samples, model.dim)])
    flux = np.einsum("ij,ij->i", grads, normals)
    masks = {"all": np.ones(samples, dtype=bool), "negative": flux < 0.0, "positive": flux >= 0.0}
    for mode in fg.divergence.MODES:
        for subset, mask in masks.items():
            vals = np.where(mask, flux, 0.0) if mode == "dot" else grads * normals * mask[:, None]
            want = fg.divergence._estimate(vals, fg.sphere_area(8, 0.5))
            got = fg.surface_flux_integral(model, sphere, samples, seed=4, mode=mode, subset=subset)
            assert np.array_equal(got.value, want.value) and np.array_equal(got.standard_error, want.standard_error)


@pytest.mark.parametrize("samples", [1, 513, 10_000])
@pytest.mark.parametrize("integral", [fg.volume_divergence_integral, fg.surface_flux_integral])
def test_each_side_draws_its_directions_in_one_call(monkeypatch, integral, samples):
    calls, draw = [], fg.divergence.sphere_directions
    monkeypatch.setattr(fg.divergence, "sphere_directions", lambda *a: calls.append(a[1]) or draw(*a))
    integral(_field_model(), SphereSpec(np.full(8, 0.1), 0.5), samples, seed=4)
    assert calls == [samples - samples // 2]


def test_reports_are_pinned():
    # The sha256 of verify-field's 8 reports (its model and 4 centres at seeds 31 and 104729, 10,000 samples),
    # and of the element-wise negative-flux surface estimate at 513 and 1,537 samples, recorded while the
    # surface side drew its directions a block at a time: any drift in a report or an estimate fails here.
    reports = hashlib.sha256()
    for seed in (31, 104729):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        model = fg.random_mlp(8, hidden=(32,), out_dim=3, activation="tanh", seed=int(rng.integers(2**31)),
                              head=fg.Head("softmax", target=0))
        for sphere, mc_seed in [(SphereSpec(0.5 * rng.standard_normal(8), 0.5), int(rng.integers(2**31)))
                                for _ in range(4)]:
            reports.update(fg.divergence_theorem_report(model, sphere, 10_000, seed=mc_seed).json_str().encode())
    surface = hashlib.sha256()
    for samples in (513, 1537):
        est = fg.surface_flux_integral(_field_model(), SphereSpec(np.full(8, 0.1), 0.5), samples, seed=4,
                                       mode="elementwise", subset="negative")
        surface.update(est.value.tobytes() + est.standard_error.tobytes())
    assert reports.hexdigest() == "0245a72471e834f32bb621403f886a1bc49e7ae55285bb56eb18ee7860894eac"
    assert surface.hexdigest() == "b8a2bd5c92a64f61b2c1fdf148c93224141b7efe5fdee29441ccfe1beaf51fc6"

@pytest.mark.parametrize("samples", [1, 513, 1537])  # 512 rows a block for this model
def test_sample_counts_off_the_block_size(samples):
    model, sphere = _field_model(), SphereSpec(np.full(8, 0.1), 0.5)
    assert models._row_blocks(model, 1537, model.dim)[0] == slice(0, 512)
    estimates = [fg.volume_divergence_integral(model, sphere, samples, seed=3)]
    estimates += [fg.surface_flux_integral(model, sphere, samples, seed=4, mode=mode, subset=subset)
                  for mode in fg.divergence.MODES for subset in fg.divergence.SUBSETS]
    for est in estimates:
        assert est.samples == samples
        assert np.all(np.isfinite(est.value)) and np.all(np.isfinite(est.standard_error))


@pytest.mark.parametrize("model, rows", [
    (fg.quadratic_model(np.linspace(0.5, 2.0, 64)), 256),  # (rows x 64) gradients
    (fg.random_mlp(64, hidden=(16,), out_dim=3, seed=1, head=fg.Head("softmax", target=0)), 1024),  # widest layer 16
])
def test_both_sides_pass_their_points_in_row_blocks(monkeypatch, model, rows):
    # the surface side calls gradient_batch per block; the volume side hands every point to
    # laplacian_batch, which runs the same blocks itself
    seen = []
    for module, name in ((models, "_block_laplacian"), (fg.divergence, "gradient_batch")):
        batch = getattr(module, name)
        monkeypatch.setattr(module, name, lambda m, xs, *a, batch=batch: seen.append(len(xs)) or batch(m, xs, *a))
    fg.divergence_theorem_report(model, SphereSpec(np.zeros(64), 0.5), 2500)
    tail = 2500 - (2500 // rows) * rows
    assert seen == 2 * ([rows] * (2500 // rows) + [tail])


FOLD_NETS = {
    "narrow-verify-field": (_field_model(), 1100),  # 512 rows a block
    "wide-256-64-10": (fg.random_mlp(256, hidden=(64,), out_dim=10, seed=6, head=fg.Head("softmax", target=4)), 600),
}


@pytest.mark.parametrize("model, n", FOLD_NETS.values(), ids=FOLD_NETS.keys())
def test_laplacian_blocks_its_rows_and_builds_the_fold_once(monkeypatch, model, n):
    xs = np.random.default_rng(5).normal(scale=0.8, size=(n, model.dim))
    blocks = models._row_blocks(model, n, model.dim)
    assert len(blocks) == 3
    per_block = np.concatenate([fg.laplacian_batch(model, xs[rows]) for rows in blocks])
    folds = []
    fold = models._laplacian_fold
    monkeypatch.setattr(models, "_laplacian_fold", lambda layers: folds.append(1) or fold(layers))
    assert np.array_equal(fg.laplacian_batch(model, xs), per_block)
    assert len(folds) == 1


def test_laplacian_of_no_rows_is_empty():
    for model in (_field_model(), fg.quadratic_model([1.0, 2.0])):
        assert fg.laplacian_batch(model, np.empty((0, model.dim))).shape == (0,)


def test_measures_name_an_overflow_as_a_fluxgrad_value_error():
    # at dim 8 the volume c r^8 passes the largest float near r = 3e38, and r^8 itself near r = 7e38
    for radius, size in ((3e38, "2.7e+308"), (8e38, "6.8e+311")):
        want = f"the ball volume of radius {radius:g} in R^8 overflows a float: about {size}"
        with pytest.raises(fg.MeasureOverflow, match=re.escape(want)) as info:
            fg.ball_volume(8, radius)
        assert isinstance(info.value, fg.FluxgradError) and isinstance(info.value, ValueError)
    assert np.isfinite(fg.sphere_area(8, 8e38))
    with pytest.raises(fg.MeasureOverflow, match="sphere area of radius 1e\\+44 in R\\^8 overflows"):
        fg.sphere_area(8, 1e44)
    for radius in (8e38, 3e38):  # the report refuses the ball before it writes any estimate
        with pytest.raises(fg.MeasureOverflow):
            fg.divergence_theorem_report(fg.quadratic_model(np.ones(8)), SphereSpec(np.zeros(8), radius), samples=8)
    # at 2.5e38 the ball's volume is a float, but the bowl's Laplacian 8 integrated over it is not
    assert np.isfinite(fg.ball_volume(8, 2.5e38))
    want = "the divergence integrals over the ball of radius 2.5e+38 in R^8 overflow a float"
    with pytest.raises(fg.MeasureOverflow, match=re.escape(want)):
        fg.divergence_theorem_report(fg.quadratic_model(np.ones(8)), SphereSpec(np.zeros(8), 2.5e38), samples=500)


@pytest.mark.parametrize("integral", [fg.volume_divergence_integral, fg.surface_flux_integral])
def test_each_integral_refuses_its_own_overflow(integral):
    # the ball's measure is a float, but the bowl's Laplacian 8 over it, or its flux over the sphere, is not
    with pytest.raises(fg.MeasureOverflow, match="a Monte Carlo estimate over a measure of .* overflows a float"):
        integral(fg.quadratic_model(np.ones(8)), SphereSpec(np.zeros(8), 2.5e38), 500)

def test_measures_are_the_closed_forms_where_a_factor_leaves_the_float_range():
    # r^60 overflows at r = 2e5, but the ball's volume, about 3.6e300, is a float
    log_want = 30 * np.log(np.pi) - np.sum(np.log(np.arange(1.0, 31.0))) + 60 * np.log(2e5)
    assert fg.ball_volume(60, 2e5) == pytest.approx(np.exp(log_want), rel=1e-12)
    assert fg.ball_volume(3, 0.5) == pytest.approx(np.pi / 6.0, rel=1e-15)
    assert fg.sphere_area(3, 0.5) == pytest.approx(np.pi, rel=1e-15)
    for radius in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            fg.ball_volume(3, radius)
