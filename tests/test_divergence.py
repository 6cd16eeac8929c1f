import numpy as np
import pytest
from scipy.integrate import quad

import fluxgrad as fg
from fluxgrad.neflag import SphereSpec


class TestDivergenceFd:
    def test_quadratic_divergence_is_trace(self):
        m = fg.quadratic_model([1.0, 2.0, 3.0])
        for x in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
            assert fg.divergence_fd(m, x) == pytest.approx(6.0, abs=1e-6)

    def test_linear_field_has_zero_divergence(self):
        m = fg.linear_model([1.0, -3.0])
        assert fg.divergence_fd(m, [2.0, 5.0]) == pytest.approx(0.0, abs=1e-9)

    def test_gauss_bump_laplacian_at_peak(self):
        m = fg.gauss_bump(2)
        assert fg.divergence_fd(m, [0.0, 0.0]) == pytest.approx(-2.0, abs=1e-5)

    def test_relu_field_rejected(self):
        m = fg.random_mlp(2, hidden=(4,), activation="relu", seed=0)
        with pytest.raises(fg.NotSmooth, match="continuously differentiable"):
            fg.divergence_fd(m, [0.1, 0.2])


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
        assert abs(est.value) < 3.0 * est.standard_error

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
