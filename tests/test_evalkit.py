from itertools import permutations

import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad.attribution import AttributionMap
from fluxgrad import evalkit
from fluxgrad.evalkit import EvalConfig, feature_order, make_method, replacement_input


def constant_model(c, dim=2):
    return fg.linear_model(np.zeros(dim), b=c)


class TestCurves:
    def test_constant_model_flat_curves(self):
        m = constant_model(0.7)
        att = AttributionMap([1.0, -1.0], "x")
        dele = fg.deletion_curve(m, [1.0, 2.0], att)
        ins = fg.insertion_curve(m, [1.0, 2.0], att)
        assert np.all(dele.scores == 0.7) and dele.auc == pytest.approx(0.7)
        assert np.all(ins.scores == 0.7) and ins.auc == pytest.approx(0.7)

    def test_linear_hand_evaluation(self):
        m = fg.linear_model([1.0, 1.0])
        x = [1.0, 1.0]
        att = AttributionMap([1.0, 1.0], "x")
        dele = fg.deletion_curve(m, x, att, EvalConfig("black"))
        assert np.array_equal(dele.scores, [2.0, 1.0, 0.0])
        assert dele.auc == pytest.approx(1.0)
        ins = fg.insertion_curve(m, x, att, EvalConfig("black"))
        assert np.array_equal(ins.scores, [0.0, 1.0, 2.0])
        assert ins.auc == pytest.approx(1.0)

    def test_shared_ordering_and_endpoint_identity(self):
        model = fg.random_mlp(5, hidden=(6,), activation="tanh",
                              head=fg.Head("sigmoid"), seed=3)
        x = np.array([0.5, -1.0, 0.2, 0.9, -0.3])
        att = fg.saliency(model, x)
        for repl in ("black", "mean"):
            cfg = EvalConfig(repl)
            dele = fg.deletion_curve(model, x, att, cfg)
            ins = fg.insertion_curve(model, x, att, cfg)
            assert dele.scores[-1] == ins.scores[0]
            assert dele.scores[0] == ins.scores[-1]

    def test_auc_invariant_to_positive_rescaling(self):
        model = fg.random_mlp(4, hidden=(5,), activation="tanh", seed=1)
        x = np.array([0.1, 0.7, -0.4, 0.3])
        att = fg.saliency(model, x)
        scaled = AttributionMap(att.values * 7.0, att.method)
        for curve in (fg.deletion_curve, fg.insertion_curve):
            a = curve(model, x, att)
            b = curve(model, x, scaled)
            assert np.array_equal(a.scores, b.scores)
            assert a.auc == b.auc

    def test_tie_break_by_feature_index(self):
        att = AttributionMap([1.0, 2.0, 2.0, 0.5], "x")
        assert feature_order(att).tolist() == [1, 2, 0, 3]

    def test_dimension_mismatch(self):
        m = fg.linear_model([1.0, 1.0])
        with pytest.raises(fg.DimensionMismatch):
            fg.deletion_curve(m, [1.0, 1.0], AttributionMap([1.0], "x"))

    def test_ground_truth_maximizes_insertion_auc(self):
        # Exhaustive permutation oracle at N=5: on a monotone linear model
        # with all-positive contributions, inserting by true contribution
        # order dominates every other ordering.
        a = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        x = np.ones(5)
        m = fg.linear_model(a)
        cfg = EvalConfig("black")
        best = fg.insertion_curve(m, x, AttributionMap(a * x, "gt"), cfg).auc
        for perm in permutations(range(5)):
            vals = np.empty(5)
            vals[list(perm)] = np.arange(5, 0, -1)
            auc = fg.insertion_curve(m, x, AttributionMap(vals, "perm"), cfg).auc
            assert auc <= best + 1e-12


def curve_rows(start, target, order, step):
    """Fractions and rows of a curve, the rows built one by one: the reference."""
    n = start.size
    counts = sorted(set(range(0, n, step)) | {n})
    rows = np.tile(start, (len(counts), 1))
    for i, k in enumerate(counts):
        rows[i, order[:k]] = target[order[:k]]
    return np.asarray(counts, dtype=float) / n, rows


def _gauss(head):
    rng = np.random.default_rng(4)
    return fg.gauss_mixture_model([1.0, 0.5, 2.0], rng.standard_normal((3, 10)), [1.5, 2.0, 3.0], head)


ORACLE_MODELS = {
    "linear-identity": lambda: fg.linear_model(np.linspace(-1.0, 2.0, 10), b=3.0),
    "linear-sigmoid": lambda: fg.linear_model(np.linspace(-1.0, 2.0, 10), b=0.5, head=fg.Head("sigmoid")),
    "quadratic-identity": lambda: fg.quadratic_model(np.linspace(0.5, 3.0, 10), np.linspace(-1.0, 1.0, 10)),
    "quadratic-sigmoid": lambda: fg.quadratic_model(np.linspace(0.5, 3.0, 10), head=fg.Head("sigmoid")),
    "gauss-identity": lambda: _gauss(fg.Head()),
    "gauss-sigmoid": lambda: _gauss(fg.Head("sigmoid")),
    "mlp-identity": lambda: fg.random_mlp(10, hidden=(6, 4), activation="tanh", seed=1),
    "mlp-sigmoid": lambda: fg.random_mlp(10, hidden=(8,), activation="relu", seed=2, head=fg.Head("sigmoid")),
    "mlp-softmax": lambda: fg.random_mlp(10, hidden=(7,), out_dim=3, activation="softplus", seed=3,
                                         head=fg.Head("softmax", target=2)),
    "mlp-softmax-logit": lambda: fg.random_mlp(10, hidden=(7,), out_dim=3, activation="softplus", seed=3,
                                               head=fg.Head("softmax", target=0, use_logit=True)),
}


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_curves_match_row_by_row_oracle(name, step, absolute):
    # n = 10 is not a multiple of 3, so the last step moves a single feature.
    model = ORACLE_MODELS[name]()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10)
    att = AttributionMap(rng.standard_normal(10), "r")
    order = feature_order(att, absolute)
    for cfg in (EvalConfig("black", step, absolute), EvalConfig("mean", step, absolute),
                EvalConfig("blur", step, absolute, grid=(2, 5))):
        repl = replacement_input(x, cfg)
        for curve, start, target in ((fg.deletion_curve, x, repl), (fg.insertion_curve, repl, x)):
            fractions, rows = curve_rows(start, target, order, step)
            got = curve(model, x, att, cfg)
            assert np.array_equal(got.fractions, fractions)
            np.testing.assert_allclose(got.scores, fg.evaluate_batch(model, rows), rtol=1e-12, atol=0)
            assert got.auc == pytest.approx(np.trapezoid(got.scores, fractions), rel=1e-15)


@pytest.mark.parametrize("repl", ["black", "mean"])
def test_non_finite_input_still_rejected(repl):
    m = fg.random_mlp(3, hidden=(4,), seed=0)
    att = AttributionMap([1.0, 2.0, 3.0], "x")
    for bad in (np.nan, np.inf):
        for curve in (fg.deletion_curve, fg.insertion_curve):
            with pytest.raises(fg.NonFiniteInput):
                curve(m, [0.5, bad, 1.0], att, EvalConfig(repl))


@pytest.mark.parametrize("cfg", [EvalConfig("blur", grid=(2, 5)), EvalConfig("blur"), EvalConfig("black")],
                         ids=["blur-grid", "blur-no-grid", "black"])
def test_benchmark_job_builds_four_curves(monkeypatch, cfg):
    model = fg.random_mlp(10, hidden=(6,), activation="tanh", seed=5, head=fg.Head("sigmoid"))
    x = np.random.default_rng(5).uniform(0.0, 1.0, 10)
    calls = []
    for name in ("deletion_curve", "insertion_curve"):
        curve = getattr(evalkit, name)
        monkeypatch.setattr(evalkit, name, lambda *a, _curve=curve, **k: calls.append(1) or _curve(*a, **k))
    row = fg.benchmark(model, [x], {"saliency": make_method("saliency")}, cfg).results[0]
    assert len(calls) == 4
    monkeypatch.undo()
    att = fg.saliency(model, x)
    assert row.difference_mean == fg.two_round_difference(model, x, att, cfg)
    assert row.deletion_mean == fg.deletion_curve(model, x, att, cfg).auc
    assert row.insertion_mean == fg.insertion_curve(model, x, att, cfg).auc


class TestReplacement:
    def test_black_is_zero_vector(self):
        assert np.array_equal(replacement_input([1.0, -2.0], EvalConfig("black")),
                              np.zeros(2))

    def test_mean_replacement(self):
        assert np.array_equal(replacement_input([1.0, 3.0], EvalConfig("mean")),
                              [2.0, 2.0])

    def test_blur_requires_grid_else_mean(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        no_grid = replacement_input(x, EvalConfig("blur"))
        assert np.array_equal(no_grid, np.full(4, 4.0))
        blurred = replacement_input(x, EvalConfig("blur", grid=(2, 2)))
        assert blurred.shape == (4,)
        assert not np.array_equal(blurred, x)
        assert blurred.mean() == pytest.approx(x.mean(), rel=0.2)

    def test_blur_grid_must_match(self):
        with pytest.raises(fg.DimensionMismatch):
            replacement_input(np.ones(5), EvalConfig("blur", grid=(2, 2)))


class TestDifferenceScore:
    def test_constant_model_zero(self):
        m = constant_model(0.4)
        att = AttributionMap([1.0, 2.0], "x")
        assert fg.difference_score(m, [1.0, 1.0], att) == pytest.approx(0.0)

    def test_ground_truth_on_monotone_linear_model_positive(self):
        a = np.array([3.0, 2.0, 1.0])
        x = np.array([1.0, 1.0, 1.0])
        m = fg.linear_model(a)
        att = AttributionMap(a * x, "gt")
        assert fg.difference_score(m, x, att, EvalConfig("black")) > 0

    def test_two_round_average(self):
        m = fg.linear_model([1.0, 2.0])
        x = np.array([0.5, 1.5])
        att = AttributionMap([0.5, 3.0], "gt")
        black = fg.difference_score(m, x, att, EvalConfig("black"))
        mean = fg.difference_score(m, x, att, EvalConfig("mean"))
        assert fg.two_round_difference(m, x, att) == pytest.approx((black + mean) / 2)


class TestBenchmark:
    def test_constant_model_all_entries_equal(self):
        m = constant_model(0.3)
        methods = {"saliency": make_method("saliency")}
        report = fg.benchmark(m, [np.array([1.0, 2.0])], methods, seed=0)
        row = report.results[0]
        assert row.deletion_mean == pytest.approx(0.3)
        assert row.insertion_mean == pytest.approx(0.3)
        assert row.difference_mean == pytest.approx(0.0)

    def test_full_table_is_finite(self):
        X, y = fg.blob_dataset(60, margin=1.0, seed=3)
        fit = fg.fit_toy_model(X, y, epochs=300)
        methods = {
            name: make_method(name)
            for name in ("neflag", "ig", "smoothgrad", "saliency", "random")
        }
        report = fg.benchmark(fit.model, list(X[:10]), methods, seed=1)
        assert len(report.results) == 5
        for row in report.results:
            assert row.samples_ok == 10 and row.samples_failed == 0
            for v in (row.deletion_mean, row.insertion_mean, row.difference_mean):
                assert np.isfinite(v)

    def test_same_seed_identical_table(self):
        m = fg.random_mlp(3, hidden=(5,), activation="tanh",
                          head=fg.Head("sigmoid"), seed=2)
        inputs = [np.array([0.1, 0.2, 0.3]), np.array([-0.5, 0.4, 0.0])]
        methods = {"neflag": make_method("neflag"), "random": make_method("random")}
        a = fg.benchmark(m, inputs, methods, seed=5)
        b = fg.benchmark(m, inputs, methods, seed=5)
        assert a.csv_str() == b.csv_str()

    def test_per_sample_failures_are_recorded(self):
        # Attribution at the minimum of a bowl never finds negative flux.
        m = fg.quadratic_model([1.0, 1.0], head=fg.Head())
        inputs = [np.zeros(2), np.array([2.0, 2.0])]
        methods = {"neflag": make_method("neflag", n_samples=2)}
        report = fg.benchmark(m, inputs, methods, seed=0)
        row = report.results[0]
        assert row.samples_failed == 1 and row.samples_ok == 1
        assert row.deletion_se == row.insertion_se == row.difference_se == 0.0
        row = fg.benchmark(m, inputs[:1], methods, seed=0).results[0]
        assert row.samples_failed == 1 and row.samples_ok == 0
        assert np.all(np.isnan([row.deletion_mean, row.insertion_se, row.difference_mean]))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_method("shapley")

    def test_report_bytes(self):
        nan = float("nan")
        report = evalkit.BenchmarkReport(
            (evalkit.MethodResult("neflag", 0.1 + 0.2, 0.0, 0.5, 1e-17, -0.125, 2.5e-05, 3, 1),
             evalkit.MethodResult("random", nan, nan, nan, nan, nan, nan, 0, 4)),
            "blur", 7,
        )
        assert report.csv_str() == (
            "method,deletion_mean,deletion_se,insertion_mean,insertion_se,"
            "difference_mean,difference_se,samples_ok,samples_failed\n"
            "neflag,0.30000000000000004,0.0,0.5,1e-17,-0.125,2.5e-05,3,1\n"
            "random,nan,nan,nan,nan,nan,nan,0,4\n"
        )
        row = ('    {{\n      "deletion_mean": {0},\n      "deletion_se": {1},\n'
               '      "difference_mean": {4},\n      "difference_se": {5},\n'
               '      "insertion_mean": {2},\n      "insertion_se": {3},\n'
               '      "method": "{6}",\n      "samples_failed": {8},\n      "samples_ok": {7}\n    }}')
        assert report.json_str() == (
            '{\n  "methods": [\n'
            + row.format("0.30000000000000004", "0.0", "0.5", "1e-17", "-0.125", "2.5e-05", "neflag", 3, 1)
            + ",\n"
            + row.format(*["NaN"] * 6, "random", 0, 4)
            + '\n  ],\n  "replacement": "blur",\n  "seed": 7\n}\n'
        )


@pytest.mark.parametrize("name", evalkit.METHODS)
def test_every_catalogue_method_builds_a_full_map(name):
    model = fg.random_mlp(4, hidden=(5,), activation="tanh", head=fg.Head("sigmoid"), seed=1)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    amap = make_method(name)(model, x, 3)
    assert amap.method == name
    assert amap.values.shape == (4,) and np.all(np.isfinite(amap.values))
    with pytest.raises(ValueError, match="unknown attribution method"):
        make_method(name.upper())


class TestAttributionFiles:
    def test_json_round_trip(self):
        att = AttributionMap([1.0, -2.5, 0.0], "neflag", {"epsilon": 0.1}, 20)
        back = AttributionMap.from_json(att.to_json())
        assert np.array_equal(back.values, att.values)
        assert back.method == att.method
        assert back.samples_used == 20

    def test_csv_layout(self):
        att = AttributionMap([1.5, -0.5], "saliency")
        lines = att.csv_str().strip().splitlines()
        assert lines[0] == "feature,value"
        assert lines[1] == "0,1.5"

    def test_pgm_heatmap(self):
        att = AttributionMap([0.0, 1.0, -2.0, 0.5, 0.25, 0.75], "x")
        pgm = att.pgm_str((2, 3)).splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "3 2"
        assert pgm[2] == "255"
        pixels = [int(v) for row in pgm[3:] for v in row.split()]
        assert max(pixels) == 255 and min(pixels) == 0

    def test_pgm_grid_must_match(self):
        att = AttributionMap([1.0, 2.0, 3.0], "x")
        with pytest.raises(ValueError):
            att.pgm_str((2, 2))


@pytest.mark.parametrize("grid", [(28, 28), (1, 5), (5, 1), (3, 7)])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_blur_matches_scipy_uniform_filter(grid, radius):
    ndimage = pytest.importorskip("scipy.ndimage")
    x = np.random.default_rng(radius).uniform(0.0, 1.0, grid[0] * grid[1])
    want = x.reshape(grid)
    for _ in range(3):
        want = ndimage.uniform_filter(want, size=2 * radius + 1, mode="nearest")
    got = replacement_input(x, EvalConfig("blur", grid=grid, blur_radius=radius))
    assert np.max(np.abs(got - want.ravel())) <= 1e-12
