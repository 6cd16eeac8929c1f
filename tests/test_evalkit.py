import hashlib
import json
from collections import Counter
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
    def test_fractions_and_auc_come_from_the_scores(self):
        curve = fg.EvalCurve([1.0, 0.5, 0.0, 0.5])
        assert np.array_equal(curve.fractions, [0.0, 1 / 3, 2 / 3, 1.0])
        assert curve.auc == pytest.approx(1.25 / 3)
        for bad in ([1.0], [], [[1.0, 0.5]]):
            with pytest.raises(ValueError, match="at least 2 points"):
                fg.EvalCurve(bad)

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


def curve_rows(start, target, order):
    """Fractions and rows of a curve, the rows built one by one: the reference."""
    n = start.size
    rows = np.tile(start, (n + 1, 1))
    for k in range(n + 1):
        rows[k, order[:k]] = target[order[:k]]
    return np.arange(n + 1) / n, rows


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


# "1-False" in each id: one feature per point and the signed ranking, the only curves there are
@pytest.mark.parametrize("name", ORACLE_MODELS, ids=[f"{name}-1-False" for name in ORACLE_MODELS])
def test_curves_match_row_by_row_oracle(name):
    model = ORACLE_MODELS[name]()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10)
    att = AttributionMap(rng.standard_normal(10), "r")
    order = feature_order(att)
    for cfg in (EvalConfig("black"), EvalConfig("mean"), EvalConfig("blur", grid=(2, 5))):
        repl = replacement_input(x, cfg)
        for curve, start, target in ((fg.deletion_curve, x, repl), (fg.insertion_curve, repl, x)):
            fractions, rows = curve_rows(start, target, order)
            got = curve(model, x, att, cfg)
            assert np.array_equal(got.fractions, fractions)
            np.testing.assert_allclose(got.scores, fg.evaluate_batch(model, rows), rtol=1e-12, atol=0)
            assert got.auc == pytest.approx(np.trapezoid(got.scores, fractions), rel=1e-15)


ONE_FEATURE_MODELS = {
    "linear": lambda: fg.linear_model([2.0], b=0.5),
    "mlp-softmax": lambda: fg.random_mlp(1, hidden=(3,), out_dim=2, activation="softplus", seed=6,
                                         head=fg.Head("softmax", target=1)),
}


@pytest.mark.parametrize("name", ONE_FEATURE_MODELS)
def test_one_feature_curves_are_their_exact_ends(name):
    # N = 1: no point lies between the ends, so the running sum is empty
    model = ONE_FEATURE_MODELS[name]()
    x = np.array([0.8])
    att = AttributionMap([1.0], "x")
    for repl in ("black", "mean"):
        cfg = EvalConfig(repl)
        ends = fg.evaluate_batch(model, np.stack([x, replacement_input(x, cfg)]))
        dele, ins = fg.deletion_curve(model, x, att, cfg), fg.insertion_curve(model, x, att, cfg)
        for curve, scores in ((dele, ends), (ins, ends[::-1])):
            assert np.array_equal(curve.fractions, [0.0, 1.0]) and np.array_equal(curve.scores, scores)
    assert fg.two_round_difference(model, x, att) == 0.0


STILL_MODELS = {
    "mlp": lambda: fg.random_mlp(10, hidden=(7,), out_dim=3, activation="softplus", seed=3,
                                 head=fg.Head("softmax", target=2)),
    "gauss-mixture": lambda: _gauss(fg.Head("sigmoid")),
}
STILL_INPUTS = {  # features 0, 2, 5, 6 and 9 equal their replacement
    "black": (EvalConfig("black"), np.array([0.0, 0.3, 0.0, -0.7, 1.1, 0.0, 0.0, 0.4, -0.2, 0.0])),
    # the mean of five 0.5s and 0.25, 0.75, 0.125, 1.0, 0.375 is exactly 0.5
    "mean": (EvalConfig("mean"), np.array([0.5, 0.25, 0.5, 0.75, 0.125, 0.5, 0.5, 1.0, 0.375, 0.5])),
}


@pytest.mark.parametrize("name", STILL_MODELS)
@pytest.mark.parametrize("repl", STILL_INPUTS)
def test_features_equal_to_their_replacement_repeat_the_previous_point(name, repl):
    model = STILL_MODELS[name]()
    cfg, x = STILL_INPUTS[repl]
    values = np.array([10.0, 1.0, 6.0, 2.0, 3.0, 7.0, 0.0, 4.0, 5.0, 8.0])  # still features first, last and between
    att = AttributionMap(values, "r")
    order = feature_order(att)
    still = x == replacement_input(x, cfg)
    assert still.sum() == 5 and still[order[0]] and still[order[-1]]
    for curve, start, target in ((fg.deletion_curve, x, replacement_input(x, cfg)),
                                 (fg.insertion_curve, replacement_input(x, cfg), x)):
        got = curve(model, x, att, cfg).scores
        np.testing.assert_allclose(got, fg.evaluate_batch(model, curve_rows(start, target, order)[1]),
                                   rtol=1e-12, atol=0)
        for k in np.flatnonzero(still[order]) + 1:  # point k moved order[k - 1]
            assert got[k] == got[k - 1]


@pytest.mark.parametrize("name", STILL_MODELS)
def test_only_moving_features_cost_path_rows(monkeypatch, name):
    model = STILL_MODELS[name]()
    order = np.arange(10)
    calls = []
    rest = fg.models._rest
    for moving in (0, 1, 4, 10):
        x = np.zeros(10)
        x[:moving] = np.linspace(0.5, 1.0, moving)
        rnd = evalkit._round(model, x, EvalConfig("black"))  # its exact ends are evaluated here
        ends = fg.evaluate_batch(model, np.stack([x, np.zeros(10)]))
        calls.clear()
        monkeypatch.setattr(fg.models, "_rest", lambda m, s: calls.append(len(s)) or rest(m, s))
        dele, ins = rnd(order)
        monkeypatch.undo()
        assert sum(calls) == 2 * max(moving - 1, 0)
        if moving == 0:  # x is its own replacement: flat curves at the exact end
            assert np.all(dele == ends[0]) and np.all(ins == ends[1])
        assert dele[0] == ins[-1] == ends[0] and dele[-1] == ins[0] == ends[1]


def test_eval_config_fields_after_replacement_are_keyword_only():
    with pytest.raises(TypeError):
        EvalConfig("black", (2, 5))
    assert EvalConfig("blur", grid=(2, 5)).grid == (2, 5)


@pytest.mark.parametrize("repl", ["black", "mean"])
def test_non_finite_input_still_rejected(repl):
    m = fg.random_mlp(3, hidden=(4,), seed=0)
    att = AttributionMap([1.0, 2.0, 3.0], "x")
    for bad in (np.nan, np.inf):
        for curve in (fg.deletion_curve, fg.insertion_curve):
            with pytest.raises(fg.NonFiniteInput):
                curve(m, [0.5, bad, 1.0], att, EvalConfig(repl))


ROUND_CONFIGS = {
    "blur-grid": (EvalConfig("blur", grid=(2, 5)), 2),
    "blur-no-grid": (EvalConfig("blur"), 2),
    "black": (EvalConfig("black"), 2),
    "mean-grid": (EvalConfig("mean", grid=(2, 5)), 3),  # mean, black and blur
}


@pytest.mark.parametrize("cfg, rounds", ROUND_CONFIGS.values(), ids=ROUND_CONFIGS.keys())
def test_benchmark_builds_each_round_once(monkeypatch, cfg, rounds):
    model = fg.random_mlp(10, hidden=(6,), activation="tanh", seed=5, head=fg.Head("sigmoid"))
    x = np.random.default_rng(5).uniform(0.0, 1.0, 10)
    calls = Counter()
    for module, name in ((evalkit, "replacement_input"), (fg.models, "_feature_terms")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **k: calls.update([_name]) or _fn(*a, **k))
    for names in (["saliency"], ["saliency", "ig", "random"]):
        calls.clear()
        row = fg.benchmark(model, [x], {name: make_method(name) for name in names}, cfg).results[0]
        # φ(x) and φ(replacement) once per round, however many methods share it
        assert calls == {"replacement_input": rounds, "_feature_terms": 2 * rounds}
    monkeypatch.undo()
    att = fg.saliency(model, x)
    assert row.difference_mean == fg.two_round_difference(model, x, att, cfg)
    assert row.deletion_mean == fg.deletion_curve(model, x, att, cfg).auc
    assert row.insertion_mean == fg.insertion_curve(model, x, att, cfg).auc


def _short_map(model, x, seed):
    """A custom method whose map misses the last feature."""
    return AttributionMap(np.ones(x.size - 1), "short")


def single_job_rows(model, inputs, methods, cfg, seed):
    """Each method's (deletion, insertion, difference) means over the inputs its
    attribution succeeds on, from the single-job functions: the reference."""
    rows = {}
    for mi, (name, fn) in enumerate(methods.items()):
        per_input = []
        for xi, x in enumerate(inputs):
            try:
                att = fn(model, x, evalkit._sample_seed(seed, mi, xi))
                per_input.append((fg.deletion_curve(model, x, att, cfg).auc,
                                  fg.insertion_curve(model, x, att, cfg).auc,
                                  fg.two_round_difference(model, x, att, cfg)))
            except fg.FluxgradError:
                pass
        rows[name] = np.asarray(per_input).mean(axis=0) if per_input else None
    return rows


@pytest.mark.parametrize("cfg", [c for c, _ in ROUND_CONFIGS.values()], ids=ROUND_CONFIGS.keys())
def test_benchmark_matches_single_job_functions(cfg):
    model = fg.random_mlp(10, hidden=(7,), out_dim=3, activation="softplus", seed=8,
                          head=fg.Head("softmax", target=2))
    inputs = list(np.random.default_rng(8).uniform(0.0, 1.0, (3, 10)))
    methods = {name: make_method(name) for name in ("saliency", "smoothgrad", "ig", "random")}
    methods["short"] = _short_map
    report = fg.benchmark(model, inputs, methods, cfg, seed=4)
    want = single_job_rows(model, inputs, methods, cfg, seed=4)
    for row in report.results:
        if row.method == "short":  # a map of the wrong length fails only its own samples
            assert (row.samples_ok, row.samples_failed) == (0, 3) and want["short"] is None
            continue
        assert (row.samples_ok, row.samples_failed) == (3, 0)
        assert [row.deletion_mean, row.insertion_mean, row.difference_mean] == want[row.method].tolist()

    # a NaN input fails every method on it, and no other input
    bad = np.full(10, 0.5)
    bad[3] = np.nan
    with_bad = fg.benchmark(model, [*inputs[:2], bad], methods, cfg, seed=4)  # last: same seeds for the rest
    without = fg.benchmark(model, inputs[:2], methods, cfg, seed=4)
    for a, b in zip(with_bad.results, without.results):
        assert a.samples_failed == b.samples_failed + 1 and a.samples_ok == b.samples_ok
        means = [(r.deletion_mean, r.insertion_mean, r.difference_mean) for r in (a, b)]
        assert np.array_equal(*means, equal_nan=True)


def test_benchmark_counts_a_non_finite_map_as_a_failed_sample():
    # (x - baseline) overflows, so IG's map is infinite; saliency's is finite.
    # (On an input near 1e308 itself the mean round overflows and fails every method.)
    model = fg.linear_model([2.0, 3.0])
    inputs = [np.array([1.0, 1.0]), np.array([0.5, 2.0])]
    methods = {"ig": make_method("ig", baseline=np.full(2, -1e308)), "saliency": make_method("saliency")}
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(fg.NonFiniteAttribution):
        methods["ig"](model, inputs[0], 0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        ig, sal = fg.benchmark(model, inputs, methods, EvalConfig("black")).results
    assert (ig.samples_ok, ig.samples_failed) == (0, 2) and np.isnan(ig.deletion_mean)
    assert (sal.samples_ok, sal.samples_failed) == (2, 0)
    assert np.all(np.isfinite([sal.deletion_mean, sal.insertion_mean, sal.difference_mean]))


def test_blur_benchmark_output_is_pinned():
    # The sha256 of a small blur benchmark's JSON, recorded before the curves
    # shared their rounds: any drift in curve output fails here.
    model = fg.random_mlp(16, hidden=(8,), out_dim=3, activation="softplus", seed=11,
                          head=fg.Head("softmax", target=1))
    inputs = list(np.random.default_rng(12).uniform(0.0, 1.0, (2, 16)))
    methods = {name: make_method(name) for name in ("neflag", "ig", "smoothgrad", "saliency", "random")}
    report = fg.benchmark(model, inputs, methods, EvalConfig("blur", grid=(4, 4)), seed=13)
    digest = hashlib.sha256(report.json_str().encode()).hexdigest()
    assert digest == "f464dd1e8aadfa755562ff7d851a90a16ad70108986bf18cce4bc1fe00e8b671"


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


UNKNOWN_PARAMS = [(name, "bogus") for name in evalkit.METHODS] + [("taylor", "n_samples"), ("ig", "sigma")]


@pytest.mark.parametrize("name, key", UNKNOWN_PARAMS, ids=[f"{n}-{k}" for n, k in UNKNOWN_PARAMS])
def test_unknown_parameter_is_a_value_error_naming_it(name, key):
    with pytest.raises(ValueError, match=f"unknown {name} parameter.*{key}"):
        make_method(name, **{key: 1})


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name, key", [("neflag", "epsilon"), ("taylor", "epsilon"), ("smoothgrad", "sigma")])
def test_a_non_finite_setting_is_a_value_error(name, key, value):
    with pytest.raises(ValueError, match=f"{key} must be .*finite"):
        make_method(name, **{key: value})


@pytest.mark.parametrize("value", [np.float32(0.25), 1])
@pytest.mark.parametrize("name, key", [("neflag", "epsilon"), ("smoothgrad", "sigma")])
def test_a_setting_is_written_as_a_python_float(name, key, value):
    # a numpy float is not JSON, and an int epsilon would be written as 1 where the CLI writes 1.0
    att = make_method(name, **{key: value})(fg.linear_model([1.0, 2.0]), np.array([0.5, -0.5]), 3)
    assert type(att.params[key]) is float and att.params[key] == value
    assert f'"{key}": {float(value)!r}' in json.dumps(att.to_json())


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

    def test_pgm_grid_is_checked_as_the_benchmark_checks_it(self):
        att = AttributionMap([1.0, 2.0, 3.0, 4.0], "x")
        with pytest.raises(fg.DimensionMismatch, match="grid 3x3 does not match 4 features"):
            att.pgm_str((3, 3))
        for grid in ((2.0, 2.0), (True, 4), (-2, -2), (0, 4)):
            with pytest.raises(ValueError, match="grid (height|width) must be"):
                att.pgm_str(grid)
        assert att.pgm_str((np.int64(2), 2)) == att.pgm_str((2, 2))


# "1" in each id: the window radius, 1, the only one the blur has
@pytest.mark.parametrize("grid", [(28, 28), (1, 5), (5, 1), (3, 7)], ids=[f"1-grid{i}" for i in range(4)])
def test_blur_matches_scipy_uniform_filter(grid):
    ndimage = pytest.importorskip("scipy.ndimage")
    x = np.random.default_rng(1).uniform(0.0, 1.0, grid[0] * grid[1])
    want = x.reshape(grid)
    for _ in range(3):
        want = ndimage.uniform_filter(want, size=3, mode="nearest")
    got = replacement_input(x, EvalConfig("blur", grid=grid))
    assert np.max(np.abs(got - want.ravel())) <= 1e-12
