import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxgrad as fg
from conftest import subprocess_env
from fluxgrad import cli, models, train
from fluxgrad.models import _mlp_forward


def rel_l2(a, b):
    denom = max(np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


class TestEvaluate:
    def test_linear_dot_product(self):
        m = fg.linear_model([1.0, 2.0], b=0.0)
        assert fg.evaluate(m, [3.0, 4.0]) == 11.0

    def test_quadratic_minimum_at_center(self):
        m = fg.quadratic_model([1.0, 1.0], [0.0, 0.0])
        assert fg.evaluate(m, [0.0, 0.0]) == 0.0

    def test_sigmoid_head_at_zero(self):
        m = fg.linear_model([1.0, 0.0], head=fg.Head("sigmoid"))
        assert fg.evaluate(m, [0.0, 0.0]) == 0.5

    def test_dimension_mismatch(self):
        m = fg.linear_model([1.0, 2.0])
        with pytest.raises(fg.DimensionMismatch):
            fg.evaluate(m, [1.0, 2.0, 3.0])

    def test_non_finite_input(self):
        m = fg.linear_model([1.0, 2.0])
        with pytest.raises(fg.NonFiniteInput):
            fg.evaluate(m, [np.nan, 0.0])


class TestGradient:
    def test_linear_constant_gradient(self):
        m = fg.linear_model([1.0, 2.0])
        for x in ([0.0, 0.0], [5.0, -3.0], [100.0, 7.0]):
            assert np.array_equal(fg.gradient(m, x), [1.0, 2.0])

    def test_quadratic_gradient(self):
        m = fg.quadratic_model([2.0, 3.0])
        assert np.allclose(fg.gradient(m, [1.0, 1.0]), [2.0, 3.0])

    def test_tanh_mlp_matches_finite_differences(self):
        m = fg.random_mlp(4, hidden=(6, 5), activation="tanh", seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert rel_l2(fg.gradient(m, x), fg.fd_gradient(m, x, h=1e-5)) < 1e-5

    def test_softmax_head_gradient_matches_fd(self):
        m = fg.random_mlp(3, hidden=(5,), out_dim=4, activation="tanh", seed=1,
                          head=fg.Head("softmax", target=2))
        x = np.array([0.3, -0.7, 0.2])
        assert rel_l2(fg.gradient(m, x), fg.fd_gradient(m, x, h=1e-5)) < 1e-5

    def test_logit_head_gradient_matches_fd(self):
        m = fg.random_mlp(3, hidden=(5,), out_dim=4, activation="tanh", seed=1,
                          head=fg.Head("softmax", target=2, use_logit=True))
        x = np.array([0.3, -0.7, 0.2])
        assert rel_l2(fg.gradient(m, x), fg.fd_gradient(m, x, h=1e-5)) < 1e-5


class TestFdGradient:
    def test_exact_for_linear(self):
        m = fg.linear_model([5.0])
        assert abs(fg.fd_gradient(m, [0.0], h=1e-4)[0] - 5.0) < 1e-10

    def test_exact_for_quadratic(self):
        m = fg.quadratic_model([1.0])
        assert abs(fg.fd_gradient(m, [2.0], h=1e-4)[0] - 2.0) < 1e-7

    def test_gauss_mixture_self_consistency(self):
        m = fg.gauss_mixture_model(
            [1.0, -0.5], [[0.0, 0.0], [1.0, -1.0]], [1.0, 0.7]
        )
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert rel_l2(fg.fd_gradient(m, x, h=1e-5), fg.gradient(m, x)) < 1e-5

    def test_rejects_nonpositive_step(self):
        m = fg.linear_model([1.0])
        with pytest.raises(ValueError):
            fg.fd_gradient(m, [0.0], h=0.0)


def _model_zoo():
    return [
        fg.linear_model([1.0, -2.0, 0.5], b=0.3),
        fg.quadratic_model([1.0, 2.0, 3.0], [0.1, -0.2, 0.0]),
        fg.gauss_mixture_model([1.0, 0.5], [[0.0] * 3, [1.0] * 3], [1.0, 0.5]),
        fg.random_mlp(3, hidden=(6,), activation="softplus", seed=5),
        fg.random_mlp(3, hidden=(6,), activation="tanh", seed=5,
                      head=fg.Head("sigmoid")),
        fg.random_mlp(3, hidden=(6,), out_dim=3, activation="tanh", seed=5,
                      head=fg.Head("softmax", target=1)),
        fg.random_mlp(3, hidden=(6,), out_dim=3, activation="softplus", seed=5,
                      head=fg.Head("softmax", target=2, use_logit=True)),
        # a numpy target is kept as a plain int, so that the model file can hold it
        fg.random_mlp(3, hidden=(6,), out_dim=3, activation="tanh", seed=6,
                      head=fg.Head("softmax", target=np.int64(0))),
    ]


class TestInvariants:
    @pytest.mark.parametrize("model", _model_zoo())
    def test_gradient_agrees_with_fd_over_random_points(self, model):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(model.dim)
            assert rel_l2(fg.gradient(model, x), fg.fd_gradient(model, x, 1e-5)) < 1e-4

    def test_relu_mlp_checked_away_from_kinks(self):
        model = fg.random_mlp(3, hidden=(6,), activation="relu", seed=5)
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            x = rng.standard_normal(3)
            _, pre = _mlp_forward(model.params, x[None, :])
            if all(np.min(np.abs(z)) > 1e-3 for z in pre):
                assert rel_l2(fg.gradient(model, x), fg.fd_gradient(model, x, 1e-5)) < 1e-4
                checked += 1

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_head_output_in_unit_interval(self, x):
        # restricted to |logit| < ~37; beyond that float64 saturates to 0/1
        m = fg.linear_model([3.0, -4.0], head=fg.Head("sigmoid"))
        assert 0.0 < fg.evaluate(m, x) < 1.0

    def test_evaluate_and_gradient_are_pure(self):
        m = fg.random_mlp(4, hidden=(5,), activation="tanh", seed=9)
        x = np.array([0.1, 0.2, -0.3, 0.4])
        assert fg.evaluate(m, x) == fg.evaluate(m, x)
        assert np.array_equal(fg.gradient(m, x), fg.gradient(m, x))


class TestFitToyModel:
    def test_separable_blobs_reach_high_accuracy(self):
        X, y = fg.blob_dataset(200, margin=1.0, seed=3)
        fit = fg.fit_toy_model(X, y, epochs=500)
        assert fit.accuracy >= 0.95
        assert fit.model.head.type == "sigmoid"

    def test_single_sample_repeated_is_memorized(self):
        X = np.tile([0.5, -0.5], (10, 1))
        y = np.ones(10, dtype=int)
        fit = fg.fit_toy_model(X, y, epochs=200)
        assert fit.accuracy == 1.0

    def test_fixed_seed_is_bit_identical(self):
        X, y = fg.blob_dataset(100, seed=1)
        a = fg.fit_toy_model(X, y, seed=7)
        b = fg.fit_toy_model(X, y, seed=7)
        for la, lb in zip(a.model.params, b.model.params):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_multiclass_gets_softmax_head(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 2))
        y = rng.integers(0, 3, size=60)
        fit = fg.fit_toy_model(X, y, epochs=50)
        assert fit.model.head.type == "softmax"
        assert 0.0 < fg.evaluate(fit.model, X[0]) < 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fg.fit_toy_model(np.empty((0, 2)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        X, y = fg.blob_dataset(20, seed=1)
        with pytest.raises(ValueError, match="epochs"):
            fg.fit_toy_model(X, y, epochs=epochs)

    @pytest.mark.parametrize("lr", [0.0, -0.5, np.nan, np.inf])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        X, y = fg.blob_dataset(20, seed=1)
        with pytest.raises(ValueError, match="learning_rate"):
            fg.fit_toy_model(X, y, epochs=1, learning_rate=lr)

    def test_fits_are_pinned(self):
        # The sha256 of four fits' model JSON, loss and accuracy, recorded before the
        # epoch loop kept its weights as plain arrays: any drift in a fit fails here.
        rng = np.random.default_rng(0)
        X3, y3 = rng.standard_normal((60, 2)), rng.integers(0, 3, size=60)
        fits = [
            fg.fit_toy_model(*fg.linear_rule_dataset([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0], n=400, seed=5),
                             hidden=(8,), epochs=500, learning_rate=0.5, seed=2),
            fg.fit_toy_model(*fg.blob_dataset(60, dim=3, seed=4), hidden=(6, 4), activation="softplus",
                             epochs=100, seed=1),
            fg.fit_toy_model(X3, y3, hidden=(5,), activation="relu", epochs=100, seed=3),
            fg.fit_toy_model(*fg.blob_dataset(20, seed=1), hidden=(), epochs=1),
        ]
        text = "".join(models.model_json_str(f.model) + repr((f.loss, f.accuracy)) for f in fits)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "9d12e5464993da41aec2f9716a6f1469049973937f81a3752581875caee8ed4a"

    def test_each_layer_is_built_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(train, "Layer", lambda *args: built.append(args) or models.Layer(*args))
        fit = fg.fit_toy_model(*fg.blob_dataset(20, seed=1), hidden=(4, 3), epochs=50)
        assert len(built) == len(fit.model.params) == 3


class TestSerialization:
    @pytest.mark.parametrize("model", _model_zoo())
    def test_json_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        fg.save_model(model, path)
        back = fg.load_model(path)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(model.dim)
            assert fg.evaluate(back, x) == fg.evaluate(model, x)
            assert np.array_equal(fg.gradient(back, x), fg.gradient(model, x))

    def test_dataset_csv_round_trip(self, tmp_path):
        X, y = fg.blob_dataset(30, seed=2)
        path = tmp_path / "data.csv"
        fg.save_dataset_csv(path, X, y)
        X2, y2 = fg.load_dataset_csv(path)
        assert np.array_equal(X, X2)
        assert np.array_equal(y, y2)


class TestNumpyHelpers:
    def test_expit_matches_scipy_without_warnings(self):
        scipy_special = pytest.importorskip("scipy.special")
        z = np.concatenate([
            np.linspace(-745.0, 745.0, 20001),
            np.random.default_rng(0).standard_normal(1000) * 20.0,
            [-1000.0, -709.0, -0.0, 0.0, 1e-300, 1000.0],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models.expit(z)
            want = scipy_special.expit(z)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-14 * want[normal])
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_softmax_bit_identical_to_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(1)
        for scale in (1.0, 30.0, 1000.0):
            z = rng.standard_normal((50, 7)) * scale
            assert np.array_equal(models.softmax(z), scipy_special.softmax(z, axis=1))

    def test_softplus_within_2_ulp_of_logaddexp_without_warnings(self):
        z = np.concatenate([
            np.linspace(-800.0, 800.0, 160_001),
            np.random.default_rng(0).uniform(-40.0, 40.0, 20_000),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 709.8, -709.8, 745.2, -745.2],
        ])
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = models._act("softplus", z)
        want = np.logaddexp(0.0, z)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    def test_softplus_bit_equal_to_two_expression_form_and_leaves_z_alone(self):
        ends = [0.0, 1e-300, 30.0, 709.0, 745.0, 1e308]
        z = np.concatenate([ends, np.negative(ends), np.linspace(-50.0, 50.0, 10_001),
                            np.random.default_rng(2).standard_normal(785 * 128) * 5.0])
        z.setflags(write=False)  # gradient_batch keeps z for the backward pass
        want = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        got = models._act("softplus", z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_gradient_batch_runs_one_forward_pass(self, monkeypatch):
        m = fg.random_mlp(4, hidden=(5, 3), out_dim=3, activation="tanh", seed=2,
                          head=fg.Head("softmax", target=1))
        calls = []
        forward = models._mlp_from_first
        monkeypatch.setattr(models, "_mlp_from_first",
                            lambda p, s: calls.append(1) or forward(p, s))
        fg.gradient_batch(m, np.ones((6, 4)))
        assert len(calls) == 1


def test_dim_is_the_input_length_the_parameters_fix():
    models = {
        2: fg.linear_model([1.0, 2.0]),
        3: fg.quadratic_model([1.0, 2.0, 3.0]),
        4: fg.gauss_mixture_model([1.0, 2.0], np.zeros((2, 4)), [1.0, 1.0]),
        5: fg.mlp_model([fg.Layer(np.ones((3, 5)), np.zeros(3), "tanh"), fg.Layer(np.ones((1, 3)), [0.0])]),
        1: fg.Model("linear", ([7.0], 0.5)),
    }
    for dim, model in models.items():
        assert model.dim == dim and fg.model_from_json(fg.model_to_json(model)).dim == dim
    with pytest.raises(TypeError):
        fg.Model("linear", 2, ([1.0, 2.0], 0.0))  # dim is not an argument


def test_model_from_json_rejects_contradictory_dim():
    doc = fg.model_to_json(fg.linear_model([1.0, 2.0]))
    assert fg.model_from_json(doc).dim == 2
    with pytest.raises(ValueError, match="dim"):
        fg.model_from_json({**doc, "dim": 5})


def test_gauss_bump_center_must_have_length_dim():
    assert fg.gauss_bump(2, center=[1.0, -1.0]).dim == 2
    for center in ([0.0, 0.0], [[0.0, 0.0, 0.0]], 0.0):
        with pytest.raises(ValueError, match="center"):
            fg.gauss_bump(3, center=center)


def test_head_rejects_settings_it_ignores():
    for kw in ({"target": 4}, {"use_logit": True}, {"target": 0, "use_logit": True}):
        for kind in ("identity", "sigmoid"):
            with pytest.raises(ValueError, match="takes no target"):
                fg.Head(kind, **kw)
    doc = fg.model_to_json(fg.linear_model([1.0, 2.0]))
    with pytest.raises(ValueError, match="takes no target"):
        fg.model_from_json({**doc, "head": {"type": "identity", "logit": True, "target": 9}})


def test_training_accuracy_of_a_linear_model():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0], [0.5, -3.0]])
    y = np.array([1, 0, 1, 1])
    m = fg.linear_model([1.0, 0.0], head=fg.Head("sigmoid"))
    assert fg.training_accuracy(m, X, y) == 1.0


def test_stored_arrays_are_read_only_copies_of_the_callers():
    a, x, v, b, c = (np.array([1.0, -2.0]) for _ in range(5))
    model = fg.linear_model(a)
    attr = fg.neflag_attribute(model, x)
    stored = [
        model.params[0],
        attr.values,
        fg.AttributionMap(v, "u").values,
        fg.IgConfig(baseline=b).baseline,
        fg.SphereSpec(c, 0.1).center,
    ]
    before = [s.copy() for s in stored]
    for given in (a, x, v, b, c):
        assert given.flags.writeable
        given[0] = 7.0
    assert all(not s.flags.writeable for s in stored)
    assert all(np.array_equal(s, old) for s, old in zip(stored, before))


def _doc(kind, dim=None, head=None, **params):
    return {"kind": kind, "params": params, **({} if dim is None else {"dim": dim}),
            **({} if head is None else {"head": head})}


def _mlp_doc(out_dim, head):
    return _doc("mlp", head=head, layers=[{"W": [[1.0, 1.0]] * out_dim, "b": [0.0] * out_dim,
                                           "activation": "identity"}])


_W32 = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
BAD_MODELS = {
    "lambda-center-lengths": (
        lambda: fg.quadratic_model([1.0, 2.0], [0.0]),
        _doc("quadratic", **{"lambda": [1.0, 2.0], "c": [0.0]}),
        "lambda and center must have the same length"),
    "gauss-component-counts": (
        lambda: fg.gauss_mixture_model([1.0, 1.0], [[0.0, 0.0]], [1.0, 1.0]),
        None,  # a model file gives each component one weight, center and sigma
        "component counts disagree"),
    "gauss-sigma-zero": (
        lambda: fg.gauss_mixture_model([1.0], [[0.0, 0.0]], [0.0]),
        _doc("gauss-mixture", components=[{"weight": 1.0, "center": [0.0, 0.0], "sigma": 0.0}]),
        "sigmas must be positive"),
    "mlp-no-layers": (
        lambda: fg.mlp_model([]),
        _doc("mlp", layers=[]),
        "mlp needs at least one layer"),
    "mlp-layers-do-not-chain": (
        lambda: fg.mlp_model([fg.Layer(_W32, np.zeros(3), "tanh"), fg.Layer([[1.0, 1.0]], [0.0])]),
        _doc("mlp", layers=[{"W": _W32, "b": [0.0] * 3, "activation": "tanh"},
                            {"W": [[1.0, 1.0]], "b": [0.0], "activation": "identity"}]),
        "layer shapes do not chain"),
    "layer-bias-length": (
        lambda: fg.mlp_model([fg.Layer(_W32, np.zeros(2))]),
        _doc("mlp", layers=[{"W": _W32, "b": [0.0] * 2, "activation": "identity"}]),
        "bias length must match layer output size"),
    "layer-unknown-activation": (
        lambda: fg.mlp_model([fg.Layer([[1.0, 1.0]], [0.0], "sigmoid")]),
        _doc("mlp", layers=[{"W": [[1.0, 1.0]], "b": [0.0], "activation": "sigmoid"}]),
        "unknown activation 'sigmoid'"),
    # a constructor takes no dim, so only a file can contradict the parameters
    "mlp-dim": (
        None,
        _doc("mlp", 3, layers=[{"W": [[1.0, 1.0]], "b": [0.0], "activation": "identity"}]),
        "dim 3 does not match the parameters' 2 inputs"),
    "linear-dim": (
        None,
        _doc("linear", 3, a=[1.0, 2.0]),
        "dim 3 does not match the parameters' 2 inputs"),
    "quadratic-dim": (
        None,
        _doc("quadratic", 1, **{"lambda": [1.0, 2.0], "c": [0.0, 0.0]}),
        "dim 1 does not match the parameters' 2 inputs"),
    "gauss-dim": (
        None,
        _doc("gauss-mixture", 2, components=[{"weight": 1.0, "center": [0.0] * 3, "sigma": 1.0}]),
        "dim 2 does not match the parameters' 3 inputs"),
    "linear-nan-weight": (
        lambda: fg.linear_model([np.nan, 1.0]),
        _doc("linear", a=[np.nan, 1.0]),
        "model parameters must be finite"),
    "linear-inf-offset": (
        lambda: fg.linear_model([1.0, 1.0], b=np.inf),
        _doc("linear", a=[1.0, 1.0], b=np.inf),
        "model parameters must be finite"),
    "quadratic-nan-center": (
        lambda: fg.quadratic_model([1.0], [np.nan]),
        _doc("quadratic", **{"lambda": [1.0], "c": [np.nan]}),
        "model parameters must be finite"),
    "gauss-inf-weight": (
        lambda: fg.gauss_mixture_model([np.inf], [[0.0]], [1.0]),
        _doc("gauss-mixture", components=[{"weight": np.inf, "center": [0.0], "sigma": 1.0}]),
        "model parameters must be finite"),
    "mlp-nan-bias": (
        lambda: fg.mlp_model([fg.Layer([[1.0, 1.0]], [np.nan])]),
        _doc("mlp", layers=[{"W": [[1.0, 1.0]], "b": [np.nan], "activation": "identity"}]),
        "model parameters must be finite"),
    "linear-2d-weight": (
        lambda: fg.linear_model([[3.0, 4.0]]),
        _doc("linear", a=[[3.0, 4.0]]),
        "linear parameters have the wrong number of axes"),
    "linear-vector-offset": (
        lambda: fg.linear_model([3.0, 4.0], b=[0.5]),
        _doc("linear", a=[3.0, 4.0], b=[0.5]),
        "linear parameters have the wrong number of axes"),
    "quadratic-2d-lambda": (
        lambda: fg.quadratic_model([[1.0, 2.0]]),
        _doc("quadratic", **{"lambda": [[1.0, 2.0]], "c": [[0.0, 0.0]]}),
        "quadratic parameters have the wrong number of axes"),
    "gauss-2d-weights": (
        lambda: fg.gauss_mixture_model([[1.0]], [[0.0, 0.0]], [1.0]),
        _doc("gauss-mixture", components=[{"weight": [1.0], "center": [0.0, 0.0], "sigma": 1.0}]),
        "gauss-mixture parameters have the wrong number of axes"),
    "gauss-2d-sigmas": (
        lambda: fg.gauss_mixture_model([1.0], [[0.0, 0.0]], [[1.0]]),
        _doc("gauss-mixture", components=[{"weight": 1.0, "center": [0.0, 0.0], "sigma": [1.0]}]),
        "gauss-mixture parameters have the wrong number of axes"),
    "gauss-3d-centers": (
        lambda: fg.gauss_mixture_model([1.0], [[[0.0, 0.0]]], [1.0]),
        _doc("gauss-mixture", components=[{"weight": 1.0, "center": [[0.0, 0.0]], "sigma": 1.0}]),
        "gauss-mixture parameters have the wrong number of axes"),
    "mlp-3d-weight": (
        lambda: fg.mlp_model([fg.Layer([[[1.0, 1.0]]], [0.0])]),
        _doc("mlp", layers=[{"W": [[[1.0, 1.0]]], "b": [0.0], "activation": "identity"}]),
        "mlp parameters have the wrong number of axes"),
    "mlp-2d-bias": (
        lambda: fg.mlp_model([fg.Layer([[1.0, 1.0]], [[0.0]])]),
        _doc("mlp", layers=[{"W": [[1.0, 1.0]], "b": [[0.0]], "activation": "identity"}]),
        "mlp parameters have the wrong number of axes"),
    "head-unknown-type": (
        lambda: fg.linear_model([1.0, 1.0], head=fg.Head("tanh")),
        _doc("linear", head={"type": "tanh"}, a=[1.0, 1.0]),
        "unknown head type 'tanh'"),
    "head-softmax-without-target": (
        lambda: fg.random_mlp(2, out_dim=3, head=fg.Head("softmax")),
        _mlp_doc(3, {"type": "softmax"}),
        "softmax head requires a target index"),
    "softmax-single-logit": (
        lambda: fg.random_mlp(2, head=fg.Head("softmax", target=0)),
        _mlp_doc(1, {"type": "softmax", "target": 0}),
        "softmax head requires an mlp with >= 2 logits"),
    "softmax-on-linear": (
        lambda: fg.linear_model([1.0, 1.0], head=fg.Head("softmax", target=0)),
        _doc("linear", head={"type": "softmax", "target": 0}, a=[1.0, 1.0]),
        "softmax head requires an mlp with >= 2 logits"),
    "softmax-target-out-of-range": (
        lambda: fg.random_mlp(2, out_dim=3, head=fg.Head("softmax", target=3)),
        _mlp_doc(3, {"type": "softmax", "target": 3}),
        "softmax target out of range"),
    "softmax-target-not-integer": (
        lambda: fg.random_mlp(2, out_dim=3, head=fg.Head("softmax", target=1.5)),
        _mlp_doc(3, {"type": "softmax", "target": 1.5}),
        "softmax target must be an integer, got 1.5"),
    "softmax-target-bool": (
        lambda: fg.random_mlp(2, out_dim=3, head=fg.Head("softmax", target=True)),
        _mlp_doc(3, {"type": "softmax", "target": True}),
        "softmax target must be an integer, got True"),
    "softmax-target-negative": (  # Head refuses it before a Model compares it with the logit count
        lambda: fg.random_mlp(2, out_dim=3, head=fg.Head("softmax", target=-1)),
        _mlp_doc(3, {"type": "softmax", "target": -1}),
        "softmax target must be >= 0"),
    "sigmoid-many-outputs": (
        lambda: fg.random_mlp(2, out_dim=3, head=fg.Head("sigmoid")),
        _mlp_doc(3, {"type": "sigmoid"}),
        "sigmoid head requires a single raw output"),
}


@pytest.mark.parametrize("build, doc, message", BAD_MODELS.values(), ids=BAD_MODELS.keys())
def test_every_model_check_holds_for_constructors_and_files(build, doc, message):
    if build is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    if doc is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            fg.model_from_json(json.loads(json.dumps(doc)))  # NaN and Infinity as a file has them


BLOCKED_PATH_MODELS = {
    "quadratic": lambda rng: fg.quadratic_model(rng.uniform(0.5, 2.0, 50), rng.standard_normal(50)),
    "gauss-mixture": lambda rng: fg.gauss_mixture_model([1.0, -0.5, 2.0], rng.standard_normal((3, 50)),
                                                        [4.0, 5.0, 6.0], fg.Head("sigmoid")),
    "mlp-softmax": lambda rng: fg.random_mlp(50, hidden=(16,), out_dim=3, activation="softplus", seed=8,
                                             head=fg.Head("softmax", target=1)),
}


@pytest.mark.parametrize("name", BLOCKED_PATH_MODELS)
def test_path_scores_carry_the_running_sum_across_row_blocks(monkeypatch, name):
    rng = np.random.default_rng(41)
    model = BLOCKED_PATH_MODELS[name](rng)
    start, target, order = rng.standard_normal(50), rng.standard_normal(50), rng.permutation(50)
    path = models.path_change(model, start, target)
    width = path[2].shape[1]  # the first stage's: 1, 3 components, or the mlp's 16 units
    monkeypatch.setattr(models, "_BLOCK_BYTES", 8 * width * 8)  # 8 rows a block
    assert [b.stop - b.start for b in models._row_blocks(model, 49, width)] == [8] * 6 + [1]
    got = models.path_scores(model, path, order)
    assert got.shape == (2, 49)
    if name == "mlp-softmax":  # the blocks' matmuls may round differently from one over all rows
        moved = np.array([np.isin(np.arange(50), order[:k]) for k in range(1, 50)])
        for scores, a, b in ((got[0], start, target), (got[1], target, start)):
            np.testing.assert_allclose(scores, fg.evaluate_batch(model, np.where(moved, b, a)), rtol=1e-12, atol=0)
    else:  # no matmul after the first stage: the carried sum is the unblocked one, bit for bit
        s_start, s_target, change = path
        moved = np.cumsum(change[order[:-1]], axis=0)
        for scores, s in zip(got, (s_start + moved, s_target - moved)):
            assert np.array_equal(scores, models._headed(model, models._rest(model, s)[0]))


def test_path_scores_temporaries_stay_within_the_block_budget():
    model = fg.random_mlp(784, hidden=(128,), out_dim=10, activation="softplus", seed=3,
                          head=fg.Head("softmax", target=4))
    rng = np.random.default_rng(5)
    path = models.path_change(model, rng.uniform(0.0, 1.0, 784), rng.uniform(0.0, 1.0, 784))
    order = rng.permutation(784)
    tracemalloc.start()
    try:
        scores = models.path_scores(model, path, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a handful of block temporaries and the scores; one unblocked (783, 128) temporary is 6 blocks
    assert peak < 8 * models._BLOCK_BYTES + scores.nbytes


@pytest.mark.parametrize("name", BLOCKED_PATH_MODELS)
def test_path_scores_leave_the_path_unchanged_and_take_any_subset_order(monkeypatch, name):
    rng = np.random.default_rng(43)
    model = BLOCKED_PATH_MODELS[name](rng)
    start, target = rng.standard_normal(50), rng.standard_normal(50)
    path = models.path_change(model, start, target)
    kept = [a.copy() for a in path]
    monkeypatch.setattr(models, "_BLOCK_BYTES", 8 * path[2].shape[1] * 8)  # 8 rows a block
    subset = rng.permutation(50)[:30]  # the other 20 features stay at start, or at target in reverse
    first = models.path_scores(model, path, subset)
    # one path feeds every order of a round, so scoring must not write into it
    assert all(np.array_equal(a, b) for a, b in zip(path, kept))
    assert np.array_equal(models.path_scores(model, path, subset), first)
    moved = np.array([np.isin(np.arange(50), subset[:k]) for k in range(1, 30)])
    for scores, a, b in ((first[0], start, target), (first[1], target, start)):
        np.testing.assert_allclose(scores, fg.evaluate_batch(model, np.where(moved, b, a)), rtol=1e-12, atol=0)
    for short in ([], [7]):  # no point lies between the ends
        assert models.path_scores(model, path, np.array(short, dtype=int)).shape == (2, 0)


@pytest.mark.parametrize("build, blocks", [
    (lambda rng: fg.linear_model(rng.standard_normal(784)), 1),
    (lambda rng: fg.quadratic_model(rng.uniform(0.5, 2.0, 784)), 1),
    (lambda rng: fg.gauss_mixture_model([1.0, 2.0], rng.standard_normal((2, 784)), [20.0, 30.0]), 1),
    (lambda rng: fg.random_mlp(784, hidden=(128,), activation="softplus", seed=3), 7),  # 128 rows a block
])
def test_path_blocks_follow_the_first_stage_not_the_input_length(monkeypatch, build, blocks):
    rng = np.random.default_rng(8)
    model = build(rng)
    calls = []
    rest = models._rest
    monkeypatch.setattr(models, "_rest", lambda m, s: calls.append(len(s)) or rest(m, s))
    path = models.path_change(model, rng.uniform(0.0, 1.0, 784), rng.uniform(0.0, 1.0, 784))
    models.path_scores(model, path, rng.permutation(784))
    assert len(calls) == 2 * blocks and sum(calls) == 2 * 783


def test_tanh_backward_is_bit_identical_to_recomputing_the_activation():
    model = fg.random_mlp(6, hidden=(9, 5), out_dim=3, activation="tanh", seed=4, head=fg.Head("softmax", target=2))
    xs = np.random.default_rng(6).standard_normal((20, 6))
    post, pre = _mlp_forward(model.params, xs)
    cot = np.random.default_rng(7).standard_normal((20, 3))
    delta = cot
    for layer, z in zip(reversed(model.params), reversed(pre)):
        delta = (delta * (1.0 - np.tanh(z) ** 2 if layer.activation == "tanh" else 1.0)) @ layer.weight
    assert np.array_equal(models._raw_grad_batch(model, xs, (post, pre), cot), delta)  # dzs[0] @ W1


BATCH_ORACLES = {"gradient_batch": fg.gradient_batch, "evaluate_batch": fg.evaluate_batch,
                 "laplacian_batch": fg.laplacian_batch}


@pytest.mark.parametrize("oracle", BATCH_ORACLES.values(), ids=BATCH_ORACLES.keys())
def test_batch_oracles_take_lists_vectors_and_ints_and_reject_bad_rows(oracle):
    model = fg.random_mlp(3, hidden=(4,), out_dim=3, seed=2, head=fg.Head("softmax", target=1))
    rows = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    want = oracle(model, rows)
    assert np.array_equal(oracle(model, rows.tolist()), want)
    assert np.array_equal(oracle(model, rows[0]), oracle(model, rows[:1]))  # a vector is one row
    assert np.array_equal(oracle(model, np.array([[1, -2, 0], [0, 3, -1]])), oracle(model, [[1.0, -2.0, 0.0], [0.0, 3.0, -1.0]]))
    for bad in (np.zeros((2, 4)), np.zeros(2)):
        with pytest.raises(fg.DimensionMismatch):
            oracle(model, bad)
    for value in (np.nan, np.inf, -np.inf):
        bad = rows.copy()
        bad[1, 2] = value
        with pytest.raises(fg.NonFiniteInput):
            oracle(model, bad)


def test_negative_labels_are_rejected():
    X, y = fg.blob_dataset(40, seed=2)
    # np.eye(3)[y] would read -1 as class 2, and a -1/1 binary fit would report a negative loss
    for labels in (2 * y - 1, np.arange(40) % 4 - 1):  # -1/1, and -1, 0, 1, 2
        with pytest.raises(ValueError, match="non-negative"):
            fg.fit_toy_model(X, labels, epochs=1)


def _logits_across_700(rng, n, k, order):
    """(n, k) logits uniform in [-700, 700], with rows of ties and signed zeros, in memory order ``order``."""
    z = rng.uniform(-700.0, 700.0, (n, k))
    z[0], z[1], z[2] = 0.0, -0.0, z[2, 0]
    z[3, ::2] = -0.0
    return np.asarray(z, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_max_heads_equal_the_np_max_forms_bit_for_bit(order):
    # softmax and _headed take the row max as one np.maximum pass per logit column; the forms they replaced follow
    rng = np.random.default_rng(12)
    for k in range(1, 13):
        z = _logits_across_700(rng, 200, k, order)
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        assert np.array_equal(models.softmax(z), e / np.sum(e, axis=-1, keepdims=True))
        z3 = np.asarray(z.reshape(8, 25, k), order=order)  # more than one leading axis
        e3 = np.exp(z3 - np.max(z3, axis=-1, keepdims=True))
        assert np.array_equal(models.softmax(z3), e3 / np.sum(e3, axis=-1, keepdims=True))
        for target in sorted({0, k // 2, k - 1}) if k > 1 else ():
            model = fg.random_mlp(2, out_dim=k, head=fg.Head("softmax", target=target))
            assert np.array_equal(models._headed(model, z), e[:, target] / np.sum(e, axis=1))


_FIELD, _BALL = fg.random_mlp(2, hidden=(3,), activation="tanh", seed=1), fg.SphereSpec(np.zeros(2), 0.5)
_COUNTS = {  # every count parameter, and what it gives for a count n
    "SmoothGradConfig.samples": lambda n: fg.SmoothGradConfig(samples=n).samples,
    "IgConfig.steps": lambda n: fg.IgConfig(steps=n).steps,
    "NeflagConfig.n_samples": lambda n: fg.NeflagConfig(n_samples=n).n_samples,
    "NeflagConfig.max_steps": lambda n: fg.NeflagConfig(max_steps=n).max_steps,
    "IntegralEstimate.samples": lambda n: fg.IntegralEstimate(0.0, 0.0, n).samples,
    "volume samples": lambda n: fg.volume_divergence_integral(_FIELD, _BALL, n).samples,
    "surface samples": lambda n: fg.surface_flux_integral(_FIELD, _BALL, n).samples,
    "report samples": lambda n: fg.divergence_theorem_report(_FIELD, _BALL, n).samples,
    "fit_toy_model epochs": lambda n: fg.fit_toy_model(np.eye(2), [0, 1], hidden=(2,), epochs=n).loss,
    "blob_dataset n": lambda n: len(fg.blob_dataset(n)[1]),
    "blob_dataset dim": lambda n: fg.blob_dataset(4, dim=n)[0].shape[1],
    "linear_rule_dataset n": lambda n: len(fg.linear_rule_dataset([1.0], n)[1]),
}


@pytest.mark.parametrize("count", sorted(_COUNTS))
def test_counts_must_be_integers(count):
    # 2.5 steps would give IG three points at 0.2, 0.6 and 1.0, not the midpoint rule, and a float count
    # elsewhere a numpy TypeError later; a numpy integer is a count, held as a plain int
    get = _COUNTS[count]
    for value in (2.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            get(value)
    with pytest.raises(ValueError, match=r"must be >= [13]$"):
        get(0)
    got, want = get(np.int64(3)), get(3)
    assert got == want and type(got) is type(want)


_REALS = {  # every real setting, with the name its message gives and whether it may be 0; and the measures' dim
    "NeflagConfig.epsilon": (lambda v: fg.NeflagConfig(epsilon=v), "epsilon", False),
    "SmoothGradConfig.sigma": (lambda v: fg.SmoothGradConfig(sigma=v), "sigma", True),
    "taylor epsilon": (lambda v: fg.make_method("taylor", epsilon=v), "epsilon", False),
    "SphereSpec radius": (lambda v: fg.SphereSpec(np.zeros(2), v), "sphere radius", False),
    "sphere_area radius": (lambda v: fg.sphere_area(3, v), "radius", False),
    "ball_volume radius": (lambda v: fg.ball_volume(3, v), "radius", False),
    "sphere_area dim": (lambda v: fg.sphere_area(v, 1.0), "dim", False),
    "ball_volume dim": (lambda v: fg.ball_volume(v, 1.0), "dim", False),
    "fit_toy_model learning_rate": (
        lambda v: fg.fit_toy_model(np.eye(2), [0, 1], hidden=(2,), epochs=1, learning_rate=v), "learning_rate", False),
    "fd_gradient h": (lambda v: fg.fd_gradient(fg.linear_model([1.0]), [0.0], h=v), "step h", False),
    "blob_dataset margin": (lambda v: fg.blob_dataset(4, margin=v), "margin", True),
    "linear_rule_dataset margin": (lambda v: fg.linear_rule_dataset([1.0], 4, margin=v), "margin", True),
}


@pytest.mark.parametrize("setting", sorted(_REALS))
def test_real_settings_are_checked_by_one_rule(setting):
    # a bool, a string or None is not a number, and a NaN, an infinity, an int past the float range or a negative
    # value is out of range: each is a ValueError that names the setting, never a TypeError, an OverflowError,
    # a NaN result or an endless loop
    get, name, zero = _REALS[setting]
    for value in (True, "0.1", None, np.nan, np.inf, -1, 10**400, -10**400, *(() if zero else (0,))):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            get(value)
    for value in (2, *((0,) if zero else ())):
        get(value)


def test_a_setting_past_the_float_range_is_out_of_range():
    # Python compares an int with a float exactly, so the largest float is the bound; a float32 is a float
    # before it is compared, which warns of no overflow in a cast, and a long double past the range is inf
    biggest = int(sys.float_info.max)
    assert models._real("epsilon", biggest) == sys.float_info.max
    assert models._real("epsilon", np.float32(3e38)) == float(np.float32(3e38))
    beyond = [biggest + 1, 2**1024]
    if np.finfo(np.longdouble).max > sys.float_info.max:  # an 80-bit or a quad long double
        beyond.append(np.longdouble(sys.float_info.max) * 2)
    for value in beyond:
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            models._real("epsilon", value)
    # a measure's dim from about 5e305 would take log Gamma(dim / 2) past the float range, and is refused as one past it
    for measure in (fg.sphere_area, fg.ball_volume):
        assert measure(10**305, 1.0) == 0.0
        for dim in (10**306, 10**308, biggest):
            with pytest.raises(ValueError, match="^dim must be positive and finite$"):
                measure(dim, 1.0)


SIGMA_EXTREMES = (1.221338669755462e-77, 1.1579208923731618e77)  # the least and greatest sigma with a normal sigma^4


@pytest.mark.parametrize("sigma", [1e-200, 1e200, 1.3e77, 1e-77, np.nextafter(SIGMA_EXTREMES[0], 0.0),
                                   np.nextafter(SIGMA_EXTREMES[1], np.inf)])
def test_a_sigma_whose_fourth_power_leaves_the_float_range_is_refused(sigma, tmp_path, capsys):
    # sigma^2 underflows to 0 at 1e-200 (0 / 0 at the centre), and sigma^4 overflows in the Laplacian at 1.3e77;
    # 1e-77^4 = 1e-308 is subnormal
    message = re.escape(f"sigma {sigma} leaves the float range")
    with pytest.raises(ValueError, match=message):
        fg.gauss_mixture_model([1.0], [[0.0, 0.0]], [sigma])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc("gauss-mixture", components=[{"weight": 1.0, "center": [0.0, 0.0],
                                                                     "sigma": sigma}])))
    (tmp_path / "x.txt").write_text("0 0")
    code = cli.main(["attribute", "--model", str(model), "--input", str(tmp_path / "x.txt"), "--method", "saliency",
                     "--out", str(tmp_path / "att")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: model: ") and re.search(message, lines[0])


@pytest.mark.parametrize("sigma", SIGMA_EXTREMES)
def test_the_oracles_are_finite_at_the_extreme_sigmas(sigma):
    # at the centre, one sigma out and three sigma out: f = exp(-r^2 / 2 sigma^2), with no floating-point warning
    model = fg.gauss_mixture_model([1.0], [[0.0, 0.0]], [sigma])
    xs = np.array([[0.0, 0.0], [sigma, 0.0], [3.0 * sigma, 0.0]])
    with np.errstate(all="raise"):
        got = {name: oracle(model, xs) for name, oracle in BATCH_ORACLES.items()}
    assert all(np.isfinite(v).all() for v in got.values())
    assert got["evaluate_batch"] == pytest.approx(np.exp([0.0, -0.5, -4.5]), rel=1e-15)
    assert got["laplacian_batch"] * sigma**2 == pytest.approx(np.exp([0.0, -0.5, -4.5]) * [-2.0, -1.0, 7.0],
                                                               rel=1e-14)
    # far out the exponent -|x|^2 / 2 sigma^2 passes the float range below sigma = 1 / sqrt 2 and is -inf, whose
    # exponential is exactly 0; at the greatest sigma it stays finite, and only its exponential's underflow to 0
    # is flagged, which numpy ignores by default
    far = np.array([[1e154, 0.0]])
    with np.errstate(all="raise", under="ignore" if sigma > 1.0 else "raise"):
        got = {name: oracle(model, far) for name, oracle in BATCH_ORACLES.items()}
    assert all(np.array_equal(v, np.zeros_like(v)) for v in got.values())


@pytest.mark.parametrize("weights, margin", [([0.0, 0.0], 0.2), ([], 0.2), ([np.nan, 1.0], 0.2), ([np.inf, 1.0], 0.2),
                                             ([1.0, 1.0], np.nan), ([1.0, 1.0], np.inf)])
def test_a_rule_no_point_can_clear_is_refused_at_once(weights, margin):
    # no point clears the margin band of these, so drawing until n do would never end
    with pytest.raises(ValueError, match="weights must be finite and not all zero|margin must be"):
        fg.linear_rule_dataset(weights, 10, margin=margin)


def test_a_margin_no_draw_clears_is_refused_after_a_bounded_draw():
    # P(|score| > 50 |w|) = erfc(50 / sqrt 2), about 1e-545, so no draw keeps a point; in a child process, so
    # a draw without a bound fails the test at its timeout instead of running forever
    code = ("import fluxgrad as fg\n"
            "try:\n    fg.linear_rule_dataset([1.0, 1.0], 10, margin=50.0)\n"
            "except ValueError as e:\n    print(e)\n")
    res = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
                         env=subprocess_env(), timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "margin 50 is cleared by fewer than 10 of 200000 standard-normal draws\n"


FAR_GAUSSIANS = {
    "squares-overflow": (fg.gauss_mixture_model([1.0, 0.5], [[0, 0, 0, 0], [1, 1, 1, 1]], [1.0, 2.0]),
                         np.array([[1.0, -1.0, 0.5, 2.0]]) * 1e154),
    "difference-overflows": (fg.gauss_mixture_model([1.0], [[-1.7e308, 1.7e308, 0.0, 0.0]], [1.0]),
                             np.array([[1.7e308, -1.7e308, 0.0, 0.0]])),  # x and mu at opposite ends of the range
}


@pytest.mark.parametrize("model, x", FAR_GAUSSIANS.values(), ids=FAR_GAUSSIANS.keys())
def test_a_gaussian_term_far_from_its_centres_is_exactly_zero(model, x):
    # every squared distance passes the float range, so each exponential is exactly 0: the value, the gradient
    # and the Laplacian are 0, with no overflow warning and no 0 * inf in the gradient's x - mu or the
    # Laplacian's r^2 / sigma^4 factor
    assert np.array_equal(fg.evaluate_batch(model, x), [0.0])
    assert np.array_equal(fg.gradient_batch(model, x), np.zeros((1, 4)))
    assert np.array_equal(fg.laplacian_batch(model, x), [0.0])


CLOSED_FORMS = {
    "linear": lambda rng, head: fg.linear_model(rng.standard_normal(6), 0.3, head),
    "quadratic": lambda rng, head: fg.quadratic_model(rng.uniform(-1.0, 2.0, 6), rng.standard_normal(6), head),
    "gauss-mixture": lambda rng, head: fg.gauss_mixture_model([1.0, -0.5, 2.0], rng.standard_normal((3, 6)),
                                                              [0.7, 1.0, 1.5], head),
}


def test_closed_form_oracles_are_pinned():
    # The sha256 of evaluate_batch, gradient_batch and laplacian_batch on each closed form under both heads it
    # takes, at 1, 7 and 3,000 rows (two Laplacian blocks of 6-wide rows), every fifth row 30 times as far out, so
    # some exponentials are exactly 0; recorded while the gradient and the Laplacian formed their own exponentials.
    digest, rng = hashlib.sha256(), np.random.default_rng(29)
    for build in CLOSED_FORMS.values():
        for head in (fg.Head(), fg.Head("sigmoid")):
            model = build(rng, head)
            for n in (1, 7, 3000):
                xs = 2.0 * rng.standard_normal((n, 6))
                xs[::5] *= 30.0
                for oracle in BATCH_ORACLES.values():
                    digest.update(oracle(model, xs).tobytes())
    assert digest.hexdigest() == "98f2deee5b1d9805159c878b3d7ae7b1ec734012b97be8af3b8221b59be22195"


def test_a_gaussian_oracle_forms_each_first_stage_once(monkeypatch):
    # the gradient and the Laplacian read the squared distances and the exponentials of the one forward pass
    model = CLOSED_FORMS["gauss-mixture"](np.random.default_rng(3), fg.Head("sigmoid"))
    calls = []
    first = models._first_stage
    monkeypatch.setattr(models, "_first_stage", lambda m, xs: calls.append(len(xs)) or first(m, xs))
    fg.gradient_batch(model, np.ones((5, 6)))
    assert calls == [5]
    calls.clear()
    fg.laplacian_batch(model, np.ones((3000, 6)))  # two blocks
    assert calls == [2730, 270]
