"""The records and configs: immutable, dataclass-style repr, comparison as before, and copies that stay frozen.

Every class is built here with each field set, so a copy that drops or reorders a field shows in its
repr, its equality and its outputs.
"""

import copy
import json
import pickle

import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad import evalkit

MODEL = fg.random_mlp(3, hidden=(4,), out_dim=3, activation="tanh", seed=2, head=fg.Head("softmax", 1))
X = np.array([0.3, -0.2, 0.5])
POINTS = np.random.default_rng(0).standard_normal((5, 3))


def _report():
    methods = {"saliency": evalkit.make_method("saliency"), "random": evalkit.make_method("random")}
    return evalkit.benchmark(MODEL, [X, -X], methods, fg.EvalConfig("mean"), seed=4)


RECORDS = {
    "Head": fg.Head("softmax", 1),
    "Layer": fg.Layer(np.array([[0.5, -1.0, 2.0]]), np.array([0.1]), "tanh"),
    "Model": MODEL,
    "AttributionMap": fg.AttributionMap([0.5, -1.5, 2.0], "neflag", {"epsilon": 0.1}, 3),
    "SmoothGradConfig": fg.SmoothGradConfig(0.2, 7, 3),
    "IgConfig": fg.IgConfig(np.array([0.1, 0.0, -0.1]), 9),
    "IntegralEstimate": fg.IntegralEstimate(np.array([1.0, -2.0]), np.array([0.1, 0.2]), 5),
    "DivergenceTheoremReport": fg.divergence_theorem_report(MODEL, fg.SphereSpec(X, 0.5), samples=64, seed=1),
    "EvalConfig": fg.EvalConfig("blur", grid=(1, 3)),
    "EvalCurve": fg.EvalCurve([0.9, 0.4, 0.1]),
    "MethodResult": _report().results[0],
    "BenchmarkReport": _report(),
    "SphereSpec": fg.SphereSpec(X, 0.25),
    "FluxPoint": fg.flux_at(MODEL, fg.SphereSpec(X, 0.25), X + np.array([0.0, 0.25, 0.0])),
    "NeflagConfig": fg.NeflagConfig(0.2, 3, 2, "normalized", 9),
    "FitResult": fg.FitResult(MODEL, 0.25, 0.75),
}

# each class's fields in the order its dataclass declared them
FIELDS = {
    "Head": ("type", "target", "use_logit"),
    "Layer": ("weight", "bias", "activation"),
    "Model": ("kind", "dim", "params", "head"),
    "AttributionMap": ("values", "method", "params", "samples_used"),
    "SmoothGradConfig": ("sigma", "samples", "seed"),
    "IgConfig": ("baseline", "steps"),
    "IntegralEstimate": ("value", "standard_error", "samples"),
    "DivergenceTheoremReport": ("volume_integral", "surface_integral", "combined_standard_error", "samples"),
    "EvalConfig": ("replacement", "grid"),
    "EvalCurve": ("scores",),
    "MethodResult": ("method", "deletion_mean", "deletion_se", "insertion_mean", "insertion_se",
                     "difference_mean", "difference_se", "samples_ok", "samples_failed"),
    "BenchmarkReport": ("results", "replacement", "seed"),
    "SphereSpec": ("center", "radius"),
    "FluxPoint": ("location", "gradient", "normal", "approx_flux"),
    "NeflagConfig": ("epsilon", "n_samples", "max_steps", "step_rule", "seed"),
    "FitResult": ("model", "loss", "accuracy"),
}

BY_VALUE = {"SmoothGradConfig", "NeflagConfig", "EvalConfig", "MethodResult", "BenchmarkReport",
            "DivergenceTheoremReport", "FitResult"}
HOLDS_ARRAYS = {"Layer", "Model", "AttributionMap", "IgConfig", "EvalCurve", "SphereSpec", "FluxPoint",
                "IntegralEstimate", "FitResult"}


def _model_bytes(model):
    return (fg.evaluate_batch(model, POINTS).tobytes() + fg.gradient_batch(model, POINTS).tobytes()
            + fg.models.model_json_str(model).encode())


def _array_bytes(*arrays):
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


# what each record computes or writes, as bytes
OUTPUTS = {
    "Head": lambda h: _model_bytes(fg.mlp_model(MODEL.params, h)),
    "Layer": lambda layer: _model_bytes(fg.mlp_model([layer])),
    "Model": _model_bytes,
    "AttributionMap": lambda a: (json.dumps(a.to_json(), sort_keys=True) + a.csv_str()
                                 + a.pgm_str((1, 3))).encode() + evalkit.feature_order(a).tobytes(),
    "SmoothGradConfig": lambda c: fg.smoothgrad(MODEL, X, c).values.tobytes(),
    "IgConfig": lambda c: fg.integrated_gradients(MODEL, X, c).values.tobytes(),
    "IntegralEstimate": lambda e: _array_bytes(e.value, e.standard_error, e.samples),
    "DivergenceTheoremReport": lambda r: (r.json_str() + repr((r.difference, r.passed))).encode(),
    "EvalConfig": lambda c: fg.deletion_curve(MODEL, X, fg.saliency(MODEL, X), c).scores.tobytes(),
    "EvalCurve": lambda c: _array_bytes(c.scores, c.fractions, c.auc),
    "MethodResult": lambda r: json.dumps(r._asdict(), sort_keys=True).encode(),
    "BenchmarkReport": lambda r: (r.json_str() + r.csv_str()).encode(),
    "SphereSpec": lambda s: (fg.sample_sphere(s, 5).tobytes() + s.offset(X).tobytes()
                             + fg.neflag_attribute(MODEL, s.center, fg.NeflagConfig(s.radius, 4)).values.tobytes()),
    "FluxPoint": lambda p: _array_bytes(p.location, p.gradient, p.normal, p.approx_flux, p.flux, p.is_negative),
    "NeflagConfig": lambda c: fg.neflag_attribute(MODEL, X, c).values.tobytes() + repr(c.to_params()).encode(),
    "FitResult": lambda r: _model_bytes(r.model) + _array_bytes(r.loss, r.accuracy),
}

COPIES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _arrays(value):
    """Every array reachable through a field: in tuples and in the fields of nested records."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)
    elif isinstance(value, fg.models._Record):
        for f in value._fields:
            yield from _arrays(getattr(value, f))


def test_every_record_class_is_covered():
    assert len(RECORDS) == 16
    assert all(type(obj).__name__ == name for name, obj in RECORDS.items())
    assert RECORDS.keys() == FIELDS.keys() == OUTPUTS.keys()


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    obj = RECORDS[name]
    assert type(obj)._fields == FIELDS[name]
    for field in FIELDS[name]:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_repr_has_the_dataclass_form(name):
    obj = RECORDS[name]
    fields = ", ".join(f"{f}={getattr(obj, f)!r}" for f in FIELDS[name])
    assert repr(obj) == f"{name}({fields})"


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hashing(name):
    obj, twin = RECORDS[name], copy.copy(RECORDS[name])
    assert obj == obj and twin is not obj
    assert obj != object() and obj != name
    if name in BY_VALUE:
        assert twin == obj and not twin != obj
        if name == "FitResult":  # unhashable, as a mutable dataclass was
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(twin) == hash(obj)
            last = FIELDS[name][-1]
            assert twin._replace(**{last: 10**6 if last == "seed" else None}) != obj  # a config's seed is an integer
    else:
        assert twin != obj
        assert hash(obj) == object.__hash__(obj)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", RECORDS)
def test_copies_are_checked_frozen_and_give_the_same_outputs(name, how):
    obj = RECORDS[name]
    dup = COPIES[how](obj)
    assert type(dup) is type(obj) and dup is not obj
    assert repr(dup) == repr(obj)
    before = OUTPUTS[name](obj)
    got = [a.flags.writeable for a in _arrays(dup)]
    assert got == [a.flags.writeable for a in _arrays(obj)]
    assert bool(got) == (name in HOLDS_ARRAYS) and not any(got)  # every array a record holds is read-only
    for a in _arrays(dup):
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
    assert OUTPUTS[name](dup) == before
    assert OUTPUTS[name](obj) == before


def test_records_keep_their_values_when_the_caller_changes_what_it_passed():
    x_t, value, se = X + np.array([0.0, 0.25, 0.0]), np.array([1.0, -2.0]), np.array([0.1, 0.2])
    params = {"epsilon": 0.1, "baseline": [0.0, 1.0]}
    point = fg.flux_at(MODEL, fg.SphereSpec(X, 0.25), x_t)
    est = fg.IntegralEstimate(value, se, 5)
    amap = fg.AttributionMap([0.5, -1.5], "ig", params)
    x_t[0], value[0], se[0], params["epsilon"] = 5.0, 5.0, 5.0, 9.0
    params["baseline"].append(2.0)
    assert np.array_equal(point.location, X + np.array([0.0, 0.25, 0.0]))
    assert np.array_equal(est.value, [1.0, -2.0]) and np.array_equal(est.standard_error, [0.1, 0.2])
    assert amap.params == {"epsilon": 0.1, "baseline": (0.0, 1.0)}
    with pytest.raises(TypeError):
        amap.params["epsilon"] = 1.0
    with pytest.raises(AttributeError):
        amap.params["baseline"].append(2.0)
    doc = amap.to_json()
    doc["params"]["epsilon"] = 2.0
    assert amap.params["epsilon"] == 0.1 and amap.to_json()["params"] is not doc["params"]
    assert json.dumps(doc["params"]) == '{"epsilon": 2.0, "baseline": [0.0, 1.0]}'
    assert type(fg.IntegralEstimate(1.0, 0.5, 3).value) is float  # a scalar stays a Python float


def test_pickled_model_keeps_its_output_when_the_original_is_gone():
    blob = pickle.dumps(MODEL)
    dup = pickle.loads(blob)
    assert not dup.params[0].weight.flags.writeable
    assert _model_bytes(dup) == _model_bytes(MODEL)
    assert pickle.dumps(dup) == blob


def test_replace_rebuilds_through_the_constructor():
    cfg = fg.NeflagConfig(0.2, 3)
    assert cfg._replace(seed=5) == fg.NeflagConfig(0.2, 3, seed=5)
    assert cfg == fg.NeflagConfig(0.2, 3)  # unchanged
    with pytest.raises(ValueError, match="epsilon"):
        cfg._replace(epsilon=-1.0)
    with pytest.raises(TypeError):
        cfg._replace(bogus=1)
    grid = fg.EvalConfig("blur", grid=(1, 3))
    assert grid._replace(replacement="mean") == fg.EvalConfig("mean", grid=(1, 3))
    head = fg.Head("softmax", 2)
    other = MODEL._replace(head=head)
    assert other.head is head and other.params is MODEL.params and other.dim == MODEL.dim
    with pytest.raises(TypeError):
        MODEL._replace(dim=4)  # derived from params, not an argument


def test_records_without_checks_take_each_field_once_by_position_or_name():
    want = fg.FitResult(MODEL, 0.25, 0.75)
    assert fg.FitResult(MODEL, accuracy=0.75, loss=0.25) == want
    assert fg.FitResult(model=MODEL, loss=0.25, accuracy=0.75) == want
    for args, kwargs in [((MODEL, 0.25), {}), ((MODEL, 0.25, 0.75, 1), {}), ((MODEL, 0.25, 0.75), {"loss": 0.5}),
                         ((MODEL, 0.25), {"acc": 0.75})]:
        with pytest.raises(TypeError, match="model, loss, accuracy"):
            fg.FitResult(*args, **kwargs)


def test_eval_config_grid_stays_keyword_only_through_copies():
    cfg = RECORDS["EvalConfig"]
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    with pytest.raises(TypeError):
        fg.EvalConfig("blur", (1, 3))


@pytest.mark.parametrize("name, config", [("neflag", fg.NeflagConfig), ("ig", fg.IgConfig),
                                          ("smoothgrad", fg.SmoothGradConfig)])
def test_make_method_takes_exactly_its_configs_fields(name, config):
    evalkit.make_method(name, **config()._asdict())  # every field, at its default
    for field in config._fields:
        evalkit.make_method(name, **{field: getattr(config(), field)})
    with pytest.raises(ValueError, match=f"unknown {name} parameter"):
        evalkit.make_method(name, bogus=1)
    with pytest.raises(ValueError, match=f"unknown {name} parameter"):
        evalkit.make_method(name, _fields=())
