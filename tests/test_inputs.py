"""Argument checks at every entry point: one gate for inputs, integer seeds, and grids that fit the model.

A single input is a length-N vector and a batch an (n, N) array; both must be finite.  Every method and
oracle that takes one refuses a wrong shape with DimensionMismatch and a NaN with NonFiniteInput, so
``benchmark`` counts such an input as failed.
"""

import pickle

import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad.evalkit import METHODS, EvalConfig, make_method

MODEL = fg.random_mlp(8, seed=1)  # softplus, so divergence_fd takes it
GOOD = np.linspace(-0.4, 0.3, 8)
BAD = {
    "two-rows": (GOOD.reshape(2, 4), fg.DimensionMismatch),
    "one-row-2d": (GOOD[None, :], fg.DimensionMismatch),
    "nan": (np.where(np.arange(8) == 3, np.nan, GOOD), fg.NonFiniteInput),
}
SPHERE = fg.SphereSpec(GOOD - 0.1 * np.eye(8)[0], 0.1)  # GOOD is on it

ENTRY_POINTS = {
    **{f"make_method-{name}": lambda x, name=name: make_method(name)(MODEL, x, 5) for name in METHODS},
    "neflag_attribute": lambda x: fg.neflag_attribute(MODEL, x),
    "taylor_heatmap-x": lambda x: fg.taylor_heatmap(MODEL, x, GOOD + 0.1),
    "taylor_heatmap-point": lambda x: fg.taylor_heatmap(MODEL, GOOD, x),
    "flux_at": lambda x: fg.flux_at(MODEL, SPHERE, x),
    "recurrence_step": lambda x: fg.recurrence_step(MODEL, SPHERE, x),
    "saliency": lambda x: fg.saliency(MODEL, x),
    "smoothgrad": lambda x: fg.smoothgrad(MODEL, x),
    "integrated_gradients": lambda x: fg.integrated_gradients(MODEL, x),
    "integrated_gradients-baseline": lambda x: fg.integrated_gradients(MODEL, GOOD, fg.IgConfig(baseline=x)),
    "random_attribution": lambda x: fg.random_attribution(MODEL, x),
    "evaluate": lambda x: fg.evaluate(MODEL, x),
    "gradient": lambda x: fg.gradient(MODEL, x),
    "fd_gradient": lambda x: fg.fd_gradient(MODEL, x),
    "divergence_fd": lambda x: fg.divergence_fd(MODEL, x),
    "training_accuracy": lambda x: fg.training_accuracy(MODEL, np.asarray(x)[None], [0]),  # x as a batch's row
    "deletion_curve": lambda x: fg.deletion_curve(MODEL, x, fg.saliency(MODEL, GOOD)),
}


@pytest.mark.parametrize("case", BAD)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_input_with_its_error(entry, case):
    ENTRY_POINTS[entry](GOOD)  # the call itself is sound
    x, error = BAD[case]
    with pytest.raises(error):
        ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("case", BAD)
def test_benchmark_counts_a_bad_input_as_failed_for_every_method(case):
    methods = {name: make_method(name) for name in METHODS}
    report = fg.benchmark(MODEL, [BAD[case][0], GOOD], methods, EvalConfig("mean"), seed=2)
    assert [(r.method, r.samples_ok, r.samples_failed) for r in report.results] == [(n, 1, 1) for n in METHODS]


def test_batch_gate_refuses_more_than_two_axes():
    for oracle in (fg.evaluate_batch, fg.gradient_batch, fg.laplacian_batch):
        assert oracle(MODEL, GOOD[None]).shape[0] == 1
        with pytest.raises(fg.DimensionMismatch, match=r"shape \(1, 1, 8\)"):
            oracle(MODEL, GOOD[None, None])


SEEDED = {  # each call returns the seed it holds
    "NeflagConfig": lambda seed: fg.NeflagConfig(seed=seed).seed,
    "SmoothGradConfig": lambda seed: fg.SmoothGradConfig(seed=seed).seed,
    "random_attribution": lambda seed: fg.random_attribution(MODEL, GOOD, seed).params["seed"],
    "benchmark": lambda seed: fg.benchmark(MODEL, [GOOD], {"saliency": make_method("saliency")}, seed=seed).seed,
}


@pytest.mark.parametrize("held", SEEDED.values(), ids=SEEDED.keys())
def test_seeds_are_non_negative_integers(held):
    for bad in (2.5, True, -1, None):
        with pytest.raises(ValueError, match="seed must be"):
            held(bad)
    for seed in (0, np.int64(3), 2**70):
        got = held(seed)
        assert type(got) is int and got == seed


SEED_TAKERS = {  # each call draws from the seed it is given
    "fit_toy_model": lambda seed: fg.fit_toy_model(np.eye(2), [0, 1], hidden=(2,), epochs=1, seed=seed),
    "random_mlp": lambda seed: fg.random_mlp(4, seed=seed),
    "blob_dataset": lambda seed: fg.blob_dataset(4, seed=seed),
    "linear_rule_dataset": lambda seed: fg.linear_rule_dataset([1.0, 2.0], n=4, seed=seed),
    "sample_sphere": lambda seed: fg.sample_sphere(SPHERE, seed),
    "find_negative_flux_point": lambda seed: fg.find_negative_flux_point(MODEL, SPHERE, fg.NeflagConfig(), seed),
    "volume_divergence_integral": lambda seed: fg.volume_divergence_integral(MODEL, SPHERE, 4, seed),
    "surface_flux_integral": lambda seed: fg.surface_flux_integral(MODEL, SPHERE, 4, seed),
    "divergence_theorem_report": lambda seed: fg.divergence_theorem_report(MODEL, SPHERE, 4, seed),
}


@pytest.mark.parametrize("call", SEED_TAKERS.values(), ids=SEED_TAKERS.keys())
def test_every_seed_is_a_non_negative_integer(call):
    for bad in (2.5, True, -1, -3):
        with pytest.raises(ValueError, match="seed must be"):
            call(bad)
    assert pickle.dumps(call(np.int64(3))) == pickle.dumps(call(3))
    call(2**70)


def test_seed_none_is_the_configs_only_in_find_negative_flux_point():
    cfg = fg.NeflagConfig(seed=4)
    at_none = fg.find_negative_flux_point(MODEL, SPHERE, cfg, None)
    assert np.array_equal(at_none.location, fg.find_negative_flux_point(MODEL, SPHERE, cfg, 4).location)
    for name, call in SEED_TAKERS.items():
        if name != "find_negative_flux_point":
            with pytest.raises(ValueError, match="seed must be"):
                call(None)


def test_grids_are_two_positive_integers():
    for grid in ((2.5, 2), (-2, -2), (0, 4), (True, 4), (2, 2, 1)):
        with pytest.raises(ValueError):
            EvalConfig("blur", grid=grid)
    cfg = EvalConfig("blur", grid=[np.int64(2), 3])
    assert cfg.grid == (2, 3) and all(type(g) is int for g in cfg.grid)


def test_benchmark_refuses_a_grid_that_does_not_fit_before_any_method_runs():
    model = fg.random_mlp(4, seed=1)
    X = np.random.default_rng(0).standard_normal((3, 4))
    calls = []

    def method(m, x, seed):
        calls.append(seed)
        return fg.saliency(m, x)

    with pytest.raises(fg.DimensionMismatch, match="grid 3x3 does not match 4 features"):
        fg.benchmark(model, X, {"saliency": method}, EvalConfig("blur", grid=(3, 3)))
    assert calls == []
    report = fg.benchmark(model, X, {"saliency": method}, EvalConfig("blur", grid=(2, 2)))
    assert (report.results[0].samples_ok, report.results[0].samples_failed) == (3, 0)
