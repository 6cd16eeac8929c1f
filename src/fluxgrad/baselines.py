"""Reference gradient-based attribution methods: saliency, smoothed
gradients, and straight-line path-integrated gradients."""

import numpy as np

from .attribution import AttributionMap
from .models import (Model, _check_input, _count, _readonly, _real, _Record, _ValueRecord, evaluate, gradient,
                     gradient_batch)


class SmoothGradConfig(_ValueRecord):
    """Gaussian input noise level, sample count, and seed."""

    __slots__ = _fields = ("sigma", "samples", "seed")

    def __init__(self, sigma: float = 0.1, samples: int = 50, seed: int = 0):
        super().__init__(_real("sigma", sigma, zero=True), _count("samples", samples), _count("seed", seed, least=0))


class IgConfig(_Record):
    """Path-integration baseline point and Riemann step count."""

    __slots__ = _fields = ("baseline", "steps")

    def __init__(self, baseline: np.ndarray | None = None, steps: int = 100):
        steps = _count("steps", steps)
        super().__init__(baseline if baseline is None else _readonly(baseline), steps)


def saliency(model: Model, x) -> AttributionMap:
    """The raw gradient at x."""
    x = _check_input(model, x)
    return AttributionMap(gradient(model, x), "saliency")


def smoothgrad(model: Model, x, cfg: SmoothGradConfig = SmoothGradConfig()) -> AttributionMap:
    """Mean gradient over Gaussian-perturbed copies of x.

    sigma=0 short-circuits to the plain gradient so it equals saliency
    bit-for-bit (averaging identical rows would round the last ulp).
    """
    x = _check_input(model, x)
    if cfg.sigma == 0.0:
        values = gradient(model, x)
    else:
        rng = np.random.default_rng(cfg.seed)
        noise = cfg.sigma * rng.standard_normal((cfg.samples, x.size))
        values = gradient_batch(model, x + noise).mean(axis=0)
    return AttributionMap(values, "smoothgrad", cfg._asdict(), samples_used=cfg.samples)


def integrated_gradients(model: Model, x, cfg: IgConfig = IgConfig()) -> AttributionMap:
    """Gradients accumulated along the straight line baseline -> x.

    Midpoint Riemann sum: (x - b) * mean_j grad(b + (j - 1/2)/steps (x - b)),
    which is second-order accurate in the step count.
    """
    x = _check_input(model, x)
    baseline = np.zeros_like(x) if cfg.baseline is None else _check_input(model, cfg.baseline)
    alphas = (np.arange(cfg.steps) + 0.5) / cfg.steps
    path = baseline + alphas[:, None] * (x - baseline)
    grads = gradient_batch(model, path)
    values = (x - baseline) * grads.mean(axis=0)
    return AttributionMap(
        values, "ig", {"steps": cfg.steps, "baseline": baseline.tolist()}
    )


def _completeness(model: Model, x, attribution: AttributionMap) -> dict:
    """The map's attribution sum, f(x) - f(baseline) for its own baseline, and the gap between them."""
    if "baseline" not in attribution.params:
        raise ValueError(f"the {attribution.method} map records no baseline")
    total = float(attribution.values.sum())
    delta_f = float(evaluate(model, x) - evaluate(model, attribution.params["baseline"]))
    return {"attribution_sum": total, "delta_f": delta_f, "gap": total - delta_f}


def ig_completeness_gap(model: Model, x, attribution: AttributionMap) -> float:
    """Attribution sum minus (f(x) - f(baseline)) for the map's own baseline; near zero for good paths."""
    return _completeness(model, x, attribution)["gap"]


def random_attribution(model: Model, x, seed: int = 0) -> AttributionMap:
    """Standard-normal scores, the null reference for evaluation harnesses."""
    x, seed = _check_input(model, x), _count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    return AttributionMap(rng.standard_normal(x.size), "random", {"seed": seed})
