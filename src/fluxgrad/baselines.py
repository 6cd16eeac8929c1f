"""Reference gradient-based attribution methods: saliency, smoothed
gradients, and straight-line path-integrated gradients."""

from dataclasses import dataclass

import numpy as np

from .attribution import AttributionMap
from .errors import DimensionMismatch
from .models import Model, _check_input, _readonly, evaluate, gradient, gradient_batch


@dataclass(frozen=True)
class SmoothGradConfig:
    """Gaussian input noise level, sample count, and seed."""

    sigma: float = 0.1
    samples: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True, eq=False)
class IgConfig:
    """Path-integration baseline point and Riemann step count."""

    baseline: np.ndarray | None = None
    steps: int = 100

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.baseline is not None:
            object.__setattr__(self, "baseline", _readonly(self.baseline))


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
    return AttributionMap(
        values,
        "smoothgrad",
        {
            "sigma": cfg.sigma,
            "samples": cfg.samples,
            "seed": cfg.seed,
        },
        samples_used=cfg.samples,
    )


def integrated_gradients(model: Model, x, cfg: IgConfig = IgConfig()) -> AttributionMap:
    """Gradients accumulated along the straight line baseline -> x.

    Midpoint Riemann sum: (x - b) * mean_j grad(b + (j - 1/2)/steps (x - b)),
    which is second-order accurate in the step count.
    """
    x = _check_input(model, x)
    baseline = np.zeros_like(x) if cfg.baseline is None else np.asarray(cfg.baseline)
    if baseline.size != x.size:
        raise DimensionMismatch("baseline length does not match input")
    alphas = (np.arange(cfg.steps) + 0.5) / cfg.steps
    path = baseline + alphas[:, None] * (x - baseline)
    grads = gradient_batch(model, path)
    values = (x - baseline) * grads.mean(axis=0)
    return AttributionMap(
        values, "ig", {"steps": cfg.steps, "baseline": baseline.tolist()}
    )


def ig_completeness_gap(model: Model, x, attribution: AttributionMap, baseline=None) -> float:
    """Attribution sum minus (f(x) - f(baseline)); near zero for good paths."""
    x = np.asarray(x, dtype=float)
    baseline = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=float)
    return float(attribution.values.sum() - (evaluate(model, x) - evaluate(model, baseline)))


def random_attribution(model: Model, x, seed: int = 0) -> AttributionMap:
    """Standard-normal scores, the null reference for evaluation harnesses."""
    x = _check_input(model, x)
    rng = np.random.default_rng(seed)
    return AttributionMap(rng.standard_normal(x.size), "random", {"seed": seed})
