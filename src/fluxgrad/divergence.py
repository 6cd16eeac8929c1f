"""Brute-force numerical oracles for divergence and flux integrals.

These integrators exist to *verify* the flux machinery rather than to be
fast: Monte-Carlo volume integrals of the divergence, Monte-Carlo surface
integrals of the flux (dot-product or element-wise, optionally restricted
to a flux-sign subset), and a divergence-theorem cross-check report.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotSmooth
from .geometry import ball_points, ball_volume, sphere_area, sphere_directions
from .models import Model, gradient_batch
from .neflag import SphereSpec

SUBSETS = ("all", "negative", "positive")
MODES = ("dot", "elementwise")


@dataclass(frozen=True, eq=False)
class IntegralEstimate:
    """Monte-Carlo estimate with its standard error and sample count.

    ``value`` and ``standard_error`` are scalars in dot mode and length-N
    vectors in element-wise mode.
    """

    value: object
    standard_error: object
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def _estimate(vals: np.ndarray, scale: float) -> IntegralEstimate:
    """scale * the mean row of vals, and its standard error; floats if vals is a vector."""
    n = len(vals)
    value = scale * vals.mean(axis=0)
    se = scale * vals.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(value)
    if vals.ndim == 1:
        value, se = float(value), float(se)
    return IntegralEstimate(value, se, n)


def _require_smooth(model: Model):
    if model.uses_relu:
        raise NotSmooth("field not continuously differentiable (relu activation)")


def divergence_fd(model: Model, x) -> float:
    """div F at x: central differences of the exact gradient field.

    Only the second derivative is finite-differenced, with step 1e-4; the
    field values themselves use analytic gradients, so a single FD level
    controls the error.
    """
    _require_smooth(model)
    x = np.asarray(x, dtype=float)
    return _divergence_fd_batch(model, x[None, :])[0]


def _divergence_fd_batch(model: Model, xs: np.ndarray) -> np.ndarray:
    """Vectorized divergence at every row of xs."""
    h = 1e-4
    n, dim = xs.shape
    total = np.zeros(n)
    for i in range(dim):
        step = np.zeros(dim)
        step[i] = h
        gp = gradient_batch(model, xs + step)[:, i]
        gm = gradient_batch(model, xs - step)[:, i]
        total += (gp - gm) / (2.0 * h)
    return total


def volume_divergence_integral(
    model: Model, ball: SphereSpec, samples: int, seed: int = 0
) -> IntegralEstimate:
    """Monte-Carlo estimate of the divergence integrated over the solid ball the sphere ``ball`` encloses."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _require_smooth(model)
    rng = np.random.default_rng(seed)
    pts = ball_points(rng, samples, ball.center, ball.radius)
    return _estimate(_divergence_fd_batch(model, pts), ball_volume(ball.dim, ball.radius))


def surface_flux_integral(
    model: Model,
    sphere: SphereSpec,
    samples: int,
    seed: int = 0,
    mode: str = "dot",
    subset: str = "all",
) -> IntegralEstimate:
    """Monte-Carlo surface integral of the flux over the sphere.

    mode ``dot`` integrates the scalar F . n; ``elementwise`` integrates
    the vector F * n per coordinate.  ``subset`` restricts to points whose
    dot-product flux is negative (< 0) or positive (>= 0); excluded points
    contribute zero, so negative + positive = all on the same sample set.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    normals = sphere_directions(rng, samples, sphere.dim)
    pts = sphere.center + sphere.radius * normals
    grads = gradient_batch(model, pts)
    flux = np.einsum("ij,ij->i", grads, normals)
    if subset == "negative":
        mask = flux < 0.0
    elif subset == "positive":
        mask = flux >= 0.0
    else:
        mask = np.ones(samples, dtype=bool)
    vals = np.where(mask, flux, 0.0) if mode == "dot" else grads * normals * mask[:, None]
    return _estimate(vals, sphere_area(sphere.dim, sphere.radius))


@dataclass(frozen=True)
class DivergenceTheoremReport:
    """Both sides of the volume/surface identity with a PASS verdict."""

    volume_integral: float
    surface_integral: float
    difference: float
    combined_standard_error: float
    passed: bool
    samples: int

    def to_json(self) -> dict:
        return {
            "lhs": self.volume_integral,
            "rhs": self.surface_integral,
            "diff": self.difference,
            "stderr": self.combined_standard_error,
            "pass": self.passed,
            "samples": self.samples,
        }

    def json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def divergence_theorem_report(
    model: Model,
    sphere: SphereSpec,
    samples: int = 100_000,
    seed: int = 0,
) -> DivergenceTheoremReport:
    """Cross-check the volume divergence integral against the surface flux.

    PASS when the two sides agree within 3 combined standard errors or 2%
    relative (whichever is looser).
    """
    ss = np.random.SeedSequence(seed)
    kids = ss.spawn(2)
    lhs = volume_divergence_integral(
        model, sphere, samples, np.random.default_rng(kids[0]).integers(2**31)
    )
    rhs = surface_flux_integral(
        model, sphere, samples, np.random.default_rng(kids[1]).integers(2**31)
    )
    diff = lhs.value - rhs.value
    se = float(np.hypot(lhs.standard_error, rhs.standard_error))
    scale = max(abs(lhs.value), abs(rhs.value))
    passed = abs(diff) < 3.0 * se or (scale > 0 and abs(diff) < 0.02 * scale)
    return DivergenceTheoremReport(
        float(lhs.value), float(rhs.value), float(diff), se, bool(passed), samples
    )
