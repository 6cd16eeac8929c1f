"""Monte-Carlo checks of the divergence theorem for a model's gradient field.

The volume side integrates the exact Laplacian, from a forward-mode pass
(:func:`~fluxgrad.models.laplacian_batch`), and the surface side the flux of
the reverse-mode gradient, dot-product or element-wise, optionally over a
flux-sign subset; so a report checks ``gradient_batch`` too.  Each side draws
its ceil(samples / 2) directions in one call, and :mod:`~fluxgrad.geometry`
lays them out in pairs u, -u and reduces the integrand to units, a mean and a
standard error.  Both sides reach the model in row blocks of at most 128 KiB
of (rows x N) gradients, or of (rows x width) at an mlp's widest layer: the
surface side calls ``gradient_batch`` a block at a time, and
``laplacian_batch`` takes every ball point and runs the blocks itself.
"""

import json

import numpy as np

from .errors import MeasureOverflow
from .geometry import IntegralEstimate, SphereSpec, _estimate, _mirrored, ball_volume, sphere_area, sphere_directions
from .models import Model, _count, _row_blocks, _ValueRecord, gradient_batch, laplacian_batch

SUBSETS = ("all", "negative", "positive")
MODES = ("dot", "elementwise")


def volume_divergence_integral(
    model: Model, ball: SphereSpec, samples: int, seed: int = 0
) -> IntegralEstimate:
    """Monte-Carlo estimate of the divergence integrated over the solid ball the sphere ``ball`` encloses.

    The ``samples`` points are pairs c + r u and c - r u, one radius r = radius * U^(1/N) a direction u; the
    standard error is the pair means' (an odd count's last point is a unit on its own).
    """
    samples = _count("samples", samples)
    rng = np.random.default_rng(_count("seed", seed, least=0))
    pts = _mirrored(sphere_directions(rng, samples - samples // 2, ball.dim), samples)
    pts *= np.repeat(ball.radius * rng.random(samples - samples // 2) ** (1.0 / ball.dim), 2)[:samples, None]
    pts += ball.center  # scaled and shifted in place, before the Laplacian's block temporaries
    return _estimate(laplacian_batch(model, pts), ball_volume(ball.dim, ball.radius))


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
    The ``samples`` points are pairs c + eps u and c - eps u, normals u and -u, so a uniform field's flux is 0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}")
    samples = _count("samples", samples)
    rng, vals = np.random.default_rng(_count("seed", seed, least=0)), []
    normals = _mirrored(sphere_directions(rng, samples - samples // 2, sphere.dim), samples)
    for u in (normals[rows] for rows in _row_blocks(model, samples, model.dim)):
        grads = gradient_batch(model, sphere.center + sphere.radius * u)
        flux = np.einsum("ij,ij->i", grads, u)
        if subset != "all":  # an excluded point contributes zero
            keep = flux < 0.0 if subset == "negative" else flux >= 0.0
            flux, grads = np.where(keep, flux, 0.0), grads * keep[:, None]
        vals.append(flux if mode == "dot" else grads * u)
    return _estimate(np.concatenate(vals), sphere_area(sphere.dim, sphere.radius))


class DivergenceTheoremReport(_ValueRecord):
    """Both sides of the volume/surface identity with a PASS verdict."""

    __slots__ = _fields = ("volume_integral", "surface_integral", "combined_standard_error", "samples")

    @property
    def difference(self) -> float:
        return self.volume_integral - self.surface_integral

    @property
    def passed(self) -> bool:
        """Agreement within 3 combined standard errors or 2% relative, whichever is looser (so 0 == 0 passes)."""
        scale = max(abs(self.volume_integral), abs(self.surface_integral))
        return bool(abs(self.difference) <= max(3.0 * self.combined_standard_error, 0.02 * scale))

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
    """Cross-check the volume divergence integral against the surface flux; see
    :attr:`DivergenceTheoremReport.passed` for the verdict.  Each side needs two units (two pairs, or a pair
    and an odd count's last row) for a standard error, so fewer than 3 samples are refused.  Raises
    :class:`MeasureOverflow` when either side, their difference or the standard error is not a finite float."""
    samples = _count("samples", samples, least=3)
    ball_volume(sphere.dim, sphere.radius), sphere_area(sphere.dim, sphere.radius)  # a measure's overflow names itself
    kids = np.random.SeedSequence(_count("seed", seed, least=0)).spawn(2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused, not warned of
            lhs = volume_divergence_integral(model, sphere, samples, np.random.default_rng(kids[0]).integers(2**31))
            rhs = surface_flux_integral(model, sphere, samples, np.random.default_rng(kids[1]).integers(2**31))
            se = float(np.hypot(lhs.standard_error, rhs.standard_error))
        finite = np.isfinite((lhs.value - rhs.value, se)).all()
    except MeasureOverflow:
        finite = False
    if not finite:
        raise MeasureOverflow(f"the divergence integrals over the ball of radius {sphere.radius:g} in R^{sphere.dim} "
                              "overflow a float")
    return DivergenceTheoremReport(lhs.value, rhs.value, se, samples)
