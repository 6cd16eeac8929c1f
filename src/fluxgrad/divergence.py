"""Monte-Carlo checks of the divergence theorem for a model's gradient field.

The volume side integrates the exact Laplacian, from a forward-mode pass
(:func:`~fluxgrad.models.laplacian_batch`), and the surface side the flux of
the reverse-mode gradient, dot-product or element-wise, optionally over a
flux-sign subset; so a report checks ``gradient_batch`` too.  Finite
differences remain only in :func:`divergence_fd`, the test oracle.  Both sides
draw antithetic pairs: each direction u is used twice, as u and as exactly -u,
so ``samples`` model rows take ceil(samples / 2) directions and an odd count's
last row is unpaired.  An estimate's units are the pair means (and that row),
and its value and standard error are theirs.  Both sides reach the model in
row blocks (``models._row_blocks``) of at most 128 KiB of (rows x N)
gradients, or of (rows x width) at an mlp's widest layer; the surface side
draws each block's directions in turn, the same stream as one draw, and
``laplacian_batch`` takes every ball point and runs the blocks itself.
"""

import json

import numpy as np

from .geometry import ball_volume, sphere_area, sphere_directions
from .models import (Model, _check_input, _count, _readonly, _Record, _require_smooth, _row_blocks, _ValueRecord,
                     gradient_batch, laplacian_batch)
from .neflag import SphereSpec

SUBSETS = ("all", "negative", "positive")
MODES = ("dot", "elementwise")


class IntegralEstimate(_Record):
    """Monte-Carlo estimate with its standard error and sample count.

    ``value`` and ``standard_error`` are scalars in dot mode and length-N
    vectors in element-wise mode.
    """

    __slots__ = _fields = ("value", "standard_error", "samples")

    def __init__(self, value, standard_error, samples: int):  # a vector is held as a read-only copy
        super().__init__(*(float(v) if np.ndim(v) == 0 else _readonly(v) for v in (value, standard_error)),
                         _count("samples", samples))


def _mirrored(u: np.ndarray, k: int) -> np.ndarray:
    """k rows: each row of u, then its exact negation, in turn; an odd k's last row is u's last, unpaired."""
    rows = np.empty((k, u.shape[1]))
    rows[::2] = u
    np.negative(u[:k // 2], out=rows[1::2])
    return rows


def _estimate(vals: np.ndarray, scale: float) -> IntegralEstimate:
    """scale * the mean of the units of vals, rows laid out as :func:`_mirrored` lays out their points, and its
    standard error; floats if vals is a vector.  The units are each pair's mean, then an odd count's last row."""
    units = np.concatenate((0.5 * (vals[:-1:2] + vals[1::2]), vals[len(vals) - len(vals) % 2:]))
    n = len(units)
    value = scale * units.mean(axis=0)
    se = scale * units.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(value)
    if units.ndim == 1:
        value, se = float(value), float(se)
    return IntegralEstimate(value, se, len(vals))


def divergence_fd(model: Model, x) -> float:
    """div F at x: central differences of the exact gradient field.

    Only the second derivative is finite-differenced, with step 1e-4; the
    field values themselves use analytic gradients, so a single FD level
    controls the error.
    """
    _require_smooth(model)
    h = 1e-4
    x = _check_input(model, x)
    steps = h * np.eye(x.size)
    plus, minus = gradient_batch(model, x + steps), gradient_batch(model, x - steps)
    return float(np.sum(np.diag(plus) - np.diag(minus)) / (2.0 * h))


def volume_divergence_integral(
    model: Model, ball: SphereSpec, samples: int, seed: int = 0
) -> IntegralEstimate:
    """Monte-Carlo estimate of the divergence integrated over the solid ball the sphere ``ball`` encloses.

    The ``samples`` points are pairs c + r u and c - r u, one radius r = radius * U^(1/N) a direction u; the
    standard error is the pair means' (an odd count's last point is a unit on its own).
    """
    samples = _count("samples", samples)
    rng, pairs = np.random.default_rng(_count("seed", seed, least=0)), samples - samples // 2
    offsets = sphere_directions(rng, pairs, ball.dim)
    offsets *= (ball.radius * rng.random(pairs) ** (1.0 / ball.dim))[:, None]  # scaled in place
    pts = _mirrored(offsets, samples)
    del offsets  # freed before the Laplacian's block temporaries
    pts += ball.center
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
    The ``samples`` points are pairs c + eps u with normal u and c - eps u with normal -u; the standard error
    is the pair means' (an odd count's last point is a unit on its own), and a uniform field's flux is 0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}")
    samples = _count("samples", samples)
    rng, vals = np.random.default_rng(_count("seed", seed, least=0)), []
    for rows in _row_blocks(model, samples, model.dim, unit=2):  # block draws continue one stream
        k = rows.stop - rows.start
        normals = _mirrored(sphere_directions(rng, k - k // 2, sphere.dim), k)
        grads = gradient_batch(model, sphere.center + sphere.radius * normals)
        flux = np.einsum("ij,ij->i", grads, normals)
        if subset == "all":  # no mask: every point counts
            vals.append(flux if mode == "dot" else grads * normals)
            continue
        mask = flux < 0.0 if subset == "negative" else flux >= 0.0
        vals.append(np.where(mask, flux, 0.0) if mode == "dot" else grads * normals * mask[:, None])
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
    and an odd count's last row) for a standard error, so fewer than 3 samples are refused."""
    samples = _count("samples", samples, least=3)
    kids = np.random.SeedSequence(_count("seed", seed, least=0)).spawn(2)
    lhs = volume_divergence_integral(
        model, sphere, samples, np.random.default_rng(kids[0]).integers(2**31)
    )
    rhs = surface_flux_integral(
        model, sphere, samples, np.random.default_rng(kids[1]).integers(2**31)
    )
    se = float(np.hypot(lhs.standard_error, rhs.standard_error))
    return DivergenceTheoremReport(float(lhs.value), float(rhs.value), se, samples)
