"""Negative-flux aggregation on an epsilon-sphere.

The attribution for input x is built by locating points x~ on the sphere of
radius epsilon around x where the gradient field flows inward (negative
flux F(x~) . n), and summing the element-wise products F(x~) * (x - x~)
over those points.  Candidate points are refined by a fixed-point
recurrence that steps from the sphere center against the gradient
direction, in one of two flavors:

* ``sign``        -- x~ = x - eps * sign(F(u)), a componentwise step from the
  previous point u that lands on a hypercube corner at L2 distance
  eps * sqrt(N).
* ``normalized``  -- x~ = x - eps * F / |F|, which stays exactly on the
  sphere and is a fixed-point iteration for on-sphere minimizers of f.
* ``none``        -- pure rejection sampling: keep the uniform sphere draw
  as-is (useful as an unbiased reference for the surface integral).

Each candidate is one uniform start refined by ``max_steps`` recurrence
steps; a candidate without negative flux is dropped for a fresh start.

The samples of one attribution are searched in lockstep: each recurrence
step is one ``gradient_batch`` call over every sample still searching, and
one more call at the final points gives the flux.  Each draw takes one
(n_samples, N) block of sphere points from one generator, row i for sample i.
"""

import numpy as np

from .attribution import AttributionMap
from .errors import DimensionMismatch, NoNegativeFlux, NonFiniteInput, OffSphere, StationaryGradient
from .geometry import _row_norms, sphere_points
from .models import Model, _check_input, _count, _readonly, _Record, _ValueRecord, evaluate, gradient, gradient_batch

STEP_RULES = ("sign", "normalized", "none")


class SphereSpec(_Record):
    """The epsilon-sphere S_x: a finite center x and a radius epsilon with x + epsilon > x in every entry."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: np.ndarray, radius: float):
        super().__init__(_readonly(center), float(radius))
        if not 0 < self.radius < np.inf:
            raise ValueError("sphere radius must be positive and finite")
        if not (self.center + self.radius > self.center).all():  # one vector pass finds NaN, inf and a lost radius
            if not np.isfinite(self.center).all():
                raise NonFiniteInput("input contains non-finite components")
            raise OffSphere(f"sphere radius {self.radius:g} is lost in rounding at a center of magnitude "
                            f"{abs(self.center).max():.3g}")

    @property
    def dim(self) -> int:
        return self.center.size

    def offset(self, point) -> np.ndarray:
        return np.asarray(point, dtype=float) - self.center


class FluxPoint(_Record):
    """A surface point with its gradient, unit normal, and signed flux.

    ``flux`` is the exact dot product F(x~) . n; ``approx_flux`` is the
    first-order surrogate (f(x~) - f(x)) / dist that avoids a gradient
    evaluation.
    """

    __slots__ = _fields = ("location", "gradient", "normal", "approx_flux")

    def __init__(self, location, gradient, normal, approx_flux: float):  # the arrays as read-only copies
        super().__init__(_readonly(location), _readonly(gradient), _readonly(normal), approx_flux)

    @property
    def flux(self) -> float:
        return float(self.gradient @ self.normal)

    @property
    def is_negative(self) -> bool:
        return self.flux < 0.0


class NeflagConfig(_ValueRecord):
    """Knobs of the negative-flux search and aggregation.

    ``n_samples`` negative-flux points are aggregated; each is found by
    running ``max_steps`` recurrence updates from one uniform sphere sample,
    redrawn for each rejected candidate.  Defaults epsilon=0.1, n_samples=20,
    max_steps=1.
    """

    __slots__ = _fields = ("epsilon", "n_samples", "max_steps", "step_rule", "seed")

    def __init__(self, epsilon: float = 0.1, n_samples: int = 20, max_steps: int = 1, step_rule: str = "sign",
                 seed: int = 0):
        if not 0 < epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        n_samples, max_steps = _count("n_samples", n_samples), _count("max_steps", max_steps)
        if step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {step_rule!r}")
        super().__init__(epsilon, n_samples, max_steps, step_rule, _count("seed", seed, least=0))

    def to_params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n": self.n_samples,
            "m": self.max_steps,
            "step_rule": self.step_rule,
            "seed": self.seed,
        }


def sample_sphere(sphere: SphereSpec, seed) -> np.ndarray:
    """One point drawn uniformly on the sphere surface."""
    return sphere_points(np.random.default_rng(seed), 1, sphere.center, sphere.radius)[0]


def _flux_point(model: Model, sphere: SphereSpec, x_t, grad) -> FluxPoint:
    """Flux bookkeeping at x_t, given the gradient there.

    The normal is taken along the actual offset from the center, so it also
    serves sign-rule points, which live off the sphere.
    """
    off = sphere.offset(x_t)
    dist = float(np.linalg.norm(off))
    normal = off / dist
    approx = (evaluate(model, x_t) - evaluate(model, sphere.center)) / dist
    return FluxPoint(x_t, grad, normal, float(approx))


def flux_at(model: Model, sphere: SphereSpec, x_t) -> FluxPoint:
    """Exact and approximate flux at a point on the sphere surface.

    Rejects points farther than 1e-6 relative from the surface, which
    would silently corrupt the unit normal.
    """
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != sphere.center.shape:
        raise DimensionMismatch("point and sphere dimensions differ")
    dist = float(np.linalg.norm(sphere.offset(x_t)))
    if abs(dist - sphere.radius) > 1e-6 * sphere.radius:
        raise OffSphere(
            f"point at distance {dist:.3e} from center, sphere radius {sphere.radius:.3e}"
        )
    return _flux_point(model, sphere, x_t, gradient(model, x_t))


def _steps(sphere: SphereSpec, grads: np.ndarray, rule: str):
    """The recurrence update of each row, from the gradients at the current points.

    Also returns the mask of rows whose gradient vanished; their update is
    meaningless and the caller must not use it.
    """
    norms = _row_norms(grads)
    stationary = norms == 0.0
    if rule == "normalized":
        shift = sphere.radius * grads / np.where(stationary, 1.0, norms)[:, None]
    else:
        shift = sphere.radius * np.sign(grads)
    return sphere.center - shift, stationary


def recurrence_step(
    model: Model, sphere: SphereSpec, x_prev, rule: str = "normalized"
) -> np.ndarray:
    """One recurrence update toward lower f on the sphere.

    normalized: x - eps * F(x_prev) / |F(x_prev)|, exactly on the sphere.
    sign:       x - eps * sign(F(x_prev)), a hypercube-corner step.
    """
    if rule not in ("sign", "normalized"):
        raise ValueError(f"unknown recurrence rule {rule!r}")
    xs = np.asarray(x_prev, dtype=float)[None]
    x_next, stationary = _steps(sphere, gradient_batch(model, xs), rule)
    if stationary[0]:
        raise StationaryGradient("stationary gradient, cannot step")
    return x_next[0]


def _search(model: Model, sphere: SphereSpec, config: NeflagConfig, rng, n: int):
    """Find one negative-flux point for each of ``n`` samples, all in lockstep.

    Returns the accepted points and the gradients there.  Each draw takes
    one (n, N) block of sphere points from ``rng`` and keeps the rows of
    the pending samples; row i of every block is sample i's.  Each round
    draws a start, makes one ``gradient_batch`` call per recurrence step
    and one at the final points, and accepts the rows whose flux is
    negative.  Each sample has 10 * n_samples rounds.  A sample whose
    gradient vanishes, whose point lands on the center or whose rounds run
    out fails alone; the search then raises the error of the lowest-index
    failed sample, the one a sample-by-sample loop would meet first.
    """
    budget = 10 * config.n_samples
    steps = 0 if config.step_rule == "none" else config.max_steps
    points, grads = np.empty((n, sphere.dim)), np.empty((n, sphere.dim))
    pending = np.arange(n)
    errors = {}  # sample index -> the error that ended its search

    def fail(bad, error):
        """Stop the pending samples marked ``bad``; the mask of the rows that go on."""
        nonlocal pending
        errors.update(dict.fromkeys(pending[bad].tolist(), error))
        # a sample after the lowest failed one cannot change the outcome, so an empty ``bad`` changes nothing
        go_on = ~bad & (pending < min(errors, default=n))
        pending = pending[go_on]
        return go_on

    for _ in range(budget):
        x_t = sphere_points(rng, n, sphere.center, sphere.radius)
        x_t = x_t if pending.size == n else x_t[pending]
        for _ in range(steps):
            x_t, stationary = _steps(sphere, gradient_batch(model, x_t), config.step_rule)
            if stationary.any():
                x_t = x_t[fail(stationary, StationaryGradient("stationary gradient, cannot step"))]
        off = x_t - sphere.center
        dist = _row_norms(off)
        if not dist.all():
            go_on = fail(dist == 0.0, OffSphere(
                f"candidate point coincides with the sphere center: radius {sphere.radius:g} is lost in rounding "
                f"at a center of magnitude {abs(sphere.center).max():.3g}"))
            x_t, off, dist = x_t[go_on], off[go_on], dist[go_on]
        normals = off / dist[:, None]
        g = gradient_batch(model, x_t)
        flux = np.einsum("ij,ij->i", g, normals)
        accept = flux < 0.0
        points[pending[accept]], grads[pending[accept]] = x_t[accept], g[accept]
        pending = pending[~accept]
        if not pending.size:
            break
    if pending.size:
        errors[int(pending[0])] = NoNegativeFlux(
            f"no negative flux found on the sphere after {budget} attempts"
        )
    if errors:
        raise errors[min(errors)]
    return points, grads


def find_negative_flux_point(
    model: Model, sphere: SphereSpec, config: NeflagConfig, seed=None
) -> FluxPoint:
    """Sample the sphere and refine toward a negative-flux point.

    One uniform sample followed by ``max_steps`` recurrence updates (or no
    updates under the ``none`` rule).  A candidate whose exact flux is >= 0
    is rejected and the search restarts from a fresh sample, up to
    10 * n_samples attempts; exhaustion raises :class:`NoNegativeFlux`.
    This is the one-sample case of the search :func:`neflag_attribute` runs.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    points, grads = _search(model, sphere, config, rng, 1)
    return _flux_point(model, sphere, points[0], grads[0])


def neflag_attribute(model: Model, x, config: NeflagConfig = NeflagConfig()) -> AttributionMap:
    """Aggregate F(x~) * (x - x~) over n_samples negative-flux points.

    One generator on the master seed's first child draws the starts as
    (n_samples, N) blocks, row i for sample i, so a sample's candidates do
    not depend on when the others are accepted (n_samples=1 keeps the
    stream of :func:`find_negative_flux_point` on that child).  The samples
    are searched in lockstep, one batched gradient call per recurrence step
    for all of them.  Raw sums are reported (no 1/n normalization);
    magnitudes scale with n_samples and cross-n comparisons should use rankings.
    """
    x = _check_input(model, x)  # refuses a non-finite x before the search's arithmetic warns on it
    sphere = SphereSpec(x, config.epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))  # the seed's first child
    points, grads = _search(model, sphere, config, rng, config.n_samples)
    # numpy adds the rows in index order, as a running total over the samples would
    total = (grads * (x - points)).sum(axis=0)
    return AttributionMap(total, "neflag", config.to_params(), samples_used=config.n_samples)


def taylor_heatmap(model: Model, x, x_t) -> AttributionMap:
    """First-order heatmap grad(x~) * (x - x~) expanded at a nearby point.

    When x~ lies on the epsilon-sphere this equals the single-sample
    negative-flux contribution from x~ by construction.
    """
    x = _check_input(model, x)
    x_t = _check_input(model, x_t)
    values = gradient(model, x_t) * (x - x_t)
    return AttributionMap(values, "taylor", {"expansion_point": x_t.tolist()})
