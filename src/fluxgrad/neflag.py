"""Negative-flux aggregation on an epsilon-sphere, a :class:`~fluxgrad.geometry.SphereSpec`.

The attribution for input x is built by locating points x~ on the sphere of
radius epsilon around x where the gradient field flows inward (negative
flux F(x~) . n), and summing the element-wise products F(x~) * (x - x~)
over those points.  Candidate points are refined by a fixed-point
recurrence that steps from the sphere center against the gradient
direction, or kept as drawn, by one of three step rules:

* ``sign``        -- x~ = x - eps * sign(F(u)), a componentwise step from the
  previous point u that lands on a hypercube corner at L2 distance
  eps * sqrt(N).
* ``normalized``  -- x~ = x - eps * F / |F|, which stays exactly on the
  sphere and is a fixed-point iteration for on-sphere minimizers of f.
* ``none``        -- pure rejection sampling: keep the uniform sphere draw
  as-is (useful as an unbiased reference for the surface integral).

Each candidate is one uniform start refined by ``max_steps`` recurrence
steps; a candidate whose exact flux is not negative is dropped for a
fresh start.  No f value is read: the flux and the map use only gradients.

The samples of one attribution are searched in lockstep, in chunks of
rounds: each recurrence step is one ``gradient_batch`` call over every
candidate of the chunk, and one more call at the final points gives the
flux.  The first chunk is one round of every sample; after every chunk
that leaves samples searching, k, the number of rounds a chunk gives each
of them, doubles, capped so that no call gets more than n_samples rows.
A chunk of k rounds draws k (n_samples, N) blocks of sphere points from
one generator at once, row i of each block for sample i; a failed row stays
in the chunk, each sample ends at its first round that accepts or fails,
and the rounds drawn past that only advance the private generator.
"""

import numpy as np

from .attribution import AttributionMap
from .errors import NoNegativeFlux, OffSphere, StationaryGradient
from .geometry import SphereSpec, _row_norms, sphere_points
from .models import Model, _check_input, _count, _readonly, _real, _Record, _ValueRecord, gradient, gradient_batch

STEP_RULES = ("sign", "normalized", "none")


class FluxPoint(_Record):
    """An accepted point x~, the gradient F(x~) there, and the unit normal n along x~ - x, which holds off the
    sphere too, where a sign-rule point lies.  ``flux`` is the exact F(x~) . n."""

    __slots__ = _fields = ("location", "gradient", "normal")

    def __init__(self, location, gradient, normal):  # the arrays as read-only copies
        super().__init__(_readonly(location), _readonly(gradient), _readonly(normal))

    @property
    def flux(self) -> float:
        return float(self.gradient @ self.normal)


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
        n_samples, max_steps = _count("n_samples", n_samples), _count("max_steps", max_steps)
        if step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {step_rule!r}")
        super().__init__(_real("epsilon", epsilon), n_samples, max_steps, step_rule, _count("seed", seed, least=0))

    def to_params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n": self.n_samples,
            "m": self.max_steps,
            "step_rule": self.step_rule,
            "seed": self.seed,
        }


def _generator(seed) -> np.random.Generator:
    """A Generator as given, which its draws advance, or a fresh one on a non-negative integer seed."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_count("seed", seed, least=0))


def sample_sphere(sphere: SphereSpec, seed) -> np.ndarray:
    """One point drawn uniformly on the sphere surface, from a seed or a Generator."""
    return sphere_points(_generator(seed), 1, sphere.center, sphere.radius)[0]


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

    Returns the accepted points and the gradients there.  The search runs
    in chunks of k rounds over the samples still pending: k is 1 for the
    first chunk and doubles after every chunk that leaves samples pending,
    capped so that no ``gradient_batch`` call gets more than ``n`` rows
    (k <= n // pending, so k stays 1 for n = 1) and the rounds stay within
    the budget.  A chunk draws k (n, N) blocks of sphere points from
    ``rng`` with one call and keeps the rows of the pending samples; row i
    of every block is sample i's start, so sample i's r-th candidate is
    the same whatever the chunk sizes.  A chunk makes one
    ``gradient_batch`` call per recurrence step and one at the final
    points, over all of its rows: a row whose gradient vanishes or whose
    point lands on the center fails with its first such error and stays.
    Each sample ends at its first round that accepts a negative flux or
    fails; the rounds a chunk ran past that only advanced ``rng``.  A
    sample whose 10 * n_samples rounds run out fails too.  The search
    raises the error of the lowest-index failed sample, the one a
    sample-by-sample loop would meet first, and stores no point after the
    first failure.
    """
    budget = 10 * config.n_samples
    steps = 0 if config.step_rule == "none" else config.max_steps
    points, grads = np.empty((n, sphere.dim)), np.empty((n, sphere.dim))
    pending = np.arange(n)
    errors = {}  # sample index -> the error that ended its search
    rounds, k = 0, 1
    while pending.size:
        if rounds == budget:
            errors[int(pending[0])] = NoNegativeFlux(f"no negative flux found on the sphere after {budget} attempts")
            break
        p = pending.size
        size = min(k, n // p, budget - rounds)
        x_t = sphere_points(rng, size * n, sphere.center, sphere.radius)
        if p < n:  # row r * p + i of the chunk is round r of sample pending[i]
            x_t = x_t.reshape(size, n, -1)[:, pending].reshape(size * p, -1)
        failed = {}  # a failed chunk row -> the first error it met
        for _ in range(steps):
            x_t, stationary = _steps(sphere, gradient_batch(model, x_t), config.step_rule)
            if stationary.any():  # such a row steps onto the center
                failed = dict.fromkeys(np.flatnonzero(stationary).tolist(),
                                       StationaryGradient("stationary gradient, cannot step")) | failed
        off = x_t - sphere.center
        dist = _row_norms(off)
        if not dist.all():
            on_centre = dist == 0.0
            failed = dict.fromkeys(np.flatnonzero(on_centre).tolist(), OffSphere(
                f"candidate point coincides with the sphere center: radius {sphere.radius:g} is lost in rounding "
                f"at a center of magnitude {abs(sphere.center).max():.3g}")) | failed
            dist[on_centre] = 1.0  # the row's offset is 0, and so is its normal
        g = gradient_batch(model, x_t)
        stop = np.einsum("ij,ij->i", g, off / dist[:, None]) < 0.0  # the rows that accept
        rounds, k = rounds + size, 2 * k
        if size == 1 and not failed and stop.all():  # every pending sample is accepted: no masks to take
            points[pending], grads[pending] = x_t, g
            break
        if failed:
            stop[list(failed)] = True
        at = stop.reshape(size, p).argmax(axis=0) * p + np.arange(p)  # each sample's first row that stops
        ended = stop[at]
        at = at[ended]
        if failed:
            errors.update((int(pending[row % p]), failed[row]) for row in at.tolist() if row in failed)
        if not errors:
            points[pending[ended]], grads[pending[ended]] = x_t[at], g[at]
        pending = pending[~ended]
        if errors:  # a sample after the lowest failed one cannot change the outcome
            pending = pending[pending < min(errors)]
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
    ``seed``, a non-negative integer or a Generator, is the config's if None.
    This is the one-sample case of the search :func:`neflag_attribute` runs.
    """
    rng = _generator(config.seed if seed is None else seed)
    points, grads = _search(model, sphere, config, rng, 1)
    off = sphere.offset(points[0])  # the search refuses a point on the center
    return FluxPoint(points[0], grads[0], off / np.linalg.norm(off))


def neflag_attribute(model: Model, x, config: NeflagConfig = NeflagConfig()) -> AttributionMap:
    """Aggregate F(x~) * (x - x~) over n_samples negative-flux points.

    One generator on the master seed's first child draws the starts as
    (n_samples, N) blocks, row i for sample i, so a sample's candidates do
    not depend on when the others are accepted (n_samples=1 keeps the
    stream of :func:`find_negative_flux_point` on that child).  The samples
    are searched in lockstep, in chunks of k rounds of every sample still
    searching: one batched gradient call of at most n_samples rows per
    recurrence step, and one for the flux.  k is 1 for the first chunk and
    doubles after each chunk that leaves samples searching; the rounds a
    chunk draws past a sample's acceptance only advance the attribution's
    private generator.  Raw sums are reported (no 1/n normalization);
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
