"""Sphere and ball geometry: uniform sampling and closed-form measures."""

import math

import numpy as np

from .models import _BLOCK_BYTES


def sphere_area(dim: int, radius: float) -> float:
    """Surface area of the (dim-1)-sphere of the given radius in R^dim.

    Uses the Gamma-function closed form 2 pi^(d/2) r^(d-1) / Gamma(d/2).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    log_a = math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)
    return math.exp(log_a) * radius ** (dim - 1)


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the solid ball of the given radius in R^dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    log_v = 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)
    return math.exp(log_v) * radius**dim


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a 2-D array: numpy's own formula for ``np.linalg.norm(a, axis=1)``, unwrapped."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def sphere_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Draw n unit vectors uniformly distributed on the sphere in R^dim.

    Gaussian samples normalized to unit length in place, their norms taken
    over 128 KiB of rows at a time, so that a draw holds one (n, dim) array;
    rows that underflow to zero norm (probability ~0) are redrawn.
    """
    g, step = rng.standard_normal((n, dim)), max(1, _BLOCK_BYTES // (8 * dim))
    # one block skips the list and concatenate, 1.6 us of a 20-row draw's 4.1 (two such draws an attribution)
    norms = np.concatenate([_row_norms(g[i:i + step]) for i in range(0, n, step)]) if n > step else _row_norms(g)
    while np.any(norms < 1e-300):
        bad = norms < 1e-300
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = _row_norms(g)
    g /= norms[:, None]
    return g


def sphere_points(
    rng: np.random.Generator, n: int, center: np.ndarray, radius: float
) -> np.ndarray:
    """Draw n points uniformly on the sphere surface around center."""
    center = np.asarray(center, dtype=float)
    return center + radius * sphere_directions(rng, n, center.size)

