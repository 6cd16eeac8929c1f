"""Sphere and ball geometry: uniform sampling and closed-form measures."""

import math
import sys

import numpy as np

from . import models
from .errors import MeasureOverflow

_LOG_MAX = math.log(sys.float_info.max)


def _measure(what: str, dim: int, log_c: float, power: int, radius: float) -> float:
    """c * radius**power, computed in logs from log_c = log(c): the ``what`` of radius ``radius`` in R^dim.

    Raises :class:`MeasureOverflow` when the measure exceeds the largest
    float.  Where c and radius**power lie well inside the float range, the
    result is their product; elsewhere it is the exponential of the log.
    """
    radius = models._real("radius", radius)
    log_r = power * math.log(radius)
    if log_c + log_r > _LOG_MAX:
        exponent, mantissa = divmod((log_c + log_r) / math.log(10.0), 1.0)
        raise MeasureOverflow(f"the {what} of radius {radius:g} in R^{dim} overflows a float: "
                              f"about {10.0**mantissa:.2g}e+{exponent:.0f}")
    return math.exp(log_c) * radius**power if abs(log_c) < 700.0 and abs(log_r) < 700.0 else math.exp(log_c + log_r)


def sphere_area(dim: int, radius: float) -> float:
    """Surface area of the (dim-1)-sphere of the given radius in R^dim.

    Uses the Gamma-function closed form 2 pi^(d/2) r^(d-1) / Gamma(d/2).
    """
    dim = models._count("dim", dim)
    log_a = math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)
    return _measure("sphere area", dim, log_a, dim - 1, radius)


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the solid ball of the given radius in R^dim."""
    dim = models._count("dim", dim)
    log_v = 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)
    return _measure("ball volume", dim, log_v, dim, radius)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a 2-D array: numpy's own formula for ``np.linalg.norm(a, axis=1)``, unwrapped."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def sphere_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Draw n unit vectors uniformly distributed on the sphere in R^dim.

    Gaussian samples normalized to unit length in place, their norms taken
    over 128 KiB of rows at a time, so that a draw holds one (n, dim) array;
    rows that underflow to zero norm (probability ~0) are redrawn.
    """
    g, step = rng.standard_normal((n, dim)), max(1, models._BLOCK_BYTES // (8 * dim))
    # one block skips the list and concatenate, 1.6 us of a 20-row draw's 4.1 (two such draws an attribution)
    norms = np.concatenate([_row_norms(g[i:i + step]) for i in range(0, n, step)]) if n > step else _row_norms(g)
    while (norms < 1e-300).any():
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
    u = sphere_directions(rng, n, center.size)
    u *= radius  # in place, the same IEEE products and sums as center + radius * u
    u += center
    return u

