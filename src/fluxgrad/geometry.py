"""The epsilon-sphere, uniform sphere and ball sampling, closed-form measures, and the one Monte Carlo layer:
:func:`_mirrored` lays a draw out in pairs, u then exactly -u (an odd count's last row unpaired), and
:func:`_estimate` reduces it to units, the pair means and that row, with their mean and standard error."""

import math
import sys

import numpy as np

from . import models
from .errors import MeasureOverflow, NonFiniteInput, OffSphere

_LOG_MAX = math.log(sys.float_info.max)


class SphereSpec(models._Record):
    """The epsilon-sphere S_x: a finite center x and a radius epsilon with x + epsilon > x in every entry."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: np.ndarray, radius: float):
        super().__init__(models._readonly(center), models._real("sphere radius", radius))
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
    half = 0.5 * models._real("dim", dim)  # a count past the float range is refused as a real setting is
    log_a = math.log(2.0) + half * math.log(math.pi) - math.lgamma(half)
    return _measure("sphere area", dim, log_a, dim - 1, radius)


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the solid ball of the given radius in R^dim."""
    dim = models._count("dim", dim)
    half = 0.5 * models._real("dim", dim)
    log_v = half * math.log(math.pi) - math.lgamma(half + 1.0)
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


class IntegralEstimate(models._Record):
    """Monte-Carlo estimate with its standard error and sample count; ``value`` and ``standard_error`` are
    scalars in dot mode and length-N vectors in element-wise mode."""

    __slots__ = _fields = ("value", "standard_error", "samples")

    def __init__(self, value, standard_error, samples: int):  # a vector is held as a read-only copy
        super().__init__(*(float(v) if np.ndim(v) == 0 else models._readonly(v) for v in (value, standard_error)),
                         models._count("samples", samples))


def _mirrored(u: np.ndarray, k: int) -> np.ndarray:
    """k rows: each row of u, then its exact negation, in turn; an odd k's last row is u's last, unpaired."""
    rows = np.empty((k, u.shape[1]))
    rows[::2] = u
    np.negative(u[:k // 2], out=rows[1::2])
    return rows


def _estimate(vals: np.ndarray, scale: float) -> IntegralEstimate:
    """scale * the mean of the units of vals, rows laid out as :func:`_mirrored` lays out their points, and its
    standard error; floats if vals is a vector.  The units are each pair's mean, then an odd count's last row.
    Raises :class:`MeasureOverflow` when the value or the standard error is not a finite float."""
    with np.errstate(over="ignore", invalid="ignore"):  # a result past the float range is refused below
        units = np.concatenate((0.5 * (vals[:-1:2] + vals[1::2]), vals[len(vals) - len(vals) % 2:]))
        value = scale * units.mean(axis=0)
        se = scale * units.std(axis=0, ddof=1) / np.sqrt(len(units)) if len(units) > 1 else np.zeros_like(value)
    if not np.isfinite((value, se)).all():
        raise MeasureOverflow(f"a Monte Carlo estimate over a measure of {scale:g} overflows a float")
    return IntegralEstimate(value, se, len(vals))
