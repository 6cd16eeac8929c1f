"""The per-feature attribution container and its file formats."""

from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, NonFiniteAttribution
from .models import _count, _readonly, _Record


class AttributionMap(_Record):
    """Per-feature attribution scores plus method metadata.

    ``samples_used`` counts the accepted stochastic samples for sampling
    based methods (negative-flux points, noise draws); it is None for
    deterministic methods.
    """

    __slots__ = _fields = ("values", "method", "params", "samples_used")

    def __init__(self, values: np.ndarray, method: str, params: dict | None = None, samples_used: int | None = None):
        values = _readonly(values)
        if values.ndim != 1:
            raise ValueError("attribution values must be a flat vector")
        if not np.isfinite(values).all():
            raise NonFiniteAttribution("attribution values must be finite")
        # params as a read-only copy whose lists (IG's baseline, Taylor's expansion point) are tuples
        params = MappingProxyType({k: tuple(v) if isinstance(v, list) else v for k, v in (params or {}).items()})
        super().__init__(values, method, params, samples_used)

    def __len__(self):
        return self.values.size

    def _asdict(self) -> dict:  # params as a fresh dict, which pickles and deep-copies as a mapping view cannot
        return dict(super()._asdict(), params=dict(self.params))

    def to_json(self) -> dict:
        doc = dict(self._asdict(), values=self.values.tolist())
        if self.samples_used is None:
            del doc["samples_used"]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AttributionMap":
        return cls(doc["values"], doc["method"], doc.get("params"), doc.get("samples_used"))

    def csv_str(self) -> str:
        """Flat CSV: feature index, attribution value."""
        lines = ["feature,value"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"

    def pgm_str(self, grid: tuple[int, int]) -> str:
        """ASCII PGM (P2) heatmap of min-max normalized absolute values.

        ``grid`` gives the (height, width) layout of the flat feature
        vector, row-major.
        """
        h, w = grid
        h, w = _count("grid height", h), _count("grid width", w)
        if h * w != self.values.size:
            raise DimensionMismatch(f"grid {h}x{w} does not match {self.values.size} features")
        mag = np.abs(self.values).reshape(h, w)
        lo, hi = mag.min(), mag.max()
        span = hi - lo
        if span == 0:
            pixels = np.zeros((h, w), dtype=int)
        else:
            pixels = np.rint((mag - lo) / span * 255).astype(int)
        lines = ["P2", f"{w} {h}", "255"]
        lines += [" ".join(str(p) for p in row) for row in pixels]
        return "\n".join(lines) + "\n"
