"""The per-feature attribution container and its file formats."""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteAttribution
from .models import _readonly


@dataclass(frozen=True, eq=False)
class AttributionMap:
    """Per-feature attribution scores plus method metadata.

    ``samples_used`` counts the accepted stochastic samples for sampling
    based methods (negative-flux points, noise draws); it is None for
    deterministic methods.
    """

    values: np.ndarray
    method: str
    params: dict = field(default_factory=dict)
    samples_used: int | None = None

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim != 1:
            raise ValueError("attribution values must be a flat vector")
        if not np.all(np.isfinite(values)):
            raise NonFiniteAttribution("attribution values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size

    def to_json(self) -> dict:
        doc = {
            "method": self.method,
            "params": self.params,
            "values": self.values.tolist(),
        }
        if self.samples_used is not None:
            doc["samples_used"] = self.samples_used
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AttributionMap":
        return cls(
            np.asarray(doc["values"], dtype=float),
            doc["method"],
            dict(doc.get("params", {})),
            doc.get("samples_used"),
        )

    def json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

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
        if h * w != self.values.size:
            raise ValueError(f"grid {h}x{w} does not match {self.values.size} features")
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
