"""Exception types shared across the library."""


class FluxgradError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(FluxgradError, ValueError):
    """Input vector length does not match the model dimension."""


class NonFiniteInput(FluxgradError, ValueError):
    """Input vector contains NaN or infinite components."""


class NonFiniteAttribution(FluxgradError, ValueError):
    """An attribution map holds NaN or infinite scores."""


class MeasureOverflow(FluxgradError, ValueError):
    """A ball volume or sphere area, or an integral over one, exceeds the largest float."""


class OffSphere(FluxgradError, ValueError):
    """A sphere's radius is lost in rounding at its center, so a point on it can fall on the center."""


class StationaryGradient(FluxgradError, RuntimeError):
    """The gradient vanished where a descent direction was required."""


class NoNegativeFlux(FluxgradError, RuntimeError):
    """The retry budget was exhausted without finding a negative-flux point.

    Typically means the queried point sits at a local minimum of the model
    output, where the gradient field points outward everywhere on the sphere.
    """


class NotSmooth(FluxgradError, ValueError):
    """The model's gradient field is not continuously differentiable."""
