"""Exception types shared across the package."""


class RelaxAreaError(Exception):
    """Base class for all package errors."""


class SingularPoint(RelaxAreaError):
    """Evaluation requested on (or within guard distance of) a singular set."""


class InvalidParams(RelaxAreaError):
    """Parameters inconsistent with the requested construction."""


class InvalidGeometry(RelaxAreaError):
    """Geometrically invalid domain or simplex parameters."""


class NonFinite(RelaxAreaError):
    """An integrand or Jacobian produced NaN/Inf away from any singular set."""


class NoConvergence(RelaxAreaError):
    """Adaptive integration hit its depth cap with the estimate above tolerance.

    ``capped_cell`` is where: the worst depth-capped cell's centre and its
    distance to the singular set, or None when no cell was capped.
    ``stats`` counts the refused tree, as ``QuadratureResult.stats`` does.
    """

    def __init__(self, msg, value=None, error_estimate=None, capped_cell=None,
                 stats=None):
        super().__init__(msg)
        self.value = value
        self.error_estimate = error_estimate
        self.capped_cell = capped_cell
        self.stats = stats


class AmbiguousWinding(RelaxAreaError):
    """Angle increments too large to wind reliably (loop or plaquette)."""

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class SingularOnLoop(RelaxAreaError):
    """A winding-number loop passes through the singular set."""


class DegreeMismatch(RelaxAreaError):
    """Boundary winding does not match the degree requested for a construction."""


class InsufficientData(RelaxAreaError):
    """Not enough converged rows to extrapolate."""


class IoFailure(RelaxAreaError):
    """Report or chain serialization failed."""
