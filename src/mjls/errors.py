"""Exception types shared across the toolkit."""


class MjlsError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(MjlsError):
    """Input contains NaN or infinite entries."""


class NonSymmetric(MjlsError):
    """Matrix is not symmetric within tolerance."""


class DimensionMismatch(MjlsError):
    """Operands have incompatible dimensions."""


class NotStochastic(MjlsError):
    """Row-stochastic matrix expected (entries in [0,1], rows summing to 1)."""


class InvalidModel(MjlsError):
    """Model failed validation; carries the list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        joined = "; ".join(str(v) for v in self.violations)
        super().__init__(f"model validation failed: {joined}")


class MissingGain(MjlsError):
    """Controller bank has no gain for a required (observation, region) index."""


class NotFeasible(MjlsError):
    """Gain recovery attempted on a non-feasible solver result."""


class SingularX(MjlsError):
    """A Lyapunov variable is numerically singular and cannot be inverted."""
