"""Exception types shared across the library."""


class DegenerateGeometryError(ValueError):
    """Scene positions coincide (no bearing or distance) or give a path loss above 1e64."""


class DegenerateChannelError(ValueError):
    """A channel vector is identically zero where a nonzero one is required."""


class InfeasibleRateError(ValueError):
    """Requested rate threshold exceeds the maximum achievable rate.

    Carries ``max_rate`` (bits per channel use) so callers can report how far
    off the request was.
    """

    def __init__(self, requested: float, max_rate: float):
        self.requested = requested
        self.max_rate = max_rate
        super().__init__(
            f"rate threshold {requested:.6g} infeasible: "
            f"max achievable rate is {max_rate:.6g} bits"
        )


class InfeasibleSinrError(ValueError):
    """Requested SINR threshold exceeds the maximum achievable SINR."""

    def __init__(self, requested: float, max_sinr: float):
        self.requested = requested
        self.max_sinr = max_sinr
        super().__init__(
            f"SINR threshold {requested:.6g} infeasible: "
            f"max achievable SINR is {max_sinr:.6g}"
        )


class ConfigError(ValueError):
    """Malformed, missing, or unknown configuration keys."""
