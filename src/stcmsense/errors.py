"""Exception types shared across the package."""


class SensingError(Exception):
    """Base class for all package errors."""


class DegeneratePoint(SensingError):
    """Scene point coincides with the BS or panel phase center."""


class DegenerateTriangle(SensingError):
    """BS/panel/target triangle collapses; range is unobservable from angles."""


class NonPositiveDistance(SensingError):
    """Propagation distance must be strictly positive."""


class NotPerfectSquare(SensingError):
    """Antenna count must be a perfect square for Kronecker pilots."""


class DimensionMismatch(SensingError):
    """Vectors entering a Gram computation must share a common length."""


class ZeroRegressor(SensingError):
    """Cannot project onto a zero regressor."""


class OutOfRange(SensingError):
    """Scalar argument outside its admissible interval."""


class SingularInformation(SensingError):
    """Fisher information is numerically singular; bound is reported as masked."""


class ConfigError(SensingError):
    """Invalid experiment configuration."""
