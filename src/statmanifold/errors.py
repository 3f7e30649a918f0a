"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """Parameter point lies outside the declared domain, or a finite-difference
    stencil around it would leave the domain."""


class NumericalError(RuntimeError):
    """A numeric result failed its own check.  QuadratureError and
    SingularMetricError derive from it; it is raised as is when a correlation
    exceeds its envelope, when a geodesic position turns NaN, or when one
    finite-difference step changes the metric too much for second
    differences."""


class QuadratureError(NumericalError):
    """Quadrature failed to converge: the error estimate obtained by comparing
    two rule orders exceeds the requested tolerance, or a consistency
    spot-check (normalization) failed."""


class SingularMetricError(NumericalError):
    """Metric is singular or too ill-conditioned to invert (cond > 1e12)."""


class NonPositiveDefiniteError(ValueError):
    """A matrix required to be symmetric positive definite is not (metric,
    covariance, or energy Hessian)."""


class DegenerateCorrelationError(ValueError):
    """|r| = 1: the correlated density degenerates and the metric diverges."""


class TemperatureRangeError(ValueError):
    """Temperature outside the validity range of the requested mapping
    (e.g. T > T0 for the oscillator reduction, T = T0 where tau diverges, or
    an infinite T0, which would read every T/T0 as 0)."""
