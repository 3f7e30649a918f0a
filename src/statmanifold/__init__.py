"""Fisher-Rao geometry, ergodic-hierarchy correlations, and canonical-ensemble
bridges for Gaussian statistical models."""

from .canonical import (
    HeatBath,
    OscillatorPair,
    OscillatorTraceResult,
    QuadraticHamiltonian,
    canonical_to_gaussian,
    ce_fisher_metric,
    ce_upper_bound,
    covariance_hessian_law,
    effective_correlation,
    goe_model,
    oscillator_mixing_trace,
    oscillator_reduce,
    temperature_to_tau,
)
from .ergodic import (
    BRANCH_SWITCH_R,
    CorrelationTrace,
    GaussianBump,
    IgehClass,
    IgehLevel,
    TestFunctionSet,
    classify,
    correlation_upper_bound,
    distinguishability_F_closed,
    distinguishability_F_numeric,
    distinguishability_F_sup,
    ig_correlation,
    ig_correlation_2d,
    mvn_distinguishability,
    mvn_ig_correlation,
    mvn_upper_bound,
)
from .errors import (
    DegenerateCorrelationError,
    DomainError,
    NonPositiveDefiniteError,
    NumericalError,
    QuadratureError,
    SingularMetricError,
    TemperatureRangeError,
)
from .manifold import (
    GeodesicResult,
    GeodesicState,
    GeometryReport,
    MetricField,
    ModelFamily,
    ParameterDomain,
    christoffel,
    fisher_metric,
    geodesic_integrate,
    geometry_report,
    inverse_metric,
    metric_derivatives,
    metric_speed,
    ricci,
    riemann,
    scalar_curvature,
)
from .models import (
    Correlated2DParams,
    HalfPlane,
    MultivariateGaussian,
    correlated_2d_family,
    mvn_pdf,
    pdf_2d,
)
from .quadrature import IntegrationSpec, integrate, integrate_with_error

__version__ = "0.1.0"
