"""Closed-form Gaussian statistical models.

The central object is the correlated bivariate model with the macroscopic
constraint ``sigma_c^2 = sigma_x * sigma_y``:

    p(x, y; mu_x, sigma, r) =
        1 / (2 pi sigma_c^2 sqrt(1 - r^2)) *
        exp( -[ (x-mu_x)^2/sigma^2 + y^2 sigma^2/sigma_c^4
                - 2 r (x-mu_x) y / sigma_c^2 ] / (2 (1 - r^2)) )

whose macrospace is the half-plane (mu_x, sigma); the correlation r and the
constraint constant sigma_c are external parameters (mu_y is fixed at zero).
Its Fisher metric diag(1, 4)/(sigma^2 (1 - r^2)) is a Poincare half-plane,
:class:`HalfPlane` with k = (1 - r^2)/4, whose closed-form connection and
curvature R(r) = -(1 - r^2)/2 are the oracles for the numeric geometry
pipeline.  The reduced oscillator pair is the same plane with k = T/(4 T0).

General multivariate Gaussians over a 2n-dimensional microspace are provided
for the canonical-ensemble bridge.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCorrelationError, NonPositiveDefiniteError, TemperatureRangeError
from .manifold import ModelFamily, ParameterDomain

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Correlated2DParams:
    """Parameters of the constrained correlated bivariate model."""

    mu_x: float
    sigma: float
    r: float
    sigma_c: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mu_x):
            raise ValueError("mu_x must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and positive")
        if not 0.0 < self.sigma_c < math.inf:
            raise ValueError("sigma_c must be finite and positive")
        if not abs(self.r) <= 1.0:
            raise ValueError("correlation coefficient must lie in [-1, 1]")
        try:  # the covariance's diagonal; float ** raises OverflowError past max
            squares = (self.sigma**2, self.sigma_y**2)
        except OverflowError:
            squares = (math.inf,)
        if not all(sys.float_info.min <= v < math.inf for v in squares):
            raise ValueError(f"sigma^2 and sigma_y^2 = (sigma_c^2 / sigma)^2 must be normal floats, "
                             f"got sigma = {self.sigma!r}, sigma_c = {self.sigma_c!r}")

    @property
    def sigma_y(self) -> float:
        """Scale of the y marginal implied by the constraint."""
        return self.sigma_c**2 / self.sigma

    def covariance(self) -> np.ndarray:
        sy = self.sigma_y
        c = self.r * self.sigma * sy
        return np.array([[self.sigma**2, c], [c, sy**2]])

    def require_nondegenerate(self) -> None:
        if abs(self.r) >= 1.0:
            raise DegenerateCorrelationError(
                "|r| = 1: the correlated density is non-normalizable"
            )


def pdf_2d(x, y, params: Correlated2DParams):
    """Density of the correlated model; vectorized over x, y.

    The quadratic is formed in the standard units u = (x - mu_x) / sigma and
    v = y / sigma_y, so no power of a scale overflows or underflows.
    """
    params.require_nondegenerate()
    s, sy, r = params.sigma, params.sigma_y, params.r
    u = (np.asarray(x, dtype=float) - params.mu_x) / s
    v = np.asarray(y, dtype=float) / sy
    quad = u**2 + v**2 - 2.0 * r * u * v
    return np.exp(-quad / (2.0 * (1.0 - r**2))) / (TWO_PI * s * sy * np.sqrt(1.0 - r**2))


@dataclass(frozen=True)
class HalfPlane:
    """The Poincare half-plane g = diag(1/4, 1) / (k sigma^2) over theta = (mu, sigma).

    Its Gaussian curvature is -k, so its scalar curvature is R = -2k:

        Gamma^1_12 = Gamma^1_21 = -1/sigma,  Gamma^2_11 = 1/(4 sigma),  Gamma^2_22 = -1/sigma
        R_11 = -1/(4 sigma^2),  R_22 = -1/sigma^2

    k >= 0.  At k = 0 (|r| = 1, or T = 0) R is 0 and :meth:`metric` raises
    :class:`DegenerateCorrelationError`.  The members read sigma = theta[1]
    unchecked: a field over the box sigma > 0 keeps it positive.
    """

    k: float

    def __post_init__(self):
        if not 0.0 <= self.k < math.inf:
            raise ValueError("k must be finite and >= 0")

    @classmethod
    def correlated(cls, r: float) -> "HalfPlane":
        """The correlated model's (mu_x, sigma) slice: k = (1 - r^2)/4."""
        if not abs(r) <= 1.0:
            raise ValueError("correlation coefficient must lie in [-1, 1]")
        return cls((1.0 - r**2) / 4.0)

    @classmethod
    def oscillator(cls, T: float, T0: float) -> "HalfPlane":
        """The reduced oscillator pair at 0 <= T <= T0, where 1 - r_eff^2 = T/T0: k = T/(4 T0)."""
        if not (0.0 <= T and 0.0 < T0 < math.inf):  # written so that NaN fails it
            raise TemperatureRangeError("need 0 <= T and a finite T0 > 0")
        if not T <= T0:
            raise TemperatureRangeError("curvature law is derived for T <= T0")
        return cls(T / (4.0 * T0))

    @property
    def scalar_curvature(self) -> float:
        return -2.0 * self.k

    def metric(self, theta) -> np.ndarray:
        if self.k == 0.0:
            raise DegenerateCorrelationError("k = 0: the metric diverges")
        ks2 = theta[1] ** 2 * self.k
        return np.array([[0.25 / ks2, 0.0], [0.0, 1.0 / ks2]])

    def christoffel(self, theta) -> np.ndarray:
        """Gamma[k, i, j] = Gamma^k_ij, the layout of :func:`manifold.christoffel`."""
        gam = np.zeros((2, 2, 2))
        gam[0, 0, 1] = gam[0, 1, 0] = gam[1, 1, 1] = -1.0 / theta[1]
        gam[1, 0, 0] = 0.25 / theta[1]
        return gam

    def ricci(self, theta) -> np.ndarray:
        return np.diag([-0.25 / theta[1] ** 2, -1.0 / theta[1] ** 2])


def correlated_2d_family(r: float, sigma_c: float = 1.0) -> ModelFamily:
    """The correlated model as a family over theta = (mu_x, sigma).

    r and sigma_c are external parameters held fixed; geometry is computed on
    the two-dimensional macrospace.  The mean is (mu_x, 0) and the covariance
    that of :class:`Correlated2DParams`, whose off-diagonal r sigma_c^2 does
    not depend on theta.  The domain bounds sigma to where sigma^3 and the
    2 sigma_c^4 / sigma^3 of d Sigma are normal floats, and so every moment
    entry; sigma_c must lie in [1e-76, 1e76], where sigma_c^4 and 2 sigma_c^4 are.
    """
    if not abs(r) <= 1.0:
        raise ValueError("correlation coefficient must lie in [-1, 1]")
    if abs(r) == 1.0:
        raise DegenerateCorrelationError("|r| = 1 is a boundary of the family")
    if not 1e-76 <= sigma_c <= 1e76:
        raise ValueError(f"sigma_c must be finite and positive, in [1e-76, 1e76], got {sigma_c!r}")
    d_mean = np.array([[1.0, 0.0], [0.0, 0.0]])

    def moments(theta):  # Correlated2DParams.covariance()'s arithmetic, without its checks
        mu, s = theta
        sy = sigma_c**2 / s
        c = r * s * sy
        d_cov = np.zeros((2, 2, 2))
        d_cov[1] = np.diag([2.0 * s, -2.0 * sigma_c**4 / s**3])
        return np.array([mu, 0.0]), np.array([[s**2, c], [c, sy**2]]), d_mean, d_cov

    tiny, huge, two_sc4 = sys.float_info.min, sys.float_info.max, 2.0 * sigma_c**4
    lower, upper = max(tiny, two_sc4 / huge) ** (1 / 3), min(huge, two_sc4 / tiny) ** (1 / 3)
    domain = ParameterDomain.box([-np.inf, lower], [np.inf, upper])
    return ModelFamily(moments, domain, name=f"correlated2d(r={r}, sigma_c={sigma_c})")


@dataclass(frozen=True, eq=False)
class MultivariateGaussian:
    """Gaussian over a 2n-dimensional microspace with full covariance.

    The covariance is factored once, C = L L^T; the factorization is the
    positive-definiteness check.  A non-finite mean or covariance raises
    ``ValueError``.  ``cholesky`` is L and ``whitening`` W = L^-1, both lower
    triangular and read-only, and ``normalizer`` is 1 / ((2 pi)^(dim/2) prod L_ii).
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)
    whitening: np.ndarray = field(init=False, repr=False)
    normalizer: float = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("covariance shape does not match mean length")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            raise NonPositiveDefiniteError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NonPositiveDefiniteError("covariance must be positive definite") from None
        whitening = np.tril(np.linalg.inv(chol))
        chol.flags.writeable = whitening.flags.writeable = False
        object.__setattr__(self, "cholesky", chol)
        object.__setattr__(self, "whitening", whitening)
        object.__setattr__(self, "normalizer",
                           float(1.0 / (TWO_PI ** (0.5 * self.dim) * np.prod(np.diag(chol)))))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def mvn_pdf(x, g: MultivariateGaussian):
    """Multivariate normal density at ``x``, a sequence of ``g.dim`` coordinates.

    ``x`` is one point (dim,), which gives a float; a (dim, k) stack, which
    gives (k,); or ``dim`` arrays that broadcast together, such as a sparse
    ``ij`` meshgrid, which gives their broadcast shape.  The quadratic form is
    the sum of squares of z = W (x - mean), so nothing cancels.
    """
    if len(x) != g.dim:
        raise ValueError(f"need {g.dim} coordinates, got {len(x)}")
    d = [np.asarray(xi, dtype=float) - m for xi, m in zip(x, g.mean)]
    quad = 0.0
    for k, row in enumerate(g.whitening):
        z = row[0] * d[0]
        for i in range(1, k + 1):
            z = z + row[i] * d[i]
        quad = quad + z * z
    vals = g.normalizer * np.exp(-0.5 * quad)
    return float(vals) if vals.ndim == 0 else vals

