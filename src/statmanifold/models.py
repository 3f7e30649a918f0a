"""Closed-form Gaussian statistical models.

The central object is the correlated bivariate model with the macroscopic
constraint ``sigma_c^2 = sigma_x * sigma_y``:

    p(x, y; mu_x, sigma, r) =
        1 / (2 pi sigma_c^2 sqrt(1 - r^2)) *
        exp( -[ (x-mu_x)^2/sigma^2 + y^2 sigma^2/sigma_c^4
                - 2 r (x-mu_x) y / sigma_c^2 ] / (2 (1 - r^2)) )

whose macrospace is the half-plane (mu_x, sigma); the correlation r and the
constraint constant sigma_c are external parameters (mu_y is fixed at zero).
Its Fisher metric, connection and curvature are known in closed form and are
used as oracles for the numeric geometry pipeline:

    g = diag( 1/(sigma^2 (1-r^2)), 4/(sigma^2 (1-r^2)) )
    Gamma^1_12 = -1/sigma,  Gamma^2_11 = 1/(4 sigma),  Gamma^2_22 = -1/sigma
    R_11 = -1/(4 sigma^2),  R_22 = -1/sigma^2
    R(r) = -(1 - r^2)/2

General multivariate Gaussians over a 2n-dimensional microspace are provided
for the canonical-ensemble bridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCorrelationError, NonPositiveDefiniteError
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


@dataclass(frozen=True)
class UnivariateGaussian:
    """One-dimensional Gaussian density, used for marginals."""

    mean: float
    variance: float

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.variance))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - self.mean) ** 2) / (2.0 * self.variance)) / np.sqrt(
            TWO_PI * self.variance
        )


def pdf_2d(x, y, params: Correlated2DParams):
    """Density of the correlated model; vectorized over x, y."""
    params.require_nondegenerate()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - params.mu_x
    s, sc, r = params.sigma, params.sigma_c, params.r
    quad = d**2 / s**2 + y**2 * s**2 / sc**4 - 2.0 * r * d * y / sc**2
    return np.exp(-quad / (2.0 * (1.0 - r**2))) / (
        TWO_PI * sc**2 * np.sqrt(1.0 - r**2)
    )


def marginals_2d(params: Correlated2DParams):
    """Marginal densities (p1(x), p2(y)) of the correlated model."""
    params.require_nondegenerate()
    return (
        UnivariateGaussian(params.mu_x, params.sigma**2),
        UnivariateGaussian(0.0, params.sigma_c**4 / params.sigma**2),
    )


def metric_2d_closed(params: Correlated2DParams) -> np.ndarray:
    """Closed-form Fisher metric diag(1, 4) / (sigma^2 (1 - r^2))."""
    params.require_nondegenerate()
    return correlated_2d_metric(params.sigma, params.r)


def correlated_2d_metric(sigma: float, r: float) -> np.ndarray:
    """The formula of :func:`metric_2d_closed` on plain numbers, with no check.

    The caller has established 0 < sigma < inf and |r| < 1, as
    ``Correlated2DParams`` and :meth:`Correlated2DParams.require_nondegenerate`
    do for :func:`metric_2d_closed`.
    """
    denom = sigma**2 * (1.0 - r**2)
    return np.array([[1.0 / denom, 0.0], [0.0, 4.0 / denom]])


def christoffel_2d_closed(sigma: float) -> np.ndarray:
    """Closed-form connection of the correlated model; independent of r."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    gam = np.zeros((2, 2, 2))
    gam[0, 0, 1] = gam[0, 1, 0] = -1.0 / sigma
    gam[1, 0, 0] = 1.0 / (4.0 * sigma)
    gam[1, 1, 1] = -1.0 / sigma
    return gam


def ricci_2d_closed(sigma: float) -> np.ndarray:
    """Closed-form Ricci tensor diag(-1/(4 sigma^2), -1/sigma^2)."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return np.diag([-1.0 / (4.0 * sigma**2), -1.0 / sigma**2])


def curvature_2d_closed(r: float) -> float:
    """Scalar curvature R(r) = -(1 - r^2)/2; minimum -1/2 at r = 0, 0 at |r| = 1."""
    if not abs(r) <= 1.0:
        raise ValueError("correlation coefficient must lie in [-1, 1]")
    return -0.5 * (1.0 - r**2)


def correlated_2d_family(r: float, sigma_c: float = 1.0) -> ModelFamily:
    """The correlated model as a family over theta = (mu_x, sigma).

    r and sigma_c are external parameters held fixed; geometry is computed on
    the two-dimensional macrospace.  The mean is (mu_x, 0) and the covariance
    that of :class:`Correlated2DParams`, whose off-diagonal r sigma_c^2 does
    not depend on theta.
    """
    if not abs(r) <= 1.0:
        raise ValueError("correlation coefficient must lie in [-1, 1]")
    if abs(r) == 1.0:
        raise DegenerateCorrelationError("|r| = 1 is a boundary of the family")
    if not 0.0 < sigma_c < math.inf:
        raise ValueError("sigma_c must be finite and positive")
    d_mean = np.array([[1.0, 0.0], [0.0, 0.0]])

    def moments(theta):  # Correlated2DParams.covariance()'s arithmetic, without its checks
        mu, s = theta
        sy = sigma_c**2 / s
        c = r * s * sy
        d_cov = np.zeros((2, 2, 2))
        d_cov[1] = np.diag([2.0 * s, -2.0 * sigma_c**4 / s**3])
        return np.array([mu, 0.0]), np.array([[s**2, c], [c, sy**2]]), d_mean, d_cov

    domain = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])
    return ModelFamily(moments, domain, name=f"correlated2d(r={r}, sigma_c={sigma_c})")


def univariate_gaussian_family() -> ModelFamily:
    """N(mu, sigma^2) over theta = (mu, sigma); Fisher metric diag(1, 2)/sigma^2."""
    d_mean = np.array([[1.0], [0.0]])

    def moments(theta):
        mu, s = theta
        return np.array([mu]), np.array([[s * s]]), d_mean, np.array([[[0.0]], [[2.0 * s]]])

    domain = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])
    return ModelFamily(moments, domain, name="gaussian1d")


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


def mvn_marginal(g: MultivariateGaussian, i: int) -> UnivariateGaussian:
    """i-th coordinate marginal N(mean_i, cov_ii)."""
    if not 0 <= i < g.dim:
        raise IndexError(f"marginal index {i} out of range for dim {g.dim}")
    return UnivariateGaussian(float(g.mean[i]), float(g.covariance[i, i]))
