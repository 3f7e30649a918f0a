"""Univariate Gaussians and a midpoint rule that the tests use as oracles; the library
has no use for them."""

from dataclasses import dataclass

import numpy as np

from statmanifold import Correlated2DParams, ModelFamily, MultivariateGaussian, ParameterDomain


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
            2.0 * np.pi * self.variance
        )


def marginals_2d(params: Correlated2DParams):
    """Marginal densities (p1(x), p2(y)) of the correlated model."""
    params.require_nondegenerate()
    return (
        UnivariateGaussian(params.mu_x, params.sigma**2),
        UnivariateGaussian(0.0, params.sigma_c**4 / params.sigma**2),
    )


def mvn_marginal(g: MultivariateGaussian, i: int) -> UnivariateGaussian:
    """i-th coordinate marginal N(mean_i, cov_ii)."""
    if not 0 <= i < g.dim:
        raise IndexError(f"marginal index {i} out of range for dim {g.dim}")
    return UnivariateGaussian(float(g.mean[i]), float(g.covariance[i, i]))


def univariate_gaussian_family() -> ModelFamily:
    """N(mu, sigma^2) over theta = (mu, sigma); Fisher metric diag(1, 2)/sigma^2."""
    d_mean = np.array([[1.0], [0.0]])

    def moments(theta):
        mu, s = theta
        return np.array([mu]), np.array([[s * s]]), d_mean, np.array([[[0.0]], [[2.0 * s]]])

    domain = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])
    return ModelFamily(moments, domain, name="gaussian1d")


def midpoint_rule(center, scales, order):
    """Nodes (d, order**d) and weights of the midpoint rule on the box of +-8 ``scales``.

    The box is placed from per-axis scales alone, with no whitening: a cross-check
    independent of the library's Gauss-Hermite rule, which for smooth integrands
    decaying like Gaussians converges exponentially.
    """
    h = 16.0 * np.asarray(scales, dtype=float) / order
    axes = [c - 8.0 * s + (np.arange(order) + 0.5) * hi for c, s, hi in zip(center, scales, h)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    return pts, np.full(pts.shape[1], np.prod(h))
