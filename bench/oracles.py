"""Closed-form answers the benchmark checks every operation against.

Nothing here imports ``statmanifold``: each oracle is written from the
formula, so a defect in the library's quadrature, stencils or maximizers
cannot hide in the reference it is compared with.
"""

from __future__ import annotations

import math

import numpy as np

# Root of (1 - r)(1 + r)^3 = 1.  Up to this |r| the interior critical point of
# |p - p1 p2| exists and F_closed is the supremum; beyond it the supremum sits
# at the centre of the distribution.
R_STAR = 0.8392867552141612


def scalar_curvature(r: float) -> float:
    """R(r) = -(1 - r^2)/2 of the correlated bivariate model."""
    return -0.5 * (1.0 - r * r)


def f_closed(r: float) -> float:
    """F(r) = |r| (sqrt(1 - r^2)(1 + |r|))^(-1 - 1/|r|), with F(0) = 0."""
    a = abs(r)
    if a == 0.0:
        return 0.0
    return a * (math.sqrt(1.0 - a * a) * (1.0 + a)) ** (-1.0 - 1.0 / a)


def f_sup(r: float) -> float:
    """True supremum of |p - p1 p2| in units of 1/(2 pi sigma_c^2)."""
    a = abs(r)
    if a <= R_STAR:
        return f_closed(a)
    return 1.0 / math.sqrt(1.0 - a * a) - 1.0


def normal_density(x, mean, cov) -> float:
    """N(x; mean, cov) for one point, by Cholesky factorisation."""
    d = np.atleast_1d(np.asarray(x, dtype=float) - np.asarray(mean, dtype=float))
    L = np.linalg.cholesky(np.atleast_2d(np.asarray(cov, dtype=float)))
    z = np.linalg.solve(L, d)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    return math.exp(-0.5 * float(z @ z) - 0.5 * (d.size * math.log(2.0 * math.pi) + log_det))


def bump_correlation(mean, cov, centers, widths, heights):
    """Correlation of Gaussian bumps h_i exp(-(x_i - c_i)^2 / 2 w_i^2) under N(mean, cov).

    Returns ``(C, joint, product)`` with C = joint - product, from the
    product-of-Gaussians identity:

        joint   = prod h_i (2 pi)^(d/2) prod w_i N(c; mean, cov + diag(w^2))
        product = prod_i h_i sqrt(2 pi) w_i N(c_i; mean_i, cov_ii + w_i^2)
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    c = np.asarray(centers, dtype=float)
    w = np.asarray(widths, dtype=float)
    h = np.asarray(heights, dtype=float)
    d = c.size
    joint = float(np.prod(h) * (2.0 * math.pi) ** (d / 2.0) * np.prod(w)
                  * normal_density(c, mean, cov + np.diag(w**2)))
    product = 1.0
    for i in range(d):
        product *= h[i] * math.sqrt(2.0 * math.pi) * w[i] * normal_density(
            c[i], mean[i], cov[i, i] + w[i] ** 2)
    return joint - product, joint, product


def correlated_speed(theta, v, coupling: float) -> float:
    """v . g . v for the closed-form metric diag(1, 4) / (sigma^2 (1 - r^2))."""
    return (v[0] ** 2 + 4.0 * v[1] ** 2) / (theta[1] ** 2 * (1.0 - coupling**2))
