"""Quadrature over unbounded microspaces.

One rule serves every Gaussian-dominated integrand: the reweighted
Gauss-Hermite product rule.  Nodes are mapped through an affine transform
``x = center + sqrt(2) * L @ t``; when ``L`` is a Cholesky factor of the
covariance of the dominant Gaussian the reweighted integrand is
polynomial-like and the rule is exact to machine precision at modest orders.

The product nodes are cached in blocks and walked chunk by chunk, which the
tests check against a full meshgrid of the rule.  ``integrate`` sums an
integrand chunk by chunk into a float, a vector, or the Gram matrix of a
weighted second moment, the form every second moment in the toolkit takes;
``integrate_with_error`` adds the difference to the half-order rule as the
error estimate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_ORDER = 64
_CHUNK = 1 << 14  # max nodes in a cached block and in one vectorized call
_SQRT2 = math.sqrt(2.0)


def default_order(dim: int) -> int:
    """Default order per axis for a ``dim``-dimensional rule."""
    return DEFAULT_ORDER if dim <= 2 else 20


@lru_cache(maxsize=64)
def node_block(order: int, dim: int):
    """1-D Gauss-Hermite rule and its node block, cached per (order, dim).

    Returns ``(t, w, T, W)``: the standard 1-D nodes ``t`` and weights ``w``,
    and the product nodes ``T`` (k, order**k) and weights ``W`` of the
    trailing ``k`` axes (all ``dim`` axes when ``order**dim <= _CHUNK``).
    The weights absorb the factor exp(-t^2), so plain integrands can be
    summed.  The arrays are shared by every caller and so read-only.
    """
    t, w = np.polynomial.hermite.hermgauss(order)
    w = w * np.exp(t**2)
    k = dim
    while k > 1 and order**k > _CHUNK:
        k -= 1
    T = np.stack([g.ravel() for g in np.meshgrid(*[t] * k, indexing="ij")])
    W = np.prod(np.meshgrid(*[w] * k, indexing="ij"), axis=0).ravel()
    for a in (t, w, T, W):
        a.flags.writeable = False
    return t, w, T, W


def _jacobian(spec: IntegrationSpec) -> float:
    """Jacobian sqrt(2)^d |det transform| of the node map; inf where it overflows."""
    try:  # exp(slogdet) is the float abs(det) gives, but det warns where it overflows
        return _SQRT2**spec.dim * math.exp(np.linalg.slogdet(spec.transform)[1])
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class IntegrationSpec:
    """Describes how to integrate over a d-dimensional microspace.

    ``transform`` is a (d, d) scale matrix; its rows/columns set the node
    cloud.  For ``axes`` construction it is diagonal with the per-axis
    effective standard deviations.  ``order=None`` is ``default_order(d)``.
    """

    center: np.ndarray
    transform: np.ndarray
    order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "transform", np.atleast_2d(np.asarray(self.transform, dtype=float)))
        if self.transform.shape != (self.dim, self.dim):
            raise ValueError("transform must be (d, d) matching the center length")
        try:
            order = default_order(self.dim) if self.order is None else operator.index(self.order)
        except TypeError:
            raise ValueError(f"order must be an integer, got {self.order!r}") from None
        if order < 2:
            raise ValueError("order must be >= 2")
        object.__setattr__(self, "order", order)
        finite = np.isfinite(self.center).all() and np.isfinite(self.transform).all()
        if not (finite and 0.0 < _jacobian(self) < math.inf):
            raise ValueError("the node map needs a finite center and transform "
                             "and a finite, positive Jacobian")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @classmethod
    def axes(cls, center, scales, order: int | None = None) -> "IntegrationSpec":
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        return cls(np.asarray(center, dtype=float), np.diag(scales), order)

    @classmethod
    def for_gaussian(cls, mean, covariance, order: int | None = None) -> "IntegrationSpec":
        """Whitened rule matched to a Gaussian with the given mean/covariance."""
        L = np.linalg.cholesky(np.atleast_2d(np.asarray(covariance, dtype=float)))
        return cls(np.asarray(mean, dtype=float), L, order)

    @cached_property
    def coarse(self) -> "IntegrationSpec":
        """The half-order rule of the error estimate, built and checked once per spec."""
        return replace(self, order=max(4, self.order // 2))


def _node_chunks(spec: IntegrationSpec):
    """Yield (points, weights) chunks of at most ``_CHUNK`` nodes; points is (d, k).

    A rule larger than one block is walked along its leading axes, one block
    of the trailing axes per chunk; a rule that fits is one chunk.
    """
    t, w, T, W = node_block(spec.order, spec.dim)
    jac = _jacobian(spec)
    lead = spec.dim - T.shape[0]
    T_k = np.vstack([np.empty((lead, T.shape[1])), T]) if lead else T  # head rows set per chunk
    shift = np.repeat(spec.center[:, None], T.shape[1], axis=1)  # faster to add than a broadcast
    for idx in np.ndindex(*(spec.order,) * lead):
        if lead:
            T_k[:lead] = t[list(idx)][:, None]
        pts, wts = spec.transform @ T_k, math.prod(w[j] for j in idx) * W
        pts *= _SQRT2  # in place, with the roundings of center + sqrt(2) * (transform @ T_k)
        pts += shift
        wts *= jac
        yield pts, wts


def integrate(fn, spec: IntegrationSpec):
    """Integrate ``fn`` over the microspace described by ``spec``.

    ``fn`` maps points (d, k) to values (k,) or (k, m), giving a float or an
    (m,) array, or to a pair ``(a, rho)`` of shapes (m, k) and (k,), giving
    the symmetrized (m, m) Gram matrix, the integral of rho a a^T.  The Gram
    form sums ``(a * (w * rho)) @ a.T`` per node chunk and builds no array of
    pairwise products.
    """
    total = None
    for pts, w in _node_chunks(spec):
        vals = fn(pts)
        if isinstance(vals, tuple):
            a, rho = vals
            part = (a * (w * rho)) @ a.T
        else:
            vals = np.asarray(vals)
            part = float(np.dot(w, vals)) if vals.ndim == 1 else w @ vals
        total = part if total is None else total + part
    return 0.5 * (total + total.T) if isinstance(vals, tuple) else total


def integrate_with_error(fn, spec: IntegrationSpec):
    """Integrate and estimate the error by comparing against a coarser rule."""
    val = integrate(fn, spec)
    ref = integrate(fn, spec.coarse)
    err = np.max(np.abs(np.atleast_1d(val - ref)))
    return val, float(err)
