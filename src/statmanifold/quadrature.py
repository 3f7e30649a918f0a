"""Quadrature over unbounded microspaces.

Two rules are provided for Gaussian-dominated integrands:

* ``gauss_hermite`` -- reweighted Gauss-Hermite product rule.  Nodes are
  mapped through an affine transform ``x = center + sqrt(2) * L @ t``; when
  ``L`` is a Cholesky factor of the covariance of the dominant Gaussian the
  reweighted integrand is polynomial-like and the rule is exact to machine
  precision at modest orders.
* ``rectangle`` -- midpoint rule on a box of ``half_width`` axis standard
  deviations.  Used as an independent cross-check: for smooth integrands that
  decay like Gaussians the midpoint rule converges exponentially, and it
  shares no machinery with the Gauss-Hermite path.

``integrate`` sums an integrand chunk by chunk into a float, a vector, or the
Gram matrix of a weighted second moment, the form every second moment in the
toolkit takes; ``integrate_with_error`` adds the difference to the half-order
rule as the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_ORDER = 64
_CHUNK = 1 << 14  # max nodes in a cached block and in one vectorized call


def default_order(dim: int) -> int:
    """Default Gauss-Hermite order per axis for a ``dim``-dimensional rule."""
    return DEFAULT_ORDER if dim <= 2 else 20


def _block_axes(order: int, dim: int) -> int:
    """Number of trailing axes in one node block: all of them when the rule fits."""
    k = dim
    while k > 1 and order**k > _CHUNK:
        k -= 1
    return k


def _product(axes_t, axes_w):
    """Tensor-product nodes (k, n**k) and weights (n**k,) of 1-D rules."""
    grids = np.meshgrid(*axes_t, indexing="ij")
    T = np.stack([g.ravel() for g in grids])
    W = axes_w[0]
    for w in axes_w[1:]:
        W = np.multiply.outer(W, w)
    return T, W.ravel()


@lru_cache(maxsize=64)
def hermite_block(order: int, dim: int):
    """Reweighted Gauss-Hermite rule and its node block, cached per (order, dim).

    Returns ``(t, w, T, W)``: the 1-D nodes ``t`` with weights ``w`` that
    absorb the implicit factor exp(-t^2), so plain integrands can be summed,
    and the product nodes ``T`` (k, order**k) and weights ``W`` of the
    trailing ``k`` axes (all ``dim`` axes when ``order**dim <= _CHUNK``).
    The arrays are shared by every caller and therefore read-only.
    """
    t, w = np.polynomial.hermite.hermgauss(order)
    w = w * np.exp(t**2)
    k = _block_axes(order, dim)
    T, W = _product([t] * k, [w] * k)
    for a in (t, w, T, W):
        a.flags.writeable = False
    return t, w, T, W


@dataclass(frozen=True)
class IntegrationSpec:
    """Describes how to integrate over a d-dimensional microspace.

    ``transform`` is a (d, d) scale matrix; its rows/columns set the node
    cloud.  For ``axes`` construction it is diagonal with the per-axis
    effective standard deviations.
    """

    center: np.ndarray
    transform: np.ndarray
    order: int = DEFAULT_ORDER
    rule: str = "gauss_hermite"
    half_width: float = 8.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "transform", np.atleast_2d(np.asarray(self.transform, dtype=float)))
        if self.transform.shape != (self.dim, self.dim):
            raise ValueError("transform must be (d, d) matching the center length")
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.rule not in ("gauss_hermite", "rectangle"):
            raise ValueError(f"unknown rule {self.rule!r}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def axis_scales(self) -> np.ndarray:
        """Per-axis effective standard deviations sqrt(diag(L L^T))."""
        return np.sqrt(np.sum(self.transform**2, axis=1))

    @classmethod
    def axes(cls, center, scales, order: int = DEFAULT_ORDER, rule: str = "gauss_hermite",
             half_width: float = 8.0) -> "IntegrationSpec":
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        return cls(np.asarray(center, dtype=float), np.diag(scales), order, rule, half_width)

    @classmethod
    def for_gaussian(cls, mean, covariance, order: int = DEFAULT_ORDER) -> "IntegrationSpec":
        """Whitened rule matched to a Gaussian with the given mean/covariance."""
        L = np.linalg.cholesky(np.atleast_2d(np.asarray(covariance, dtype=float)))
        return cls(np.asarray(mean, dtype=float), L, order, "gauss_hermite")

    def with_order(self, order: int) -> "IntegrationSpec":
        return IntegrationSpec(self.center, self.transform, order, self.rule, self.half_width)

    @cached_property
    def jacobian(self) -> float:
        """sqrt(2)^d |det transform|, the Jacobian of the Gauss-Hermite node map."""
        return (np.sqrt(2.0) ** self.dim) * abs(np.linalg.det(self.transform))

    @cached_property
    def coarse(self) -> "IntegrationSpec":
        """The half-order rule of the error estimate, built once per spec.

        Only the order differs from this validated spec, so it is a copy made
        without a second validation.  It shares the arrays and whatever this
        spec has cached, such as the Jacobian once the spec has been integrated.
        """
        coarse = object.__new__(IntegrationSpec)
        coarse.__dict__.update(vars(self), order=max(4, self.order // 2))
        return coarse

    def axis_spec(self, i: int) -> "IntegrationSpec":
        """1-D spec for axis ``i`` at this spec's order (used for marginal integrals)."""
        return IntegrationSpec(
            self.center[i : i + 1],
            np.array([[self.axis_scales[i]]]),
            self.order,
            self.rule,
            self.half_width,
        )


def _node_chunks(spec: IntegrationSpec):
    """Yield (points, weights) chunks of at most ``_CHUNK`` nodes; points is (d, k).

    A rule larger than one block is walked along its leading axes, one block
    of the trailing axes per chunk.
    """
    d, n = spec.dim, spec.order
    if spec.rule == "gauss_hermite":
        t, w, T, W = hermite_block(n, d)
        axes_t, axes_w = [t] * d, [w] * d
        jac = spec.jacobian
        map_pts = lambda T: spec.center[:, None] + np.sqrt(2.0) * (spec.transform @ T)
    else:
        scales = spec.axis_scales
        lo = spec.center - spec.half_width * scales
        hi = spec.center + spec.half_width * scales
        h = (hi - lo) / n
        axes_t = [lo[i] + (np.arange(n) + 0.5) * h[i] for i in range(d)]
        axes_w = [np.full(n, h[i]) for i in range(d)]
        k = _block_axes(n, d)
        T, W = _product(axes_t[d - k:], axes_w[d - k:])
        jac = 1.0
        map_pts = lambda T: T

    lead = d - T.shape[0]
    if lead == 0:
        yield map_pts(T), W * jac
        return
    for idx in np.ndindex(*(n,) * lead):
        head = np.array([axes_t[i][j] for i, j in enumerate(idx)])[:, None]
        w_head = math.prod(axes_w[i][j] for i, j in enumerate(idx))
        T_k = np.vstack([np.broadcast_to(head, (lead, T.shape[1])), T])
        yield map_pts(T_k), w_head * W * jac


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
