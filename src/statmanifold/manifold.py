"""Riemannian geometry of parametric statistical models.

The metric is the Fisher information bilinear form

    g_ij(theta) = int p(x; theta) d_i log p(x; theta) d_j log p(x; theta) dx,

computed by quadrature over the microspace.  Connection and curvature are
obtained by finite differencing the metric field with the standard
Levi-Civita formulas:

    Gamma^k_ij = 1/2 g^{km} (g_{mi,j} + g_{mj,i} - g_{ij,m})
    R_iklm     = 1/2 (g_{im,kl} + g_{kl,im} - g_{il,km} - g_{km,il})
                 + g_{np} (Gamma^n_kl Gamma^p_im - Gamma^n_km Gamma^p_il)
    R_ik       = g^{lm} R_{limk}
    R          = g^{ik} R_ik

Geodesics solve d^2 theta^k / dtau^2 + Gamma^k_ij thetadot^i thetadot^j = 0
with a classic fixed-step 4th-order scheme.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonPositiveDefiniteError, QuadratureError, SingularMetricError
from .quadrature import IntegrationSpec, integrate, integrate_with_error

COND_LIMIT = 1e12
FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class ParameterDomain:
    """Open region of the macrospace; box bounds, a predicate, or both."""

    dim: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    predicate: Optional[Callable[[np.ndarray], bool]] = None

    @classmethod
    def box(cls, lower, upper) -> "ParameterDomain":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return cls(lower.shape[0], lower, upper)

    @classmethod
    def from_predicate(cls, dim: int, fn) -> "ParameterDomain":
        return cls(dim, predicate=fn)

    @classmethod
    def unbounded(cls, dim: int) -> "ParameterDomain":
        return cls(dim)

    def contains(self, theta) -> bool:
        """Whether ``theta``, one point (dim,) or every row of a (k, dim) batch, lies inside."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.dim:
            return False
        lower = -np.inf if self.lower is None else self.lower
        upper = np.inf if self.upper is None else self.upper
        # NaN and ±inf fail the strict comparisons: this is the finiteness test too
        if not ((lower < theta) & (theta < upper)).all():
            return False
        if self.predicate is not None:
            return all(self.predicate(row) for row in theta.reshape(-1, self.dim))
        return True

    def require(self, theta, what: str) -> np.ndarray:
        """``theta`` as a float array; :class:`DomainError` unless it lies in the domain."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise DomainError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        if not self.contains(theta):
            raise DomainError(f"theta {theta} outside the domain of {what}")
        return theta


@dataclass(frozen=True)
class ModelFamily:
    """Parametric family p(x; theta) over a microspace of dimension micro_dim.

    ``density`` maps points of shape (micro_dim, k) and a theta vector to
    density values (k,).  ``log_density_grad_theta`` returns the gradient of
    log p in theta with shape (macro_dim, k).  ``integration_spec`` maps theta
    to the quadrature description covering the effective support of
    p(.; theta).  The map theta -> p(.; theta) is assumed injective.
    """

    micro_dim: int
    macro_dim: int
    density: Callable
    log_density_grad_theta: Callable
    domain: ParameterDomain
    integration_spec: Callable[[np.ndarray], IntegrationSpec]
    name: str = ""


def density_normalization(model: ModelFamily, theta, order: int | None = None) -> float:
    """Quadrature of p(.; theta) over the microspace (should be 1)."""
    theta = model.domain.require(theta, model.name or "model")
    spec = model.integration_spec(theta)
    if order is not None:
        spec = spec.with_order(order)
    return float(integrate(lambda x: model.density(x, theta), spec))


def fisher_metric(model: ModelFamily, theta, order: int | None = None,
                  quad_tol: float = 1e-6, with_error: bool = False):
    """Fisher information matrix of ``model`` at ``theta`` by quadrature.

    The integrand is the Gram form (grad log p, p) of :func:`integrate`, and
    :func:`integrate_with_error` sums it on the order-n and the half-order
    rule.  Returns the symmetrized (m, m) matrix, and with ``with_error=True``
    also the error estimate max |G - G'| against the half-order rule.  Raises
    :class:`QuadratureError` when that exceeds ``quad_tol``, and
    :class:`NonPositiveDefiniteError` when the result is not positive
    definite, which signals an invalid model or insufficient quadrature.
    """
    theta = model.domain.require(theta, model.name or "model")
    spec = model.integration_spec(theta)
    if order is not None:
        spec = spec.with_order(order)
    g, err = integrate_with_error(
        lambda x: (model.log_density_grad_theta(x, theta), model.density(x, theta)), spec
    )
    if err > quad_tol:
        raise QuadratureError(
            f"quadrature did not converge: error estimate {err:.3e} > tol {quad_tol:.3e}"
        )
    if np.min(np.linalg.eigvalsh(g)) <= 0.0:
        raise NonPositiveDefiniteError(f"Fisher metric at theta={theta} is not positive definite")
    if with_error:
        return g, err
    return g


@dataclass(frozen=True)
class MetricField:
    """A map theta -> symmetric positive-definite matrix g(theta).

    Either quadrature-backed (``from_model``) or closed-form
    (``from_function``).  Closed-form fields may carry analytic derivative
    callables which override the finite-difference path: ``d1(theta)[i,j,k] =
    g_ij,k`` and ``d2(theta)[i,j,k,l] = g_ij,kl``.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    domain: ParameterDomain
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    name: str = ""

    def __call__(self, theta) -> np.ndarray:
        g = np.asarray(self.func(np.asarray(theta, dtype=float)), dtype=float)
        return 0.5 * (g + g.T)

    @classmethod
    def from_model(cls, model: ModelFamily) -> "MetricField":
        """Quadrature-backed field that computes each distinct theta once.

        The curvature functions ask for the metric at the same stencil points
        again and again (17 requests at 9 points for m = 2), so the field
        keeps the last ``1 + 2m^2`` metrics, one order-2 stencil, keyed on the
        shape and exact bytes of theta.  A theta that raises is not kept.  The kept
        arrays are read-only; ``__call__`` returns a fresh array.
        """
        cache = {}
        size = 1 + 2 * model.macro_dim**2
        lock = threading.Lock()  # eviction checks the size, then deletes

        def fn(theta):
            theta = np.asarray(theta, dtype=float)
            key = (theta.shape, theta.tobytes())
            g = cache.get(key)
            if g is None:
                g = fisher_metric(model, theta)
                g.flags.writeable = False
                with lock:
                    if len(cache) >= size:
                        del cache[next(iter(cache))]  # the oldest entry
                    cache[key] = g
            return g

        return cls(model.macro_dim, fn, model.domain, name=model.name or "fisher")

    @classmethod
    def from_function(cls, dim: int, func, domain: ParameterDomain | None = None,
                      d1=None, d2=None, name: str = "") -> "MetricField":
        return cls(dim, func, domain or ParameterDomain.unbounded(dim), d1, d2, name)


def _fd_steps(x: np.ndarray, rel: float = FD_REL_STEP) -> np.ndarray:
    """Per-coordinate central-difference steps ``max(rel, rel·|x_k|)``."""
    return np.maximum(rel, rel * np.abs(x))


def _stencil(x: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """The central-difference points around ``x`` as one (k, m) array.

    Rows 2k and 2k+1 are ``x + h_k e_k`` and ``x - h_k e_k``.  Order 2 adds
    row 2m, ``x`` itself, and then for each k < l the four corners
    ``x ± h_k e_k ± h_l e_l`` (signs ++, +-, -+, --).
    """
    m = x.shape[0]
    points = np.empty((2 * m if order == 1 else 1 + 2 * m * m, m))
    points[:] = x
    flat = points[:2 * m].reshape(-1)  # row 2k holds entry k at k(2m+1), row 2k+1 at m + k(2m+1)
    flat[::2 * m + 1] += h
    flat[m::2 * m + 1] -= h
    if order == 2:
        k, l = np.triu_indices(m, 1)
        corners = points[2 * m + 1:].reshape(-1, 4, m)
        corners[np.arange(k.size), :, k] += np.outer(h[k], [1.0, 1.0, -1.0, -1.0])
        corners[np.arange(k.size), :, l] += np.outer(h[l], [1.0, -1.0, 1.0, -1.0])
    return points


def _fd_derivatives(values, h: np.ndarray, order: int) -> np.ndarray:
    """Central differences of ``values[r] = f(points[r])`` over the rows of :func:`_stencil`.

    The derivative axes come last: order 1 gives ``d[..., k] = f_,k`` and
    order 2 gives ``d[..., k, l] = f_,kl``.
    """
    m = h.shape[0]
    if order == 1:
        d = np.empty(np.shape(values[0]) + (m,))
        for k in range(m):
            d[..., k] = (values[2 * k] - values[2 * k + 1]) / (2.0 * h[k])
        return d
    f0 = values[2 * m]
    d = np.empty(np.shape(f0) + (m, m))
    r = 2 * m + 1  # the first corner row
    for k in range(m):
        d[..., k, k] = (values[2 * k] - 2.0 * f0 + values[2 * k + 1]) / h[k] ** 2
        for l in range(k + 1, m):
            pp, pm, mp, mm = values[r:r + 4]
            d[..., k, l] = d[..., l, k] = (pp - pm - mp + mm) / (4.0 * h[k] * h[l])
            r += 4
    return d


def metric_derivatives(field: MetricField, theta, order: int):
    """Central finite-difference derivatives of the metric field.

    order=1 returns d1[i,j,k] = g_ij,k; order=2 returns
    d2[i,j,k,l] = g_ij,kl.  Analytic derivatives on the field take
    precedence.  Raises :class:`DomainError` when a stencil point lies
    outside the domain, before the metric is evaluated anywhere.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    theta = field.domain.require(theta, "the metric field")
    m = field.dim
    if order == 1 and field.d1 is not None:
        return np.asarray(field.d1(theta), dtype=float)
    if order == 2 and field.d2 is not None:
        return np.asarray(field.d2(theta), dtype=float)

    h = _fd_steps(theta)
    points = _stencil(theta, h, order)
    if not field.domain.contains(points):
        i = next(i for i, row in enumerate(points) if not field.domain.contains(row))
        pairs = list(zip(*np.triu_indices(m, 1)))
        where = (f"coordinate {i // 2}" if i < 2 * m
                 else "the corner of coordinates {} and {}".format(*pairs[(i - 2 * m - 1) // 4]))
        raise DomainError(f"finite-difference stencil exits the domain at {where}")
    return _fd_derivatives([field(p) for p in points], h, order)


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite metric with conditioning guard."""
    eig, vecs = np.linalg.eigh(g)
    if eig[0] <= 0.0:
        raise SingularMetricError("metric is not positive definite")
    cond = eig[-1] / eig[0]
    if cond > COND_LIMIT:
        raise SingularMetricError(f"metric condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return (vecs / eig) @ vecs.T


def christoffel(field: MetricField, theta) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[k, i, j], symmetric in (i, j)."""
    d1 = metric_derivatives(field, theta, 1)  # checks theta before the metric is evaluated
    gi = inverse_metric(field(theta))
    # Gamma^k_ij = 1/2 g^{km} (g_mi,j + g_mj,i - g_ij,m); d1[i,j,k] = g_ij,k
    gam = 0.5 * np.einsum(
        "km,mij->kij",
        gi,
        d1 + d1.transpose(0, 2, 1) - d1.transpose(2, 0, 1),
    )
    return gam


def riemann(field: MetricField, theta) -> np.ndarray:
    """Covariant curvature tensor R[i, k, l, m]."""
    theta = field.domain.require(theta, "the metric field")
    g = field(theta)
    gam = christoffel(field, theta)
    d2 = metric_derivatives(field, theta, 2)
    term1 = 0.5 * (
        d2.transpose(0, 2, 3, 1)      # g_im,kl -> [i,k,l,m]
        + d2.transpose(2, 0, 1, 3)    # g_kl,im
        - d2.transpose(0, 2, 1, 3)    # g_il,km
        - d2.transpose(2, 0, 3, 1)    # g_km,il
    )
    term2 = np.einsum("np,nkl,pim->iklm", g, gam, gam) - np.einsum(
        "np,nkm,pil->iklm", g, gam, gam
    )
    return term1 + term2


def ricci(field: MetricField, theta) -> np.ndarray:
    """Ricci tensor R_ik = g^{lm} R_{limk}."""
    theta = field.domain.require(theta, "the metric field")
    gi = inverse_metric(field(theta))
    return np.einsum("lm,limk->ik", gi, riemann(field, theta))


def scalar_curvature(field: MetricField, theta) -> float:
    """Scalar curvature R = g^{ik} R_ik."""
    theta = field.domain.require(theta, "the metric field")
    gi = inverse_metric(field(theta))
    return float(np.einsum("ik,ik->", gi, ricci(field, theta)))


@dataclass(frozen=True)
class GeometryReport:
    """All local geometric quantities at a parameter point."""

    at: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def geometry_report(field: MetricField, theta) -> GeometryReport:
    theta = field.domain.require(theta, "the metric field")
    gam = christoffel(field, theta)
    rie = riemann(field, theta)
    gi = inverse_metric(field(theta))
    ric = np.einsum("lm,limk->ik", gi, rie)
    scal = float(np.einsum("ik,ik->", gi, ric))
    return GeometryReport(theta, gam, rie, ric, scal)


@dataclass(frozen=True)
class GeodesicState:
    """Position, velocity and affine parameter along a geodesic."""

    position: np.ndarray
    velocity: np.ndarray
    tau: float


@dataclass(frozen=True)
class GeodesicResult:
    """Geodesic states and why integration stopped.

    ``exit_reason`` is ``"completed"``, ``"left_domain"`` (a step or a stage
    left the domain) or ``"stencil_left_domain"`` (a stage's stencil did).
    """

    states: tuple
    exit_reason: str

    @property
    def exited_domain(self) -> bool:
        return self.exit_reason != "completed"


def metric_speed(field: MetricField, state: GeodesicState) -> float:
    """Conserved quantity v . g(theta) . v along an exact geodesic."""
    g = field(state.position)
    return float(state.velocity @ g @ state.velocity)


def geodesic_integrate(field: MetricField, init: GeodesicState, tau_end: float,
                       step: float) -> GeodesicResult:
    """Integrate the geodesic system with a fixed-step 4th-order scheme.

    Terminates early, with the ``exit_reason`` of :class:`GeodesicResult`, if
    the trajectory or a stencil around it leaves the parameter domain; a
    singular metric on the path raises :class:`SingularMetricError`.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pos = field.domain.require(init.position, "the metric field")
    vel = np.asarray(init.velocity, dtype=float)
    tau = float(init.tau)
    stage = pos  # the point of the last rhs call, to tell the two domain exits apart

    def rhs(p, v):
        nonlocal stage
        stage = p
        gam = christoffel(field, p)
        return v, -np.einsum("kij,i,j->k", gam, v, v)

    states = [GeodesicState(pos.copy(), vel.copy(), tau)]
    n_steps = int(np.ceil((tau_end - tau) / step - 1e-12))
    for _ in range(n_steps):
        h = min(step, tau_end - tau)
        if h <= 0.0:
            break
        try:
            k1p, k1v = rhs(pos, vel)
            k2p, k2v = rhs(pos + 0.5 * h * k1p, vel + 0.5 * h * k1v)
            k3p, k3v = rhs(pos + 0.5 * h * k2p, vel + 0.5 * h * k2v)
            k4p, k4v = rhs(pos + h * k3p, vel + h * k3v)
        except DomainError:
            inside = field.domain.contains(stage)
            return GeodesicResult(tuple(states), "stencil_left_domain" if inside else "left_domain")
        pos = pos + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        tau += h
        if not field.domain.contains(pos):
            return GeodesicResult(tuple(states), "left_domain")
        states.append(GeodesicState(pos.copy(), vel.copy(), tau))
    return GeodesicResult(tuple(states), "completed")
