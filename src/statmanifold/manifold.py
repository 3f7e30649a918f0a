"""Riemannian geometry of Gaussian statistical models.

The metric is the Fisher information bilinear form

    g_ij(theta) = int p(x; theta) d_i log p(x; theta) d_j log p(x; theta) dx,

which for a Gaussian family has Skovgaard's closed form (:func:`fisher_metric`).
Connection and curvature are obtained by finite differencing the metric
field with the standard Levi-Civita formulas:

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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonPositiveDefiniteError, NumericalError, SingularMetricError

COND_LIMIT = 1e12
FD_REL_STEP = 1e-5
# bound on max_k |g(x + h_k e_k) - g(x - h_k e_k)|_F / (2 |g(x)|_F) for second
# differences; on the correlated model R's relative error is about 0.75 times its square
FD_MAX_REL_CHANGE = 1e-2
# bounds a geodesic's time and the states it keeps
MAX_GEODESIC_STEPS = 10**6


@dataclass(frozen=True, eq=False)
class ParameterDomain:
    """Open box ``lower < theta < upper`` of the macrospace; a bound not given is infinite."""

    dim: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        for name, infinite in (("lower", -np.inf), ("upper", np.inf)):
            bound = getattr(self, name)
            bound = np.full(self.dim, infinite) if bound is None else np.asarray(bound, dtype=float)
            if bound.shape != (self.dim,) or np.isnan(bound).any():
                raise ValueError(f"{name} bound must hold {self.dim} numbers and no NaN")
            object.__setattr__(self, name, bound)
        if not (self.lower < self.upper).all():
            raise ValueError(f"empty domain: lower {self.lower} not below {self.upper}")

    @classmethod
    def box(cls, lower, upper) -> "ParameterDomain":
        return cls(len(lower), lower, upper)

    def contains(self, theta) -> bool:
        """Whether ``theta``, one point (dim,) or every row of a (k, dim) batch, lies inside."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.dim:
            return False
        # NaN and ±inf fail the strict comparisons: this is the finiteness test too
        return bool(((self.lower < theta) & (theta < self.upper)).all())

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
    """Gaussian family p(x; theta) = N(x; mu(theta), Sigma(theta)) over R^d.

    ``moments(theta)`` returns ``(mean, cov, d_mean, d_cov)`` of shapes (d,),
    (d, d), (m, d) and (m, d, d), with m = ``domain.dim``:
    ``d_mean[i] = d mu / d theta_i`` and ``d_cov[i] = d Sigma / d theta_i``.
    The Fisher metric (:func:`fisher_metric`) derives from them.  The map
    theta -> p(.; theta) is assumed injective.
    """

    moments: Callable
    domain: ParameterDomain
    name: str = ""


def fisher_metric(model: ModelFamily, theta) -> np.ndarray:
    """Fisher information matrix of ``model`` at ``theta``, in closed form.

    For a Gaussian family (Skovgaard 1984, Scand. J. Statist. 11:211-223)

        g_ij = d_i mu^T Sigma^-1 d_j mu + tr(Sigma^-1 d_i Sigma Sigma^-1 d_j Sigma) / 2.

    With Sigma = L L^T, A = L^-1 d mu (rows i) and B_i = L^-1 d_i Sigma L^-T
    this is g = A A^T + <B_i, B_j>_F / 2, from one Cholesky factor.  Returns
    the symmetric (m, m) matrix.  Raises :class:`DomainError` outside the
    domain, and :class:`NonPositiveDefiniteError` when Sigma has no Cholesky
    factor or the result is not positive definite, which signals an invalid
    model (for example one whose moments do not depend on theta).
    """
    theta = model.domain.require(theta, model.name or "model")
    _, cov, d_mean, d_cov = model.moments(theta)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NonPositiveDefiniteError(
            f"covariance at theta={theta} is not positive definite"
        ) from None
    m = d_mean.shape[0]
    white = np.linalg.inv(chol)
    a = d_mean @ white.T
    b = (white @ d_cov @ white.T).reshape(m, -1)
    g = a @ a.T + 0.5 * (b @ b.T)
    g = 0.5 * (g + g.T)
    if not np.min(np.linalg.eigvalsh(g)) > 0.0:  # written so that NaN fails it
        raise NonPositiveDefiniteError(f"Fisher metric at theta={theta} is not positive definite")
    return g


@dataclass(frozen=True)
class MetricField:
    """A map theta -> symmetric positive-definite matrix g(theta).

    Either a model's Fisher metric (``from_model``) or a given function
    (``from_function``); its dimension is that of its domain.  Function
    fields may carry analytic derivative callables which override the
    finite-difference path: ``d1(theta)[i,j,k] = g_ij,k`` and
    ``d2(theta)[i,j,k,l] = g_ij,kl``.
    """

    func: Callable[[np.ndarray], np.ndarray]
    domain: ParameterDomain
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None

    def __call__(self, theta) -> np.ndarray:
        g = np.asarray(self.func(np.asarray(theta, dtype=float)), dtype=float)
        return 0.5 * (g + g.T)

    @classmethod
    def from_model(cls, model: ModelFamily) -> "MetricField":
        """The Fisher metric field of ``model``, computing each distinct metric once.

        Skovgaard's form reads Sigma, d mu and d Sigma but never mu, so a
        request checks theta against the domain, evaluates the moments and
        keys on the dtype, shape and exact bytes of those three.  A 2-D
        curvature makes 17 requests at 9 points; on the (mu_x, sigma) slice
        they hold 3 distinct metrics, one per sigma.  The field keeps the
        ``1 + 2m^2`` most recently computed metrics, one order-2 stencil,
        dropping the oldest; a theta that raises is not kept.  The kept
        arrays are read-only; ``__call__`` returns a fresh array.
        """
        what, size = model.name or "model", 1 + 2 * model.domain.dim ** 2
        kept, lock = {}, threading.Lock()

        def fn(theta):
            theta = model.domain.require(theta, what)
            key = tuple((a.dtype.str, a.shape, a.tobytes())
                        for a in map(np.asarray, model.moments(theta)[1:]))
            g = kept.get(key)  # dict reads are atomic: only writers lock
            if g is None:
                g = fisher_metric(model, theta)
                g.flags.writeable = False
                with lock:
                    kept[key] = g
                    if len(kept) > size:
                        del kept[next(iter(kept))]
            return g

        return cls(fn, model.domain)

    @classmethod
    def from_function(cls, dim: int, func, domain: ParameterDomain | None = None,
                      d1=None, d2=None) -> "MetricField":
        """A closed-form field over ``domain`` (default R^dim), which must be ``dim``-dimensional."""
        domain = domain or ParameterDomain(dim)
        if domain.dim != dim:
            raise ValueError(f"a {dim}-dimensional field needs a {dim}-dimensional domain, "
                             f"got {domain.dim}")
        return cls(func, domain, d1, d2)


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
    """Derivatives of the metric field: the one place that finite-differences it.

    order=1 returns d1[i,j,k] = g_ij,k; order=2 returns d2[i,j,k,l] =
    g_ij,kl.  Analytic derivatives on the field take precedence.  Otherwise
    the field is evaluated at each row of :func:`_stencil`, with steps
    ``max(FD_REL_STEP, FD_REL_STEP |theta_k|)``, and centrally differenced.
    One ``ParameterDomain.contains`` call checks every row before the metric
    is evaluated anywhere.  A theta of the wrong shape or outside the domain
    raises the :meth:`ParameterDomain.require` error; otherwise the
    :class:`DomainError` names the coordinate of the first row outside, an
    axis row, since a corner repeats the floats ``x_k ± h_k`` of the axis
    rows.  Order 2 raises :class:`NumericalError` when the metric's relative
    change across one step, read off the stencil's rows, exceeds
    ``FD_MAX_REL_CHANGE``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    domain, m = field.domain, field.domain.dim
    analytic = field.d1 if order == 1 else field.d2
    if analytic is not None:
        return np.asarray(analytic(domain.require(theta, "the metric field")), dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (m,):
        domain.require(theta, "the metric field")  # raises its shape error
    h = np.maximum(FD_REL_STEP, FD_REL_STEP * np.abs(theta))
    points = _stencil(theta, h, order)
    if not domain.contains(points):
        domain.require(theta, "the metric field")
        i = next(i for i, row in enumerate(points) if not domain.contains(row))
        raise DomainError(f"finite-difference stencil exits the domain at coordinate {i // 2}")
    values = [field(p) for p in points]
    if order == 2:  # rows 2k and 2k + 1 are theta ± h_k e_k, row 2m is theta
        change = np.linalg.norm(np.subtract(values[:2 * m:2], values[1:2 * m:2]), axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = change.max() / (2.0 * np.linalg.norm(values[2 * m]))
        if not rel <= FD_MAX_REL_CHANGE:
            raise NumericalError(f"finite-difference steps {h} change the metric at theta = {theta} "
                                 f"by {rel:.3e} of its norm, above FD_MAX_REL_CHANGE = "
                                 f"{FD_MAX_REL_CHANGE:g}")
    return _fd_derivatives(values, h, order)


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite metric with conditioning guard."""
    eig, vecs = np.linalg.eigh(g)
    if not eig[0] > 0.0:  # NaN fails the comparisons, so a NaN metric raises here
        raise SingularMetricError("metric is not positive definite")
    cond = eig[-1] / eig[0]
    if not cond <= COND_LIMIT:
        raise SingularMetricError(f"metric condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return (vecs / eig) @ vecs.T


def christoffel(field: MetricField, theta) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[k, i, j], symmetric in (i, j).

    g_ij,k comes from :func:`metric_derivatives` and g(theta) from one more
    request, after the stencil's domain check.
    """
    d1 = metric_derivatives(field, theta, 1)
    gi = inverse_metric(field(theta))
    # Gamma^k_ij = 1/2 g^{km} (g_mi,j + g_mj,i - g_ij,m); d1[i,j,k] = g_ij,k
    gam = 0.5 * np.einsum(
        "km,mij->kij",
        gi,
        d1 + d1.transpose(0, 2, 1) - d1.transpose(2, 0, 1),
    )
    return gam


def _curvature(field: MetricField, theta):
    """``(g, Gamma, R)`` at theta: the metric, the connection and :func:`riemann`'s tensor."""
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
    return g, gam, term1 + term2


def riemann(field: MetricField, theta) -> np.ndarray:
    """Covariant curvature tensor R[i, k, l, m]."""
    return _curvature(field, theta)[2]


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


@dataclass(frozen=True, eq=False)
class GeometryReport:
    """All local geometric quantities at a parameter point."""

    at: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def geometry_report(field: MetricField, theta) -> GeometryReport:
    """The separate curvature functions' results from one pass: 15 metric requests for m = 2."""
    theta = field.domain.require(theta, "the metric field")
    g, gam, rie = _curvature(field, theta)
    gi = inverse_metric(g)
    ric = np.einsum("lm,limk->ik", gi, rie)
    scal = float(np.einsum("ik,ik->", gi, ric))
    return GeometryReport(theta, gam, rie, ric, scal)


@dataclass(frozen=True, eq=False)
class GeodesicState:
    """Position, velocity and affine parameter along a geodesic."""

    position: np.ndarray
    velocity: np.ndarray
    tau: float


@dataclass(frozen=True, eq=False)
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


def _refuse_nan(position, tau: float) -> None:
    """:class:`NumericalError` if a geodesic position holds NaN; ±inf has left the domain."""
    if np.isnan(position).any():
        raise NumericalError(f"geodesic step from tau = {tau!r} reached the position {position}")


def geodesic_integrate(field: MetricField, init: GeodesicState, tau_end: float,
                       step: float) -> GeodesicResult:
    """Integrate the geodesic system with a fixed-step 4th-order scheme.

    Terminates early, with the ``exit_reason`` of :class:`GeodesicResult`, if
    the trajectory or a stencil around it leaves the parameter domain; a
    singular metric on the path raises :class:`SingularMetricError`, and a
    stage or step whose position is NaN :class:`NumericalError`.  Before
    the metric is evaluated anywhere, ``ValueError`` names the argument
    unless ``step`` is positive and finite, ``init.tau`` finite, ``tau_end``
    finite and ``>= init.tau``, ``(tau_end - init.tau) / step`` at most
    ``MAX_GEODESIC_STEPS``, and ``init.velocity`` finite and of the
    position's shape; a position outside the domain raises
    :class:`DomainError`.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    tau = float(init.tau)
    if not np.isfinite(tau):
        raise ValueError(f"init.tau must be finite, got {tau!r}")
    if not tau <= tau_end < np.inf:
        raise ValueError(f"tau_end must be finite and >= init.tau = {tau!r}, got {tau_end!r}")
    pos = field.domain.require(init.position, "the metric field")
    vel = np.asarray(init.velocity, dtype=float)
    if vel.shape != pos.shape:
        raise ValueError(f"init.velocity has shape {vel.shape}, expected {pos.shape}")
    if not np.isfinite(vel).all():
        raise ValueError(f"init.velocity must be finite, got {vel}")
    steps = (tau_end - tau) / step
    if not steps <= MAX_GEODESIC_STEPS:
        raise ValueError(f"(tau_end - init.tau) / step = {steps!r} exceeds "
                         f"MAX_GEODESIC_STEPS = {MAX_GEODESIC_STEPS} steps")
    stage = pos  # the point of the last rhs call, to tell the two domain exits apart

    def rhs(p, v):
        nonlocal stage
        stage = p
        gam = christoffel(field, p)
        return v, -np.einsum("kij,i,j->k", gam, v, v)

    states = [GeodesicState(pos.copy(), vel.copy(), tau)]
    n_steps = int(np.ceil(steps - 1e-12)) or int(steps > 0.0)  # under 1e-12 steps still take one
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
            _refuse_nan(stage, tau)
            inside = field.domain.contains(stage)
            return GeodesicResult(tuple(states), "stencil_left_domain" if inside else "left_domain")
        pos = pos + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not field.domain.contains(pos):
            _refuse_nan(pos, tau)
            return GeodesicResult(tuple(states), "left_domain")
        tau += h
        states.append(GeodesicState(pos.copy(), vel.copy(), tau))
    return GeodesicResult(tuple(states), "completed")
