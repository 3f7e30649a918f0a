"""Correlation between microvariables and the ergodic-hierarchy classifier.

The central quantity is the correlation of N integrable test functions under
a joint density versus the product of its marginals,

    C(f_1, ..., f_N, tau) = int p(x; theta(tau)) f_1(x_1) ... f_N(x_N) dx
                            - prod_i int p_i(x_i; theta(tau)) f_i(x_i) dx_i,

which vanishes identically for product measures.  A trace of C along a
time-like parameter tau is classified into three levels of decreasing
strength:

* Bernoulli -- C is zero (within tol) at every sample;
* Mixing    -- C decays: the trailing window is zero within tol;
* Ergodic   -- the running Cesaro average (1/T) int_0^T C dtau vanishes.

Each level implies the weaker ones; the classifier grants the implied levels
even when a finite-horizon statistic (e.g. the Cesaro average of a trace that
decayed only recently) has not yet converged.

For the correlated bivariate model the sup-norm distance between joint and
product of marginals is characterized by the closed form

    F(r) = |r| (sqrt(1 - r^2) (1 + |r|))^(-1 - 1/|r|),

independent of mu_x and sigma.  The closed form is the value of the
difference at its interior critical point on the diagonal; that critical
point exists only while sqrt(1-r^2)(1+|r|) >= 1, i.e. |r| <= r* =
0.8392867552141612 (the root of (1-r)(1+r)^3 = 1).  Up to r* the closed form
equals the supremum exactly; beyond r* the supremum moves to the center of
the distribution, with value 1/sqrt(1-r^2) - 1, and the closed form strictly
exceeds it.  F_sup(r) is the supremum on both branches.  The closed form, the
supremum and the brute-force maximizer are expressed in units of the joint's
central prefactor 1/(2 pi sigma_c^2), which makes them scale-free and
directly comparable; the bound on |C| is therefore
F_sup(r) / (2 pi sigma_c^2) * ||f_1 f_2||_1.

Every joint here is Gaussian, so C of Gaussian bumps is exact at any
dimension (the product-of-Gaussians identity); other test functions are
integrated by Gauss-Hermite quadrature, the identity's cross-check.  Since
int p_i f_i dx_i = E[f_i] under the joint, quadrature needs no marginal
density: one pass on the joint's rule sums E[f_1 ... f_N], each E[f_i] and
the mass, and the same pass on the half-order rule is the error estimate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateCorrelationError, QuadratureError
from .models import Correlated2DParams, MultivariateGaussian, mvn_pdf
from .quadrature import IntegrationSpec, integrate

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
QUAD_RTOL = 1e-6
SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian test function height * exp(-(x - center)^2 / (2 width^2))."""

    center: float
    width: float
    height: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.width < math.inf:
            raise ValueError("width must be finite and positive")
        if not (math.isfinite(self.center) and math.isfinite(self.height)):
            raise ValueError("center and height must be finite")

    @property
    def l1_norm(self) -> float:
        return abs(self.height) * self.width * SQRT_TWO_PI

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.height * np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))


@dataclass(frozen=True)
class TestFunctionSet:
    """N absolutely integrable test functions with precomputed L1 norms."""

    __test__ = False  # not a pytest collection target

    fs: tuple
    l1_norms: tuple

    def __post_init__(self):
        if len(self.fs) != len(self.l1_norms):
            raise ValueError("fs and l1_norms must have equal length")
        if any(not (n > 0.0 and np.isfinite(n)) for n in self.l1_norms):
            raise ValueError("every L1 norm must be finite and positive")

    def __len__(self) -> int:
        return len(self.fs)

    @property
    def product_l1(self) -> float:
        return float(np.prod(self.l1_norms))

    @classmethod
    def from_bumps(cls, bumps: Sequence[GaussianBump]) -> "TestFunctionSet":
        return cls(tuple(bumps), tuple(b.l1_norm for b in bumps))

    @classmethod
    def unit_l1_bumps(cls, centers: Sequence[float], width: float = 1.0) -> "TestFunctionSet":
        """Bumps normalized to unit L1 norm, one per coordinate center."""
        bumps = [GaussianBump(c, width, 1.0 / (width * SQRT_TWO_PI)) for c in centers]
        return cls.from_bumps(bumps)


def _require_arity(fs: TestFunctionSet, *dims: int) -> None:
    if len(fs) < 2:
        raise ValueError("need at least two test functions")
    if any(d != len(fs) for d in dims):
        raise ValueError("joint and test functions must agree: one test function per coordinate")


def _bump_correlation(mean, cov, fs: TestFunctionSet):
    """Exact C of Gaussian bumps under N(mean, cov) (The Matrix Cookbook, 8.1.8).

    With S = cov + diag(w^2), d = c - mean and the Cholesky factor S = L L^T,
    the joint term is prod_i (h_i w_i / L_ii) exp(-|L^-1 d|^2 / 2) and the
    product term is prod_i (h_i w_i / sqrt(S_ii)) exp(-sum_i d_i^2 / (2 S_ii)).
    ``cov`` may be a (..., N, N) stack, with ``mean`` broadcasting to its
    (..., N): one batched Cholesky and solve then give C of every joint.
    """
    c, w, h = np.array([(f.center, f.width, f.height) for f in fs.fs]).T
    d = c - mean
    s = cov + np.diag(w * w)
    chol = np.linalg.cholesky(s)
    if cov.ndim == 2:
        # one joint: the short products run over Python floats, where the
        # stack's axis reductions would cost about a quarter more per call
        z = np.linalg.solve(chol, d)
        s_ii = s.diagonal()
        joint = math.prod((h * w / chol.diagonal()).tolist()) * math.exp(-0.5 * float(z @ z))
        product = (math.prod((h * w / np.sqrt(s_ii)).tolist())
                   * math.exp(-0.5 * float((d * d) @ (1.0 / s_ii))))
        return joint - product
    z = np.linalg.solve(chol, np.broadcast_to(d, cov.shape[:-1])[..., None])[..., 0]
    s_ii = np.diagonal(s, axis1=-2, axis2=-1)
    joint = (np.prod(h * w / np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
             * np.exp(-0.5 * np.sum(z * z, axis=-1)))
    product = np.prod(h * w / np.sqrt(s_ii), axis=-1) * np.exp(-0.5 * np.sum(d * d / s_ii, axis=-1))
    return joint - product


def ig_correlation(joint: Callable, fs: TestFunctionSet, spec: IntegrationSpec) -> float:
    """C = E[f_1 ... f_N] - E[f_1] ... E[f_N] under ``joint``, in one pass per rule.

    ``joint`` maps points of shape (N, k) to density values (k,), and
    ``spec`` covers its support.  Every term is an expectation under the
    joint, so one ``integrate`` call sums the block (prod f_i, f_1, ...,
    f_N, 1) times the density: the joint term, the factors of the product
    term and the mass.  The same call on ``spec.coarse`` is the error
    estimate.  Raises :class:`QuadratureError` when the mass is off 1, or C
    moves between the rules, by more than ``QUAD_RTOL`` (of the larger term).
    """
    _require_arity(fs, spec.dim)

    def moments(x):
        # filled by rows, returned as (k, N + 2): filling by columns was 1.6x slower at 4-D
        block = np.empty((len(fs) + 2, x.shape[1]))
        for row, f, xi in zip(block[1:], fs.fs, x):
            row[:] = f(xi)
        np.prod(block[1:-1], axis=0, out=block[0])
        block[-1] = joint(x)
        block[:-1] *= block[-1]
        return block.T

    fine, coarse = integrate(moments, spec).tolist(), integrate(moments, spec.coarse).tolist()
    if not abs(fine[-1] - 1.0) <= QUAD_RTOL:  # written so that NaN fails it, as below
        raise QuadratureError(f"joint density normalization off by {fine[-1] - 1.0:.3e}")
    joint_term, prod_term = fine[0], math.prod(fine[1:-1])
    err = abs(joint_term - prod_term - (coarse[0] - math.prod(coarse[1:-1])))
    if not err <= QUAD_RTOL * max(abs(joint_term), abs(prod_term)):
        raise QuadratureError(f"correlation did not converge: error estimate {err:.3e}")
    return joint_term - prod_term


def _gaussian_correlation(mean, cov, fs: TestFunctionSet, order: int | None):
    """C of ``fs`` under N(mean, cov), the route of every correlation entry point.

    ``cov`` is (N, N) or a (..., N, N) stack with ``mean`` broadcasting to
    its (..., N), and C has the stack's shape.  Exact for Gaussian bumps, the
    whole stack in one pass; other test functions take :func:`ig_correlation`
    joint by joint, over ``mvn_pdf`` on the whitened rule of ``order`` (desk
    scale: dim <= 4).
    """
    _require_arity(fs, cov.shape[-1])
    if all(isinstance(f, GaussianBump) for f in fs.fs):
        return _bump_correlation(mean, cov, fs)
    if cov.shape[-1] > 4:
        raise ValueError("quadrature path supports dimension <= 4 (desk scale)")
    if cov.ndim > 2:
        means = np.broadcast_to(mean, cov.shape[:-1])
        return np.array([_gaussian_correlation(m, c, fs, order) for m, c in zip(means, cov)])
    g = MultivariateGaussian(mean, cov)
    spec = IntegrationSpec(g.mean, g.cholesky, order)  # for_gaussian's rule, on g's factor
    return ig_correlation(lambda x: mvn_pdf(x, g), fs, spec)


def ig_correlation_2d(params: Correlated2DParams, fs: TestFunctionSet,
                      order: int | None = None) -> float:
    """IG correlation for the correlated bivariate model.

    The joint is N((mu_x, 0), ``params.covariance()``).  Exact for Gaussian
    bumps; other test functions are integrated by Gauss-Hermite quadrature of
    the given ``order`` (``None``: the spec's default).
    """
    params.require_nondegenerate()
    return _gaussian_correlation([params.mu_x, 0.0], params.covariance(), fs, order)


BRANCH_SWITCH_R = 0.8392867552141612  # root of (1-r)(1+r)^3 = 1


def distinguishability_F_closed(r: float) -> float:
    """Closed-form distinguishability of the correlated model.

    F(0) = 0 by continuity; F is even in r; at |r| = 1 the measure diverges
    and math.inf is returned.  Equals the sup-norm distance between joint and
    product of marginals for |r| <= BRANCH_SWITCH_R; beyond that point the
    interior critical point it describes no longer exists and F strictly
    exceeds the attained supremum (it remains a valid upper bound).
    """
    a = abs(r)
    if not a <= 1.0:
        raise ValueError("correlation coefficient must lie in [-1, 1]")
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return math.inf
    # log1p keeps the small a that 1 + a rounds away; lg / a, unlike 1 / a, cannot overflow
    lg = 1.5 * math.log1p(a) + 0.5 * math.log1p(-a)  # ln(sqrt(1 - a^2) (1 + a))
    return math.exp(math.log(a) - lg - lg / a)


def distinguishability_F_sup(r: float) -> float:
    """Supremum of |p - p1 p2| in units of 1/(2 pi sigma_c^2).

    The closed form up to BRANCH_SWITCH_R and the centre value
    1/sqrt(1 - r^2) - 1 beyond it; math.inf at |r| = 1.
    """
    a = abs(r)
    if BRANCH_SWITCH_R < a < 1.0:
        return 1.0 / math.sqrt((1.0 - a) * (1.0 + a)) - 1.0  # not 1 - a * a, which cancels
    return distinguishability_F_closed(a)


def _principal_coefficients(r):
    """``_principal_gap``'s a, b = -1 / (2 (1 +- r)), c = 1 / sqrt((1 - r)(1 + r)), each (k, 1)."""
    r = np.asarray(r, dtype=float).reshape(-1, 1)
    return -0.5 / (1.0 + r), -0.5 / (1.0 - r), 1.0 / np.sqrt((1.0 - r) * (1.0 + r))


def _principal_gap(a, b, c, s, d):
    """(p - p1 p2) * 2 pi sigma_c^2 of the correlated model on its principal axes.

    The axes s, d = (u +- v) / sqrt(2) of the standard units u = (x - mu_x) / sigma,
    v = y / sigma_y make the joint N(0, 1 + r) x N(0, 1 - r) and the product
    N(0, I), so the gap is c exp(a s^2) exp(b d^2) - exp(-s^2 / 2) exp(-d^2 / 2)
    with the (k, 1) a, b and c of ``_principal_coefficients``.  On (k, n) s and d
    it takes one exponential of the four stacked (k, n) arguments, and outer
    products give each row's (k, n, n) ``ij`` grid.  At r = 0 both terms are the
    same floats.
    """
    ss, dd = s * s, d * d
    # np.array, not np.stack, whose Python-level checks outcost the exponential here
    es, ed, ps, pd = np.exp(np.array([a * ss, b * dd, -0.5 * ss, -0.5 * dd]))
    gap = es[:, :, None] * (c * ed)[:, None, :]
    gap -= ps[:, :, None] * pd[:, None, :]
    return gap


def factorization_sup_2d(params: Correlated2DParams) -> float:
    """sup |p - p1 p2| of the correlated model, F_sup(r) / (2 pi sigma_c^2); math.inf at |r| = 1."""
    return distinguishability_F_sup(params.r) / (2.0 * math.pi * params.sigma_c**2)


def distinguishability_F_numeric(r):
    """Brute-force oracle for the closed form: maximize |p - p1 p2| by grid and zoom.

    A float ``r`` gives a float, a 1-D sequence a list; every |r| must be < 1.
    The scan runs on the principal axes of the standard units
    (``_principal_gap``) around (0, 0), and the maximum is in units of
    1/(2 pi sigma_c^2): 0 at r = 0, the closed form up to BRANCH_SWITCH_R and
    the supremum 1/sqrt(1 - r^2) - 1 above it.

    Every row's coarse grid is the axis t = 8 linspace(-1, 1, 121) on s and d,
    2/15 sd apart and finer than every basin, so the product term
    exp(-t^2 / 2) (x) exp(-t^2 / 2) is built once per call, and each row writes
    its joint term into one reused (121, 121) buffer.  The zoom rounds rescan
    all rows together on the 7-point grids ``center + h linspace(-1, 1, 7)``,
    from h = 1.5 coarse cells shrinking by 0.35 until h < sqrt(eps), 16 rounds.
    Each row takes its own argmax, so its value is bit-identical to a one-row
    call's (README, "Numerical conventions").
    """
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1:
        raise ValueError("r must be a float or a 1-D sequence")
    if not np.all(np.abs(rs) < 1.0):  # NaN fails too
        raise DegenerateCorrelationError("|r| must be < 1: the density degenerates at |r| = 1")
    a, b, c = _principal_coefficients(rs)  # once, not per zoom round
    k = rs.size
    best, centers = np.empty(k), np.empty((2, k))  # centers: the best (s, d) of each row

    t = 8.0 * np.linspace(-1.0, 1.0, 121)
    tt = t * t
    half = np.exp(-0.5 * tt)
    # einsum forms an outer product in about half the time broadcasting takes, same bits
    product, gap = np.einsum("i,j->ij", half, half), np.empty((t.size, t.size))
    for i in range(k):
        np.einsum("i,j->ij", np.exp(a[i] * tt), c[i] * np.exp(b[i] * tt), out=gap)
        gap -= product
        flat = np.abs(gap, out=gap).argmax()
        best[i] = gap.flat[flat]
        centers[:, i] = t[list(divmod(flat, t.size))]
    del product, gap  # freed, so that the zoom rounds' arrays do not add to the coarse peak

    h, t, rows = 8.0 * (3.0 / 120), np.linspace(-1.0, 1.0, 7), np.arange(k)  # h: 1.5 coarse cells
    while h >= SQRT_EPS:
        s, d = centers[:, :, None] + h * t
        gap = _principal_gap(a, b, c, s, d).reshape(k, t.size**2)
        flat = np.abs(gap, out=gap).argmax(axis=1)
        best = np.maximum(best, gap[rows, flat])
        i, j = np.divmod(flat, t.size)
        centers[0], centers[1] = s[rows, i], d[rows, j]
        h *= 0.35
    return best.tolist() if rs.ndim else float(best[0])


def correlation_upper_bound(params: Correlated2DParams, fs: TestFunctionSet) -> float:
    """Bound F_sup(r) / (2 pi sigma_c^2) * ||f_1 f_2||_1 on |C| of the correlated model.

    The supremum of |p - p1 p2| times the L1 norm of f_1 f_2; tight for
    narrow bumps at the point where the supremum is attained.
    """
    _require_arity(fs, 2)
    return factorization_sup_2d(params) * fs.product_l1


class IgehLevel(enum.Enum):
    """Hierarchy levels, strongest first; each implies the weaker ones."""

    BERNOULLI = "bernoulli"
    MIXING = "mixing"
    ERGODIC = "ergodic"
    UNCLASSIFIED = "unclassified"

    @property
    def rank(self) -> int:
        return {"bernoulli": 3, "mixing": 2, "ergodic": 1, "unclassified": 0}[self.value]

    def implies(self, other: "IgehLevel") -> bool:
        return self.rank >= other.rank


@dataclass(frozen=True, eq=False)
class IgehClass:
    """Classification outcome with the statistics that produced it."""

    level: IgehLevel
    evidence: dict


@dataclass(frozen=True, eq=False)
class CorrelationTrace:
    """Sampled correlation values along a strictly increasing tau grid."""

    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)
        if taus.ndim != 1 or taus.shape != values.shape:
            raise ValueError("taus and values must be 1-D arrays of equal length")
        if not (np.isfinite(taus).all() and np.isfinite(values).all()):
            raise ValueError("taus and values must be finite")
        if taus.size >= 2 and np.any(np.diff(taus) <= 0.0):
            raise ValueError("taus must be strictly increasing")

    def __len__(self) -> int:
        return int(self.taus.size)


MIN_TRACE_SAMPLES = 16
MIXING_TAIL_FRACTION = 0.25  # the trailing share of a trace that the mixing test reads


def classify(trace: CorrelationTrace, tol: float = 1e-6) -> IgehClass:
    """Classify a correlation trace into the strongest passing level.

    Bernoulli: |c| <= tol at every sample.  Mixing: mean |c| over the trailing
    ``MIXING_TAIL_FRACTION`` of samples <= tol and the tail maximum <= 3 tol.
    Ergodic: the running Cesaro average of c (trapezoid rule over the observed
    window) ends with magnitude <= tol.  A stronger level grants the weaker
    ones, so the reported levels always respect the strict-inclusion ordering.
    """
    if len(trace) < MIN_TRACE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_TRACE_SAMPLES} samples, got {len(trace)}"
        )
    if not 0.0 <= tol < math.inf:  # a NaN tol would classify nothing, an infinite one everything
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")

    c = trace.values
    n = len(trace)
    max_abs = float(np.max(np.abs(c)))

    k0 = n - max(1, int(math.ceil(MIXING_TAIL_FRACTION * n)))
    tail = np.abs(c[k0:])
    tail_mean = float(np.mean(tail))
    tail_max = float(np.max(tail))

    dtau = np.diff(trace.taus)
    cumint = np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] + c[:-1]) * dtau)])
    window = trace.taus - trace.taus[0]
    cesaro_final = float(cumint[-1] / window[-1]) if window[-1] > 0.0 else max_abs

    bernoulli = max_abs <= tol
    mixing = (tail_mean <= tol and tail_max <= 3.0 * tol) or bernoulli
    ergodic = abs(cesaro_final) <= tol or mixing

    if bernoulli:
        level = IgehLevel.BERNOULLI
    elif mixing:
        level = IgehLevel.MIXING
    elif ergodic:
        level = IgehLevel.ERGODIC
    else:
        level = IgehLevel.UNCLASSIFIED

    evidence = {
        "max_abs": max_abs,
        "tail_mean": tail_mean,
        "tail_max": tail_max,
        "cesaro_final": cesaro_final,
        "tol": tol,
        "bernoulli": bernoulli,
        "mixing": mixing,
        "ergodic": ergodic,
    }
    return IgehClass(level, evidence)


def mvn_ig_correlation(g: MultivariateGaussian, fs: TestFunctionSet,
                       order: int | None = None) -> float:
    """IG correlation for a multivariate Gaussian joint.

    Exact for Gaussian bumps at any dimension; other test functions are
    integrated by Gauss-Hermite quadrature (desk scale: dim <= 4).
    """
    return _gaussian_correlation(g.mean, g.covariance, fs, order)


def mvn_distinguishability(g: MultivariateGaussian) -> float:
    """sup |p - prod p_i| of a Gaussian joint, exact at any dimension >= 2.

    In standard units the joint is N(0, R), R the correlation matrix, and the
    product N(0, I), both times K = (2 pi)^(-d/2) / prod sd.  The gap's
    critical points are the centre, K (det(R)^(-1/2) - 1), and +-t e_k for each
    eigenpair (m, e_k) of R with m != 1 and t^2 = 2 ln(1 / (m sqrt(det R))) /
    (1/m - 1) > 0, K (m - 1) exp(-t^2 / 2).  The largest |value| is taken in
    logs, so K cannot underflow.  The m come as e = m - 1 from R - I, with an
    exact 0 diagonal, and enter as log1p(e), so no 1 + e rounds a small e away.
    """
    if g.dim < 2:
        raise ValueError("need at least two coordinates")
    sd = np.sqrt(np.diag(g.covariance))
    r_minus_i = g.covariance / np.outer(sd, sd)
    np.fill_diagonal(r_minus_i, 0.0)
    eig = np.linalg.eigvalsh(r_minus_i)  # m - 1
    h = 0.5 * math.fsum(np.log1p(eig).tolist())  # ln sqrt(det R)
    logs = [-h + math.log(abs(math.expm1(h)))] if h else []  # ln(|value| / K)
    for e in set(eig.tolist()) - {0.0}:
        t2 = 2.0 * (1.0 + e) * (math.log1p(e) + h) / e
        if t2 > 0.0:
            logs.append(math.log(abs(e)) - 0.5 * t2)
    log_k = -0.5 * g.dim * math.log(2.0 * math.pi) - math.fsum(np.log(sd).tolist())
    return math.exp(log_k + max(logs)) if logs else 0.0


def mvn_upper_bound(g: MultivariateGaussian, fs: TestFunctionSet) -> float:
    """``mvn_distinguishability`` times ||f_1 ... f_N||_1."""
    _require_arity(fs, g.dim)
    return mvn_distinguishability(g) * fs.product_l1
