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
integrated by Gauss-Hermite quadrature, the identity's cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError
from .models import Correlated2DParams, MultivariateGaussian, mvn_marginal, mvn_pdf
from .quadrature import DEFAULT_ORDER, IntegrationSpec, default_order, integrate

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
NORM_SPOT_TOL = 1e-6
SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian test function height * exp(-(x - center)^2 / (2 width^2))."""

    center: float
    width: float
    height: float = 1.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError("width must be positive")

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


def _all_bumps(fs: TestFunctionSet) -> bool:
    return all(isinstance(f, GaussianBump) for f in fs.fs)


def _bump_correlation(mean, cov, fs: TestFunctionSet) -> float:
    """Exact C of Gaussian bumps under N(mean, cov) (The Matrix Cookbook, 8.1.8).

    With S = cov + diag(w^2), d = c - mean and the Cholesky factor S = L L^T,
    the joint term is prod_i (h_i w_i / L_ii) exp(-|L^-1 d|^2 / 2) and the
    product term is prod_i (h_i w_i / sqrt(S_ii)) exp(-sum_i d_i^2 / (2 S_ii)).
    """
    c, w, h = np.array([(f.center, f.width, f.height) for f in fs.fs]).T
    d = c - mean
    s = cov + np.eye(d.size) * (w * w)
    chol = np.linalg.cholesky(s)
    z = np.linalg.solve(chol, d)
    s_ii = s.diagonal()
    # the short products run over Python floats: np.prod costs more than the rest
    joint = math.prod((h * w / chol.diagonal()).tolist()) * math.exp(-0.5 * float(z @ z))
    product = (math.prod((h * w / np.sqrt(s_ii)).tolist())
               * math.exp(-0.5 * float((d * d) @ (1.0 / s_ii))))
    return joint - product


def ig_correlation(joint: Callable, marginals: Sequence[Callable],
                   fs: TestFunctionSet, spec: IntegrationSpec,
                   check: bool = True) -> float:
    """Correlation of the test functions under ``joint`` minus the product route.

    ``joint`` maps points of shape (N, k) to density values (k,); each
    marginal maps (k,) to (k,).  ``spec`` covers the joint's effective
    support; per-axis 1-D rules derived from it integrate the marginals.
    With ``check`` the joint and marginal normalizations are spot-checked by
    quadrature.
    """
    _require_arity(fs, len(marginals), spec.dim)
    if check:
        total = float(integrate(joint, spec))
        if abs(total - 1.0) > NORM_SPOT_TOL:
            raise QuadratureError(
                f"joint density normalization off by {total - 1.0:.3e}"
            )

    def joint_integrand(x):
        vals = joint(x)
        for i, f in enumerate(fs.fs):
            vals = vals * f(x[i])
        return vals

    joint_term = float(integrate(joint_integrand, spec))

    prod_term = 1.0
    for i, (p_i, f_i) in enumerate(zip(marginals, fs.fs)):
        spec_i = spec.axis_spec(i)
        if check:
            mass = float(integrate(lambda x, p=p_i: p(x[0]), spec_i))
            if abs(mass - 1.0) > NORM_SPOT_TOL:
                raise QuadratureError(
                    f"marginal {i} inconsistent with joint: mass {mass:.8f}"
                )
        prod_term *= float(integrate(lambda x, p=p_i, f=f_i: p(x[0]) * f(x[0]), spec_i))
    return joint_term - prod_term


def _gaussian_correlation(mean, cov, fs: TestFunctionSet, order: int | None) -> float:
    """C of ``fs`` under N(mean, cov), the route of both public entry points.

    Exact for Gaussian bumps; other test functions take :func:`ig_correlation`
    over ``mvn_pdf`` on the whitened rule of ``order`` (desk scale: dim <= 4).
    """
    _require_arity(fs, len(mean))
    if _all_bumps(fs):
        return _bump_correlation(mean, cov, fs)
    if len(mean) > 4:
        raise ValueError("quadrature path supports dimension <= 4 (desk scale)")
    g = MultivariateGaussian(mean, cov)
    spec = IntegrationSpec.for_gaussian(g.mean, g.covariance, order or default_order(g.dim))
    marginals = [mvn_marginal(g, i) for i in range(g.dim)]
    return ig_correlation(lambda x: mvn_pdf(x, g), marginals, fs, spec, check=False)


def ig_correlation_2d(params: Correlated2DParams, fs: TestFunctionSet,
                      order: int = DEFAULT_ORDER) -> float:
    """IG correlation for the correlated bivariate model.

    The joint is N((mu_x, 0), ``params.covariance()``).  Exact for Gaussian
    bumps; other test functions are integrated by Gauss-Hermite quadrature of
    the given ``order``.
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
    if a > 1.0:
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


def _standard_gap(r, u, v):
    """(p - p1 p2) * 2 pi sigma_c^2 of the correlated model in standard units.

    r, u = (x - mu_x) / sigma and v = y / sigma_y broadcast together.  The
    joint is one exponential of the 1-D terms plus the cross term; the product
    of marginals is exp(-u^2 / 2) exp(-v^2 / 2).
    """
    a = -0.5 / (1.0 - r * r)
    joint = np.exp((a * u * u + a * v * v) + (-2.0 * a * r * u) * v) / np.sqrt(1.0 - r * r)
    return joint - np.exp(-0.5 * u * u) * np.exp(-0.5 * v * v)


def factorization_gap_2d(params: Correlated2DParams, x, y):
    """|p(x, y) - p1(x) p2(y)| of the correlated model, broadcast over x and y."""
    params.require_nondegenerate()
    u = (np.asarray(x, dtype=float) - params.mu_x) / params.sigma
    v = np.asarray(y, dtype=float) / params.sigma_y
    return np.abs(_standard_gap(params.r, u, v)) / (2.0 * math.pi * params.sigma_c**2)


def _grid_zoom_max(objective: Callable, centers, sds, coarse: int, zoom_points: int,
                   zoom_rounds: int, half_width: float) -> np.ndarray:
    """Maxima of k problems by a coarse grid scan and a deterministic zoom.

    ``centers`` and ``sds`` are (k, dim).  ``objective(grid, rows)`` returns
    the values of problems ``rows`` on the ``ij`` grids spanned by each (dim,
    n) slice of ``grid``.  The coarse scan spans ``center`` +- ``half_width``
    ``sds`` with ``coarse`` points per axis, one problem per call.  Each zoom
    round rescans all k problems in one call, ``center + h t`` with t =
    linspace(-1, 1, ``zoom_points``) around each one's best point, starting
    from 1.5 coarse cells and shrinking h by 0.35, until h < sqrt(eps) sd on
    every axis (the same round for every problem) or after ``zoom_rounds``.
    Each problem takes its own argmax, so its maximum is bit-identical to a
    k = 1 call's; being smooth, its value error is below one ulp by then.

    Known limit: the zoom starts from the single best coarse point, so it can
    settle on the lower of two nearly tied lobes.  With 21 coarse points it
    missed 6 of 182 random 3-D/4-D Gaussians (cov = a a^T + 0.3 I) by up to
    2.7e-4 relative, so the N-D oracle tests draw cov = a a^T + d I.
    """
    centers = np.array(centers, dtype=float)  # a copy: the best points go here
    sds = np.asarray(sds, dtype=float)
    k, dim = centers.shape
    rows, axes = np.arange(k), np.arange(dim)

    def scan(grid, rows):
        vals = objective(grid, rows).reshape(rows.size, -1)
        flat = vals.argmax(axis=1)
        at = np.array(np.unravel_index(flat, (grid.shape[-1],) * dim))  # (dim, len(rows))
        n = np.arange(rows.size)
        return vals[n, flat], grid[n, axes[:, None], at].T

    h = half_width * sds
    t = np.linspace(-1.0, 1.0, coarse)
    best = np.empty(k)
    for i in rows:
        grid = centers[i, :, None] + h[i, :, None] * t
        best[i:i + 1], centers[i:i + 1] = scan(grid[None], rows[i:i + 1])
    h = h * (3.0 / (coarse - 1))
    t = np.linspace(-1.0, 1.0, zoom_points)
    stop = SQRT_EPS * sds
    for _ in range(zoom_rounds):
        val, centers = scan(centers[:, :, None] + h[:, :, None] * t, rows)
        best = np.maximum(best, val)
        h *= 0.35
        if np.all(h < stop):
            break
    return best


def _distinguishability_F_rows(params: Sequence[Correlated2DParams]) -> list:
    """``distinguishability_F_numeric`` of each of ``params``, the rows zoomed together."""
    for p in params:
        p.require_nondegenerate()
    r = np.array([p.r for p in params])[:, None, None]

    def objective(grid, rows):
        return np.abs(_standard_gap(r[rows], grid[:, 0, :, None], grid[:, 1, None, :]))

    centers = np.zeros((len(params), 2))
    return _grid_zoom_max(objective, centers, centers + 1.0, 121, 7, 40, 8.0).tolist()


def distinguishability_F_numeric(params: Correlated2DParams) -> float:
    """Brute-force oracle for the closed form: maximize |p - p1 p2| by ``_grid_zoom_max``.

    The scan runs in standard units, around (0, 0) with unit sds, and the
    maximum is reported in units of the joint's central prefactor
    1/(2 pi sigma_c^2): it depends on r alone and compares directly with the
    closed form.  Agrees with it for |r| <= BRANCH_SWITCH_R; above that it
    converges to the central value 1/sqrt(1 - r^2) - 1, the actual supremum.

    The grid spans +-8 sds with 121 coarse points per axis, 2/15 sd apart and
    finer than every basin, and 7-point zooms (README, "Numerical conventions").
    """
    return _distinguishability_F_rows([params])[0]


def correlation_upper_bound(params: Correlated2DParams, fs: TestFunctionSet) -> float:
    """Bound F_sup(r) / (2 pi sigma_c^2) * ||f_1 f_2||_1 on |C| of the correlated model.

    The supremum of |p - p1 p2| times the L1 norm of f_1 f_2; tight for
    narrow bumps at the point where the supremum is attained.
    """
    _require_arity(fs, 2)
    scale = 2.0 * math.pi * params.sigma_c**2
    return distinguishability_F_sup(params.r) / scale * fs.product_l1


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


@dataclass(frozen=True)
class IgehClass:
    """Classification outcome with the statistics that produced it."""

    level: IgehLevel
    evidence: dict


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled correlation values along a strictly increasing tau grid."""

    taus: np.ndarray
    values: np.ndarray
    meta: str = ""

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)
        if taus.ndim != 1 or taus.shape != values.shape:
            raise ValueError("taus and values must be 1-D arrays of equal length")
        if taus.size >= 2 and np.any(np.diff(taus) <= 0.0):
            raise ValueError("taus must be strictly increasing")

    def __len__(self) -> int:
        return int(self.taus.size)


MIN_TRACE_SAMPLES = 16


def classify(trace: CorrelationTrace, tol: float = 1e-6,
             tail_fraction: float = 0.25) -> IgehClass:
    """Classify a correlation trace into the strongest passing level.

    Bernoulli: |c| <= tol at every sample.  Mixing: mean |c| over the trailing
    ``tail_fraction`` of samples <= tol and the tail maximum <= 3 tol.
    Ergodic: the running Cesaro average of c (trapezoid rule over the observed
    window) ends with magnitude <= tol.  A stronger level grants the weaker
    ones, so the reported levels always respect the strict-inclusion ordering.
    """
    if len(trace) < MIN_TRACE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_TRACE_SAMPLES} samples, got {len(trace)}"
        )
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must lie in (0, 1)")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")

    c = trace.values
    n = len(trace)
    max_abs = float(np.max(np.abs(c)))

    k0 = n - max(1, int(math.ceil(tail_fraction * n)))
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
        "tail_fraction": tail_fraction,
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
