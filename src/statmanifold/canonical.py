"""Bridge between canonical-ensemble densities and Gaussian statistical models.

A system with quadratic energy E(x) = (x - x0) G (x - x0)^T, where G is half
the energy Hessian at the equilibrium point x0, has the canonical density
exp(-beta E)/Z over its 2n-dimensional phase space.  That density is exactly
the multivariate Gaussian with mean x0 and inverse covariance beta * Hessian,
which yields the determinant law

    det(covariance) * det(Hessian) = T^(2n):

the covariance determinant grows as a power of the bath temperature with
exponent equal to the phase-space dimension.  The canonical covariance is
that inverse Hessian in closed form, with no quadrature route around it;
quadrature enters only where no closed form exists, in :func:`ce_fisher_metric`
for a general energy E(x; theta) and in the correlations of test functions
other than Gaussian bumps.  :func:`ce_fisher_metric` takes dE/dtheta from its
caller, so nothing here is differenced: the canonical metric is exact up to
its quadrature.

Two worked scenarios build on this bridge: a pair of linearly coupled
harmonic oscillators whose position marginal reduces to the correlated
bivariate model (with 1 - r^2 = T/T0 against a reference temperature T0), and
a 2x2 real-symmetric random-matrix ensemble whose diagonal entries carry the
correlation.  Temperatures are in energy units (k_B = 1): a caller in other
units passes k_B T.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonPositiveDefiniteError, NumericalError, TemperatureRangeError
from .ergodic import (
    CorrelationTrace,
    IgehClass,
    TestFunctionSet,
    _gaussian_correlation,
    classify,
    factorization_sup_2d,
    mvn_upper_bound,
)
from .models import Correlated2DParams, MultivariateGaussian
from .quadrature import IntegrationSpec, integrate


def _positive_product(name: str, value: float) -> float:
    """``value``, the product ``name`` of valid inputs, unless it overflowed or underflowed."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class HeatBath:
    """Heat bath at a fixed temperature in energy units (k_B T)."""

    temperature: float

    def __post_init__(self):
        if not 0.0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and positive")
        _positive_product("beta = 1 / temperature", 1.0 / self.temperature)

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Quadratic energy around an equilibrium point of a 2n-dim phase space.

    The phase-space dimension 2n is the length of ``equilibrium``, which must
    be even and at least 2.  ``hessian`` is the full matrix of second
    derivatives of E at the equilibrium; the quadratic-form tensor is hessian / 2.
    """

    equilibrium: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        eq = np.asarray(self.equilibrium, dtype=float)
        hess = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        object.__setattr__(self, "equilibrium", eq)
        object.__setattr__(self, "hessian", hess)
        d = eq.shape[0] if eq.ndim == 1 else 0
        if d < 2 or d % 2:
            raise ValueError(f"equilibrium must have even length 2n >= 2, got shape {eq.shape}")
        if hess.shape != (d, d):
            raise ValueError(f"hessian must be ({d}, {d})")
        if not (np.isfinite(eq).all() and np.isfinite(hess).all()):
            raise ValueError("equilibrium and hessian must be finite")
        scale = max(1.0, float(np.abs(hess).max()))
        if not np.allclose(hess, hess.T, rtol=0.0, atol=1e-10 * scale):
            raise NonPositiveDefiniteError("hessian must be symmetric")
        if np.min(np.linalg.eigvalsh(hess)) <= 0.0:
            raise NonPositiveDefiniteError(
                "hessian must be positive definite (stable equilibrium)"
            )

    def energy(self, x) -> np.ndarray:
        """Quadratic energy at phase points of shape (2n,) or (2n, k)."""
        x = np.asarray(x, dtype=float)
        d = (x[:, None] if x.ndim == 1 else x) - self.equilibrium[:, None]
        vals = 0.5 * np.sum(d * (self.hessian @ d), axis=0)
        return float(vals[0]) if x.ndim == 1 else vals


def canonical_to_gaussian(h: QuadraticHamiltonian, bath: HeatBath) -> MultivariateGaussian:
    """Gaussian equal to the canonical density of a quadratic energy.

    Mean is the equilibrium point; covariance is (beta * Hessian)^(-1).
    """
    cov = np.linalg.inv(bath.beta * h.hessian)
    return MultivariateGaussian(h.equilibrium, 0.5 * (cov + cov.T))


def covariance_hessian_law(h: QuadraticHamiltonian, bath: HeatBath):
    """Both sides of det(cov) * det(Hessian) = T^(2n).

    The left side sums log-determinants, so it holds where either determinant
    alone overflows or underflows; a T^(2n) that is not a normal float raises.
    """
    d = len(h.equilibrium)
    try:
        rhs = bath.temperature**d
    except OverflowError:
        rhs = math.inf
    if not sys.float_info.min <= rhs < math.inf:
        raise ValueError(f"T^(2n) = {bath.temperature!r}^{d} is not a finite, normal float")
    g = canonical_to_gaussian(h, bath)
    lhs = math.exp(np.linalg.slogdet(g.covariance)[1] + np.linalg.slogdet(h.hessian)[1])
    return lhs, rhs


def ce_fisher_metric(energy: Callable, grad_theta: Callable, theta, bath: HeatBath,
                     spec: IntegrationSpec) -> np.ndarray:
    """Fisher matrix of the canonical family exp(-beta E(.; theta))/Z(theta).

    This is beta^2 times the canonical covariance of dE/dtheta, the Fisher
    information of the normalized density for any Z(theta).  The raw second
    moment beta^2 <dE/dtheta_i dE/dtheta_j> equals it only when
    <dE/dtheta> = 0.

    ``energy`` maps (phase points (2n, k), theta) to (k,) and ``grad_theta``
    maps the same arguments to dE/dtheta, (m, k); ``spec`` must cover the
    canonical density at theta.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def moments(x):  # the Gram matrix of [dE/dtheta; 1] holds Z, Z <dE> and Z <dE dE^T>
        grads = np.asarray(grad_theta(x, theta))
        return np.vstack([grads, np.ones(x.shape[1])]), np.exp(-bath.beta * energy(x, theta))

    gram = integrate(moments, spec)
    z = gram[-1, -1]
    if not (np.isfinite(z) and z > 0.0):
        raise ValueError("partition function is not finite; energy is not confining")
    mean = gram[:-1, -1] / z
    return bath.beta**2 * (gram[:-1, :-1] / z - np.outer(mean, mean))


def ce_upper_bound(h: QuadraticHamiltonian, bath: HeatBath, fs: TestFunctionSet) -> float:
    """``mvn_upper_bound`` of the canonical Gaussian of ``h``."""
    return mvn_upper_bound(canonical_to_gaussian(h, bath), fs)


@dataclass(frozen=True)
class OscillatorPair:
    """Two linearly coupled harmonic oscillators.

    The coupling term is -r sqrt(m1 m2) w1 w2 (q1 - q10) q2 with strength
    |r| < 1 so the potential stays confining; q20 is fixed at zero.  T0 is
    the reference temperature, in energy units, entering the constraint
    sigma_c^2 = T0 / (sqrt(m1 m2) w1 w2).
    """

    m1: float
    m2: float
    omega1: float
    omega2: float
    T0: float
    r: float = 0.0
    q10: float = 0.0

    def __post_init__(self):
        for name in ("m1", "m2", "omega1", "omega2", "T0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not abs(self.r) < 1.0:
            raise ValueError("coupling strength must satisfy |r| < 1")
        # the products the methods form, each checked before it divides; w * w is
        # inf wherever their w**2 would raise OverflowError
        m1, m2, w1, w2 = self.m1, self.m2, self.omega1, self.omega2
        scale = math.sqrt(_positive_product("m1 m2", m1 * m2)) * w1 * w2
        _positive_product("sqrt(m1 m2) omega1 omega2", scale)
        k1 = _positive_product("m1 omega1^2", m1 * (w1 * w1))
        _positive_product("m2 omega2^2", m2 * (w2 * w2))
        _positive_product("1 / m1", 1.0 / m1)
        _positive_product("1 / m2", 1.0 / m2)
        _positive_product("T0 / (sqrt(m1 m2) omega1 omega2)", self.T0 / scale)
        _positive_product("T0 / (m1 omega1^2)", self.T0 / k1)

    def sigma_c(self) -> float:
        return math.sqrt(self.T0 / (math.sqrt(self.m1 * self.m2) * self.omega1 * self.omega2))

    def position_sigma(self) -> float:
        """Scale sqrt(T0 / (m1 w1^2)) of the q1 coordinate."""
        return math.sqrt(self.T0 / (self.m1 * self.omega1**2))

    def energy(self, x) -> np.ndarray:
        """Quadratic energy of ``hessian()`` at phase points (q1, q2, p1, p2), (4,) or (4, k)."""
        return QuadraticHamiltonian([self.q10, 0.0, 0.0, 0.0], self.hessian()).energy(x)

    def hessian(self) -> np.ndarray:
        """Analytic phase-space Hessian in (q1, q2, p1, p2) order."""
        cross = -self.r * math.sqrt(self.m1 * self.m2) * self.omega1 * self.omega2
        hess = np.zeros((4, 4))
        hess[0, 0] = self.m1 * self.omega1**2
        hess[1, 1] = self.m2 * self.omega2**2
        hess[0, 1] = hess[1, 0] = cross
        hess[2, 2] = 1.0 / self.m1
        hess[3, 3] = 1.0 / self.m2
        return hess


def effective_correlation(T: float, T0: float, coupling_sign: float = 1.0) -> float:
    """|r_eff| from 1 - r_eff^2 = T/T0, signed like the physical coupling.

    Valid for 0 <= T <= T0; T = 0 gives the maximally correlated boundary
    |r_eff| = 1 and T = T0 gives r_eff = 0.
    """
    if not 0.0 < T0 < math.inf:
        raise TemperatureRangeError("need a finite T0 > 0")
    if not 0.0 <= T <= T0:
        raise TemperatureRangeError(
            f"T = {T} lies outside [0, T0 = {T0}]; "
            "the mapping 1 - r^2 = T/T0 leaves [-1, 1]"
        )
    magnitude = math.sqrt(1.0 - T / T0)
    return magnitude if coupling_sign >= 0.0 else -magnitude


def oscillator_reduce(o: OscillatorPair, bath: HeatBath) -> Correlated2DParams:
    """Position-space reduction of the oscillator pair at bath temperature T.

    A canonical pair lies in the constrained family only when its coupling
    satisfies 1 - r^2 = T/T0.  The reduction is therefore the position
    marginal of the pair rebuilt at coupling r_eff(T), signed like ``o.r``:
    the correlated model with sigma = sqrt(T0/(m1 w1^2)),
    sigma_c^2 = T0/(sqrt(m1 m2) w1 w2) and correlation r_eff.  It equals
    the position marginal of ``o`` itself only at T = T0 (1 - o.r^2); only
    the sign of ``o.r`` is used.
    """
    r_eff = effective_correlation(bath.temperature, o.T0, 1.0 if o.r >= 0.0 else -1.0)
    return Correlated2DParams(o.q10, o.position_sigma(), r_eff, o.sigma_c())


def temperature_to_tau(T: float, T0: float) -> float:
    """Time-like parameter tau = 1/(1 - T/T0); diverges as T -> T0."""
    if not (0.0 < T and 0.0 < T0 < math.inf):
        raise TemperatureRangeError("need T > 0 and a finite T0 > 0")
    if T >= T0:
        raise TemperatureRangeError(
            "tau = 1/(1 - T/T0) diverges at T = T0 (asymptotic regime)"
        )
    return 1.0 / (1.0 - T / T0)


@dataclass(frozen=True, eq=False)
class OscillatorTraceResult:
    """Correlation trace along a temperature schedule with its classification."""

    trace: CorrelationTrace
    classification: IgehClass
    r_eff: np.ndarray
    envelope: np.ndarray  # F_sup(r_eff) / (2 pi sigma_c^2) * ||f1 f2||_1 per sample


def oscillator_mixing_trace(o: OscillatorPair, T_schedule: Sequence[float],
                            fs: TestFunctionSet | None = None, tol: float = 1e-6,
                            order: int | None = None) -> OscillatorTraceResult:
    """Correlation trace of the reduced oscillator model along a T schedule.

    tau follows 1/(1 - T/T0) when the schedule is strictly increasing and
    stays below T0; otherwise (constant schedules, or schedules touching T0
    where tau diverges) the sample index is used as tau.  Every sample's
    reduced model comes from ``oscillator_reduce``; their covariances are
    stacked into one correlation call, exact for bumps in one batched pass,
    while ``order`` applies only to other test functions, which are
    integrated sample by sample; ``fs=None`` is unit-L1 bumps on the marginal
    means (q10 and 0).  The trace is classified and checked against the envelope
    F_sup(r_eff) / (2 pi sigma_c^2) * ||f1 f2||_1; the first sample above it
    raises :class:`NumericalError`.
    """
    temps = np.asarray(list(T_schedule), dtype=float)
    if temps.size < 1:
        raise ValueError("empty temperature schedule")
    if not np.isfinite(temps).all():
        raise TemperatureRangeError("temperatures must be finite")
    if np.any(temps <= 0.0):
        raise TemperatureRangeError("temperatures must be positive")
    if np.any(temps > o.T0):
        raise TemperatureRangeError("schedule exceeds the reference temperature T0")
    if fs is None:
        fs = TestFunctionSet.unit_l1_bumps([o.q10, 0.0])

    increasing = temps.size >= 2 and np.all(np.diff(temps) > 0.0)
    if increasing and np.all(temps < o.T0):
        taus = np.array([temperature_to_tau(t, o.T0) for t in temps])
    else:
        taus = np.arange(temps.size, dtype=float)

    params = [oscillator_reduce(o, HeatBath(t)) for t in temps.tolist()]
    for p in params:
        p.require_nondegenerate()
    r_eff = np.array([p.r for p in params])
    envelope = np.array([factorization_sup_2d(p) for p in params]) * fs.product_l1
    values = _gaussian_correlation([o.q10, 0.0], np.array([p.covariance() for p in params]),
                                   fs, order)
    # the atol absorbs rounding at r_eff = 0, where the bound is 0
    above = np.flatnonzero(np.abs(values) > envelope + 1e-12 * max(1.0, fs.product_l1))
    if above.size:
        k = int(above[0])
        raise NumericalError(
            f"correlation {values[k]:.3e} at sample {k} (T = {temps[k]:.6g}) "
            f"exceeds its envelope {envelope[k]:.3e}"
        )
    trace = CorrelationTrace(taus, values)
    return OscillatorTraceResult(trace, classify(trace, tol=tol), r_eff, envelope)


def goe_model(mu: float, sigma: float, r: float, sigma_c: float) -> MultivariateGaussian:
    """Joint Gaussian over the entries (H11, H22, H12, H21) of a 2x2 real matrix.

    The diagonal block is the correlated bivariate model; the off-diagonal
    entries are independent zero-mean Gaussians of variance sigma^2 (both
    retained so the flat measure over all four entries normalizes the
    density).  The uncorrelated case r = 0, sigma_c = sigma factorizes completely.
    """
    params = Correlated2DParams(mu, sigma, r, sigma_c)
    params.require_nondegenerate()
    cov = np.diag([0.0, 0.0, sigma**2, sigma**2])
    cov[:2, :2] = params.covariance()
    return MultivariateGaussian([mu, 0.0, 0.0, 0.0], cov)
