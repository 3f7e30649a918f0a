"""Bridge between canonical-ensemble densities and Gaussian statistical models.

A system with quadratic energy E(x) = (x - x0) G (x - x0)^T, where G is half
the energy Hessian at the equilibrium point x0, has the canonical density
exp(-beta E)/Z over its 2n-dimensional phase space.  That density is exactly
the multivariate Gaussian with mean x0 and inverse covariance beta * Hessian,
which yields the determinant law

    det(covariance) * det(Hessian) = (kB T)^(2n):

the covariance determinant grows as a power of the bath temperature with
exponent equal to the phase-space dimension.

Two worked scenarios build on this bridge: a pair of linearly coupled
harmonic oscillators whose position marginal reduces to the correlated
bivariate model (with 1 - r^2 = T/T0 against a reference temperature T0), and
a 2x2 real-symmetric random-matrix ensemble whose diagonal entries carry the
correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    NonPositiveDefiniteError,
    NonSmoothEnergyError,
    NumericalError,
    TemperatureRangeError,
)
from .ergodic import (
    CorrelationTrace,
    IgehClass,
    TestFunctionSet,
    classify,
    correlation_upper_bound,
    ig_correlation_2d,
    mvn_upper_bound,
)
from .manifold import _fd_derivatives, _fd_steps, _stencil
from .models import Correlated2DParams, MultivariateGaussian, curvature_2d_closed, mvn_pdf
from .quadrature import DEFAULT_ORDER, IntegrationSpec, default_order, integrate


@dataclass(frozen=True)
class HeatBath:
    """Heat bath at fixed temperature; kB defaults to natural units."""

    temperature: float
    kB: float = 1.0

    def __post_init__(self):
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")
        if not self.kB > 0.0:
            raise ValueError("kB must be positive")

    @property
    def beta(self) -> float:
        return 1.0 / (self.kB * self.temperature)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic energy around an equilibrium point of a 2n-dim phase space.

    ``hessian`` is the full matrix of second derivatives of E at the
    equilibrium; the quadratic-form tensor is hessian / 2.
    """

    n: int
    equilibrium: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        eq = np.atleast_1d(np.asarray(self.equilibrium, dtype=float))
        hess = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        object.__setattr__(self, "equilibrium", eq)
        object.__setattr__(self, "hessian", hess)
        d = 2 * self.n
        if eq.shape != (d,):
            raise ValueError(f"equilibrium must have length 2n = {d}")
        if hess.shape != (d, d):
            raise ValueError(f"hessian must be ({d}, {d})")
        scale = max(1.0, float(np.abs(hess).max()))
        if not np.allclose(hess, hess.T, rtol=0.0, atol=1e-10 * scale):
            raise NonPositiveDefiniteError("hessian must be symmetric")
        if np.min(np.linalg.eigvalsh(hess)) <= 0.0:
            raise NonPositiveDefiniteError(
                "hessian must be positive definite (stable equilibrium)"
            )

    @property
    def phase_dim(self) -> int:
        return 2 * self.n

    def energy(self, x) -> np.ndarray:
        """Quadratic energy at phase points of shape (2n,) or (2n, k)."""
        x = np.asarray(x, dtype=float)
        d = (x[:, None] if x.ndim == 1 else x) - self.equilibrium[:, None]
        vals = 0.5 * np.sum(d * (self.hessian @ d), axis=0)
        return float(vals[0]) if x.ndim == 1 else vals


def hessian_of_energy(energy: Callable, point, step: float = 1e-4,
                      smooth_tol: float = 1e-3) -> np.ndarray:
    """Finite-difference Hessian of a scalar energy, symmetrized.

    Steps are ``max(step, step·|x_k|)``.  Off-diagonal entries use the
    centered four-corner stencil, which is symmetric by construction;
    non-smoothness is therefore detected by comparing against an independent
    diagonal-direction stencil, and a disagreement beyond ``smooth_tol``
    (relative to the Hessian scale) raises :class:`NonSmoothEnergyError`.
    Each of the 1 + 2d^2 stencil points is evaluated once.
    """
    x = np.atleast_1d(np.asarray(point, dtype=float))
    d = x.shape[0]
    h = _fd_steps(x, step)
    values = [float(energy(p)) for p in _stencil(x, h, 2)]
    d2 = _fd_derivatives(values, h, 2)
    e0 = values[2 * d]
    hess = np.diag(np.diagonal(d2))
    r = 2 * d + 1  # the ++ corner of the first pair; the -- corner is 3 rows on
    for i in range(d):
        for j in range(i + 1, d):
            corner = d2[i, j]
            diag2 = (values[r] - 2.0 * e0 + values[r + 3]) / (h[i] * h[j])
            alt = 0.5 * (diag2 - hess[i, i] * h[i] / h[j] - hess[j, j] * h[j] / h[i])
            scale = max(1.0, float(np.abs(hess).max()), abs(corner))
            if abs(corner - alt) > smooth_tol * scale:
                raise NonSmoothEnergyError(
                    f"Hessian stencils disagree at ({i}, {j}): "
                    f"{corner:.6g} vs {alt:.6g}"
                )
            hess[i, j] = hess[j, i] = corner
            r += 4
    return 0.5 * (hess + hess.T)


def canonical_to_gaussian(h: QuadraticHamiltonian, bath: HeatBath) -> MultivariateGaussian:
    """Gaussian equal to the canonical density of a quadratic energy.

    Mean is the equilibrium point; covariance is (beta * Hessian)^(-1).
    """
    cov = np.linalg.inv(bath.beta * h.hessian)
    return MultivariateGaussian(h.equilibrium, 0.5 * (cov + cov.T))


def covariance_hessian_law(h: QuadraticHamiltonian, bath: HeatBath):
    """Both sides of det(cov) * det(Hessian) = (kB T)^(2n)."""
    g = canonical_to_gaussian(h, bath)
    lhs = float(np.linalg.det(g.covariance) * np.linalg.det(h.hessian))
    rhs = float((bath.kB * bath.temperature) ** (2 * h.n))
    return lhs, rhs


def phase_space_spec(h: QuadraticHamiltonian, bath: HeatBath,
                     order: int | None = None, rule: str = "gauss_hermite") -> IntegrationSpec:
    """Quadrature description covering the canonical density of ``h``."""
    g = canonical_to_gaussian(h, bath)
    order = order or default_order(h.phase_dim)
    if rule == "gauss_hermite":
        return IntegrationSpec.for_gaussian(g.mean, g.covariance, order)
    return IntegrationSpec.axes(g.mean, np.sqrt(np.diag(g.covariance)), order, rule)


def canonical_covariance_quadrature(h: QuadraticHamiltonian, bath: HeatBath,
                                    order: int = 96) -> np.ndarray:
    """Covariance of exp(-beta E)/Z by midpoint-rule quadrature.

    Independent of the matrix-inverse route: the box is placed from the
    marginal standard deviations only, and no whitening is used.
    """
    spec = phase_space_spec(h, bath, order=order, rule="rectangle")
    return _canonical_covariance(lambda x: x - h.equilibrium[:, None], h.energy, bath, spec)


def _canonical_covariance(values: Callable, energy: Callable, bath: HeatBath,
                          spec: IntegrationSpec) -> np.ndarray:
    """Covariance of ``values(x)`` (m, k) under exp(-beta E)/Z, from one quadrature pass.

    The Gram matrix of a = [values; 1] weighted by exp(-beta E) holds the
    second moments, Z times the means in its last column and Z in its corner.
    """

    def moments(x):
        return np.vstack([values(x), np.ones(x.shape[1])]), np.exp(-bath.beta * energy(x))

    gram = integrate(moments, spec)
    z = gram[-1, -1]
    if not (np.isfinite(z) and z > 0.0):
        raise ValueError("partition function is not finite; energy is not confining")
    mean = gram[:-1, -1] / z
    return gram[:-1, :-1] / z - np.outer(mean, mean)


def _theta_energy_gradient(energy: Callable, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Central-difference gradient of E(x; theta) in theta, shape (m, k) per phase point."""
    h = _fd_steps(theta)
    values = [energy(x, t) for t in _stencil(theta, h, 1)]
    return _fd_derivatives(values, h, 1).T


def ce_fisher_metric(energy: Callable, theta, bath: HeatBath, spec: IntegrationSpec,
                     grad_theta: Optional[Callable] = None) -> np.ndarray:
    """Fisher matrix of the canonical family exp(-beta E(.; theta))/Z(theta).

    This is beta^2 times the canonical covariance of dE/dtheta, the Fisher
    information of the normalized density for any Z(theta).  The raw second
    moment beta^2 <dE/dtheta_i dE/dtheta_j> equals it only when
    <dE/dtheta> = 0.

    ``energy`` maps (phase points (2n, k), theta) to (k,); ``spec`` must cover
    the canonical density at theta.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def grads(x):
        if grad_theta is not None:
            return np.asarray(grad_theta(x, theta))
        return _theta_energy_gradient(energy, x, theta)

    return bath.beta**2 * _canonical_covariance(grads, lambda x: energy(x, theta), bath, spec)


def ce_upper_bound(h: QuadraticHamiltonian, bath: HeatBath, fs: TestFunctionSet) -> float:
    """``mvn_upper_bound`` of the canonical Gaussian of ``h``."""
    return mvn_upper_bound(canonical_to_gaussian(h, bath), fs)


@dataclass(frozen=True)
class OscillatorPair:
    """Two linearly coupled harmonic oscillators.

    The coupling term is -r sqrt(m1 m2) w1 w2 (q1 - q10) q2 with strength
    |r| < 1 so the potential stays confining; q20 is fixed at zero.  T0 is
    the reference temperature entering the constraint
    sigma_c^2 = kB T0 / (sqrt(m1 m2) w1 w2).
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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not abs(self.r) < 1.0:
            raise ValueError("coupling strength must satisfy |r| < 1")

    def sigma_c(self, kB: float = 1.0) -> float:
        return math.sqrt(kB * self.T0 / (math.sqrt(self.m1 * self.m2) * self.omega1 * self.omega2))

    def position_sigma(self, kB: float = 1.0) -> float:
        """Scale sqrt(kB T0 / (m1 w1^2)) of the q1 coordinate."""
        return math.sqrt(kB * self.T0 / (self.m1 * self.omega1**2))

    def energy(self, x) -> np.ndarray:
        """Quadratic energy of ``hessian()`` at phase points (q1, q2, p1, p2), (4,) or (4, k)."""
        return QuadraticHamiltonian(2, [self.q10, 0.0, 0.0, 0.0], self.hessian()).energy(x)

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
    if T < 0.0 or T0 <= 0.0:
        raise TemperatureRangeError("need 0 <= T and T0 > 0")
    if T > T0:
        raise TemperatureRangeError(
            f"T = {T} exceeds the reference temperature T0 = {T0}; "
            "the mapping 1 - r^2 = T/T0 leaves [-1, 1]"
        )
    magnitude = math.sqrt(1.0 - T / T0)
    return magnitude if coupling_sign >= 0.0 else -magnitude


def oscillator_reduce(o: OscillatorPair, bath: HeatBath) -> Correlated2DParams:
    """Position-space reduction of the oscillator pair at bath temperature T.

    The Gaussian momentum factor separates and integrates out analytically,
    leaving a correlated bivariate density in (q1, q2) that is a member of
    the constrained family with sigma = sqrt(kB T0/(m1 w1^2)),
    sigma_c^2 = kB T0/(sqrt(m1 m2) w1 w2) and an effective correlation
    r_eff with 1 - r_eff^2 = T/T0 (sign carried from the physical coupling).
    """
    r_eff = effective_correlation(bath.temperature, o.T0, 1.0 if o.r >= 0.0 else -1.0)
    return Correlated2DParams(
        mu_x=o.q10,
        sigma=o.position_sigma(bath.kB),
        r=r_eff,
        sigma_c=o.sigma_c(bath.kB),
    )


def temperature_to_tau(T: float, T0: float) -> float:
    """Time-like parameter tau = 1/(1 - T/T0); diverges as T -> T0."""
    if not (0.0 < T and T0 > 0.0):
        raise TemperatureRangeError("need T > 0 and T0 > 0")
    if T >= T0:
        raise TemperatureRangeError(
            "tau = 1/(1 - T/T0) diverges at T = T0 (asymptotic regime)"
        )
    return 1.0 / (1.0 - T / T0)


def oscillator_curvature(T: float, T0: float) -> float:
    """Scalar curvature R = -T/(2 T0) of the reduced model; decreasing in T."""
    if T < 0.0 or T0 <= 0.0:
        raise TemperatureRangeError("need 0 <= T and T0 > 0")
    if T > T0:
        raise TemperatureRangeError("curvature law is derived for T <= T0")
    return -T / (2.0 * T0)


@dataclass(frozen=True)
class OscillatorTraceResult:
    """Correlation trace along a temperature schedule with its classification."""

    trace: CorrelationTrace
    classification: IgehClass
    r_eff: np.ndarray
    envelope: np.ndarray  # F_sup(r_eff) / (2 pi sigma_c^2) * ||f1 f2||_1 per sample


def default_oscillator_test_functions(o: OscillatorPair, width: float = 1.0) -> TestFunctionSet:
    """Unit-L1 bumps centered on the marginal means (q10 and 0)."""
    return TestFunctionSet.unit_l1_bumps([o.q10, 0.0], width)


def oscillator_mixing_trace(o: OscillatorPair, T_schedule: Sequence[float],
                            fs: TestFunctionSet | None = None,
                            kB: float = 1.0, tol: float = 1e-6,
                            order: int = DEFAULT_ORDER) -> OscillatorTraceResult:
    """Correlation trace of the reduced oscillator model along a T schedule.

    tau follows 1/(1 - T/T0) when the schedule is strictly increasing and
    stays below T0; otherwise (constant schedules, or schedules touching T0
    where tau diverges) the sample index is used as tau.  Bump correlations
    are exact; ``order`` applies only to other test functions.  The trace is
    classified and checked against the envelope
    F_sup(r_eff) / (2 pi sigma_c^2) * ||f1 f2||_1.
    """
    temps = np.asarray(list(T_schedule), dtype=float)
    if temps.size < 1:
        raise ValueError("empty temperature schedule")
    if np.any(temps <= 0.0):
        raise TemperatureRangeError("temperatures must be positive")
    if np.any(temps > o.T0):
        raise TemperatureRangeError("schedule exceeds the reference temperature T0")
    if fs is None:
        fs = default_oscillator_test_functions(o)

    increasing = temps.size >= 2 and np.all(np.diff(temps) > 0.0)
    if increasing and np.all(temps < o.T0):
        taus = np.array([temperature_to_tau(t, o.T0) for t in temps])
    else:
        taus = np.arange(temps.size, dtype=float)

    values = np.empty(temps.size)
    r_eff = np.empty(temps.size)
    envelope = np.empty(temps.size)
    for k, t in enumerate(temps):
        params = oscillator_reduce(o, HeatBath(t, kB))
        r_eff[k] = params.r
        values[k] = ig_correlation_2d(params, fs, order=order)
        envelope[k] = correlation_upper_bound(params, fs)
        # the atol absorbs rounding at r_eff = 0, where the bound is 0
        atol = 1e-12 * max(1.0, fs.product_l1)
        if abs(values[k]) > envelope[k] + atol:
            raise NumericalError(
                f"correlation {values[k]:.3e} exceeds its envelope {envelope[k]:.3e}"
            )
    trace = CorrelationTrace(taus, values, meta=f"oscillator pair, T schedule of {temps.size}")
    return OscillatorTraceResult(trace, classify(trace, tol=tol), r_eff, envelope)


@dataclass(frozen=True)
class GoeModel:
    """Correlated ensemble of 2x2 real symmetric matrices.

    The diagonal entries follow the correlated bivariate model; the
    off-diagonal entries are independent zero-mean Gaussians of variance
    sigma^2 (both retained so the flat measure over all four entries
    normalizes the density).  The uncorrelated case r = 0, sigma_c = sigma
    factorizes completely.
    """

    reduced: Correlated2DParams

    @property
    def off_diag_sigma(self) -> float:
        return self.reduced.sigma

    @cached_property
    def _gaussian(self) -> MultivariateGaussian:
        """The joint: the diagonal block's covariance and two independent entries."""
        cov = np.diag([0.0, 0.0, self.off_diag_sigma**2, self.off_diag_sigma**2])
        cov[:2, :2] = self.reduced.covariance()
        return MultivariateGaussian([self.reduced.mu_x, 0.0, 0.0, 0.0], cov)

    def joint_pdf(self, h11, h22, h12, h21):
        """Joint density; the four entries broadcast together."""
        return mvn_pdf((h11, h22, h12, h21), self._gaussian)

    def joint_density(self, x):
        """Vectorized joint over points of shape (4, k)."""
        return mvn_pdf(x, self._gaussian)

    def integration_spec(self, order: int = 20) -> IntegrationSpec:
        g = self._gaussian
        return IntegrationSpec.for_gaussian(g.mean, g.covariance, order)

    def curvature(self) -> float:
        return curvature_2d_closed(self.reduced.r)


def goe_model(mu: float, sigma: float, r: float, sigma_c: float) -> GoeModel:
    """Joint over (H11, H22, H12, H21) and its reduction to the diagonal block."""
    params = Correlated2DParams(mu, sigma, r, sigma_c)
    params.require_nondegenerate()
    return GoeModel(params)
