import dataclasses
import math
import re

import numpy as np
import pytest

from statmanifold import canonical, ergodic
from statmanifold import (
    Correlated2DParams,
    GaussianBump,
    HalfPlane,
    HeatBath,
    IgehLevel,
    IntegrationSpec,
    ModelFamily,
    NonPositiveDefiniteError,
    NumericalError,
    OscillatorPair,
    ParameterDomain,
    QuadraticHamiltonian,
    TemperatureRangeError,
    TestFunctionSet,
    canonical_to_gaussian,
    ce_fisher_metric,
    ce_upper_bound,
    covariance_hessian_law,
    distinguishability_F_closed,
    effective_correlation,
    fisher_metric,
    goe_model,
    ig_correlation_2d,
    integrate,
    mvn_ig_correlation,
    mvn_pdf,
    oscillator_mixing_trace,
    oscillator_reduce,
    pdf_2d,
    temperature_to_tau,
)

from gaussians import marginals_2d, midpoint_rule


def random_quadratic(rng, n):
    d = 2 * n
    a = rng.normal(size=(d, d))
    hess = a @ a.T + 0.2 * np.eye(d)
    return QuadraticHamiltonian(rng.normal(size=d), hess)


# ------------------------------------------------------------------- Hessians

def test_hessian_of_oscillator_pair_energy():
    # the energy written out: p1^2/2m1 + p2^2/2m2 + m1 w1^2 d1^2/2 + m2 w2^2 q2^2/2 + cross d1 q2
    o = OscillatorPair(m1=1.0, m2=4.0, omega1=2.0, omega2=0.5, T0=1.0, r=0.3, q10=0.7)
    cross = -0.3 * math.sqrt(1.0 * 4.0) * 2.0 * 0.5

    def energy(x):
        q1, q2, p1, p2 = x
        d1 = q1 - 0.7
        return p1**2 / 2.0 + p2**2 / 8.0 + 2.0 * d1**2 + 0.5 * q2**2 + cross * d1 * q2

    # a quadratic's Hessian by polarization, exact up to the rounding of its sums:
    # H_ij = E(x0 + e_i + e_j) - E(x0 + e_i) - E(x0 + e_j) + E(x0)
    x0, e = np.array([0.7, 0.0, 0.0, 0.0]), np.eye(4)
    polarized = np.array([[energy(x0 + e[i] + e[j]) - energy(x0 + e[i]) - energy(x0 + e[j])
                           + energy(x0) for j in range(4)] for i in range(4)])
    np.testing.assert_allclose(o.hessian(), polarized, rtol=0.0, atol=1e-15)
    q1, q2, p1, p2 = 1.2, -0.4, 0.5, 2.0
    expected = energy([q1, q2, p1, p2])
    assert o.energy([q1, q2, p1, p2]) == pytest.approx(expected, rel=1e-14)
    assert o.energy(np.array([[q1], [q2], [p1], [p2]])) == pytest.approx([expected], rel=1e-14)


def test_hessian_of_linear_energy_rejected_downstream():
    # a linear energy's Hessian, by polarization, is zero: it has no stable equilibrium
    energy = lambda x: 3.0 * x[0] - x[1]
    x0, e = np.zeros(2), np.eye(2)
    hess = np.array([[energy(x0 + e[i] + e[j]) - energy(x0 + e[i]) - energy(x0 + e[j])
                      + energy(x0) for j in range(2)] for i in range(2)])
    assert np.abs(hess).max() < 1e-6
    with pytest.raises(NonPositiveDefiniteError):
        QuadraticHamiltonian([0.0, 0.0], hess)


def test_quadratic_hamiltonian_validation():
    with pytest.raises(NonPositiveDefiniteError):
        QuadraticHamiltonian([0.0, 0.0], np.array([[1.0, 0.2], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        QuadraticHamiltonian([0.0], np.eye(2))


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (2, 2)], ids=["0", "1", "3", "2x2"])
def test_quadratic_hamiltonian_requires_an_even_phase_space_dimension(shape):
    # the phase-space dimension 2n is the equilibrium's length; a 3-D "phase
    # space" would have the law report T^3.  The Hessian matches the length,
    # so only the equilibrium is wrong
    d = shape[0]
    with pytest.raises(ValueError, match="even length 2n >= 2"):
        QuadraticHamiltonian(np.zeros(shape), np.eye(d))


def test_canonical_types_hold_no_units_or_dimension_setting():
    assert [f.name for f in dataclasses.fields(HeatBath)] == ["temperature"]
    assert [f.name for f in dataclasses.fields(QuadraticHamiltonian)] == ["equilibrium", "hessian"]
    o = OscillatorPair(1.0, 1.0, 1.0, 1.0, 1.0)
    for method in (o.sigma_c, o.position_sigma):
        with pytest.raises(TypeError):
            method(1.0)
    with pytest.raises(TypeError):
        oscillator_mixing_trace(o, [0.5, 0.9], kB=1.0)


@pytest.mark.parametrize("equilibrium,hessian", [([math.nan, 0.0], np.eye(2)),
                                                 ([0.0, 0.0], np.diag([1.0, math.inf]))])
def test_quadratic_hamiltonian_rejects_non_finite_input(equilibrium, hessian):
    # a NaN equilibrium was accepted, and every energy was NaN
    with pytest.raises(ValueError, match="must be finite"):
        QuadraticHamiltonian(equilibrium, hessian)


# ------------------------------------------------------- canonical <-> Gaussian

def test_canonical_to_gaussian_identity():
    h = QuadraticHamiltonian([0.0, 0.0], np.eye(2))
    g = canonical_to_gaussian(h, HeatBath(1.0))
    assert g.covariance == pytest.approx(np.eye(2))


def test_canonical_to_gaussian_diagonal_example():
    h = QuadraticHamiltonian([0.0, 0.0], np.diag([2.0, 8.0]))
    g = canonical_to_gaussian(h, HeatBath(3.0))
    assert g.covariance == pytest.approx(np.diag([1.5, 0.375]))
    assert np.linalg.det(g.covariance) == pytest.approx(9.0 / 16.0)


def test_canonical_density_matches_gaussian_pointwise():
    rng = np.random.default_rng(11)
    h = random_quadratic(rng, 1)
    bath = HeatBath(0.8)
    g = canonical_to_gaussian(h, bath)
    sds = np.sqrt(np.diag(g.covariance))
    nodes, w = midpoint_rule(g.mean, sds, 128)
    z = w @ np.exp(-bath.beta * h.energy(nodes))
    grid = np.linspace(-3.0, 3.0, 13)
    pts = np.stack([h.equilibrium[0] + grid * sds[0], h.equilibrium[1] + grid * sds[1]])
    canonical = np.exp(-bath.beta * h.energy(pts)) / z
    assert np.abs(canonical - mvn_pdf(pts, g)).max() < 1e-8


def test_heat_bath_validation():
    with pytest.raises(ValueError):
        HeatBath(0.0)
    with pytest.raises(ValueError):
        HeatBath(-1.0)
    assert HeatBath(0.5).beta == 2.0


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_heat_bath_rejects_non_finite_input(temperature):
    # an infinite temperature gave beta = 0, and covariance_hessian_law a LinAlgError
    with pytest.raises(ValueError, match="must be finite"):
        HeatBath(temperature)


@pytest.mark.parametrize("name", ["m1", "m2", "omega1", "omega2", "T0"])
def test_oscillator_pair_rejects_infinite_scales(name):
    # omega1 = inf gave sigma_c = 0
    scales = dict(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0)
    scales[name] = math.inf
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        OscillatorPair(r=0.5, **scales)


def test_heat_bath_rejects_a_product_that_overflows():
    # a subnormal temperature is positive, but beta = 1 / T overflows to inf
    with pytest.raises(ValueError, match="^beta = 1 / temperature must be finite and positive"):
        HeatBath(1e-310)
    assert HeatBath(1e-300).beta == 1.0 / 1e-300
    assert 0.0 < HeatBath(1.7e308).beta < 1e-308


@pytest.mark.parametrize("scales, product", [
    # m1 m2 underflowed to 0, and sigma_c raised ZeroDivisionError
    (dict(m1=1e-200, m2=1e-200, omega1=1e-200, omega2=1.0), "m1 m2"),
    (dict(m1=1.0, m2=1.0, omega1=1e-200, omega2=1e-200), "sqrt(m1 m2) omega1 omega2"),
    # omega1**2 in hessian raised OverflowError
    (dict(m1=1e-300, m2=1.0, omega1=1e200, omega2=1.0), "m1 omega1^2"),
    (dict(m1=1.0, m2=1e-300, omega1=1.0, omega2=1e200), "m2 omega2^2"),
    (dict(m1=1e-310, m2=1e10, omega1=1e150, omega2=1e-150), "1 / m1"),
    (dict(m1=1.0, m2=1.0, omega1=1e-155, omega2=1e-154), "T0 / (sqrt(m1 m2) omega1 omega2)"),
    (dict(m1=1e-300, m2=1e300, omega1=1e-5, omega2=1.0), "T0 / (m1 omega1^2)"),
])
def test_oscillator_pair_rejects_a_product_that_overflows(scales, product):
    with pytest.raises(ValueError, match=f"^{re.escape(product)} must be finite and positive"):
        OscillatorPair(T0=1.0, r=0.5, **scales)


# ----------------------------------------------------- covariance-Hessian law

def test_law_identity_case():
    h = QuadraticHamiltonian([0.0, 0.0], np.eye(2))
    lhs, rhs = covariance_hessian_law(h, HeatBath(1.0))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_law_diagonal_example():
    h = QuadraticHamiltonian([0.0, 0.0], np.diag([2.0, 8.0]))
    lhs, rhs = covariance_hessian_law(h, HeatBath(3.0))
    assert rhs == pytest.approx(9.0)
    assert lhs == pytest.approx(9.0, rel=1e-12)


def test_law_on_random_hamiltonians():
    rng = np.random.default_rng(5)
    for k in range(100):
        n = 1 + k % 3
        h = random_quadratic(rng, n)
        bath = HeatBath(rng.uniform(0.2, 5.0) * rng.uniform(0.5, 2.0))  # k_B T
        lhs, rhs = covariance_hessian_law(h, bath)
        assert abs(lhs - rhs) / rhs <= 1e-10


@pytest.mark.parametrize("hessian", [1e100 * np.eye(4), 1e-170 * np.eye(2)],
                         ids=["1e100", "1e-170"])
def test_law_holds_where_either_determinant_alone_is_not_a_float(hessian):
    # det(cov) and det(H) underflowed and overflowed apart, and the law read (nan, 1.0)
    h = QuadraticHamiltonian(np.zeros(len(hessian)), hessian)
    lhs, rhs = covariance_hessian_law(h, HeatBath(1.0))
    assert rhs == 1.0
    assert abs(lhs - 1.0) <= 1e-12


@pytest.mark.parametrize("temperature", [1e-100, 1e80])
def test_law_refuses_a_power_of_t_that_is_not_a_normal_float(temperature):
    # T = 1e-100 at n = 2 read (0.0, 0.0), an empty 0 = 0; T = 1e80 warned on overflow
    h = QuadraticHamiltonian(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError, match=r"T\^\(2n\) = .* is not a finite, normal float"):
        covariance_hessian_law(h, HeatBath(temperature))


def test_covariance_by_quadrature_matches_inverse():
    rng = np.random.default_rng(23)
    h = random_quadratic(rng, 1)
    bath = HeatBath(1.3)
    # the midpoint box is placed from the marginal standard deviations alone
    g = canonical_to_gaussian(h, bath)
    pts, w = midpoint_rule(g.mean, np.sqrt(np.diag(g.covariance)), 96)
    cov = np.cov(pts, aweights=w * np.exp(-bath.beta * h.energy(pts)), bias=True)
    expected = np.linalg.inv(bath.beta * h.hessian)
    assert np.abs(cov - expected).max() < 1e-10


# ---------------------------------------------------- canonical Fisher metric

def test_ce_fisher_zero_for_theta_independent_energy():
    energy = lambda x, theta: 0.5 * np.sum(x**2, axis=0)
    grad = lambda x, theta: np.zeros((1, x.shape[1]))
    spec = IntegrationSpec.axes([0.0, 0.0], [1.0, 1.0], 48)
    g = ce_fisher_metric(energy, grad, [0.3], HeatBath(1.0), spec)
    assert np.abs(g).max() < 1e-12


def test_ce_fisher_oscillator_equilibrium_parameter():
    # E = m w^2 (q-q0)^2 / 2 + p^2/(2m) with theta = q0 gives g = beta m w^2
    m_, w = 1.5, 2.0
    bath = HeatBath(0.7)

    def energy(x, theta):
        return 0.5 * m_ * w**2 * (x[0] - theta[0]) ** 2 + x[1] ** 2 / (2.0 * m_)

    def grad(x, theta):
        return np.stack([-m_ * w**2 * (x[0] - theta[0])])

    hess = np.diag([m_ * w**2, 1.0 / m_])
    h = QuadraticHamiltonian([0.0, 0.0], hess)
    g = canonical_to_gaussian(h, bath)
    spec = IntegrationSpec(g.mean, g.cholesky, 64)
    g = ce_fisher_metric(energy, grad, [0.0], bath, spec)
    assert g[0, 0] == pytest.approx(bath.beta * m_ * w**2, rel=1e-6)


def test_ce_fisher_forms_differ_for_theta_dependent_partition():
    # E = theta q^2 + p^2/2: d E/d theta = q^2 has nonzero canonical mean, so
    # the raw second moment 3/(4 theta^2) would overestimate the Fisher information
    bath = HeatBath(1.0)
    theta0 = 0.8

    def energy(x, theta):
        return theta[0] * x[0] ** 2 + 0.5 * x[1] ** 2

    scales = [math.sqrt(1.0 / (2.0 * theta0)), 1.0]
    spec = IntegrationSpec.axes([0.0, 0.0], scales, 64)
    g = ce_fisher_metric(energy, lambda x, theta: np.stack([x[0] ** 2]), [theta0], bath, spec)
    assert g[0, 0] == pytest.approx(1.0 / (2.0 * theta0**2), rel=1e-6)


def test_ce_fisher_reduced_oscillator_matches_model_metric():
    # potential-only canonical family at 1 - r^2 = T/T0 is the correlated
    # bivariate model; its Fisher metric must match the closed form
    T0 = 1.0
    r = math.sqrt(0.5)
    T = T0 * (1.0 - r**2)
    bath = HeatBath(T)
    sigma_c = 1.0
    mu0, sigma0 = 0.4, 1.2

    def potential(x, theta):
        mu, s = theta
        d = x[0] - mu
        return 0.5 * T0 * (
            d**2 / s**2 + x[1] ** 2 * s**2 / sigma_c**4 - 2.0 * r * d * x[1] / sigma_c**2
        )

    def grad(x, theta):
        mu, s = theta
        d = x[0] - mu
        return T0 * np.stack([-d / s**2 + r * x[1] / sigma_c**2,
                              -d**2 / s**3 + x[1] ** 2 * s / sigma_c**4])

    params = Correlated2DParams(mu0, sigma0, r, sigma_c)
    spec = IntegrationSpec.for_gaussian([mu0, 0.0], params.covariance(), 64)
    general = ce_fisher_metric(potential, grad, [mu0, sigma0], bath, spec)
    assert np.abs(general - HalfPlane.correlated(r).metric([mu0, sigma0])).max() < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_ce_fisher_of_a_shifted_well_is_the_gaussian_fisher_metric(seed):
    # E = (x - x0(theta))^T H (x - x0(theta)) / 2, theta the leading m entries of
    # x0, has the canonical density N(x0(theta), T H^-1), whose Fisher metric is
    # (H / T)[:m, :m]; dE/dtheta = -(H (x - x0))[:m]
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    m = int(rng.integers(1, d + 1))
    a = rng.normal(size=(d, d))
    hess = a @ a.T + 0.5 * np.eye(d)
    x0, theta = rng.normal(size=d), rng.normal(size=m)
    bath = HeatBath(rng.uniform(0.2, 5.0))

    def centre(theta):
        return np.concatenate([theta, x0[m:]])

    def energy(x, theta):
        dx = x - centre(theta)[:, None]
        return 0.5 * np.sum(dx * (hess @ dx), axis=0)

    def grad(x, theta):
        return -(hess @ (x - centre(theta)[:, None]))[:m]

    cov = bath.temperature * np.linalg.inv(hess)
    family = ModelFamily(lambda t: (centre(t), cov, np.eye(d)[:m], np.zeros((m, d, d))),
                         ParameterDomain(m))
    expected = fisher_metric(family, theta)
    spec = IntegrationSpec.for_gaussian(centre(theta), cov, 8)
    g = ce_fisher_metric(energy, grad, theta, bath, spec)
    assert np.abs(g - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ce_fisher_of_a_scaled_energy_is_half_the_dimension(dim):
    # E = theta E0 with E0 = x^T H x / 2: beta theta E0 is chi^2_D / 2, of
    # variance D / 2, so g = beta^2 Var(E0) = D / (2 theta^2)
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    hess = a @ a.T + 0.5 * np.eye(dim)
    theta, bath = rng.uniform(0.5, 2.0), HeatBath(rng.uniform(0.2, 5.0))
    e0 = lambda x: 0.5 * np.sum(x * (hess @ x), axis=0)
    cov = np.linalg.inv(bath.beta * theta * hess)
    spec = IntegrationSpec.for_gaussian(np.zeros(dim), cov, 8)
    g = ce_fisher_metric(lambda x, t: t[0] * e0(x), lambda x, t: e0(x)[None], [theta], bath, spec)
    assert g[0, 0] == pytest.approx(dim / (2.0 * theta**2), rel=1e-12)


@pytest.mark.parametrize("z_depends_on_theta", [False, True])
def test_ce_fisher_calls_the_energy_once_per_role(z_depends_on_theta):
    # one block of 32 x 32 nodes: one energy call for the weight and one gradient
    # call, which serve the partition function, the means and the second moments
    # in one pass, whether the means vanish (a shifted well) or not (a stiffened one)
    calls = []

    def energy(x, theta):
        calls.append("energy")
        if z_depends_on_theta:
            return theta[0] * x[0] ** 2 + 0.5 * x[1] ** 2
        return (x[0] - theta[0]) ** 2 + 0.5 * x[1] ** 2

    def grad(x, theta):
        calls.append("gradient")
        return np.stack([x[0] ** 2 if z_depends_on_theta else -2.0 * (x[0] - theta[0])])

    centre = 0.0 if z_depends_on_theta else 1.0
    spec = IntegrationSpec.axes([centre, 0.0], [math.sqrt(0.5), 1.0], 32)
    ce_fisher_metric(energy, grad, [1.0], HeatBath(1.0), spec)
    assert sorted(calls) == ["energy", "gradient"]


def test_ce_fisher_rejects_a_non_confining_energy():
    # exp(theta |x|^2) overflows on the node cloud, so Z read off the Gram
    # matrix is not finite
    energy = lambda x, theta: -theta[0] * np.sum(x**2, axis=0)
    grad = lambda x, theta: -np.sum(x**2, axis=0)[None]
    spec = IntegrationSpec.axes([0.0, 0.0], [3.0, 3.0], 32)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="partition function is not finite"):
            ce_fisher_metric(energy, grad, [1.0], HeatBath(1.0), spec)


def test_ce_fisher_analytic_gradient_path():
    bath = HeatBath(1.0)

    def energy(x, theta):
        return 0.5 * (x[0] - theta[0]) ** 2 + 0.5 * x[1] ** 2

    def grad(x, theta):
        return np.stack([-(x[0] - theta[0])])

    spec = IntegrationSpec.axes([0.0, 0.0], [1.0, 1.0], 48)
    g = ce_fisher_metric(energy, grad, [0.0], bath, spec)
    assert g[0, 0] == pytest.approx(1.0, rel=1e-10)


# -------------------------------------------------------------- upper bounds

def test_ce_upper_bound_zero_for_diagonal_hessian():
    h = QuadraticHamiltonian([0.0, 0.0], np.diag([1.0, 2.0]))
    fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
    assert ce_upper_bound(h, HeatBath(1.0), fs) < 1e-10


def test_ce_upper_bound_two_path_oscillator():
    # with sigma_c^2 = 1/(2 pi) the closed-form envelope and the maximizer
    # bound coincide exactly
    T0 = 1.0
    omega = math.sqrt(2.0 * math.pi)
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=omega, omega2=omega, T0=T0,
                       r=math.sqrt(0.5))
    T = T0 / 2.0
    bath = HeatBath(T)
    hess = np.array([
        [o.m1 * o.omega1**2, -o.r * math.sqrt(o.m1 * o.m2) * o.omega1 * o.omega2],
        [-o.r * math.sqrt(o.m1 * o.m2) * o.omega1 * o.omega2, o.m2 * o.omega2**2],
    ])
    h = QuadraticHamiltonian([o.q10, 0.0], hess)
    fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
    bound = ce_upper_bound(h, bath, fs)
    envelope = distinguishability_F_closed(o.r) * fs.product_l1
    assert bound == pytest.approx(envelope, rel=1e-7)


def test_ce_upper_bound_dominates_correlation():
    rng = np.random.default_rng(17)
    fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
    for _ in range(10):
        h = random_quadratic(rng, 1)
        bath = HeatBath(rng.uniform(0.5, 2.0))
        g = canonical_to_gaussian(h, bath)
        c = mvn_ig_correlation(g, fs, order=48)
        assert abs(c) <= ce_upper_bound(h, bath, fs) + 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_ce_upper_bound_dominates_narrow_bumps_beyond_one_mode(n):
    # unit-L1 bumps of width 1e-3 read p - prod p_i at one point each, at random
    # centres within 1.5 sd of the mean; |C| / bound reaches 0.69 at n = 3
    rng = np.random.default_rng(40 + n)
    for _ in range(20):
        h = random_quadratic(rng, n)
        bath = HeatBath(rng.uniform(0.5, 2.0))
        g = canonical_to_gaussian(h, bath)
        sd = np.sqrt(np.diag(g.covariance))
        fs = TestFunctionSet.unit_l1_bumps(g.mean + sd * rng.uniform(-1.5, 1.5, 2 * n), 1e-3)
        assert abs(mvn_ig_correlation(g, fs)) <= ce_upper_bound(h, bath, fs)


# ------------------------------------------------------- oscillator reduction

def test_effective_correlation_boundaries():
    assert effective_correlation(1.0, 1.0) == 0.0
    assert effective_correlation(0.5, 1.0) == pytest.approx(math.sqrt(0.5))
    assert effective_correlation(0.0, 1.0) == 1.0
    assert effective_correlation(0.5, 1.0, coupling_sign=-1.0) < 0.0
    with pytest.raises(TemperatureRangeError):
        effective_correlation(1.5, 1.0)


@pytest.mark.parametrize("T,T0", [(np.nan, 1.0), (0.5, np.nan), (np.inf, 1.0), (-0.1, 1.0),
                                  (1.5, 1.0), (0.0, 0.0), (1.0, np.inf)])
def test_effective_correlation_requires_t_in_0_t0(T, T0):
    # T0 = inf gave r_eff = 1, as if T/T0 were 0
    with pytest.raises(TemperatureRangeError):
        effective_correlation(T, T0)


def test_oscillator_reduce_parameters():
    o = OscillatorPair(m1=2.0, m2=0.5, omega1=1.5, omega2=3.0, T0=2.0, r=0.4, q10=0.9)
    bath = HeatBath(1.0)
    params = oscillator_reduce(o, bath)
    assert params.mu_x == pytest.approx(0.9)
    assert params.sigma == pytest.approx(math.sqrt(2.0 / (2.0 * 1.5**2)))
    assert params.sigma_c == pytest.approx(o.sigma_c())
    assert params.r == pytest.approx(math.sqrt(1.0 - 0.5))
    neg = OscillatorPair(m1=2.0, m2=0.5, omega1=1.5, omega2=3.0, T0=2.0, r=-0.4)
    assert oscillator_reduce(neg, bath).r < 0.0


def test_oscillator_reduce_rejects_high_temperature():
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.2)
    with pytest.raises(TemperatureRangeError):
        oscillator_reduce(o, HeatBath(1.5))


def test_reduced_density_matches_position_marginal():
    # integrating the canonical density over momenta leaves the correlated model
    T0 = 1.0
    r = math.sqrt(0.5)
    o = OscillatorPair(m1=1.0, m2=2.0, omega1=1.0, omega2=0.7, T0=T0, r=r, q10=0.3)
    T = T0 * (1.0 - r**2)
    bath = HeatBath(T)
    params = oscillator_reduce(o, bath)
    h = QuadraticHamiltonian([o.q10, 0.0, 0.0, 0.0], o.hessian())
    gauss = canonical_to_gaussian(h, bath)
    # position block of the full canonical covariance vs model covariance
    assert np.abs(gauss.covariance[:2, :2] - params.covariance()).max() < 1e-6


@pytest.mark.parametrize("coupling", [0.3, -0.6])
def test_reduction_is_the_marginal_of_the_pair_rebuilt_at_r_eff(coupling):
    # at each T the reduction is the position block of the pair whose coupling
    # solves 1 - r_eff^2 = T/T0; o's own coupling enters through its sign alone
    o = OscillatorPair(m1=1.0, m2=2.0, omega1=1.5, omega2=0.7, T0=2.0, r=coupling, q10=0.4)
    for T in np.linspace(0.0, o.T0, 42)[1:-1]:
        bath = HeatBath(T)
        r_eff = effective_correlation(T, o.T0, coupling)
        rebuilt = OscillatorPair(o.m1, o.m2, o.omega1, o.omega2, o.T0, r=r_eff, q10=o.q10)
        h = QuadraticHamiltonian((o.q10, 0.0, 0.0, 0.0), rebuilt.hessian())
        block = canonical_to_gaussian(h, bath).covariance[:2, :2]
        reduced = oscillator_reduce(o, bath).covariance()
        assert np.abs(block - reduced).max() <= 1e-13 * np.abs(reduced).max()


def test_temperature_to_tau():
    assert temperature_to_tau(0.5, 1.0) == pytest.approx(2.0)
    assert temperature_to_tau(0.999999, 1.0) > 9.9e5
    with pytest.raises(TemperatureRangeError):
        temperature_to_tau(1.0, 1.0)
    with pytest.raises(TemperatureRangeError):
        temperature_to_tau(-0.5, 1.0)
    with pytest.raises(TemperatureRangeError):  # T0 = inf gave tau = 1, as if T/T0 were 0
        temperature_to_tau(1.0, np.inf)


def oscillator_curvature(T, T0):
    return HalfPlane.oscillator(T, T0).scalar_curvature


def test_oscillator_curvature_values():
    assert oscillator_curvature(1.0, 1.0) == pytest.approx(-0.5)
    assert oscillator_curvature(0.0, 1.0) == 0.0
    assert oscillator_curvature(0.5, 1.0) == pytest.approx(-0.25)
    assert oscillator_curvature(1.5, 3.0) == pytest.approx(-0.25)
    with pytest.raises(TemperatureRangeError):
        oscillator_curvature(2.0, 1.0)
    with pytest.raises(TemperatureRangeError):  # T0 = inf gave R = -0.0
        oscillator_curvature(1.0, np.inf)


def test_curvature_routes_agree():
    # R = -T/(2 T0) equals R(r_eff) = -(1 - r_eff^2)/2 with 1 - r_eff^2 = T/T0
    for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
        r_eff = effective_correlation(ratio, 1.0)
        assert abs(HalfPlane.correlated(r_eff).scalar_curvature - oscillator_curvature(ratio, 1.0)) < 1e-12


def test_oscillator_curvature_monotone_decreasing():
    ratios = np.linspace(0.0, 1.0, 21)
    vals = [oscillator_curvature(t, 1.0) for t in ratios]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ mixing scenario

def test_mixing_trace_geometric_schedule():
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
    schedule = [1.0 - 0.5**k for k in range(1, 21)]
    result = oscillator_mixing_trace(o, schedule)
    assert result.classification.level is IgehLevel.MIXING
    assert np.all(np.abs(result.trace.values) <= result.envelope + 1e-12)
    # tau follows 1/(1 - T/T0) = 2^k for the geometric schedule
    assert result.trace.taus[:3] == pytest.approx([2.0, 4.0, 8.0])
    assert result.r_eff[0] == pytest.approx(math.sqrt(0.5))


def test_mixing_trace_constant_room_temperature_is_bernoulli():
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
    result = oscillator_mixing_trace(o, [1.0] * 20)
    assert result.classification.level is IgehLevel.BERNOULLI
    assert np.abs(result.trace.values).max() < 1e-12
    assert result.trace.taus == pytest.approx(np.arange(20.0))


def test_mixing_trace_final_point_at_reference_temperature():
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
    schedule = [1.0 - 0.5**k for k in range(1, 20)] + [1.0]
    result = oscillator_mixing_trace(o, schedule)
    assert abs(result.trace.values[-1]) < 1e-12  # exact factorization at T = T0


def test_mixing_trace_validation():
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
    with pytest.raises(TemperatureRangeError):
        oscillator_mixing_trace(o, [0.5, 1.5])
    with pytest.raises(ValueError):
        oscillator_mixing_trace(o, [])


@pytest.mark.parametrize("fn,args", [
    (oscillator_curvature, (math.nan, 1.0)),
    (oscillator_curvature, (0.5, math.nan)),
    (temperature_to_tau, (math.nan, 1.0)),
    (temperature_to_tau, (0.5, math.nan)),
    (effective_correlation, (math.nan, 1.0)),
])
def test_temperature_maps_reject_nan(fn, args):
    with pytest.raises(TemperatureRangeError):
        fn(*args)


def test_mixing_trace_rejects_a_nan_schedule_before_any_sample(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sample was reduced or correlated")

    monkeypatch.setattr(canonical, "oscillator_reduce", unreachable)
    monkeypatch.setattr(canonical, "_gaussian_correlation", unreachable)
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
    with pytest.raises(TemperatureRangeError, match="finite"):
        oscillator_mixing_trace(o, [0.2, math.nan, 0.6] + [0.7] * 14)


def test_stacked_trace_equals_the_per_sample_correlations():
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(200):
        m1, m2, w1, w2, t0 = (10.0 ** rng.uniform(-0.5, 0.5, 5)).tolist()
        o = OscillatorPair(m1, m2, w1, w2, t0, r=float(rng.uniform(-0.95, 0.95)),
                           q10=float(rng.uniform(-1.0, 1.0)))
        schedule = t0 * np.sort(rng.uniform(0.01, 1.0, int(rng.integers(16, 25))))
        fs = TestFunctionSet.unit_l1_bumps(rng.uniform(-1.0, 1.0, 2).tolist(),
                                           float(10.0 ** rng.uniform(-0.5, 0.5)))
        values = oscillator_mixing_trace(o, schedule, fs).trace.values
        singles = [ig_correlation_2d(oscillator_reduce(o, HeatBath(t)), fs) for t in schedule.tolist()]
        worst = max(worst, float(np.abs(values - singles).max()))
    assert worst <= 1e-15


def test_trace_of_other_test_functions_takes_quadrature_at_its_order(monkeypatch):
    bumps = [GaussianBump(0.1, 1.2), GaussianBump(-0.2, 1.5)]
    fs = TestFunctionSet(tuple(lambda x, b=b: b(x) for b in bumps), tuple(b.l1_norm for b in bumps))
    orders = []
    integrate_correlation = ergodic.ig_correlation

    def spy(joint, fs, spec):
        orders.append(spec.order)
        return integrate_correlation(joint, fs, spec)

    monkeypatch.setattr(ergodic, "ig_correlation", spy)
    o = OscillatorPair(m1=1.0, m2=2.0, omega1=1.0, omega2=0.5, T0=1.0, r=0.5)
    schedule = [1.0 - 0.5**k for k in range(1, 17)]
    values = oscillator_mixing_trace(o, schedule, fs, order=40).trace.values
    assert orders == [40] * len(schedule)
    singles = [ig_correlation_2d(oscillator_reduce(o, HeatBath(t)), fs, order=40) for t in schedule]
    assert values.tolist() == singles
    exact = [ig_correlation_2d(oscillator_reduce(o, HeatBath(t)), TestFunctionSet.from_bumps(bumps))
             for t in schedule]
    assert values == pytest.approx(exact, rel=1e-9, abs=1e-15)


def test_envelope_breach_names_the_first_sample_above_it(monkeypatch):
    exact = canonical._gaussian_correlation

    def inflated(mean, cov, fs, order):
        values = exact(mean, cov, fs, order)
        values[[5, 9]] = 1.0
        return values

    monkeypatch.setattr(canonical, "_gaussian_correlation", inflated)
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
    schedule = [1.0 - 0.5**k for k in range(1, 21)]
    with pytest.raises(NumericalError, match=r"at sample 5 \(T = 0\.984375\) exceeds its envelope"):
        oscillator_mixing_trace(o, schedule)


# ----------------------------------------------------------------- 2x2 matrices

def goe_joint_and_block(mu, sigma, r, sigma_c):
    """goe_model's joint and the correlated model that is its diagonal block, bit for bit."""
    joint, block = goe_model(mu, sigma, r, sigma_c), Correlated2DParams(mu, sigma, r, sigma_c)
    assert np.array_equal(joint.covariance[:2, :2], block.covariance())
    return joint, block


def test_goe_joint_factorizes_at_zero_correlation():
    joint, block = goe_joint_and_block(0.0, 1.0, 0.0, 1.0)
    p1, p2 = marginals_2d(block)
    grid = np.linspace(-4.0, 4.0, 21)
    H11, H22, H12, H21 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    density = mvn_pdf((H11, H22, H12, H21), joint)
    s = block.sigma  # the off-diagonal entries' scale
    gauss = lambda v: np.exp(-(v**2) / (2 * s**2)) / math.sqrt(2 * math.pi * s**2)
    product = p1.pdf(H11) * p2.pdf(H22) * gauss(H12) * gauss(H21)
    assert np.abs(density - product).max() < 1e-12


def test_goe_joint_normalizes():
    joint, _ = goe_joint_and_block(0.3, 1.2, 0.5, 1.0)
    spec = IntegrationSpec.for_gaussian(joint.mean, joint.covariance, 20)
    total = integrate(lambda x: mvn_pdf(x, joint), spec)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_goe_marginalization_reproduces_reduced_density():
    joint, block = goe_joint_and_block(0.2, 1.0, 0.4, 1.1)
    s = block.sigma
    off_spec = IntegrationSpec.axes([0.0, 0.0], [s, s], 48)
    grid = np.linspace(-3.0, 3.0, 7)
    for h11 in 0.2 + grid:
        for h22 in grid * block.sigma_y:
            marg = integrate(
                lambda x: mvn_pdf((h11, h22, x[0], x[1]), joint), off_spec
            )
            assert marg == pytest.approx(pdf_2d(h11, h22, block), abs=1e-6)


def test_goe_curvature():
    # the diagonal block's macrospace is the correlated slice's plane, at the
    # correlation the joint's covariance carries
    def curvature(r):
        c = goe_joint_and_block(0.0, 1.0, r, 1.0)[0].covariance
        return HalfPlane.correlated(c[0, 1] / math.sqrt(c[0, 0] * c[1, 1])).scalar_curvature

    assert curvature(0.0) == pytest.approx(-0.5)
    assert curvature(0.99) == pytest.approx(-0.5 * (1.0 - 0.99**2))
    rs = np.linspace(0.0, 0.99, 12)
    curv = [curvature(r) for r in rs]
    assert all(b > a for a, b in zip(curv, curv[1:]))


def test_goe_rejects_degenerate_correlation():
    with pytest.raises(Exception):
        goe_model(0.0, 1.0, 1.0, 1.0)
