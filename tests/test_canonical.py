import math

import numpy as np
import pytest

from statmanifold import (
    Correlated2DParams,
    HeatBath,
    IgehLevel,
    IntegrationSpec,
    NonPositiveDefiniteError,
    NonSmoothEnergyError,
    OscillatorPair,
    QuadraticHamiltonian,
    TemperatureRangeError,
    TestFunctionSet,
    canonical_covariance_quadrature,
    canonical_to_gaussian,
    ce_fisher_metric,
    ce_upper_bound,
    covariance_hessian_law,
    curvature_2d_closed,
    distinguishability_F_closed,
    effective_correlation,
    goe_model,
    hessian_of_energy,
    integrate,
    marginals_2d,
    metric_2d_closed,
    mvn_ig_correlation,
    mvn_pdf,
    oscillator_curvature,
    oscillator_mixing_trace,
    oscillator_reduce,
    pdf_2d,
    phase_space_spec,
    temperature_to_tau,
)


def random_quadratic(rng, n):
    d = 2 * n
    a = rng.normal(size=(d, d))
    hess = a @ a.T + 0.2 * np.eye(d)
    return QuadraticHamiltonian(n, rng.normal(size=d), hess)


# ------------------------------------------------------------------- Hessians

def test_hessian_of_isotropic_oscillator():
    energy = lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2)
    hess = hessian_of_energy(energy, [0.0, 0.0])
    assert hess == pytest.approx(np.eye(2), abs=1e-8)


def test_hessian_of_oscillator_pair_energy():
    o = OscillatorPair(m1=1.0, m2=4.0, omega1=2.0, omega2=0.5, T0=1.0, r=0.3, q10=0.7)
    hess = hessian_of_energy(o.energy, [0.7, 0.0, 0.0, 0.0])
    assert hess == pytest.approx(o.hessian(), abs=1e-7)
    cross = -0.3 * math.sqrt(1.0 * 4.0) * 2.0 * 0.5
    assert hess[0, 1] == pytest.approx(cross, abs=1e-8)
    # the energy written out: p1^2/2m1 + p2^2/2m2 + m1 w1^2 d1^2/2 + m2 w2^2 q2^2/2 + cross d1 q2
    q1, q2, p1, p2 = 1.2, -0.4, 0.5, 2.0
    d1 = q1 - 0.7
    expected = p1**2 / 2.0 + p2**2 / 8.0 + 2.0 * d1**2 + 0.5 * q2**2 + cross * d1 * q2
    assert o.energy([q1, q2, p1, p2]) == pytest.approx(expected, rel=1e-14)
    assert o.energy(np.array([[q1], [q2], [p1], [p2]])) == pytest.approx([expected], rel=1e-14)


def test_hessian_of_linear_energy_rejected_downstream():
    energy = lambda x: 3.0 * x[0] - x[1]
    hess = hessian_of_energy(energy, [0.0, 0.0])
    assert np.abs(hess).max() < 1e-6
    with pytest.raises(NonPositiveDefiniteError):
        QuadraticHamiltonian(1, [0.0, 0.0], np.zeros((2, 2)))


def test_hessian_detects_non_smooth_energy():
    # a kink along coordinates i and j shows in their corner stencil alone
    for d, i, j in [(2, 0, 1), (3, 1, 2)]:
        energy = lambda x: abs(x[i] * x[j]) + 0.5 * float(x @ x)
        with pytest.raises(NonSmoothEnergyError, match=rf"\({i}, {j}\)"):
            hessian_of_energy(energy, np.zeros(d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hessian_evaluates_each_stencil_point_once(d):
    points = []

    def energy(x):
        points.append(tuple(x))
        return 0.5 * float(x @ x)

    assert hessian_of_energy(energy, np.full(d, 0.5)) == pytest.approx(np.eye(d), abs=1e-6)
    assert len(points) == len(set(points)) == 1 + 2 * d + 2 * d * (d - 1)


def test_quadratic_hamiltonian_validation():
    with pytest.raises(NonPositiveDefiniteError):
        QuadraticHamiltonian(1, [0.0, 0.0], np.array([[1.0, 0.2], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        QuadraticHamiltonian(1, [0.0], np.eye(2))


# ------------------------------------------------------- canonical <-> Gaussian

def test_canonical_to_gaussian_identity():
    h = QuadraticHamiltonian(1, [0.0, 0.0], np.eye(2))
    g = canonical_to_gaussian(h, HeatBath(1.0))
    assert g.covariance == pytest.approx(np.eye(2))


def test_canonical_to_gaussian_diagonal_example():
    h = QuadraticHamiltonian(1, [0.0, 0.0], np.diag([2.0, 8.0]))
    g = canonical_to_gaussian(h, HeatBath(3.0))
    assert g.covariance == pytest.approx(np.diag([1.5, 0.375]))
    assert np.linalg.det(g.covariance) == pytest.approx(9.0 / 16.0)


def test_canonical_density_matches_gaussian_pointwise():
    rng = np.random.default_rng(11)
    h = random_quadratic(rng, 1)
    bath = HeatBath(0.8)
    g = canonical_to_gaussian(h, bath)
    spec = phase_space_spec(h, bath, order=128, rule="rectangle")
    z = integrate(lambda x: np.exp(-bath.beta * h.energy(x)), spec)
    sds = np.sqrt(np.diag(g.covariance))
    grid = np.linspace(-3.0, 3.0, 13)
    pts = np.stack([h.equilibrium[0] + grid * sds[0], h.equilibrium[1] + grid * sds[1]])
    canonical = np.exp(-bath.beta * h.energy(pts)) / z
    assert np.abs(canonical - mvn_pdf(pts, g)).max() < 1e-8


def test_heat_bath_validation():
    with pytest.raises(ValueError):
        HeatBath(0.0)
    with pytest.raises(ValueError):
        HeatBath(1.0, kB=-1.0)
    assert HeatBath(2.0, kB=0.5).beta == pytest.approx(1.0)


# ----------------------------------------------------- covariance-Hessian law

def test_law_identity_case():
    h = QuadraticHamiltonian(1, [0.0, 0.0], np.eye(2))
    lhs, rhs = covariance_hessian_law(h, HeatBath(1.0))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_law_diagonal_example():
    h = QuadraticHamiltonian(1, [0.0, 0.0], np.diag([2.0, 8.0]))
    lhs, rhs = covariance_hessian_law(h, HeatBath(3.0))
    assert rhs == pytest.approx(9.0)
    assert lhs == pytest.approx(9.0, rel=1e-12)


def test_law_on_random_hamiltonians():
    rng = np.random.default_rng(5)
    for k in range(100):
        n = 1 + k % 3
        h = random_quadratic(rng, n)
        bath = HeatBath(rng.uniform(0.2, 5.0), kB=rng.uniform(0.5, 2.0))
        lhs, rhs = covariance_hessian_law(h, bath)
        assert abs(lhs - rhs) / rhs <= 1e-10


def test_covariance_by_quadrature_matches_inverse():
    rng = np.random.default_rng(23)
    h = random_quadratic(rng, 1)
    bath = HeatBath(1.3)
    cov = canonical_covariance_quadrature(h, bath)
    expected = np.linalg.inv(bath.beta * h.hessian)
    assert np.abs(cov - expected).max() < 1e-10


# ---------------------------------------------------- canonical Fisher metric

def test_ce_fisher_zero_for_theta_independent_energy():
    energy = lambda x, theta: 0.5 * np.sum(x**2, axis=0)
    spec = IntegrationSpec.axes([0.0, 0.0], [1.0, 1.0], 48)
    g = ce_fisher_metric(energy, [0.3], HeatBath(1.0), spec)
    assert np.abs(g).max() < 1e-12


def test_ce_fisher_oscillator_equilibrium_parameter():
    # E = m w^2 (q-q0)^2 / 2 + p^2/(2m) with theta = q0 gives g = beta m w^2
    m_, w = 1.5, 2.0
    bath = HeatBath(0.7)

    def energy(x, theta):
        return 0.5 * m_ * w**2 * (x[0] - theta[0]) ** 2 + x[1] ** 2 / (2.0 * m_)

    hess = np.diag([m_ * w**2, 1.0 / m_])
    h = QuadraticHamiltonian(1, [0.0, 0.0], hess)
    spec = phase_space_spec(h, bath, order=64)
    g = ce_fisher_metric(energy, [0.0], bath, spec)
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
    g = ce_fisher_metric(energy, [theta0], bath, spec)
    assert g[0, 0] == pytest.approx(1.0 / (2.0 * theta0**2), rel=1e-6)


def test_ce_fisher_reduced_oscillator_matches_model_metric():
    # potential-only canonical family at 1 - r^2 = T/T0 is the correlated
    # bivariate model; its Fisher metric must match the closed form
    kB, T0 = 1.0, 1.0
    r = math.sqrt(0.5)
    T = T0 * (1.0 - r**2)
    bath = HeatBath(T, kB)
    sigma_c = 1.0
    mu0, sigma0 = 0.4, 1.2

    def potential(x, theta):
        mu, s = theta
        d = x[0] - mu
        return 0.5 * kB * T0 * (
            d**2 / s**2 + x[1] ** 2 * s**2 / sigma_c**4 - 2.0 * r * d * x[1] / sigma_c**2
        )

    params = Correlated2DParams(mu0, sigma0, r, sigma_c)
    spec = IntegrationSpec.for_gaussian([mu0, 0.0], params.covariance(), 64)
    general = ce_fisher_metric(potential, [mu0, sigma0], bath, spec)
    assert np.abs(general - metric_2d_closed(params)).max() < 1e-4


@pytest.mark.parametrize("z_depends_on_theta", [False, True])
def test_ce_fisher_calls_the_energy_once_per_role(z_depends_on_theta):
    # one block of 32 x 32 nodes: the weight and the two gradient points, which
    # serve the partition function, the means and the second moments in one
    # pass, whether the means vanish (a shifted well) or not (a stiffened one)
    calls = []

    def energy(x, theta):
        calls.append(theta)
        if z_depends_on_theta:
            return theta[0] * x[0] ** 2 + 0.5 * x[1] ** 2
        return (x[0] - theta[0]) ** 2 + 0.5 * x[1] ** 2

    centre = 0.0 if z_depends_on_theta else 1.0
    spec = IntegrationSpec.axes([centre, 0.0], [math.sqrt(0.5), 1.0], 32)
    ce_fisher_metric(energy, [1.0], HeatBath(1.0), spec)
    assert len(calls) == 3


def test_ce_fisher_rejects_a_non_confining_energy():
    # exp(theta |x|^2) overflows on the node cloud, so Z read off the Gram
    # matrix is not finite
    energy = lambda x, theta: -theta[0] * np.sum(x**2, axis=0)
    spec = IntegrationSpec.axes([0.0, 0.0], [3.0, 3.0], 32)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="partition function is not finite"):
            ce_fisher_metric(energy, [1.0], HeatBath(1.0), spec)


def test_ce_fisher_analytic_gradient_path():
    bath = HeatBath(1.0)

    def energy(x, theta):
        return 0.5 * (x[0] - theta[0]) ** 2 + 0.5 * x[1] ** 2

    def grad(x, theta):
        return np.stack([-(x[0] - theta[0])])

    spec = IntegrationSpec.axes([0.0, 0.0], [1.0, 1.0], 48)
    g_fd = ce_fisher_metric(energy, [0.0], bath, spec)
    g_an = ce_fisher_metric(energy, [0.0], bath, spec, grad_theta=grad)
    assert g_fd == pytest.approx(g_an, rel=1e-6)
    assert g_an[0, 0] == pytest.approx(1.0, rel=1e-10)


# -------------------------------------------------------------- upper bounds

def test_ce_upper_bound_zero_for_diagonal_hessian():
    h = QuadraticHamiltonian(1, [0.0, 0.0], np.diag([1.0, 2.0]))
    fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
    assert ce_upper_bound(h, HeatBath(1.0), fs) < 1e-10


def test_ce_upper_bound_two_path_oscillator():
    # with sigma_c^2 = 1/(2 pi) the closed-form envelope and the maximizer
    # bound coincide exactly
    kB, T0 = 1.0, 1.0
    omega = math.sqrt(2.0 * math.pi)
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=omega, omega2=omega, T0=T0,
                       r=math.sqrt(0.5))
    T = T0 / 2.0
    bath = HeatBath(T, kB)
    hess = np.array([
        [o.m1 * o.omega1**2, -o.r * math.sqrt(o.m1 * o.m2) * o.omega1 * o.omega2],
        [-o.r * math.sqrt(o.m1 * o.m2) * o.omega1 * o.omega2, o.m2 * o.omega2**2],
    ])
    h = QuadraticHamiltonian(1, [o.q10, 0.0], hess)
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


def test_oscillator_reduce_parameters():
    o = OscillatorPair(m1=2.0, m2=0.5, omega1=1.5, omega2=3.0, T0=2.0, r=0.4, q10=0.9)
    bath = HeatBath(1.0, kB=1.0)
    params = oscillator_reduce(o, bath)
    assert params.mu_x == pytest.approx(0.9)
    assert params.sigma == pytest.approx(math.sqrt(2.0 / (2.0 * 1.5**2)))
    assert params.sigma_c == pytest.approx(o.sigma_c(1.0))
    assert params.r == pytest.approx(math.sqrt(1.0 - 0.5))
    neg = OscillatorPair(m1=2.0, m2=0.5, omega1=1.5, omega2=3.0, T0=2.0, r=-0.4)
    assert oscillator_reduce(neg, bath).r < 0.0


def test_oscillator_reduce_rejects_high_temperature():
    o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.2)
    with pytest.raises(TemperatureRangeError):
        oscillator_reduce(o, HeatBath(1.5))


def test_reduced_density_matches_position_marginal():
    # integrating the canonical density over momenta leaves the correlated model
    kB, T0 = 1.0, 1.0
    r = math.sqrt(0.5)
    o = OscillatorPair(m1=1.0, m2=2.0, omega1=1.0, omega2=0.7, T0=T0, r=r, q10=0.3)
    T = T0 * (1.0 - r**2)
    bath = HeatBath(T, kB)
    params = oscillator_reduce(o, bath)
    h = QuadraticHamiltonian(2, [o.q10, 0.0, 0.0, 0.0],
                             hessian_of_energy(o.energy, [o.q10, 0.0, 0.0, 0.0]))
    gauss = canonical_to_gaussian(h, bath)
    # position block of the full canonical covariance vs model covariance
    assert np.abs(gauss.covariance[:2, :2] - params.covariance()).max() < 1e-6


def test_temperature_to_tau():
    assert temperature_to_tau(0.5, 1.0) == pytest.approx(2.0)
    assert temperature_to_tau(0.999999, 1.0) > 9.9e5
    with pytest.raises(TemperatureRangeError):
        temperature_to_tau(1.0, 1.0)
    with pytest.raises(TemperatureRangeError):
        temperature_to_tau(-0.5, 1.0)


def test_oscillator_curvature_values():
    assert oscillator_curvature(1.0, 1.0) == pytest.approx(-0.5)
    assert oscillator_curvature(0.0, 1.0) == 0.0
    assert oscillator_curvature(0.5, 1.0) == pytest.approx(-0.25)
    with pytest.raises(TemperatureRangeError):
        oscillator_curvature(2.0, 1.0)


def test_curvature_routes_agree():
    # R = -T/(2 T0) equals R(r_eff) = -(1 - r_eff^2)/2 with 1 - r_eff^2 = T/T0
    for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
        r_eff = effective_correlation(ratio, 1.0)
        assert abs(curvature_2d_closed(r_eff) - oscillator_curvature(ratio, 1.0)) < 1e-12


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


# ----------------------------------------------------------------- 2x2 matrices

def test_goe_joint_factorizes_at_zero_correlation():
    model = goe_model(0.0, 1.0, 0.0, 1.0)
    reduced = model.reduced
    p1, p2 = marginals_2d(reduced)
    grid = np.linspace(-4.0, 4.0, 21)
    H11, H22, H12, H21 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    joint = model.joint_pdf(H11, H22, H12, H21)
    s = model.off_diag_sigma
    gauss = lambda v: np.exp(-(v**2) / (2 * s**2)) / math.sqrt(2 * math.pi * s**2)
    product = p1.pdf(H11) * p2.pdf(H22) * gauss(H12) * gauss(H21)
    assert np.abs(joint - product).max() < 1e-12


def test_goe_joint_normalizes():
    model = goe_model(0.3, 1.2, 0.5, 1.0)
    total = integrate(model.joint_density, model.integration_spec(order=20))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_goe_marginalization_reproduces_reduced_density():
    model = goe_model(0.2, 1.0, 0.4, 1.1)
    reduced = model.reduced
    s = model.off_diag_sigma
    off_spec = IntegrationSpec.axes([0.0, 0.0], [s, s], 48)
    grid = np.linspace(-3.0, 3.0, 7)
    for h11 in 0.2 + grid:
        for h22 in grid * reduced.sigma_y:
            marg = integrate(
                lambda x: model.joint_pdf(h11, h22, x[0], x[1]), off_spec
            )
            assert marg == pytest.approx(pdf_2d(h11, h22, reduced), abs=1e-6)


def test_goe_curvature():
    assert goe_model(0.0, 1.0, 0.0, 1.0).curvature() == pytest.approx(-0.5)
    assert goe_model(0.0, 1.0, 0.99, 1.0).curvature() == pytest.approx(
        curvature_2d_closed(0.99)
    )
    rs = np.linspace(0.0, 0.99, 12)
    curv = [goe_model(0.0, 1.0, r, 1.0).curvature() for r in rs]
    assert all(b > a for a, b in zip(curv, curv[1:]))


def test_goe_rejects_degenerate_correlation():
    with pytest.raises(Exception):
        goe_model(0.0, 1.0, 1.0, 1.0)
