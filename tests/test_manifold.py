import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statmanifold import manifold, quadrature
from statmanifold import (
    Correlated2DParams,
    DomainError,
    GeodesicState,
    HalfPlane,
    MetricField,
    MultivariateGaussian,
    NonPositiveDefiniteError,
    NumericalError,
    ParameterDomain,
    SingularMetricError,
    christoffel,
    correlated_2d_family,
    fisher_metric,
    geodesic_integrate,
    geometry_report,
    inverse_metric,
    metric_derivatives,
    metric_speed,
    mvn_pdf,
    pdf_2d,
    ricci,
    riemann,
    scalar_curvature,
)

from gaussians import univariate_gaussian_family

HALF_PLANE = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])


def closed_form_field(r: float) -> MetricField:
    return MetricField.from_function(2, HalfPlane.correlated(r).metric, domain=HALF_PLANE)


# ---------------------------------------------------------------- fisher metric

def test_fisher_metric_correlated_model_sigma1():
    fam = correlated_2d_family(0.0)
    g = fisher_metric(fam, [0.0, 1.0])
    assert g == pytest.approx(np.diag([1.0, 4.0]), abs=1e-10)


def test_fisher_metric_correlated_model_sigma2():
    fam = correlated_2d_family(0.0)
    g = fisher_metric(fam, [0.0, 2.0])
    assert g == pytest.approx(np.diag([0.25, 1.0]), abs=1e-10)


def test_fisher_metric_univariate_gaussian():
    # analytic integral of the score outer product gives diag(1, 2)/sigma^2
    fam = univariate_gaussian_family()
    g = fisher_metric(fam, [0.0, 1.0])
    assert g == pytest.approx(np.diag([1.0, 2.0]), abs=1e-10)
    g2 = fisher_metric(fam, [0.5, 2.0])
    assert g2 == pytest.approx(np.diag([0.25, 0.5]), abs=1e-10)


# The cross-check of the closed form sums the score's outer product over a
# Gauss-Hermite rule.  The integrand is a polynomial of degree 4 in whitened
# coordinates, so the sum is exact when the rule's moment table of degree 4
# is the Gaussian's (Isserlis' theorem).  The next tests check that of
# quadrature.integrate: at every order from 3 on, and not at order 2.  The
# rule is a tensor product, so the table is a product of 1-D moments, which
# one more test holds to the sum over the full d-dimensional rule.

def _monomials(d):
    """phi = (1, z_a, z_a z_b for a <= b) as tuples of axis indices."""
    return [()] + [(a,) for a in range(d)] + [(a, b) for a in range(d) for b in range(a, d)]


def _isserlis(axes):
    """E[z_i1 ... z_ik] for a standard normal z: the sum over pairings of products of deltas."""
    if not axes:
        return 1.0
    first, rest = axes[0], axes[1:]
    return sum(_isserlis(rest[:j] + rest[j + 1:]) for j, b in enumerate(rest) if b == first)


def _rule_table(d, order):
    """M = sum_nodes w phi phi^T of the standard d-dimensional rule of ``order``, by integrate."""
    a, b = np.triu_indices(d)
    spec = quadrature.IntegrationSpec(np.zeros(d), np.eye(d), order)
    density = lambda z: np.exp(-0.5 * (z * z).sum(axis=0)) / (2.0 * np.pi) ** (0.5 * d)
    phi = lambda z: (np.vstack([np.ones((1, z.shape[1])), z, z[a] * z[b]]), density(z))
    return quadrature.integrate(phi, spec)


def _product_table(d, order):
    """The same table as products over axes of the 1-D moments E[z^k], k <= 4."""
    one = _rule_table(1, order)  # rows and columns (1, z, z^2)
    mk = np.array([one[0, 0], one[0, 1], one[0, 2], one[1, 2], one[2, 2]])
    a, b = np.triu_indices(d)
    eye = np.eye(d, dtype=int)
    powers = np.vstack([np.zeros((1, d), dtype=int), eye, eye[a] + eye[b]])
    return mk[powers[:, None] + powers[None]].prod(axis=-1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [3, 4, 7, 20, 32, 64])
def test_moment_tables_are_the_gaussian_moments(d, order):
    # at d = 1 the 1-D moments E[z^k], k = 0..4: 1, 0, 1, 0, 3
    phi = _monomials(d)
    expected = np.array([[_isserlis(a + b) for b in phi] for a in phi])
    assert np.abs(_product_table(d, order) - expected).max() <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 5])
def test_moment_table_is_the_sum_over_the_full_rule(d, order):
    assert np.abs(_product_table(d, order) - _rule_table(d, order)).max() <= 1e-14


def test_order_2_table_reads_1_for_the_fourth_moment():
    # two nodes per axis are exact to degree 3 only: E[z^4] = 1, not 3
    d = 3
    phi = _monomials(d)
    expected = np.array([[_isserlis(a + b) for b in phi] for a in phi])
    fourth = np.array([[len(set(a + b)) == 1 and len(a + b) == 4 for b in phi] for a in phi])
    table = _product_table(d, 2)
    assert np.abs(table[fourth] - 1.0).max() <= 1e-14
    assert np.array_equal(expected[fourth], np.full(d, 3.0))
    assert np.abs(table - expected)[~fourth].max() <= 1e-14


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_fisher_matches_closed_form_on_grid(sigma, r):
    fam = correlated_2d_family(r)
    g = fisher_metric(fam, [0.3, sigma])
    expected = HalfPlane.correlated(r).metric([0.3, sigma])
    assert np.abs(g - expected).max() < 1e-6
    # symmetric positive definite
    assert np.allclose(g, g.T)
    assert np.min(np.linalg.eigvalsh(g)) > 0.0


def _random_family(d, m, seed):
    """A random family over R^d with an m-dimensional macrospace, and a theta."""
    # mu = mu0 + theta M and Sigma = A A^T + I with A linear in theta: both derivatives vary
    rng = np.random.default_rng(seed)
    mu0, M = rng.normal(size=d), rng.normal(size=(m, d))
    A0, dA = rng.normal(size=(d, d)), rng.normal(size=(m, d, d))

    def moments(theta):
        A = A0 + np.tensordot(theta, dA, axes=1)
        d_cov = dA @ A.T + A @ dA.transpose(0, 2, 1)
        return mu0 + theta @ M, A @ A.T + np.eye(d), M, d_cov

    return manifold.ModelFamily(moments, ParameterDomain(m)), rng.normal(size=m)


def _node_sum_metric(fam, theta, order=8):
    """The definition E[score score^T], summed over the family's whitened rule of ``order``.

    The score d_i log p = d_i mu^T S (x - mu) + (x - mu)^T S d_i Sigma S (x - mu) / 2
    - tr(S d_i Sigma) / 2, with S = Sigma^-1, is quadratic in x, so a rule of
    order 3 or more sums it exactly (the moment-table tests above).
    """
    mean, cov, d_mean, d_cov = fam.moments(np.asarray(theta, dtype=float))
    inv = np.linalg.inv(cov)
    joint = MultivariateGaussian(mean, cov)

    def integrand(x):
        y = inv @ (x - mean[:, None])
        score = (d_mean @ y + 0.5 * np.einsum("ak,iab,bk->ik", y, d_cov, y)
                 - 0.5 * np.einsum("ab,iba->i", inv, d_cov)[:, None])
        return score, mvn_pdf(x, joint)

    return quadrature.integrate(integrand, quadrature.IntegrationSpec.for_gaussian(mean, cov, order))


def test_fisher_metric_matches_skovgaard_formula():
    # the closed form against the node sum of its definition on 300 random 2-4-D families
    rng = np.random.default_rng(1984)
    worst = 0.0
    for seed in range(300):
        fam, theta = _random_family(int(rng.integers(2, 5)), int(rng.integers(2, 4)), seed)
        expected = _node_sum_metric(fam, theta)
        worst = max(worst, np.abs(fisher_metric(fam, theta) - expected).max() / np.abs(expected).max())
    assert worst <= 1e-12


def _reparameterized(fam, phi, jac):
    """``fam`` over theta', where theta = phi(theta') with Jacobian J = jac(theta')."""
    def moments(theta):
        mean, cov, d_mean, d_cov = fam.moments(phi(theta))
        j = jac(theta)
        return mean, cov, j.T @ d_mean, np.tensordot(j.T, d_cov, axes=1)

    return manifold.ModelFamily(moments, fam.domain)


def _affine_image(fam, a, b):
    """``fam`` for the microvariables A x + b: mean A mu + b, covariance A Sigma A^T."""
    def moments(theta):
        mean, cov, d_mean, d_cov = fam.moments(theta)
        return a @ mean + b, a @ cov @ a.T, d_mean @ a.T, a @ d_cov @ a.T

    return manifold.ModelFamily(moments, fam.domain)


def test_fisher_metric_transforms_as_a_tensor_under_a_change_of_chart():
    # g' = J^T g J for theta = theta0 + B sinh(theta'), a nonlinear chart, on 300
    # random 2-4-D families
    rng = np.random.default_rng(1982)
    worst = 0.0
    for seed in range(300):
        fam, theta = _random_family(int(rng.integers(2, 5)), int(rng.integers(2, 4)), seed)
        m = theta.size
        mix, prime = rng.normal(size=(m, m)) + m * np.eye(m), rng.normal(scale=0.5, size=m)
        theta0 = theta - mix @ np.sinh(prime)  # so that phi(prime) = theta

        def jac(tp):
            return mix * np.cosh(tp)  # B diag(cosh(theta'))

        chart = _reparameterized(fam, lambda tp: theta0 + mix @ np.sinh(tp), jac)
        expected = jac(prime).T @ fisher_metric(fam, theta) @ jac(prime)
        worst = max(worst, np.abs(fisher_metric(chart, prime) - expected).max()
                    / np.abs(expected).max())
    assert worst <= 1e-12


def test_fisher_metric_is_unchanged_by_an_affine_map_of_the_microvariables():
    # mu -> A mu + b, Sigma -> A Sigma A^T on 300 random 2-4-D families.  A =
    # c Q1 diag(s) Q2 with s in [1/2, 2], since rounding grows as cond(A)^2: a
    # normal A + d I of cond 420 moved g by 3.4e-11
    rng = np.random.default_rng(1983)
    worst = 0.0
    for seed in range(300):
        d = int(rng.integers(2, 5))
        fam, theta = _random_family(d, int(rng.integers(2, 4)), seed)
        q1, q2 = (np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(2))
        a = 10.0 ** rng.uniform(-3.0, 3.0) * (q1 * 2.0 ** rng.uniform(-1.0, 1.0, d)) @ q2
        b = rng.normal(size=d)
        expected = fisher_metric(fam, theta)
        worst = max(worst, np.abs(fisher_metric(_affine_image(fam, a, b), theta) - expected).max()
                    / np.abs(expected).max())
    assert worst <= 1e-12


def _density(fam, x, theta):
    """N(mu, Sigma) at the points x (2, k), from the family's moments at theta."""
    mean, cov, _, _ = fam.moments(np.asarray(theta, dtype=float))
    return mvn_pdf(x, MultivariateGaussian(mean, cov))


def test_parameterization_is_injective_spot_check():
    fam = correlated_2d_family(0.3)
    probe = np.stack([np.linspace(-3, 3, 31), np.linspace(-3, 3, 31)])
    p_a = _density(fam, probe, [0.0, 1.0])
    p_b = _density(fam, probe, [0.1, 1.0])
    p_c = _density(fam, probe, [0.0, 1.1])
    assert np.max(np.abs(p_a - p_b)) > 1e-4
    assert np.max(np.abs(p_a - p_c)) > 1e-4
    # the derived density is the paper's formula within 6 whitened standard deviations
    rng = np.random.default_rng(3)
    for _ in range(300):
        r, sigma_c = rng.uniform(-0.95, 0.95), 10.0 ** rng.uniform(-1, 1)
        params = Correlated2DParams(rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2), r, sigma_c)
        z = rng.uniform(-6.0, 6.0, (2, 200))
        x = np.array([[params.mu_x], [0.0]]) + np.linalg.cholesky(params.covariance()) @ z
        derived = _density(correlated_2d_family(r, sigma_c), x, [params.mu_x, params.sigma])
        assert derived == pytest.approx(pdf_2d(x[0], x[1], params), rel=1e-12)


def test_fisher_metric_domain_violation():
    fam = correlated_2d_family(0.0)
    with pytest.raises(DomainError):
        fisher_metric(fam, [0.0, -1.0])
    with pytest.raises(DomainError):
        fisher_metric(fam, [0.0, 1.0, 2.0])


# ---------------------------------------------------------- metric derivatives

def test_metric_field_takes_its_dimension_from_its_domain():
    box = ParameterDomain.box(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="got 3"):
        MetricField.from_function(2, lambda th: np.eye(2), domain=box)
    field = MetricField.from_function(3, lambda th: np.diag(1.0 + th), domain=box)
    assert "dim" not in {f.name for f in dataclasses.fields(MetricField)}
    assert christoffel(field, np.full(3, 0.5)).shape == (3, 3, 3)


def test_constant_metric_has_zero_derivatives():
    field = MetricField.from_function(2, lambda th: np.diag([2.0, 3.0]))
    d1 = metric_derivatives(field, [0.5, 0.5], 1)
    assert np.abs(d1).max() < 1e-9


def test_closed_form_first_derivative():
    # d g_11 / d sigma = -2/sigma^3 at sigma=1, r=0
    field = closed_form_field(0.0)
    d1 = metric_derivatives(field, [0.0, 1.0], 1)
    assert d1[0, 0, 1] == pytest.approx(-2.0, rel=1e-8)


def test_polynomial_metric_derivative():
    field = MetricField.from_function(2, lambda th: np.diag([th[0] ** 2, 1.0]))
    d1 = metric_derivatives(field, [3.0, 0.0], 1)
    assert d1[0, 0, 0] == pytest.approx(6.0, rel=1e-8)


def test_analytic_derivative_override():
    marker = np.full((2, 2, 2), 7.0)
    field = MetricField.from_function(2, lambda th: np.eye(2), d1=lambda th: marker)
    assert np.array_equal(metric_derivatives(field, [0.0, 0.0], 1), marker)


DOMAINS = {
    "box": ParameterDomain.box([-1.0, 0.0, -np.inf], [1.0, np.inf, 2.0]),
    "lower bound only": ParameterDomain(3, lower=[-1.0, 0.0, -np.inf]),
    "unbounded": ParameterDomain(3),
}
COORDINATES = st.one_of(st.floats(-3.0, 3.0),
                        st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 1.0, 2.0]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)),
       st.lists(st.lists(COORDINATES, min_size=3, max_size=3), min_size=0, max_size=6))
def test_contains_batch_equals_every_row(name, rows):
    domain = DOMAINS[name]
    batch = np.array(rows, dtype=float).reshape(len(rows), 3)
    assert domain.contains(batch) == all(domain.contains(row) for row in batch)


@pytest.mark.parametrize("shape", [(), (1,), (2,), (4,), (3, 2), (3, 4), (2, 2, 3), (1, 1, 3)])
def test_contains_rejects_wrong_shapes(shape):
    for domain in DOMAINS.values():
        assert not domain.contains(np.full(shape, 0.5))
    assert DOMAINS["box"].contains(np.full((2, 3), 0.5))


@pytest.mark.parametrize("lower, upper, match", [
    ([0.0, 0.0], [1.0], "upper bound must hold 2 numbers"),
    ([1.0, 0.0], [0.0, 1.0], "empty domain"),
    ([0.0, 0.0], [1.0, 0.0], "empty domain"),
    ([np.nan, 0.0], [1.0, 1.0], "lower bound .* no NaN"),
    ([[0.0, 0.0]], [[1.0, 1.0]], "lower bound must hold 1 numbers"),
])
def test_domain_checks_its_bounds(lower, upper, match, monkeypatch):
    # the benchmark counts contains calls, so building a domain must not make one
    monkeypatch.setattr(ParameterDomain, "contains", lambda self, theta: pytest.fail("called"))
    with pytest.raises(ValueError, match=match):
        ParameterDomain.box(lower, upper)
    with pytest.raises(ValueError, match=match):
        ParameterDomain(len(lower), lower, upper)
    with pytest.raises(ValueError, match="upper bound must hold 3 numbers"):
        ParameterDomain(3, upper=[1.0, 2.0])
    domain = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])
    assert domain.lower.dtype == float and domain.upper.shape == (2,)


def test_stencil_domain_check():
    field = closed_form_field(0.0)
    with pytest.raises(DomainError):
        metric_derivatives(field, [0.0, 1e-7], 1)
    with pytest.raises(DomainError, match="exits the domain at coordinate 1$"):
        metric_derivatives(field, [0.0, 1e-7], 2)
    with pytest.raises(ValueError):
        metric_derivatives(field, [0.0, 1.0], 3)


def test_second_derivatives_near_the_boundary_use_only_evaluated_points():
    # theta_2 - h lies inside the half-plane and theta_2 - 2h does not; the
    # order-2 stencil evaluates no point beyond one step, so it must not ask
    def g(theta):
        t1, t2 = theta
        return np.array([[1.0 + t2 * t2, t1 * t2], [t1 * t2, 1.0 + t1 * t1]])

    field = MetricField.from_function(2, g, domain=HALF_PLANE)
    d2 = metric_derivatives(field, [0.3, 1.5e-5], 2)
    expected = np.zeros((2, 2, 2, 2))
    expected[0, 0, 1, 1] = expected[1, 1, 0, 0] = 2.0
    expected[0, 1, 0, 1] = expected[0, 1, 1, 0] = expected[1, 0, 0, 1] = expected[1, 0, 1, 0] = 1.0
    assert np.abs(d2 - expected).max() < 1e-4


# ----------------------------------------------------------------- christoffel

def test_christoffel_flat_metric_vanishes():
    field = MetricField.from_function(2, lambda th: np.eye(2))
    assert np.abs(christoffel(field, [0.0, 0.0])).max() < 1e-9


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_christoffel_closed_model_sigma1(r):
    gam = christoffel(closed_form_field(r), [0.0, 1.0])
    assert gam[0, 0, 1] == pytest.approx(-1.0, rel=1e-7)
    assert gam[0, 1, 0] == pytest.approx(-1.0, rel=1e-7)
    assert gam[1, 0, 0] == pytest.approx(0.25, rel=1e-7)
    assert gam[1, 1, 1] == pytest.approx(-1.0, rel=1e-7)
    # remaining components vanish
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[0, 0, 1] = mask[0, 1, 0] = mask[1, 0, 0] = mask[1, 1, 1] = False
    assert np.abs(gam[mask]).max() < 1e-7


def test_christoffel_closed_model_sigma2():
    gam = christoffel(closed_form_field(0.0), [0.0, 2.0])
    assert gam[0, 0, 1] == pytest.approx(-0.5, rel=1e-7)
    assert gam[1, 0, 0] == pytest.approx(0.125, rel=1e-7)
    assert gam[1, 1, 1] == pytest.approx(-0.5, rel=1e-7)


def test_christoffel_torsion_free_symmetry():
    gam = christoffel(closed_form_field(0.4), [0.7, 1.3])
    assert np.abs(gam - gam.transpose(0, 2, 1)).max() < 1e-10


def _two_pass_christoffel(field, theta):
    """The connection from metric_derivatives(., 1) and a separate field(theta): the reference."""
    d1 = metric_derivatives(field, theta, 1)
    gi = inverse_metric(field(theta))
    return 0.5 * np.einsum("km,mij->kij", gi, d1 + d1.transpose(0, 2, 1) - d1.transpose(2, 0, 1))


def _random_field(m, seed, kind):
    """A random m-dimensional field over (-2, 2)^m and a theta well inside."""
    rng = np.random.default_rng(seed)
    box = ParameterDomain.box(np.full(m, -2.0), np.full(m, 2.0))
    theta = rng.uniform(-1.0, 1.0, m)
    if kind == "from_model":
        fam, _ = _random_family(int(rng.integers(2, 5)), m, seed)
        return MetricField.from_model(dataclasses.replace(fam, domain=box)), theta
    A0, dA = rng.normal(size=(m, m)), rng.normal(size=(m, m, m))

    def g(th):
        A = A0 + np.tensordot(np.sin(th), dA, axes=1)
        return A @ A.T + np.eye(m)

    return MetricField.from_function(m, g, domain=box), theta


def _count_requests(monkeypatch):
    """Lists that collect each MetricField.__call__ theta and each ParameterDomain.contains argument."""
    requests, checks = [], []
    call, contains = MetricField.__call__, ParameterDomain.contains
    monkeypatch.setattr(MetricField, "__call__", lambda self, th: requests.append(th) or call(self, th))
    monkeypatch.setattr(ParameterDomain, "contains", lambda self, th: checks.append(th) or contains(self, th))
    return requests, checks


@pytest.mark.parametrize("kind", ["from_function", "from_model"])
@pytest.mark.parametrize("seed", range(8))
def test_christoffel_sweep_is_the_two_pass_connection(kind, seed, monkeypatch):
    # the connection is the first-order stencil of 2m rows plus a separate g(theta)
    m = 2 + seed % 3
    field, theta = _random_field(m, seed, kind)
    expected = _two_pass_christoffel(field, theta)
    field, theta = _random_field(m, seed, kind)  # a fresh cache for the from_model field
    requests, checks = _count_requests(monkeypatch)
    gam = christoffel(field, theta)
    assert gam.tobytes() == expected.tobytes()
    assert len(requests) == 2 * m + 1 and np.array_equal(requests[-1], theta)
    # one check of the whole stencil; a from_model field checks each request before
    # it reads the moments, and fisher_metric checks again on a miss: every request
    # here, since the random family's Sigma moves with every coordinate
    assert [np.shape(c) for c in checks if np.ndim(c) == 2] == [(2 * m, m)]
    assert len(checks) == 1 + (2 * (2 * m + 1) if kind == "from_model" else 0)


@pytest.mark.parametrize("kind", ["from_function", "from_model"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_christoffel_sweep_keeps_the_domain_errors(kind, m, monkeypatch):
    field, _ = _random_field(m, m, kind)
    cases = {  # theta: the start of the message
        (2.5,) * m: "theta [",
        (0.0,) * (m - 1) + (2.0 - 5e-6,): f"finite-difference stencil exits the domain at coordinate {m - 1}",
        (-2.0,) + (0.0,) * (m - 1): "theta [",  # theta and its stencil both outside
        (0.0,) * (m + 1): "theta has shape",
    }
    for theta, start in cases.items():
        with pytest.raises(DomainError) as reference:
            _two_pass_christoffel(field, theta)
        requests, _ = _count_requests(monkeypatch)
        with pytest.raises(DomainError) as raised:
            christoffel(field, theta)
        monkeypatch.undo()
        assert str(raised.value) == str(reference.value) and str(raised.value).startswith(start)
        assert requests == []  # raised before the metric was evaluated anywhere


def _spd(dim, log_cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = 10.0 ** np.linspace(0.0, log_cond, dim) * 10.0 ** rng.uniform(-3.0, 3.0)
    g = (q * eig) @ q.T
    return 0.5 * (g + g.T)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
def test_inverse_metric_matches_inv(dim, log_cond, seed):
    g = _spd(dim, log_cond, seed)
    expected = np.linalg.inv(g)
    bound = 100.0 * np.linalg.cond(g) * np.finfo(float).eps * np.abs(expected).max()
    assert np.abs(inverse_metric(g) - expected).max() <= bound


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_inverse_metric_rejects_ill_conditioned_and_indefinite(dim):
    with pytest.raises(SingularMetricError, match="condition number"):
        inverse_metric(_spd(dim, 12.5, dim))
    q, _ = np.linalg.qr(np.random.default_rng(dim).normal(size=(dim, dim)))
    for smallest in (-1e-3, -1.0):
        eig = np.linspace(1.0, 2.0, dim)
        eig[0] = smallest
        with pytest.raises(SingularMetricError, match="not positive definite"):
            inverse_metric((q * eig) @ q.T)
    # rotated, a zero eigenvalue rounds to either sign: one message or the other
    eig = np.linspace(1.0, 2.0, dim)
    eig[0] = 0.0
    with pytest.raises(SingularMetricError):
        inverse_metric((q * eig) @ q.T)
    with pytest.raises(SingularMetricError, match="not positive definite"):
        inverse_metric(np.diag(eig))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_inverse_metric_rejects_a_non_finite_metric(entry):
    # NaN failed both eig[0] <= 0 and cond > COND_LIMIT, so an all-NaN inverse came back
    with pytest.raises(SingularMetricError):
        inverse_metric(np.array([[entry, 0.0], [0.0, 1.0]]))


def test_singular_metric_rejected():
    field = MetricField.from_function(2, lambda th: np.diag([1.0, 1e-14]))
    with pytest.raises(SingularMetricError):
        christoffel(field, [0.0, 0.0])
    with pytest.raises(SingularMetricError):
        inverse_metric(np.diag([1.0, -1.0]))


# -------------------------------------------------------------------- riemann

def test_riemann_flat_metric_vanishes():
    field = MetricField.from_function(2, lambda th: np.diag([2.0, 5.0]))
    assert np.abs(riemann(field, [0.1, 0.2])).max() < 1e-8


def test_riemann_independent_component_matches_scalar():
    # in 2 dimensions R = 2 R_1212 / det(g)
    field = closed_form_field(0.0)
    theta = [0.0, 1.0]
    rie = riemann(field, theta)
    g = field(np.asarray(theta, dtype=float))
    assert 2.0 * rie[0, 1, 0, 1] / np.linalg.det(g) == pytest.approx(-0.5, rel=1e-6)


def test_riemann_antisymmetry_first_pair():
    field = closed_form_field(0.6)
    rie = riemann(field, [0.5, 0.8])
    assert np.abs(rie + rie.transpose(1, 0, 2, 3)).max() < 1e-8


# --------------------------------------------------------------- ricci, scalar

def test_ricci_closed_model():
    field = closed_form_field(0.0)
    for sigma in (1.0, 2.0):
        ric = ricci(field, [0.0, sigma])
        assert ric == pytest.approx(HalfPlane.correlated(0.0).ricci([0.0, sigma]), abs=5e-6)


def test_ricci_from_warped_diagonal_field():
    # the closed Ricci values follow from the metric diag(1, 4)/theta2^2 alone
    field = MetricField.from_function(
        2, lambda th: np.diag([1.0 / th[1] ** 2, 4.0 / th[1] ** 2]), domain=HALF_PLANE
    )
    ric = ricci(field, [0.0, 1.5])
    assert ric == pytest.approx(HalfPlane(0.25).ricci([0.0, 1.5]), abs=5e-6)
    assert np.abs(ric - ric.T).max() < 1e-10


@pytest.mark.parametrize("r,expected", [(0.0, -0.5), (0.6, -0.32)])
def test_scalar_curvature_closed_model(r, expected):
    assert scalar_curvature(closed_form_field(r), [0.0, 1.0]) == pytest.approx(
        expected, abs=5e-6
    )


@pytest.mark.parametrize("sigma,r", [(0.5, -0.5), (1.0, 0.0), (2.0, 0.9)])
def test_quadrature_pipeline_matches_closed_forms(sigma, r):
    field = MetricField.from_model(correlated_2d_family(r))
    rep = geometry_report(field, [0.3, sigma])
    assert rep.christoffel[0, 0, 1] == pytest.approx(-1.0 / sigma, abs=1e-4)
    assert rep.christoffel[1, 0, 0] == pytest.approx(0.25 / sigma, abs=1e-4)
    assert rep.christoffel[1, 1, 1] == pytest.approx(-1.0 / sigma, abs=1e-4)
    plane = HalfPlane.correlated(r)
    assert np.abs(rep.ricci - plane.ricci([0.3, sigma])).max() < 1e-4
    assert rep.scalar == pytest.approx(plane.scalar_curvature, abs=1e-4)


@pytest.mark.parametrize("r", [0.0, 0.6, 0.95])
def test_curvature_raises_where_the_step_is_coarse_against_sigma(r):
    # on the slice the metric changes by 2h/sigma across the step h = 1e-5, which reaches
    # FD_MAX_REL_CHANGE = 1e-2 at sigma = 2e-3; R's relative error is about 0.75 (2h/sigma)^2
    field = MetricField.from_model(correlated_2d_family(r))
    for sigma in (2e-5, 1e-4, 1e-3, 1.9e-3):
        with pytest.raises(NumericalError, match="FD_MAX_REL_CHANGE"):
            scalar_curvature(field, [0.0, sigma])
    for sigma in (2.1e-3, 1e-2, 1.0, 1e3):
        assert scalar_curvature(field, [0.0, sigma]) == pytest.approx(
            HalfPlane.correlated(r).scalar_curvature, rel=1e-4)


# ------------------------------------------------------- per-field metric cache

def _count_fisher_calls(monkeypatch):
    calls = []
    original = manifold.fisher_metric

    def counted(*args, **kwargs):
        calls.append(np.array(args[1], dtype=float))
        return original(*args, **kwargs)

    monkeypatch.setattr(manifold, "fisher_metric", counted)
    return calls


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("r,theta", [(-0.7, [0.0, 0.5]), (0.0, [0.3, 1.7]), (0.6, [-1.2, 20.0]),
                                     (0.9, [0.0, 0.05])])
def test_cached_field_equals_uncached_field(bits, r, theta):
    # the cache keys on the bytes of the moments at theta after its cast to float64, so
    # a float32 theta must reach the same metric as the uncached field
    _assert_cached_field_is_uncached(correlated_2d_family(r), np.asarray(theta, dtype=f"float{bits}"))


@pytest.mark.parametrize("seed", range(6))
def test_cached_field_equals_uncached_field_off_the_slice(seed):
    # random 2-4-D families, whose Sigma moves with every coordinate, and the
    # (mu, log sigma) chart of the correlated model
    rng = np.random.default_rng(seed)
    fam, theta = _random_family(int(rng.integers(2, 5)), 2 + seed % 3, seed)
    _assert_cached_field_is_uncached(fam, theta)
    log_chart = dataclasses.replace(
        _reparameterized(correlated_2d_family(rng.uniform(-0.9, 0.9)),
                         lambda t: np.array([t[0], np.exp(t[1])]), lambda t: np.diag([1.0, np.exp(t[1])])),
        domain=ParameterDomain(2))
    _assert_cached_field_is_uncached(log_chart, rng.normal(size=2))


def _mean_bent_in_mu(theta):
    # d mu moves with mu while Sigma and d Sigma do not
    return (np.array([theta[0] + 0.5 * theta[0] ** 2, 0.0]), np.diag([np.exp(theta[1]), 1.0]),
            np.array([[1.0 + theta[0], 0.0], [0.0, 0.0]]),
            np.array([np.zeros((2, 2)), np.diag([np.exp(theta[1]), 0.0])]))


def _sigma_even_in_mu(theta):
    # Sigma and d mu are the same at mu = ±h, d Sigma is not
    s = np.exp(theta[1]) * (1.0 + theta[0] ** 2)
    return (theta.copy(), np.diag([s, 1.0]), np.eye(2),
            np.array([np.diag([2.0 * theta[0] * np.exp(theta[1]), 0.0]), np.diag([s, 0.0])]))


@pytest.mark.parametrize("moments", [_mean_bent_in_mu, _sigma_even_in_mu])
def test_cached_field_keys_on_every_moment_the_metric_reads(moments):
    # around mu = 0 two stencil rows share all but one of Sigma, d mu and d Sigma
    _assert_cached_field_is_uncached(manifold.ModelFamily(moments, ParameterDomain(2)),
                                     np.array([0.0, 0.3]))


def _assert_cached_field_is_uncached(fam, theta):
    m = fam.domain.dim
    plain = MetricField.from_function(m, lambda th: fisher_metric(fam, th), domain=fam.domain)
    assert np.array_equal(MetricField.from_model(fam)(theta), plain(theta))
    assert scalar_curvature(MetricField.from_model(fam), theta) == scalar_curvature(plain, theta)
    cached, uncached = geometry_report(MetricField.from_model(fam), theta), geometry_report(plain, theta)
    for name in ("christoffel", "riemann", "ricci"):
        assert np.array_equal(getattr(cached, name), getattr(uncached, name)), name
    assert cached.scalar == uncached.scalar


def test_curvature_computes_each_distinct_metric_once(monkeypatch):
    fisher_calls = _count_fisher_calls(monkeypatch)
    requests, _ = _count_requests(monkeypatch)
    scalar_curvature(MetricField.from_model(correlated_2d_family(0.3)), [0.2, 1.1])
    assert len(requests) == 17 and len({np.asarray(t).tobytes() for t in requests}) == 9
    # Skovgaard's form never reads mu, and on the slice Sigma, d mu and d Sigma depend
    # on sigma alone: the 1 + 2m^2 = 9 stencil points hold one metric per sigma
    assert len(fisher_calls) == 3
    assert len({t[1] for t in fisher_calls}) == 3
    # a family whose Sigma moves with every coordinate has 9 distinct metrics
    fisher_calls.clear()
    requests.clear()
    fam, theta = _random_family(3, 2, 11)
    scalar_curvature(MetricField.from_model(fam), theta)
    assert len(requests) == 17 and len(fisher_calls) == 9
    assert len({t.tobytes() for t in fisher_calls}) == 9


@pytest.mark.parametrize("kind", ["from_function", "from_model"])
def test_geometry_report_is_the_separate_results_from_15_requests(kind, monkeypatch):
    field, theta = _random_field(2, 7, kind)
    separate = (christoffel(field, theta), riemann(field, theta), ricci(field, theta),
                scalar_curvature(field, theta))
    field, theta = _random_field(2, 7, kind)  # a fresh cache for the from_model field
    requests, _ = _count_requests(monkeypatch)
    report = geometry_report(field, theta)
    assert len(requests) == 15  # g, the 2m + 1 connection rows, the 1 + 2m^2 stencil
    assert len({np.asarray(t).tobytes() for t in requests}) == 9
    for got, expected in zip((report.christoffel, report.riemann, report.ricci, report.scalar),
                             separate):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("r", [0.0, 0.6])
def test_scalar_curvature_does_not_depend_on_the_chart(r):
    # R is a scalar: the (mu, log sigma) chart and affine charts theta = A theta' + b
    # that keep sigma > 0 on a box (A upper triangular, A_22 > 0) must read the R of
    # the (mu, sigma) chart
    fam = correlated_2d_family(r)
    charts = [(dataclasses.replace(
        _reparameterized(fam, lambda t: np.array([t[0], np.exp(t[1])]),
                         lambda t: np.diag([1.0, np.exp(t[1])])), domain=ParameterDomain(2)),
        lambda theta: np.array([theta[0], np.log(theta[1])]))]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a = np.array([[rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), rng.normal()],
                      [0.0, rng.uniform(0.5, 2.0)]])
        b = rng.uniform(-1.0, 1.0, size=2)
        affine = dataclasses.replace(_reparameterized(fam, lambda t, a=a, b=b: a @ t + b,
                                                      lambda t, a=a: a),
                                     domain=ParameterDomain(2, lower=[-np.inf, -b[1] / a[1, 1]]))
        charts.append((affine, lambda theta, a=a, b=b: np.linalg.solve(a, theta - b)))
    for sigma in (1e-2, 0.1, 1.0, 10.0, 1e3):
        theta = np.array([0.3, sigma])
        expected = scalar_curvature(MetricField.from_model(fam), theta)
        for chart, to_chart in charts:
            got = scalar_curvature(MetricField.from_model(chart), to_chart(theta))
            assert got == pytest.approx(expected, rel=1e-5)


def test_metric_cache_holds_one_stencil(monkeypatch):
    fisher_calls = _count_fisher_calls(monkeypatch)
    field = MetricField.from_model(correlated_2d_family(0.3))
    points = [np.array([0.0, 1.0 + 0.1 * k]) for k in range(10)]
    for p in points:
        field(p)
    assert len(fisher_calls) == 10
    for p in points[1:]:  # the last 1 + 2m^2 = 9 are kept
        field(p)
    assert len(fisher_calls) == 10
    field(points[0])  # the oldest was dropped
    assert len(fisher_calls) == 11


def test_metric_cache_under_threads(monkeypatch):
    # a cheap stand-in for the metric, so nearly all the time is spent in the cache
    monkeypatch.setattr(manifold, "fisher_metric", lambda model, theta, **kw: theta[1] * np.eye(2))
    field = MetricField.from_model(correlated_2d_family(0.3))
    points = [np.array([0.0, 1.0 + k]) for k in range(40)]  # far more than one stencil
    errors = []

    def work(seed):
        try:
            for k in np.random.default_rng(seed).integers(0, len(points), 20000):
                if field.func(points[k])[1, 1] != points[k][1]:
                    errors.append(f"wrong metric at point {k}")
        except Exception as exc:  # reported by the assert below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]


def test_fields_of_different_models_share_no_metrics(monkeypatch):
    fisher_calls = _count_fisher_calls(monkeypatch)
    theta = [0.1, 0.9]
    low = MetricField.from_model(correlated_2d_family(0.2))
    high = MetricField.from_model(correlated_2d_family(0.7))
    g_low, g_high = low(theta), high(theta)
    assert len(fisher_calls) == 2
    assert np.array_equal(g_high, fisher_metric(correlated_2d_family(0.7), theta))
    assert not np.allclose(g_low, g_high)


def test_cached_metrics_are_read_only_and_calls_fresh():
    field = MetricField.from_model(correlated_2d_family(0.3))
    theta = np.array([0.0, 1.3])
    g = field(theta)
    assert g.flags.writeable
    expected = g.copy()
    g[0, 0] = 99.0
    assert np.array_equal(field(theta), expected)
    assert field(theta) is not field(theta)
    kept = field.func(theta)
    assert not kept.flags.writeable
    assert field.func(theta.copy()) is kept


def test_metric_outside_domain_raises_every_time(monkeypatch):
    fam = correlated_2d_family(0.3)
    with pytest.raises(DomainError) as reference:
        fisher_metric(fam, [0.0, -1.0])
    fisher_calls = _count_fisher_calls(monkeypatch)
    field = MetricField.from_model(fam)
    for _ in range(2):
        with pytest.raises(DomainError) as raised:
            field([0.0, -1.0])
        assert str(raised.value) == str(reference.value)
    assert fisher_calls == []  # the field checks the domain before it reads the moments
    # a theta whose metric raises is not kept either: the indefinite covariance raises twice
    indefinite = MetricField.from_model(type(fam)(
        lambda th: (np.zeros(2), np.diag([1.0, -th[1]]), np.eye(2), np.zeros((2, 2, 2))), fam.domain))
    for _ in range(2):
        with pytest.raises(NonPositiveDefiniteError, match="covariance"):
            indefinite([0.0, 1.0])
    assert len(fisher_calls) == 2


# ------------------------------------------------------------------- geodesics

def test_geodesic_flat_metric_is_straight_line():
    field = MetricField.from_function(2, lambda th: np.eye(2))
    init = GeodesicState(np.array([1.0, -2.0]), np.array([0.5, 2.0]), 0.0)
    res = geodesic_integrate(field, init, 2.0, 0.01)
    assert not res.exited_domain and res.exit_reason == "completed"
    end = res.states[-1]
    assert end.tau == pytest.approx(2.0)
    assert end.position == pytest.approx([2.0, 2.0], abs=1e-10)
    assert end.velocity == pytest.approx([0.5, 2.0], abs=1e-10)


def test_geodesic_preserves_vertical_line():
    # velocity purely along sigma keeps mu_x constant (translation symmetry)
    field = closed_form_field(0.0)
    init = GeodesicState(np.array([0.7, 1.0]), np.array([0.0, 0.25]), 0.0)
    res = geodesic_integrate(field, init, 5.0, 1e-3)
    mus = np.array([s.position[0] for s in res.states])
    assert np.abs(mus - 0.7).max() < 1e-12


def test_geodesic_conserves_metric_speed():
    field = closed_form_field(0.3)
    init = GeodesicState(np.array([0.0, 1.0]), np.array([0.4, 0.2]), 0.0)
    res = geodesic_integrate(field, init, 10.0, 1e-3)
    speeds = np.array([metric_speed(field, s) for s in res.states])
    assert np.abs(speeds - speeds[0]).max() / speeds[0] < 1e-6


def test_geodesic_reports_domain_exit():
    field = MetricField.from_function(
        2, lambda th: np.eye(2), domain=ParameterDomain.box([-1.0, -1.0], [1.0, 1.0])
    )
    init = GeodesicState(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.0)
    res = geodesic_integrate(field, init, 5.0, 0.01)
    assert res.exited_domain
    assert res.states[-1].position[0] < 1.0


def test_geodesic_exit_reasons():
    box = ParameterDomain.box([-1.0, -1.0], [1.0, 1.0])
    field = MetricField.from_function(2, lambda th: np.eye(2), domain=box)
    # the start lies inside, but its stencil reaches 1 - 5e-6 + 1e-5
    start = GeodesicState(np.array([1.0 - 5e-6, 0.0]), np.array([-1.0, 0.0]), 0.0)
    res = geodesic_integrate(field, start, 1.0, 0.01)
    assert res.exit_reason == "stencil_left_domain" and res.exited_domain
    assert len(res.states) == 1
    # the second stage of the first step lands on the boundary x = 1
    res = geodesic_integrate(field, GeodesicState(np.zeros(2), np.array([20.0, 0.0]), 0.0), 1.0, 0.1)
    assert res.exit_reason == "left_domain" and res.exited_domain
    assert len(res.states) == 1


def half_plane_geodesic(plane, theta0, v0, taus):
    """Closed-form geodesic of ``plane`` through theta0 with velocity v0.

    With u = mu / 2 the metric (dmu^2 / 4 + dsigma^2) / (k sigma^2) is
    (du^2 + dsigma^2) / (k sigma^2), a Poincare half-plane scaled by 1/k.  A
    geodesic that is not vertical is the semicircle u = c + rho tanh s,
    sigma = rho / cosh s, run at the hyperbolic speed omega = sqrt(k v.g.v):
    s = s0 ± omega tau.
    """
    u0, sigma0 = theta0[0] / 2.0, theta0[1]
    du, dsigma = v0[0] / 2.0, v0[1]
    omega = np.sqrt(v0 @ plane.metric(theta0) @ v0 * plane.k)
    c = u0 + sigma0 * dsigma / du  # the radius through theta0 is normal to v0
    rho = np.hypot(u0 - c, sigma0)
    s = np.arctanh((u0 - c) / rho) + np.sign(du) * omega * taus
    return np.stack([2.0 * (c + rho * np.tanh(s)), rho / np.cosh(s)], axis=1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("sigma0", [0.2, 1.0, 1e3])
def test_geodesic_positions_match_closed_form(sigma0, sign):
    theta0 = np.array([0.0, sigma0])
    v0 = sign * sigma0 * np.array([0.4, 0.2])
    plane = HalfPlane.correlated(0.3)
    field = MetricField.from_function(2, plane.metric, domain=HALF_PLANE)
    res = geodesic_integrate(field, GeodesicState(theta0, v0, 0.0), 2.0, 1e-2)
    assert res.exit_reason == "completed"
    taus = np.array([state.tau for state in res.states])
    positions = np.array([state.position for state in res.states])
    assert taus[-1] == pytest.approx(2.0)
    assert np.abs(positions - half_plane_geodesic(plane, theta0, v0, taus)).max() <= 1e-8 * sigma0


def test_geodesic_rejects_bad_step():
    field = MetricField.from_function(2, lambda th: np.eye(2))
    init = GeodesicState(np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        geodesic_integrate(field, init, 1.0, -0.1)


BAD_GEODESIC_INPUT = {  # case: (velocity, tau_end, step, the argument the error names)
    "infinite-step": ([1.0, 0.0], 1.0, np.inf, "step"),
    "tau_end-before-init.tau": ([1.0, 0.0], 0.25, 0.01, "tau_end"),
    "nan-velocity": ([np.nan, 0.0], 1.0, 0.01, "init.velocity"),
    "nan-tau_end": ([1.0, 0.0], np.nan, 0.01, "tau_end"),
    "infinite-tau_end": ([1.0, 0.0], np.inf, 0.01, "tau_end"),
    "velocity-of-the-wrong-shape": ([1.0, 0.0, 0.0], 1.0, 0.01, "init.velocity"),
    "infinitely-many-steps": ([1.0, 0.0], 1e300, 1e-300, "step"),
    "more-than-MAX_GEODESIC_STEPS": ([1.0, 0.0], 1e6, 1e-300, "MAX_GEODESIC_STEPS"),
}


@pytest.mark.parametrize("velocity,tau_end,step,name", BAD_GEODESIC_INPUT.values(), ids=BAD_GEODESIC_INPUT)
def test_geodesic_rejects_bad_input_before_evaluating(velocity, tau_end, step, name):
    # each of these returned a silent result, raised a bare conversion or broadcast error,
    # or (1e306 steps) ran until it was killed
    requests = []
    field = MetricField.from_function(2, lambda th: requests.append(th) or np.eye(2))
    init = GeodesicState(np.zeros(2), np.array(velocity), 0.5)
    with pytest.raises(ValueError, match=name):
        geodesic_integrate(field, init, tau_end, step)
    assert requests == []


def test_geodesic_raises_where_the_metric_turns_nan():
    # R^2 has no boundary to leave, but the NaN beyond x = 0.05 used to end the
    # geodesic after 6 states as "left_domain"
    field = MetricField.from_function(2, lambda th: np.eye(2) if th[0] <= 0.05 else np.full((2, 2), np.nan))
    with pytest.raises(NumericalError, match=r"tau = 0\.05 "):
        geodesic_integrate(field, GeodesicState(np.zeros(2), np.array([1.0, 0.0]), 0.0), 1.0, 0.01)
    # a stage that overflows to +inf has left R^2
    flat = MetricField.from_function(2, lambda th: np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and its stencil inf - inf
        res = geodesic_integrate(flat, GeodesicState(np.zeros(2), np.array([1e308, 0.0]), 0.0), 10.0, 10.0)
    assert res.exit_reason == "left_domain" and len(res.states) == 1


def test_geodesic_span_below_one_step_takes_one_step():
    # (tau_end - tau) / step under 1e-12 used to round to 0 steps and end at tau = 0
    field = MetricField.from_function(2, lambda th: np.eye(2))
    res = geodesic_integrate(field, GeodesicState(np.zeros(2), np.array([1.0, 2.0]), 0.0), 0.01, 1e308)
    assert res.exit_reason == "completed" and [s.tau for s in res.states] == [0.0, 0.01]
    assert res.states[-1].position == pytest.approx([0.01, 0.02], abs=1e-15)
    assert len(geodesic_integrate(field, GeodesicState(np.zeros(2), np.ones(2), 0.5), 0.5, 0.1).states) == 1


def test_fisher_metric_rejects_invalid_model():
    # a "family" whose moments do not depend on theta has a zero score and a zero metric
    fam = univariate_gaussian_family()
    broken = type(fam)(
        lambda th: (np.zeros(1), np.eye(1), np.zeros((2, 1)), np.zeros((2, 1, 1))),
        fam.domain,
        name="broken",
    )
    with pytest.raises(NonPositiveDefiniteError):
        fisher_metric(broken, [0.0, 1.0])


def test_fisher_metric_rejects_a_nan_metric():
    # Sigma = diag(1, NaN) has a Cholesky factor, and its all-NaN metric used to be returned
    fam = univariate_gaussian_family()
    nan_variance = type(fam)(
        lambda th: (np.zeros(2), np.diag([1.0, np.nan]), np.eye(2), np.zeros((2, 2, 2))),
        fam.domain,
    )
    with pytest.raises(NonPositiveDefiniteError, match="Fisher metric"):
        fisher_metric(nan_variance, [0.0, 1.0])


def test_fisher_metric_rejects_a_covariance_without_cholesky_factor():
    fam = univariate_gaussian_family()
    indefinite = type(fam)(
        lambda th: (np.zeros(2), np.diag([1.0, -th[1]]), np.zeros((2, 2)), np.zeros((2, 2, 2))),
        fam.domain,
    )
    with pytest.raises(NonPositiveDefiniteError, match="covariance"):
        fisher_metric(indefinite, [0.0, 1.0])
