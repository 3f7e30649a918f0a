import numpy as np
import pytest

from statmanifold import (
    Correlated2DParams,
    DomainError,
    GeodesicState,
    MetricField,
    NonPositiveDefiniteError,
    ParameterDomain,
    SingularMetricError,
    christoffel,
    correlated_2d_family,
    curvature_2d_closed,
    density_normalization,
    fisher_metric,
    geodesic_integrate,
    geometry_report,
    inverse_metric,
    metric_2d_closed,
    metric_derivatives,
    metric_speed,
    ricci,
    ricci_2d_closed,
    riemann,
    scalar_curvature,
    univariate_gaussian_family,
)

HALF_PLANE = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])


def closed_form_field(r: float, sigma_c: float = 1.0) -> MetricField:
    def g(theta):
        return metric_2d_closed(Correlated2DParams(theta[0], theta[1], r, sigma_c))

    return MetricField.from_function(2, g, domain=HALF_PLANE)


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
    g2, err = fisher_metric(fam, [0.5, 2.0], with_error=True)
    assert g2 == pytest.approx(np.diag([0.25, 0.5]), abs=1e-10)
    assert err < 1e-10


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_fisher_matches_closed_form_on_grid(sigma, r):
    fam = correlated_2d_family(r)
    g = fisher_metric(fam, [0.3, sigma])
    expected = metric_2d_closed(Correlated2DParams(0.3, sigma, r, 1.0))
    assert np.abs(g - expected).max() < 1e-6
    # symmetric positive definite
    assert np.allclose(g, g.T)
    assert np.min(np.linalg.eigvalsh(g)) > 0.0


def test_density_normalization_is_one():
    for r in (-0.7, 0.0, 0.4):
        fam = correlated_2d_family(r)
        for theta in ([0.0, 1.0], [2.0, 0.5], [-1.0, 3.0]):
            assert abs(density_normalization(fam, theta) - 1.0) < 1e-6


def test_parameterization_is_injective_spot_check():
    fam = correlated_2d_family(0.3)
    probe = np.stack([np.linspace(-3, 3, 31), np.linspace(-3, 3, 31)])
    p_a = fam.density(probe, np.array([0.0, 1.0]))
    p_b = fam.density(probe, np.array([0.1, 1.0]))
    p_c = fam.density(probe, np.array([0.0, 1.1]))
    assert np.max(np.abs(p_a - p_b)) > 1e-4
    assert np.max(np.abs(p_a - p_c)) > 1e-4


def test_fisher_metric_domain_violation():
    fam = correlated_2d_family(0.0)
    with pytest.raises(DomainError):
        fisher_metric(fam, [0.0, -1.0])
    with pytest.raises(DomainError):
        fisher_metric(fam, [0.0, 1.0, 2.0])


# ---------------------------------------------------------- metric derivatives

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


def test_stencil_domain_check():
    field = closed_form_field(0.0)
    with pytest.raises(DomainError):
        metric_derivatives(field, [0.0, 1e-7], 1)
    with pytest.raises(ValueError):
        metric_derivatives(field, [0.0, 1.0], 3)


def test_stencil_corner_outside_domain_raises_before_evaluating():
    # the hole holds the corner (1 + h, 1 + h) of the mixed second derivative,
    # but no axis point out to 2h
    hole = np.array([1.0 + 1e-5, 1.0 + 1e-5])
    domain = ParameterDomain.from_predicate(2, lambda th: np.max(np.abs(th - hole)) > 5e-6)
    outside = []

    def g(theta):
        if not domain.contains(theta):
            outside.append(theta.copy())
        return metric_2d_closed(Correlated2DParams(theta[0], theta[1], 0.3, 1.0))

    field = MetricField.from_function(2, g, domain=domain)
    with pytest.raises(DomainError, match="corner"):
        scalar_curvature(field, [1.0, 1.0])
    assert outside == []


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
        assert ric == pytest.approx(ricci_2d_closed(sigma), abs=5e-6)


def test_ricci_from_warped_diagonal_field():
    # the closed Ricci values follow from the metric diag(1, 4)/theta2^2 alone
    field = MetricField.from_function(
        2, lambda th: np.diag([1.0 / th[1] ** 2, 4.0 / th[1] ** 2]), domain=HALF_PLANE
    )
    ric = ricci(field, [0.0, 1.5])
    assert ric == pytest.approx(ricci_2d_closed(1.5), abs=5e-6)
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
    assert np.abs(rep.ricci - ricci_2d_closed(sigma)).max() < 1e-4
    assert rep.scalar == pytest.approx(curvature_2d_closed(r), abs=1e-4)


# ------------------------------------------------------------------- geodesics

def test_geodesic_flat_metric_is_straight_line():
    field = MetricField.from_function(2, lambda th: np.eye(2))
    init = GeodesicState(np.array([1.0, -2.0]), np.array([0.5, 2.0]), 0.0)
    res = geodesic_integrate(field, init, 2.0, 0.01)
    assert not res.exited_domain
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


def test_geodesic_rejects_bad_step():
    field = MetricField.from_function(2, lambda th: np.eye(2))
    init = GeodesicState(np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        geodesic_integrate(field, init, 1.0, -0.1)


def test_fisher_metric_rejects_invalid_model():
    # a "family" whose score is orthogonal to one direction yields a singular metric
    fam = univariate_gaussian_family()
    broken = type(fam)(
        micro_dim=1,
        macro_dim=2,
        density=fam.density,
        log_density_grad_theta=lambda x, th: np.stack([np.zeros_like(x[0]), np.zeros_like(x[0])]),
        domain=fam.domain,
        integration_spec=fam.integration_spec,
        name="broken",
    )
    with pytest.raises(NonPositiveDefiniteError):
        fisher_metric(broken, [0.0, 1.0])
