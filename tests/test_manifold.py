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
    IntegrationSpec,
    MetricField,
    NonPositiveDefiniteError,
    ParameterDomain,
    QuadratureError,
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


@pytest.mark.parametrize("order", [8, 32, 64])
def test_fisher_error_is_the_gap_to_the_half_order_metric(order):
    # the estimate is max |G_n - G_n/2|, with G_n and G_n/2 each computed by its own call
    fam = correlated_2d_family(0.6)
    theta = [0.3, 1.5]
    g, err = fisher_metric(fam, theta, order=order, quad_tol=1.0, with_error=True)
    half = fisher_metric(fam, theta, order=order // 2, quad_tol=1.0)
    assert np.array_equal(g, fisher_metric(fam, theta, order=order, quad_tol=1.0))
    assert err == np.max(np.abs(g - half))
    assert np.array_equal(g, g.T)


def test_fisher_metric_integrates_through_integrate_at_both_orders(monkeypatch):
    orders = []
    original = quadrature.integrate

    def recorded(fn, spec):
        orders.append(spec.order)
        return original(fn, spec)

    monkeypatch.setattr(quadrature, "integrate", recorded)
    fisher_metric(correlated_2d_family(0.6, order=48), [0.3, 1.5])
    assert orders == [48, 24]


def test_fisher_metric_raises_on_nonconvergence():
    # a node cloud 20 times narrower than the density: the two rules disagree
    fam = univariate_gaussian_family()
    narrow = type(fam)(1, 2, fam.density, fam.log_density_grad_theta, fam.domain,
                       lambda th: IntegrationSpec.axes([th[0]], [0.05 * th[1]], order=8),
                       name="narrow")
    with pytest.raises(QuadratureError, match="did not converge"):
        fisher_metric(narrow, [0.0, 1.0])


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


def _in_disc(theta):
    # a predicate is called with one point at a time, also for a batch
    assert theta.shape == (3,)
    return theta[0] ** 2 + theta[1] ** 2 < 1.0


DOMAINS = {
    "box": ParameterDomain.box([-1.0, 0.0, -np.inf], [1.0, np.inf, 2.0]),
    "predicate": ParameterDomain.from_predicate(3, _in_disc),
    "box and predicate": ParameterDomain(3, np.array([-1.0, 0.0, -np.inf]),
                                         np.array([1.0, np.inf, 2.0]), _in_disc),
    "unbounded": ParameterDomain.unbounded(3),
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


def test_stencil_domain_check():
    field = closed_form_field(0.0)
    with pytest.raises(DomainError):
        metric_derivatives(field, [0.0, 1e-7], 1)
    with pytest.raises(ValueError):
        metric_derivatives(field, [0.0, 1.0], 3)


def test_stencil_corner_outside_domain_raises_before_evaluating():
    # the hole holds the corner (1 + h, 1 + h) of the mixed second derivative,
    # but no axis point
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


# ------------------------------------------------------- per-field metric cache

def _count_fisher_calls(monkeypatch):
    calls = []
    original = manifold.fisher_metric

    def counted(*args, **kwargs):
        calls.append(np.array(args[1], dtype=float))
        return original(*args, **kwargs)

    monkeypatch.setattr(manifold, "fisher_metric", counted)
    return calls


@pytest.mark.parametrize("order", [32, 64])
@pytest.mark.parametrize("r,theta", [(-0.7, [0.0, 0.5]), (0.0, [0.3, 1.7]), (0.6, [-1.2, 20.0]),
                                     (0.9, [0.0, 0.05])])
def test_cached_field_equals_uncached_field(order, r, theta):
    fam = correlated_2d_family(r, order=order)
    plain = MetricField.from_function(2, lambda th: fisher_metric(fam, th), domain=fam.domain)
    assert scalar_curvature(MetricField.from_model(fam), theta) == scalar_curvature(plain, theta)
    cached, uncached = geometry_report(MetricField.from_model(fam), theta), geometry_report(plain, theta)
    for name in ("christoffel", "riemann", "ricci"):
        assert np.array_equal(getattr(cached, name), getattr(uncached, name)), name
    assert cached.scalar == uncached.scalar


def test_curvature_computes_each_distinct_metric_once(monkeypatch):
    fisher_calls = _count_fisher_calls(monkeypatch)
    requests = []
    original_call = MetricField.__call__

    def counted_call(self, theta):
        requests.append(theta)
        return original_call(self, theta)

    monkeypatch.setattr(MetricField, "__call__", counted_call)
    scalar_curvature(MetricField.from_model(correlated_2d_family(0.3, order=32)), [0.2, 1.1])
    assert len(requests) == 17
    assert len(fisher_calls) == 9  # 1 + 2m^2 stencil points at m = 2
    assert len({t.tobytes() for t in fisher_calls}) == 9


def test_metric_cache_holds_one_stencil(monkeypatch):
    fisher_calls = _count_fisher_calls(monkeypatch)
    field = MetricField.from_model(correlated_2d_family(0.3, order=32))
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
    # a cheap stand-in for the quadrature, so nearly all the time is spent in the cache
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
    low = MetricField.from_model(correlated_2d_family(0.2, order=32))
    high = MetricField.from_model(correlated_2d_family(0.7, order=32))
    g_low, g_high = low(theta), high(theta)
    assert len(fisher_calls) == 2
    assert np.array_equal(g_high, fisher_metric(correlated_2d_family(0.7, order=32), theta))
    assert not np.allclose(g_low, g_high)


def test_cached_metrics_are_read_only_and_calls_fresh():
    field = MetricField.from_model(correlated_2d_family(0.3, order=32))
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
    fisher_calls = _count_fisher_calls(monkeypatch)
    field = MetricField.from_model(correlated_2d_family(0.3, order=32))
    for _ in range(2):
        with pytest.raises(DomainError):
            field([0.0, -1.0])
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


def half_plane_geodesic(r, theta0, v0, taus):
    """Closed-form geodesic of the correlated metric through theta0 with velocity v0.

    With u = mu_x / 2 the metric is 4 (du^2 + dsigma^2) / (sigma^2 (1 - r^2)),
    a Poincare half-plane scaled by 4 / (1 - r^2).  A geodesic that is not
    vertical is the semicircle u = c + rho tanh s, sigma = rho / cosh s, run at
    the hyperbolic speed omega = sqrt(v.g.v (1 - r^2) / 4): s = s0 ± omega tau.
    """
    u0, sigma0 = theta0[0] / 2.0, theta0[1]
    du, dsigma = v0[0] / 2.0, v0[1]
    g = metric_2d_closed(Correlated2DParams(theta0[0], sigma0, r, 1.0))
    omega = np.sqrt(v0 @ g @ v0 * (1.0 - r * r) / 4.0)
    c = u0 + sigma0 * dsigma / du  # the radius through theta0 is normal to v0
    rho = np.hypot(u0 - c, sigma0)
    s = np.arctanh((u0 - c) / rho) + np.sign(du) * omega * taus
    return np.stack([2.0 * (c + rho * np.tanh(s)), rho / np.cosh(s)], axis=1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("sigma0", [0.2, 1.0, 1e3])
def test_geodesic_positions_match_closed_form(sigma0, sign):
    r = 0.3
    theta0 = np.array([0.0, sigma0])
    v0 = sign * sigma0 * np.array([0.4, 0.2])
    res = geodesic_integrate(closed_form_field(r), GeodesicState(theta0, v0, 0.0), 2.0, 1e-2)
    assert res.exit_reason == "completed"
    taus = np.array([state.tau for state in res.states])
    positions = np.array([state.position for state in res.states])
    assert taus[-1] == pytest.approx(2.0)
    assert np.abs(positions - half_plane_geodesic(r, theta0, v0, taus)).max() <= 1e-8 * sigma0


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
