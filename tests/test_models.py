import sys
import warnings

import numpy as np
import pytest

from statmanifold import (
    Correlated2DParams,
    CorrelationTrace,
    DegenerateCorrelationError,
    DomainError,
    GeodesicResult,
    GeodesicState,
    GeometryReport,
    IgehClass,
    IgehLevel,
    IntegrationSpec,
    MetricField,
    MultivariateGaussian,
    OscillatorTraceResult,
    ParameterDomain,
    QuadraticHamiltonian,
    NonPositiveDefiniteError,
    HalfPlane,
    christoffel,
    correlated_2d_family,
    distinguishability_F_closed,
    fisher_metric,
    integrate,
    mvn_pdf,
    pdf_2d,
    ricci,
    scalar_curvature,
)

from gaussians import marginals_2d, mvn_marginal


def bivariate_reference(x, y, mu_x, mu_y, sx, sy, r):
    """Generic correlated binormal density, used as an oracle."""
    z = ((x - mu_x) ** 2 / sx**2 + (y - mu_y) ** 2 / sy**2
         - 2 * r * (x - mu_x) * (y - mu_y) / (sx * sy))
    return np.exp(-z / (2 * (1 - r**2))) / (2 * np.pi * sx * sy * np.sqrt(1 - r**2))


# ------------------------------------------------------------------ 2D density

def test_pdf_peak_value():
    p = Correlated2DParams(0.0, 1.0, 0.0, 1.0)
    assert pdf_2d(0.0, 0.0, p) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_pdf_normalizes():
    p = Correlated2DParams(0.3, 1.7, 0.5, 1.0)
    spec = IntegrationSpec.for_gaussian([p.mu_x, 0.0], p.covariance(), 48)
    total = integrate(lambda x: pdf_2d(x[0], x[1], p), spec)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pdf_matches_generic_bivariate():
    # the constraint substitutes sigma_y = sigma_c^2 / sigma
    p = Correlated2DParams(0.0, 1.0, 0.5, 1.0)
    expected = bivariate_reference(1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.5)
    assert pdf_2d(1.0, -1.0, p) == pytest.approx(expected, rel=1e-14)
    p2 = Correlated2DParams(0.4, 2.0, -0.3, 1.5)
    expected2 = bivariate_reference(1.0, -1.0, 0.4, 0.0, 2.0, 1.5**2 / 2.0, -0.3)
    assert pdf_2d(1.0, -1.0, p2) == pytest.approx(expected2, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_pdf_at_extreme_scales_matches_mvn_pdf(scale):
    # sigma = sigma_c = 1e100 raised OverflowError from sc**4, and 1e-100 gave NaN
    # after a RuntimeWarning; in standard units neither power is formed
    p = Correlated2DParams(0.3 * scale, scale, 0.6, scale)
    u, v = np.meshgrid([-2.0, -0.5, 0.0, 1.5], [-1.0, 0.0, 0.7, 2.5], indexing="ij")
    x, y = p.mu_x + u * p.sigma, v * p.sigma_y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pdf_2d(x, y, p)
        expected = mvn_pdf((x, y), MultivariateGaussian([p.mu_x, 0.0], p.covariance()))
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)


def test_pdf_degenerate_correlation():
    with pytest.raises(DegenerateCorrelationError):
        pdf_2d(0.0, 0.0, Correlated2DParams(0.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Correlated2DParams(0.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Correlated2DParams(0.0, 1.0, 1.5, 1.0)


# ------------------------------------------------------------------- marginals

def test_marginals_factorize_at_zero_correlation():
    p = Correlated2DParams(0.4, 1.3, 0.0, 0.9)
    p1, p2 = marginals_2d(p)
    xs = np.linspace(-6, 6, 201)
    X, Y = np.meshgrid(0.4 + xs * 1.3, xs * p.sigma_y, indexing="ij")
    err = np.abs(pdf_2d(X, Y, p) - p1.pdf(X) * p2.pdf(Y)).max()
    assert err < 1e-12


def test_marginals_normalize():
    p = Correlated2DParams(-1.0, 0.7, 0.6, 1.2)
    for m in marginals_2d(p):
        spec = IntegrationSpec.axes([m.mean], [m.sigma], 48)
        assert integrate(lambda x: m.pdf(x[0]), spec) == pytest.approx(1.0, abs=1e-12)


def test_second_marginal_variance():
    # Var(y) = sigma_c^4 / sigma^2 = 1/4 at sigma=2, sigma_c=1, by quadrature
    p = Correlated2DParams(0.0, 2.0, 0.3, 1.0)
    _, p2 = marginals_2d(p)
    spec = IntegrationSpec.axes([0.0], [p2.sigma], 48)
    var = integrate(lambda x: p2.pdf(x[0]) * x[0] ** 2, spec)
    assert var == pytest.approx(0.25, rel=1e-10)


# ---------------------------------------------------------------- closed forms

def test_metric_closed_examples():
    assert HalfPlane.correlated(0.0).metric([0.0, 1.0]) == pytest.approx(np.diag([1.0, 4.0]))
    g = HalfPlane.correlated(0.5).metric([0.0, 2.0])
    denom = 4.0 * 0.75
    assert g == pytest.approx(np.diag([1.0 / denom, 4.0 / denom]))


def test_metric_closed_diverges_at_unit_correlation():
    # k = 0: |r| = 1, or the oscillator at T = 0
    for plane in (HalfPlane.correlated(1.0), HalfPlane.correlated(-1.0), HalfPlane.oscillator(0.0, 2.0)):
        with pytest.raises(DegenerateCorrelationError):
            plane.metric([0.0, 1.0])


@pytest.mark.parametrize("name", ["mu_x", "sigma", "sigma_c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_values(name, bad):
    values = {"mu_x": 0.0, "sigma": 1.0, "r": 0.5, "sigma_c": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        Correlated2DParams(**values)


def test_params_refuse_a_scale_the_covariance_cannot_hold():
    # each was accepted, and covariance() (so ig_correlation_2d) raised a bare
    # OverflowError at sigma**2, sigma_y**2 or the sigma_c**2 of sigma_y
    for sigma, sigma_c in [(1e200, 1.0), (1e-200, 1.0), (1.0, 1e160)]:
        with pytest.raises(ValueError, match=r"sigma\^2 and sigma_y\^2 = .* must be normal floats"):
            Correlated2DParams(0.0, sigma, 0.5, sigma_c)
    # squares that are normal floats are kept, with the covariance's arithmetic unchanged
    for sigma in (1e-150, 1.0, 1e150):
        sy = 1.0 / sigma
        expected = np.array([[sigma**2, 0.5 * sigma * sy], [0.5 * sigma * sy, sy**2]])
        assert Correlated2DParams(0.0, sigma, 0.5).covariance().tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0, 1e80, 1e-80])
def test_family_rejects_a_bad_sigma_c_once(bad):
    # the family's moments form Sigma without building Correlated2DParams, so the
    # family checks sigma_c itself; 1e80 raised a bare OverflowError at sigma_c**4,
    # and at 1e-80 a subnormal sigma_c**4 left g_22 1.1e-5 low without a warning
    with pytest.raises(ValueError, match="^sigma_c must be finite and positive"):
        correlated_2d_family(0.3, bad)


def test_family_covariance_is_that_of_the_params():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r, sigma_c = rng.uniform(-0.99, 0.99), 10.0 ** rng.uniform(-2, 2)
        theta = np.array([rng.normal(), 10.0 ** rng.uniform(-3, 3)])
        _, cov, _, _ = correlated_2d_family(r, sigma_c).moments(theta)
        assert cov.tobytes() == Correlated2DParams(theta[0], theta[1], r, sigma_c).covariance().tobytes()


@pytest.mark.parametrize("guard", [
    lambda r: Correlated2DParams(0.0, 1.0, r),
    HalfPlane.correlated,
    correlated_2d_family,
    distinguishability_F_closed,
], ids=["params", "HalfPlane.correlated", "correlated_2d_family", "distinguishability_F_closed"])
def test_every_r_guard_rejects_nan(guard):
    for r in (np.nan, -np.inf, 1.5):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            guard(r)


def test_unit_r_keeps_its_meaning():
    assert Correlated2DParams(0.0, 1.0, -1.0).r == -1.0
    assert HalfPlane.correlated(1.0).scalar_curvature == HalfPlane.correlated(-1.0).scalar_curvature == 0.0
    assert distinguishability_F_closed(-1.0) == np.inf
    with pytest.raises(DegenerateCorrelationError):
        correlated_2d_family(1.0)


def test_curvature_closed_values():
    def curvature(r):
        return HalfPlane.correlated(r).scalar_curvature

    assert curvature(0.0) == pytest.approx(-0.5)
    assert curvature(0.999) == pytest.approx(-0.5 * (1 - 0.999**2))
    assert abs(curvature(0.9999999)) < 1e-6  # R -> 0 as |r| -> 1
    assert curvature(-0.6) == curvature(0.6)


def test_christoffel_and_ricci_closed_scaling():
    plane = HalfPlane.correlated(0.3)  # neither depends on r
    gam = plane.christoffel([0.0, 2.0])
    assert gam[0, 0, 1] == gam[0, 1, 0] == pytest.approx(-0.5)
    assert gam[1, 0, 0] == pytest.approx(0.125)
    assert gam[1, 1, 1] == pytest.approx(-0.5)
    assert np.count_nonzero(gam) == 4
    ric = plane.ricci([0.0, 2.0])
    assert ric == pytest.approx(np.diag([-1.0 / 16.0, -0.25]))


@pytest.mark.parametrize("sigma_c", [1e-70, 1.0, 1e70])
def test_family_domain_is_where_the_moments_are_normal(sigma_c):
    # sigma = 1e150 and 1e200 overflowed sigma**3, and 1e-110 divided by zero; the box
    # stops sigma within a factor of 2 of where sigma**3 or the d Sigma entry
    # -2 sigma_c**4 / sigma**3 stops being a normal float, and is exact up to its edges
    def normal(x):
        return bool(sys.float_info.min <= abs(x) <= sys.float_info.max)

    for r in (0.0, 0.5, -0.9, 0.99):
        family, plane = correlated_2d_family(r, sigma_c), HalfPlane.correlated(r)
        lower, upper = family.domain.lower[1], family.domain.upper[1]
        for s in np.geomspace(np.nextafter(lower, 1.0), np.nextafter(upper, 0.0), 41):
            closed = plane.metric([0.3, s])
            g = fisher_metric(family, [0.3, s])
            assert np.abs(g - closed).max() <= 1e-12 * np.abs(closed).max()
        for s in (lower, upper):
            with pytest.raises(DomainError):
                fisher_metric(family, [0.3, s])
        with np.errstate(all="ignore"):
            for s, inside in [(2 * lower, True), (upper / 2, True),
                              (lower / 2, False), (2 * upper, False)]:
                entry = family.moments(np.array([0.3, s]))[3][1, 1, 1]
                assert (normal(s**3) and normal(entry)) is inside


def test_half_plane_metric_is_the_fisher_metric():
    rng = np.random.default_rng(36)
    for _ in range(300):
        r, sigma_c = rng.uniform(-0.99, 0.99), 10.0 ** rng.uniform(-2, 2)
        theta = np.array([rng.normal(), 10.0 ** rng.uniform(-3, 3)])
        closed = HalfPlane.correlated(r).metric(theta)
        g = fisher_metric(correlated_2d_family(r, sigma_c), theta)
        assert np.abs(g - closed).max() <= 1e-13 * np.abs(closed).max()


def test_half_plane_geometry_is_that_of_its_metric():
    # the closed Gamma, Ricci and R against finite differences of the plane's own metric
    rng = np.random.default_rng(37)
    half_plane = ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf])
    for _ in range(50):
        plane = HalfPlane(rng.uniform(0.1, 10.0))
        field = MetricField.from_function(2, plane.metric, domain=half_plane)
        theta = np.array([rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1, 1)])
        for closed, numeric in ((plane.christoffel(theta), christoffel(field, theta)),
                                (plane.ricci(theta), ricci(field, theta))):
            assert np.abs(numeric - closed).max() <= 1e-5 * np.abs(closed).max()
        assert scalar_curvature(field, theta) == pytest.approx(plane.scalar_curvature, rel=1e-5)


def test_half_plane_keeps_the_arithmetic_of_the_closed_forms_it_replaced():
    # the pre-plane formulas, bit for bit: diag(1, 4)/(sigma^2 (1 - r^2)),
    # R = -0.5 (1 - r^2) and, for the oscillator, R = -T/(2 T0)
    rng = np.random.default_rng(38)
    for _ in range(10_000):
        r = rng.uniform(-1.0, 1.0)
        theta = np.array([rng.normal(), 10.0 ** rng.uniform(-50, 50)])
        denom = theta[1] ** 2 * (1.0 - r**2)
        plane = HalfPlane.correlated(r)
        assert plane.metric(theta).tobytes() == np.array(
            [[1.0 / denom, 0.0], [0.0, 4.0 / denom]]).tobytes()
        assert plane.scalar_curvature == -0.5 * (1.0 - r**2)
        T0 = 10.0 ** rng.uniform(-6, 6)
        T = rng.uniform(0.0, 1.0) * T0
        assert HalfPlane.oscillator(T, T0).scalar_curvature == -T / (2.0 * T0)


def test_half_plane_rejects_a_bad_k():
    for k in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            HalfPlane(k)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_closed_metric_matches_quadrature(sigma, r):
    fam = correlated_2d_family(r)
    g = fisher_metric(fam, [0.0, sigma])
    expected = HalfPlane.correlated(r).metric([0.0, sigma])
    assert np.abs(g - expected).max() < 1e-6


def test_numeric_curvature_independent_of_sigma_and_mu():
    r = 0.5
    field = MetricField.from_model(correlated_2d_family(r))
    values = [
        scalar_curvature(field, [mu, sigma])
        for mu in (-2.0, 0.0, 3.0)
        for sigma in (0.5, 1.0, 2.0)
    ]
    assert max(values) - min(values) < 1e-4
    assert values[0] == pytest.approx(HalfPlane.correlated(r).scalar_curvature, abs=1e-4)


# -------------------------------------------------------- multivariate Gaussian

def test_mvn_peak_value():
    g = MultivariateGaussian(np.zeros(2), np.eye(2))
    assert mvn_pdf(np.zeros(2), g) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_mvn_marginal_of_diagonal_is_product_factor():
    g = MultivariateGaussian([1.0, -2.0], np.diag([4.0, 0.25]))
    m0 = mvn_marginal(g, 0)
    m1 = mvn_marginal(g, 1)
    xs = np.linspace(-5, 5, 101)
    pts = np.stack([1.0 + xs, -2.0 + 0.0 * xs])
    assert mvn_pdf(pts, g) == pytest.approx(m0.pdf(1.0 + xs) * m1.pdf(-2.0), rel=1e-12)


def test_mvn_marginal_variances_ignore_off_diagonal():
    g = MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert mvn_marginal(g, 0).variance == pytest.approx(1.0)
    assert mvn_marginal(g, 1).variance == pytest.approx(1.0)
    # quadrature of the joint times x_i^2 confirms the marginal variance
    spec = IntegrationSpec.for_gaussian(g.mean, g.covariance, 32)
    var0 = integrate(lambda x: mvn_pdf(x, g) * x[0] ** 2, spec)
    assert var0 == pytest.approx(1.0, abs=1e-10)


def test_mvn_normalization_n2():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    cov = a @ a.T + 0.5 * np.eye(4)
    g = MultivariateGaussian(rng.normal(size=4), cov)
    spec = IntegrationSpec.for_gaussian(g.mean, g.covariance, 16)
    assert integrate(lambda x: mvn_pdf(x, g), spec) == pytest.approx(1.0, abs=1e-6)


def solve_det_pdf(pts, g):
    """N(x; mean, cov) at the columns of pts from one solve and one det."""
    d = pts - g.mean[:, None]
    quad = np.sum(d * np.linalg.solve(g.covariance, d), axis=0)
    return np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** g.dim * np.linalg.det(g.covariance))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_mvn_pdf_matches_solve_and_det(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(5):
        a = rng.normal(size=(dim, dim))
        sd = 10.0 ** rng.uniform(-1, 1, dim)
        g = MultivariateGaussian(rng.normal(size=dim), (a @ a.T + 0.5 * np.eye(dim)) * np.outer(sd, sd))
        pts = g.mean[:, None] + 2.0 * sd[:, None] * rng.normal(size=(dim, 50))
        np.testing.assert_allclose(mvn_pdf(pts, g), solve_det_pdf(pts, g), rtol=1e-13, atol=0.0)
        assert g.whitening.flags.writeable is False
        assert not np.triu(g.whitening, 1).any()


def test_mvn_pdf_sparse_grid_equals_stacked_grid():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    g = MultivariateGaussian(rng.normal(size=4), a @ a.T + 0.5 * np.eye(4))
    axes = [m + np.linspace(-3.0, 3.0, n) for m, n in zip(g.mean, (5, 4, 3, 6))]
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    stacked = np.stack(np.broadcast_arrays(*sparse)).reshape(4, -1)
    on_grid = mvn_pdf(sparse, g)
    assert on_grid.shape == (5, 4, 3, 6)
    np.testing.assert_allclose(on_grid.ravel(), mvn_pdf(stacked, g), rtol=1e-14, atol=0.0)


def test_mvn_pdf_single_point_is_float():
    g = MultivariateGaussian([1.0, -1.0], np.array([[2.0, 0.3], [0.3, 0.5]]))
    value = mvn_pdf(np.array([0.5, 0.0]), g)
    assert type(value) is float
    assert value == pytest.approx(solve_det_pdf(np.array([[0.5], [0.0]]), g)[0], rel=1e-13)
    with pytest.raises(ValueError):
        mvn_pdf(np.zeros(3), g)


def test_mvn_rejects_bad_covariance():
    with pytest.raises(NonPositiveDefiniteError):
        MultivariateGaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NonPositiveDefiniteError):
        MultivariateGaussian(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NonPositiveDefiniteError):
        MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(IndexError):
        mvn_marginal(MultivariateGaussian(np.zeros(2), np.eye(2)), 5)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_mvn_rejects_non_finite_mean_or_covariance(bad):
    # an infinite variance used to give normalizer 0.0: a density that is 0 everywhere
    with pytest.raises(ValueError, match="finite"):
        MultivariateGaussian(np.zeros(2), np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        MultivariateGaussian(np.zeros(2), np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        MultivariateGaussian(np.array([0.0, bad]), np.eye(2))


def test_mvn_symmetry_tolerance_is_1e12_of_the_largest_entry():
    with pytest.raises(NonPositiveDefiniteError, match="symmetric"):
        MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.5 + 1e-9], [0.5, 1.0]]))
    with pytest.raises(NonPositiveDefiniteError, match="symmetric"):
        MultivariateGaussian(np.zeros(2), np.array([[1e3, 0.5 + 1e-9 * 1e3], [0.5, 1.0]]))
    near = MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]]))
    assert near.normalizer > 0.0


def _trace():
    return CorrelationTrace(np.arange(16.0), np.zeros(16))


# objects that hold arrays or dicts, each call making a new one equal in value to the last
ARRAY_HOLDERS = {
    "ParameterDomain": lambda: ParameterDomain.box([0.0, 0.0], [1.0, 1.0]),
    "IntegrationSpec": lambda: IntegrationSpec([0.0], [[1.0]]),
    "MultivariateGaussian": lambda: MultivariateGaussian([0.0], [[1.0]]),
    "CorrelationTrace": _trace,
    "QuadraticHamiltonian": lambda: QuadraticHamiltonian([0.0, 0.0], np.eye(2)),
    "GeodesicState": lambda: GeodesicState(np.zeros(2), np.ones(2), 0.0),
    "GeodesicResult": lambda: GeodesicResult((GeodesicState(np.zeros(2), np.ones(2), 0.0),),
                                             "completed"),
    "GeometryReport": lambda: GeometryReport(np.zeros(2), np.zeros((2, 2, 2)),
                                             np.zeros((2, 2, 2, 2)), np.zeros((2, 2)), 0.0),
    "OscillatorTraceResult": lambda: OscillatorTraceResult(
        _trace(), IgehClass(IgehLevel.BERNOULLI, {}), np.zeros(16), np.ones(16)),
    "IgehClass": lambda: IgehClass(IgehLevel.MIXING, {}),
    "ModelFamily": lambda: correlated_2d_family(0.3),
    "MetricField": lambda: MetricField.from_model(correlated_2d_family(0.3)),
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDERS))
def test_objects_holding_arrays_compare_and_hash_by_identity(name):
    # a generated __eq__ compared the arrays and raised "truth value ... ambiguous",
    # and the generated __hash__ raised TypeError on them (and on a dict)
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and a != b
    assert len({a, b, a}) == 2
