import math
from dataclasses import replace

import numpy as np
import pytest

from statmanifold import (
    Correlated2DParams,
    GaussianBump,
    IntegrationSpec,
    MultivariateGaussian,
    TestFunctionSet,
    ig_correlation,
    ig_correlation_2d,
    integrate,
    integrate_with_error,
    mvn_ig_correlation,
    mvn_pdf,
)
from statmanifold.quadrature import _CHUNK, node_block

from gaussians import midpoint_rule


def gaussian_1d(mu, sigma):
    return lambda x: np.exp(-((x[0] - mu) ** 2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)


def test_gauss_hermite_normalizes_gaussian():
    spec = IntegrationSpec.axes([0.3], [1.7], order=32)
    assert integrate(gaussian_1d(0.3, 1.7), spec) == pytest.approx(1.0, abs=1e-12)


def test_gauss_hermite_second_moment():
    mu, sigma = -1.2, 0.8
    spec = IntegrationSpec.axes([mu], [sigma], order=32)
    val = integrate(lambda x: gaussian_1d(mu, sigma)(x) * (x[0] - mu) ** 2, spec)
    assert val == pytest.approx(sigma**2, rel=1e-12)


def test_whitened_rule_handles_correlation():
    cov = np.array([[1.0, 0.95], [0.95, 1.0]])
    spec = IntegrationSpec.for_gaussian([0.0, 0.0], cov, order=24)

    def density(x):
        d = x
        sol = np.linalg.solve(cov, d)
        return np.exp(-0.5 * np.sum(d * sol, axis=0)) / (2 * np.pi * np.sqrt(np.linalg.det(cov)))

    assert integrate(density, spec) == pytest.approx(1.0, abs=1e-12)


def test_rectangle_rule_matches_gauss_hermite():
    mu, sigma = 0.5, 1.3
    gh = IntegrationSpec.axes([mu], [sigma], order=48)
    nodes, w = midpoint_rule([mu], [sigma], 128)
    f = lambda x: gaussian_1d(mu, sigma)(x) * np.cos(x[0])
    assert integrate(f, gh) == pytest.approx(w @ f(nodes), abs=1e-10)


def test_vector_valued_integrand():
    spec = IntegrationSpec.axes([0.0], [1.0], order=32)
    f = lambda x: np.stack([gaussian_1d(0, 1)(x), gaussian_1d(0, 1)(x) * x[0] ** 2]).T
    vals = integrate(f, spec)
    assert vals == pytest.approx([1.0, 1.0], abs=1e-12)


def test_chunked_4d_integration():
    # order^4 above the chunk limit exercises the chunked path
    spec = IntegrationSpec.axes([0.0] * 4, [1.0] * 4, order=32)

    def density(x):
        return np.exp(-0.5 * np.sum(x**2, axis=0)) / (2 * np.pi) ** 2

    assert integrate(density, spec) == pytest.approx(1.0, abs=1e-10)


COV_4D = np.array([
    [2.0, 0.6, -0.4, 0.3],
    [0.6, 1.5, 0.5, -0.2],
    [-0.4, 0.5, 1.2, 0.4],
    [0.3, -0.2, 0.4, 0.9],
])
MEAN_4D = np.array([0.7, -1.1, 0.9, 1.3])


def mvn_density(mean, cov):
    mean, cov = np.asarray(mean), np.asarray(cov)
    norm = np.sqrt((2 * np.pi) ** len(mean) * np.linalg.det(cov))

    def density(x):
        d = x - mean[:, None]
        return np.exp(-0.5 * np.sum(d * np.linalg.solve(cov, d), axis=0)) / norm

    return density


def test_chunked_correlated_rule_second_moments():
    # 20^4 nodes exceed one block: 20 chunks of the cached 20^3-node block
    assert 20**4 > _CHUNK and node_block(20, 4)[2].shape == (3, 20**3)
    spec = IntegrationSpec.for_gaussian(MEAN_4D, COV_4D, order=20)
    density = mvn_density(MEAN_4D, COV_4D)
    f = lambda x: (density(x) * (x[:, None, :] * x[None, :, :]).reshape(16, -1)).T
    moments = integrate(f, spec).reshape(4, 4)
    exact = COV_4D + np.outer(MEAN_4D, MEAN_4D)
    np.testing.assert_allclose(moments, exact, rtol=1e-12)
    # the Gram form sums the same moments chunk by chunk without the pairwise products
    gram = integrate(lambda x: (x, density(x)), spec)
    np.testing.assert_allclose(gram, exact, rtol=1e-12)
    assert np.array_equal(gram, gram.T)
    axes = IntegrationSpec.axes(MEAN_4D, np.sqrt(np.diag(COV_4D)), order=20)
    np.testing.assert_allclose(integrate(lambda x: (x, density(x)), axes),
                               integrate(f, axes).reshape(4, 4), rtol=1e-13)


def test_chunked_2d_rule_matches_one_block():
    # 160^2 nodes are summed in chunks of 160; 64^2 fit in one block
    assert 160**2 > _CHUNK >= 64**2
    cov = COV_4D[:2, :2]
    f = lambda x: mvn_density(MEAN_4D[:2], cov)(x) * np.cos(x[0]) * (1.0 + x[1] ** 2)
    chunked = integrate(f, IntegrationSpec.axes(MEAN_4D[:2], [1.5, 1.3], order=160))
    one_block = integrate(f, IntegrationSpec.for_gaussian(MEAN_4D[:2], cov, order=64))
    assert chunked == pytest.approx(one_block, rel=1e-13)


@pytest.mark.parametrize("order, dim", [(16, 2), (20, 4)])
def test_cached_blocks_survive_in_place_integrands(order, dim):
    assert not any(a.flags.writeable for a in node_block(order, dim))
    spec = IntegrationSpec.for_gaussian(MEAN_4D[:dim], COV_4D[:dim, :dim], order=order)
    f = lambda x: mvn_density(MEAN_4D[:dim], COV_4D[:dim, :dim])(x) * x[0] ** 2
    before = integrate(f, spec)

    def overwrites_nodes(x):
        val = f(x)
        x[:] = 1e3
        return val

    assert integrate(overwrites_nodes, spec) == before
    assert integrate(f, spec) == before


def test_error_estimate_small_for_smooth_gaussian():
    spec = IntegrationSpec.axes([0.0], [1.0], order=48)
    _, err = integrate_with_error(gaussian_1d(0, 1), spec)
    assert err < 1e-10


def test_error_estimate_reuses_one_coarse_rule():
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    spec = IntegrationSpec(np.array([0.4, -1.0]), np.linalg.cholesky(cov), 20)
    fn = lambda x: np.exp(-0.5 * (x[0] ** 2 + x[1] ** 2)) * (1.0 + x[0] * x[1])
    coarse = spec.coarse
    assert spec.coarse is coarse
    assert coarse.order == 10
    assert coarse.center is spec.center and coarse.transform is spec.transform
    val, err = integrate_with_error(fn, spec)
    fine, ref = integrate(fn, replace(spec, order=20)), integrate(fn, replace(spec, order=10))
    assert val == fine and err == abs(fine - ref)


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec.axes([0.0], [1.0], order=1)
    with pytest.raises(ValueError):
        IntegrationSpec([0.0, 0.0], np.eye(3))


def test_spec_node_map_needs_only_axis_scales_for_the_box():
    # a spec built from axis scales alone, no full transform, integrates a unit Gaussian
    spec = IntegrationSpec.axes([0.0, 0.0], [1.0, 1.0], 64)
    pdf = lambda x: np.exp(-0.5 * np.sum(x**2, axis=0)) / (2 * np.pi)
    assert integrate(pdf, spec) == pytest.approx(1.0, rel=1e-12)
    assert type(IntegrationSpec.axes([0.0], [1.0], order=np.int64(8)).order) is int
    assert IntegrationSpec.axes([0.0], [1.0], order=5).coarse.order == 4


@pytest.mark.parametrize("build", [
    pytest.param(lambda: IntegrationSpec.axes([0.0], [0.0]), id="zero-scale"),
    pytest.param(lambda: IntegrationSpec.axes([0.0, 1.0], [1.0, 0.0], 8), id="zero-axis"),
    pytest.param(lambda: IntegrationSpec([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]]), id="singular"),
    pytest.param(lambda: IntegrationSpec.axes([np.nan], [1.0]), id="nan-center"),
    pytest.param(lambda: IntegrationSpec.axes([0.0], [np.inf]), id="inf-scale"),
    pytest.param(lambda: IntegrationSpec([0.0, 0.0], [[1.0, 0.0], [np.nan, 1.0]], 8),
                 id="nan-transform"),
    pytest.param(lambda: IntegrationSpec.for_gaussian([0.0, np.inf], np.eye(2)), id="inf-mean"),
    pytest.param(lambda: IntegrationSpec.axes([0.0, 0.0], [1e200, 1e200], order=8),
                 id="overflowing-jacobian"),
    pytest.param(lambda: IntegrationSpec.axes([0.0], [1.0], order=2.5), id="fractional-order"),
    pytest.param(lambda: IntegrationSpec.axes([0.0], [1.0], order="8"), id="string-order"),
    pytest.param(lambda: replace(IntegrationSpec.axes([0.0], [1.0]), transform=[[0.0]]),
                 id="replaced-transform"),
])
def test_spec_checks_its_node_map(build):
    # each of these integrated to 0, nan or inf, or failed later inside hermgauss;
    # the 1e200 scales overflow the determinant, which must raise no numpy warning
    with pytest.raises(ValueError):
        build()


def naive_rule(spec):
    """Every node (d, n**d) and weight of ``spec`` from one meshgrid: no chunks, no cache."""
    n, d = spec.order, spec.dim
    t, w = np.polynomial.hermite.hermgauss(n)
    grid = np.stack([g.ravel() for g in np.meshgrid(*[t] * d, indexing="ij")])
    weights = np.prod(np.meshgrid(*[w * np.exp(t**2)] * d, indexing="ij"), axis=0).ravel()
    jac = math.sqrt(2.0) ** d * abs(np.linalg.det(spec.transform))
    return spec.center[:, None] + math.sqrt(2.0) * spec.transform @ grid, weights * jac


@pytest.mark.parametrize("transform", ["whitened", "axes"])
@pytest.mark.parametrize("dim, order", [(1, 160), (2, 64), (2, 160), (3, 20), (3, 32), (4, 20)])
def test_shared_chunk_walk_matches_a_naive_tensor_rule(transform, dim, order):
    mean, cov = MEAN_4D[:dim], COV_4D[:dim, :dim]
    if transform == "whitened":
        spec = IntegrationSpec.for_gaussian(mean, cov, order)
    else:
        spec = IntegrationSpec.axes(mean, np.sqrt(np.diag(cov)), order)
    density = mvn_density(mean, cov)
    vector = lambda x: (density(x) * np.vstack([np.ones(x.shape[1]), x, np.cos(x[0])])).T
    gram = lambda x: (np.vstack([x, np.sin(x[-1])]), density(x) * (1.0 + 0.5 * np.cos(x[0])))
    pts, w = naive_rule(spec)
    for form, exact in [(vector, w @ vector(pts)),
                        (gram, (lambda a, rho: (a * (w * rho)) @ a.T)(*gram(pts)))]:
        got = integrate(form, spec)
        assert got.shape == exact.shape
        assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_order_zero_reaches_the_spec_check():
    # order=0 used to mean the default order on every route to a spec
    bumps = [GaussianBump(0.2, 1.5), GaussianBump(-0.1, 1.2, 0.7)]
    fs = TestFunctionSet(tuple(lambda x, b=b: b(x) for b in bumps), tuple(b.l1_norm for b in bumps))
    params = Correlated2DParams(0.3, 1.1, 0.6, 0.9)
    g = MultivariateGaussian([0.3, 0.0], params.covariance())
    for call in [lambda: ig_correlation_2d(params, fs, order=0),
                 lambda: mvn_ig_correlation(g, fs, order=0)]:
        with pytest.raises(ValueError, match="order must be >= 2"):
            call()
    # order=None is the spec's default_order(dim) on each route
    assert ig_correlation_2d(params, fs) == ig_correlation_2d(params, fs, order=64)
    assert mvn_ig_correlation(g, fs) == mvn_ig_correlation(g, fs, order=64)
    assert IntegrationSpec.axes([0.0] * 3, [1.0] * 3).order == 20
    assert IntegrationSpec.for_gaussian(MEAN_4D, COV_4D).order == 20


def test_a_quadrature_gaussian_is_factored_once(monkeypatch):
    # the spec takes the Cholesky factor the model already holds, where
    # for_gaussian would factor the same covariance again, and gives the same bits
    bumps = [GaussianBump(0.2, 1.5), GaussianBump(-0.1, 1.2, 0.7)]
    fs = TestFunctionSet(tuple(lambda x, b=b: b(x) for b in bumps), tuple(b.l1_norm for b in bumps))
    params = Correlated2DParams(0.3, 1.1, 0.6, 0.9)
    g = MultivariateGaussian([0.3, 0.0], params.covariance())
    expected = ig_correlation(lambda x: mvn_pdf(x, g), fs,
                              IntegrationSpec.for_gaussian(g.mean, g.covariance, 64))
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
    assert ig_correlation_2d(params, fs).hex() == expected.hex()
    assert len(calls) == 1
