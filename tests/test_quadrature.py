from dataclasses import replace

import numpy as np
import pytest

from statmanifold import IntegrationSpec, integrate, integrate_with_error
from statmanifold.quadrature import _CHUNK, hermite_block


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
    rect = IntegrationSpec.axes([mu], [sigma], order=128, rule="rectangle")
    f = lambda x: gaussian_1d(mu, sigma)(x) * np.cos(x[0])
    assert integrate(f, gh) == pytest.approx(integrate(f, rect), abs=1e-10)


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
    assert 20**4 > _CHUNK and hermite_block(20, 4)[2].shape == (3, 20**3)
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
    rect = IntegrationSpec.axes(MEAN_4D, np.sqrt(np.diag(COV_4D)), order=20, rule="rectangle")
    np.testing.assert_allclose(integrate(lambda x: (x, density(x)), rect),
                               integrate(f, rect).reshape(4, 4), rtol=1e-13)


@pytest.mark.parametrize("rule", ["gauss_hermite", "rectangle"])
def test_chunked_2d_rule_matches_one_block(rule):
    # 160^2 nodes are summed in chunks of 160; 64^2 fit in one block
    assert 160**2 > _CHUNK >= 64**2
    cov = COV_4D[:2, :2]
    f = lambda x: mvn_density(MEAN_4D[:2], cov)(x) * np.cos(x[0]) * (1.0 + x[1] ** 2)
    chunked = integrate(f, IntegrationSpec.axes(MEAN_4D[:2], [1.5, 1.3], order=160, rule=rule))
    one_block = integrate(f, IntegrationSpec.for_gaussian(MEAN_4D[:2], cov, order=64))
    assert chunked == pytest.approx(one_block, rel=1e-13)


@pytest.mark.parametrize("order, dim", [(16, 2), (20, 4)])
def test_cached_blocks_survive_in_place_integrands(order, dim):
    assert not any(a.flags.writeable for a in hermite_block(order, dim))
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


@pytest.mark.parametrize("rule", ["gauss_hermite", "rectangle"])
def test_error_estimate_reuses_one_coarse_rule(rule):
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    spec = IntegrationSpec(np.array([0.4, -1.0]), np.linalg.cholesky(cov), 20, rule)
    fn = lambda x: np.exp(-0.5 * (x[0] ** 2 + x[1] ** 2)) * (1.0 + x[0] * x[1])
    coarse = spec.coarse
    assert spec.coarse is coarse
    assert (coarse.order, coarse.rule) == (10, rule)
    assert coarse.center is spec.center and coarse.transform is spec.transform
    val, err = integrate_with_error(fn, spec)
    fine, ref = integrate(fn, replace(spec, order=20)), integrate(fn, replace(spec, order=10))
    assert val == fine and err == abs(fine - ref)


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec.axes([0.0], [1.0], order=1)
    with pytest.raises(ValueError):
        IntegrationSpec([0.0, 0.0], np.eye(3))
    with pytest.raises(ValueError):
        IntegrationSpec.axes([0.0], [1.0], rule="simpson")
