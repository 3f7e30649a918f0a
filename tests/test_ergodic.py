import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statmanifold import (
    BRANCH_SWITCH_R,
    Correlated2DParams,
    CorrelationTrace,
    DegenerateCorrelationError,
    GaussianBump,
    IgehLevel,
    IntegrationSpec,
    MultivariateGaussian,
    QuadratureError,
    TestFunctionSet,
    classify,
    correlation_upper_bound,
    distinguishability_F_closed,
    distinguishability_F_numeric,
    ig_correlation,
    ig_correlation_2d,
    marginals_2d,
    mvn_distinguishability,
    mvn_ig_correlation,
    mvn_upper_bound,
    pdf_2d,
)

# frozen reference values, computed from the closed form and confirmed by the
# independent grid-maximization oracle (they agree to ~1e-15)
F_CLOSED_05 = 0.2280889952354077
F_CLOSED_09 = 1.3399183311183296

# correlation of two unit-height width-1 bumps at the origin under the
# correlated model (mu_x=0, sigma=1, r=0.5, sigma_c=1); frozen from the dense
# Riemann-sum oracle below
C_BUMPS_05 = 0.016397779494322


def unit_height_bumps():
    return TestFunctionSet.from_bumps([GaussianBump(0.0, 1.0), GaussianBump(0.0, 1.0)])


def riemann_sum_correlation(params: Correlated2DParams, f1, f2, n=2001, half=8.0):
    """Dense-grid Riemann-sum oracle for the bivariate correlation."""
    p1, p2 = marginals_2d(params)
    sx, sy = params.sigma, params.sigma_y
    gx = np.linspace(params.mu_x - half * sx, params.mu_x + half * sx, n)
    gy = np.linspace(-half * sy, half * sy, n)
    dx, dy = gx[1] - gx[0], gy[1] - gy[0]
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    joint = np.sum(pdf_2d(X, Y, params) * f1(X) * f2(Y)) * dx * dy
    m1 = np.sum(p1.pdf(gx) * f1(gx)) * dx
    m2 = np.sum(p2.pdf(gy) * f2(gy)) * dy
    return joint - m1 * m2


# ------------------------------------------------------------ test functions

def test_bump_l1_norm_analytic():
    bump = GaussianBump(1.0, 2.0, 3.0)
    spec = IntegrationSpec.axes([1.0], [2.0], 48)
    from statmanifold import integrate

    numeric = integrate(lambda x: np.abs(bump(x[0])), spec)
    assert bump.l1_norm == pytest.approx(numeric, rel=1e-12)


def test_unit_l1_bumps():
    fs = TestFunctionSet.unit_l1_bumps([0.0, 1.0], width=0.7)
    assert fs.l1_norms == pytest.approx((1.0, 1.0))
    assert fs.product_l1 == pytest.approx(1.0)


def test_test_function_set_validation():
    with pytest.raises(ValueError):
        TestFunctionSet((lambda x: x,), (1.0, 2.0))
    with pytest.raises(ValueError):
        TestFunctionSet((lambda x: x,), (0.0,))


# ------------------------------------------------------------- ig correlation

def test_correlation_vanishes_for_product_measure():
    params = Correlated2DParams(0.0, 1.0, 0.0, 1.0)
    fs = unit_height_bumps()
    assert abs(ig_correlation_2d(params, fs)) < 1e-8
    # also with asymmetric bumps and a different geometry
    fs2 = TestFunctionSet.from_bumps([GaussianBump(0.7, 0.5), GaussianBump(-0.2, 1.5)])
    params2 = Correlated2DParams(1.0, 2.0, 0.0, 0.8)
    assert abs(ig_correlation_2d(params2, fs2)) < 1e-8


def test_correlation_matches_riemann_oracle():
    params = Correlated2DParams(0.0, 1.0, 0.5, 1.0)
    fs = unit_height_bumps()
    value = ig_correlation_2d(params, fs)
    oracle = riemann_sum_correlation(params, fs.fs[0], fs.fs[1])
    assert value == pytest.approx(oracle, abs=1e-6)
    assert value == pytest.approx(C_BUMPS_05, abs=1e-9)


def test_correlation_consistency_check_catches_bad_marginals():
    params = Correlated2DParams(0.0, 1.0, 0.5, 1.0)
    fs = unit_height_bumps()
    spec = IntegrationSpec.for_gaussian([0.0, 0.0], params.covariance(), 48)
    wrong = [lambda x: np.exp(-x**2) for _ in range(2)]  # not normalized
    with pytest.raises(QuadratureError):
        ig_correlation(lambda x: pdf_2d(x[0], x[1], params), wrong, fs, spec, check=True)
    with pytest.raises(ValueError):
        ig_correlation(lambda x: pdf_2d(x[0], x[1], params),
                       [lambda x: x], TestFunctionSet((lambda x: x,), (1.0,)), spec)


def test_correlation_bounded_by_distinguishability():
    rng = np.random.default_rng(42)
    for _ in range(200):
        r = rng.uniform(-0.95, 0.95)
        params = Correlated2DParams(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), r, 1.0)
        fs = TestFunctionSet.from_bumps([
            GaussianBump(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)),
            GaussianBump(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)),
        ])
        c = ig_correlation_2d(params, fs, order=48)
        bound = correlation_upper_bound(distinguishability_F_closed(r), fs)
        assert abs(c) <= bound + 1e-12


# ----------------------------------------------------------- distinguishability

def test_F_closed_reference_values():
    assert distinguishability_F_closed(0.0) == 0.0
    assert distinguishability_F_closed(0.5) == pytest.approx(F_CLOSED_05, abs=1e-12)
    assert distinguishability_F_closed(0.9) == pytest.approx(F_CLOSED_09, abs=1e-12)
    assert distinguishability_F_closed(1.0) == math.inf
    with pytest.raises(ValueError):
        distinguishability_F_closed(1.5)


def test_F_closed_even_in_r():
    for r in np.linspace(0.05, 0.95, 19):
        assert distinguishability_F_closed(r) == distinguishability_F_closed(-r)


def test_F_closed_strictly_increasing():
    rs = np.linspace(0.0, 0.99, 100)
    vals = [distinguishability_F_closed(r) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_F_numeric_zero_at_zero_correlation():
    params = Correlated2DParams(0.0, 1.0, 0.0, 1.0)
    assert distinguishability_F_numeric(params) < 1e-12


@pytest.mark.parametrize("r", [-0.8, -0.5, 0.3, 0.5, 0.7, 0.8])
def test_F_numeric_matches_closed_form_below_branch_switch(r):
    params = Correlated2DParams(0.0, 1.0, r, 1.0)
    assert distinguishability_F_numeric(params) == pytest.approx(
        distinguishability_F_closed(r), abs=1e-6
    )


def test_F_numeric_matches_closed_form_on_dense_grid():
    for r in np.linspace(-0.8, 0.8, 17):
        if r == 0.0:
            continue
        params = Correlated2DParams(0.0, 1.0, r, 1.0)
        assert distinguishability_F_numeric(params) == pytest.approx(
            distinguishability_F_closed(r), abs=1e-6
        )


@pytest.mark.parametrize("r", [0.85, 0.9, 0.95])
def test_F_numeric_follows_central_branch_above_switch(r):
    # beyond r* = 0.8392867552141612 the interior critical point of the
    # difference vanishes and the supremum sits at the center of the
    # distribution; the closed form strictly exceeds it there
    assert BRANCH_SWITCH_R == pytest.approx(0.8392867552141612, abs=1e-12)
    params = Correlated2DParams(0.0, 1.0, r, 1.0)
    numeric = distinguishability_F_numeric(params)
    central = 1.0 / math.sqrt(1.0 - r**2) - 1.0
    assert numeric == pytest.approx(central, abs=1e-9)
    assert distinguishability_F_closed(r) > numeric


def test_F_closed_dominates_numeric_everywhere():
    # the closed form stays a valid upper bound on the supremum on both
    # sides of the branch switch
    for r in np.linspace(0.05, 0.97, 24):
        params = Correlated2DParams(0.0, 1.0, r, 1.0)
        assert distinguishability_F_closed(r) >= distinguishability_F_numeric(params) - 1e-9


def test_F_numeric_independent_of_location_scale_and_constraint():
    r = 0.6
    vals = [
        distinguishability_F_numeric(Correlated2DParams(mu, sigma, r, sc))
        for mu in (-2.0, 0.0, 3.0)
        for sigma in (0.5, 1.0, 2.0)
        for sc in (0.7, 1.0)
    ]
    assert max(vals) - min(vals) < 1e-6


# grid-and-zoom results recorded before the two maximizers shared one loop;
# a changed grid, zoom rule or objective moves them far beyond 1e-12
@pytest.mark.parametrize("params, expected", [
    (Correlated2DParams(0.7, 1.3, 0.5, 0.6), 0.22808899523540793),
    (Correlated2DParams(-1.2, 0.4, 0.9, 1.7), 1.294157338705618),
])
def test_F_numeric_pinned_on_both_branches(params, expected):
    assert distinguishability_F_numeric(params) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_F_numeric_degenerate():
    with pytest.raises(DegenerateCorrelationError):
        distinguishability_F_numeric(Correlated2DParams(0.0, 1.0, 1.0, 1.0))


def test_F_slope_near_zero_observed():
    # one-sided slopes around r = 0 (the kink is observed, not asserted)
    h = 1e-5
    right = distinguishability_F_closed(h) / h
    left = distinguishability_F_closed(-h) / (-h)
    print(f"one-sided slopes of F at 0: left {left:.6f}, right {right:.6f}")
    assert right > 0.0 and left < 0.0


def test_correlation_upper_bound_basics():
    fs = unit_height_bumps()
    assert correlation_upper_bound(0.0, fs) == 0.0
    assert correlation_upper_bound(F_CLOSED_05, fs) == pytest.approx(
        F_CLOSED_05 * 2.0 * np.pi, rel=1e-12
    )
    with pytest.raises(ValueError):
        correlation_upper_bound(-1.0, fs)


# ------------------------------------------------------------------ classifier

def make_trace(taus, values):
    return CorrelationTrace(np.asarray(taus, float), np.asarray(values, float))


def test_classify_zero_trace_bernoulli():
    taus = np.linspace(0.0, 10.0, 64)
    result = classify(make_trace(taus, np.zeros(64)))
    assert result.level is IgehLevel.BERNOULLI
    assert result.evidence["mixing"] and result.evidence["ergodic"]


def test_classify_sine_trace_ergodic_not_mixing():
    taus = np.linspace(0.0, 200.0 * np.pi, 16001)
    result = classify(make_trace(taus, np.sin(taus)))
    assert result.level is IgehLevel.ERGODIC
    assert not result.evidence["mixing"]
    assert abs(result.evidence["cesaro_final"]) <= 1e-6


def test_classify_decaying_trace_mixing_not_bernoulli():
    taus = np.linspace(0.0, 40.0, 512)
    result = classify(make_trace(taus, np.exp(-taus)))
    assert result.level is IgehLevel.MIXING
    assert not result.evidence["bernoulli"]


def test_classify_unclassified_trace():
    taus = np.linspace(0.0, 10.0, 64)
    result = classify(make_trace(taus, np.ones(64)))
    assert result.level is IgehLevel.UNCLASSIFIED


def test_classify_requires_enough_samples():
    with pytest.raises(ValueError):
        classify(make_trace(np.linspace(0, 1, 8), np.zeros(8)))
    with pytest.raises(ValueError):
        classify(make_trace(np.linspace(0, 1, 32), np.zeros(32)), tail_fraction=1.5)


def test_trace_validation():
    with pytest.raises(ValueError):
        CorrelationTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        CorrelationTrace(np.zeros((2, 2)), np.zeros((2, 2)))


def test_levels_ordering():
    assert IgehLevel.BERNOULLI.implies(IgehLevel.MIXING)
    assert IgehLevel.MIXING.implies(IgehLevel.ERGODIC)
    assert not IgehLevel.ERGODIC.implies(IgehLevel.MIXING)


@given(
    kind=st.sampled_from(["zero", "sine", "decay", "noise"]),
    tol_lo=st.floats(min_value=1e-9, max_value=1e-3),
    factor=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=120, deadline=None)
def test_classify_monotone_in_tol(kind, tol_lo, factor):
    taus = np.linspace(0.0, 50.0, 256)
    values = {
        "zero": np.zeros_like(taus),
        "sine": np.sin(taus),
        "decay": np.exp(-taus),
        "noise": np.cos(3.0 * taus) * 0.3 + 0.05,
    }[kind]
    trace = make_trace(taus, values)
    loose = classify(trace, tol=tol_lo * factor)
    tight = classify(trace, tol=tol_lo)
    assert loose.level.rank >= tight.level.rank
    # reported levels always respect the strict-inclusion ordering
    for res in (loose, tight):
        if res.evidence["bernoulli"]:
            assert res.evidence["mixing"]
        if res.evidence["mixing"]:
            assert res.evidence["ergodic"]


# --------------------------------------------------------- multivariate route

def test_mvn_correlation_zero_for_diagonal():
    g = MultivariateGaussian(np.zeros(2), np.diag([1.0, 4.0]))
    fs = unit_height_bumps()
    assert abs(mvn_ig_correlation(g, fs)) < 1e-10
    assert mvn_distinguishability(g) < 1e-10


def test_mvn_reduces_to_2d_model_bound():
    # sigma_x sigma_y = 1 here, so the signed maximum equals the closed form
    # divided by the joint's central prefactor 2 pi
    r = 0.5
    g = MultivariateGaussian(np.zeros(2), np.array([[1.0, r], [r, 1.0]]))
    assert mvn_distinguishability(g) == pytest.approx(F_CLOSED_05 / (2 * np.pi), rel=1e-9)


def _permuted_4d_gaussian():
    # two correlated pairs, (0, 2) and (1, 3), with the coordinates permuted
    sd = np.array([1.5, 0.8, 2.0, 1.1])
    corr = np.eye(4)
    corr[0, 2] = corr[2, 0] = 0.6
    corr[1, 3] = corr[3, 1] = -0.3
    perm = [2, 0, 3, 1]
    cov = (corr * np.outer(sd, sd))[np.ix_(perm, perm)]
    return MultivariateGaussian(np.array([0.5, -1.0, 0.0, 2.0]), cov)


@pytest.mark.parametrize("make, expected", [
    (_permuted_4d_gaussian, 0.0033799152550723875),
    (lambda: MultivariateGaussian(np.array([0.3, -0.4]),
                                  np.array([[2.0, -0.9], [-0.9, 0.7]])),
     0.07509451736970864),
])
def test_mvn_distinguishability_pinned(make, expected):
    assert mvn_distinguishability(make()) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_mvn_bound_dominates_correlation():
    rng = np.random.default_rng(3)
    fs = unit_height_bumps()
    for _ in range(25):
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 0.3 * np.eye(2)
        g = MultivariateGaussian(rng.normal(size=2), cov)
        c = mvn_ig_correlation(g, fs, order=48)
        bound = mvn_upper_bound(g, fs)
        assert abs(c) <= bound + 1e-12


def test_mvn_correlation_4d_factorizes():
    g = MultivariateGaussian(np.zeros(4), np.diag([1.0, 2.0, 0.5, 1.5]))
    fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0, 0.0, 0.0])
    assert abs(mvn_ig_correlation(g, fs, order=16)) < 1e-10


def test_mvn_requires_matching_dimensions():
    g = MultivariateGaussian(np.zeros(2), np.eye(2))
    fs = TestFunctionSet.unit_l1_bumps([0.0])
    with pytest.raises(ValueError):
        mvn_ig_correlation(g, fs)
    with pytest.raises(ValueError):
        mvn_upper_bound(g, fs)
