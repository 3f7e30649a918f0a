import math
import tracemalloc

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
    distinguishability_F_sup,
    ig_correlation,
    ig_correlation_2d,
    marginals_2d,
    mvn_distinguishability,
    mvn_ig_correlation,
    mvn_marginal,
    mvn_pdf,
    mvn_upper_bound,
    pdf_2d,
)
from statmanifold.ergodic import _distinguishability_F_rows, _grid_zoom_max, factorization_gap_2d

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
        bound = correlation_upper_bound(params, fs)
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
    # the supremum is the closed form up to r* and the centre value beyond,
    # out to |r| = 0.999 and within 1e-6 of r* on both sides
    near_switch = BRANCH_SWITCH_R + np.array([-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2])
    rs = np.concatenate([np.linspace(-0.999, 0.999, 189), near_switch, -near_switch])
    for r in rs:
        if r == 0.0:
            continue
        params = Correlated2DParams(0.0, 1.0, r, 1.0)
        assert distinguishability_F_numeric(params) == pytest.approx(
            distinguishability_F_sup(r), rel=1e-12, abs=0.0
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
# the changes since (standard units, the sqrt(eps) zoom stop, the 121-point
# coarse scan and 7-point zoom) leave them within 2.2e-16, so a move beyond
# 1e-12 means the maximizer found a different point
@pytest.mark.parametrize("params, expected", [
    (Correlated2DParams(0.7, 1.3, 0.5, 0.6), 0.22808899523540793),
    (Correlated2DParams(-1.2, 0.4, 0.9, 1.7), 1.294157338705618),
])
def test_F_numeric_pinned_on_both_branches(params, expected):
    assert distinguishability_F_numeric(params) == pytest.approx(expected, rel=1e-12, abs=0.0)


def reference_F_numeric(params, coarse=241, half_width=8.0, zoom_rounds=42, zoom_points=33):
    """The maximizer with per-axis grids, the model density and the stop h < 1e-12 max(1, sd)."""
    p1, p2 = marginals_2d(params)
    scale = 2.0 * np.pi * params.sigma_c**2
    sds = np.array([params.sigma, params.sigma_y])

    def scan(axes):
        x, y = np.meshgrid(*axes, indexing="ij", sparse=True)
        vals = np.abs(pdf_2d(x, y, params) - p1.pdf(x) * p2.pdf(y)) * scale
        k = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[k]), np.array([ax[i] for ax, i in zip(axes, k)])

    def grid(lo, hi, n):
        return [np.linspace(a, b, n) for a, b in zip(lo, hi)]

    center = np.array([params.mu_x, 0.0])
    axes = grid(center - half_width * sds, center + half_width * sds, coarse)
    best, center = scan(axes)
    h = np.array([(ax[1] - ax[0]) * 1.5 for ax in axes])
    for _ in range(zoom_rounds):
        val, center = scan(grid(center - h, center + h, zoom_points))
        best = max(best, val)
        h *= 0.35
        if np.all(h < 1e-12 * np.maximum(1.0, sds)):
            break
    return best


def test_F_numeric_matches_reference_maximizer_on_both_branches():
    rng = np.random.default_rng(13)
    rs = np.concatenate([rng.uniform(0.05, BRANCH_SWITCH_R, 24),
                         rng.uniform(BRANCH_SWITCH_R, 0.97, 16)]) * rng.choice([-1.0, 1.0], 40)
    for r in rs:
        params = Correlated2DParams(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-1.0, 1.0),
                                    r, 10.0 ** rng.uniform(-1.0, 1.0))
        assert distinguishability_F_numeric(params) == pytest.approx(
            reference_F_numeric(params), rel=1e-12, abs=0.0)


def test_factorization_gap_matches_model_density():
    # the gap in standard units against |pdf_2d - p1 p2| from the model's own
    # densities; exponents near -700 carry a relative rounding of ~700 ulp, so
    # the scale is the larger term's peak on the grid
    rng = np.random.default_rng(17)
    t = np.linspace(-8.0, 8.0, 161)
    for _ in range(30):
        params = Correlated2DParams(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-1.0, 1.0),
                                    rng.uniform(-0.97, 0.97), 10.0 ** rng.uniform(-1.0, 1.0))
        x, y = params.mu_x + t[:, None] * params.sigma, t * params.sigma_y
        p1, p2 = marginals_2d(params)
        joint, prod = pdf_2d(x, y, params), p1.pdf(x) * p2.pdf(y)
        gap = factorization_gap_2d(params, x, y)
        assert np.max(np.abs(gap - np.abs(joint - prod))) <= 1e-14 * max(joint.max(), prod.max())


@pytest.mark.parametrize("sd", [1e-9, 1.0, 1e6])
def test_grid_zoom_stops_once_the_value_cannot_move(sd):
    # 241 coarse and 33 zoom points: 1 coarse scan, then zoom until
    # h < sqrt(eps) sd, which takes 15 rounds from 1.5 coarse cells at any
    # scale (the stop h < 1e-12 max(1, sd) took 25 at sd = 1)
    shapes = []

    def objective(grid, rows):
        shapes.append(np.shape(grid))
        u, v = grid[0] / sd
        return (-((u[:, None] - 0.3) ** 2) - (v + 0.2) ** 2)[None]

    [best] = _grid_zoom_max(objective, [[0.0, 0.0]], [[sd, sd]], 241, 33, 42, 8.0)
    assert shapes == [(1, 2, 241)] + [(1, 2, 33)] * 15
    assert best == pytest.approx(0.0, abs=1e-15)


def test_F_rows_share_zoom_rounds_and_match_single_calls_bitwise():
    # each row takes its own argmax and all rows stop on the same round, so a
    # batch changes no bit
    rng = np.random.default_rng(18)
    rs = [0.0, 0.5, -0.5, BRANCH_SWITCH_R, -BRANCH_SWITCH_R, 0.999, -0.999, 1e-9]
    rs += rng.uniform(-0.999, 0.999, 40).tolist()
    params = [Correlated2DParams(0.0, 1.0, r, 1.0) for r in rs]
    assert _distinguishability_F_rows(params) == [distinguishability_F_numeric(p) for p in params]


def test_F_rows_scan_the_coarse_grid_one_row_at_a_time():
    # a (39, 121, 121) coarse grid would hold 13.5 MB; one row's is 0.36 MB
    def peak(k):
        params = [Correlated2DParams(0.0, 1.0, r, 1.0) for r in np.linspace(-0.9, 0.9, k)]
        tracemalloc.start()
        try:
            _distinguishability_F_rows(params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations stay out of the comparison
    assert peak(39) <= 1.1 * peak(1)


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


def test_F_sup_switches_branch_at_r_star():
    for r in (0.0, 0.3, -0.5, 0.8, BRANCH_SWITCH_R):
        assert distinguishability_F_sup(r) == distinguishability_F_closed(r)
    for r in (0.85, -0.9, 0.95):
        assert distinguishability_F_sup(r) == pytest.approx(1.0 / math.sqrt(1.0 - r * r) - 1.0,
                                                            rel=1e-15)
    # continuous across the switch, and the maximizer's pinned value above it
    assert distinguishability_F_sup(math.nextafter(BRANCH_SWITCH_R, 1.0)) == pytest.approx(
        distinguishability_F_closed(BRANCH_SWITCH_R), rel=1e-12)
    assert distinguishability_F_sup(0.9) == pytest.approx(1.294157338705618, rel=1e-12)
    assert distinguishability_F_sup(-1.0) == math.inf
    with pytest.raises(ValueError):
        distinguishability_F_sup(1.5)


# |r|, F_closed(|r|) and F_sup(|r|), computed in 50-digit mpmath from the
# float |r|.  The direct forms lose 1 + a to rounding near 0 (F_closed 8e-4 off
# at 1e-14) and cancel in 1 - a^2 near 1 (F_sup 2.5e-10 off at 1 - 1e-9).
F_EDGE_REFERENCES = [
    (1e-14, 3.6787944117144232e-15, 3.6787944117144232e-15),
    (1e-12, 3.6787944117144231e-13, 3.6787944117144231e-13),
    (1e-08, 3.6787944117144235e-9, 3.6787944117144235e-9),
    (1e-04, 3.6787944362403328e-5, 3.6787944362403328e-5),
    (0.3, 0.11806206579325545, 0.11806206579325545),
    (BRANCH_SWITCH_R, 0.8392867552141614, 0.8392867552141614),
    (0.9, 1.3399183311183296, 1.2941573387056179),
    (1.0 - 1e-9, 125000004.76298056, 22359.68009678968),
]


@pytest.mark.parametrize("a, closed, sup", F_EDGE_REFERENCES)
def test_supremum_keeps_precision_at_the_edges_of_r(a, closed, sup):
    for r in (a, -a):
        assert distinguishability_F_closed(r) == pytest.approx(closed, rel=1e-13, abs=0.0)
        assert distinguishability_F_sup(r) == pytest.approx(sup, rel=1e-13, abs=0.0)
        # unit sds keep rho exact in R, so only the maximizer's own rounding shows
        g = MultivariateGaussian([0.3, -1.0], [[1.0, r], [r, 1.0]])
        assert mvn_distinguishability(g) == pytest.approx(sup / (2.0 * math.pi), rel=1e-13, abs=0.0)


def test_correlation_upper_bound_basics():
    fs = unit_height_bumps()  # ||f_1 f_2||_1 = 2 pi
    assert correlation_upper_bound(Correlated2DParams(0.0, 1.0, 0.0, 1.0), fs) == 0.0
    assert correlation_upper_bound(Correlated2DParams(0.3, 2.0, 0.5, 1.0), fs) == pytest.approx(
        F_CLOSED_05, rel=1e-12
    )
    # in units of the central prefactor 1/(2 pi sigma_c^2)
    assert correlation_upper_bound(Correlated2DParams(0.0, 1.0, -0.5, 0.5), fs) == pytest.approx(
        4.0 * F_CLOSED_05, rel=1e-12
    )
    with pytest.raises(ValueError):
        correlation_upper_bound(Correlated2DParams(0.0, 1.0, 0.5), TestFunctionSet.unit_l1_bumps([0.0]))


@pytest.mark.parametrize("sigma_c", [0.1, 0.3, 1.0, 3.0])
def test_correlation_upper_bound_tight_at_the_supremum(sigma_c):
    # beyond r* the supremum of |p - p1 p2| sits at the centre (mu_x, 0), so
    # narrow unit-L1 bumps there give C within a whisker of the bound
    params = Correlated2DParams(0.4, 1.3, 0.9, sigma_c)
    width = 1e-3 * min(1.0, params.sigma_y)
    fs = TestFunctionSet.unit_l1_bumps([params.mu_x, 0.0], width)
    ratio = ig_correlation_2d(params, fs) / correlation_upper_bound(params, fs)
    assert 0.9999 <= ratio <= 1.0


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
    # sigma_x sigma_y = 1 here, so the supremum equals the closed form
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


def test_mvn_distinguishability_is_scale_free():
    # the supremum is taken in standard units, so scaling by s only divides it by s^2
    mean, cov = np.array([0.3, -0.4]), np.array([[2.0, -0.9], [-0.9, 0.7]])
    unit = mvn_distinguishability(MultivariateGaussian(mean, cov))
    for s in (1e-9, 1e-6, 1e3, 1e6):
        scaled = mvn_distinguishability(MultivariateGaussian(mean * s, cov * s**2))
        assert scaled * s**2 == pytest.approx(unit, rel=1e-13, abs=0.0)


def stacked_distinguishability(g, sign=1.0):
    """Grid-and-zoom maximum of sign * (p - prod p_i), the density from solve and det."""
    marginals = [mvn_marginal(g, i) for i in range(g.dim)]
    det = np.linalg.det(g.covariance)

    def objective(grid, rows):
        sparse = np.meshgrid(*grid[0], indexing="ij", sparse=True)
        prod = 1.0
        for m, x in zip(marginals, sparse):
            prod = prod * m.pdf(x)
        d = np.stack(np.broadcast_arrays(*sparse)).reshape(g.dim, -1) - g.mean[:, None]
        quad = np.sum(d * np.linalg.solve(g.covariance, d), axis=0)
        joint = np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** g.dim * det)
        return sign * (joint.reshape(prod.shape) - prod)[None]

    sds = np.sqrt(np.diag(g.covariance))
    return _grid_zoom_max(objective, [g.mean], [sds], 21, 7, 40, 8.0)[0]


def _random_gaussians(rng, n):
    """Random 2-4-D Gaussians, every third one negatively equicorrelated.

    The others have cov = a a^T + d I.  With a a^T + 0.3 I about 4 % of the
    3-D and 4-D draws have two lobes within 0.1 % of each other, and a
    21-point coarse scan then zooms into the lower one.
    """
    for k in range(n):
        d = int(rng.integers(2, 5))
        if k % 3 == 0:
            c = -0.95 * rng.uniform(0.0, 1.0 / (d - 1))
            corr = (1.0 - c) * np.eye(d) + c
        else:
            a = rng.normal(size=(d, d))
            cov = a @ a.T + d * np.eye(d)
            corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        sds = rng.uniform(0.2, 3.0, d)
        yield MultivariateGaussian(rng.uniform(-1.0, 1.0, d), corr * np.outer(sds, sds))


def test_mvn_distinguishability_matches_stacked_grid():
    # the larger of the grid's maximum and minimum; the first ten have one
    # correlated pair and two independent coordinates, permuted
    rng = np.random.default_rng(12)
    gaussians = []
    for _ in range(10):
        sds = 10.0 ** rng.uniform(-1, 1, 4)
        cov = np.diag(sds**2)
        cov[0, 1] = cov[1, 0] = rng.uniform(-0.95, 0.95) * sds[0] * sds[1]
        perm = rng.permutation(4)
        gaussians.append(MultivariateGaussian(rng.uniform(-1, 1, 4)[perm],
                                              cov[np.ix_(perm, perm)]))
    for g in gaussians + list(_random_gaussians(rng, 30)):
        grid = max(stacked_distinguishability(g), stacked_distinguishability(g, -1.0))
        assert mvn_distinguishability(g) == pytest.approx(grid, rel=1e-12, abs=0.0)


def test_mvn_distinguishability_never_stacks_the_grid():
    # the stacked (4, 21^4) grid alone is 6.2 MB; the closed form builds no grid
    g = _permuted_4d_gaussian()
    tracemalloc.start()
    try:
        mvn_distinguishability(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


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


def test_mvn_bound_holds_where_the_negative_lobe_is_larger():
    # at equicorrelation -0.05 the gap's minimum is 1.9 times its maximum in
    # 3-D, and narrow bumps at (1, 1, 1) sit in the negative lobe
    g = MultivariateGaussian(np.zeros(3), 1.05 * np.eye(3) - 0.05)
    fs = TestFunctionSet.unit_l1_bumps([1.0, 1.0, 1.0], 1e-3)
    c = mvn_ig_correlation(g, fs)
    assert c == pytest.approx(-2.128e-3, rel=1e-3)
    assert abs(c) <= mvn_upper_bound(g, fs)


def test_mvn_maximum_of_a_50d_block_gaussian():
    # one correlated pair and 48 independent coordinates: the gap factors into
    # the pair's gap times the independent densities, which peak at their means
    rng = np.random.default_rng(50)
    rho = -0.6
    sds = rng.uniform(0.5, 2.0, 50)
    cov = np.diag(sds**2)
    cov[0, 1] = cov[1, 0] = rho * sds[0] * sds[1]
    perm = rng.permutation(50)
    g = MultivariateGaussian(rng.uniform(-1.0, 1.0, 50), cov[np.ix_(perm, perm)])
    expected = (distinguishability_F_sup(rho) / (2 * np.pi * sds[0] * sds[1])
                * math.prod(1.0 / (math.sqrt(2 * np.pi) * s) for s in sds[2:]))
    assert mvn_distinguishability(g) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_mvn_correlation_4d_factorizes():
    g = MultivariateGaussian(np.zeros(4), np.diag([1.0, 2.0, 0.5, 1.5]))
    fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0, 0.0, 0.0])
    assert abs(mvn_ig_correlation(g, fs, order=16)) < 1e-10


def test_mvn_maximum_matches_bivariate_supremum():
    # every bivariate Gaussian has sup (p - p1 p2) = F_sup(rho) / (2 pi s1 s2),
    # whatever its means: an oracle the grid does not share
    rng = np.random.default_rng(29)
    rhos = np.concatenate([rng.uniform(0.01, BRANCH_SWITCH_R, 24),
                           rng.uniform(BRANCH_SWITCH_R, 0.999, 16)]) * rng.choice([-1.0, 1.0], 40)
    for rho in rhos:
        s1, s2 = np.exp(rng.uniform(-1.0, 1.0, 2))
        cov = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
        g = MultivariateGaussian(rng.uniform(-3.0, 3.0, 2), cov)
        assert mvn_distinguishability(g) == pytest.approx(
            distinguishability_F_sup(rho) / (2 * np.pi * s1 * s2), rel=1e-12, abs=0.0)


def test_mvn_maximum_rejects_a_1d_joint():
    # a 1-D joint is its own marginal, so its maximum would be a silent zero
    g = MultivariateGaussian([0.0], [[1.0]])
    with pytest.raises(ValueError, match="at least two"):
        mvn_distinguishability(g)
    with pytest.raises(ValueError, match="at least two"):
        mvn_upper_bound(g, TestFunctionSet.unit_l1_bumps([0.0]))


def test_mvn_requires_matching_dimensions():
    g = MultivariateGaussian(np.zeros(2), np.eye(2))
    fs = TestFunctionSet.unit_l1_bumps([0.0])
    with pytest.raises(ValueError):
        mvn_ig_correlation(g, fs)
    with pytest.raises(ValueError):
        mvn_upper_bound(g, fs)


# ------------------------------------------------------ exact bump correlations

def identity_terms(mean, cov, bumps):
    """(joint, product) of the product-of-Gaussians identity, written out:

    joint   = prod h_i (2 pi)^(d/2) prod w_i N(c; mean, cov + diag(w^2))
    product = prod_i h_i sqrt(2 pi) w_i N(c_i; mean_i, cov_ii + w_i^2)
    """
    mean, cov = np.asarray(mean, float), np.asarray(cov, float)
    c = np.array([b.center for b in bumps])
    w = np.array([b.width for b in bumps])
    h = np.array([b.height for b in bumps])
    s = cov + np.diag(w**2)
    d = c - mean
    dim = c.size
    normal = math.exp(-0.5 * d @ np.linalg.inv(s) @ d) / math.sqrt(
        (2.0 * math.pi) ** dim * np.linalg.det(s))
    joint = np.prod(h) * (2.0 * math.pi) ** (dim / 2.0) * np.prod(w) * normal
    product = 1.0
    for i in range(dim):
        var = s[i, i]
        product *= h[i] * math.sqrt(2.0 * math.pi) * w[i] * math.exp(
            -d[i] ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return joint, product


def random_joint(rng, dim):
    """Random SPD covariance with axis sd in 10^[-0.5, 0.5], random mean."""
    a = rng.normal(size=(dim, dim))
    s = a @ a.T + 0.5 * np.eye(dim)
    sd = 10.0 ** rng.uniform(-0.5, 0.5, dim)
    corr = s / np.sqrt(np.outer(np.diag(s), np.diag(s)))
    return MultivariateGaussian(rng.normal(size=dim), corr * np.outer(sd, sd)), sd


def random_bumps(rng, g, sd, width_lo, width_hi):
    """Bumps centred within 1 sd, widths log-uniform in [width_lo, width_hi] sd."""
    return [
        GaussianBump(m + s * rng.uniform(-1.0, 1.0),
                     s * math.exp(rng.uniform(math.log(width_lo), math.log(width_hi))),
                     rng.uniform(0.2, 2.0))
        for m, s in zip(g.mean, sd)
    ]


def wrapped(bumps):
    """The same test functions as plain callables, which take the quadrature path."""
    return TestFunctionSet(tuple(lambda x, b=b: b(x) for b in bumps),
                           tuple(b.l1_norm for b in bumps))


@pytest.mark.parametrize("dim, order", [(2, 48), (3, 30), (4, 20)])
def test_bump_closed_form_matches_quadrature(dim, order):
    rng = np.random.default_rng(100 + dim)
    for _ in range(6):
        g, sd = random_joint(rng, dim)
        bumps = random_bumps(rng, g, sd, 1.5, 4.0)
        fs = TestFunctionSet.from_bumps(bumps)
        spec = IntegrationSpec.for_gaussian(g.mean, g.covariance, order)
        marginals = [mvn_marginal(g, i) for i in range(dim)]
        quad = ig_correlation(lambda x: mvn_pdf(x, g), marginals, fs, spec)
        scale = max(map(abs, identity_terms(g.mean, g.covariance, bumps)))
        assert abs(mvn_ig_correlation(g, fs) - quad) <= 1e-12 * scale
        # plain callables take the quadrature path of the same entry point
        assert abs(mvn_ig_correlation(g, wrapped(bumps), order=order) - quad) <= 1e-12 * scale
    for _ in range(6):
        params = Correlated2DParams(rng.normal(), 10.0 ** rng.uniform(-0.5, 0.5),
                                    rng.uniform(-0.95, 0.95), 10.0 ** rng.uniform(-0.5, 0.5))
        g = MultivariateGaussian([params.mu_x, 0.0], params.covariance())
        bumps = random_bumps(rng, g, [params.sigma, params.sigma_y], 1.5, 4.0)
        fs = TestFunctionSet.from_bumps(bumps)
        scale = max(map(abs, identity_terms(g.mean, g.covariance, bumps)))
        quad = ig_correlation_2d(params, wrapped(bumps), order=48)
        assert abs(ig_correlation_2d(params, fs) - quad) <= 1e-12 * scale


@pytest.mark.parametrize("order", [20, 48, 64])
def test_2d_correlation_is_the_mvn_correlation(order):
    # one routine behind both entry points: the same joint gives the same float
    rng = np.random.default_rng(order)
    for _ in range(6):
        params = Correlated2DParams(rng.normal(), 10.0 ** rng.uniform(-0.5, 0.5),
                                    rng.uniform(-0.95, 0.95), 10.0 ** rng.uniform(-0.5, 0.5))
        g = MultivariateGaussian([params.mu_x, 0.0], params.covariance())
        fs = wrapped(random_bumps(rng, g, [params.sigma, params.sigma_y], 1.5, 4.0))
        assert ig_correlation_2d(params, fs, order=order) == mvn_ig_correlation(g, fs, order=order)


def test_narrow_bumps_match_the_identity():
    # the benchmark's defect region, where quadrature missed the bumps and
    # returned values near zero, and beyond it down to 1e-3 sd
    rng = np.random.default_rng(7)
    for width_lo, width_hi in ((0.1, 0.5), (1e-3, 1e-2)):
        for _ in range(20):
            params = Correlated2DParams(rng.normal(), 10.0 ** rng.uniform(-1.0, 1.0),
                                        rng.uniform(-0.95, 0.95), rng.uniform(0.1, 3.0))
            g = MultivariateGaussian([params.mu_x, 0.0], params.covariance())
            bumps = random_bumps(rng, g, [params.sigma, params.sigma_y], width_lo, width_hi)
            joint, product = identity_terms(g.mean, g.covariance, bumps)
            c = ig_correlation_2d(params, TestFunctionSet.from_bumps(bumps))
            assert abs(c - (joint - product)) <= 1e-12 * max(abs(joint), abs(product))
    for width_lo, width_hi in ((0.1, 1.0), (1e-3, 1e-2)):
        for _ in range(10):
            g, sd = random_joint(rng, 4)
            bumps = random_bumps(rng, g, sd, width_lo, width_hi)
            joint, product = identity_terms(g.mean, g.covariance, bumps)
            c = mvn_ig_correlation(g, TestFunctionSet.from_bumps(bumps))
            assert abs(c - (joint - product)) <= 1e-12 * max(abs(joint), abs(product))


@pytest.mark.parametrize("sigma_c", [0.1, 0.3, 1.0])
def test_narrow_bumps_are_not_a_silent_zero(sigma_c):
    # r = 0.5, unit-height bumps of width 0.01 min(1, sigma_y) one sd out on
    # each axis: order-64 quadrature returned 0, 2.7e-126 and 1.1e-3 here,
    # against the exact 2.2e-7, 2.0e-6 and 2.2e-5
    params = Correlated2DParams(0.0, 1.0, 0.5, sigma_c)
    bumps = [GaussianBump(params.sigma, 0.01 * min(1.0, params.sigma_y)),
             GaussianBump(params.sigma_y, 0.01 * min(1.0, params.sigma_y))]
    joint, product = identity_terms([0.0, 0.0], params.covariance(), bumps)
    c = ig_correlation_2d(params, TestFunctionSet.from_bumps(bumps))
    assert abs(c - (joint - product)) <= 1e-12 * joint
    assert c > 0.1 * joint


def _eight_dim_joint(pair_cov):
    sd = np.array([0.5, 1.0, 2.0, 0.7, 1.3, 3.0])
    cov = np.zeros((8, 8))
    cov[:2, :2] = pair_cov
    cov[2:, 2:] = np.diag(sd**2)
    perm = [3, 0, 6, 2, 7, 1, 5, 4]
    mean = np.array([0.2, -0.1, 1.0, -2.0, 0.0, 0.5, 3.0, -0.7])
    return cov, mean, perm, sd


def test_bump_correlation_beyond_four_dimensions():
    pair_cov = np.array([[1.5, -0.8], [-0.8, 0.9]])
    cov, mean, perm, sd = _eight_dim_joint(pair_cov)
    # the pair's bumps are at least 1.5 sd wide, so order-48 quadrature is exact
    bumps = [GaussianBump(0.6, 2.0, 0.8), GaussianBump(-0.4, 1.6, 1.7)] + [
        GaussianBump(m + 0.5 * s, 0.8 * s, 1.0 + 0.1 * k) for k, (m, s) in enumerate(zip(mean[2:], sd))
    ]
    pair_spec = IntegrationSpec.for_gaussian(mean[:2], pair_cov, 48)
    pair_g = MultivariateGaussian(mean[:2], pair_cov)
    pair_marginals = [mvn_marginal(pair_g, i) for i in range(2)]
    pair_c = ig_correlation(lambda x: mvn_pdf(x, pair_g), pair_marginals,
                            TestFunctionSet.from_bumps(bumps[:2]), pair_spec)
    # int N(x; m, s^2) h exp(-(x - c)^2 / 2 w^2) dx = h w / sqrt(s^2 + w^2) exp(-(c - m)^2 / 2 (s^2 + w^2))
    singles = [b.height * b.width / math.sqrt(s**2 + b.width**2)
               * math.exp(-((b.center - m) ** 2) / (2.0 * (s**2 + b.width**2)))
               for b, m, s in zip(bumps[2:], mean[2:], sd)]
    expected = pair_c * math.prod(singles)

    g = MultivariateGaussian(mean[perm], cov[np.ix_(perm, perm)])
    fs = TestFunctionSet.from_bumps([bumps[i] for i in perm])
    assert mvn_ig_correlation(g, fs) == pytest.approx(expected, rel=1e-12)

    diagonal = MultivariateGaussian(mean, np.diag(np.diag(cov)))
    assert abs(mvn_ig_correlation(diagonal, TestFunctionSet.from_bumps(bumps))) < 1e-15
    with pytest.raises(ValueError, match="dimension <= 4"):
        mvn_ig_correlation(g, wrapped(bumps))


def test_bump_path_keeps_validation():
    fs2 = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
    with pytest.raises(DegenerateCorrelationError):
        ig_correlation_2d(Correlated2DParams(0.0, 1.0, 1.0), fs2)
    with pytest.raises(ValueError, match="must agree"):
        ig_correlation_2d(Correlated2DParams(0.0, 1.0, 0.5), TestFunctionSet.unit_l1_bumps([0.0] * 3))
    with pytest.raises(ValueError, match="at least two"):
        mvn_ig_correlation(MultivariateGaussian([0.0], [[1.0]]), TestFunctionSet.unit_l1_bumps([0.0]))
    with pytest.raises(ValueError, match="one test function per coordinate"):
        mvn_ig_correlation(MultivariateGaussian(np.zeros(6), np.eye(6)), fs2)
