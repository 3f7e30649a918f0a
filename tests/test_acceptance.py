"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Expected values marked as frozen were computed from the stated
independent oracles (closed forms, dense-grid maximization, Riemann sums,
matrix identities) and are pinned here.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from statmanifold import (
    BRANCH_SWITCH_R,
    Correlated2DParams,
    CorrelationTrace,
    GaussianBump,
    GeodesicState,
    HalfPlane,
    HeatBath,
    IgehLevel,
    MetricField,
    OscillatorPair,
    QuadraticHamiltonian,
    TestFunctionSet,
    canonical_to_gaussian,
    classify,
    correlated_2d_family,
    correlation_upper_bound,
    covariance_hessian_law,
    distinguishability_F_closed,
    distinguishability_F_numeric,
    effective_correlation,
    geodesic_integrate,
    geometry_report,
    goe_model,
    ig_correlation_2d,
    metric_speed,
    mvn_ig_correlation,
    mvn_pdf,
    mvn_upper_bound,
    oscillator_mixing_trace,
)

from gaussians import marginals_2d, midpoint_rule

# F(0.5) from the closed form, confirmed by the grid-maximization oracle
# (the two agree to ~1e-15)
F_HALF = 0.2280889952354077


@contextlib.contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({description}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS [{time.time() - start:.1f}s]")


def test_criterion_1_f_curve_oracle_equivalence():
    # F(r) has two branches.  For |r| <= BRANCH_SWITCH_R (root of
    # (1-r)(1+r)^3 = 1) the supremum of |p - p1 p2| lies at the interior
    # diagonal critical point and equals the closed form.  Beyond it that
    # point no longer exists and the supremum is the centre value
    # 1/sqrt(1-r^2) - 1, strictly below the closed form, which stays an upper
    # bound.  A library-free 4001^2 grid on +-5 sd finds the supremum at
    # (0, 0) with 0.898315992 (r = 0.85), 1.294157339 (|r| = 0.9) and
    # 2.202563076 (|r| = 0.95), the centre values; at r = 0.5 and 0.8 it
    # matches the closed form.
    with criterion(1, "F-curve oracle equivalence"):
        start = time.time()
        rstar = BRANCH_SWITCH_R
        assert abs((1.0 - rstar) * (1.0 + rstar) ** 3 - 1.0) <= 1e-12
        assert abs(distinguishability_F_closed(rstar) - rstar) <= 1e-12
        assert abs(1.0 / math.sqrt(1.0 - rstar**2) - 1.0 - rstar) <= 1e-12
        rs = [0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9, 0.95, -0.95]
        mismatches = []
        for r in rs:
            closed = distinguishability_F_closed(r)
            numeric = distinguishability_F_numeric(r)
            if abs(r) <= rstar:
                branch, expected = "closed form", closed
            else:
                branch, expected = "centre value", 1.0 / math.sqrt(1.0 - r * r) - 1.0
                assert closed > numeric, f"r={r}: closed form {closed} is not above sup {numeric}"
            if abs(numeric - expected) > 1e-6:
                mismatches.append((r, branch, expected, numeric))
        assert distinguishability_F_closed(0.0) == 0.0
        assert abs(distinguishability_F_closed(0.5) - F_HALF) <= 1e-6
        assert time.time() - start < 30.0
        assert not mismatches, "; ".join(
            f"r={r}: {branch} {e:.7f}, sup {n:.7f}" for r, branch, e, n in mismatches
        )


def test_criterion_2_closed_form_geometry_reproduction():
    with criterion(2, "closed-form geometry reproduction"):
        start = time.time()
        tol = 1e-4
        for r in (-0.9, -0.5, 0.0, 0.5, 0.9):
            field = MetricField.from_model(correlated_2d_family(r))
            for sigma in (0.5, 1.0, 2.0):
                rep = geometry_report(field, [0.3, sigma])
                gam = rep.christoffel
                assert abs(gam[0, 0, 1] - (-1.0 / sigma)) <= tol
                assert abs(gam[0, 1, 0] - (-1.0 / sigma)) <= tol
                assert abs(gam[1, 0, 0] - (1.0 / (4.0 * sigma))) <= tol
                assert abs(gam[1, 1, 1] - (-1.0 / sigma)) <= tol
                assert abs(rep.ricci[0, 0] - (-1.0 / (4.0 * sigma**2))) <= tol
                assert abs(rep.ricci[1, 1] - (-1.0 / sigma**2)) <= tol
                assert abs(rep.scalar - (-(1.0 - r**2) / 2.0)) <= tol
        assert time.time() - start < 120.0


def test_criterion_3_covariance_hessian_law():
    with criterion(3, "covariance-Hessian temperature law"):
        rng = np.random.default_rng(2024)
        for k in range(100):
            n = 1 + k % 3
            d = 2 * n
            a = rng.normal(size=(d, d))
            h = QuadraticHamiltonian(rng.normal(size=d), a @ a.T + 0.2 * np.eye(d))
            bath = HeatBath(rng.uniform(0.2, 5.0) * rng.uniform(0.5, 2.0))  # k_B T
            lhs, rhs = covariance_hessian_law(h, bath)
            assert abs(lhs - rhs) / rhs <= 1e-10
        # n = 1: covariance by midpoint quadrature of the canonical density, on a
        # box placed from the marginal standard deviations alone
        a = rng.normal(size=(2, 2))
        h = QuadraticHamiltonian(rng.normal(size=2), a @ a.T + 0.2 * np.eye(2))
        bath = HeatBath(1.7)
        g = canonical_to_gaussian(h, bath)
        pts, w = midpoint_rule(g.mean, np.sqrt(np.diag(g.covariance)), 96)
        cov = np.cov(pts, aweights=w * np.exp(-bath.beta * h.energy(pts)), bias=True)
        expected = np.linalg.inv(bath.beta * h.hessian)
        assert np.abs(cov - expected).max() <= 1e-4


def test_criterion_4_oscillator_transition():
    with criterion(4, "oscillator transition"):
        # two derivations of the scalar curvature agree exactly
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
            r_eff = effective_correlation(ratio, 1.0)
            assert abs(HalfPlane.correlated(r_eff).scalar_curvature
                       - HalfPlane.oscillator(ratio, 1.0).scalar_curvature) <= 1e-12

        o = OscillatorPair(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, T0=1.0, r=0.5)
        schedule = [1.0 - 0.5**k for k in range(1, 21)]
        result = oscillator_mixing_trace(o, schedule)
        assert result.classification.level is IgehLevel.MIXING
        assert np.all(np.abs(result.trace.values) <= result.envelope + 1e-12)

        constant = oscillator_mixing_trace(o, [1.0] * 20)
        assert constant.classification.level is IgehLevel.BERNOULLI
        assert np.all(np.abs(constant.trace.values) <= constant.envelope + 1e-12)


def test_criterion_5_goe_report():
    with criterion(5, "2x2 random-matrix ensemble report"):
        joint = goe_model(0.0, 1.0, 0.0, 1.0)
        reduced = Correlated2DParams(0.0, 1.0, 0.0, 1.0)
        assert np.array_equal(joint.covariance[:2, :2], reduced.covariance())
        p1, p2 = marginals_2d(reduced)
        grid = np.linspace(-4.0, 4.0, 41)
        H11, H22, H12, H21 = np.meshgrid(grid, grid, grid[::4], grid[::4], indexing="ij")
        s = reduced.sigma  # the off-diagonal entries' scale
        gauss = lambda v: np.exp(-(v**2) / (2 * s**2)) / math.sqrt(2 * math.pi * s**2)
        err = np.abs(
            mvn_pdf((H11, H22, H12, H21), joint)
            - p1.pdf(H11) * p2.pdf(H22) * gauss(H12) * gauss(H21)
        ).max()
        assert err <= 1e-12
        assert HalfPlane.correlated(reduced.r).scalar_curvature == pytest.approx(-0.5, abs=1e-15)

        # uncorrelated ensemble is at the strongest level: C vanishes along
        # any parameter path, here a drift of the mean
        fs = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
        taus = np.linspace(0.0, 3.0, 16)
        values = [
            ig_correlation_2d(Correlated2DParams(mu, 1.0, 0.0, 1.0), fs, order=32)
            for mu in taus
        ]
        outcome = classify(CorrelationTrace(taus, values))
        assert outcome.level is IgehLevel.BERNOULLI

        # curvature rises toward 0 with increasing |r|
        rs = np.linspace(0.0, 0.99, 12)
        covs = [goe_model(0.0, 1.0, r, 1.0).covariance for r in rs]
        curv = [HalfPlane.correlated(c[0, 1] / math.sqrt(c[0, 0] * c[1, 1])).scalar_curvature
                for c in covs]
        assert all(b > a for a, b in zip(curv, curv[1:]))
        assert curv[-1] > -0.01


def test_criterion_6_property_suites():
    with criterion(6, "property suites"):
        # |C| <= bound on randomized trials (2D closed-form route and
        # multivariate maximizer route)
        rng = np.random.default_rng(99)
        fs_fixed = TestFunctionSet.unit_l1_bumps([0.0, 0.0])
        for k in range(200):
            r = rng.uniform(-0.95, 0.95)
            params = Correlated2DParams(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), r, 1.0)
            fs = TestFunctionSet.from_bumps([
                GaussianBump(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)),
                GaussianBump(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)),
            ])
            c = ig_correlation_2d(params, fs, order=48)
            bound = correlation_upper_bound(params, fs)
            assert abs(c) <= bound + 1e-12, f"bound violated on trial {k}"
        for k in range(20):
            from statmanifold import MultivariateGaussian

            a = rng.normal(size=(2, 2))
            g = MultivariateGaussian(rng.normal(size=2), a @ a.T + 0.3 * np.eye(2))
            c = mvn_ig_correlation(g, fs_fixed, order=48)
            assert abs(c) <= mvn_upper_bound(g, fs_fixed) + 1e-12

        # classifier level ordering on every classified trace
        taus = np.linspace(0.0, 50.0, 256)
        for values in (np.zeros_like(taus), np.exp(-taus), np.sin(taus), np.cos(taus) + 2):
            outcome = classify(CorrelationTrace(taus, values))
            ev = outcome.evidence
            if ev["bernoulli"]:
                assert ev["mixing"]
            if ev["mixing"]:
                assert ev["ergodic"]

        # oscillating trace: ergodic but not mixing
        taus = np.linspace(0.0, 200.0 * np.pi, 16001)
        outcome = classify(CorrelationTrace(taus, np.sin(taus)))
        assert outcome.level is IgehLevel.ERGODIC
        assert not outcome.evidence["mixing"]

        # geodesic speed conservation within 1e-6 relative
        from statmanifold import ParameterDomain

        field = MetricField.from_function(
            2, HalfPlane.correlated(0.5).metric,
            domain=ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf]),
        )
        init = GeodesicState(np.array([0.0, 1.0]), np.array([0.4, 0.2]), 0.0)
        res = geodesic_integrate(field, init, 10.0, 1e-3)
        speeds = np.array([metric_speed(field, s) for s in res.states])
        assert np.abs(speeds - speeds[0]).max() / speeds[0] <= 1e-6
