"""Tests of the benchmark's oracles, failure accounting and tracer."""

import math

import pytest

import layertrace
import oracles
import run
import workloads


def test_oracles_reproduce_exact_cases():
    # ig_correlation_2d(Correlated2DParams(0.3, 1.2, 0.6, 0.8), unit_l1_bumps([0, 0]))
    sigma, r, sigma_c = 1.2, 0.6, 0.8
    sy = sigma_c**2 / sigma
    cov = [[sigma**2, r * sigma * sy], [r * sigma * sy, sy**2]]
    h = 1.0 / math.sqrt(2.0 * math.pi)
    c, _, _ = oracles.bump_correlation([0.3, 0.0], cov, [0.0, 0.0], [1.0, 1.0], [h, h])
    assert c == pytest.approx(0.0020702518296805, abs=1e-12)
    assert oracles.f_sup(0.9) == pytest.approx(1.294157338705618, abs=1e-15)
    assert oracles.scalar_curvature(0.5) == -0.375
    a = oracles.R_STAR
    assert (1.0 - a) * (1.0 + a) ** 3 == pytest.approx(1.0, abs=1e-15)
    # the two branches of F meet at R_STAR
    assert oracles.f_closed(a) == pytest.approx(1.0 / math.sqrt(1.0 - a * a) - 1.0, rel=1e-12)


def _tally(ops):
    tally = run.Tally()
    for op in ops:
        latency, reason = run.execute(op)
        tally.add(op, latency, reason)
    return tally


def test_checked_op_passes():
    op = workloads.curvature_op(1.0, (-0.5, 0.5), 32)
    tally = _tally([op])
    assert tally.attempted["curvature-scan"] == 1
    assert not tally.failed and tally.passed_work == 4.0


def test_wrong_result_and_raising_ops_count_as_failed():
    wrong = workloads.corr2d_op(0.0, 1.0, 0.5, 1.0, [0.0, 0.0], [2.0, 2.0])
    wrong.call = lambda: 0.0
    # negative values without "=" make argparse exit; the pass must go on
    exits = workloads.Op("geodesic", 100, lambda: workloads.run_cli(["geodesic", "--theta0", "-0.3,1"]),
                         lambda result: None)
    raises = workloads.curvature_op(1.0, (-0.5, 0.5), 32)
    raises.call = lambda: 1 / 0
    tally = _tally([wrong, exits, raises])
    assert sum(tally.failed.values()) == 3 and tally.passed_work == 0.0
    assert tally.reasons["geodesic: SystemExit"] == 1
    assert tally.reasons["curvature-scan: ZeroDivisionError"] == 1


@pytest.mark.parametrize("workload", ["curvature-scan", "geodesic"])
def test_workload_ops_pass(workload):
    tally = _tally(workloads.make_pass(workload, 1, 0))
    assert not tally.failed, tally.reasons


def test_defect_probe_covers_each_defect_and_fails_there():
    ops = workloads.defect_probe_ops()
    assert {op.kind for op in ops} == set(workloads.DEFECT_KINDS)
    assert [op.kind for op in ops] == [op.kind for op in workloads.defect_probe_ops()]
    # sigma0 = 0.002 lies in the documented finite-difference defect region
    tally = _tally([workloads.geodesic_op((0.0, 0.002), (0.0, -0.002), 0.0)])
    assert tally.failed["geodesic"] == 1


def test_tracer_counts_repeat_and_originals_return():
    import statmanifold.manifold as manifold

    original = manifold.MetricField.__call__
    op = workloads.curvature_op(1.0, (-0.5, 0.5), 32)
    counts = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            run.execute(op, tracer, 0)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        counts.append({k: v for k, v in snap.items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["manifold.metric_evals"] == 4 * 17
    assert manifold.MetricField.__call__ is original


def test_tracer_skips_missing_names(monkeypatch):
    monkeypatch.setattr(layertrace, "SPAN_TARGETS",
                        layertrace.SPAN_TARGETS + [("manifold", "no_such_function", "manifold.gone")])
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["manifold.no_such_function"]
