import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statmanifold import canonical, cli, distinguishability_F_sup, ergodic, manifold, models
from statmanifold.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main
from statmanifold.errors import NumericalError, SingularMetricError


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def parser_refusal(argv, capsys):
    """The one stderr line with which argparse refuses ``argv``, exiting 2 before any output."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and captured.out == ""
    return err[0]


def test_f_curve_csv(tmp_path):
    # within the branch-switch radius the two columns agree at 1e-6
    out = tmp_path / "f.csv"
    code = main(["f-curve", "--out", str(out), "--r-start", "-0.8",
                 "--r-stop", "0.8", "--r-count", "33", "--tol", "1e-6"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert [c for c in rows[0]] == ["r", "F_closed", "F_numeric", "abs_diff"]
    assert len(rows) == 33
    rs = [float(row["r"]) for row in rows]
    fc = [float(row["F_closed"]) for row in rows]
    mid = len(rows) // 2
    assert rs[mid] == pytest.approx(0.0)
    assert fc[mid] == 0.0  # minimum at r = 0
    assert float(rows[mid]["F_numeric"]) < 1e-12
    # symmetric curve
    assert fc == pytest.approx(fc[::-1], rel=1e-9)
    # frozen value at r = 0.5
    row_half = next(row for row in rows if abs(float(row["r"]) - 0.5) < 1e-12)
    assert float(row_half["F_closed"]) == pytest.approx(0.2280889952354077, abs=1e-9)
    assert float(row_half["F_numeric"]) == pytest.approx(0.2280889952354077, abs=1e-6)
    assert all(float(row["abs_diff"]) <= 1e-6 for row in rows)
    # trailing newline and full precision
    text = out.read_text()
    assert text.endswith("\n")
    assert "0.2280889952354" in text


def test_f_curve_full_range_reports_branch_divergence(tmp_path):
    # beyond |r| ~ 0.839 the closed form exceeds the attained supremum, so a
    # sweep to +-0.95 correctly reports a tolerance breach while still
    # producing a symmetric curve with its minimum at r = 0
    out = tmp_path / "f.csv"
    code = main(["f-curve", "--out", str(out), "--r-start", "-0.95",
                 "--r-stop", "0.95", "--r-count", "39", "--tol", "1e-6"])
    assert code == EXIT_TOLERANCE
    rows = read_csv(str(out))
    assert len(rows) == 39
    inner = [row for row in rows if abs(float(row["r"])) <= 0.8]
    outer = [row for row in rows if abs(float(row["r"])) > 0.85]
    assert all(float(row["abs_diff"]) <= 1e-6 for row in inner)
    assert all(float(row["abs_diff"]) > 1e-3 for row in outer)
    fc = [float(row["F_closed"]) for row in rows]
    assert fc == pytest.approx(fc[::-1], rel=1e-9)
    assert min(fc) == 0.0


def test_f_curve_json_matches_csv(tmp_path):
    args = ["f-curve", "--r-start", "-0.5", "--r-stop", "0.5", "--r-count", "5"]
    out_csv = tmp_path / "f.csv"
    out_json = tmp_path / "f.jsonl"
    assert main(args + ["--out", str(out_csv)]) == EXIT_OK
    assert main(args + ["--out", str(out_json), "--format", "json"]) == EXIT_OK
    rows_csv = read_csv(str(out_csv))
    rows_json = read_jsonl(str(out_json))
    assert len(rows_csv) == len(rows_json) == 5
    for rc, rj in zip(rows_csv, rows_json):
        assert list(rc.keys()) == list(rj.keys())
        for key in rc:
            assert float(rc[key]) == pytest.approx(rj[key], rel=1e-15)


def test_f_curve_validation_error(capsys):
    # the order of the ends relates two flags, so the command checks it
    assert main(["f-curve", "--r-start", "0.5", "--r-stop", "-0.5"]) == EXIT_VALIDATION
    assert "--r-start" in parser_refusal(["f-curve", "--r-start", "-1.2", "--r-stop", "0.5"], capsys)
    assert "--r-count" in parser_refusal(["f-curve", "--r-count", "1"], capsys)


def test_f_curve_tolerance_breach(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["f-curve", "--out", str(out), "--r-count", "3", "--tol", "1e-18"])
    assert code == EXIT_TOLERANCE
    assert out.exists()  # rows are still written


def test_f_curve_io_error(tmp_path):
    code = main(["f-curve", "--out", str(tmp_path / "missing" / "f.csv"),
                 "--r-count", "3"])
    assert code == EXIT_IO


def test_curvature_scan(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["curvature-scan", "--out", str(out),
                 "--sigma-start", "0.5", "--sigma-stop", "2.0", "--sigma-count", "2",
                 "--r-start", "-0.6", "--r-stop", "0.6", "--r-count", "3",
                 "--tol", "1e-4"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert list(rows[0].keys()) == ["sigma", "r", "R_closed", "R_numeric", "abs_diff"]
    assert len(rows) == 6
    for row in rows:
        assert float(row["abs_diff"]) <= 1e-4
        if abs(float(row["r"])) < 1e-12:
            assert float(row["R_closed"]) == pytest.approx(-0.5)
    # R(0.9) example value
    out2 = tmp_path / "scan2.csv"
    assert main(["curvature-scan", "--out", str(out2),
                 "--sigma-start", "1.0", "--sigma-stop", "2.0", "--sigma-count", "2",
                 "--r-start", "0.89", "--r-stop", "0.9", "--r-count", "2"]) == EXIT_OK
    row = read_csv(str(out2))[1]
    assert float(row["R_closed"]) == pytest.approx(-0.095, abs=1e-12)


def test_oscillator_command(tmp_path):
    out = tmp_path / "osc.csv"
    code = main(["oscillator", "--out", str(out), "--schedule", "geometric",
                 "--steps", "20"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert list(rows[0].keys()) == ["T_ratio", "r_eff", "tau", "R", "C_bound", "igeh_level"]
    assert len(rows) == 20
    assert rows[0]["igeh_level"] == "mixing"
    assert float(rows[0]["T_ratio"]) == pytest.approx(0.5)
    assert float(rows[0]["r_eff"]) == pytest.approx(np.sqrt(0.5))
    assert float(rows[0]["tau"]) == pytest.approx(2.0)
    assert float(rows[0]["R"]) == pytest.approx(-0.25)


@pytest.mark.parametrize("command", ["f-curve", "oscillator", "goe", "geodesic"])
def test_quad_order_belongs_to_curvature_scan(command):
    # only curvature-scan reads the quadrature order; elsewhere the flag is an error
    with pytest.raises(SystemExit) as exc:
        main([command, "--quad-order", "20"])
    assert exc.value.code == EXIT_VALIDATION


def test_oscillator_stdout_is_that_of_the_per_sample_route(monkeypatch, capsys):
    # the schedule's one stacked correlation pass prints what one call per sample printed
    rng = np.random.default_rng(26)
    argvs = [["oscillator"]]
    for i in range(20):
        m1, m2, w1, w2 = (10.0 ** rng.uniform(-0.5, 0.5, 4)).tolist()
        argv = ["oscillator", f"--m1={m1!r}", f"--m2={m2!r}", f"--omega1={w1!r}", f"--omega2={w2!r}",
                f"--t0={10.0 ** rng.uniform(-0.5, 0.5)!r}", f"--coupling={rng.uniform(-0.9, 0.9)!r}"]
        if i % 2:
            argv += ["--schedule=linear", f"--t-ratio-start={rng.uniform(0.05, 0.5)!r}",
                     f"--t-ratio-stop={rng.uniform(0.9, 0.999)!r}"]
        argvs.append(argv)

    def stdout():
        texts = []
        for argv in argvs:
            assert main(argv) == EXIT_OK
            texts.append(capsys.readouterr().out)
        return texts

    stacked = stdout()
    one_joint = ergodic._gaussian_correlation
    monkeypatch.setattr(canonical, "_gaussian_correlation", lambda mean, cov, fs, order: np.array(
        [one_joint(mean, c, fs, order) for c in cov]))
    assert stdout() == stacked


def test_oscillator_constant_schedule_bernoulli(tmp_path):
    out = tmp_path / "osc.csv"
    code = main(["oscillator", "--out", str(out), "--schedule", "linear",
                 "--t-ratio-start", "0.999999999", "--t-ratio-stop", "1.0",
                 "--steps", "20"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert rows[-1]["igeh_level"] == "bernoulli"
    assert float(rows[-1]["r_eff"]) == pytest.approx(0.0)
    assert float(rows[-1]["R"]) == pytest.approx(-0.5)


def test_goe_command(tmp_path):
    out = tmp_path / "goe.csv"
    code = main(["goe", "--out", str(out), "--r-start", "0.0", "--r-stop", "0.9",
                 "--r-count", "10"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert list(rows[0].keys()) == ["r", "R", "factorization_error", "note"]
    assert rows[0]["note"] == "R_min"
    assert float(rows[0]["R"]) == pytest.approx(-0.5)
    assert float(rows[0]["factorization_error"]) == 0.0
    curvatures = [float(row["R"]) for row in rows]
    assert all(b > a for a, b in zip(curvatures, curvatures[1:]))
    # F_sup(0.3) / (2 pi 1.3^2)
    out2 = tmp_path / "goe2.csv"
    assert main(["goe", "--out", str(out2), "--r-start", "0.3", "--r-stop", "0.6",
                 "--r-count", "2", "--mu", "0.4", "--sigma", "1.3"]) == EXIT_OK
    err = float(read_csv(str(out2))[0]["factorization_error"])
    assert err == pytest.approx(0.011118438676116666, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("flag", ["--sigma=inf", "--sigma=nan", "--mu=nan"])
def test_goe_rejects_non_finite_input(flag, capsys):
    name, value = flag.split("=")
    interval = "(-inf, inf)" if name == "--mu" else "[1e-50, 1e+50]"
    line = parser_refusal(["goe", flag], capsys)
    assert line.endswith(f"argument {name}: must lie in {interval}, got {value}")


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (0.4, 1.3), (-2.0, 0.05), (7.0, 30.0)])
def test_goe_factorization_error_is_the_exact_supremum(tmp_path, mu, sigma):
    # sigma_c = sigma, so the column is F_sup(r) / (2 pi sigma^2) at every r
    out = tmp_path / "goe.csv"
    assert main(["goe", "--out", str(out), "--r-start=-0.99", "--r-stop=0.99", "--r-count=199",
                 f"--mu={mu!r}", f"--sigma={sigma!r}"]) == EXIT_OK
    rows = read_csv(str(out))
    assert len(rows) == 199
    for row in rows:
        r = float(row["r"])
        exact = distinguishability_F_sup(r) / (2.0 * math.pi * sigma**2)
        assert float(row["factorization_error"]) == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert float(rows[99]["r"]) == 0.0
    assert float(rows[99]["factorization_error"]) == 0.0


@pytest.mark.parametrize("flag", ["--sigma-start=nan", "--sigma-stop=inf", "--r-start=-inf", "--r-stop=nan"])
def test_scan_range_ends_must_be_finite(flag, capsys):
    assert flag.split("=")[0] in parser_refusal(["curvature-scan", flag], capsys)


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "inf"])
def test_tol_must_be_finite_and_nonnegative(tol, capsys):
    # at inf no run could breach, at nan, -1 or -inf every run would
    for command in ("f-curve", "curvature-scan", "geodesic"):
        assert "--tol" in parser_refusal([command, f"--tol={tol}"], capsys)


def test_f_curve_defaults_still_breach(capsys):
    # its default range passes |r| = 0.839, where the two columns part
    assert main(["f-curve"]) == EXIT_TOLERANCE
    default = capsys.readouterr().out
    assert main(["f-curve", "--tol=1"]) == EXIT_OK
    assert capsys.readouterr().out == default
    assert len(default.splitlines()) == 40


@pytest.mark.parametrize("argv,flag", [
    (["oscillator", "--omega1=1e308"], "--omega1"),
    (["oscillator", "--omega2=1e-200"], "--omega2"),
    (["goe", "--sigma=1e308"], "--sigma"),
    (["goe", "--sigma=1e-300"], "--sigma"),
    (["geodesic", "--tau-end=1e308"], "--tau-end"),
    (["curvature-scan", "--quad-order=100000"], "--quad-order"),
])
def test_overflowing_numeric_flags_exit_2_naming_the_flag(argv, flag, capsys):
    if flag == "--tau-end":  # in its range; the command refuses its ratio to --step
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0]
    else:
        # the parser refuses it, before any model or rule is built
        assert flag in parser_refusal(argv, capsys)


# one cheap run per subcommand: each case adds one flag to it
CHEAP_ARGV = {
    "f-curve": ["--r-count=2"],
    "curvature-scan": ["--sigma-count=2", "--r-count=2"],
    "oscillator": ["--schedule=linear"],  # where the --t-ratio-* flags are read
    "goe": ["--r-count=2"],
    "geodesic": ["--tau-end=0.01", "--step=1e-3"],
}
PROBE_VALUES = {"float": ["nan", "inf", "-inf", "0", "-1", "1e308"],
                "int": ["0", "-1", "1", "1000000000000"]}
# each float probe in either place of a pair, and values whose squares overflow or underflow
PROBE_VALUES["pair"] = ([f"{x},1" for x in PROBE_VALUES["float"]]
                        + [f"1,{x}" for x in PROBE_VALUES["float"]] + ["1e200,1e200", "0,1e-300"])


# float flags that a subcommand does not declare, and must refuse as cleanly as a bad value
UNDECLARED_FLOATS = [("oscillator", "--tol"), ("goe", "--tol")]


def numeric_flag_cases():
    """(subcommand, flag, value) for every float and int flag declared, and each one undeclared."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            kind = getattr(action.type, "__name__", None)  # _number_in keeps its kind's name
            for value in PROBE_VALUES.get(kind, []):
                yield command, action.option_strings[0], value
    for command, flag in UNDECLARED_FLOATS:
        for value in PROBE_VALUES["float"]:
            yield command, flag, value


@pytest.mark.parametrize("command,flag,value", list(numeric_flag_cases()))
def test_every_numeric_flag_exits_cleanly(command, flag, value, capsys):
    # a value either runs (0 or 3) or is refused (2) naming its flag, with one stderr line
    # and no traceback; warnings are errors under pytest, so a NumPy overflow warning fails here too
    try:
        code = main([command, *CHEAP_ARGV[command], f"{flag}={value}"])
    except SystemExit as exc:  # argparse's own rejection
        code = exc.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_TOLERANCE)
    err = capsys.readouterr().err.splitlines()
    if code != EXIT_OK:
        assert len(err) == 1 and "Traceback" not in err[0]
    if code == EXIT_VALIDATION:
        assert flag in err[0]


def test_numeric_flag_table_covers_every_subcommand():
    cases = list(numeric_flag_cases())
    assert {c for c, _, _ in cases} == set(CHEAP_ARGV)
    assert ("oscillator", "--tol", "nan") in cases and ("geodesic", "--samples", "-1") in cases
    assert ("curvature-scan", "--quad-order", "0") in cases
    assert ("geodesic", "--theta0", "0,1e-300") in cases and ("geodesic", "--v0", "1e200,1e200") in cases
    assert ("oscillator", "--steps", "1000000000000") in cases


def test_curvature_scan_sigma_range_lies_within_the_scale_limit(capsys):
    # sigma^4 and 1/sigma^3 enter the model's moments, which overflow far beyond 1e50
    for flag in ("--sigma-stop=1e308", "--sigma-start=0"):
        argv = ["curvature-scan", "--sigma-count=2", "--r-count=2", flag]
        assert flag.split("=")[0] in parser_refusal(argv, capsys)


@pytest.mark.parametrize("command,flag,inside,outside,interval", [
    ("goe", "--r-start", "-0.999999", "-1", "(-1, 1)"),
    ("geodesic", "--coupling", "0.999999", "1", "(-1, 1)"),
    ("oscillator", "--t-ratio-stop", "1", "0", "(0, 1]"),
    ("oscillator", "--m1", "1e-50", "1e51", "[1e-50, 1e+50]"),
    ("oscillator", "--steps", "16", "15", f"[16, {cli.MAX_ROWS}]"),
    ("f-curve", "--r-count", str(cli.MAX_ROWS), str(cli.MAX_ROWS + 1), f"[2, {cli.MAX_ROWS}]"),
    ("geodesic", "--step", "5e-324", "0", "(0, inf)"),
    ("geodesic", "--samples", "1", "0", "[1, inf)"),
    ("geodesic", "--theta0", "-1e50,1e50", "0,-1e51", "[-1e+50, 1e+50]"),
    ("geodesic", "--v0", "1,2", "1,2,3", "two comma-separated numbers"),
])
def test_each_flag_type_states_the_range_it_enforces(command, flag, inside, outside, interval, capsys):
    # the parser alone: inside is accepted, outside refused with the interval, open ends included
    cli.build_parser().parse_args([command, f"{flag}={inside}"])
    line = parser_refusal([command, f"{flag}={outside}"], capsys)
    assert f"argument {flag}: " in line and interval in line


def test_curvature_scan_bounds_the_rows_of_both_counts(capsys):
    # each count is in range alone; together they ask for 10^6 rows
    assert cli.MAX_ROWS < 1000 * 1000
    assert main(["curvature-scan", "--sigma-count=1000", "--r-count=1000"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "--sigma-count" in err[0] and "--r-count" in err[0] and captured.out == ""


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("command", ["oscillator", "goe"])
def test_tol_is_rejected_where_there_is_no_breach_check(command, route, tmp_path, capsys):
    # oscillator and goe have no breach check, so they declare no --tol to ignore
    if route == "flag":
        line = parser_refusal([command, "--tol=1e-3"], capsys)
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tol = 1e-3\n")
        assert main([command, "--config", str(cfg)]) == EXIT_VALIDATION
        [line] = capsys.readouterr().err.splitlines()
    assert "--tol" in line and command in line
    assert main([command]) == EXIT_OK


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("name", ["t-ratio-start", "t-ratio-stop"])
def test_t_ratio_flags_need_the_linear_schedule(name, route, tmp_path, capsys):
    # the geometric schedule 1 - 2^-k takes no ratio range, so the flag would be ignored
    if route == "flag":
        argv = ["oscillator", f"--{name}=0.3"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{name.replace('-', '_')} = 0.3\n")
        argv = ["oscillator", "--schedule=geometric", "--config", str(cfg)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"--{name}" in err[0]


def test_linear_schedule_reads_the_t_ratio_flags(capsys):
    # their defaults, 0.5 and 0.999, apply to the linear schedule alone
    linear = ["oscillator", "--schedule=linear"]
    assert main(linear) == EXIT_OK
    default = capsys.readouterr().out
    assert main(linear + ["--t-ratio-start=0.5", "--t-ratio-stop=0.999"]) == EXIT_OK
    assert capsys.readouterr().out == default
    for flag in ("--t-ratio-start=0.3", "--t-ratio-stop=0.9"):
        assert main(linear + [flag]) == EXIT_OK
        assert capsys.readouterr().out != default


@pytest.mark.parametrize("order", [2, 32, 64])
def test_benchmark_quad_orders_stay_valid(order):
    assert cli.build_parser().parse_args(["curvature-scan", f"--quad-order={order}"]).quad_order == order


def test_geodesic_flat(tmp_path):
    out = tmp_path / "geo.csv"
    code = main(["geodesic", "--flat", "--out", str(out), "--theta0", "0,0",
                 "--v0", "1,2", "--tau-end", "1.0", "--step", "0.01"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert list(rows[0].keys()) == ["tau", "theta1", "theta2", "v1", "v2",
                                    "speed", "speed_drift"]
    last = rows[-1]
    assert float(last["theta1"]) == pytest.approx(1.0, abs=1e-9)
    assert float(last["theta2"]) == pytest.approx(2.0, abs=1e-9)
    assert float(last["speed_drift"]) < 1e-9


def test_geodesic_curved_conserves_speed(tmp_path):
    out = tmp_path / "geo.csv"
    code = main(["geodesic", "--out", str(out), "--theta0", "0,1", "--v0", "0.3,0.2",
                 "--tau-end", "5.0", "--step", "1e-3"])
    assert code == EXIT_OK
    rows = read_csv(str(out))
    assert max(float(row["speed_drift"]) for row in rows) < 1e-6


def test_geodesic_validation(capsys):
    # sigma < 0 is refused by the curved metric alone, so the command checks it
    assert main(["geodesic", "--theta0", "0,-1", "--v0", "0,1"]) == EXIT_VALIDATION
    assert "--v0" in parser_refusal(["geodesic", "--theta0", "0,1", "--v0", "1", "--flat"], capsys)
    assert "--step" in parser_refusal(["geodesic", "--step", "-1", "--flat"], capsys)
    assert "--samples" in parser_refusal(["geodesic", "--samples", "0", "--flat"], capsys)


@pytest.mark.parametrize("flag", ["--step=nan", "--tau-end=inf", "--theta0=0,inf",
                                  "--v0=nan,0.1", "--coupling=nan"])
def test_geodesic_rejects_non_finite_input(flag, capsys):
    name, value = flag.split("=")
    line = parser_refusal(["geodesic", flag], capsys)
    # a pair names the component it refuses
    assert f"argument {name}: must lie in " in line and line.split(", got ")[1] in value.split(",")


@pytest.mark.parametrize("route", ["flag", "config", "config flat"])
@pytest.mark.parametrize("coupling", ["0.9", "1.5", "0"])
def test_flat_geodesic_rejects_coupling(coupling, route, tmp_path, capsys):
    # the flat metric has no correlation, so --coupling would be ignored
    cfg = tmp_path / "cfg.txt"
    argv = ["geodesic", "--theta0=0,0", "--tau-end=0.1", "--step=0.01"]
    if route == "flag":
        argv += ["--flat", f"--coupling={coupling}"]
    elif route == "config":
        cfg.write_text(f"coupling = {coupling}\n")
        argv += ["--flat", "--config", str(cfg)]
    else:
        cfg.write_text("flat = true\n")
        argv += [f"--coupling={coupling}", "--config", str(cfg)]
    if coupling == "1.5":  # outside |r| < 1, so --coupling's own type refuses it first
        assert "argument --coupling: must lie in (-1, 1)" in parser_refusal(argv, capsys)
        return
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "--coupling" in err[0] and "--flat" in err[0] and captured.out == ""


def _two_pass_christoffel(field, theta):
    """The connection from metric_derivatives(., 1) and a separate field(theta)."""
    d1 = manifold.metric_derivatives(field, theta, 1)
    gi = manifold.inverse_metric(field(theta))
    return 0.5 * np.einsum("km,mij->kij", gi, d1 + d1.transpose(0, 2, 1) - d1.transpose(2, 0, 1))


def test_geodesic_stdout_is_that_of_the_two_pass_route(monkeypatch, capsys):
    # one checked sweep per stage and the plane's metric print what two checks per stage
    # and the metric as written before the plane printed, breaches and exit codes included
    rng = np.random.default_rng(28)
    argvs = [["geodesic"],
             ["geodesic", "--theta0=0,0.002", "--v0=0,-0.002", "--step=0.01"],  # drift breach
             ["geodesic", "--theta0=0,0.5", "--v0=0,-1000", "--step=0.01"],  # left_domain
             ["geodesic", "--theta0=0,5e-6", "--v0=0,1"]]  # stencil_left_domain
    for i in range(20):
        # sigma0 down to 1e-3, where the finite-difference drift breaches the tolerance
        sigma0 = 10.0 ** rng.uniform(-3.0, -1.3) if i % 2 else 10.0 ** rng.uniform(-0.7, 3.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        argvs.append(["geodesic", f"--theta0={sigma0 * rng.uniform(-1.0, 1.0)!r},{sigma0!r}",
                      f"--v0={sigma0 * math.cos(angle)!r},{sigma0 * math.sin(angle)!r}",
                      f"--coupling={rng.uniform(-0.9, 0.9)!r}", "--tau-end=1.0", "--step=0.01",
                      f"--samples={rng.integers(1, 120)}", f"--format={('csv', 'json')[i % 3 == 0]}"])

    def run():
        results = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    swept = run()
    assert [code for code, _, _ in swept[:4]] == [EXIT_OK] + 3 * [EXIT_TOLERANCE]
    assert all(code in (EXIT_OK, EXIT_TOLERANCE) for code, _, _ in swept)  # no argv is refused
    monkeypatch.setattr(manifold, "christoffel", _two_pass_christoffel)

    def pre_plane_metric(plane, theta):
        # diag(1, 4) / (sigma^2 (1 - r^2)) as the correlated metric was written before
        # the plane; 1 - r^2 is 4k exactly
        denom = theta[1] ** 2 * (4.0 * plane.k)
        return np.array([[1.0 / denom, 0.0], [0.0, 4.0 / denom]])

    monkeypatch.setattr(models.HalfPlane, "metric", pre_plane_metric)
    assert run() == swept


def test_geodesic_leaving_the_domain_is_a_breach(tmp_path, capsys):
    # the first step crosses sigma = 0, so tau-end is never reached
    out = tmp_path / "geo.csv"
    code = main(["geodesic", "--out", str(out), "--theta0=0,0.5", "--v0=0,-1000",
                 "--step", "0.01"])
    assert code == EXIT_TOLERANCE
    rows = read_csv(str(out))  # rows up to the exit are still written
    assert [float(row["tau"]) for row in rows] == [0.0]
    err = capsys.readouterr().err
    assert "left the domain at tau = 0 " in err
    assert "tau-end = 1" in err
    assert "(left_domain)" in err


def test_geodesic_stencil_leaving_the_domain_is_a_breach(tmp_path, capsys):
    # sigma0 = 5e-6 lies inside the half-plane, but its stencil reaches sigma0 - 1e-5
    out = tmp_path / "geo.csv"
    code = main(["geodesic", "--out", str(out), "--theta0=0,5e-6", "--v0=0,1"])
    assert code == EXIT_TOLERANCE
    assert [float(row["tau"]) for row in read_csv(str(out))] == [0.0]
    err = capsys.readouterr().err
    assert err.startswith("tolerance breach: finite-difference stencil left the domain at tau = 0 ")
    assert err.rstrip().endswith("(stencil_left_domain)")


def test_quadrature_failure_exits_3(capsys):
    # sigma = 1e-5 passes validation, but the stencil's sigma - h = 0 leaves the half-plane
    code = main(["curvature-scan", "--sigma-start", "1e-5", "--sigma-stop", "2e-5",
                 "--sigma-count", "2", "--r-start", "0", "--r-stop", "0.5", "--r-count", "2"])
    assert code == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert err.startswith("tolerance breach: finite-difference stencil exits the domain")
    assert err.count("\n") == 1


def test_curvature_scan_step_check_exits_3(capsys):
    # the stencil lies inside, but one step changes the metric by more than its norm
    code = main(["curvature-scan", "--sigma-start", "2e-5", "--sigma-stop", "4e-5",
                 "--sigma-count", "2", "--r-start", "0", "--r-stop", "0.5", "--r-count", "2"])
    assert code == EXIT_TOLERANCE
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure (NumericalError): finite-difference steps ")
    assert "FD_MAX_REL_CHANGE" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("route", ["flag", "config"])
def test_quad_order_is_accepted_and_says_it_selects_nothing(route, tmp_path, capsys):
    argv = ["curvature-scan", "--sigma-count=2", "--r-count=2"]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr()
    if route == "flag":
        argv.append("--quad-order=32")
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("quad_order = 32\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == plain.out and plain.err == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "--quad-order selects nothing" in err[0]


def _nan_at_the_second_call(fn):
    """``fn`` with its second call's result replaced by NaN; Python's max drops a NaN there."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 2 else fn(*args, **kwargs)

    return patched


@pytest.mark.parametrize("argv,target", [
    (["f-curve", "--r-start=-0.5", "--r-stop=0.5", "--r-count=3"], "distinguishability_F_closed"),
    (["curvature-scan", "--sigma-count=2", "--r-count=2"], "scalar_curvature"),
    (["geodesic", "--tau-end=0.01", "--step=1e-3"], "metric_speed"),
], ids=["f-curve", "curvature-scan", "geodesic"])
def test_a_nan_result_is_a_breach(monkeypatch, capsys, argv, target):
    # "worst > tol" is False for a NaN, so the run used to exit 0
    monkeypatch.setattr(cli, target, _nan_at_the_second_call(getattr(cli, target)))
    assert main(argv) == EXIT_TOLERANCE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tolerance breach: ") and "nan" in err[0]


@pytest.mark.parametrize("error,argv,target", [
    (SingularMetricError("metric condition number 1e+13 exceeds 1e+12"),
     ["curvature-scan", "--sigma-count", "2", "--r-count", "2"], "scalar_curvature"),
    (NumericalError("correlation 1.000e-03 exceeds its envelope 1.000e-04"),
     ["oscillator", "--steps", "16"], "oscillator_mixing_trace"),
], ids=["SingularMetricError", "NumericalError"])
def test_library_errors_exit_3(monkeypatch, capsys, error, argv, target):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    assert main(argv) == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert err == f"numerical failure ({type(error).__name__}): {error}\n"


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["f-curve", "--r-start", "-0.8", "--r-stop", "0.8", "--r-count", "9"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("r-count = 5\nr-start = -0.5\n# comment\nr-stop = 0.5\n")
    out = tmp_path / "out.csv"
    assert main(["f-curve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert len(read_csv(str(out))) == 5
    # explicit flag beats the config value
    out2 = tmp_path / "out2.csv"
    assert main(["f-curve", "--config", str(cfg), "--r-count", "7",
                 "--out", str(out2)]) == EXIT_OK
    assert len(read_csv(str(out2))) == 7
    # unknown keys and missing files are rejected
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense = 1\n")
    assert main(["f-curve", "--config", str(bad)]) == EXIT_VALIDATION
    bad.write_text("jobs = 2\n")
    assert main(["f-curve", "--config", str(bad)]) == EXIT_VALIDATION
    bad.write_text("quad_order = 32\n")
    assert main(["f-curve", "--config", str(bad)]) == EXIT_VALIDATION
    assert main(["f-curve", "--config", str(tmp_path / "nope.txt")]) == EXIT_IO


def test_explicit_flag_beats_a_config_line_even_at_its_default(tmp_path):
    # 10 is also the default of goe's --r-count
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("r_count = 3\n")
    out = tmp_path / "out.csv"
    assert main(["goe", "--r-count", "10", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert len(read_csv(str(out))) == 10


@pytest.mark.parametrize("line", ["r_count = abc", "format = xml", "schedule = foo", "flat = maybe"])
def test_config_values_are_checked_like_flags(tmp_path, line):
    # each config line is parsed as --key=value, so argparse rejects a bad value
    command = {"schedule": "oscillator", "flat": "geodesic"}.get(line.split()[0], "goe")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == EXIT_VALIDATION


@pytest.mark.parametrize("value,code", [("yes", EXIT_OK), ("1", EXIT_OK),
                                        ("false", EXIT_VALIDATION), ("0", EXIT_VALIDATION)])
def test_config_switch_becomes_a_bare_flag(tmp_path, value, code):
    # theta0 = (0, 0) lies in the flat metric's domain but not in the half-plane sigma > 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"flat = {value}\n")
    assert main(["geodesic", "--config", str(cfg), "--theta0=0,0", "--tau-end=0.1",
                 "--step=0.01", "--out", str(tmp_path / "geo.csv")]) == code


def test_module_entry_point(tmp_path):
    # python -m statmanifold reads sys.argv through main(None), config lines too
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "statmanifold", "f-curve",
            "--r-start=-0.3", "--r-stop=0.3", "--r-count=2"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK
    assert done.stdout.splitlines()[0] == "r,F_closed,F_numeric,abs_diff"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("format = xml\n")
    done = subprocess.run(argv + ["--config", str(cfg)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == EXIT_VALIDATION
    assert "invalid choice: 'xml'" in done.stderr


def test_readme_quick_start_runs_with_warnings_as_errors():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", block], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_repeated_calls_share_one_parser_and_no_flags():
    assert cli.build_parser() is cli.build_parser()
    argv = ["f-curve", "--r-start", "0.9", "--r-stop", "0.95", "--r-count", "2"]
    # above the branch switch the two columns differ, so only a loose --tol passes
    assert main(argv + ["--tol", "1", "--out", "-"]) == EXIT_OK
    assert main(argv) == EXIT_TOLERANCE


def test_stdout_output(capsys):
    assert main(["f-curve", "--r-start", "-0.3", "--r-stop", "0.3",
                 "--r-count", "3"]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "r,F_closed,F_numeric,abs_diff"
    assert len(lines) == 4


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_order_64_curvature_scan_takes_no_page_faults(capsys):
    # a metric that allocates per-node temporaries makes the heap grow and shrink
    # on every order-64 op after order-32 ones: hundreds of faults per op
    resource = pytest.importorskip("resource")

    def scan(order):
        assert main(["curvature-scan", "--sigma-start", "0.7", "--sigma-stop", "1.4",
                     "--sigma-count", "2", "--r-start", "-0.5", "--r-stop", "0.5",
                     "--r-count", "2", f"--quad-order={order}"]) == EXIT_OK
        capsys.readouterr()

    scan(32)
    scan(64)
    faults = []
    for _ in range(3):
        scan(32)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        scan(64)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert sum(faults) <= 32 * len(faults), faults
