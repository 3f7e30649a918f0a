"""Command-line driver for parameter sweeps, scenario runs and data export.

Subcommands::

    f-curve         distinguishability closed form vs brute-force maximizer
    curvature-scan  numeric geometry pipeline vs closed-form curvature
    oscillator      coupled-oscillator temperature transition
    goe             2x2 random-matrix ensemble report
    geodesic        geodesic trajectory with conservation diagnostic

Common flags: --out PATH, --format csv|json, --config FILE.  f-curve,
curvature-scan and geodesic also take --tol FLOAT (finite, >= 0), their
breach tolerance; oscillator and goe have no breach check and no --tol.
curvature-scan alone also accepts --quad-order INT (2 to MAX_QUAD_ORDER),
which selects nothing, since the Fisher metric is exact.
Each key = value line of the config file is parsed as the flag --key=value,
and flags on the command line win over it.  Output is CSV (17 significant
digits) or JSON lines with identical field names.  Exit codes: 0 success,
2 validation error, 3 tolerance breach or numerical failure, 4 I/O error.
Every validation error is one stderr line naming its flag: each flag's own
range is checked by its argparse type, which exits 2 through argparse, and
the commands check only what relates two flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .canonical import OscillatorPair, oscillator_mixing_trace
from .ergodic import (
    MIN_TRACE_SAMPLES,
    distinguishability_F_closed,
    distinguishability_F_numeric,
    factorization_sup_2d,
)
from .errors import DomainError, NumericalError
from .manifold import (
    MAX_GEODESIC_STEPS,
    GeodesicState,
    MetricField,
    ParameterDomain,
    geodesic_integrate,
    metric_speed,
    scalar_curvature,
)
from .models import Correlated2DParams, HalfPlane, correlated_2d_family

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4

# the bound --quad-order has always had; the flag selects nothing
MAX_QUAD_ORDER = 256
# the oscillator's masses, frequencies and T0, the goe sigma, the ends of
# curvature-scan's sigma range and geodesic's sigma lie in
# [1/SCALE_LIMIT, SCALE_LIMIT], and geodesic's other coordinates and velocity
# within SCALE_LIMIT of 0, so every product and square of them the models
# form stays a finite, nonzero float
SCALE_LIMIT = 1e50
# the most rows one sweep builds, both counts together for curvature-scan:
# f-curve, the costliest per row, takes 9 s and 180 MB there (2-CPU Xeon, NumPy 2.4)
MAX_ROWS = 10**5
# the linear schedule's default temperature ratios; the geometric schedule
# takes neither flag
LINEAR_T_RATIOS = {"t_ratio_start": 0.5, "t_ratio_stop": 0.999}


class ToleranceBreach(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows(rows, out_path: str, fmt: str) -> None:
    """``rows`` as CSV or JSON lines; the first row's keys are the header."""
    headers = list(rows[0])
    if fmt == "csv":
        lines = [",".join(headers)] + [",".join(_fmt(row[h]) for h in headers) for row in rows]
    else:
        lines = [json.dumps(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _linspace(args, name: str, count: int) -> np.ndarray:
    """``count`` points from --NAME-start up to --NAME-stop; their types check each end."""
    start, stop = getattr(args, name + "_start"), getattr(args, name + "_stop")
    if not start < stop:
        flag = "--" + name.replace("_", "-")
        raise ValueError(f"{flag}-start must be < {flag}-stop")
    return np.linspace(start, stop, count)


def _check(rows, column, tol: float, label: str) -> None:
    """Raise ToleranceBreach unless every row's ``column`` is <= ``tol``; a NaN breaches."""
    worst = np.max([row[column] for row in rows])  # NaN if any row is NaN, unlike max()
    if not worst <= tol:
        raise ToleranceBreach(f"{label} {worst:.3e} > tol")


def cmd_f_curve(args) -> int:
    rs = _linspace(args, "r", args.r_count).tolist()
    closed = [distinguishability_F_closed(r) for r in rs]
    rows = [{"r": r, "F_closed": c, "F_numeric": f, "abs_diff": abs(c - f)}
            for r, c, f in zip(rs, closed, distinguishability_F_numeric(rs))]
    write_rows(rows, args.out, args.format)
    _check(rows, "abs_diff", args.tol, "max |F_closed - F_numeric| =")
    return EXIT_OK


def cmd_curvature_scan(args) -> int:
    if args.sigma_count * args.r_count > MAX_ROWS:
        raise ValueError(f"--sigma-count * --r-count must be <= {MAX_ROWS}")
    sigmas = _linspace(args, "sigma", args.sigma_count)
    rs = _linspace(args, "r", args.r_count)

    if args.quad_order is not None:
        print("note: --quad-order selects nothing: the Fisher metric is Skovgaard's closed form",
              file=sys.stderr)

    def row(point):
        sigma, r = point
        numeric_field = MetricField.from_model(correlated_2d_family(r, 1.0))
        try:
            r_numeric = scalar_curvature(numeric_field, np.array([0.0, sigma]))
        except DomainError as exc:  # sigma is inside the half-plane, so this is its stencil
            raise ToleranceBreach(f"{exc} (sigma = {sigma:.17g}, r = {r:.17g})") from None
        r_closed = HalfPlane.correlated(r).scalar_curvature
        return {
            "sigma": float(sigma),
            "r": float(r),
            "R_closed": r_closed,
            "R_numeric": r_numeric,
            "abs_diff": abs(r_closed - r_numeric),
        }

    points = [(s, r) for s in sigmas for r in rs]
    rows = [row(point) for point in points]
    write_rows(rows, args.out, args.format)
    _check(rows, "abs_diff", args.tol, "max |R_closed - R_numeric| =")
    return EXIT_OK


def cmd_oscillator(args) -> int:
    for name, default in LINEAR_T_RATIOS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.schedule == "geometric":
            raise ValueError(f"--{name.replace('_', '-')} applies only to --schedule linear")
    if args.schedule == "geometric":
        ratios = 1.0 - 0.5 ** np.arange(1, args.steps + 1)
    else:
        ratios = _linspace(args, "t_ratio", args.steps)

    pair = OscillatorPair(m1=args.m1, m2=args.m2, omega1=args.omega1,
                          omega2=args.omega2, T0=args.t0, r=args.coupling)
    result = oscillator_mixing_trace(pair, ratios * args.t0)
    level = result.classification.level.value
    rows = []
    for k, ratio in enumerate(ratios):
        rows.append({
            "T_ratio": float(ratio),
            "r_eff": float(result.r_eff[k]),
            "tau": float(result.trace.taus[k]),
            "R": HalfPlane.oscillator(ratio * args.t0, args.t0).scalar_curvature,
            "C_bound": float(result.envelope[k]),
            "igeh_level": level,
        })
    write_rows(rows, args.out, args.format)
    return EXIT_OK


def cmd_goe(args) -> int:
    def row(r):
        block = Correlated2DParams(args.mu, args.sigma, r, args.sigma)  # the joint's diagonal block
        return {
            "r": r,
            "R": HalfPlane.correlated(r).scalar_curvature,
            # sup |p - p1 p2| of the diagonal block against its marginals
            "factorization_error": factorization_sup_2d(block),
            "note": "R_min" if r == 0.0 else "",
        }

    rows = [row(r) for r in _linspace(args, "r", args.r_count).tolist()]
    write_rows(rows, args.out, args.format)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    if args.flat and args.coupling is not None:
        raise ValueError("--coupling does not apply to --flat, whose metric has no correlation")
    r = 0.0 if args.coupling is None else args.coupling
    if args.tau_end / args.step > MAX_GEODESIC_STEPS:
        raise ValueError(f"--tau-end / --step asks for more than {MAX_GEODESIC_STEPS} steps")
    theta0, v0 = np.asarray(args.theta0), np.asarray(args.v0)

    if args.flat:
        field = MetricField.from_function(2, lambda th: np.eye(2))
    else:
        if not 1.0 / SCALE_LIMIT <= theta0[1]:
            raise ValueError(f"--theta0's sigma must lie within [{1.0 / SCALE_LIMIT:g}, "
                                  f"{SCALE_LIMIT:g}], got {float(theta0[1])!r}")
        # --coupling's type checks |r| < 1, and the box checks sigma > 0 before every evaluation
        field = MetricField.from_function(
            2, HalfPlane.correlated(r).metric,
            domain=ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf]),
        )

    init = GeodesicState(theta0, v0, 0.0)
    result = geodesic_integrate(field, init, args.tau_end, args.step)
    speed0 = metric_speed(field, result.states[0])
    rows = []
    stride = max(1, len(result.states) // args.samples)
    kept = list(result.states[::stride])
    if kept[-1] is not result.states[-1]:
        kept.append(result.states[-1])
    for state in kept:
        speed = metric_speed(field, state)
        rows.append({
            "tau": state.tau,
            "theta1": float(state.position[0]),
            "theta2": float(state.position[1]),
            "v1": float(state.velocity[0]),
            "v2": float(state.velocity[1]),
            "speed": speed,
            "speed_drift": abs(speed - speed0) / max(abs(speed0), 1e-300),
        })
    write_rows(rows, args.out, args.format)
    if result.exited_domain:
        what = {"left_domain": "trajectory", "stencil_left_domain": "finite-difference stencil"}
        raise ToleranceBreach(
            f"{what[result.exit_reason]} left the domain at tau = {result.states[-1].tau:.17g} "
            f"before tau-end = {args.tau_end:.17g} ({result.exit_reason})"
        )
    _check(rows, "speed_drift", args.tol, "speed drift")
    return EXIT_OK


def _config_flags(path: str, args) -> list:
    """One --key=value flag per key = value line of config file ``path``, for ``args``' command."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    flags = []
    for key, raw in values.items():
        flag = "--" + key.replace("_", "-")
        if not hasattr(args, key):  # exact keys only: argparse would also take an abbreviation
            raise ValueError(f"{args.command} has no flag {flag} (config key {key!r})")
        switch = isinstance(getattr(args, key), bool)
        if switch and raw.lower() in ("1", "true", "yes"):
            flags.append(flag)  # a store_true flag takes no value
        elif not (switch and raw.lower() in ("0", "false", "no")):
            flags.append(f"{flag}={raw}")  # argparse checks it, and rejects a value on a switch
    return flags


def _number_in(kind, lo=-math.inf, hi=math.inf, ends="[]"):
    """An argparse type: ``kind(text)`` in the interval from ``lo`` to ``hi``.

    ``ends`` is "[]", "(]", "[)" or "()", and an infinite end is always open,
    so a float the type accepts is finite.
    """
    left = "(" if lo == -math.inf else ends[0]
    right = ")" if hi == math.inf else ends[1]

    def parse(text: str):
        value = kind(text)
        if not ((lo < value if left == "(" else lo <= value)
                and (value < hi if right == ")" else value <= hi)):
            raise argparse.ArgumentTypeError(f"must lie in {left}{lo:g}, {hi:g}{right}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names a value kind() rejects by it
    return parse


_FINITE = _number_in(float)
_POSITIVE = _number_in(float, 0.0, ends="()")
_CORRELATION = _number_in(float, -1.0, 1.0, "()")
_SCALE = _number_in(float, 1.0 / SCALE_LIMIT, SCALE_LIMIT)
_COUNT = _number_in(int, 2, MAX_ROWS)
_COORDINATE = _number_in(float, -SCALE_LIMIT, SCALE_LIMIT)
# finite and >= 0: no run could pass the breach test "not worst <= tol" at a NaN or a negative
_TOL = _number_in(float, 0.0)


def _pair(text: str) -> tuple:
    """An argparse type: two comma-separated numbers, each within SCALE_LIMIT of 0."""
    values = text.split(",")
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"must be two comma-separated numbers, got {text}")
    return tuple(_COORDINATE(v) for v in values)


_pair.__name__ = "pair"  # argparse names a value it rejects by it


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, like every other."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:  # argparse's own message would name the flags but not the command
            self.error(f"unrecognized arguments for {args.command}: {' '.join(extra)}")
        return args


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each ``parse_args`` returns a fresh namespace."""
    parser = _Parser(
        prog="statmanifold",
        description="parameter sweeps and scenario runs for Gaussian statistical manifolds",
    )
    common = _Parser(add_help=False)
    common.add_argument("--out", default="-", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--config", default=None, help="optional key=value config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("f-curve", parents=[common],
                       help="distinguishability curve F(r), closed form vs maximizer")
    p.add_argument("--r-start", type=_CORRELATION, default=-0.95)
    p.add_argument("--r-stop", type=_CORRELATION, default=0.95)
    p.add_argument("--r-count", type=_COUNT, default=39)
    p.add_argument("--tol", type=_TOL, default=1e-6, help="breach tolerance of abs_diff")
    p.set_defaults(func=cmd_f_curve)

    p = sub.add_parser("curvature-scan", parents=[common],
                       help="numeric curvature pipeline vs closed form on a (sigma, r) grid")
    p.add_argument("--sigma-start", type=_SCALE, default=0.5)
    p.add_argument("--sigma-stop", type=_SCALE, default=2.0)
    p.add_argument("--sigma-count", type=_COUNT, default=3)
    p.add_argument("--r-start", type=_CORRELATION, default=-0.9)
    p.add_argument("--r-stop", type=_CORRELATION, default=0.9)
    p.add_argument("--r-count", type=_COUNT, default=5)
    p.add_argument("--quad-order", type=_number_in(int, 2, MAX_QUAD_ORDER), default=None,
                   dest="quad_order",
                   help="accepted and ignored: the Fisher metric is Skovgaard's closed form, "
                        "so no quadrature order applies")
    p.add_argument("--tol", type=_TOL, default=1e-4, help="breach tolerance of abs_diff")
    p.set_defaults(func=cmd_curvature_scan)

    p = sub.add_parser("oscillator", parents=[common],
                       help="coupled-oscillator transition along a temperature schedule")
    p.add_argument("--schedule", choices=("geometric", "linear"), default="geometric")
    p.add_argument("--steps", type=_number_in(int, MIN_TRACE_SAMPLES, MAX_ROWS), default=20)
    p.add_argument("--t-ratio-start", type=_number_in(float, 0.0, 1.0, "(]"), default=None,
                   help="linear schedule only (default 0.5)")
    p.add_argument("--t-ratio-stop", type=_number_in(float, 0.0, 1.0, "(]"), default=None,
                   help="linear schedule only (default 0.999)")
    for name in ("--t0", "--m1", "--m2", "--omega1", "--omega2"):
        p.add_argument(name, type=_SCALE, default=1.0)
    p.add_argument("--coupling", type=_CORRELATION, default=0.5)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("goe", parents=[common],
                       help="2x2 random-matrix ensemble curvature report")
    p.add_argument("--r-start", type=_CORRELATION, default=0.0)
    p.add_argument("--r-stop", type=_CORRELATION, default=0.9)
    p.add_argument("--r-count", type=_COUNT, default=10)
    p.add_argument("--mu", type=_FINITE, default=0.0)
    p.add_argument("--sigma", type=_SCALE, default=1.0)
    p.set_defaults(func=cmd_goe)

    p = sub.add_parser("geodesic", parents=[common],
                       help="geodesic trajectory with conserved-speed diagnostic")
    p.add_argument("--flat", action="store_true", help="use the flat metric")
    p.add_argument("--coupling", type=_CORRELATION, default=None,
                   help="correlation r of the curved metric (default 0); --flat rejects it")
    p.add_argument("--theta0", type=_pair, default="0.0,1.0")
    p.add_argument("--v0", type=_pair, default="0.1,0.1")
    p.add_argument("--tau-end", type=_POSITIVE, default=1.0)
    p.add_argument("--step", type=_POSITIVE, default=1e-3)
    p.add_argument("--samples", type=_number_in(int, 1), default=50)
    p.add_argument("--tol", type=_TOL, default=1e-6, help="breach tolerance of speed_drift")
    p.set_defaults(func=cmd_geodesic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's flags go first, so argparse lets the command line's own win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config, args) + argv[at:])
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceBreach as exc:
        print(f"tolerance breach: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except NumericalError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
