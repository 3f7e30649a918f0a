"""Command-line driver for parameter sweeps, scenario runs and data export.

Subcommands::

    f-curve         distinguishability closed form vs brute-force maximizer
    curvature-scan  numeric geometry pipeline vs closed-form curvature
    oscillator      coupled-oscillator temperature transition
    goe             2x2 random-matrix ensemble report
    geodesic        geodesic trajectory with conservation diagnostic

Common flags: --out PATH, --format csv|json, --tol FLOAT, --config FILE;
curvature-scan alone also takes --quad-order INT.  Flags override an
optional key=value config file.  Output is CSV (17 significant digits) or
JSON lines with identical field names.
Exit codes: 0 success, 2 validation error, 3 tolerance breach or numerical
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from .canonical import (
    OscillatorPair,
    goe_model,
    oscillator_curvature,
    oscillator_mixing_trace,
)
from .ergodic import (
    _distinguishability_F_rows,
    distinguishability_F_closed,
    factorization_gap_2d,
)
from .errors import NumericalError
from .manifold import (
    GeodesicState,
    MetricField,
    ParameterDomain,
    geodesic_integrate,
    metric_speed,
    scalar_curvature,
)
from .models import (
    Correlated2DParams,
    correlated_2d_family,
    curvature_2d_closed,
    metric_2d_closed,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4


class ValidationError(Exception):
    pass


class ToleranceBreach(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows(rows, headers, out_path: str, fmt: str) -> None:
    lines = []
    if fmt == "csv":
        lines.append(",".join(headers))
        for row in rows:
            lines.append(",".join(_fmt(row[h]) for h in headers))
    else:
        for row in rows:
            lines.append(json.dumps({h: row[h] for h in headers}))
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _linspace(start: float, stop: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValidationError("count must be >= 2")
    if not start < stop:
        raise ValidationError("start must be < stop")
    return np.linspace(start, stop, count)


def cmd_f_curve(args) -> int:
    rs = _linspace(args.r_start, args.r_stop, args.r_count)
    if rs[0] <= -1.0 or rs[-1] >= 1.0:
        raise ValidationError("r range must lie inside (-1, 1)")

    params = [Correlated2DParams(0.0, 1.0, r, 1.0) for r in rs.tolist()]
    closed = [distinguishability_F_closed(p.r) for p in params]
    rows = [{"r": p.r, "F_closed": c, "F_numeric": f, "abs_diff": abs(c - f)}
            for p, c, f in zip(params, closed, _distinguishability_F_rows(params))]
    write_rows(rows, ["r", "F_closed", "F_numeric", "abs_diff"], args.out, args.format)
    worst = max(row["abs_diff"] for row in rows)
    if worst > args.tol:
        raise ToleranceBreach(f"max |F_closed - F_numeric| = {worst:.3e} > tol")
    return EXIT_OK


def cmd_curvature_scan(args) -> int:
    sigmas = _linspace(args.sigma_start, args.sigma_stop, args.sigma_count)
    rs = _linspace(args.r_start, args.r_stop, args.r_count)
    if sigmas[0] <= 0.0:
        raise ValidationError("sigma range must be positive")
    if rs[0] <= -1.0 or rs[-1] >= 1.0:
        raise ValidationError("r range must lie inside (-1, 1)")

    def row(point):
        sigma, r = point
        family = correlated_2d_family(r, 1.0, order=args.quad_order)
        numeric_field = MetricField.from_model(family)
        r_numeric = scalar_curvature(numeric_field, np.array([0.0, sigma]))
        r_closed = curvature_2d_closed(r)
        return {
            "sigma": float(sigma),
            "r": float(r),
            "R_closed": r_closed,
            "R_numeric": r_numeric,
            "abs_diff": abs(r_closed - r_numeric),
        }

    points = [(s, r) for s in sigmas for r in rs]
    rows = [row(point) for point in points]
    write_rows(rows, ["sigma", "r", "R_closed", "R_numeric", "abs_diff"],
               args.out, args.format)
    worst = max(row["abs_diff"] for row in rows)
    if worst > args.tol:
        raise ToleranceBreach(f"max |R_closed - R_numeric| = {worst:.3e} > tol")
    return EXIT_OK


def cmd_oscillator(args) -> int:
    if args.schedule == "geometric":
        ratios = 1.0 - 0.5 ** np.arange(1, args.steps + 1)
    else:
        ratios = _linspace(args.t_ratio_start, args.t_ratio_stop, args.steps)
    if np.any(ratios <= 0.0) or np.any(ratios > 1.0):
        raise ValidationError("temperature ratios must lie in (0, 1]")

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
            "R": oscillator_curvature(ratio * args.t0, args.t0),
            "C_bound": float(result.envelope[k]),
            "igeh_level": level,
        })
    write_rows(rows, ["T_ratio", "r_eff", "tau", "R", "C_bound", "igeh_level"],
               args.out, args.format)
    return EXIT_OK


def cmd_goe(args) -> int:
    rs = _linspace(args.r_start, args.r_stop, args.r_count)
    if rs[0] <= -1.0 or rs[-1] >= 1.0:
        raise ValidationError("r range must lie inside (-1, 1)")

    def row(r):
        model = goe_model(args.mu, args.sigma, float(r), args.sigma)
        reduced = model.reduced
        # factorization error of the diagonal block against its marginals
        grid = np.linspace(-4.0, 4.0, 41)
        x, y = np.meshgrid(args.mu + grid * reduced.sigma, grid * reduced.sigma_y,
                           indexing="ij", sparse=True)
        err = float(np.max(factorization_gap_2d(reduced, x, y)))
        return {
            "r": float(r),
            "R": model.curvature(),
            "factorization_error": err,
            "note": "R_min" if r == 0.0 else "",
        }

    rows = [row(r) for r in rs]
    write_rows(rows, ["r", "R", "factorization_error", "note"], args.out, args.format)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    if args.step <= 0.0 or args.tau_end <= 0.0:
        raise ValidationError("step and tau-end must be positive")
    if args.samples < 1:
        raise ValidationError("samples must be >= 1")
    theta0 = np.asarray([float(v) for v in args.theta0.split(",")])
    v0 = np.asarray([float(v) for v in args.v0.split(",")])
    if theta0.shape != (2,) or v0.shape != (2,):
        raise ValidationError("theta0 and v0 must be comma-separated pairs")

    if args.flat:
        field = MetricField.from_function(2, lambda th: np.eye(2), name="flat")
    else:
        if abs(args.coupling) >= 1.0:
            raise ValidationError("coupling must satisfy |r| < 1")
        r = args.coupling

        def closed_metric(th):
            return metric_2d_closed(Correlated2DParams(th[0], th[1], r, 1.0))

        field = MetricField.from_function(
            2, closed_metric,
            domain=ParameterDomain.box([-np.inf, 0.0], [np.inf, np.inf]),
            name="correlated2d",
        )
    if not field.domain.contains(theta0):
        raise ValidationError("initial position outside the metric domain")

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
    write_rows(rows, ["tau", "theta1", "theta2", "v1", "v2", "speed", "speed_drift"],
               args.out, args.format)
    if result.exited_domain:
        what = {"left_domain": "trajectory", "stencil_left_domain": "finite-difference stencil"}
        raise ToleranceBreach(
            f"{what[result.exit_reason]} left the domain at tau = {result.states[-1].tau:.17g} "
            f"before tau-end = {args.tau_end:.17g} ({result.exit_reason})"
        )
    worst = max(row["speed_drift"] for row in rows)
    if worst > args.tol:
        raise ToleranceBreach(f"speed drift {worst:.3e} > tol")
    return EXIT_OK


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="statmanifold",
        description="parameter sweeps and scenario runs for Gaussian statistical manifolds",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=float, default=None,
                        help="breach tolerance (default depends on the command)")
    common.add_argument("--config", default=None, help="optional key=value config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("f-curve", parents=[common],
                       help="distinguishability curve F(r), closed form vs maximizer")
    p.add_argument("--r-start", type=float, default=-0.95)
    p.add_argument("--r-stop", type=float, default=0.95)
    p.add_argument("--r-count", type=int, default=39)
    p.set_defaults(func=cmd_f_curve)

    p = sub.add_parser("curvature-scan", parents=[common],
                       help="numeric curvature pipeline vs closed form on a (sigma, r) grid")
    p.add_argument("--sigma-start", type=float, default=0.5)
    p.add_argument("--sigma-stop", type=float, default=2.0)
    p.add_argument("--sigma-count", type=int, default=3)
    p.add_argument("--r-start", type=float, default=-0.9)
    p.add_argument("--r-stop", type=float, default=0.9)
    p.add_argument("--r-count", type=int, default=5)
    p.add_argument("--quad-order", type=int, default=64, dest="quad_order")
    p.set_defaults(func=cmd_curvature_scan)

    p = sub.add_parser("oscillator", parents=[common],
                       help="coupled-oscillator transition along a temperature schedule")
    p.add_argument("--schedule", choices=("geometric", "linear"), default="geometric")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--t-ratio-start", type=float, default=0.5)
    p.add_argument("--t-ratio-stop", type=float, default=0.999)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--omega1", type=float, default=1.0)
    p.add_argument("--omega2", type=float, default=1.0)
    p.add_argument("--coupling", type=float, default=0.5)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("goe", parents=[common],
                       help="2x2 random-matrix ensemble curvature report")
    p.add_argument("--r-start", type=float, default=0.0)
    p.add_argument("--r-stop", type=float, default=0.9)
    p.add_argument("--r-count", type=int, default=10)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=cmd_goe)

    p = sub.add_parser("geodesic", parents=[common],
                       help="geodesic trajectory with conserved-speed diagnostic")
    p.add_argument("--flat", action="store_true", help="use the flat metric")
    p.add_argument("--coupling", type=float, default=0.0)
    p.add_argument("--theta0", default="0.0,1.0")
    p.add_argument("--v0", default="0.1,0.1")
    p.add_argument("--tau-end", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_geodesic)

    return parser


DEFAULT_TOL = {
    "f-curve": 1e-6,
    "curvature-scan": 1e-4,
    "oscillator": 1e-4,
    "goe": 1e-4,
    "geodesic": 1e-6,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            overrides = _load_config(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        # command-line flags win over config values
        defaults = parser.parse_args([args.command])
        for key, raw in overrides.items():
            if not hasattr(args, key):
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return EXIT_VALIDATION
            if getattr(args, key) == getattr(defaults, key, None):
                current = getattr(args, key)
                if key == "tol":
                    caster = float
                elif current is not None:
                    caster = type(current)
                else:
                    caster = str
                if caster is bool:
                    setattr(args, key, raw.lower() in ("1", "true", "yes"))
                else:
                    setattr(args, key, caster(raw))
    if args.tol is None:
        args.tol = DEFAULT_TOL[args.command]
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
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
