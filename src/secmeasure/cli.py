"""Command-line interface.

secm <command> [flags] with commands moments, ortho, reducer, secondary,
family density, family scan, roots, solve, verify, plot.  Tables render as
CSV (17 significant digits) or JSON; plots are hand-emitted SVG.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 numerical failure (non-convergence or a non-finite value).
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from typing import List, Optional

import numpy as np

from .errors import (DegenerateMeasure, DenominatorZero, DomainError,
                     EvaluationFailure, ExprSyntaxError,
                     ExtrapolationDivergence, InstabilityDetected,
                     InvalidDensity, InvalidParameter, NonConvergence,
                     PointOnInterval, UnknownDensity)
from .expressions import parse as parse_expr
from .family import denominator_root_scan, family_density, moment0_curve
from .measures import (CATALOG_NAMES, BaseDensity, catalog, moment, moments,
                       user_density)
from .operators import IntegralEquationProblem, solve_integral_equation
from .orthopoly import apply_T, recurrence_coefficients
from .quadrature import EndpointExponents, IntegrationSpec, Interval
from .report import OutputTable
from .stieltjes import reducer, secondary_measure
from .verify import run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (UnknownDensity, InvalidDensity, ExprSyntaxError, DomainError,
                 InvalidParameter, PointOnInterval, ValueError)
_NUMERICAL_ERRORS = (NonConvergence, EvaluationFailure, InstabilityDetected,
                     ExtrapolationDivergence, DenominatorZero,
                     DegenerateMeasure, FloatingPointError, OverflowError)

RESIDUAL_LIMIT = 1e-5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Takes negative numbers such as -3.6e-05 for values, not options
    (argparse itself does so only for forms like -1 and -1.5); subcommand
    parsers share the class."""

    def _parse_optional(self, arg_string):
        if re.fullmatch(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _add_density_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--density", choices=CATALOG_NAMES,
                    help="catalog density name")
    sp.add_argument("--density-expr", metavar="EXPR",
                    help="smooth part h(x) of a custom density "
                         "(x-a)^alpha (b-x)^beta h(x)")
    sp.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                    default=(-1.0, 1.0),
                    help="support of a custom density (default -1 1)")
    sp.add_argument("--alpha", type=float, default=0.0,
                    help="left endpoint exponent of a custom density")
    sp.add_argument("--beta", type=float, default=0.0,
                    help="right endpoint exponent of a custom density")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="secm",
        description="Secondary measures, reducers, and equi-normal families.")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative quadrature tolerance (default 1e-10)")
    p.add_argument("--quad-levels", type=int, default=12,
                   help="maximum quadrature refinement levels (default 12)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="table output format (default csv)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property subsets (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moments", help="moments c_0..c_n of a density")
    _add_density_flags(sp)
    sp.add_argument("--n", type=int, default=6, help="highest order (default 6)")
    sp.set_defaults(run=cmd_moments)

    sp = sub.add_parser("ortho", help="three-term recurrence coefficients")
    _add_density_flags(sp)
    sp.add_argument("--n", type=int, default=6,
                    help="number of recurrence rows (default 6)")
    sp.set_defaults(run=cmd_ortho)

    sp = sub.add_parser("reducer", help="reducer phi on a grid or at points")
    _add_density_flags(sp)
    sp.add_argument("--x", type=float, nargs="+", help="evaluation points")
    sp.add_argument("--grid", type=int, default=11,
                    help="interior grid size when --x is absent (default 11)")
    sp.set_defaults(run=cmd_reducer)

    sp = sub.add_parser("secondary",
                        help="secondary measure mu and its normalization mu0")
    _add_density_flags(sp)
    sp.add_argument("--grid", type=int, default=11,
                    help="interior grid size (default 11)")
    sp.set_defaults(run=cmd_secondary)

    fam = sub.add_parser("family", help="equi-normal family rho_t")
    fsub = fam.add_subparsers(dest="family_command", required=True)

    sp = fsub.add_parser("density", help="rho_t on an interior grid")
    _add_density_flags(sp)
    sp.add_argument("--t", type=float, required=True, help="family parameter")
    sp.add_argument("--grid", type=int, default=11,
                    help="interior grid size (default 11)")
    sp.set_defaults(run=cmd_family_density)

    sp = fsub.add_parser("scan", help="moment-0 curve f(t) = int rho_t")
    _add_density_flags(sp)
    sp.add_argument("--t-min", type=float, required=True)
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=20,
                    help="number of t samples (default 20)")
    sp.set_defaults(run=cmd_family_scan)

    sp = sub.add_parser("roots",
                        help="real roots of the transform denominator off the support")
    _add_density_flags(sp)
    sp.add_argument("--t", type=float, required=True, help="family parameter")
    sp.add_argument("--search", nargs=2, type=float, metavar=("LO", "HI"),
                    help="scan interval (default: both sides of the support)")
    sp.set_defaults(run=cmd_roots)

    sp = sub.add_parser("solve",
                        help="solve f + lambda (x-c1) T(f) = g in closed form")
    _add_density_flags(sp)
    sp.add_argument("--lam", type=float, required=True,
                    help="equation parameter lambda (not -1)")
    sp.add_argument("--g", required=True, metavar="EXPR",
                    help="right-hand side g(x)")
    sp.add_argument("--grid", type=int, default=21,
                    help="interior grid size (default 21)")
    sp.set_defaults(run=cmd_solve)

    sp = sub.add_parser("verify", help="run a reproduction suite")
    sp.add_argument("--suite", choices=("paper", "quick"), default="paper")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("plot", help="render one CSV column pair as an SVG")
    sp.add_argument("--input", required=True, metavar="CSV")
    sp.add_argument("--x-col", required=True)
    sp.add_argument("--y-col", required=True)
    sp.add_argument("--output", required=True, metavar="SVG")
    sp.set_defaults(run=cmd_plot)

    return p


def _spec_from(args) -> IntegrationSpec:
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise UsageError(f"--tol must be a positive real, got {args.tol}")
    if args.quad_levels < 2:
        raise UsageError("--quad-levels must be at least 2")
    return IntegrationSpec(rel_tol=args.tol,
                           abs_tol=min(1e-12, args.tol),
                           max_refinement_levels=args.quad_levels)


def _resolve_density(args, spec: IntegrationSpec) -> BaseDensity:
    if args.density_expr is not None:
        if args.density is not None:
            raise UsageError("--density and --density-expr are exclusive")
        expr = parse_expr(args.density_expr)
        a, b = args.interval
        if not b > a:
            raise UsageError("--interval must satisfy A < B")
        return user_density(expr.evaluate, Interval(a, b),
                            EndpointExponents(args.alpha, args.beta),
                            name=f"expr:{args.density_expr}", spec=spec)
    if args.density is None:
        raise UsageError("one of --density or --density-expr is required")
    return catalog(args.density)


def _emit(table: OutputTable, args) -> None:
    sys.stdout.write(table.render(args.format))


def cmd_moments(args, spec) -> int:
    rho = _resolve_density(args, spec)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    ms = moments(rho, args.n, spec)
    table = OutputTable(["n", "c_n"],
                        [(float(i), ms[i]) for i in range(args.n + 1)],
                        {"density": rho.name, "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK


def cmd_ortho(args, spec) -> int:
    rho = _resolve_density(args, spec)
    if args.n < 1:
        raise UsageError("--n must be positive")
    rc = recurrence_coefficients(rho, args.n, spec)
    rows = [(float(n), float(rc.a[n]), float(rc.b[n - 1]) if n else 0.0)
            for n in range(args.n)]
    table = OutputTable(["n", "a_n", "b_n"], rows,
                        {"density": rho.name, "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK


def cmd_reducer(args, spec) -> int:
    rho = _resolve_density(args, spec)
    xs = (np.asarray(args.x, dtype=float) if args.x
          else rho.interval.interior_grid(args.grid, 2e-3))
    phi = reducer(rho, xs, spec)
    table = OutputTable(["x", "phi"], list(zip(xs.tolist(), phi.tolist())),
                        {"density": rho.name, "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK


def cmd_secondary(args, spec) -> int:
    rho = _resolve_density(args, spec)
    sm = secondary_measure(rho, spec)
    xs = rho.interval.interior_grid(args.grid, 2e-3)
    mu = sm.mu(xs)
    table = OutputTable(["x", "mu", "mu0"],
                        list(zip(xs.tolist(), mu.tolist(), (mu / sm.d0).tolist())),
                        {"density": rho.name, "d0": sm.d0, "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK


def cmd_family_density(args, spec) -> int:
    rho = _resolve_density(args, spec)
    if args.t <= 0:
        raise UsageError("--t must be positive")
    xs = rho.interval.interior_grid(args.grid, 2e-3)
    vals = family_density(rho, args.t, xs, spec)
    table = OutputTable(["x", "rho_t"], list(zip(xs.tolist(), vals.tolist())),
                        {"density": rho.name, "t": args.t, "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK


def cmd_family_scan(args, spec) -> int:
    rho = _resolve_density(args, spec)
    if not (0 < args.t_min < args.t_max):
        raise UsageError("need 0 < --t-min < --t-max")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    rows = []
    failed = False
    for t in np.linspace(args.t_min, args.t_max, args.steps):
        try:
            rows.append((float(t), moment0_curve(rho, float(t), spec)))
        except _NUMERICAL_ERRORS:
            rows.append((float(t), math.nan))
            failed = True
    table = OutputTable(["t", "f"], rows,
                        {"density": rho.name, "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_roots(args, spec) -> int:
    rho = _resolve_density(args, spec)
    if args.t <= 0:
        raise UsageError("--t must be positive")
    search = None if args.search is None else Interval(*args.search)
    brackets = denominator_root_scan(rho, args.t, search, spec)
    table = OutputTable(["lo", "hi"], brackets,
                        {"density": rho.name, "t": args.t,
                         "n_roots": len(brackets), "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK


def cmd_solve(args, spec) -> int:
    rho = _resolve_density(args, spec)
    expr = parse_expr(args.g)
    problem = IntegralEquationProblem(rho, args.lam, expr.evaluate)
    xs = rho.interval.interior_grid(args.grid, 2e-3)
    f_vals = solve_integral_equation(problem, xs, spec)

    def f(u):
        return solve_integral_equation(problem, u, spec)

    c1 = moment(rho, 1, spec)
    lhs = f_vals.copy()
    if args.lam != 0.0:
        lhs = lhs + args.lam * (xs - c1) * apply_T(rho, f, xs, spec)
    residual = lhs - expr.evaluate(xs)
    table = OutputTable(
        ["x", "f", "residual"],
        list(zip(xs.tolist(), f_vals.tolist(), residual.tolist())),
        {"density": rho.name, "lambda": args.lam, "g": expr.canonical(),
         "tol": spec.rel_tol})
    _emit(table, args)
    return EXIT_OK if float(np.max(np.abs(residual))) <= RESIDUAL_LIMIT \
        else EXIT_VERIFY


def cmd_verify(args, spec) -> int:
    reports = run_suite(args.suite, spec, seed=args.seed)
    for r in reports:
        print(r.row())
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


# -- SVG plotting ----------------------------------------------------------

_SVG_W, _SVG_H = 800, 600
_ML, _MR, _MT, _MB = 80, 30, 30, 60
_N_TICKS = 10


def _read_xy(path: str, x_col: str, y_col: str):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise UsageError(f"{path}: empty CSV")
            if x_col not in reader.fieldnames or y_col not in reader.fieldnames:
                raise UsageError(
                    f"{path}: need columns {x_col!r} and {y_col!r}, "
                    f"have {reader.fieldnames}")
            pts = []
            for row in reader:
                try:
                    pts.append((float(row[x_col]), float(row[y_col])))
                except (TypeError, KeyError, ValueError) as exc:
                    raise UsageError(f"{path}: malformed row {row}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    pts = [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
    if len(pts) < 2:
        raise UsageError(f"{path}: need at least two finite data rows")
    return pts


def _axis_range(vals):
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        pad = 0.5 * max(1.0, abs(lo))
        return lo - pad, hi + pad
    return lo, hi


def render_svg(points, x_label: str, y_label: str) -> str:
    """Deterministic 800x600 SVG with axes, tick labels, and one polyline."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = _axis_range(xs)
    y0, y1 = _axis_range(ys)
    px = lambda x: _ML + (x - x0) / (x1 - x0) * (_SVG_W - _ML - _MR)
    py = lambda y: _SVG_H - _MB - (y - y0) / (y1 - y0) * (_SVG_H - _MT - _MB)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" '
        f'y2="{_SVG_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" '
        f'stroke="black"/>',
    ]
    for i in range(_N_TICKS):
        fx = x0 + (x1 - x0) * i / (_N_TICKS - 1)
        cx = px(fx)
        out.append(f'<line x1="{cx:.2f}" y1="{_SVG_H - _MB}" x2="{cx:.2f}" '
                   f'y2="{_SVG_H - _MB + 6}" stroke="black"/>')
        out.append(f'<text x="{cx:.2f}" y="{_SVG_H - _MB + 20}" '
                   f'font-size="11" text-anchor="middle">{fx:.6g}</text>')
        fy = y0 + (y1 - y0) * i / (_N_TICKS - 1)
        cy = py(fy)
        out.append(f'<line x1="{_ML - 6}" y1="{cy:.2f}" x2="{_ML}" '
                   f'y2="{cy:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 10}" y="{cy + 4:.2f}" font-size="11" '
                   f'text-anchor="end">{fy:.6g}</text>')
    out.append(f'<text x="{(_ML + _SVG_W - _MR) / 2:.2f}" y="{_SVG_H - 15}" '
               f'font-size="13" text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="20" y="{(_MT + _SVG_H - _MB) / 2:.2f}" '
               f'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 20 {(_MT + _SVG_H - _MB) / 2:.2f})">'
               f'{y_label}</text>')
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
    out.append(f'<polyline points="{coords}" fill="none" stroke="#1f5fa8" '
               f'stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(args, spec) -> int:
    points = _read_xy(args.input, args.x_col, args.y_col)
    svg = render_svg(points, args.x_col, args.y_col)
    with open(args.output, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = _spec_from(args)
        if getattr(args, "grid", 2) < 2:
            raise UsageError("--grid must be at least 2")
        return args.run(args, spec)
    except (UsageError,) + _USAGE_ERRORS as exc:
        print(f"secm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"secm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
