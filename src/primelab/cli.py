"""Command-line front door: censuses, summary statistics, CSV/SVG artifacts.

Exit codes: 0 success, 2 invalid arguments, 3 resource guard tripped,
4 I/O failure.  The guard defaults to 10^8 and can be moved with the
PRIMES_LAB_MAX_LIMIT environment variable.  A command that compares a
census with an estimate exits 2 when the census holds no primes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import gaussian, monoid, quadratic, report, series as analysis, sieve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_IO = 4

DEFAULT_MAX_LIMIT = 10**8
GUARD_ENV = "PRIMES_LAB_MAX_LIMIT"

TABLE1_MODULI = (3, 5, 7, 9, 11, 13, 21, 50)
TABLE1_LIMIT = 10**4
TABLE2_BOUNDS = (10**3, 10**4, 10**5, 10**6, 10**7)


class GuardViolation(Exception):
    pass


def _guard_limit() -> int:
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return DEFAULT_MAX_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise GuardViolation(f"{GUARD_ENV}={raw!r} is not an integer") from exc


def _check_guard(value: int, what: str, cap: int | None = None) -> None:
    guard = _guard_limit()
    if cap is not None:
        guard = min(guard, cap)
    if value > guard:
        raise GuardViolation(f"{what}={value} exceeds resource guard {guard}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primelab",
        description="Prime censuses and count estimates in unusual domains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("monoid", help="census of monoid primes among n = 1 (mod d)")
    p.add_argument("--d", type=int, required=True, help="modulus d >= 2")
    p.add_argument("--limit", type=int, required=True, help="inclusive census bound")
    p.add_argument(
        "--eval-at",
        choices=("limit", "largest"),
        default="limit",
        help="evaluate the summary estimate at the bound or at the largest monoid element",
    )
    p.add_argument("--csv", help="write a one-row summary CSV")
    p.add_argument("--series-csv", help="write the full evaluation series CSV")
    p.add_argument("--svg", help="render the actual-vs-estimate chart")

    p = sub.add_parser("gauss", help="census of Gaussian primes by norm")
    p.add_argument("--norm-limit", type=int, required=True, help="inclusive norm bound")
    p.add_argument(
        "--dedupe-axes",
        action="store_true",
        help="count axis primes once instead of on both axes",
    )
    p.add_argument("--csv", help="write a one-row MAPE summary CSV")
    p.add_argument("--series-csv", help="write the full evaluation series CSV")
    p.add_argument("--svg", help="render the actual-vs-estimate chart")

    p = sub.add_parser("quad", help="census of irreducibles in Z[sqrt(-d)]")
    p.add_argument("--d", type=int, required=True, help="squarefree d >= 1")
    p.add_argument("--bound", type=int, required=True, help="inclusive region bound")
    p.add_argument(
        "--euclidean",
        action="store_true",
        help="bound a^2 + b^2 instead of the ring norm a^2 + d*b^2",
    )
    p.add_argument("--csv", help="write the count series CSV")
    p.add_argument("--svg", help="render the count chart")

    p = sub.add_parser("fit", help="fit c*x/(ln x)^e to a count series")
    p.add_argument("--from-csv", help="read the series from a previously written CSV")
    p.add_argument(
        "--domain",
        choices=("classical", "monoid", "gauss", "quad"),
        help="generate the series from a census instead",
    )
    p.add_argument("--d", type=int, help="modulus / ring parameter where applicable")
    p.add_argument("--limit", type=int, help="bound for classical or monoid domains")
    p.add_argument("--norm-limit", type=int, help="bound for the gauss domain")
    p.add_argument("--bound", type=int, help="bound for the quad domain")
    p.add_argument("--euclidean", action="store_true", help="quad domain region kind")
    p.add_argument("--csv", help="write the fitted parameters as CSV")

    p = sub.add_parser("table1", help="monoid count-vs-estimate summary for fixed moduli")
    p.add_argument("--csv", help="write the summary table CSV")
    p.add_argument("--svg-dir", help="directory for one chart per modulus")

    p = sub.add_parser("table2", help="Gaussian MAPE at increasing norm bounds")
    p.add_argument("--csv", help="write the summary table CSV")

    return parser


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "monoid": _cmd_monoid,
        "gauss": _cmd_gauss,
        "quad": _cmd_quad,
        "fit": _cmd_fit,
        "table1": _cmd_table1,
        "table2": _cmd_table2,
    }
    try:
        return handlers[args.subcommand](args)
    except GuardViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def _require(args, domain: str, *names: str) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        raise ValueError(f"{' and '.join(missing)} {verb} required for the {domain} domain")


def _census(domain: str, args):
    """Build the census a subcommand asks for, after the resource guard, and
    return it with the estimator its series compares against (or None)."""
    estimator = None
    if domain == "classical":
        _require(args, domain, "limit")
        _check_guard(args.limit, "limit")
        census = sieve.classical_census(args.limit)
    elif domain == "monoid":
        _require(args, domain, "d", "limit")
        _check_guard(args.limit, "limit")
        census = monoid.monoid_census(monoid.MonoidParams(d=args.d, limit=args.limit))
        estimator = functools.partial(monoid.estimate_pi_d, args.d)
    elif domain == "gauss":
        _require(args, domain, "norm_limit")
        _check_guard(args.norm_limit, "norm-limit")
        convention = "dedupe-axes" if getattr(args, "dedupe_axes", False) else "both-axes"
        census = gaussian.gaussian_census(args.norm_limit, convention)
        estimator = lambda ns: gaussian.estimate_pi_G(np.sqrt(ns))
    else:
        _require(args, domain, "d", "bound")
        # squarefree validation of d trial-divides up to sqrt(d): guard d first
        _check_guard(args.d, "d")
        kind = "euclidean-ball" if args.euclidean else "norm-ball"
        region = quadratic.RegionSpec(kind, args.bound)
        _check_guard(region.largest_norm(args.d), "largest norm", cap=quadratic.MAX_CENSUS_BOUND)
        census = quadratic.quad_census(args.d, region)
    return census, estimator


def _emit(args, csv_obj, ser: analysis.CountSeries | None = None) -> None:
    """Write whichever of --csv, --series-csv and --svg the subcommand has:
    csv_obj (summary rows, fit rows or a series) to --csv, the series to
    the other two."""
    outputs = (
        ("csv", csv_obj, report.write_csv),
        ("series_csv", ser, report.write_csv),
        ("svg", ser, report.render_svg),
    )
    for flag, obj, write in outputs:
        path = getattr(args, flag, None)
        if not path:
            continue
        write(obj, path)
        print(f"wrote {path}")


def _monoid_summary(census: monoid.MonoidCensus, ser, eval_x: int) -> report.MonoidSummary:
    estimate = monoid.estimate_pi_d(census.params.d, eval_x)
    return report.MonoidSummary(
        d=census.params.d,
        largest_element=monoid.largest_element(census.params),
        actual_count=census.total,
        estimate=estimate,
        r_ratio=analysis.ratio_R(census.total, estimate),
        mape_pct=analysis.mape(ser),
    )


def _cmd_monoid(args) -> int:
    census, estimator = _census("monoid", args)
    ser = analysis.build_series(census, estimator)
    eval_x = (
        monoid.largest_element(census.params) if args.eval_at == "largest" else args.limit
    )
    row = _monoid_summary(census, ser, eval_x)
    print(
        f"monoid d={args.d} limit={args.limit}: count={row.actual_count} "
        f"estimate({eval_x})={row.estimate:.2f} R={row.r_ratio:.5f} mape={row.mape_pct:.2f}%"
    )
    _emit(args, [row], ser)
    return EXIT_OK


def _cmd_gauss(args) -> int:
    census, estimator = _census("gauss", args)
    ser = analysis.build_series(census, estimator)
    row = report.MapeSummary(args.norm_limit, analysis.mape(ser))
    print(
        f"gauss norm-limit={args.norm_limit} axes={census.axis_convention}: "
        f"count={census.total} mape={row.mape_pct:.3f}%"
    )
    _emit(args, [row], ser)
    return EXIT_OK


def _cmd_quad(args) -> int:
    census, _ = _census("quad", args)
    print(f"quad d={args.d} {census.region.kind} bound={args.bound}: irreducibles={census.total}")
    ser = analysis.build_series(census) if args.csv or args.svg else None  # artifacts only
    _emit(args, ser, ser)
    return EXIT_OK


def _fit_series(args) -> analysis.CountSeries:
    if args.from_csv and args.domain:
        raise ValueError("choose either --from-csv or --domain, not both")
    if args.from_csv:
        return report.read_series_csv(args.from_csv)
    if not args.domain:
        raise ValueError("fit needs --from-csv or --domain")
    return analysis.build_series(*_census(args.domain, args))


def _cmd_fit(args) -> int:
    ser = _fit_series(args)
    result = analysis.fit_model(ser)
    print(
        f"fit {ser.label()}: c={result.c:.6g} e={result.e:.6g} "
        f"rms_rel_err={result.rms_rel_err:.6g}"
    )
    _emit(args, [result])
    return EXIT_OK


def _cmd_table1(args) -> int:
    rows = []
    for d in TABLE1_MODULI:
        census, estimator = _census("monoid", argparse.Namespace(d=d, limit=TABLE1_LIMIT))
        ser = analysis.build_series(census, estimator)
        row = _monoid_summary(census, ser, monoid.largest_element(census.params))
        rows.append(row)
        print(
            f"d={d}: largest={row.largest_element} count={row.actual_count} "
            f"estimate={row.estimate:.2f} R={row.r_ratio:.5f} mape={row.mape_pct:.2f}%"
        )
        if args.svg_dir:
            os.makedirs(args.svg_dir, exist_ok=True)
            path = os.path.join(args.svg_dir, f"monoid_d{d}.svg")
            report.render_svg(ser, path)
            print(f"wrote {path}")
    _emit(args, rows)
    return EXIT_OK


def _cmd_table2(args) -> int:
    ser = analysis.build_series(*_census("gauss", argparse.Namespace(norm_limit=TABLE2_BOUNDS[-1])))
    rows = []
    for bound in TABLE2_BOUNDS:
        rows.append(report.MapeSummary(bound, analysis.mape(ser, upto=bound)))
        print(f"norm-bound={bound}: mape={rows[-1].mape_pct:.3f}%")
    _emit(args, rows)
    return EXIT_OK
