"""Command-line front door: censuses, summary statistics, CSV/SVG artifacts.

Exit codes: 0 success, 2 invalid arguments, 3 resource guard tripped,
4 I/O failure.  The guard defaults to 10^8 and can be moved with the
PRIMES_LAB_MAX_LIMIT environment variable.  Each census carries the
paper's estimate for its domain (none for Z[sqrt(-d)]); a command that
compares a census with its estimate exits 2 when the census holds no primes.

Every command reads its census once, block by block
(series.stream_series), and feeds that one pass to all of its reducers:
its statistics, and the series CSV writer and the chart when they are asked
for.  So no command holds a count per point (fit's pass sums the fit's
binned moments, read from a census or a CSV).  A command hands _scan and
_emit its output paths themselves.  Two outputs that name one file exit 2,
as does an output that is an existing FIFO or socket, which open would
block on or refuse.  Every output a command is given is created, in the
order the command names them, before any census work, so an output that
cannot be created exits 4 before the first printed line; the series CSV is
written during the pass, the printed lines and the other files after it
(fit's --csv, which may name the --from-csv input, is not emptied until
then), so a write that fails later (/dev/full) exits 4 after the lines
printed before it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

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


def _check_guard(value: int, what: str) -> None:
    guard = _guard_limit()
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
    p.add_argument(  # None when not given, as for the census arguments above
        "--euclidean", action="store_true", default=None, help="quad domain region kind"
    )
    p.add_argument("--csv", help="write the fitted parameters as CSV")
    p.set_defaults(dedupe_axes=False)  # fit --domain gauss fits the both-axes series

    p = sub.add_parser("table1", help="monoid count-vs-estimate summary for fixed moduli")
    p.add_argument("--csv", help="write the summary table CSV")
    p.add_argument("--svg-dir", help="directory for one chart per modulus")

    p = sub.add_parser("table2", help="Gaussian MAPE at increasing norm bounds")
    p.add_argument("--csv", help="write the summary table CSV")
    p.add_argument(
        "--svg", help="render the actual-vs-estimate chart of the largest bound's series"
    )

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


# the census flags each domain reads, all but --euclidean required; in this
# order, the flags that fit names as unread print as --d, --limit,
# --norm-limit, --bound, --euclidean
_CENSUS_FLAGS = {
    "monoid": ("d", "limit"),
    "classical": ("limit",),
    "gauss": ("norm_limit",),
    "quad": ("d", "bound", "euclidean"),
}


def _census(domain: str, args):
    """Build the census a subcommand asks for, after the resource guard."""
    _require(args, domain, *(name for name in _CENSUS_FLAGS[domain] if name != "euclidean"))
    if domain == "classical":
        _check_guard(args.limit, "limit")
        return sieve.classical_census(args.limit)
    if domain == "monoid":
        _check_guard(args.limit, "limit")
        return monoid.monoid_census(monoid.MonoidParams(d=args.d, limit=args.limit))
    if domain == "gauss":
        _check_guard(args.norm_limit, "norm-limit")
        convention = "dedupe-axes" if args.dedupe_axes else "both-axes"
        return gaussian.gaussian_census(args.norm_limit, convention)
    # squarefree validation of d trial-divides up to sqrt(d): guard d first
    _check_guard(args.d, "d")
    kind = "euclidean-ball" if args.euclidean else "norm-ball"
    region = quadratic.RegionSpec(kind, args.bound)
    _check_guard(region.largest_norm(args.d), "largest norm")
    return quadratic.quad_census(args.d, region)


def _create(*paths) -> None:
    """Create or empty each path given (None: none), in order."""
    for path in paths:
        if path is not None:
            open(path, "wb").close()


def _check_outputs(*paths) -> None:
    """Refuse two outputs that name one file (None and an empty path name none),
    and an existing FIFO or socket; a character device such as /dev/null passes."""
    seen = {}
    for path in filter(None, paths):
        try:
            mode = os.stat(path).st_mode
        except OSError:  # not there yet, or not reachable: creating it says which
            mode = 0
        if stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode):
            raise ValueError(f"output {path} is a FIFO or a socket")
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"outputs {seen[real]} and {path} name one file")
        seen[real] = path


def _scan(ser: analysis.Series, reducers, csv=None, series_csv=None, svg=None) -> list:
    """Create the outputs given, in the order csv, series_csv, svg, then feed
    the series' one pass to the reducers and to the writers of the series:
    the series CSV's (closed at the pass's end, or when a later path fails)
    and the chart's, returned as (path, writer) pairs in that order."""
    _check_outputs(csv, series_csv, svg)
    writers = []
    with contextlib.ExitStack() as opened:
        _create(csv)
        if series_csv is not None:
            writers.append((series_csv, report.SeriesCsvWriter(series_csv)))
            opened.callback(writers[-1][1].finish)
        if svg is not None:
            _create(svg)
            writers.append((svg, report.Chart(ser, svg)))
        analysis.scan(ser, *reducers, *(writer for _, writer in writers))
    return writers


def _emit(rows=(), csv=None, writers=()) -> None:
    """Write the summary or fit rows to csv, if given, then finish each
    (path, writer) pair that _scan returned, in order."""
    if csv is not None:
        report.write_csv(rows, csv)
        print(f"wrote {csv}")
    for path, writer in writers:
        writer.finish()
        print(f"wrote {path}")


def _monoid_summary(census: monoid.MonoidCensus, total: int, mape_pct: float, eval_x: int):
    estimate = census.estimate(eval_x)
    return report.MonoidSummary(
        d=census.params.d,
        largest_element=census.change_grid()[-1],
        actual_count=total,
        estimate=estimate,
        r_ratio=analysis.ratio_R(total, estimate),
        mape_pct=mape_pct,
    )


def _cmd_monoid(args) -> int:
    census = _census("monoid", args)
    ser = analysis.stream_series(census)
    total, error = analysis.Total(), analysis.Mape()
    writers = _scan(ser, (total, error), args.csv, args.series_csv, args.svg)
    eval_x = census.change_grid()[-1] if args.eval_at == "largest" else args.limit
    row = _monoid_summary(census, total.value, error.result()[0], eval_x)
    print(
        f"monoid d={args.d} limit={args.limit}: count={row.actual_count} "
        f"estimate({eval_x})={row.estimate:.2f} R={row.r_ratio:.5f} mape={row.mape_pct:.2f}%"
    )
    _emit([row], args.csv, writers)
    return EXIT_OK


def _cmd_gauss(args) -> int:
    census = _census("gauss", args)
    ser = analysis.stream_series(census)
    total, error = analysis.Total(), analysis.Mape()
    writers = _scan(ser, (total, error), args.csv, args.series_csv, args.svg)
    row = report.MapeSummary(args.norm_limit, error.result()[0])
    print(
        f"gauss norm-limit={args.norm_limit} axes={census.axis_convention}: "
        f"count={total.value} mape={row.mape_pct:.3f}%"
    )
    _emit([row], args.csv, writers)
    return EXIT_OK


def _cmd_quad(args) -> int:
    census = _census("quad", args)
    ser = analysis.stream_series(census)
    total = analysis.Total()
    writers = _scan(ser, (total,), series_csv=args.csv, svg=args.svg)
    print(f"quad d={args.d} {census.region.kind} bound={args.bound}: irreducibles={total.value}")
    _emit(writers=writers)
    return EXIT_OK


def _fit_series(args) -> analysis.Series:
    if args.from_csv is not None and args.domain is not None:
        raise ValueError("choose either --from-csv or --domain, not both")
    if args.from_csv is None and args.domain is None:
        raise ValueError("fit needs --from-csv or --domain")
    reads = _CENSUS_FLAGS.get(args.domain, ())  # --from-csv reads none
    unused = [
        f"--{name.replace('_', '-')}"
        for name in dict.fromkeys(sum(_CENSUS_FLAGS.values(), ()))
        if getattr(args, name) is not None and name not in reads
    ]
    if unused:
        source = "--from-csv" if args.domain is None else f"--domain {args.domain}"
        raise ValueError(f"fit {source} does not read {', '.join(unused)}")
    if args.from_csv is not None:
        return report.read_series_csv(args.from_csv)
    return analysis.stream_series(_census(args.domain, args))


def _cmd_fit(args) -> int:
    ser = _fit_series(args)
    _check_outputs(args.csv)
    if args.csv is not None:
        open(args.csv, "ab").close()  # not emptied: write_csv replaces it after the pass
    result = analysis.fit_model(ser)
    print(
        f"fit {ser.label}: c={result.c:.6g} e={result.e:.6g} "
        f"rms_rel_err={result.rms_rel_err:.6g}"
    )
    _emit([result], args.csv)
    return EXIT_OK


def _cmd_table1(args) -> int:
    _check_guard(TABLE1_LIMIT, "limit")
    charts = {}
    if args.svg_dir is not None:
        charts = {d: os.path.join(args.svg_dir, f"monoid_d{d}.svg") for d in TABLE1_MODULI}
    _check_outputs(args.csv, *charts.values())
    _create(args.csv)
    if args.svg_dir is not None:
        os.makedirs(args.svg_dir, exist_ok=True)
        _create(*charts.values())
    rows = []
    for d in TABLE1_MODULI:
        census = monoid.monoid_census(monoid.MonoidParams(d=d, limit=TABLE1_LIMIT))
        ser = analysis.stream_series(census)
        total, error = analysis.Total(), analysis.Mape()
        writers = _scan(ser, (total, error), svg=charts.get(d))
        row = _monoid_summary(census, total.value, error.result()[0], census.change_grid()[-1])
        rows.append(row)
        print(
            f"d={d}: largest={row.largest_element} count={row.actual_count} "
            f"estimate={row.estimate:.2f} R={row.r_ratio:.5f} mape={row.mape_pct:.2f}%"
        )
        _emit(writers=writers)
    _emit(rows, args.csv)
    return EXIT_OK


def _cmd_table2(args) -> int:
    _check_guard(TABLE2_BOUNDS[-1], "norm-limit")
    ser = analysis.stream_series(gaussian.gaussian_census(TABLE2_BOUNDS[-1], "both-axes"))
    error = analysis.Mape(TABLE2_BOUNDS)
    writers = _scan(ser, (error,), args.csv, svg=args.svg)
    rows = [report.MapeSummary(bound, pct) for bound, pct in zip(TABLE2_BOUNDS, error.result())]
    for row in rows:
        print(f"norm-bound={row.norm_bound}: mape={row.mape_pct:.3f}%")
    _emit(rows, args.csv, writers)
    return EXIT_OK
