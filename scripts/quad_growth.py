#!/usr/bin/env python3
"""Empirical growth of irreducible counts in Z[sqrt(-d)].

No estimate formula is asserted for these rings; instead the census counts
are fitted to c * x / (ln x)^e so candidate growth laws can be compared
across d.  Writes (d, region, bound, count, c, e, rms_rel_err) rows.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from primelab import (  # noqa: E402
    CountSeries,
    QuadCensus,
    RegionSpec,
    build_series,
    fit_model,
    quad_census,
)

DEFAULT_RINGS = (1, 2, 3, 5, 6, 7, 10)


def thin(census: QuadCensus, points: int = 250) -> CountSeries:
    """Keep a geometric subsample so the fit is not dominated by the tail:
    the rows of the census's series at the distinct integer parts of
    ``points`` geometrically spaced points from the first nonzero count (or
    3, if later) to the bound, each of which lies on the census's grid."""
    ser = build_series(census)
    grid = ser.grid
    lo = max(grid[int(np.argmax(ser.actual >= 1))], 3)
    if lo > grid[-1]:
        raise ValueError(f"no point from {lo} up to the bound to fit")
    xs = np.unique(np.geomspace(lo, grid[-1], points).astype(np.int64))
    return ser.take((xs - grid.start) // grid.step)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rings", type=int, nargs="*", default=list(DEFAULT_RINGS))
    parser.add_argument("--bound", type=int, default=50_000)
    parser.add_argument("--euclidean", action="store_true")
    parser.add_argument("--csv", default="out/quad_fits.csv")
    args = parser.parse_args()

    kind = "euclidean-ball" if args.euclidean else "norm-ball"

    lines = ["d,region,bound,count,c,e,rms_rel_err"]
    for d in args.rings:
        t0 = time.perf_counter()
        try:
            census = quad_census(d, RegionSpec(kind, args.bound))
            fit = fit_model(thin(census))
        except ValueError as exc:  # a bad ring or bound, or too few points to fit
            print(f"error: d={d} {kind} bound={args.bound}: {exc}", file=sys.stderr)
            return 2
        took = time.perf_counter() - t0
        count = census.total
        print(
            f"d={d}: count={count} fit c={fit.c:.4g} e={fit.e:.4g} "
            f"rms={fit.rms_rel_err:.3g} ({took:.2f}s)"
        )
        lines.append(
            f"{d},{kind},{args.bound},{count},{fit.c:.6g},{fit.e:.6g},{fit.rms_rel_err:.6g}"
        )

    path = Path(args.csv)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
