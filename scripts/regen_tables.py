#!/usr/bin/env python3
"""Regenerate the summary tables and figures as CSV/SVG artifacts.

Produces, under --out (default ./out):
  monoid_summary.csv   count vs estimate for d in {3,5,7,9,11,13,21,50} up to 1e4
  gauss_mape.csv       Gaussian MAPE at norm bounds 1e3..1e7
  figures/monoid_d*.svg, figures/gauss_1e7.svg

The table2 run draws figures/gauss_1e7.svg from the same 10^7 series whose
MAPE it tabulates (table2 --svg), so that census is built once.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from primelab.cli import run_cli  # noqa: E402

FIGURE_MODULI = (3, 7, 13, 50)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    out = Path(args.out)
    figures = out / "figures"
    figures.mkdir(parents=True, exist_ok=True)

    rc = run_cli(["table1", "--csv", str(out / "monoid_summary.csv")])
    if rc:
        return rc
    rc = run_cli(
        ["table2", "--csv", str(out / "gauss_mape.csv"), "--svg", str(figures / "gauss_1e7.svg")]
    )
    if rc:
        return rc
    for d in FIGURE_MODULI:
        rc = run_cli(
            ["monoid", "--d", str(d), "--limit", "10000",
             "--svg", str(figures / f"monoid_d{d}.svg")]
        )
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
