#!/usr/bin/env python3
"""Locate, for each modulus d, where the estimate permanently overtakes the
actual monoid-prime count.

The census bound doubles until the last sign change sits comfortably inside
the covered range (the estimate keeps drifting upward, so a crossover found
well before the bound is stable).  Writes a CSV of (d, crossover, bound).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from primelab import (  # noqa: E402
    MonoidParams,
    find_crossover,
    monoid_census,
    stream_series,
)

DEFAULT_MODULI = (3, 5, 7, 9, 11, 13, 21, 50)


def hunt(d: int, start: int = 2000, cap: int = 2_000_000) -> tuple[int | None, int]:
    limit = start
    while True:
        census = monoid_census(MonoidParams(d, limit))
        x = find_crossover(stream_series(census))
        if x is not None and x <= limit // 2:
            return x, limit
        if limit >= cap:
            return x, limit
        limit *= 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--moduli", type=int, nargs="*", default=list(DEFAULT_MODULI))
    parser.add_argument("--csv", default="out/crossovers.csv")
    args = parser.parse_args()

    rows = []
    for d in args.moduli:
        t0 = time.perf_counter()
        x, limit = hunt(d)
        took = time.perf_counter() - t0
        shown = x if x is not None else "none"
        print(f"d={d}: crossover={shown} (bound {limit}, {took:.2f}s)")
        rows.append((d, x, limit))

    path = Path(args.csv)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["d,crossover,bound"]
    lines += [f"{d},{'' if x is None else x},{limit}" for d, x, limit in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
