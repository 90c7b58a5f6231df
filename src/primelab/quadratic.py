"""Irreducible counts in Z[sqrt(-d)].

Elements are a + b*sqrt(-d) with integer coordinates and squarefree d >= 1,
norm a^2 + d*b^2.  These rings are generally not unique factorization
domains, so the censuses count irreducibles (elements with only trivial
factorizations); prime and irreducible can differ here, unlike in Z.  The
census is a product sieve that marks reducible elements; the tests check it
against a divisor search over one element at a time (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import Census, cumulative_sum, require_int

REGION_KINDS = ("norm-ball", "euclidean-ball")

# the census's norm grid and its marks grow with the region's largest norm; cap that norm
MAX_CENSUS_BOUND = 10**6


def validate_ring_param(d: int) -> None:
    """Accept squarefree d >= 1 (the ring Z[sqrt(-d)]); reject the rest."""
    require_int("d", d)
    if d < 1:
        raise ValueError(
            f"d={d} selects a real quadratic ring Z[sqrt({-d})], which has "
            "infinitely many units; only imaginary rings (d >= 1) are supported"
        )
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            raise ValueError(f"d={d} is not squarefree (divisible by {p}^2)")
        p += 1


@dataclass(frozen=True)
class RegionSpec:
    """First-quadrant counting region: norm-ball (a^2 + d*b^2 <= bound) or
    euclidean-ball (a^2 + b^2 <= bound)."""

    kind: str
    bound: int

    def __post_init__(self) -> None:
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        require_int("bound", self.bound, 1)

    def largest_norm(self, d: int) -> int:
        """Bound on the ring norm a^2 + d*b^2 of the region's cells."""
        return self.bound * d if self.kind == "euclidean-ball" else self.bound


@dataclass(frozen=True)
class QuadCensus(Census):
    """Cumulative irreducible counts by the region's bound parameter."""

    d: int
    region: RegionSpec
    cumulative: np.ndarray  # index n - 1 for bound n; int32 under the census cap

    def describe(self) -> dict[str, str]:
        return {
            "domain": "quadratic",
            "d": str(self.d),
            "region": self.region.kind,
            "bound": str(self.region.bound),
            "counted": "irreducibles",
        }


def quad_census(d: int, region: RegionSpec) -> QuadCensus:
    """Cumulative irreducible counts over all a, b >= 0 inside the region,
    at each bound 1..region.bound (zero and units excluded).

    Product sieve on the quadrant grid of norms up to top =
    region.largest_norm(d): each irreducible y with N(y)^2 <= top, by
    increasing norm, marks y*z and y*conj(z), folded to (|a|, |b|), for every
    cell z with N(y) <= N(z) <= top/N(y).  Exact: a reducible x = p*w has an
    irreducible p with N(p) <= N(w); up to sign p and w are cells or their
    conjugates, the fold makes x, -x and conj(x) one cell, N(conj z) = N(z),
    and a marked cell is a product of two non-units, so never an irreducible y.
    """
    validate_ring_param(d)
    top = region.largest_norm(d)
    if top > MAX_CENSUS_BOUND:
        raise ValueError(f"largest norm {top} exceeds census cap {MAX_CENSUS_BOUND}")
    # every quadrant cell (a, b) of norm <= top: the region's and each product's
    root = math.isqrt(top)
    a, b = np.ogrid[: root + 1, : math.isqrt(top // d) + 1]
    norm = a * a + d * b * b
    reducible = np.zeros(norm.shape, dtype=bool)

    corner = norm[: math.isqrt(root) + 1, : math.isqrt(root // d) + 1]
    ia, ib = np.nonzero((corner >= 2) & (corner <= root))
    for n, ya, yb in sorted(zip(corner[ia, ib].tolist(), ia.tolist(), ib.tolist())):
        if reducible[ya, yb]:
            continue  # a multiple already marked
        m = top // n
        cofactors = norm[: math.isqrt(m) + 1, : math.isqrt(m // d) + 1]
        za, zb = np.nonzero((cofactors >= n) & (cofactors <= m))
        reducible[np.abs(ya * za - d * yb * zb), ya * zb + yb * za] = True  # y*z
        reducible[ya * za + d * yb * zb, np.abs(yb * za - ya * zb)] = True  # y*conj(z)

    index = a * a + b * b if region.kind == "euclidean-ball" else norm
    counted = (index <= region.bound) & (norm >= 2) & ~reducible
    counts = np.bincount(index[counted], minlength=region.bound + 1)
    cumulative = cumulative_sum(counts[1:], norm.size)  # at most one count per quadrant cell
    return QuadCensus(d=d, region=region, cumulative=cumulative)
