"""Irreducible counts in Z[sqrt(-d)].

Elements are a + b*sqrt(-d) with integer coordinates and squarefree d >= 1,
norm a^2 + d*b^2.  These rings are generally not unique factorization
domains, so the censuses count irreducibles (elements with only trivial
factorizations); prime and irreducible can differ here, unlike in Z.  The
census is a product sieve that marks reducible elements, run on its first
read; the tests check it against a divisor search over one element at a
time (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .sieve import Census, _read_only, require_int

REGION_KINDS = ("norm-ball", "euclidean-ball")

# the most a census's largest norm top may be, checked when it is made, as a sieve's
# limit is by MAX_SIEVE_LIMIT: its norm grid and marks take 6 bytes per grid cell (a, b),
# a^2 <= top and d*b^2 <= top; d = 1 has the most cells, and its census at 10^8 peaks at
# about 600 MB, so no raised resource guard admits the grid of about 6 GB of 10^9; the
# grid, its norms and the counts are int32: the corner norm is at most 2*10^8 and the
# grid has at most (10^4 + 1)^2 cells, both below 2^31
MAX_CENSUS_BOUND = 10**8
# cofactor cells per step of the census's walk, which bounds its index temporaries
WALK_CELLS = 1 << 14


def validate_ring_param(d: int) -> None:
    """Accept squarefree d >= 1 (the ring Z[sqrt(-d)]); reject the rest."""
    if isinstance(d, int) and d < 0:  # any other d, 0 among them, fails require_int below
        raise ValueError(
            f"d={d} selects a real quadratic ring Z[sqrt({-d})], which has "
            "infinitely many units; only imaginary rings (d >= 1) are supported"
        )
    require_int("d", d, 1)
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
    """Irreducible counts by bound, streamed from the bound of each irreducible."""

    d: int
    region: RegionSpec

    def __post_init__(self) -> None:
        validate_ring_param(self.d)
        require_int("largest norm", self.region.largest_norm(self.d), maximum=MAX_CENSUS_BOUND)

    @functools.cached_property
    def bounds(self) -> np.ndarray:
        """The bound at which each irreducible is first counted, ascending."""
        return irreducible_bounds(self.d, self.region)

    def change_grid(self) -> range:
        """Every integer bound from 1 to the region's bound."""
        return range(1, self.region.bound + 1)

    def increment_blocks(self):
        """The number of irreducibles first counted at each bound point,
        COUNT_BLOCK bound points at a time in one buffer."""
        bounds, grid, block = self.bounds, self.change_grid(), sieve.COUNT_BLOCK
        buffer = np.empty(min(block, len(grid)), dtype=np.int32)
        handed = _read_only(buffer)
        for k in range(0, len(grid), block):
            points = grid[k : k + block]
            rows = len(points)
            # keys in the bounds' dtype: Python ints would cast all the bounds
            keys = np.array((points.start, points.stop), bounds.dtype)
            lo, hi = np.searchsorted(bounds, keys)
            buffer[:rows] = np.bincount(bounds[lo:hi] - points.start, minlength=rows)
            yield points, handed[:rows]

    def describe(self) -> str:
        return (f"domain=quadratic d={self.d} region={self.region.kind} "
                f"bound={self.region.bound} counted=irreducibles")


def quad_census(d: int, region: RegionSpec) -> QuadCensus:
    """Irreducible counts (no zero or unit) with a, b >= 0 inside the region, by bound."""
    return QuadCensus(d=d, region=region)


def irreducible_bounds(d: int, region: RegionSpec) -> np.ndarray:
    """The bound parameter of each irreducible a + b*sqrt(-d), a, b >= 0,
    inside the region, ascending, as int32.

    Product sieve on the quadrant grid of norms up to top =
    region.largest_norm(d): each irreducible y with N(y)^2 <= top, by
    increasing norm, marks y*z and y*conj(z), folded to (|a|, |b|), for every
    cell z with N(y) <= N(z) <= top/N(y).  Exact: a reducible x = p*w has an
    irreducible p with N(p) <= N(w); up to sign p and w are cells or their
    conjugates, the fold makes x, -x and conj(x) one cell, N(conj z) = N(z),
    and a marked cell is a product of two non-units, so never an irreducible y.

    Memory: 6 bytes per cell of the grid (the int32 norm grid, which becomes
    the disc's a^2 + b^2 in place, the marks and one bool mask), and 4 per
    irreducible counted, sorted in place; besides, the index temporaries of
    one WALK_CELLS step of the walk, about 40 bytes per cell of the step.
    """
    top = region.largest_norm(d)
    # every quadrant cell (a, b) of norm <= top: the region's and each product's
    a2, b2 = (np.arange(math.isqrt(n) + 1, dtype=np.int64) ** 2 for n in (top, top // d))
    norm = a2.astype(np.int32)[:, None] + (d * b2).astype(np.int32)
    counted = _mark_reducible(norm, d, top)
    np.logical_not(counted, out=counted)
    counted[:2, :2] &= norm[:2, :2] >= 2  # zero and the units
    if region.kind == "euclidean-ball":
        norm -= ((d - 1) * b2).astype(np.int32)  # now a^2 + b^2, the disc's bound parameter
    counted &= norm <= region.bound
    bounds = norm[counted]
    del norm, counted
    bounds.sort()
    return bounds


def _mark_reducible(norm: np.ndarray, d: int, top: int) -> np.ndarray:
    """The cells of the norm grid that the product sieve marks, as a bool
    grid.  Each y's cofactor view is walked WALK_CELLS cells (whole rows) at a
    time, so no index temporary is larger than one step."""
    reducible = np.zeros(norm.shape, dtype=bool)
    marks, width = reducible.reshape(-1), norm.shape[1]  # cell (a, b) at a*width + b
    root = math.isqrt(top)
    corner = norm[: math.isqrt(root) + 1, : math.isqrt(root // d) + 1]
    ia, ib = np.nonzero((corner >= 2) & (corner <= root))
    for n, ya, yb in sorted(zip(corner[ia, ib].tolist(), ia.tolist(), ib.tolist())):
        if reducible[ya, yb]:
            continue  # a multiple already marked
        m = top // n
        cofactors = norm[: math.isqrt(m) + 1, : math.isqrt(m // d) + 1]
        step = max(1, WALK_CELLS // cofactors.shape[1])
        for start in range(0, len(cofactors), step):
            rows = cofactors[start : start + step]
            za, zb = np.nonzero((rows >= n) & (rows <= m))
            za += start
            marks[np.abs(ya * za - d * yb * zb) * width + ya * zb + yb * za] = True  # y*z
            if ya and yb:  # on an axis y*conj(z) is conj(y*z) or -conj(y*z), the same cell
                marks[(ya * za + d * yb * zb) * width + np.abs(yb * za - ya * zb)] = True
    return reducible
