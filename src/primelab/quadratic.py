"""Exact arithmetic and irreducibility counts in Z[sqrt(-d)].

Elements are a + b*sqrt(-d) with integer coordinates and squarefree d >= 1,
norm a^2 + d*b^2.  These rings are generally not unique factorization
domains, so the censuses count irreducibles (elements with only trivial
factorizations); prime and irreducible can differ here, unlike in Z.  The
census is a product sieve that marks reducible elements; a divisor search
over one element (``quad_is_irreducible``) is its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import Census, cumulative_sum, require_int

REGION_KINDS = ("norm-ball", "euclidean-ball")

# the divisor-search oracle is exhaustive; cap the norms it will accept
BRUTE_NORM_CAP = 10**6
# the census's cofactor list grows with the region's largest norm; cap that norm
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
class QuadInt:
    """The element a + b*sqrt(-d) of Z[sqrt(-d)]."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        validate_ring_param(self.d)


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


def quad_norm(x: QuadInt) -> int:
    return x.a * x.a + x.d * x.b * x.b


def quad_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    if x.d != y.d:
        raise ValueError(f"mismatched ring parameters {x.d} and {y.d}")
    return QuadInt(x.a * y.a - x.d * x.b * y.b, x.a * y.b + x.b * y.a, x.d)


def quad_divide_exact(x: QuadInt, y: QuadInt) -> QuadInt | None:
    """The quotient x/y when it lies in the ring, else None."""
    if x.d != y.d:
        raise ValueError(f"mismatched ring parameters {x.d} and {y.d}")
    n = quad_norm(y)
    if n == 0:
        raise ValueError("division by zero")
    # x / y = x * conj(y) / N(y)
    re = x.a * y.a + x.d * x.b * y.b
    im = x.b * y.a - x.a * y.b
    if re % n or im % n:
        return None
    return QuadInt(re // n, im // n, x.d)


def quad_is_unit(x: QuadInt) -> bool:
    return quad_norm(x) == 1


def quad_is_irreducible(x: QuadInt) -> bool:
    """Exhaustive divisor search over candidate norms dividing N(x)."""
    n = quad_norm(x)
    if not 2 <= n <= BRUTE_NORM_CAP:
        raise ValueError(f"norm {n} outside brute-force range [2, {BRUTE_NORM_CAP}]")
    return not _has_proper_divisor(x.a, x.b, x.d, _divisors_by_trial(n))


def _has_proper_divisor(a: int, b: int, d: int, divisors: list[int]) -> bool:
    """Any y with 1 < N(y) < n = a^2 + d*b^2 dividing a + b*sqrt(-d)?

    A divisor's norm divides n, so only representations m = alpha^2 + d*beta^2
    of the proper divisors m of n (``divisors``) need testing; (alpha, beta)
    and (alpha, -beta) together cover every associate class of that norm.
    """
    for m in divisors:
        for beta in range(0, math.isqrt(m // d) + 1):
            rem = m - d * beta * beta
            alpha = math.isqrt(rem)
            if alpha * alpha != rem:
                continue
            candidates = ((alpha, beta), (alpha, -beta)) if alpha and beta else ((alpha, beta),)
            for ya, yb in candidates:
                re = a * ya + d * b * yb
                im = b * ya - a * yb
                if re % m == 0 and im % m == 0:
                    return True
    return False


def _divisors_by_trial(n: int) -> list[int]:
    """Divisors m of n with 1 < m < n, ascending, by sqrt-bounded trial."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return [m for m in small + large[::-1] if 1 < m < n]


def _half_plane(d: int, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, norm) of z with b > 0 or b = 0 < a, and 2 <= N(z) <= limit, by norm."""
    r = math.isqrt(limit)
    za, zb = np.ogrid[-r : r + 1, : math.isqrt(limit // d) + 1]
    norm = za * za + d * zb * zb
    ia, ib = np.nonzero(((zb > 0) | (za > 0)) & (norm >= 2) & (norm <= limit))
    order = np.argsort(norm[ia, ib], kind="stable")
    return ia[order] - r, ib[order], norm[ia, ib][order]


def quad_census(d: int, region: RegionSpec) -> QuadCensus:
    """Cumulative irreducible counts over all a, b >= 0 inside the region,
    at each bound 1..region.bound (zero and units excluded).

    Product sieve up to top = region.largest_norm(d): each irreducible y with
    N(y)^2 <= top, by increasing norm, marks y*z for every z (one of each pair
    z, -z) with N(y) <= N(z) <= top/N(y).  Exact, as a reducible x = p*w has an
    irreducible p with N(p) <= N(w), and the fold to (|a|, |b|) keeps reducibility.
    """
    validate_ring_param(d)
    top = region.largest_norm(d)
    if top > MAX_CENSUS_BOUND:
        raise ValueError(f"largest norm {top} exceeds census cap {MAX_CENSUS_BOUND}")
    # every quadrant cell (a, b) of norm <= top: the region's and each product's
    a, b = np.ogrid[: math.isqrt(top) + 1, : math.isqrt(top // d) + 1]
    norm = a * a + d * b * b
    reducible = np.zeros(norm.shape, dtype=bool)

    za, zb, znorm = _half_plane(d, top // 2)
    small = int(np.searchsorted(znorm, math.isqrt(top), side="right"))
    for ya, yb, n in zip(za[:small].tolist(), zb[:small].tolist(), znorm[:small].tolist()):
        if ya < 0 or reducible[ya, yb]:
            continue  # outside the quadrant, or a multiple already marked
        lo, hi = np.searchsorted(znorm, (n, top // n + 1))
        re = np.abs(ya * za[lo:hi] - d * yb * zb[lo:hi])
        im = np.abs(ya * zb[lo:hi] + yb * za[lo:hi])
        reducible[re, im] = True

    index = a * a + b * b if region.kind == "euclidean-ball" else norm
    counted = (index <= region.bound) & (norm >= 2) & ~reducible
    counts = np.bincount(index[counted], minlength=region.bound + 1)
    cumulative = cumulative_sum(counts[1:], norm.size)  # at most one count per quadrant cell
    return QuadCensus(d=d, region=region, cumulative=cumulative)
