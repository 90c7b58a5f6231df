"""Exact arithmetic and brute-force irreducibility counts in Z[sqrt(-d)].

Elements are a + b*sqrt(-d) with integer coordinates and squarefree d >= 1,
norm a^2 + d*b^2.  These rings are generally not unique factorization
domains, so the censuses count irreducibles (elements with only trivial
factorizations), which is the notion a divisor search can decide; prime and
irreducible can differ here, unlike in Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import BoundIndexedCensus, require_int, sieve_primes

REGION_KINDS = ("norm-ball", "euclidean-ball")

# divisor search is exhaustive; cap the norms it will accept
BRUTE_NORM_CAP = 10**6
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

    def conjugate(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.d)


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


@dataclass(frozen=True)
class QuadCensus(BoundIndexedCensus):
    """Cumulative irreducible counts indexed by the region's bound parameter."""

    d: int
    region: RegionSpec
    cumulative: np.ndarray  # int64, index n in [0, region.bound]

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
    return not _has_proper_divisor(x.a, x.b, x.d, n, _divisors_by_trial(n))


def _has_proper_divisor(a: int, b: int, d: int, n: int, divisors: list[int]) -> bool:
    """Any y with 1 < N(y) < n dividing a + b*sqrt(-d)?

    A divisor's norm divides n, so only representations m = alpha^2 + d*beta^2
    of proper divisors m of n need testing; (alpha, beta) and (alpha, -beta)
    together cover every associate class of that norm.
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


def _divisors_by_factoring(n: int, primes: list[int]) -> list[int]:
    """Same divisor list, but via factorization against a prime list that
    covers sqrt(n)."""
    rest = n
    divisors = [1]
    for p in primes:
        if p * p > rest:
            break
        if rest % p:
            continue
        power = 1
        powers = []
        while rest % p == 0:
            rest //= p
            power *= p
            powers.append(power)
        divisors += [q * pw for q in divisors for pw in powers]
    if rest > 1:
        divisors += [q * rest for q in divisors]
    divisors.sort()
    return [m for m in divisors if 1 < m < n]


def quad_census(d: int, region: RegionSpec) -> QuadCensus:
    """Cumulative irreducible counts over all a, b >= 0 inside the region,
    indexed by the region's bound parameter (zero and units excluded)."""
    validate_ring_param(d)
    if region.bound > MAX_CENSUS_BOUND:
        raise ValueError(f"bound {region.bound} exceeds brute-force cap {MAX_CENSUS_BOUND}")
    bound = region.bound
    euclidean = region.kind == "euclidean-ball"
    root = math.isqrt(d * bound if euclidean else bound)
    primes = sieve_primes(max(root, 2)).primes.tolist()

    counts = np.zeros(bound + 1, dtype=np.int64)
    b = 0
    while (b * b if euclidean else d * b * b) <= bound:
        amax_sq = bound - (b * b if euclidean else d * b * b)
        for a in range(0, math.isqrt(amax_sq) + 1):
            norm = a * a + d * b * b
            if norm <= 1:
                continue  # zero and units
            if not _has_proper_divisor(a, b, d, norm, _divisors_by_factoring(norm, primes)):
                counts[a * a + b * b if euclidean else norm] += 1
        b += 1

    cumulative = np.cumsum(counts, dtype=np.int64)
    cumulative.setflags(write=False)
    return QuadCensus(d=d, region=region, cumulative=cumulative)
