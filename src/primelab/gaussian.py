"""Gaussian primes in the closed first quadrant, counted inside norm circles.

A point a+bi with a, b >= 0 is prime exactly when either it sits on an axis
and its nonzero coordinate is a rational prime congruent to 3 mod 4, or it
is off-axis and its norm a^2 + b^2 is a rational prime.  Counting both
(q, 0) and (0, q) follows the quadrant restriction literally and is the
default; the "dedupe-axes" convention keeps only (q, 0) so that no two
counted points are associates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import Census, PrimeTable, cumulative_sum, require_int, sieve_primes

AXIS_CONVENTIONS = ("both-axes", "dedupe-axes")

# brute-force irreducibility scans every divisor candidate; cap the norm
BRUTE_NORM_CAP = 10**6


@dataclass(frozen=True)
class GaussPoint:
    """First-quadrant Gaussian integer a + bi, not zero."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError(f"coordinates must be >= 0, got ({self.a}, {self.b})")
        if self.a == 0 and self.b == 0:
            raise ValueError("0 + 0i has no primality status")

    @property
    def norm(self) -> int:
        return self.a * self.a + self.b * self.b


@dataclass(frozen=True)
class GaussianCensus(Census):
    """Cumulative Gaussian-prime counts by integer norm bound."""

    norm_limit: int
    axis_convention: str
    cumulative: np.ndarray  # index n - 1 for norm bound n; int32 when 2*norm_limit < 2**31

    def describe(self) -> dict[str, str]:
        return {
            "domain": "gaussian",
            "norm_limit": str(self.norm_limit),
            "axes": self.axis_convention,
        }


def is_gaussian_prime(p: GaussPoint, table: PrimeTable) -> bool:
    """Classify via the norm; needs table.limit >= p.norm."""
    n = p.norm
    if table.limit < n:
        raise ValueError(f"table.limit={table.limit} < norm {n}")
    if p.b == 0:
        return p.a % 4 == 3 and bool(table.flags[p.a])
    if p.a == 0:
        return p.b % 4 == 3 and bool(table.flags[p.b])
    return bool(table.flags[n])


def gaussian_brute_irreducible(p: GaussPoint) -> bool:
    """Divisor-scan irreducibility, independent of the norm classification.

    Tests one representative x + yi (x >= 1, y >= 0) of every associate
    class with norm strictly between 1 and N(p); division is exact when
    p * conj(beta) has both coordinates divisible by N(beta).
    """
    n = p.norm
    if not 1 <= n <= BRUTE_NORM_CAP:
        raise ValueError(f"norm {n} outside oracle range [1, {BRUTE_NORM_CAP}]")
    if n == 1:
        return False  # unit
    a, b = p.a, p.b
    for y in range(0, math.isqrt(n - 1) + 1):
        hi = math.isqrt(n - 1 - y * y)
        if hi < 1:
            continue
        xs = np.arange(1, hi + 1, dtype=np.int64)
        norms = xs * xs + y * y
        re = a * xs + b * y
        im = b * xs - a * y
        divides = (norms > 1) & (re % norms == 0) & (im % norms == 0)
        if divides.any():
            return False
    return True


def gaussian_census(norm_limit: int, convention: str) -> GaussianCensus:
    """Count Gaussian primes with a, b >= 0 by integer norm up to norm_limit,
    by reduction to the rational primes of each norm."""
    if convention not in AXIS_CONVENTIONS:
        raise ValueError(f"unknown axis convention {convention!r}")
    require_int("norm_limit", norm_limit, 1)

    flags = sieve_primes(max(norm_limit, 2)).flags[: norm_limit + 1]
    counts = flags.astype(np.int8)  # norm 2: the one point 1+i
    counts[1::4] *= 2  # p = 1 (mod 4) is a^2 + b^2 as (a, b) and (b, a), a != b
    counts[3::4] = 0  # p = 3 (mod 4) is no sum of two squares
    # ...but its axis points (q, 0) and (0, q), of norm q^2, are prime
    qs = np.flatnonzero(flags[: math.isqrt(norm_limit) + 1])
    qs = qs[qs % 4 == 3]
    counts[qs * qs] += 2 if convention == "both-axes" else 1
    cumulative = cumulative_sum(counts[1:], 2 * norm_limit)  # at most 2 points per norm
    return GaussianCensus(norm_limit=norm_limit, axis_convention=convention, cumulative=cumulative)


def estimate_pi_G(r):
    """Conjectured count r^2 / (2 ln r) inside the norm circle of radius r;
    accepts scalars or arrays."""
    rs = np.asarray(r)
    if np.any(rs <= 1):
        raise ValueError(f"r must be > 1, got {r}")
    if np.any(rs > 2**53):
        raise ValueError("r too large to evaluate in double precision")
    result = r * r / (2.0 * np.log(r))
    return float(result) if np.isscalar(r) else result
