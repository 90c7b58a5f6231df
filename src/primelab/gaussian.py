"""Gaussian primes in the closed first quadrant, counted inside norm circles.

A point a+bi with a, b >= 0 is prime exactly when either it sits on an axis
and its nonzero coordinate is a rational prime congruent to 3 mod 4, or it
is off-axis and its norm a^2 + b^2 is a rational prime.  Counting both
(q, 0) and (0, q) follows the quadrant restriction literally and is the
default; the "dedupe-axes" convention keeps only (q, 0) so that no two
counted points are associates.  The census applies this rule to each block
of flags that the sieve of the norms yields (a SievedCensus), from norm 2
on, since no point of norm 1, a unit, is prime: a streamed pass
holds one window of flags and one block of counts.  The axis points' norms q^2 come from the
sieve's base primes q <= isqrt(norm_limit).  The tests check the rule
against a divisor scan (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import MAX_SIEVE_LIMIT, SievedCensus, primes_upto, require_estimate_points, require_int

AXIS_CONVENTIONS = ("both-axes", "dedupe-axes")


@dataclass(frozen=True)
class GaussianCensus(SievedCensus):
    """Gaussian-prime counts by integer norm bound from 2, the norm of 1+i,
    to norm_limit: int32 when 2 * norm_limit < 2**31."""

    norm_limit: int
    axis_convention: str

    def __post_init__(self) -> None:
        if self.axis_convention not in AXIS_CONVENTIONS:
            raise ValueError(f"unknown axis convention {self.axis_convention!r}")
        require_int("norm_limit", self.norm_limit, 1, MAX_SIEVE_LIMIT)

    def _sieve(self):
        """The sieve of the norms up to norm_limit, each block weighted by
        the rule above; at most 2 points per norm."""
        axis_points = 2 if self.axis_convention == "both-axes" else 1
        squares = None

        def weigh(first: int, counts: np.ndarray) -> None:
            """Points of norm first + i from counts[i], 1 where that norm is a
            rational prime (norm 2: the one point 1+i)."""
            nonlocal squares
            if squares is None:
                qs = primes_upto(math.isqrt(self.norm_limit))
                squares = qs[qs % 4 == 3] ** 2
            # p = 1 (mod 4) is a^2 + b^2 as (a, b) and (b, a), a != b
            counts[(1 - first) % 4 :: 4] *= 2
            counts[(3 - first) % 4 :: 4] = 0  # p = 3 (mod 4) is no sum of two squares
            # ...but its axis points (q, 0) and (0, q), of norm q^2, are prime
            lo, hi = np.searchsorted(squares, (first, first + len(counts)))
            counts[squares[lo:hi] - first] += axis_points

        return 1, self.norm_limit, 2 * self.norm_limit, weigh

    def estimate(self, norms):
        """The paper's conjectured count at each norm bound: estimate_pi_G
        at the radius sqrt(norm)."""
        return estimate_pi_G(np.sqrt(norms))

    def estimate_sum(self, mid, n):
        """The estimate summed over each run of n consecutive norms centred
        at mid (sum_pi_G)."""
        return sum_pi_G(mid, n)

    def describe(self) -> str:
        return f"domain=gaussian norm_limit={self.norm_limit} axes={self.axis_convention}"


def gaussian_census(norm_limit: int, convention: str) -> GaussianCensus:
    """Count Gaussian primes with a, b >= 0 by integer norm up to norm_limit,
    by reduction to the rational primes of each norm, read from the sieve
    when streamed."""
    return GaussianCensus(norm_limit=norm_limit, axis_convention=convention)


def estimate_pi_G(r):
    """Conjectured count r^2 / (2 ln r) inside the norm circle of radius r;
    accepts scalars or arrays."""
    require_estimate_points("r", r)
    if np.ndim(r) == 0:
        result = r * r / (2.0 * np.log(r))
        return float(result) if np.isscalar(r) else result
    result = np.log(r)  # then 2 ln r, then the quotient, in place
    result *= 2.0
    return np.divide(r * r, result, out=result)


def sum_pi_G(mid, n):
    """The sum of f(N) = N/ln N, the estimate at norm N, over each run of n
    consecutive norms centred at mid (arrays), by the midpoint sum

        n f(m) + f''(m) n(n^2 - 1)/24 + f''''(m) n(n^2 - 1)(3n^2 - 7)/5760,

    f''(N) = (2 - L)/(N L^3) and f''''(N) = -2(L^3 + L^2 - 6L - 12)/(N^3 L^5),
    L = ln N, and f(m) the estimate itself.  The first term left out is
    below 1e-5 (n/m)^6 of the sum."""
    log = np.log(mid)
    w = 1.0 / (mid * log)
    d2 = (2.0 - log) * w / (log * log)  # products, not powers: numpy's pow is slow
    d4 = -2.0 * (((log + 1.0) * log - 6.0) * log - 12.0) * (w * w * w) / (log * log)
    spread = n * (n * n - 1.0)
    return (n * estimate_pi_G(np.sqrt(mid))
            + spread * (d2 / 24.0 + d4 * (3.0 * n * n - 7.0) / 5760.0))
