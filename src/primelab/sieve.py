"""Rational-prime sieving (one odd-only, segmented sieve of Eratosthenes),
the classical census pi(n), and the parts every census shares.

The classical and Gaussian censuses sieve the PrimeTable they need
themselves; the monoid and quadratic censuses need none.  All four are a
``Census``: one layout, ``cumulative[k]`` the count at ``change_grid()[k]``,
and one interface, ``counts_at``, ``change_grid``, ``describe`` and ``total``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Hard cap on sieve size; requests beyond this are rejected outright.
MAX_SIEVE_LIMIT = 1 << 40
# Marking runs in segments of this many numbers.  The first segment holds
# every sieving prime, as isqrt(MAX_SIEVE_LIMIT) = 2**20 < SEGMENT_SIZE.
SEGMENT_SIZE = 1 << 22


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject bools, non-integers and, when given, values below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


def cumulative_sum(counts: np.ndarray, most: int) -> np.ndarray:
    """Read-only running totals of counts, as int32 when ``most``, a bound on
    the total known from the census's parameters, is below 2**31 and as
    int64 otherwise.  Summed in place: np.cumsum with a dtype would first
    cast the whole input to that dtype."""
    cumulative = counts.astype(np.int32 if most < 2**31 else np.int64)
    np.cumsum(cumulative, out=cumulative)
    cumulative.setflags(write=False)
    return cumulative


class Census:
    """Cumulative counts on the points where the count can change:
    ``cumulative[k]`` is the count at ``change_grid()[k]``, and the grid's
    stop is the census's bound + 1.  By default the grid is every integer
    bound, so ``cumulative[n - 1]`` is the count at n."""

    cumulative: np.ndarray  # from cumulative_sum: int32 when the census's bound fits

    @property
    def total(self) -> int:
        """The count at the census's own bound."""
        return int(self.cumulative[-1])

    def counts_at(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized count at each x (1 <= x <= the census's bound)."""
        xs = np.asarray(xs, dtype=np.int64)
        grid = self.change_grid()
        if xs.size and (xs.min() < 1 or xs.max() >= grid.stop):
            raise ValueError("evaluation points outside census range")
        return self.cumulative[(xs - 1) // grid.step]

    def change_grid(self) -> range:
        """Every integer bound from 1 to the limit."""
        return range(1, len(self.cumulative) + 1)


@dataclass(frozen=True)
class PrimeTable:
    """Boolean primality flags for 0..limit, immutable after construction."""

    limit: int
    flags: np.ndarray  # bool, length limit + 1, flags[n] == n is prime

    @cached_property
    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending."""
        return np.flatnonzero(self.flags).astype(np.int64)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit``.

    Even numbers are cleared once and only odd multiples are marked, one
    SEGMENT_SIZE block at a time.  The first block is sieved by itself; each
    later block [lo, hi) is marked by the odd primes p of the first block
    with p^2 < hi.
    """
    require_int("limit", limit, 2)
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"limit {limit} exceeds maximum {MAX_SIEVE_LIMIT}")

    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    first = flags[:SEGMENT_SIZE]
    for p in range(3, math.isqrt(len(first) - 1) + 1, 2):
        if first[p]:
            first[p * p :: 2 * p] = False
    base = (np.flatnonzero(first[3 : math.isqrt(limit) + 1]) + 3).tolist()
    for lo in range(SEGMENT_SIZE, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        seg = flags[lo:hi]
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start += p * (start % 2 == 0)  # odd multiples only
            seg[start - lo :: 2 * p] = False
    flags.setflags(write=False)
    return PrimeTable(limit=limit, flags=flags)


@dataclass(frozen=True)
class ClassicalCensus(Census):
    """Cumulative rational-prime counts: cumulative[n - 1] is pi(n), 1 <= n <= limit."""

    limit: int
    cumulative: np.ndarray

    def describe(self) -> dict[str, str]:
        return {"domain": "classical", "limit": str(self.limit)}


def classical_census(limit: int) -> ClassicalCensus:
    """pi(n) for every n up to limit (>= 2)."""
    cumulative = cumulative_sum(sieve_primes(limit).flags[1:], limit)
    return ClassicalCensus(limit=limit, cumulative=cumulative)

