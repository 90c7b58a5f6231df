"""Rational-prime sieving (one odd-only, segmented sieve of Eratosthenes),
the classical census pi(n), and the parts every census shares.

The classical and Gaussian censuses read the sieve one window of
SEGMENT_SIZE numbers at a time and write their running counts straight from
each window (``prime_running_counts``, the sieve's one reader), so each
holds 4 B per bound point, its int32 counts, plus one window of flags (5 B
and 6 B per point, respectively, while they read a whole table of flags).
The monoid and quadratic censuses need no sieve of the primes.  All four
are a ``Census``: one layout, ``cumulative[k]`` the count at
``change_grid()[k]``, and one interface, ``change_grid``, ``describe``,
``total`` and ``estimate``, the count the paper conjectures for the domain
(None where it asserts none).  A count at a point is read from
``cumulative`` through the series that build_series makes of the census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hard cap on sieve size; requests beyond this are rejected outright.
MAX_SIEVE_LIMIT = 1 << 40
# The sieve runs in windows of this many numbers.  The first window holds
# every sieving prime, as isqrt(MAX_SIEVE_LIMIT) = 2**20 < SEGMENT_SIZE.
SEGMENT_SIZE = 1 << 22


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject bools, non-integers and, when given, values below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


def require_estimate_points(name: str, value) -> None:
    """Reject points an estimate cannot take: <= 1, NaN, or above 2**53."""
    points = np.asarray(value)
    if not np.all(points > 1):  # NaN compares False both ways, so it fails here
        raise ValueError(f"{name} must be > 1, got {value}")
    if np.any(points > 2**53):
        raise ValueError(f"{name} too large to evaluate in double precision")


def count_dtype(most: int) -> type[np.integer]:
    """The integer dtype for values of at most ``most``, a bound known from
    the census's parameters: int32 when it is below 2**31, else int64."""
    return np.int32 if most < 2**31 else np.int64


def cumulative_sum(counts: np.ndarray, most: int) -> np.ndarray:
    """Read-only running totals of counts, in count_dtype(most) for ``most``
    a bound on the total.  Summed in place: np.cumsum with a dtype would
    first cast the whole input to that dtype, and counts that already have
    the dtype are summed where they are, with no copy."""
    cumulative = counts.astype(count_dtype(most), copy=False)
    np.cumsum(cumulative, out=cumulative)
    cumulative.setflags(write=False)
    return cumulative


class Census:
    """Cumulative counts on the points where the count can change:
    ``cumulative[k]`` is the count at ``change_grid()[k]``, and the grid's
    stop is the census's bound + 1.  By default the grid is every integer
    bound, so ``cumulative[n - 1]`` is the count at n."""

    # from cumulative_sum or prime_running_counts: int32 when the census's bound fits
    cumulative: np.ndarray
    estimate = None  # or a method: the conjectured count at each of an array of points

    @property
    def total(self) -> int:
        """The count at the census's own bound."""
        return int(self.cumulative[-1])

    def change_grid(self) -> range:
        """Every integer bound from 1 to the limit."""
        return range(1, len(self.cumulative) + 1)


def _prime_windows(limit: int):
    """Primality flags for 0..limit, one window of SEGMENT_SIZE numbers at a
    time: yields (lo, flags) with flags[i] == lo + i is prime.

    One odd-only sieve of Eratosthenes.  The first window is sieved by
    itself and holds every sieving prime; each later window [lo, hi) is
    marked by the odd primes p of the first window with p^2 < hi.  Every
    window is the same buffer, of min(SEGMENT_SIZE, limit + 1) flags, so a
    window is overwritten once the next one is asked for.
    """
    size = min(SEGMENT_SIZE, limit + 1)
    window = np.ones(size, dtype=bool)
    window[:2] = False
    window[4::2] = False
    for p in range(3, math.isqrt(size - 1) + 1, 2):
        if window[p]:
            window[p * p :: 2 * p] = False
    base = (np.flatnonzero(window[3 : math.isqrt(limit) + 1]) + 3).tolist()
    yield 0, window
    for lo in range(size, limit + 1, size):
        hi = min(lo + size, limit + 1)
        seg = window[: hi - lo]
        seg.fill(True)
        seg[lo % 2 :: 2] = False  # the even numbers
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start += p * (start % 2 == 0)  # odd multiples only
            seg[start - lo :: 2 * p] = False
        yield lo, seg


def prime_running_counts(limit: int, most: int, weigh=None) -> np.ndarray:
    """Read-only running totals over 1..limit (>= 1) of the rational primes,
    ``cumulative[n - 1]`` the total at n, in count_dtype(most) for ``most`` a
    bound on the total.  No table of flags is kept: each sieve window is cast
    into its slice of the totals, weighted there by ``weigh(first, counts)``
    when given (counts[i] is 1 where first + i is prime, 0 elsewhere; the
    first call has first == 1 and sees every n <= isqrt(limit)), then summed
    in place onto the total carried from the window before."""
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"limit {limit} exceeds maximum {MAX_SIEVE_LIMIT}")
    cumulative = np.empty(limit, dtype=count_dtype(most))
    carry = 0
    for lo, window in _prime_windows(max(limit, 2)):
        first, stop = max(lo, 1), min(lo + len(window), limit + 1)
        counts = cumulative[first - 1 : stop - 1]
        counts[:] = window[first - lo : stop - lo]
        if weigh is not None:
            weigh(first, counts)
        counts[0] += carry
        np.cumsum(counts, out=counts)
        carry = counts[-1]
    cumulative.setflags(write=False)
    return cumulative


@dataclass(frozen=True)
class ClassicalCensus(Census):
    """Cumulative rational-prime counts: cumulative[n - 1] is pi(n), 1 <= n <= limit."""

    limit: int
    cumulative: np.ndarray

    def describe(self) -> dict[str, str]:
        return {"domain": "classical", "limit": str(self.limit)}


def classical_census(limit: int) -> ClassicalCensus:
    """pi(n) for every n up to limit (>= 2)."""
    require_int("limit", limit, 2)
    return ClassicalCensus(limit=limit, cumulative=prime_running_counts(limit, limit))
