"""Rational-prime sieving (one odd-only, segmented sieve of Eratosthenes),
the classical census pi(n), and the parts every census shares.

The sieve runs in windows of SEGMENT_SIZE numbers, each marked by the base
primes up to the square root of the limit, which the same loop sieves first
(``_prime_windows``).  ``prime_running_blocks``, the sieve's one reader,
turns each window into read-only blocks of running counts, weighted and
carried from block to block.  The classical and Gaussian censuses are read
from it (``SievedCensus``): ``running_blocks()`` streams their counts,
COUNT_BLOCK points at a time, so a pass holds one window of flags and one
block of counts whatever the bound, and ``cumulative``, built only when
first read, is the same blocks collected in place, each window written
into its slice: 4 B per bound point while the total fits int32.  The
monoid and quadratic censuses hold their whole counts, and their
``running_blocks()`` is that one array.  All four are a ``Census``: one
layout, ``cumulative[k]`` the count at ``change_grid()[k]``, and one
interface, ``change_grid``, ``running_blocks``, ``describe``, ``total`` and
``estimate``, the count the paper conjectures for the domain (None where
it asserts none).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

# Hard cap on sieve size; requests beyond this are rejected outright.
MAX_SIEVE_LIMIT = 1 << 40
# The sieve runs in windows of this many numbers.
SEGMENT_SIZE = 1 << 22
# Streamed running counts come in blocks of at most this many numbers.
COUNT_BLOCK = 1 << 16

Weigh = Callable[[int, np.ndarray], None]


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject bools, non-integers and, when given, values below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


def require_sieve_limit(name: str, value, minimum: int) -> None:
    """require_int, and reject sieve limits above MAX_SIEVE_LIMIT."""
    require_int(name, value, minimum)
    if value > MAX_SIEVE_LIMIT:
        raise ValueError(f"limit {value} exceeds maximum {MAX_SIEVE_LIMIT}")


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

    # int32 when the census's bound fits
    cumulative: np.ndarray
    estimate = None  # or a method: the conjectured count at each of an array of points

    @property
    def total(self) -> int:
        """The count at the census's own bound."""
        return int(self.cumulative[-1])

    def change_grid(self) -> range:
        """Every integer bound from 1 to the limit."""
        return range(1, len(self.cumulative) + 1)

    def running_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The counts in order, as read-only blocks (k, counts) with
        counts[i] the count at change_grid()[k + i]: here the whole array."""
        yield 0, self.cumulative


class SievedCensus(Census):
    """A census of the integers 1..limit read from the sieve, through
    prime_running_blocks: cumulative[n - 1] is the count at n.  Subclasses
    give the sieve's arguments (``_sieve``)."""

    def _sieve(self) -> tuple[int, int, Weigh | None]:
        """The limit, a bound on the total, and the weighting of each block
        of counts (None: each prime counts 1)."""
        raise NotImplementedError

    def change_grid(self) -> range:
        return range(1, self._sieve()[0] + 1)

    def running_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The counts from the sieve windows, COUNT_BLOCK points at a time in
        one buffer that each block overwrites: nothing is held whole."""
        for first, counts in prime_running_blocks(*self._sieve()):
            yield first - 1, counts

    @functools.cached_property
    def cumulative(self) -> np.ndarray:
        """The whole counts, for the readers that need random access, made
        on first read: the sieve writes each window into its slice."""
        limit, most, weigh = self._sieve()
        cumulative = np.empty(limit, dtype=count_dtype(most))
        for _ in prime_running_blocks(limit, most, weigh, out=cumulative):
            pass
        cumulative.setflags(write=False)
        return cumulative


def primes_upto(n: int) -> np.ndarray:
    """The primes <= n (>= 0), ascending, as int64, from the sieve's windows."""
    return np.concatenate([np.flatnonzero(flags) + lo for lo, flags in _prime_windows(n)])


def _prime_windows(limit: int):
    """Primality flags for 0..limit, one window of SEGMENT_SIZE numbers at a
    time: yields (lo, flags) with flags[i] == lo + i is prime.

    One odd-only sieve of Eratosthenes.  The base primes, up to
    isqrt(limit), are sieved first, by this same loop, so a window of any
    size is exact; each window [lo, hi) is marked by the odd ones p with
    p^2 < hi.  Each window is a new array, made once the loop has dropped
    the one before, so a reader that drops it too holds one window at a
    time.  (Freeing a window of this size also lets glibc's malloc serve a
    reader's per-block temporaries from its heap instead of faulting in
    fresh pages for each block.)
    """
    root = math.isqrt(limit)
    base = primes_upto(root)[1:].tolist() if root >= 3 else []  # the odd ones
    size = min(SEGMENT_SIZE, limit + 1)
    for lo in range(0, limit + 1, size):
        hi = min(lo + size, limit + 1)
        window = np.ones(hi - lo, dtype=bool)
        window[lo % 2 :: 2] = False  # the even numbers
        if lo == 0:
            window[:2] = False
            window[2:3] = True  # 2, the one even prime
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start += p * (start % 2 == 0)  # odd multiples only
            window[start - lo :: 2 * p] = False
        yield lo, window
        del window


def prime_running_blocks(limit: int, most: int, weigh: Weigh | None = None, out=None):
    """Running totals over 1..limit (>= 1) of the rational primes, in order,
    as read-only blocks (first, counts): counts[i] is the total at first + i,
    in count_dtype(most) for ``most`` a bound on the total.  No table of
    flags is kept: each block is cast from its slice of a sieve window,
    weighted there by ``weigh(first, counts)`` when given (counts[i] is 1
    where first + i is prime, 0 elsewhere), then summed in place onto the
    total carried from the block before.

    Without ``out``, the blocks are at most COUNT_BLOCK numbers long and
    share one buffer, which the next block overwrites.  With ``out``, an
    array of ``limit`` of that dtype, each window is one block, written into
    its slice, out[n - 1] the total at n: out collects the blocks in place.
    """
    require_sieve_limit("limit", limit, 1)
    if out is None:
        buffer = np.empty(min(COUNT_BLOCK, limit), dtype=count_dtype(most))
    carry = 0
    for lo, window in _prime_windows(limit):
        end = min(lo + len(window), limit + 1)
        step = len(window) if out is not None else COUNT_BLOCK
        for first in range(max(lo, 1), end, step):
            stop = min(first + step, end)
            counts = out[first - 1 : stop - 1] if out is not None else buffer[: stop - first]
            counts[:] = window[first - lo : stop - lo]
            if weigh is not None:
                weigh(first, counts)
            counts[0] += carry
            np.cumsum(counts, out=counts)
            carry = counts[-1]
            block = counts.view()
            block.setflags(write=False)
            yield first, block
        del window


@dataclass(frozen=True)
class ClassicalCensus(SievedCensus):
    """Cumulative rational-prime counts: cumulative[n - 1] is pi(n), 1 <= n <= limit."""

    limit: int

    def _sieve(self) -> tuple[int, int, None]:
        return self.limit, self.limit, None

    def describe(self) -> dict[str, str]:
        return {"domain": "classical", "limit": str(self.limit)}


def classical_census(limit: int) -> ClassicalCensus:
    """pi(n) for every n up to limit (>= 2), read from the sieve when first
    streamed or read whole."""
    require_sieve_limit("limit", limit, 2)
    return ClassicalCensus(limit=limit)
