"""Rational-prime sieving, the classical counting function pi(x), and the
parts every census shares.

The classical and Gaussian censuses sieve the PrimeTable they need
themselves; the monoid and quadratic censuses need none.  All four answer
the same interface: ``counts_at``, ``change_grid``, ``describe`` and
``total``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Hard cap on sieve size; requests beyond this are rejected outright.
MAX_SIEVE_LIMIT = 1 << 40
# Above this the marking loop runs in cache-sized segments.
SEGMENT_THRESHOLD = 10**8
DEFAULT_SEGMENT_SIZE = 1 << 22


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject bools, non-integers and, when given, values below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


class BoundIndexedCensus:
    """Census whose ``cumulative[n]`` is the count at bound n, 0 <= n <= limit."""

    cumulative: np.ndarray  # int64, read-only

    @property
    def total(self) -> int:
        """The count at the census's own bound."""
        return int(self.cumulative[-1])

    def counts_at(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and (xs.min() < 1 or xs.max() >= len(self.cumulative)):
            raise ValueError("evaluation points outside census range")
        return self.cumulative[xs]

    def change_grid(self) -> np.ndarray:
        """Every integer bound from 1 to the limit."""
        return np.arange(1, len(self.cumulative), dtype=np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Boolean primality flags for 0..limit, immutable after construction."""

    limit: int
    flags: np.ndarray  # bool, length limit + 1, flags[n] == n is prime

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [0, {self.limit}]")
        return bool(self.flags[n])

    @cached_property
    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending."""
        return np.flatnonzero(self.flags).astype(np.int64)


def sieve_primes(limit: int, segment_size: int | None = None) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit``.

    ``segment_size`` forces segmented marking (used by tests to check that
    segmented and one-shot runs agree); by default segmentation kicks in
    only above SEGMENT_THRESHOLD.
    """
    require_int("limit", limit, 2)
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"limit {limit} exceeds maximum {MAX_SIEVE_LIMIT}")

    if segment_size is None and limit > SEGMENT_THRESHOLD:
        segment_size = DEFAULT_SEGMENT_SIZE

    if segment_size is None:
        flags = _sieve_flat(limit)
    else:
        flags = _sieve_segmented(limit, segment_size)
    flags.setflags(write=False)
    return PrimeTable(limit=limit, flags=flags)


def _sieve_flat(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return flags


def _sieve_segmented(limit: int, segment_size: int) -> np.ndarray:
    if segment_size < 2:
        raise ValueError("segment_size must be >= 2")
    root = math.isqrt(limit)
    base = _sieve_flat(max(root, 2))
    base_primes = np.flatnonzero(base)

    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for lo in range(0, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        seg = flags[lo:hi]
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg[start - lo :: p] = False
    return flags


@dataclass(frozen=True)
class ClassicalCensus(BoundIndexedCensus):
    """Cumulative rational-prime counts pi(n) for 0 <= n <= limit."""

    limit: int
    cumulative: np.ndarray

    def describe(self) -> dict[str, str]:
        return {"domain": "classical", "limit": str(self.limit)}


def classical_census(limit: int) -> ClassicalCensus:
    """pi(n) for every n up to limit (>= 2)."""
    cumulative = np.cumsum(sieve_primes(limit).flags, dtype=np.int64)
    cumulative.setflags(write=False)
    return ClassicalCensus(limit=limit, cumulative=cumulative)


def pi(table: PrimeTable, x: int) -> int:
    """Number of rational primes <= x."""
    if not 0 <= x <= table.limit:
        raise ValueError(f"x={x} outside table range [0, {table.limit}]")
    return int(np.count_nonzero(table.flags[: x + 1]))
