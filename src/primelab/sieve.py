"""The one sieve: a segmented sieve of Eratosthenes over the congruence
monoid A_d = {1, 1 + d, 1 + 2d, ...}, whose primes at d = 1 are the rational
primes; the classical census pi(n); and the parts every census shares.

The sieve runs over the elements past the unit 1, which is never prime, in
windows of SEGMENT_SIZE elements of A_d, each marked by the base primes of
A_d up to the square root of the limit, which the same loop sieves first
(``_prime_windows``; odd-only at d = 1).  ``prime_blocks``, the sieve's
one reader, cuts each window into whole read-only blocks of COUNT_BLOCK
weighted flags: the increments of the running counts, as they are before
any sum.  The classical, monoid and Gaussian censuses are read from it
(``SievedCensus``): their grids start past the unit too, at 1 + d (2 at
d = 1), a point that is always prime, so the sieve's blocks are their
blocks, and ``increment_blocks()`` streams them: a pass holds one window
of flags and one block of increments whatever the bound.  The quadratic
census streams its own.  All four are a ``Census``, with one interface:
``change_grid``, ``increment_blocks`` (blocks of grid points and the
count each adds, in order; the count at a point is the sum of the
increments up to it, which a series takes only for a reader that asks),
``describe`` (the census's label, ``key=value`` pairs that a fit's line
and a chart's title print) and ``estimate``, the count the paper
conjectures for the domain (None where it asserts none), which may carry
``estimate_sum``, its sum over a run of grid points in closed form.  Each
census checks its own parameters when it is made, in ``__post_init__`` (a
monoid census's in its MonoidParams), by the checks below (``require_int``
refuses bools as non-integers), so its constructor and its factory
function, which only makes it, refuse the same values with the same
message before any census work, and the sieve's reader takes the census's
checked limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

# Hard cap on sieve size; requests beyond this are rejected outright.
MAX_SIEVE_LIMIT = 1 << 40
# The sieve runs in windows of this many numbers.
SEGMENT_SIZE = 1 << 22
# Streamed counts come in blocks of at most this many numbers.
COUNT_BLOCK = 1 << 16

Weigh = Callable[[int, np.ndarray], None]


def require_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Reject bools, non-integers and, when given, values below ``minimum``
    or above ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} {value} exceeds maximum {maximum}")


def require_estimate_points(name: str, value) -> None:
    """Reject points an estimate cannot take: <= 1, NaN, or above 2**53."""
    points = np.asarray(value)
    if not np.all(points > 1):  # NaN compares False both ways, so it fails here
        raise ValueError(f"{name} must be > 1, got {value}")
    if np.any(points > 2**53):
        raise ValueError(f"{name} too large to evaluate in double precision")


def count_blocks(points, counts: np.ndarray):
    """(points[k : k + COUNT_BLOCK], counts[k : k + COUNT_BLOCK]) for each k
    from 0 in steps of COUNT_BLOCK, read at the call: slices, no copy."""
    block = COUNT_BLOCK
    return ((points[k : k + block], counts[k : k + block]) for k in range(0, len(counts), block))


class Census:
    """Counts on the points where the count can change: the census's
    change_grid(), whose stop is its bound + 1, and increment_blocks(), in
    order, read-only blocks (points, increments) that tile the grid from its
    first point, increments[i] the number counted at points[i] alone."""

    estimate = None  # or a method: the conjectured count at each of an array of points
    # or a method: the estimate summed over runs of n grid points centred at mid
    estimate_sum = None


class SievedCensus(Census):
    """A census of the elements of A_d = {1, 1 + d, 1 + 2d, ...} up to a
    limit, read from the sieve of A_d, through prime_blocks.  Its grid
    starts past the unit, which is never prime: its k-th point is
    1 + (k + 1)*d (at d = 1, k + 2), and its first point is always prime.
    Subclasses give the sieve's arguments (``_sieve``)."""

    def _sieve(self) -> tuple[int, int, int, Weigh | None]:
        """The modulus d, the limit, a bound on the total, and the weighting
        of each block of flags (None: each prime counts 1)."""
        raise NotImplementedError

    def change_grid(self) -> range:
        d, limit, _, _ = self._sieve()
        return range(1 + d, limit + 1, d)

    def increment_blocks(self) -> Iterator[tuple[range, np.ndarray]]:
        """The weighted flags from the sieve windows, COUNT_BLOCK points at a
        time in one buffer that each block overwrites: nothing is held whole."""
        return prime_blocks(*self._sieve())


def primes_upto(n: int, d: int = 1) -> np.ndarray:
    """The primes of A_d up to n (>= 1), ascending, as int64, from the
    sieve's windows: at d = 1, the rational primes (none up to 1)."""
    found = [1 + d * (lo + np.flatnonzero(flags)) for lo, flags in _prime_windows(d, n)]
    return np.concatenate([np.empty(0, dtype=np.int64), *found])


def _prime_windows(d: int, limit: int):
    """Primality flags for the elements 1 + k*d <= limit of A_d past the
    unit (k >= 1), one window of SEGMENT_SIZE indices k at a time, from
    k = 1: yields (lo, flags), flags[i] true when 1 + (lo + i)*d is a prime
    of A_d (at d = 1, a rational prime).

    A composite of A_d has a prime factor a of A_d with a^2 <= it, and its
    cofactor is in A_d too (a | n with a, n = 1 mod d forces n/a = 1 mod d),
    so each prime a = 1 + i*d marks its products a*b, b >= a in A_d: index
    i*(a + 1) on, stride a.  The base primes, up to isqrt(limit), are sieved
    first by this same loop, so a window of any size is exact; a window is
    marked by those with a^2 <= its top element.  At d = 1 the sieve is
    odd-only: the even numbers go in one slice, odd a marks stride 2a.
    Each window is a new array, made once the loop has dropped the one
    before, so a reader that drops it too holds one window at a time.
    (Freeing a window of this size also lets glibc's malloc serve a reader's
    per-block temporaries from its heap instead of faulting in fresh pages
    for each block.)
    """
    root, elements = math.isqrt(limit), (limit - 1) // d + 1
    base = primes_upto(root, d).tolist() if root > d else []
    if d == 1:
        base = base[1:]  # the odd primes: 2's multiples go in one slice
    for lo in range(1, elements, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, elements)
        window = np.ones(hi - lo, dtype=bool)
        if d == 1:
            window[(lo + 1) % 2 :: 2] = False  # the even numbers
            if lo == 1:
                window[0] = True  # 2, the one even prime
        top = 1 + (hi - 1) * d
        for a in base:
            if a * a > top:
                break
            i = (a - 1) // d
            start = max(i * (a + 1), lo + (i - lo) % a)  # the first product a*b in the window
            if d == 1:
                start += a * (start % 2)  # odd multiples only
            window[start - lo :: 2 * a if d == 1 else a] = False
        yield lo, window
        del window


def prime_blocks(d: int, limit: int, most: int, weigh: Weigh | None = None):
    """The primes of A_d over its elements past the unit up to limit (>= 1,
    as its census checks), in order, as read-only blocks (points, counts):
    counts[i] is 1 where the element points[i] is prime, 0 elsewhere,
    weighted in place by ``weigh(points[0], counts)`` when given, so that
    the running sum of the counts is the census's count.  They are int32
    when ``most``, a bound on that sum, is below 2**31, else int64.  No
    table of flags is kept: each block is cast from its slice of a sieve
    window.

    Every block but the last is COUNT_BLOCK rows, whatever the window, as
    in a series CSV read back: Mape and FitMoments sum per block, so their
    bits hold across window sizes and from a census to its CSV.  A census of
    more than one window thus needs a SEGMENT_SIZE that is a multiple of
    COUNT_BLOCK (ValueError otherwise).  The blocks share one buffer, which
    the next block overwrites.
    """
    points, block = (limit - 1) // d, COUNT_BLOCK
    if points > SEGMENT_SIZE and SEGMENT_SIZE % block:
        raise ValueError(f"a sieve window of {SEGMENT_SIZE} elements is no whole number "
                         f"of blocks of {block}")
    buffer = np.empty(min(block, points), dtype=np.int32 if most < 2**31 else np.int64)
    handed = _read_only(buffer)
    for lo, window in _prime_windows(d, limit):
        for start in range(0, len(window), block):
            rows = min(block, len(window) - start)
            counts = buffer[:rows]
            counts[:] = window[start : start + rows]
            first = 1 + (lo + start) * d
            if weigh is not None:
                weigh(first, counts)
            yield range(first, first + rows * d, d), handed[:rows]
        del window


def _read_only(buffer: np.ndarray) -> np.ndarray:
    """A read-only view of buffer, whose slices are read-only too."""
    view = buffer.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class ClassicalCensus(SievedCensus):
    """Rational-prime counts: pi(n) at each n from 2 to the limit."""

    limit: int

    def __post_init__(self) -> None:
        require_int("limit", self.limit, 2, MAX_SIEVE_LIMIT)

    def _sieve(self) -> tuple[int, int, int, None]:
        return 1, self.limit, self.limit, None

    def describe(self) -> str:
        return f"domain=classical limit={self.limit}"


def classical_census(limit: int) -> ClassicalCensus:
    """pi(n) for every n up to limit (>= 2), read from the sieve when
    streamed."""
    return ClassicalCensus(limit=limit)
