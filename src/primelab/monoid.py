"""Census of multiplicative-monoid primes among integers congruent to 1 mod d.

The monoid A_d = {n : n = 1 (mod d)} is closed under multiplication; an
element p > 1 is prime in A_d when it admits no factorization p = a*b with
both a, b in A_d and greater than 1.  Factors outside A_d do not count, so
A_d has primes that are composite in the ordinary sense (9 and 21 for d=4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sieve import Census, PrimeTable, cumulative_sum, require_int


@dataclass(frozen=True)
class MonoidParams:
    """Modulus d >= 2 and inclusive census bound."""

    d: int
    limit: int

    def __post_init__(self) -> None:
        require_int("d", self.d, 2)
        require_int("limit", self.limit, 1)


@dataclass(frozen=True)
class MonoidCensus(Census):
    """Monoid-prime counts over A_d up to the limit, one per monoid element:
    cumulative[k] is the number of monoid primes <= 1 + k*d, the k-th point
    of change_grid() (nothing is stored for integers outside the monoid)."""

    params: MonoidParams
    cumulative: np.ndarray  # int32 when the element count fits, else int64

    def change_grid(self) -> range:
        """Points where the count can change: the elements of A_d, ascending."""
        return range(1, self.params.limit + 1, self.params.d)

    def describe(self) -> dict[str, str]:
        return {
            "domain": "monoid",
            "d": str(self.params.d),
            "limit": str(self.params.limit),
        }


def monoid_census(params: MonoidParams) -> MonoidCensus:
    """Sieve the monoid primes of A_d up to the limit.

    Marking scheme: for each unmarked a in A_d with 1 < a, a*a <= limit, mark
    every product a*b with b in A_d, b >= a.  One-sided marking suffices
    because a | n with a, n = 1 (mod d) forces n/a = 1 (mod d); restricting
    the outer loop to unmarked a is safe because any monoid composite has a
    monoid-prime divisor p with p <= n/p.
    """
    d, limit = params.d, params.limit

    k_max = (limit - 1) // d
    composite = np.zeros(k_max + 1, dtype=bool)
    i = 1
    while True:
        a = 1 + i * d
        if a * a > limit:
            break
        if not composite[i]:
            # element a*(1 + j*d) sits at index i + a*j; start at j = i
            composite[i * (a + 1) :: a] = True
        i += 1

    prime = np.logical_not(composite, out=composite)
    prime[0] = False  # the identity 1 is not a prime
    return MonoidCensus(params=params, cumulative=cumulative_sum(prime, len(prime)))


def is_monoid_prime(n: int, d: int) -> bool:
    """Trial-division check, independent of the census sieve.

    True iff n > 1 and no divisor a of n with 1 < a <= sqrt(n) lies in A_d.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n < 1 or n % d != 1:
        raise ValueError(f"n={n} is not in A_{d}")
    if n == 1:
        return False
    a = 1 + d
    while a * a <= n:
        if n % a == 0:
            return False
        a += d
    return True


def estimate_pi_d(d: int, x):
    """Conjectured count x / (d * (ln x)^(1/d)); accepts scalars or arrays."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    xs = np.asarray(x)
    if np.any(xs <= 1):
        raise ValueError(f"x must be > 1, got {x}")
    if np.any(xs > 2**53):
        raise ValueError("x too large to evaluate in double precision")
    result = x / (d * np.log(x) ** (1.0 / d))
    return float(result) if np.isscalar(x) else result


def largest_element(params: MonoidParams) -> int:
    """Largest member of A_d not exceeding the limit."""
    return params.limit - (params.limit - 1) % params.d


def hilbert_classify(n: int, table: PrimeTable) -> bool:
    """Independent primality oracle for A_4 via rational factorization.

    An element of A_4 is a monoid prime exactly when it is a rational prime
    (necessarily 1 mod 4) or a product of two rational primes that are each
    3 mod 4.
    """
    if n < 1 or n % 4 != 1:
        raise ValueError(f"n={n} is not in A_4")
    if n > table.limit:
        raise ValueError(f"n={n} exceeds table.limit={table.limit}")
    if n == 1:
        return False
    if table.flags[n]:
        return True
    for p in table.primes:
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            q = n // p
            return p % 4 == 3 and q % 4 == 3 and bool(table.flags[q])
    return False  # unreachable for composite n within the table
