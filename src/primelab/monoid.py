"""Census of multiplicative-monoid primes among integers congruent to 1 mod d.

The monoid A_d = {n : n = 1 (mod d)} is closed under multiplication; an
element p > 1 is prime in A_d when it admits no factorization p = a*b with
both a, b in A_d and greater than 1.  Factors outside A_d do not count, so
A_d has primes that are composite in the ordinary sense (9 and 21 for d=4).
The census sieves A_d itself; the tests check it against trial division and,
for d=4, against rational factorization (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sieve import Census, cumulative_sum, require_estimate_points, require_int


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

    def estimate(self, x):
        """The paper's conjectured count at x, estimate_pi_d."""
        return estimate_pi_d(self.params.d, x)

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


def estimate_pi_d(d: int, x):
    """Conjectured count x / (d * (ln x)^(1/d)); accepts scalars or arrays."""
    require_int("d", d, 2)
    require_estimate_points("x", x)
    if np.ndim(x) == 0:
        result = x / (d * np.log(x) ** (1.0 / d))
        return float(result) if np.isscalar(x) else result
    result = np.log(x)  # then (ln x)^(1/d), d times it, and the quotient, in place
    result **= 1.0 / d
    result *= d
    return np.divide(x, result, out=result)
