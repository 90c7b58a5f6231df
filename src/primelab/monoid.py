"""Census of multiplicative-monoid primes among integers congruent to 1 mod d.

The monoid A_d = {n : n = 1 (mod d)} is closed under multiplication; an
element p > 1 is prime in A_d when it admits no factorization p = a*b with
both a, b in A_d and greater than 1.  Factors outside A_d do not count, so
A_d has primes that are composite in the ordinary sense (9 and 21 for d=4).
The census reads the package's one sieve (``sieve.py``) at modulus d, as a
SievedCensus, over the elements past the identity 1, from 1 + d, which is
always prime: nothing smaller in A_d divides it.  The tests check it
against trial division, against the marking loop it ran before over a
whole array of elements and, for d=4, against rational factorization
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sieve import MAX_SIEVE_LIMIT, SievedCensus, require_estimate_points, require_int


@dataclass(frozen=True)
class MonoidParams:
    """Modulus d >= 2 and inclusive census bound."""

    d: int
    limit: int

    def __post_init__(self) -> None:
        require_int("d", self.d, 2)
        require_int("limit", self.limit, 1, MAX_SIEVE_LIMIT)


@dataclass(frozen=True)
class MonoidCensus(SievedCensus):
    """Monoid-prime counts over A_d up to the limit, one per monoid element
    past the unit: the number of monoid primes <= 1 + (k + 1)*d at the k-th
    point of change_grid(), int32 when the element count fits, else int64."""

    params: MonoidParams

    def _sieve(self) -> tuple[int, int, int, None]:
        d, limit = self.params.d, self.params.limit
        return d, limit, (limit - 1) // d + 1, None  # at most one prime per element

    def estimate(self, x):
        """The paper's conjectured count at x, estimate_pi_d."""
        return estimate_pi_d(self.params.d, x)

    def describe(self) -> str:
        return f"domain=monoid d={self.params.d} limit={self.params.limit}"


def monoid_census(params: MonoidParams) -> MonoidCensus:
    """The monoid primes of A_d up to the limit, read from the sieve of A_d
    when streamed."""
    return MonoidCensus(params=params)


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
