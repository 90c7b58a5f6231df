import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab import (
    MonoidParams,
    RegionSpec,
    classical_census,
    gaussian_census,
    monoid_census,
    quad_census,
    sieve_primes,
)
from primelab import sieve
from primelab.quadratic import validate_ring_param
from primelab.sieve import MAX_SIEVE_LIMIT


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_small_limit_exact():
    table = sieve_primes(10)
    assert np.flatnonzero(table.flags).tolist() == [2, 3, 5, 7]


def test_count_at_10k():
    # 1229 recomputed here against the trial-division oracle
    assert sum(1 for n in range(10**4 + 1) if trial_division_is_prime(n)) == 1229
    assert classical_census(10**4).total == 1229


def test_count_at_1e7():
    # known value pi(10^7) = 664,579; the sieve spans three segments
    assert 2 * sieve.SEGMENT_SIZE < 10**7 < 3 * sieve.SEGMENT_SIZE
    assert classical_census(10**7).total == 664_579


def test_count_at_1e8():
    # known value pi(10^8) = 5,761,455
    assert classical_census(10**8).total == 5_761_455


def test_limit_validation():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ValueError):
        sieve_primes(0)
    with pytest.raises(ValueError):
        sieve_primes(MAX_SIEVE_LIMIT + 1)
    with pytest.raises(ValueError):
        sieve_primes(2.5)


INTEGER_PARAMETERS = {
    "sieve_primes": sieve_primes,
    "classical_census": classical_census,
    "MonoidParams.d": lambda v: MonoidParams(d=v, limit=100),
    "MonoidParams.limit": lambda v: MonoidParams(d=3, limit=v),
    "gaussian_census": lambda v: gaussian_census(v, "both-axes"),
    "RegionSpec.bound": lambda v: RegionSpec("norm-ball", v),
    "validate_ring_param": validate_ring_param,
}


@pytest.mark.parametrize("value", [True, 2.5, "7"])
@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_reject_bools_and_non_integers(name, value):
    with pytest.raises(ValueError, match="must be an integer"):
        INTEGER_PARAMETERS[name](value)


def test_classical_census_matches_pi():
    census = classical_census(10**4)
    xs = np.array([1, 2, 3, 100, 9973, 10**4])
    expected = [sum(map(trial_division_is_prime, range(int(x) + 1))) for x in xs]
    assert census.counts_at(xs).tolist() == expected
    assert census.total == 1229
    assert census.describe() == {"domain": "classical", "limit": "10000"}
    with pytest.raises(ValueError):
        census.counts_at([10**4 + 1])


def test_pi_basics():
    census = classical_census(10**4)
    assert len(census.cumulative) == 10**4  # cumulative[n - 1] is pi(n)
    assert census.cumulative[0] == 0
    assert census.counts_at([1]).tolist() == [0]
    assert census.counts_at([2]).tolist() == [1]
    with pytest.raises(ValueError):
        census.counts_at([10**4 + 1])
    with pytest.raises(ValueError):
        census.counts_at([-1])


def test_pi_steps_by_zero_or_one(table_10k):
    counts = np.cumsum(table_10k.flags)
    steps = np.diff(counts)
    assert set(np.unique(steps)) <= {0, 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**5))
def test_flags_match_trial_division(table_100k, n):
    assert bool(table_100k.flags[n]) == trial_division_is_prime(n)


def test_segment_boundaries_match_trial_division(monkeypatch):
    expected = [trial_division_is_prime(n) for n in range(50_002)]
    # each size exceeds isqrt(50_001) = 223, so the first segment holds every
    # sieving prime; 50_001 = 3 * 16_667 checks that the last number is marked
    for size in (224, 1000, 4096):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
        for limit in (50_000, 50_001):
            assert sieve_primes(limit).flags.tolist() == expected[: limit + 1], (size, limit)


def test_flags_immutable(table_10k):
    with pytest.raises(ValueError):
        table_10k.flags[4] = True


def test_primes_listing(table_10k):
    primes = table_10k.primes
    assert primes[0] == 2 and primes[-1] == 9973
    assert np.all(np.diff(primes) > 0)
    assert len(primes) == 1229


# Every census, with its bound; the monoid bound 46 is no element of A_4, and
# the last three hold no primes.
CENSUSES = {
    "classical": (lambda: classical_census(1000), 1000),
    "monoid": (lambda: monoid_census(MonoidParams(4, 46)), 46),
    "gaussian": (lambda: gaussian_census(1000, "both-axes"), 1000),
    "quadratic": (lambda: quad_census(5, RegionSpec("euclidean-ball", 300)), 300),
    "monoid-empty": (lambda: monoid_census(MonoidParams(50, 40)), 40),
    "gaussian-empty": (lambda: gaussian_census(1, "dedupe-axes"), 1),
    "quadratic-empty": (lambda: quad_census(3, RegionSpec("norm-ball", 1)), 1),
}


@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_census_layout_is_shared(name):
    build, limit = CENSUSES[name]
    census = build()
    grid = np.array(census.change_grid())
    assert len(grid) == len(census.cumulative) and grid[0] == 1 and grid[-1] <= limit
    assert np.array_equal(census.counts_at(grid), census.cumulative)
    assert census.total == census.cumulative[-1]
    assert census.counts_at([limit]).tolist() == [census.total]
    for outside in (0, limit + 1):
        with pytest.raises(ValueError, match="outside census range"):
            census.counts_at([outside])
