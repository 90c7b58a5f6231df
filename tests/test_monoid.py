import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    a4_atom_count,
    census_counts_at,
    census_total,
    hilbert_classify,
    is_monoid_prime,
    table_primes,
    whole_counts,
)
from primelab import MonoidParams, estimate_pi_d, monoid_census


def census(d, limit):
    return monoid_census(MonoidParams(d=d, limit=limit))


def prime_flags(c):
    """One flag per monoid element: the count steps up exactly at a prime."""
    return np.diff(whole_counts(c), prepend=0) > 0


def flagged_elements(c):
    return np.array(c.change_grid())[prime_flags(c)].tolist()


def test_census_d4_to_45():
    # 9 and 21 factor only through 3 and 7, which are outside the monoid;
    # 33 = 3 * 11 likewise, so it is prime here even though 25 and 45 are not
    c = census(4, 45)
    assert flagged_elements(c) == [5, 9, 13, 17, 21, 29, 33, 37, 41]


def test_census_d4_tiny():
    assert flagged_elements(census(4, 5)) == [5]


def test_census_d3_count():
    c = census(3, 10**4)
    assert census_total(c) == 1380


def test_census_identity_not_prime():
    c = census(7, 10**3)
    # the grid starts past the identity 1, at 1 + d, which is prime
    assert c.change_grid()[0] == 8 and prime_flags(c)[0]
    steps = np.diff(whole_counts(c))
    assert set(np.unique(steps)) <= {0, 1}


def test_is_monoid_prime_examples():
    assert is_monoid_prime(9, 4)
    assert not is_monoid_prime(25, 4)
    assert not is_monoid_prime(1, 4)
    assert not is_monoid_prime(45, 4)
    assert is_monoid_prime(33, 4)
    assert is_monoid_prime(21, 4)


def test_is_monoid_prime_validation():
    with pytest.raises(ValueError):
        is_monoid_prime(7, 4)
    with pytest.raises(ValueError):
        is_monoid_prime(0, 4)
    with pytest.raises(ValueError):
        is_monoid_prime(5, 1)


def test_pi_d_values():
    c3 = census(3, 10**4)
    assert census_total(c3) == 1380
    c5 = census(5, 5)
    assert census_total(c5) == 0
    c4 = census(4, 45)
    assert census_total(c4) == 9
    assert census_counts_at(c4, [40]).tolist() == [8]  # 41 is the ninth monoid prime


def test_estimate_values():
    assert estimate_pi_d(3, 10000) == pytest.approx(1590.21, abs=0.05)
    assert estimate_pi_d(7, 9997) == pytest.approx(1039.97, abs=0.05)
    assert estimate_pi_d(3, math.e) == pytest.approx(math.e / 3, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_pi_d(3, 1.0)
    with pytest.raises(ValueError):
        estimate_pi_d(1, 100.0)
    with pytest.raises(ValueError):
        estimate_pi_d(3, 2**53 + 2)  # beyond exact double-precision integers
    with pytest.raises(ValueError):
        estimate_pi_d(2.5, 100)  # d must be an integer, as everywhere else
    with pytest.raises(ValueError):
        estimate_pi_d(3, math.nan)
    with pytest.raises(ValueError):
        estimate_pi_d(3, np.array([100.0, math.nan]))
    assert estimate_pi_d(3, np.array([])).shape == (0,)


def test_estimate_monotonicity():
    xs = np.linspace(3.0, 10**5, 500)
    for d in (2, 3, 7, 50):
        vals = estimate_pi_d(d, xs)
        assert np.all(np.diff(vals) > 0)
    x = 100.0  # > e, so larger d must give a smaller estimate
    vals = [estimate_pi_d(d, x) for d in range(2, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_largest_element():
    """The last point of the change grid is the largest element of A_d;
    the grid is empty when that is the unit 1, which is no point."""
    assert census(5, 10**4).change_grid()[-1] == 9996
    assert census(3, 10**4).change_grid()[-1] == 10000
    assert census(7, 10**4).change_grid()[-1] == 9997
    assert census(50, 10**4).change_grid()[-1] == 9951
    for d in range(2, 13):
        for limit in range(1, 201):
            grid = census(d, limit).change_grid()
            assert (grid[-1] if grid else 1) == limit - (limit - 1) % d


def test_params_validation():
    with pytest.raises(ValueError):
        MonoidParams(1, 100)
    with pytest.raises(ValueError):
        MonoidParams(4, 0)


def test_hilbert_examples(table_1m):
    assert hilbert_classify(21, table_1m)
    assert hilbert_classify(49, table_1m)
    assert not hilbert_classify(105, table_1m)
    assert hilbert_classify(9, table_1m)
    assert not hilbert_classify(25, table_1m)
    assert not hilbert_classify(1, table_1m)
    with pytest.raises(ValueError):
        hilbert_classify(7, table_1m)


def test_a4_census_matches_atom_count():
    for x in range(1, 400):
        assert census_total(census(4, x)) == a4_atom_count(x), x
    for x, atoms in ((10**6, 89070), (10**7, 784620)):
        assert census_total(census(4, x)) == a4_atom_count(x) == atoms, x


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2000))
def test_census_matches_trial_division(d, k):
    n = 1 + k * d
    if n > 10**4:
        n = 1 + ((10**4 - 1) // d) * d
    c = census(d, 10**4)
    flags = prime_flags(c)  # from 1 + d: the unit 1 is no point
    assert (n > 1 and bool(flags[(n - 1) // d - 1])) == is_monoid_prime(n, d)


def test_rational_primes_in_monoid_are_monoid_primes(table_10k):
    for d in (2, 3, 4, 7, 11):
        c = census(d, 10**4)
        primes = table_primes(table_10k)
        ps = primes[primes % d == 1]
        flags = prime_flags(c)
        assert all(flags[(int(p) - 1) // d - 1] for p in ps)


def test_count_bounded_by_elements():
    c = census(6, 10**4)
    for x in (7, 100, 5000, 10**4):
        assert census_counts_at(c, [x])[0] <= len([n for n in range(2, x + 1) if n % 6 == 1])
