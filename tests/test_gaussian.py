import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab import (
    GaussPoint,
    estimate_pi_G,
    gaussian_brute_irreducible,
    gaussian_census,
    is_gaussian_prime,
)


def test_point_validation():
    with pytest.raises(ValueError):
        GaussPoint(0, 0)
    with pytest.raises(ValueError):
        GaussPoint(-1, 2)
    assert GaussPoint(3, 4).norm == 25


def test_classifier_examples(table_10k):
    assert is_gaussian_prime(GaussPoint(1, 1), table_10k)
    assert not is_gaussian_prime(GaussPoint(2, 0), table_10k)
    assert is_gaussian_prime(GaussPoint(0, 3), table_10k)
    assert is_gaussian_prime(GaussPoint(2, 1), table_10k)
    assert is_gaussian_prime(GaussPoint(3, 0), table_10k)
    assert not is_gaussian_prime(GaussPoint(5, 0), table_10k)
    assert not is_gaussian_prime(GaussPoint(0, 13), table_10k)


def test_classifier_needs_covering_table():
    from primelab import sieve_primes

    small = sieve_primes(10)
    with pytest.raises(ValueError):
        is_gaussian_prime(GaussPoint(3, 2), small)  # norm 13 > 10


def test_brute_force_examples():
    assert gaussian_brute_irreducible(GaussPoint(1, 1))
    assert gaussian_brute_irreducible(GaussPoint(3, 0))
    assert not gaussian_brute_irreducible(GaussPoint(5, 0))
    assert not gaussian_brute_irreducible(GaussPoint(1, 0))  # unit
    assert not gaussian_brute_irreducible(GaussPoint(2, 2))


def test_brute_force_norm_cap():
    with pytest.raises(ValueError):
        gaussian_brute_irreducible(GaussPoint(1001, 0))


def test_census_small():
    both = gaussian_census(10, "both-axes")
    assert both.total == 5  # (1,1),(2,1),(1,2),(3,0),(0,3)
    dedup = gaussian_census(10, "dedupe-axes")
    assert dedup.total == 4
    tiny = gaussian_census(2, "both-axes")
    assert tiny.total == 1
    assert both.counts_at([1]).tolist() == [0]


def test_census_validation():
    with pytest.raises(ValueError):
        gaussian_census(10, "sideways")
    with pytest.raises(ValueError):
        gaussian_census(0, "both-axes")


def test_pi_G_range():
    c = gaussian_census(100, "both-axes")
    with pytest.raises(ValueError):
        c.counts_at([0])
    with pytest.raises(ValueError):
        c.counts_at([101])
    assert c.counts_at([100])[0] >= c.counts_at([50])[0]


def test_estimate_values():
    assert estimate_pi_G(math.e) == pytest.approx(math.e**2 / 2, rel=1e-12)
    assert estimate_pi_G(math.e**2) == pytest.approx(math.e**4 / 4, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_pi_G(1.0)
    with pytest.raises(ValueError):
        estimate_pi_G(0.5)


def test_classifier_equals_brute_force_small(table_10k):
    for b in range(0, 18):
        for a in range(0 if b else 1, 18):
            if a * a + b * b > 300:
                continue
            p = GaussPoint(a, b)
            assert is_gaussian_prime(p, table_10k) == gaussian_brute_irreducible(p), (a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=100))
def test_classifier_equals_brute_force_random(table_10k, a, b):
    if (a, b) == (0, 0) or a * a + b * b > 10**4:
        return
    p = GaussPoint(a, b)
    assert is_gaussian_prime(p, table_10k) == gaussian_brute_irreducible(p)


def test_axis_convention_identity(table_10k):
    limit = 10**4
    both = gaussian_census(limit, "both-axes").cumulative
    dedup = gaussian_census(limit, "dedupe-axes").cumulative
    qs = table_10k.primes[table_10k.primes % 4 == 3]
    ns = np.arange(1, limit + 1)
    expected = np.searchsorted(qs * qs, ns, side="right")
    assert np.array_equal(both - dedup, expected)


def test_cumulative_changes_only_at_primes_or_inert_squares(table_10k):
    limit = 10**4
    c = gaussian_census(limit, "both-axes").cumulative
    change = np.flatnonzero(np.diff(c, prepend=0)) + 1  # cumulative[n - 1]: norm n
    flags = table_10k.flags
    for n in change.tolist():
        root = math.isqrt(n)
        is_inert_square = root * root == n and root % 4 == 3 and flags[root]
        assert flags[n] or is_inert_square, n
