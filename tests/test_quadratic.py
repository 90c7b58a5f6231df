import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab import (
    GaussPoint,
    QuadInt,
    RegionSpec,
    build_series,
    gaussian_census,
    is_gaussian_prime,
    quad_census,
    quad_divide_exact,
    quad_is_irreducible,
    quad_is_unit,
    quad_mul,
    quad_norm,
    sieve_primes,
)
from primelab.quadratic import MAX_CENSUS_BOUND, REGION_KINDS, validate_ring_param

small_coord = st.integers(min_value=-30, max_value=30)
ring_d = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13])


def test_ring_param_validation():
    for d in (1, 2, 3, 5, 6, 7, 10):
        validate_ring_param(d)
    with pytest.raises(ValueError):
        validate_ring_param(4)
    with pytest.raises(ValueError):
        validate_ring_param(12)
    with pytest.raises(ValueError):
        validate_ring_param(0)
    with pytest.raises(ValueError, match="infinitely many units"):
        validate_ring_param(-7)


def test_norm_examples():
    assert quad_norm(QuadInt(1, 1, 5)) == 6
    assert quad_norm(QuadInt(7, 0, 3)) == 49
    assert quad_norm(QuadInt(2, 1, 1)) == 5
    assert quad_norm(QuadInt(0, 0, 2)) == 0


def test_mul_examples():
    assert quad_mul(QuadInt(1, 1, 5), QuadInt(1, -1, 5)) == QuadInt(6, 0, 5)
    assert quad_mul(QuadInt(0, 1, 1), QuadInt(0, 1, 1)) == QuadInt(-1, 0, 1)
    x = QuadInt(4, -3, 7)
    assert quad_mul(x, QuadInt(1, 0, 7)) == x
    with pytest.raises(ValueError):
        quad_mul(QuadInt(1, 0, 5), QuadInt(1, 0, 7))


def test_divide_exact_examples():
    assert quad_divide_exact(QuadInt(6, 0, 5), QuadInt(1, 1, 5)) == QuadInt(1, -1, 5)
    assert quad_divide_exact(QuadInt(1, 1, 5), QuadInt(2, 0, 5)) is None
    x = QuadInt(3, 2, 7)
    assert quad_divide_exact(x, x) == QuadInt(1, 0, 7)
    with pytest.raises(ValueError):
        quad_divide_exact(QuadInt(1, 1, 5), QuadInt(0, 0, 5))
    with pytest.raises(ValueError):
        quad_divide_exact(QuadInt(1, 1, 5), QuadInt(1, 1, 7))


def test_units():
    assert quad_is_unit(QuadInt(1, 0, 5))
    assert quad_is_unit(QuadInt(-1, 0, 5))
    assert quad_is_unit(QuadInt(0, 1, 1))
    assert quad_is_unit(QuadInt(0, -1, 1))
    assert not quad_is_unit(QuadInt(0, 1, 5))
    assert not quad_is_unit(QuadInt(0, 0, 5))


def test_irreducibility_examples():
    # the classic witnesses behind 6 = 2*3 = (1 + sqrt(-5))(1 - sqrt(-5))
    assert quad_is_irreducible(QuadInt(2, 0, 5))
    assert quad_is_irreducible(QuadInt(3, 0, 5))
    assert quad_is_irreducible(QuadInt(1, 1, 5))
    assert quad_is_irreducible(QuadInt(1, -1, 5))
    assert not quad_is_irreducible(QuadInt(6, 0, 5))
    assert not quad_is_irreducible(QuadInt(4, 0, 5))


def test_irreducibility_norm_range():
    with pytest.raises(ValueError):
        quad_is_irreducible(QuadInt(1, 0, 5))  # unit, norm 1
    with pytest.raises(ValueError):
        quad_is_irreducible(QuadInt(0, 0, 5))
    with pytest.raises(ValueError):
        quad_is_irreducible(QuadInt(1001, 0, 5))  # norm above brute-force cap


def test_census_small_d5():
    ser = build_series(quad_census(5, RegionSpec("norm-ball", 6)))
    # (2,0) norm 4, (0,1) norm 5, (1,1) norm 6
    assert ser.actual.tolist() == [0, 0, 0, 1, 2, 3]
    assert np.isnan(ser.estimate).all()


def test_census_bound_one():
    for d in (1, 2, 5):
        ser = build_series(quad_census(d, RegionSpec("norm-ball", 1)))
        assert int(ser.actual[-1]) == 0


def test_census_matches_gaussian_for_d1():
    bound = 500
    ser = build_series(quad_census(1, RegionSpec("norm-ball", bound)))
    gauss = gaussian_census(bound, "both-axes")
    assert np.array_equal(ser.actual, gauss.cumulative)


def test_census_euclidean_region():
    # for d=1 the two region kinds coincide
    a = build_series(quad_census(1, RegionSpec("norm-ball", 200)))
    b = build_series(quad_census(1, RegionSpec("euclidean-ball", 200)))
    assert np.array_equal(a.actual, b.actual)
    # for d=5 euclidean-ball admits points whose ring norm exceeds the bound
    e = build_series(quad_census(5, RegionSpec("euclidean-ball", 9)))
    n = build_series(quad_census(5, RegionSpec("norm-ball", 9)))
    assert int(e.actual[-1]) >= int(n.actual[-1])


def test_census_validation():
    with pytest.raises(ValueError):
        quad_census(5, RegionSpec("norm-ball", 10**6 + 1))
    with pytest.raises(ValueError):
        RegionSpec("cube", 10)
    with pytest.raises(ValueError):
        RegionSpec("norm-ball", 0)


def oracle_cumulative(d: int, region: RegionSpec) -> np.ndarray:
    """The census rebuilt from quad_is_irreducible at every lattice point."""
    euclidean = region.kind == "euclidean-ball"
    weight = 1 if euclidean else d
    counts = np.zeros(region.bound + 1, dtype=np.int64)
    for b in range(math.isqrt(region.bound // weight) + 1):
        for a in range(math.isqrt(region.bound - weight * b * b) + 1):
            if a * a + d * b * b >= 2 and quad_is_irreducible(QuadInt(a, b, d)):
                counts[a * a + weight * b * b] += 1
    return np.cumsum(counts)


@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 15])
def test_census_matches_divisor_search_oracle(d, kind):
    oracle = oracle_cumulative(d, RegionSpec(kind, 4000))
    # the sieve's factor range follows the bound, so try every small bound
    for bound in [*range(1, 201), 4000]:
        census = quad_census(d, RegionSpec(kind, bound))
        assert np.array_equal(census.cumulative, oracle[1 : bound + 1]), bound


def test_census_d2_follows_rational_primes():
    # Z[sqrt(-2)] is a UFD, so its irreducibles are its primes: sqrt(-2), one
    # first-quadrant cell a + b*sqrt(-2) over each p = 1, 3 (mod 8), and each
    # inert q = 5, 7 (mod 8) itself, at norm q^2
    primes = sieve_primes(MAX_CENSUS_BOUND).primes
    split = primes[(primes == 2) | np.isin(primes % 8, (1, 3))]
    inert = primes[np.isin(primes % 8, (5, 7))]
    counts = np.zeros(MAX_CENSUS_BOUND + 1, dtype=np.int64)
    counts[split] += 1
    counts[inert[inert * inert <= MAX_CENSUS_BOUND] ** 2] += 1
    census = quad_census(2, RegionSpec("norm-ball", MAX_CENSUS_BOUND))
    assert np.array_equal(census.cumulative, np.cumsum(counts)[1:])


def test_census_d1_equals_gaussian_census_at_1e5():
    gauss = gaussian_census(10**5, "both-axes").cumulative
    for kind in REGION_KINDS:
        assert np.array_equal(quad_census(1, RegionSpec(kind, 10**5)).cumulative, gauss)


def test_census_d5_known_total():
    # the count the divisor-search census gave at the cap
    assert quad_census(5, RegionSpec("norm-ball", 10**6)).total == 63076


def test_census_caps_largest_norm():
    # the disc a^2 + b^2 <= bound holds norms up to d*bound
    assert RegionSpec("euclidean-ball", 200_000).largest_norm(5) == MAX_CENSUS_BOUND
    assert RegionSpec("norm-ball", 200_000).largest_norm(5) == 200_000
    with pytest.raises(ValueError, match="largest norm"):
        quad_census(5, RegionSpec("euclidean-ball", 200_001))
    with pytest.raises(ValueError, match="largest norm"):
        quad_census(99999989, RegionSpec("euclidean-ball", 10))


@settings(max_examples=200, deadline=None)
@given(ring_d, small_coord, small_coord, small_coord, small_coord)
def test_norm_multiplicative(d, a1, b1, a2, b2):
    x, y = QuadInt(a1, b1, d), QuadInt(a2, b2, d)
    assert quad_norm(quad_mul(x, y)) == quad_norm(x) * quad_norm(y)


@settings(max_examples=200, deadline=None)
@given(ring_d, small_coord, small_coord, small_coord, small_coord)
def test_divide_undoes_multiply(d, a1, b1, a2, b2):
    y = QuadInt(a1, b1, d)
    if quad_norm(y) == 0:
        return
    q = QuadInt(a2, b2, d)
    assert quad_divide_exact(quad_mul(q, y), y) == q


@settings(max_examples=120, deadline=None)
@given(ring_d, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_conjugation_preserves_irreducibility(d, a, b):
    n = a * a + d * b * b
    if n < 2:
        return
    assert quad_is_irreducible(QuadInt(a, b, d)) == quad_is_irreducible(QuadInt(a, -b, d))


def test_d1_matches_gaussian_classifier(table_10k):
    for b in range(0, 15):
        for a in range(0 if b else 1, 15):
            n = a * a + b * b
            if not 2 <= n <= 200:
                continue
            assert quad_is_irreducible(QuadInt(a, b, 1)) == is_gaussian_prime(
                GaussPoint(a, b), table_10k
            ), (a, b)
