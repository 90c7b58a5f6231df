import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GaussPoint,
    QuadInt,
    build_series,
    census_total,
    eratosthenes_flags,
    is_gaussian_prime,
    oracle_quad_census,
    quad_divide_exact,
    quad_is_irreducible,
    quad_is_unit,
    quad_mul,
    quad_norm,
    series_rows,
    table_primes,
    whole_counts,
)
from primelab import RegionSpec, gaussian_census, quad_census
from primelab import quadratic, sieve
from primelab.quadratic import (
    MAX_CENSUS_BOUND,
    REGION_KINDS,
    WALK_CELLS,
    validate_ring_param,
)

small_coord = st.integers(min_value=-30, max_value=30)
ring_d = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13])


def test_ring_param_validation():
    for d in (1, 2, 3, 5, 6, 7, 10):
        validate_ring_param(d)
    with pytest.raises(ValueError):
        validate_ring_param(4)
    with pytest.raises(ValueError):
        validate_ring_param(12)
    with pytest.raises(ValueError) as refused:
        validate_ring_param(0)  # no quadratic ring, real or imaginary
    assert str(refused.value) == "d must be an integer >= 1, got 0"
    with pytest.raises(ValueError) as refused:
        validate_ring_param(-7)
    assert str(refused.value) == (
        "d=-7 selects a real quadratic ring Z[sqrt(7)], which has infinitely many units; "
        "only imaginary rings (d >= 1) are supported"
    )


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
    assert np.isnan(series_rows(ser)[2]).all()


def test_census_bound_one():
    for d in (1, 2, 5):
        ser = build_series(quad_census(d, RegionSpec("norm-ball", 1)))
        assert int(ser.actual[-1]) == 0


def test_census_matches_gaussian_for_d1():
    bound = 500
    ser = build_series(quad_census(1, RegionSpec("norm-ball", bound)))
    gauss = gaussian_census(bound, "both-axes")
    # bound 1 holds the units alone; the Gaussian census starts at norm 2
    assert ser.actual[0] == 0 and np.array_equal(ser.actual[1:], whole_counts(gauss))


def test_census_euclidean_region():
    # for d=1 the two region kinds coincide
    a = build_series(quad_census(1, RegionSpec("norm-ball", 200)))
    b = build_series(quad_census(1, RegionSpec("euclidean-ball", 200)))
    assert np.array_equal(a.actual, b.actual)
    # for d=5 euclidean-ball admits points whose ring norm exceeds the bound
    e = build_series(quad_census(5, RegionSpec("euclidean-ball", 9)))
    n = build_series(quad_census(5, RegionSpec("norm-ball", 9)))
    assert int(e.actual[-1]) >= int(n.actual[-1])


def test_census_sieves_once_on_its_first_read(monkeypatch):
    """quad_census checks its arguments alone; the product sieve runs on the
    census's first read, once, and the bounds it keeps leave the census's
    equality and hash to d and the region."""
    calls, sieve_ring = [], quadratic.irreducible_bounds
    monkeypatch.setattr(quadratic, "irreducible_bounds",
                        lambda d, region: calls.append(d) or sieve_ring(d, region))
    region = RegionSpec("norm-ball", 3000)
    census = quad_census(5, region)
    assert calls == []
    assert census_total(census) == census_total(census) == len(census.bounds) and calls == [5]
    assert census == quad_census(5, region) and hash(census) == hash(quad_census(5, region))


def test_pass_searches_its_bounds_with_keys_of_their_dtype(monkeypatch):
    """Each block of a pass finds its bounds by np.searchsorted with keys in
    the bounds' dtype: Python-int keys make numpy cast the whole int32 bounds
    array on every block, so a pass would cost blocks times irreducibles."""
    monkeypatch.setattr(sieve, "COUNT_BLOCK", 64)
    census = quad_census(5, RegionSpec("norm-ball", 10**4))
    bounds, searchsorted, key_dtypes = census.bounds, np.searchsorted, []

    def recorded(a, v, *args, **kwargs):
        if a is bounds:
            key_dtypes.append(np.asarray(v).dtype)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", recorded)
    assert census_total(census) == len(bounds)
    assert len(key_dtypes) == -(-10**4 // 64) and set(key_dtypes) == {bounds.dtype}


# the largest norm of the census tests that compare whole grids or oracles: the
# census's former cap, as at its maximum of 10^8 they would run for minutes
TESTED_NORM = 10**6


def test_census_validation():
    with pytest.raises(ValueError):
        quad_census(5, RegionSpec("norm-ball", MAX_CENSUS_BOUND + 1))
    with pytest.raises(ValueError):
        RegionSpec("cube", 10)
    with pytest.raises(ValueError):
        RegionSpec("norm-ball", 0)


@functools.cache
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


def assert_matches_divisor_search_oracle(d, kind):
    # the sieve's factor range follows the bound, so try every small bound whose
    # largest norm is within TESTED_NORM (at d = 9973 the disc stops at bound 100)
    bounds = [
        bound for bound in [*range(1, 201), 4000]
        if RegionSpec(kind, bound).largest_norm(d) <= TESTED_NORM
    ]
    oracle = oracle_cumulative(d, RegionSpec(kind, bounds[-1]))
    for bound in bounds:
        census = whole_counts(quad_census(d, RegionSpec(kind, bound)))
        assert np.array_equal(census, oracle[1 : bound + 1]), bound


@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 15, 9973])
def test_census_matches_divisor_search_oracle(d, kind):
    assert_matches_divisor_search_oracle(d, kind)


# one grid row per step of the walk, and steps of a few cells, which take several
# rows of the narrow cofactor views (d = 9973, small bounds, late y) and one of the rest
@pytest.mark.parametrize("walk_cells", [1, 5])
def test_census_walk_steps_match_the_oracles(monkeypatch, walk_cells):
    monkeypatch.setattr(quadratic, "WALK_CELLS", walk_cells)
    for d in (1, 2, 5, 6, 9973):
        for kind in REGION_KINDS:
            assert_matches_divisor_search_oracle(d, kind)
    gauss = whole_counts(gaussian_census(10**5, "both-axes"))  # from norm 2
    assert np.array_equal(whole_counts(quad_census(1, RegionSpec("norm-ball", 10**5)))[1:], gauss)


@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 15])
def test_census_counts_as_the_former_sieve(d, kind):
    # the largest bound whose largest norm is within TESTED_NORM, the oracle's limit
    region = RegionSpec(kind, TESTED_NORM // RegionSpec(kind, 1).largest_norm(d))
    census, former = whole_counts(quad_census(d, region)), oracle_quad_census(d, region)
    assert census.dtype == former.dtype == np.int32
    assert np.array_equal(census, former)


def test_int32_holds_the_census_at_its_maximum():
    # the grid's corner cell (isqrt(top), isqrt(top // d)) has norm at most 2*top, and
    # the grid, at d = 1, has (isqrt(top) + 1)^2 cells, each counted at most once: the
    # norms, bounds and counts are int32, so a maximum past int32 fails here first
    assert 2 * MAX_CENSUS_BOUND <= np.iinfo(np.int32).max
    assert (math.isqrt(MAX_CENSUS_BOUND) + 1) ** 2 <= np.iinfo(np.int32).max


def test_census_d2_follows_rational_primes():
    # Z[sqrt(-2)] is a UFD, so its irreducibles are its primes: sqrt(-2), one
    # first-quadrant cell a + b*sqrt(-2) over each p = 1, 3 (mod 8), and each
    # inert q = 5, 7 (mod 8) itself, at norm q^2
    primes = table_primes(eratosthenes_flags(TESTED_NORM))
    split = primes[(primes == 2) | np.isin(primes % 8, (1, 3))]
    inert = primes[np.isin(primes % 8, (5, 7))]
    counts = np.zeros(TESTED_NORM + 1, dtype=np.int64)
    counts[split] += 1
    counts[inert[inert * inert <= TESTED_NORM] ** 2] += 1
    census = quad_census(2, RegionSpec("norm-ball", TESTED_NORM))
    assert np.array_equal(whole_counts(census), np.cumsum(counts)[1:])


# 2*10^6 is above the census's former cap of 10^6
@pytest.mark.parametrize("bound", [10**5, TESTED_NORM, 2 * TESTED_NORM])
def test_census_d1_equals_gaussian_census(bound):
    gauss = whole_counts(gaussian_census(bound, "both-axes"))  # from norm 2
    for kind in REGION_KINDS:
        quad = whole_counts(quad_census(1, RegionSpec(kind, bound)))
        assert quad[0] == 0 and np.array_equal(quad[1:], gauss)


WALK_STEP_BYTES = 48 * WALK_CELLS  # one step of the walk, measured at 40 B per cell


@pytest.mark.parametrize(
    "d, kind, bound",
    [(1, "norm-ball", TESTED_NORM), (5, "norm-ball", TESTED_NORM), (6, "euclidean-ball", 150_000)],
)
def test_census_peak_memory(d, kind, bound):
    # the int32 norm grid (reused in place as the disc's a^2 + b^2), the marks and
    # one bool mask take 6 B per quadrant cell; the bound of each irreducible counted
    # takes 4 B, sorted in place, and once the grid is freed the census holds those
    # and one block of counts; a step of the walk holds two int64 coordinates and a
    # few int64 index temporaries per cell, measured at 40 B. An int64 grid, an int64
    # bincount, a walk over a whole cofactor view at once or counts held for every
    # bound point would not fit
    region = RegionSpec(kind, bound)
    top = region.largest_norm(d)
    cells = (math.isqrt(top) + 1) * (math.isqrt(top // d) + 1)
    tracemalloc.start()
    try:
        total = census_total(quad_census(d, region))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * cells + 4 * total + WALK_STEP_BYTES


def test_census_d5_known_total():
    # the count the divisor-search census gave at the cap
    assert census_total(quad_census(5, RegionSpec("norm-ball", 10**6))) == 63076


def test_census_caps_largest_norm(monkeypatch):
    # the disc a^2 + b^2 <= bound holds norms up to d*bound; a census over the
    # maximum is refused when it is made, before any census work
    def census_work(*args):
        raise AssertionError("census work for a refused census")

    monkeypatch.setattr(quadratic, "_mark_reducible", census_work)
    assert RegionSpec("euclidean-ball", 20_000_000).largest_norm(5) == MAX_CENSUS_BOUND == 10**8
    assert RegionSpec("norm-ball", 20_000_000).largest_norm(5) == 20_000_000
    quad_census(5, RegionSpec("euclidean-ball", 20_000_000))
    with pytest.raises(ValueError, match="^largest norm 100000005 exceeds maximum 100000000$"):
        quad_census(5, RegionSpec("euclidean-ball", 20_000_001))
    with pytest.raises(ValueError, match="^largest norm 999999890 exceeds maximum 100000000$"):
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
