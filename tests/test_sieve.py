import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    census_total,
    eratosthenes_flags,
    oracle_gaussian_census,
    oracle_monoid_census,
    oracle_prime_running_counts,
    table_primes,
    trial_division_is_prime,
    whole_counts,
)
from primelab import (
    ClassicalCensus,
    GaussianCensus,
    MonoidCensus,
    MonoidParams,
    QuadCensus,
    RegionSpec,
    classical_census,
    gaussian_census,
    monoid_census,
    quad_census,
)
from primelab import quadratic, sieve
from primelab import series as analysis
from primelab.gaussian import AXIS_CONVENTIONS
from primelab.quadratic import MAX_CENSUS_BOUND, validate_ring_param
from primelab.sieve import MAX_SIEVE_LIMIT


def pi_steps(limit):
    """pi(n) - pi(n - 1) for 0 <= n <= limit, from the classical census,
    whose grid starts at 2: 1 where n is prime, 0 elsewhere."""
    return np.diff(whole_counts(classical_census(limit)), prepend=[0, 0, 0])


@pytest.fixture(scope="module")
def steps_100k():
    return pi_steps(10**5)


def test_small_limit_exact():
    assert np.flatnonzero(pi_steps(10)).tolist() == [2, 3, 5, 7]


def test_count_at_10k():
    # 1229 recomputed here against the trial-division oracle
    assert sum(1 for n in range(10**4 + 1) if trial_division_is_prime(n)) == 1229
    assert census_total(classical_census(10**4)) == 1229


def test_count_at_1e7():
    # known value pi(10^7) = 664,579; the sieve spans three segments
    assert 2 * sieve.SEGMENT_SIZE < 10**7 < 3 * sieve.SEGMENT_SIZE
    assert census_total(classical_census(10**7)) == 664_579


def test_count_at_1e8():
    # known value pi(10^8) = 5,761,455
    assert census_total(classical_census(10**8)) == 5_761_455


def test_limit_validation():
    for limit in (1, 0, MAX_SIEVE_LIMIT + 1, 2.5):
        with pytest.raises(ValueError):
            classical_census(limit)
    with pytest.raises(ValueError, match="exceeds maximum"):
        monoid_census(MonoidParams(3, MAX_SIEVE_LIMIT + 1))


INTEGER_PARAMETERS = {
    "ClassicalCensus.limit": lambda v: ClassicalCensus(limit=v),
    "GaussianCensus.norm_limit": lambda v: GaussianCensus(norm_limit=v, axis_convention="both-axes"),
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


# Each census parameter: the census made with one value of it, the other
# parameters valid, by its constructor and by its factory function, and the
# values that both must refuse.
NOT_INTEGERS = (True, 2.5, "7")
CENSUS_PARAMETERS = {
    "classical-limit": (lambda v: ClassicalCensus(limit=v), classical_census,
                        (*NOT_INTEGERS, 1, MAX_SIEVE_LIMIT + 1)),
    "monoid-d": (lambda v: MonoidCensus(params=MonoidParams(v, 100)),
                 lambda v: monoid_census(MonoidParams(v, 100)), (*NOT_INTEGERS, 1)),
    "monoid-limit": (lambda v: MonoidCensus(params=MonoidParams(3, v)),
                     lambda v: monoid_census(MonoidParams(3, v)),
                     (*NOT_INTEGERS, 0, MAX_SIEVE_LIMIT + 1)),
    "gaussian-norm_limit": (lambda v: GaussianCensus(v, "both-axes"),
                            lambda v: gaussian_census(v, "both-axes"),
                            (*NOT_INTEGERS, 0, MAX_SIEVE_LIMIT + 1)),
    "gaussian-axes": (lambda v: GaussianCensus(100, v), lambda v: gaussian_census(100, v),
                      ("bogus", True)),
    # both parameters wrong: the axis convention is named first
    "gaussian-both": (lambda v: GaussianCensus(v, "bogus"), lambda v: gaussian_census(v, "bogus"),
                      (2.5, 0)),
    "quad-d": (lambda v: QuadCensus(v, RegionSpec("norm-ball", 100)),
               lambda v: quad_census(v, RegionSpec("norm-ball", 100)), (*NOT_INTEGERS, 0, 4)),
    "quad-bound": (lambda v: QuadCensus(5, RegionSpec("norm-ball", v)),
                   lambda v: quad_census(5, RegionSpec("norm-ball", v)),
                   (*NOT_INTEGERS, 0, MAX_CENSUS_BOUND + 1, MAX_SIEVE_LIMIT + 1)),
}


@pytest.mark.parametrize(
    ("name", "value"), [(name, v) for name, (*_, values) in CENSUS_PARAMETERS.items() for v in values]
)
def test_constructor_and_factory_refuse_alike_before_any_census_work(monkeypatch, name, value):
    def census_work(*args):
        raise AssertionError("census work before the parameters were checked")

    monkeypatch.setattr(sieve, "_prime_windows", census_work)
    monkeypatch.setattr(quadratic, "_mark_reducible", census_work)
    messages = []
    for make in CENSUS_PARAMETERS[name][:2]:
        with pytest.raises(ValueError) as refused:
            make(value)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_classical_census_matches_pi():
    census = classical_census(10**4)
    xs = np.array([2, 3, 100, 9973, 10**4])
    expected = [sum(map(trial_division_is_prime, range(int(x) + 1))) for x in xs]
    assert whole_counts(census)[xs - 2].tolist() == expected
    assert census_total(census) == 1229
    assert census.describe() == "domain=classical limit=10000"


def test_pi_basics():
    counts = whole_counts(classical_census(10**4))
    assert len(counts) == 10**4 - 1  # counts[n - 2] is pi(n)
    assert counts[0] == 1  # pi(2)
    assert counts[1] == 2  # pi(3)


def test_pi_steps_by_zero_or_one():
    assert set(np.unique(pi_steps(10**4))) <= {0, 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**5))
def test_flags_match_trial_division(steps_100k, n):
    assert bool(steps_100k[n]) == trial_division_is_prime(n)


# Window sizes of the segmented sieve for the tests that patch it, in
# elements of A_d past the unit (at d = 1, the numbers from 2): three even
# ones, whose windows all start on even numbers, then two odd ones, whose
# windows start on even and odd numbers in turn; 361 = 19^2, an axis
# prime's square, is the next to last norm of the first window of 361.
WINDOW_SIZES = (224, 1000, 4096, 265, 361)
# A divisor of each window size, the block of the tests that patch the
# window: the sieve cuts every window into whole blocks.
WINDOW_BLOCKS = {224: 7, 265: 53, 361: 19, 1000: 8, 4096: 4096}
# The moduli of the monoid censuses that the windowed tests check.
MODULI = (2, 3, 4, 7, 50)


def test_segment_boundaries_match_trial_division(monkeypatch):
    expected = np.cumsum([trial_division_is_prime(n) for n in range(2, 50_002)])
    # each size exceeds isqrt(50_001) = 223, so the first segment holds every
    # sieving prime; 50_001 = 3 * 16_667 checks that the last number is marked
    for size in WINDOW_SIZES:
        patch_window(monkeypatch, size)
        for limit in (50_000, 50_001):
            census = whole_counts(classical_census(limit))
            assert np.array_equal(census, expected[: limit - 1]), (size, limit)


def patch_window(monkeypatch, size, block=None):
    """Windows of size elements, cut into blocks of block elements (by
    default WINDOW_BLOCKS[size])."""
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
    monkeypatch.setattr(sieve, "COUNT_BLOCK", WINDOW_BLOCKS[size] if block is None else block)


def check_windowed_censuses(limit):
    """The classical census against the running totals of the tests' own
    sieve, the Gaussian census against the census that read a whole table,
    and the monoid census against its own marking loop over a whole array,
    values and dtype."""
    if limit >= 2:
        census = whole_counts(classical_census(limit))
        pi = np.cumsum(eratosthenes_flags(limit)[2:])
        assert census.dtype == np.int32 and np.array_equal(census, pi), limit
    for convention in AXIS_CONVENTIONS:
        census = whole_counts(gaussian_census(limit, convention))
        former = oracle_gaussian_census(limit, convention)
        assert census.dtype == former.dtype and np.array_equal(census, former), (limit, convention)
    for d in MODULI:
        census = whole_counts(monoid_census(MonoidParams(d, limit)))
        former = oracle_monoid_census(MonoidParams(d, limit))
        assert census.dtype == former.dtype and np.array_equal(census, former), (limit, d)


@pytest.mark.parametrize("size", WINDOW_SIZES)
def test_windowed_censuses_match_the_whole_table(monkeypatch, size):
    patch_window(monkeypatch, size)
    limits = {1, 2, 3, 19**2, 23**2, 31**2}
    limits |= {k * size + step for k in (1, 2, 3) for step in (-1, 0, 1)}
    for limit in sorted(limits):
        assert math.isqrt(limit) < size  # the first window holds every sieving prime
        check_windowed_censuses(limit)


def test_windows_smaller_than_the_square_root_are_exact(monkeypatch):
    # isqrt(10^5) = 316 > 224: the base primes 227..313 lie past the first
    # window, and so do the axis squares 227^2 and more (the counts were
    # 9907 and 9947 while both came from the first window alone)
    patch_window(monkeypatch, 224)
    limit = 10**5
    pi = np.cumsum(eratosthenes_flags(limit)[2:])
    assert np.array_equal(whole_counts(classical_census(limit)), pi) and pi[-1] == 9592
    for convention in AXIS_CONVENTIONS:
        census = whole_counts(gaussian_census(limit, convention))
        assert np.array_equal(census, oracle_gaussian_census(limit, convention)), convention
    assert census_total(gaussian_census(limit, "both-axes")) == 9635
    # isqrt(10^6) = 1000: the base primes of A_3 past 1 + 224 * 3 = 673 lie
    # past the first window of 224 elements
    params = MonoidParams(3, 10**6)
    assert np.array_equal(whole_counts(monoid_census(params)), oracle_monoid_census(params))


# (block, window) pairs: block 1 and WINDOW_BLOCKS at every window, the
# default block at the default window, and blocks that divide no window
# size: 97, and the default block at the small windows
BLOCKS_AND_WINDOWS = (
    [(1, size) for size in WINDOW_SIZES]
    + [(block, size) for size, block in WINDOW_BLOCKS.items()]
    + [(sieve.COUNT_BLOCK, sieve.SEGMENT_SIZE)]
    + [(block, size) for block in (97, sieve.COUNT_BLOCK) for size in WINDOW_SIZES]
)


@pytest.mark.parametrize(("count_block", "size"), BLOCKS_AND_WINDOWS)
def test_increment_blocks_equal_the_whole_array_form(monkeypatch, size, count_block):
    """The streamed blocks follow one another from grid index 0, each
    count_block long but the census's last, are read-only, and sum to what
    the whole-array form of the sieve's reader gives, in its dtype.  Where
    the window is no whole number of blocks, a census of more than one
    window is refused, and one of a single window is checked."""
    patch_window(monkeypatch, size, count_block)
    if size % count_block:
        with pytest.raises(ValueError, match="no whole number of blocks"):
            census_total(classical_census(size + 2))  # size + 1 points
        limit = size + 1
    elif count_block == 1:
        limit = 3 * size + 2
    else:  # seven windows, or two blocks past the default window
        limit = min(7 * size, size + 2 * count_block) + 1
    censuses = [classical_census(limit)] + [gaussian_census(limit, c) for c in AXIS_CONVENTIONS]
    censuses += [monoid_census(MonoidParams(d, d * limit)) for d in MODULI]
    for census in censuses:
        if isinstance(census, MonoidCensus):
            whole = oracle_monoid_census(census.params)
        else:
            _, limit_, most, weigh = census._sieve()
            whole = oracle_prime_running_counts(limit_, most, weigh)
        grid, blocks = census.change_grid(), []
        for points, increments in census.increment_blocks():
            assert points[0] == grid[count_block * len(blocks)] and not increments.flags.writeable
            assert 0 < len(increments) <= count_block
            blocks.append(increments.copy())  # the next block overwrites it
        assert all(len(block) == count_block for block in blocks[:-1]), census
        assert all(block.dtype == whole.dtype for block in blocks), census
        assert np.array_equal(np.cumsum(np.concatenate(blocks)), whole), census
    assert np.array_equal(whole_counts(censuses[1]), oracle_gaussian_census(limit, "both-axes"))


def test_prime_blocks_widen_at_a_total_bound_of_2_31():
    """The sieve's reader holds its blocks in int32 while the census's bound
    on its total is below 2**31 and in int64 from there on; they agree."""
    narrow, wide = (
        [(points, counts.copy()) for points, counts in sieve.prime_blocks(1, 1000, most)]
        for most in (2**31 - 1, 2**31)
    )
    assert all(counts.dtype == np.int32 for _, counts in narrow)
    assert all(counts.dtype == np.int64 for _, counts in wide)
    assert [points for points, _ in narrow] == [points for points, _ in wide]
    assert np.array_equal(np.concatenate([c for _, c in narrow]), np.concatenate([c for _, c in wide]))
    assert sum(int(counts.sum()) for _, counts in narrow) == 168  # pi(1000)


def test_windowed_censuses_at_the_segment_size():
    for limit in (sieve.SEGMENT_SIZE - 1, sieve.SEGMENT_SIZE, sieve.SEGMENT_SIZE + 1):
        check_windowed_censuses(limit)


@pytest.mark.parametrize("n", (8 * 10**6, 2 * 10**7))
@pytest.mark.parametrize("name", ("classical", "gaussian-both", "gaussian-dedupe", "monoid-3"))
def test_census_peak_memory_is_its_counts_and_one_window(name, n):
    # the int32 counts, 4 B a point of the change grid (a bound point, or an
    # element of A_3), and one window of flags; a whole flag table would add
    # 1 B a point (and its int8 copy another)
    build = {
        "classical": classical_census,
        "gaussian-both": lambda n: gaussian_census(n, "both-axes"),
        "gaussian-dedupe": lambda n: gaussian_census(n, "dedupe-axes"),
        "monoid-3": lambda n: monoid_census(MonoidParams(3, n)),
    }[name]
    tracemalloc.start()
    try:
        census = build(n)
        counts = whole_counts(census)  # the streamed blocks, each copied into its slice
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = len(census.change_grid())
    assert counts.nbytes == 4 * points
    assert peak <= 4 * points + sieve.SEGMENT_SIZE + (1 << 20), peak


# censuses of 10^7 points, and their totals: pi(10^7) and the tests' own marking loop's
TOTALS = {
    "classical": (lambda: classical_census(10**7), lambda: 664_579),
    "monoid-3": (
        lambda: monoid_census(MonoidParams(3, 3 * 10**7)),
        lambda: int(oracle_monoid_census(MonoidParams(3, 3 * 10**7))[-1]),
    ),
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_census_total_streams_its_counts(name):
    """A command's total, the Total reducer of one pass over the census's
    series, is the last streamed count: the pass holds one window of flags
    and one block of counts, never the whole counts (40 MB for these two)."""
    census, expected = TOTALS[name]
    tracemalloc.start()
    try:
        total = analysis.Total()
        analysis.scan(analysis.stream_series(census()), total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sieve.SEGMENT_SIZE + 4 * sieve.COUNT_BLOCK + (1 << 20), peak
    assert total.value == expected()


def test_primes_listing(table_10k):
    primes = table_primes(table_10k)
    assert primes[0] == 2 and primes[-1] == 9973
    assert np.all(np.diff(primes) > 0)
    assert len(primes) == 1229


# Every census, with its bound and the first point of its grid: past the
# unit for a sieved census (1 + d in A_d, 2 for the classical and Gaussian
# censuses), 1 for the quadratic one.  The monoid bound 46 is no element of
# A_4, and the last three hold no primes: the sieved ones have no point.
CENSUSES = {
    "classical": (lambda: classical_census(1000), 1000, 2),
    "monoid": (lambda: monoid_census(MonoidParams(4, 46)), 46, 5),
    "gaussian": (lambda: gaussian_census(1000, "both-axes"), 1000, 2),
    "quadratic": (lambda: quad_census(5, RegionSpec("euclidean-ball", 300)), 300, 1),
    "monoid-empty": (lambda: monoid_census(MonoidParams(50, 40)), 40, 51),
    "gaussian-empty": (lambda: gaussian_census(1, "dedupe-axes"), 1, 2),
    "quadratic-empty": (lambda: quad_census(3, RegionSpec("norm-ball", 1)), 1, 1),
}


@pytest.mark.parametrize("count_block", [1, 7, sieve.COUNT_BLOCK])
@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_census_layout_is_shared(monkeypatch, name, count_block):
    """Every census yields the blocks its series is made of: each block
    starts at the row after the blocks before it, a multiple of COUNT_BLOCK,
    and its points are the slice of the grid that its counts are at."""
    monkeypatch.setattr(sieve, "COUNT_BLOCK", count_block)
    build, limit, start = CENSUSES[name]
    census = build()
    grid, counts = census.change_grid(), whole_counts(census)
    assert len(grid) == len(counts) and grid.start == start and grid.stop == limit + 1
    assert census_total(census) == (counts[-1] if len(grid) else 0)
    if isinstance(census, sieve.SievedCensus) and len(grid):
        assert counts[0] == 1  # the first point is prime
    starts, row = [], 0
    for points, block in census.increment_blocks():
        assert points == grid[row : row + len(block)] and 0 < len(block) <= count_block, row
        starts.append(row)
        row += len(block)
    assert starts == list(range(0, len(grid), count_block)) and row == len(grid)


@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_census_counts_are_read_only(name):
    census = CENSUSES[name][0]()
    for _, increments in census.increment_blocks():
        with pytest.raises(ValueError):
            increments[0] = 1
    assert not hasattr(census, "cumulative")  # no census holds its counts whole
