import functools
import importlib.util
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    HeldSeries,
    OracleMape,
    build_series,
    census_counts_at,
    census_total,
    hold,
    oracle_find_crossover,
    oracle_fit_arrays,
    oracle_fit_model,
    oracle_mape,
    oracle_squared_error,
    oracle_thin,
    series_rows,
    whole_counts,
    write_series_csv,
)
from primelab import (
    MonoidParams,
    RegionSpec,
    classical_census,
    estimate_pi_d,
    estimate_pi_G,
    find_crossover,
    fit_model,
    gaussian_census,
    monoid_census,
    quad_census,
    ratio_R,
    stream_series,
)
from primelab import report, sieve
from primelab import series as analysis
from primelab.quadratic import REGION_KINDS
from primelab.report import SERIES_HEADER, read_series_csv


def test_build_series_single_point_matches_summary_row():
    ser = build_series(monoid_census(MonoidParams(3, 10**4)))
    x, actual, est, ratio, pct_err = series_rows(ser, len(ser) - 1)
    assert x.tolist() == [10**4]
    assert actual[0] == 1380
    assert est[0] == pytest.approx(1590.21, abs=0.05)
    assert ratio[0] == pytest.approx(0.86781, abs=5e-6)
    assert pct_err[0] == pytest.approx(100 * (1590.2065 - 1380) / 1380, abs=1e-3)


def test_build_series_zero_actual_has_no_error():
    census = monoid_census(MonoidParams(5, 100))
    xs = np.array([2, 11, 96])
    ser = HeldSeries(xs, census_counts_at(census, xs), census.estimate)
    assert ser.actual[0] == 0  # the first monoid prime, 6, lies beyond x=2
    pct_err = series_rows(ser)[4]
    assert math.isnan(pct_err[0])
    assert pct_err[-1] >= 0


def test_build_series_default_grid_starts_at_first_prime():
    census = monoid_census(MonoidParams(3, 1000))
    ser = build_series(census)
    assert ser.x[0] == 4  # 4 = 1 + 3 is the first monoid prime
    assert ser.actual[0] == 1
    assert np.all(ser.actual >= 1)
    assert not np.isnan(series_rows(ser)[4]).any()


def test_build_series_default_grid_needs_a_prime():
    empty = monoid_census(MonoidParams(50, 40))  # no element past the identity
    assert census_total(empty) == 0
    with pytest.raises(ValueError, match="census holds no primes"):
        build_series(empty)
    # a census with no estimate keeps its whole grid, empty or not
    no_estimate = quad_census(5, RegionSpec("norm-ball", 3))
    assert census_total(no_estimate) == 0
    assert np.array_equal(build_series(no_estimate).x, no_estimate.change_grid())

    census = monoid_census(MonoidParams(50, 1000))
    grid = np.array(census.change_grid())
    first = next(int(x) for x, c in zip(grid, whole_counts(census)) if c >= 1)
    ser = build_series(census)
    assert first == 51 and ser.x[0] == first and ser.actual[0] == 1
    assert np.array_equal(ser.x, grid[grid >= first])


def test_build_series_gaussian():
    ser = build_series(gaussian_census(10, "both-axes"))
    x, actual, est = series_rows(ser, len(ser) - 1)[:3]
    assert x.tolist() == [10] and actual.tolist() == [5]
    assert est[0] == pytest.approx(10 / math.log(10), rel=1e-12)


def test_each_census_carries_its_own_estimate():
    classical = classical_census(100)
    monoid = monoid_census(MonoidParams(7, 1000))
    gauss = gaussian_census(1000, "both-axes")
    quad = quad_census(5, RegionSpec("norm-ball", 1000))
    for census in (classical, monoid, gauss, quad):
        assert stream_series(census).estimator == census.estimate
    assert classical.estimate is None and quad.estimate is None
    xs = np.array([2, 8, 99, 1000])
    assert np.array_equal(monoid.estimate(xs), estimate_pi_d(7, xs))
    assert np.array_equal(gauss.estimate(xs), estimate_pi_G(np.sqrt(xs)))
    assert monoid.estimate(1000) == estimate_pi_d(7, 1000)


def test_ratio_values():
    assert ratio_R(745, 742.93) == pytest.approx(1.00279, abs=5e-6)
    assert ratio_R(123, 123.0) == 1.0
    assert ratio_R(0, 5.0) == 0.0
    with pytest.raises(ValueError):
        ratio_R(10, 0.0)
    with pytest.raises(ValueError):
        ratio_R(-1, 5.0)


def test_ratio_scale_covariance():
    for s in (0.5, 2.0, 7.25):
        assert ratio_R(100, s * 40.0) == ratio_R(100, 40.0) / s


def series(x, actual, estimator=None):
    """A package Series over the arrays x and actual, for one pass."""
    return HeldSeries(x, actual, estimator).stream()


def test_mape_basics():
    one = series(np.array([10]), np.array([100]), lambda xs: np.full(xs.shape, 90.0))
    analysis.scan(one, error := analysis.Mape())
    assert error.result() == [pytest.approx(10.0)]
    exact = series(
        np.array([10, 20]), np.array([5, 9]), lambda xs: np.where(xs == 10, 5.0, 9.0)
    )
    analysis.scan(exact, error := analysis.Mape())
    assert error.result() == [0.0]
    undefined = series(np.array([10]), np.array([0]), lambda xs: np.full(xs.shape, 3.0))
    analysis.scan(undefined, error := analysis.Mape())
    with pytest.raises(ValueError):
        error.result()
    no_estimator = series(np.array([10, 20]), np.array([1, 2]))
    analysis.scan(no_estimator, error := analysis.Mape())
    with pytest.raises(ValueError):
        error.result()


def test_mape_zero_iff_exact():
    ser = series(
        np.array([5, 10, 20]), np.array([2, 4, 9]), lambda xs: np.array([2.0, 4.1, 9.0])
    )
    analysis.scan(ser, error := analysis.Mape())
    assert error.result()[0] > 0


def test_crossover_synthetic():
    xs = np.arange(10, 100, 10)
    actual = np.array([5, 6, 7, 8, 9, 9, 9, 9, 9])
    # estimate overtakes at x=50 and stays above
    est = np.array([3.0, 4.0, 6.0, 7.5, 9.5, 10.0, 11.0, 12.0, 13.0])
    ser = series(xs, actual, lambda v: est)
    assert find_crossover(ser) == 50


def test_crossover_none_when_estimate_always_above():
    ser = series(np.array([1, 2, 3]), np.array([1, 1, 1]), lambda v: np.array([5.0, 6.0, 7.0]))
    assert find_crossover(ser) is None


def test_crossover_none_when_actual_ahead_at_end():
    ser = series(np.array([1, 2, 3]), np.array([2, 3, 9]), lambda v: np.array([5.0, 6.0, 7.0]))
    assert find_crossover(ser) is None


def test_crossover_ignores_early_oscillation():
    xs = np.arange(1, 11)
    actual = np.array([3, 3, 5, 5, 7, 7, 7, 7, 7, 7])
    est = np.array([2.0, 4.0, 4.5, 6.0, 6.5, 6.9, 7.5, 8.0, 9.0, 10.0])
    ser = series(xs, actual, lambda v: est)
    assert find_crossover(ser) == 7  # last positive-to-nonpositive flip


def test_crossover_returns_grid_point():
    census = monoid_census(MonoidParams(3, 2000))
    x = find_crossover(build_series(census).stream())
    assert x is not None and x % 3 == 1


def test_fit_recovers_synthetic_parameters():
    xs = np.unique(np.geomspace(10**3, 10**6, 60).astype(np.int64))
    for c0, e0 in ((0.5, 1.0), (1 / 3, 1 / 3)):
        actual = np.round(c0 * xs / np.log(xs) ** e0).astype(np.int64)
        actual = np.maximum.accumulate(actual)
        fit = fit_model(series(xs, actual))
        # rounding to integer counts leaves a little noise; 1% is the contract
        assert fit.c == pytest.approx(c0, rel=0.01)
        assert fit.e == pytest.approx(e0, rel=0.01)


def test_fit_classical_exponent_near_one(table_100k):
    xs = np.arange(10**3, 10**5 + 1, 97, dtype=np.int64)
    counts = np.cumsum(table_100k)
    fit = fit_model(series(xs, counts[xs]))
    assert 0.8 <= fit.e <= 1.2
    assert fit.rms_rel_err < 0.1


def test_fit_needs_enough_points():
    ser = series(np.array([10, 20, 30]), np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        fit_model(ser)
    # 7 usable points: x = 2 is below 3 and the first count is 0
    ser = series(np.arange(2, 11), np.array([0, 0, 1, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(ValueError, match="at least 8 points"):
        fit_model(ser)


def test_fit_deterministic():
    xs = np.unique(np.geomspace(10, 10**4, 40).astype(np.int64))
    actual = np.round(0.7 * xs / np.log(xs) ** 1.2).astype(np.int64)
    actual = np.maximum.accumulate(actual)
    ser = HeldSeries(xs, actual)
    a, b = fit_model(ser.stream()), fit_model(ser.stream())
    assert (a.c, a.e, a.rms_rel_err) == (b.c, b.e, b.rms_rel_err)


def test_ratio_times_estimate_recovers_actual():
    census = monoid_census(MonoidParams(3, 5000))
    ser = build_series(census)
    _, actual, est, ratio, _ = series_rows(ser)
    assert np.allclose(ratio * est, actual, rtol=1e-12)


def assert_read_order(tmp_path, x, actual, reason=None):
    """read_series_csv of a file of the points x and counts actual (empty
    derived fields) reads, or raises ValueError naming the file and reason."""
    path = tmp_path / "order.csv"
    path.write_text(SERIES_HEADER + "\n" + "".join(f"{a},{b},,,\n" for a, b in zip(x, actual)))
    if reason is None:
        ser = read_series_csv(path)
        assert len(ser) == len(x) == len(hold(ser))
        return
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {reason}$"):
        hold(read_series_csv(path))


def test_series_validation(tmp_path):
    assert_read_order(tmp_path, [3, 2], [1, 2], "x must be strictly increasing")
    assert_read_order(tmp_path, [2, 3], [2, 1], "actual must be nondecreasing")
    # a longer file, x from 2 to 39
    assert_read_order(tmp_path, range(2, 40), [0, 1] * 19, "actual must be nondecreasing")


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
def test_order_is_checked_across_block_boundaries(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(sieve, "COUNT_BLOCK", block_rows)
    n = 20
    ordered = np.arange(2, n + 2, dtype=np.int64)
    assert_read_order(tmp_path, ordered, ordered)
    for i in range(n - 1):  # one pair out of order, at every position
        swapped = ordered.copy()
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert_read_order(tmp_path, ordered, swapped, "actual must be nondecreasing")
        assert_read_order(tmp_path, swapped, ordered, "x must be strictly increasing")
        repeated = ordered.copy()
        repeated[i + 1] = repeated[i]
        assert_read_order(tmp_path, ordered, repeated)  # a count may stay the same
        assert_read_order(tmp_path, repeated, ordered, "x must be strictly increasing")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(2, 10**6), st.integers(0, 10**6)), min_size=1, max_size=30
    )
)
def test_mape_nonnegative(pairs):
    pairs.sort()
    xs = sorted({p[0] for p in pairs})
    actual = np.maximum.accumulate([p[1] for p in pairs[: len(xs)]])
    ser = series(np.array(xs), actual, lambda v: v / np.log(v.astype(float) + 1.0))
    if np.all(actual == 0):
        return
    analysis.scan(ser, error := analysis.Mape())
    assert error.result()[0] >= 0.0


# Reference oracles: the whole-array columns and statistics that the
# block-by-block ones replaced.  find_crossover must agree exactly; a MAPE
# only sums in another order, so it agrees to rel=1e-12.


def oracle_columns(series):
    xs = np.array(series.x, dtype=np.int64)
    acts = np.array(series.actual, dtype=np.int64)
    est = np.asarray(series.estimator(xs), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isnan(est), np.nan, acts / est)
        pct = np.where(
            (acts >= 1) & ~np.isnan(est),
            100.0 * np.abs(acts - est) / np.where(acts >= 1, acts, 1),
            np.nan,
        )
    return xs, acts, est, ratio, pct


def whole_array_mape(pct_err):
    valid = pct_err[~np.isnan(pct_err)]
    if valid.size == 0:
        raise ValueError("series has no points with a defined percentage error")
    return float(valid.mean())


def whole_array_crossover(x, actual, estimate):
    defined = ~np.isnan(estimate)
    if not defined.any():
        return None
    diff = actual[defined] - estimate[defined]
    above = np.flatnonzero(diff > 0)
    if above.size == 0 or above[-1] == diff.size - 1:
        return None
    return int(x[defined][above[-1] + 1])


def oracle_prefix_mapes(x, pct_err, bounds):
    """table2's prefix MAPEs: the error over the points x <= bound."""
    mapes = []
    for bound in bounds:
        upto = np.searchsorted(x, bound, side="right")
        pct = pct_err[:upto]
        mapes.append(float(pct[~np.isnan(pct)].mean()))
    return mapes


def classical_series(n):
    """pi(x) against x / ln x on the classical census's grid, from x = 2,
    the first nonzero count, to n."""
    census = classical_census(n)
    return HeldSeries(census.change_grid(), whole_counts(census), lambda xs: xs / np.log(xs))


STREAMED_SERIES = {
    "gauss": lambda n: build_series(gaussian_census(n, "both-axes")),
    "monoid": lambda n: build_series(monoid_census(MonoidParams(3, 3 * n))),
    "classical": classical_series,
}


@pytest.mark.parametrize("block_rows", [1, 3, 7, sieve.COUNT_BLOCK])
@pytest.mark.parametrize("domain", sorted(STREAMED_SERIES))
def test_streamed_statistics_match_whole_array_oracles(monkeypatch, domain, block_rows):
    monkeypatch.setattr(sieve, "COUNT_BLOCK", block_rows)
    rows = 3000 if block_rows < 100 else 3 * block_rows + 5  # several blocks either way
    ser = STREAMED_SERIES[domain](rows)
    assert len(ser) > 2 * block_rows
    x, actual, est, ratio, pct = oracle_columns(ser)

    blocks = list(ser.blocks())
    assert len(blocks) == -(-len(ser) // block_rows)
    for got, want in zip(zip(*blocks), (x, actual, est, ratio, pct)):
        assert np.array_equal(np.concatenate(got), want, equal_nan=True)

    assert find_crossover(ser.stream()) == whole_array_crossover(x, actual, est)
    analysis.scan(ser.stream(), error := analysis.Mape())
    assert error.result()[0] == pytest.approx(whole_array_mape(pct), rel=1e-12)
    bounds = [10, 1000, int(x[len(x) // 3]) + 1, int(x[-1]) - 1, int(x[-1])]
    got = []
    for bound in bounds:
        analysis.scan(ser.stream(), error := analysis.Mape((bound,)))
        got += error.result()
    assert got == pytest.approx(oracle_prefix_mapes(x, pct, bounds), rel=1e-12)


SOME_FLOATS = st.one_of(st.just(math.nan), st.floats(0.0, 100.0), st.floats(-1e3, 1e3))


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), SOME_FLOATS), max_size=30))
def test_streamed_statistics_match_oracles_on_stored_columns(block_rows, rows):
    # a column of estimates stored in an array that the estimator looks up by
    # x: NaN anywhere, crossings at any block boundary
    x = np.arange(2, 2 + len(rows), dtype=np.int64)
    actual = np.cumsum([r[0] for r in rows], dtype=np.int64)
    stored = np.array([r[1] for r in rows], dtype=np.float64)
    ser = HeldSeries(x, actual, lambda v: stored[v - 2])
    with np.errstate(over="ignore"):  # the oracle's ratio overflows for subnormal estimates
        _, _, est, _, pct = oracle_columns(ser)
    expected_crossover = whole_array_crossover(x, actual, est)
    try:
        expected_mape = whole_array_mape(pct)
    except ValueError:
        expected_mape = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "COUNT_BLOCK", block_rows)
        assert find_crossover(ser.stream()) == expected_crossover
        analysis.scan(ser.stream(), error := analysis.Mape())
        if expected_mape is None:
            with pytest.raises(ValueError):
                error.result()
        else:
            assert error.result()[0] == pytest.approx(expected_mape, rel=1e-12)


def outcome(fn, *args):
    """repr of fn(*args), or of the ValueError it raises: equal reprs of
    floats are equal bits, NaN and the sign of zero included."""
    try:
        return repr(fn(*args))
    except ValueError as err:
        return repr(err)


def held_mape(ser, upto=None, reducer=analysis.Mape):
    """The MAPE of a pass of a held series (by OracleMape when asked)."""
    error = reducer((upto,))
    analysis.scan(ser.stream(), error)
    return error.result()[0]


held_oracle_mape = functools.partial(held_mape, reducer=OracleMape)


def block_edge_series():
    """Three blocks: the counts are zero until 10 rows past the first block
    edge, and the estimate, which overtakes the counts shortly before the
    second edge, is NaN on 80 rows across that edge."""
    c = sieve.COUNT_BLOCK
    xs = np.arange(2, 3 * c + 2, dtype=np.int64)
    actual = np.floor(xs / np.log(xs)).astype(np.int64)
    actual[: c + 10] = 0
    edge = float(xs[2 * c])

    def estimator(v):
        est = v / np.log(v) + (v - edge + 300.0) * 1e-3
        return np.where(np.abs(v - edge) < 40, np.nan, est)

    return HeldSeries(xs, actual, estimator)


STATISTICS_SERIES = {
    "gauss-1e6": lambda _: build_series(gaussian_census(10**6, "both-axes")),
    "monoid-d3-1e6": lambda _: build_series(monoid_census(MonoidParams(3, 10**6))),
    "monoid-d7-1e6": lambda _: build_series(monoid_census(MonoidParams(7, 10**6))),
    "monoid-d50-1e6": lambda _: build_series(monoid_census(MonoidParams(50, 10**6))),
    # no estimator, on an array grid: no MAPE and no crossover, in blocks as in the oracles
    "read-back": lambda tmp: series_read_back(
        build_series(gaussian_census(200_000, "both-axes")), tmp
    ),
    "block-edges": lambda _: block_edge_series(),
}


@pytest.mark.parametrize("block_rows", [4099, sieve.COUNT_BLOCK])
@pytest.mark.parametrize("name", sorted(STATISTICS_SERIES))
def test_statistics_equal_the_rows_oracles_bit_for_bit(tmp_path, monkeypatch, name, block_rows):
    monkeypatch.setattr(sieve, "COUNT_BLOCK", block_rows)
    ser = STATISTICS_SERIES[name](tmp_path)
    x = ser.x
    assert len(ser) > 2 * 4099  # three blocks or more at the smaller size
    bounds = [None, int(x[0]) - 1, int(x[len(x) // 2]), int(x[-1]), int(x[-1]) + 1]
    edges = range(block_rows, len(x), block_rows)
    for edge in {edges[0], edges[len(edges) // 2], edges[-1]} if edges else ():
        bounds += [int(x[edge - 1]), int(x[edge])]  # the last x of a block, the first of the next
    for upto in bounds:
        got = outcome(held_mape, ser, upto)
        assert got == outcome(oracle_mape, ser, upto) == outcome(held_oracle_mape, ser, upto), upto
    assert find_crossover(ser.stream()) == oracle_find_crossover(ser)


def test_block_edge_series_crosses_over_near_the_nan_edge():
    ser = block_edge_series()
    c = sieve.COUNT_BLOCK
    assert series_rows(ser, 0, c + 10)[1].max() == 0 and series_rows(ser, c + 10)[1].min() > 0
    crossover = find_crossover(ser.stream())
    assert crossover is not None and abs(crossover - int(ser.x[2 * c])) < 400


def test_statistics_without_an_estimate_equal_the_rows_oracles():
    ser = build_series(quad_census(5, RegionSpec("norm-ball", 3000)))
    assert outcome(held_mape, ser) == outcome(oracle_mape, ser)
    assert "ValueError" in outcome(held_mape, ser)
    assert find_crossover(ser.stream()) is None and oracle_find_crossover(ser) is None


ANY_FLOATS = st.one_of(SOME_FLOATS, st.sampled_from([math.inf, -math.inf, -0.0]))


@settings(max_examples=150, deadline=None)
@given(
    block_rows=st.integers(1, 8),
    step=st.integers(1, 3),
    ranged=st.booleans(),
    data=st.data(),
)
def test_statistics_equal_the_rows_oracles_on_synthetic_blocks(block_rows, step, ranged, data):
    """One to three blocks of a series with any increments (a zero prefix
    included) and any estimates, on a range grid or an array grid, cut at
    any bound."""
    n = data.draw(st.integers(1, 3 * block_rows))
    rows = data.draw(st.lists(st.tuples(st.integers(0, 5), ANY_FLOATS), min_size=n, max_size=n))
    upto = data.draw(st.none() | st.integers(0, 2 + n * step + 2))
    grid = range(2, 2 + n * step, step)
    actual = np.cumsum([r[0] for r in rows], dtype=np.int64)
    est = np.array([r[1] for r in rows], dtype=np.float64)
    ser = HeldSeries(grid if ranged else np.array(grid), actual, lambda v: est[(v - 2) // step])
    # values alone are compared: the oracle's rows() also computes the ratio,
    # which overflows for subnormal estimates, and inf - inf sums warn in both
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(sieve, "COUNT_BLOCK", block_rows)
        got = outcome(held_mape, ser, upto)
        assert got == outcome(oracle_mape, ser, upto) == outcome(held_oracle_mape, ser, upto)
        assert find_crossover(ser.stream()) == oracle_find_crossover(ser)


@settings(max_examples=60, deadline=None)
@given(block_rows=st.sampled_from([4099, sieve.COUNT_BLOCK]), data=st.data())
def test_mape_by_runs_equals_the_per_point_oracle(block_rows, data):
    """A series of the Gaussian estimate past RUN_SUM_START with synthetic
    increments: a first count near the estimate, so that runs straddle it,
    and up to 41 runs, each of up to 1/256 of the first point (twice the
    widest share of its midpoint that a run of the Gaussian census spans
    past RUN_SUM_START, 1/553), cut at any bound, in blocks of 4,099 and
    2^16 rows: Mape, which sums the sparse blocks per run, gives
    OracleMape's per-point sum to within the rounding of the estimate's
    values (see sum_tolerance)."""
    census = gaussian_census(10**9, "both-axes")  # its estimate and run sum alone are read
    first = data.draw(st.integers(analysis.RUN_SUM_START, 10**7))
    gaps = data.draw(st.lists(st.integers(1, first // 256), min_size=1, max_size=41))
    rows = sum(gaps)
    increments = np.zeros(rows, dtype=np.int64)
    level = data.draw(st.floats(0.9, 1.1))
    increments[0] = round(level * float(census.estimate(np.array([first]))[0]))
    steps = data.draw(st.lists(st.integers(1, 5), min_size=len(gaps) - 1, max_size=len(gaps) - 1))
    np.add.at(increments, np.cumsum(gaps[:-1], dtype=np.int64), steps)
    grid = range(first, first + rows)
    ser = HeldSeries(grid, np.cumsum(increments), census.estimate, "", census.estimate_sum)
    upto = data.draw(st.none() | st.integers(grid[0], grid[-1] + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "COUNT_BLOCK", block_rows)
        got, want = held_mape(ser, upto), held_oracle_mape(ser, upto)
    assert got == pytest.approx(want, rel=0, abs=sum_tolerance(ser, upto))


def sum_tolerance(ser, upto):
    """How far a MAPE summed per run may lie from the per-point sum.  Each
    point's 100 |A - f| / A rests on a value of the estimate f rounded to a
    few units in its last place, so it is known to within about
    eps (100 f / A + itself), and a run's sum carries the same error; the
    tolerance is 16 times the mean of that over the rows summed (in 900
    random series like the property's, the largest gap was 1.5 times it)."""
    x, actual, est, _, pct = series_rows(ser)
    summed = (actual >= 1) & (x <= (x[-1] if upto is None else upto))
    return 16 * np.finfo(float).eps * float(np.mean(100.0 * est[summed] / actual[summed]
                                                    + pct[summed]))


# censuses whose MAPE the run sums must leave bit for bit: the Gaussian one
# that census-summary runs, and monoids whose blocks go per point
CENSUS_MAPES = {
    "gauss-2e7": lambda: gaussian_census(2 * 10**7, "both-axes"),
    **{f"monoid-d{d}-1e6": functools.partial(monoid_census, MonoidParams(d, 10**6))
       for d in (2, 3, 7, 50)},
}


@pytest.mark.parametrize("name", sorted(CENSUS_MAPES))
def test_census_mape_equals_the_per_point_oracle_bit_for_bit(name):
    census = CENSUS_MAPES[name]()
    grid = census.change_grid()
    edge = grid[min(sieve.COUNT_BLOCK, len(grid) - 1)]  # a block's first point, or the last
    bounds = (None, grid[len(grid) // 3], grid[-1] - 1, edge + 1)
    error, oracle = analysis.Mape(bounds), OracleMape(bounds)
    analysis.scan(stream_series(census), error, oracle)
    assert [repr(v) for v in error.result()] == [repr(v) for v in oracle.result()]


@pytest.mark.parametrize(("name", "by_runs"), [("gauss", True), ("monoid-d50", False)])
def test_mape_sums_sparse_blocks_per_run_and_dense_ones_per_point(name, by_runs):
    """Past RUN_SUM_START, the Gaussian census's blocks (0.032 runs a row at
    10^8) are summed per run, with no count or error per point, and the
    d = 50 monoid's (0.9 runs a row at 10^8, and no run sum) per point;
    before it, every block goes per point."""
    census = {"gauss": lambda: gaussian_census(10**6, "both-axes"),
              "monoid-d50": lambda: monoid_census(MonoidParams(50, 10**7))}[name]()
    seen = []

    class Spy:
        def feed(self, block):
            past = block.points.start >= analysis.RUN_SUM_START
            seen.append((past, block.by_runs, "pct_err" in vars(block), "actual" in vars(block)))

    analysis.scan(stream_series(census), analysis.Mape(), Spy())
    assert sum(past for past, *_ in seen) >= 3 and not seen[0][0]
    for past, runs, pct_err, actual in seen:
        assert runs == (by_runs and past) and pct_err == actual == (not runs)


ESTIMATE_INPUTS = {
    "int64": lambda: np.arange(2, 10**6),
    "float64": lambda: np.linspace(1.5, 2.0**53, 100_001),
    "gauss-radii": lambda: np.sqrt(np.arange(2, 10**6)),
    "float32": lambda: np.linspace(1.5, 1e4, 1001, dtype=np.float32),
    "2-d": lambda: np.arange(2.0, 14.0).reshape(3, 4),
}
ONE_LINE_ESTIMATES = [
    (estimate_pi_G, lambda r: r * r / (2.0 * np.log(r))),
    *(
        (lambda x, d=d: estimate_pi_d(d, x), lambda x, d=d: x / (d * np.log(x) ** (1.0 / d)))
        for d in (2, 3, 7, 50)
    ),
]


@pytest.mark.parametrize("name", sorted(ESTIMATE_INPUTS))
def test_estimators_equal_their_one_line_expressions(name):
    """The in-place array paths give the bits of the expressions they
    replaced, leave their input as it was, and scalars still give a float."""
    points = ESTIMATE_INPUTS[name]()
    before = points.copy()
    for estimate, one_line in ONE_LINE_ESTIMATES:
        got, want = estimate(points), one_line(points)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert points.tobytes() == before.tobytes()
        for scalar in (1000, 1000.5, np.float64(77.25), np.int64(5)):
            value = estimate(scalar)
            assert type(value) is float and value == float(one_line(scalar))


def test_series_memory_does_not_grow_with_census_size():
    def peak(n):
        ser = build_series(gaussian_census(n, "both-axes")).stream()  # the whole counts, made untraced
        tracemalloc.start()
        try:
            analysis.scan(ser, error := analysis.Mape())
            error.result()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10**6), peak(8 * 10**6)
    assert large < 1.25 * small, (small, large)


def test_series_csv_memory_does_not_grow_with_census_size(tmp_path, monkeypatch):
    """The writer formats one block at a time and writes it before the next,
    so its peak is the same at four times the rows (small blocks, so that
    small censuses are many blocks long)."""
    monkeypatch.setattr(sieve, "COUNT_BLOCK", 1 << 12)

    def peak(n):
        ser = build_series(gaussian_census(n, "both-axes"))
        tracemalloc.start()
        try:
            write_series_csv(ser, tmp_path / "series.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10**5), peak(8 * 10**5)
    assert large < 1.25 * small, (small, large)


def quad_growth():
    """scripts/quad_growth.py, loaded by its path."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "quad_growth.py"
    spec = importlib.util.spec_from_file_location("quad_growth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bound", [2000, 50000])
@pytest.mark.parametrize("kind", REGION_KINDS)
def test_quad_growth_thin_keeps_its_point_rule(kind, bound):
    """thin takes rows of the census's own series, at the points, with the
    counts and so the fit that its former custom-grid rule gave."""
    script = quad_growth()
    for d in script.DEFAULT_RINGS:
        census = quad_census(d, RegionSpec(kind, bound))
        ser, former = hold(script.thin(census)), oracle_thin(census)
        assert np.array_equal(ser.x, former.x), d
        assert np.array_equal(ser.actual, former.actual), d
        assert ser.label == former.label and ser.estimator is None
        assert fit_model(script.thin(census)) == fit_model(former.stream()), d


@pytest.mark.parametrize("bound", [1, 2, 3, 10])
def test_quad_growth_too_small_a_bound_is_a_one_line_error(tmp_path, bound):
    """Below 3, or with fewer than 8 points to fit, the script exits 2 with
    one error line naming the ring and the bound, and writes no CSV."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "quad_growth.py"
    csv = tmp_path / "fits.csv"
    proc = subprocess.run(
        [sys.executable, str(path), "--rings", "5", "--bound", str(bound), "--csv", str(csv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: d=5 norm-ball bound={bound}: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not csv.exists()


def written_csv(ser, tmp_path):
    """The path of the series CSV of the held series ser."""
    path = tmp_path / "series.csv"
    write_series_csv(ser, path)
    return path


def series_read_back(ser, tmp_path):
    """The held series ser written to a CSV and read back, held whole."""
    return hold(read_series_csv(written_csv(ser, tmp_path)))


def synthetic_series(zeros, n):
    """x = 1 to n, counts 1 + floor(x / ln(x + 2)) except the first `zeros`, which are 0."""
    xs = np.arange(1, n + 1, dtype=np.int64)
    actual = 1 + np.floor(xs / np.log(xs + 2)).astype(np.int64)
    actual[:zeros] = 0
    return HeldSeries(xs, actual)


def streamed(census):
    """The census's streamed series, which the fit reads, and its whole
    series, which the oracles read."""
    return stream_series(census), build_series(census)


def held(ser):
    """A pass of a held series, which the fit reads, and the held series,
    which the oracles read."""
    return ser.stream(), ser


def made_twice(make):
    """The series that make() returns, which the fit reads, and the one that
    a second call returns, held whole, which the oracles read."""
    return make(), hold(make())


# each case gives (the series to fit, the same series whole, for the oracles)
FIT_SERIES = {
    # the golden fit commands
    "classical-20000": lambda _: streamed(classical_census(20000)),
    "monoid-d3-5000": lambda _: streamed(monoid_census(MonoidParams(3, 5000))),
    "gauss-10000": lambda _: streamed(gaussian_census(10000, "both-axes")),
    "quad-d5-norm-ball-3000": lambda _: streamed(quad_census(5, RegionSpec("norm-ball", 3000))),
    "quad-d6-euclidean-2000": lambda _: streamed(
        quad_census(6, RegionSpec("euclidean-ball", 2000))
    ),
    "monoid-d7-100000": lambda _: streamed(monoid_census(MonoidParams(7, 100000))),
    "from-csv": lambda tmp: made_twice(functools.partial(
        read_series_csv, written_csv(build_series(gaussian_census(20000, "both-axes")), tmp)
    )),
    "quad-growth-thin": lambda _: made_twice(functools.partial(
        quad_growth().thin, quad_census(5, RegionSpec("norm-ball", 50000))
    )),
    "zeros-and-x-below-3": lambda _: held(synthetic_series(6, 300)),  # the zeros set the start
    "x-below-3": lambda _: held(synthetic_series(0, 300)),  # x >= 3 sets the start
    "exactly-8-points": lambda _: held(synthetic_series(3, 11)),
    # the benchmark's classical fit: its two best candidates of the last bracket
    # round lie 7e-16 apart in exact squared error
    "classical-1000000": lambda _: streamed(classical_census(1_000_000)),
}


def assert_finds_the_oracles_optimum(ser, whole):
    """fit_model's e is the oracle's to the search's precision, and its exact
    squared error is the oracle's least one to within rounding: the two
    searches may part only where candidates tie to within it."""
    fit, ref = fit_model(ser), oracle_fit_model(whole)
    assert abs(fit.e - ref.e) <= 1e-5 * max(1.0, abs(ref.e)), (fit, ref)
    base, log_ln_x = oracle_fit_arrays(whole)
    _, ref_rms2, scale = oracle_squared_error(base, log_ln_x, ref.e)
    assert oracle_squared_error(base, log_ln_x, fit.e)[1] <= ref_rms2 + 1e-15 * scale, (fit, ref)


def assert_screened_error_is_the_exact_one(ser, whole):
    """The squared error from the binned moments of one pass is within
    1e-15 of its scale of the exact one, at 501 values of e in [-2, 3]."""
    moments = analysis.FitMoments()
    analysis.scan(ser, moments)
    base, log_ln_x = oracle_fit_arrays(whole)
    assert moments.n == base.size
    es = np.linspace(-2.0, 3.0, 501)
    for e, c, rms2 in zip(es.tolist(), *moments.squared_errors(es)):
        ref_c, ref_rms2, scale = oracle_squared_error(base, log_ln_x, e)
        assert abs(rms2 - ref_rms2) <= 1e-15 * scale, (e, (rms2 - ref_rms2) / scale)
        assert c == pytest.approx(ref_c, rel=1e-14), e


@pytest.mark.parametrize("name", sorted(FIT_SERIES))
def test_fit_model_finds_the_oracles_optimum(tmp_path, name):
    assert_finds_the_oracles_optimum(*FIT_SERIES[name](tmp_path))


@pytest.mark.parametrize("name", sorted(FIT_SERIES))
def test_fit_screened_error_is_the_exact_one(tmp_path, name):
    assert_screened_error_is_the_exact_one(*FIT_SERIES[name](tmp_path))


SMALL_FITS = ("classical-20000", "exactly-8-points", "x-below-3", "zeros-and-x-below-3")


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
@pytest.mark.parametrize("name", SMALL_FITS)
def test_fit_model_finds_the_oracles_optimum_at_any_block_size(
        tmp_path, monkeypatch, name, block_rows):
    """The fitted suffix may start in any block, after whole blocks of zero
    counts or of x below 3, and a bin's rows may span blocks: its sums
    add up block by block."""
    monkeypatch.setattr(sieve, "COUNT_BLOCK", block_rows)
    assert_finds_the_oracles_optimum(*FIT_SERIES[name](tmp_path))
    assert_screened_error_is_the_exact_one(*FIT_SERIES[name](tmp_path))


@settings(max_examples=60, deadline=None)
@given(
    c0=st.floats(0.05, 5.0),
    e0=st.floats(-1.0, 2.5),
    noise=st.floats(0.0, 0.3),
    zeros=st.integers(0, 40),
    n=st.integers(8, 3000),
    decades=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_model_finds_the_oracles_optimum_on_synthetic_series(
        c0, e0, noise, zeros, n, decades, seed):
    """Noisy model counts c0 * x / (ln x)^e0 with leading zeros, on up to
    3,000 points spread over up to four more decades than points."""
    xs = np.unique(np.geomspace(1, n * 10**decades, n).astype(np.int64))
    model = c0 * xs / np.log(np.maximum(xs, 2)) ** e0
    noisy = model * (1 + noise * np.random.default_rng(seed).standard_normal(xs.size))
    actual = np.maximum.accumulate(np.maximum(np.round(noisy), 0).astype(np.int64))
    actual[:zeros] = 0
    ser = HeldSeries(xs, actual)
    try:
        oracle_fit_model(ser)
    except ValueError:
        with pytest.raises(ValueError):
            fit_model(ser.stream())
    else:
        assert_finds_the_oracles_optimum(ser.stream(), ser)
        assert_screened_error_is_the_exact_one(ser.stream(), ser)


def test_streamed_fit_memory_is_one_window_and_one_block():
    """The census and its streamed series are made inside the traced span:
    the fit's pass holds one sieve window and one block's columns, a
    constant per COUNT_BLOCK row (52 B measured), and no array per point."""
    tracemalloc.start()
    try:
        ser = stream_series(gaussian_census(10**6, "both-axes"))
        fit_model(ser)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = min(sieve.SEGMENT_SIZE, 10**6)  # one bool per norm
    assert len(ser) > 10**6 - 10
    assert peak <= window + 64 * sieve.COUNT_BLOCK, (peak - window) / sieve.COUNT_BLOCK


def test_fit_from_csv_memory_does_not_grow_with_rows(tmp_path, monkeypatch):
    """fit --from-csv's pass parses one block of the file's text at a time
    and hands its x and actual on a block at a time, so reading and fitting
    four times the rows peaks no higher (small blocks, so that small files
    are many blocks long)."""
    monkeypatch.setattr(sieve, "COUNT_BLOCK", 1 << 12)
    monkeypatch.setattr(report, "_READ_BLOCK_CHARS", 1 << 14)

    def peak(n):
        path = tmp_path / f"series_{n}.csv"
        write_series_csv(build_series(gaussian_census(n, "both-axes")), path)
        tracemalloc.start()
        try:
            fit_model(read_series_csv(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10**5), peak(8 * 10**5)
    assert large < 1.25 * small, (small, large)


class Tiles:
    """A reducer that records the length of each block."""

    def __init__(self):
        self.tiles = []

    def feed(self, block):
        self.tiles.append(len(block))


# a series of each source: a census, a series CSV, and the thinned rows of scripts/quad_growth.py
SERIES_SOURCES = {
    "census": lambda _: stream_series(gaussian_census(20_000, "both-axes")),
    "csv": lambda tmp: read_series_csv(
        written_csv(build_series(gaussian_census(20_000, "both-axes")), tmp)
    ),
    "quad-growth-thin": lambda _: quad_growth().thin(
        quad_census(5, RegionSpec("norm-ball", 50_000))
    ),
}


@pytest.mark.parametrize("source", sorted(SERIES_SOURCES))
def test_a_pass_tiles_the_grid_and_a_second_pass_raises(tmp_path, monkeypatch, source):
    """The blocks of a pass are COUNT_BLOCK rows each but the last, which is
    not empty, so they cover the series' rows from row 0 to its last, and
    the series can be scanned once."""
    monkeypatch.setattr(sieve, "COUNT_BLOCK", 64)
    ser = SERIES_SOURCES[source](tmp_path)
    tiles = Tiles()
    analysis.scan(ser, tiles)
    assert len(tiles.tiles) > 2
    assert all(rows == 64 for rows in tiles.tiles[:-1]), tiles.tiles
    assert 0 < tiles.tiles[-1] <= 64 and sum(tiles.tiles) == len(ser)
    with pytest.raises(RuntimeError, match="read once"):
        analysis.scan(ser, Tiles())
