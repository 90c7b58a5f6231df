import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab import (
    CountSeries,
    MonoidParams,
    build_series,
    classical_census,
    estimate_pi_d,
    estimate_pi_G,
    find_crossover,
    fit_model,
    gaussian_census,
    mape,
    monoid_census,
    ratio_R,
)
from primelab import series as analysis


def monoid_estimator(d):
    return lambda xs: estimate_pi_d(d, xs)


def test_build_series_single_point_matches_summary_row():
    census = monoid_census(MonoidParams(3, 10**4))
    ser = build_series(census, monoid_estimator(3), grid=[10**4])
    assert ser.actual[0] == 1380
    assert ser.estimate[0] == pytest.approx(1590.21, abs=0.05)
    assert ser.ratio[0] == pytest.approx(0.86781, abs=5e-6)
    assert ser.pct_err[0] == pytest.approx(100 * (1590.2065 - 1380) / 1380, abs=1e-3)


def test_build_series_zero_actual_has_no_error():
    census = monoid_census(MonoidParams(5, 100))
    ser = build_series(census, monoid_estimator(5), grid=[2, 11, 96])
    assert ser.actual[0] == 0  # the first monoid prime, 6, lies beyond x=2
    assert math.isnan(ser.pct_err[0])
    assert ser.pct_err[-1] >= 0


def test_build_series_default_grid_starts_at_first_prime():
    census = monoid_census(MonoidParams(3, 1000))
    ser = build_series(census, monoid_estimator(3))
    assert ser.x[0] == 4  # 4 = 1 + 3 is the first monoid prime
    assert ser.actual[0] == 1
    assert np.all(ser.actual >= 1)
    assert not np.isnan(ser.pct_err).any()


def test_build_series_default_grid_needs_a_prime():
    empty = monoid_census(MonoidParams(50, 40))  # holds only the identity
    assert empty.total == 0
    with pytest.raises(ValueError, match="census holds no primes"):
        build_series(empty, monoid_estimator(50))
    assert np.array_equal(build_series(empty).x, empty.change_grid())

    census = monoid_census(MonoidParams(50, 1000))
    grid = np.array(census.change_grid())
    first = next(int(x) for x, c in zip(grid, census.counts_at(grid)) if c >= 1)
    ser = build_series(census, monoid_estimator(50))
    assert first == 51 and ser.x[0] == first and ser.actual[0] == 1
    assert np.array_equal(ser.x, grid[grid >= first])


def test_build_series_gaussian():
    census = gaussian_census(10, "both-axes")
    ser = build_series(census, lambda ns: estimate_pi_G(np.sqrt(ns)), grid=[10])
    assert ser.actual[0] == 5
    assert ser.estimate[0] == pytest.approx(10 / math.log(10), rel=1e-12)


def test_build_series_empty_grid():
    census = monoid_census(MonoidParams(3, 1000))
    with pytest.raises(ValueError):
        build_series(census, monoid_estimator(3), grid=[])


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


def test_mape_basics():
    one = CountSeries(np.array([10]), np.array([100]), lambda xs: np.full(xs.shape, 90.0))
    assert mape(one) == pytest.approx(10.0)
    exact = CountSeries(
        np.array([10, 20]), np.array([5, 9]), lambda xs: np.where(xs == 10, 5.0, 9.0)
    )
    assert mape(exact) == 0.0
    undefined = CountSeries(np.array([10]), np.array([0]), lambda xs: np.full(xs.shape, 3.0))
    with pytest.raises(ValueError):
        mape(undefined)
    no_estimator = CountSeries(np.array([10, 20]), np.array([1, 2]))
    with pytest.raises(ValueError):
        mape(no_estimator)


def test_mape_zero_iff_exact():
    ser = CountSeries(
        np.array([5, 10, 20]), np.array([2, 4, 9]), lambda xs: np.array([2.0, 4.1, 9.0])
    )
    assert mape(ser) > 0


def test_crossover_synthetic():
    xs = np.arange(10, 100, 10)
    actual = np.array([5, 6, 7, 8, 9, 9, 9, 9, 9])
    # estimate overtakes at x=50 and stays above
    est = np.array([3.0, 4.0, 6.0, 7.5, 9.5, 10.0, 11.0, 12.0, 13.0])
    ser = CountSeries(xs, actual, lambda v: est)
    assert find_crossover(ser) == 50


def test_crossover_none_when_estimate_always_above():
    ser = CountSeries(np.array([1, 2, 3]), np.array([1, 1, 1]), lambda v: np.array([5.0, 6.0, 7.0]))
    assert find_crossover(ser) is None


def test_crossover_none_when_actual_ahead_at_end():
    ser = CountSeries(np.array([1, 2, 3]), np.array([2, 3, 9]), lambda v: np.array([5.0, 6.0, 7.0]))
    assert find_crossover(ser) is None


def test_crossover_ignores_early_oscillation():
    xs = np.arange(1, 11)
    actual = np.array([3, 3, 5, 5, 7, 7, 7, 7, 7, 7])
    est = np.array([2.0, 4.0, 4.5, 6.0, 6.5, 6.9, 7.5, 8.0, 9.0, 10.0])
    ser = CountSeries(xs, actual, lambda v: est)
    assert find_crossover(ser) == 7  # last positive-to-nonpositive flip


def test_crossover_returns_grid_point():
    census = monoid_census(MonoidParams(3, 2000))
    ser = build_series(census, monoid_estimator(3))
    x = find_crossover(ser)
    assert x is not None and x % 3 == 1


def test_fit_recovers_synthetic_parameters():
    xs = np.unique(np.geomspace(10**3, 10**6, 60).astype(np.int64))
    for c0, e0 in ((0.5, 1.0), (1 / 3, 1 / 3)):
        actual = np.round(c0 * xs / np.log(xs) ** e0).astype(np.int64)
        actual = np.maximum.accumulate(actual)
        ser = CountSeries(xs, actual)
        fit = fit_model(ser)
        # rounding to integer counts leaves a little noise; 1% is the contract
        assert fit.c == pytest.approx(c0, rel=0.01)
        assert fit.e == pytest.approx(e0, rel=0.01)


def test_fit_classical_exponent_near_one(table_100k):
    xs = np.arange(10**3, 10**5 + 1, 97, dtype=np.int64)
    counts = np.cumsum(table_100k.flags)
    ser = CountSeries(xs, counts[xs])
    fit = fit_model(ser)
    assert 0.8 <= fit.e <= 1.2
    assert fit.rms_rel_err < 0.1


def test_fit_needs_enough_points():
    ser = CountSeries(np.array([10, 20, 30]), np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        fit_model(ser)


def test_fit_deterministic():
    xs = np.unique(np.geomspace(10, 10**4, 40).astype(np.int64))
    actual = np.round(0.7 * xs / np.log(xs) ** 1.2).astype(np.int64)
    actual = np.maximum.accumulate(actual)
    ser = CountSeries(xs, actual)
    a, b = fit_model(ser), fit_model(ser)
    assert (a.c, a.e, a.rms_rel_err) == (b.c, b.e, b.rms_rel_err)


def test_ratio_times_estimate_recovers_actual():
    census = monoid_census(MonoidParams(3, 5000))
    ser = build_series(census, monoid_estimator(3))
    recovered = ser.ratio * ser.estimate
    assert np.allclose(recovered, ser.actual, rtol=1e-12)


def test_series_validation():
    with pytest.raises(ValueError):
        CountSeries(np.array([3, 2]), np.array([1, 2]))  # x not increasing
    with pytest.raises(ValueError):
        CountSeries(np.array([2, 3]), np.array([2, 1]))  # actual decreasing
    with pytest.raises(ValueError):
        build_series(classical_census(10), grid=[])
    with pytest.raises(ValueError):
        build_series(classical_census(10), grid=[3, 2])  # x not increasing


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
    ser = CountSeries(np.array(xs), actual, lambda v: v / np.log(v.astype(float) + 1.0))
    if np.all(actual == 0):
        return
    assert mape(ser) >= 0.0


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


def oracle_mape(pct_err):
    valid = pct_err[~np.isnan(pct_err)]
    if valid.size == 0:
        raise ValueError("series has no points with a defined percentage error")
    return float(valid.mean())


def oracle_find_crossover(x, actual, estimate):
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


def gauss_estimator(ns):
    return estimate_pi_G(np.sqrt(ns))


STREAMED_SERIES = {
    "gauss": lambda n: build_series(gaussian_census(n, "both-axes"), gauss_estimator),
    "monoid": lambda n: build_series(monoid_census(MonoidParams(3, 3 * n)), monoid_estimator(3)),
    "classical": lambda n: build_series(classical_census(n), lambda xs: xs / np.log(xs)),
}


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, analysis.CHUNK_ROWS])
@pytest.mark.parametrize("domain", sorted(STREAMED_SERIES))
def test_streamed_statistics_match_whole_array_oracles(monkeypatch, domain, chunk_rows):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    rows = 3000 if chunk_rows < 100 else 3 * chunk_rows + 5  # several blocks either way
    ser = STREAMED_SERIES[domain](rows)
    assert len(ser) > 2 * chunk_rows
    x, actual, est, ratio, pct = oracle_columns(ser)

    blocks = list(ser.blocks())
    assert len(blocks) == -(-len(ser) // chunk_rows)
    for got, want in zip(zip(*blocks), (x, actual, est, ratio, pct)):
        assert np.array_equal(np.concatenate(got), want, equal_nan=True)

    assert find_crossover(ser) == oracle_find_crossover(x, actual, est)
    assert mape(ser) == pytest.approx(oracle_mape(pct), rel=1e-12)
    bounds = [10, 1000, int(x[len(x) // 3]) + 1, int(x[-1]) - 1, int(x[-1])]
    got = [mape(ser, upto=bound) for bound in bounds]
    assert got == pytest.approx(oracle_prefix_mapes(x, pct, bounds), rel=1e-12)


SOME_FLOATS = st.one_of(st.just(math.nan), st.floats(0.0, 100.0), st.floats(-1e3, 1e3))


@pytest.mark.parametrize("chunk_rows", [1, 3, 7])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), SOME_FLOATS, SOME_FLOATS), max_size=30))
def test_streamed_statistics_match_oracles_on_stored_columns(chunk_rows, rows):
    # a series read from a CSV: NaN anywhere, crossings at any block boundary
    x = np.arange(2, 2 + len(rows), dtype=np.int64)
    actual = np.cumsum([r[0] for r in rows], dtype=np.int64)
    est, pct = (np.array([r[i] for r in rows], dtype=np.float64) for i in (1, 2))
    ser = CountSeries(x, actual, columns=(est, est, pct))
    expected_crossover = oracle_find_crossover(x, actual, est)
    try:
        expected_mape = oracle_mape(pct)
    except ValueError:
        expected_mape = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "CHUNK_ROWS", chunk_rows)
        assert find_crossover(ser) == expected_crossover
        if expected_mape is None:
            with pytest.raises(ValueError):
                mape(ser)
        else:
            assert mape(ser) == pytest.approx(expected_mape, rel=1e-12)


def test_series_memory_does_not_grow_with_census_size():
    def peak(n):
        census = gaussian_census(n, "both-axes")
        tracemalloc.start()
        try:
            mape(build_series(census, gauss_estimator))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10**6), peak(8 * 10**6)
    assert large < 1.25 * small, (small, large)
