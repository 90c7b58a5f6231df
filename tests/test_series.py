import importlib.util
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    census_counts_at,
    oracle_find_crossover,
    oracle_fit_model,
    oracle_mape,
    oracle_squared_error,
    oracle_thin,
)
from primelab import (
    CountSeries,
    MonoidParams,
    RegionSpec,
    build_series,
    classical_census,
    estimate_pi_d,
    estimate_pi_G,
    find_crossover,
    fit_model,
    gaussian_census,
    mape,
    monoid_census,
    quad_census,
    ratio_R,
)
from primelab import report
from primelab import series as analysis
from primelab.quadratic import REGION_KINDS
from primelab.report import read_series_csv, write_csv


def test_build_series_single_point_matches_summary_row():
    ser = build_series(monoid_census(MonoidParams(3, 10**4)))
    x, actual, est, ratio, pct_err = ser.rows(len(ser) - 1)
    assert x.tolist() == [10**4]
    assert actual[0] == 1380
    assert est[0] == pytest.approx(1590.21, abs=0.05)
    assert ratio[0] == pytest.approx(0.86781, abs=5e-6)
    assert pct_err[0] == pytest.approx(100 * (1590.2065 - 1380) / 1380, abs=1e-3)


def test_build_series_zero_actual_has_no_error():
    census = monoid_census(MonoidParams(5, 100))
    xs = np.array([2, 11, 96])
    ser = CountSeries(xs, census_counts_at(census, xs), census.estimate)
    assert ser.actual[0] == 0  # the first monoid prime, 6, lies beyond x=2
    pct_err = ser.rows()[4]
    assert math.isnan(pct_err[0])
    assert pct_err[-1] >= 0


def test_build_series_default_grid_starts_at_first_prime():
    census = monoid_census(MonoidParams(3, 1000))
    ser = build_series(census)
    assert ser.x[0] == 4  # 4 = 1 + 3 is the first monoid prime
    assert ser.actual[0] == 1
    assert np.all(ser.actual >= 1)
    assert not np.isnan(ser.rows()[4]).any()


def test_build_series_default_grid_needs_a_prime():
    empty = monoid_census(MonoidParams(50, 40))  # holds only the identity
    assert empty.total == 0
    with pytest.raises(ValueError, match="census holds no primes"):
        build_series(empty)
    # a census with no estimate keeps its whole grid, empty or not
    no_estimate = quad_census(5, RegionSpec("norm-ball", 3))
    assert no_estimate.total == 0
    assert np.array_equal(build_series(no_estimate).x, no_estimate.change_grid())

    census = monoid_census(MonoidParams(50, 1000))
    grid = np.array(census.change_grid())
    first = next(int(x) for x, c in zip(grid, census.cumulative) if c >= 1)
    ser = build_series(census)
    assert first == 51 and ser.x[0] == first and ser.actual[0] == 1
    assert np.array_equal(ser.x, grid[grid >= first])


def test_build_series_gaussian():
    ser = build_series(gaussian_census(10, "both-axes"))
    x, actual, est = ser.rows(len(ser) - 1)[:3]
    assert x.tolist() == [10] and actual.tolist() == [5]
    assert est[0] == pytest.approx(10 / math.log(10), rel=1e-12)


def test_each_census_carries_its_own_estimate():
    classical = classical_census(100)
    monoid = monoid_census(MonoidParams(7, 1000))
    gauss = gaussian_census(1000, "both-axes")
    quad = quad_census(5, RegionSpec("norm-ball", 1000))
    for census in (classical, monoid, gauss, quad):
        assert build_series(census).estimator == census.estimate
        assert build_series(census).take(np.array([0, 1])).estimator == census.estimate
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
    ser = build_series(census)
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
    # 7 usable points: x = 2 is below 3 and the first count is 0
    ser = CountSeries(np.arange(2, 11), np.array([0, 0, 1, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(ValueError, match="at least 8 points"):
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
    ser = build_series(census)
    _, actual, est, ratio, _ = ser.rows()
    assert np.allclose(ratio * est, actual, rtol=1e-12)


def test_series_validation():
    with pytest.raises(ValueError):
        CountSeries(np.array([3, 2]), np.array([1, 2]))  # x not increasing
    with pytest.raises(ValueError):
        CountSeries(np.array([2, 3]), np.array([2, 1]))  # actual decreasing
    with pytest.raises(ValueError, match="actual must be nondecreasing"):
        CountSeries(range(2, 40), np.array([0, 1] * 19))  # a range grid too


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
def test_order_is_checked_across_block_boundaries(monkeypatch, chunk_rows):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    n = 20
    ordered = np.arange(2, n + 2, dtype=np.int64)
    CountSeries(range(2, n + 2), ordered)
    CountSeries(ordered, ordered)
    for i in range(n - 1):  # one pair out of order, at every position
        swapped = ordered.copy()
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        with pytest.raises(ValueError, match="actual must be nondecreasing"):
            CountSeries(range(2, n + 2), swapped)
        with pytest.raises(ValueError, match="x must be strictly increasing"):
            CountSeries(swapped, ordered)
        repeated = ordered.copy()
        repeated[i + 1] = repeated[i]
        CountSeries(ordered, repeated)  # a count may stay the same
        with pytest.raises(ValueError, match="x must be strictly increasing"):
            CountSeries(repeated, ordered)


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
    """pi(x) against x / ln x from x = 2, the first nonzero count, to n."""
    census = classical_census(n)
    return CountSeries(range(2, n + 1), census.cumulative[1:], lambda xs: xs / np.log(xs))


STREAMED_SERIES = {
    "gauss": lambda n: build_series(gaussian_census(n, "both-axes")),
    "monoid": lambda n: build_series(monoid_census(MonoidParams(3, 3 * n))),
    "classical": classical_series,
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

    assert find_crossover(ser) == whole_array_crossover(x, actual, est)
    assert mape(ser) == pytest.approx(whole_array_mape(pct), rel=1e-12)
    bounds = [10, 1000, int(x[len(x) // 3]) + 1, int(x[-1]) - 1, int(x[-1])]
    got = [mape(ser, upto=bound) for bound in bounds]
    assert got == pytest.approx(oracle_prefix_mapes(x, pct, bounds), rel=1e-12)


SOME_FLOATS = st.one_of(st.just(math.nan), st.floats(0.0, 100.0), st.floats(-1e3, 1e3))


@pytest.mark.parametrize("chunk_rows", [1, 3, 7])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), SOME_FLOATS), max_size=30))
def test_streamed_statistics_match_oracles_on_stored_columns(chunk_rows, rows):
    # a column of estimates stored in an array that the estimator looks up by
    # x: NaN anywhere, crossings at any block boundary
    x = np.arange(2, 2 + len(rows), dtype=np.int64)
    actual = np.cumsum([r[0] for r in rows], dtype=np.int64)
    stored = np.array([r[1] for r in rows], dtype=np.float64)
    ser = CountSeries(x, actual, lambda v: stored[v - 2])
    with np.errstate(over="ignore"):  # the oracle's ratio overflows for subnormal estimates
        _, _, est, _, pct = oracle_columns(ser)
    expected_crossover = whole_array_crossover(x, actual, est)
    try:
        expected_mape = whole_array_mape(pct)
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


def outcome(fn, *args):
    """repr of fn(*args), or of the ValueError it raises: equal reprs of
    floats are equal bits, NaN and the sign of zero included."""
    try:
        return repr(fn(*args))
    except ValueError as err:
        return repr(err)


def block_edge_series():
    """Three blocks: the counts are zero until 10 rows past the first block
    edge, and the estimate, which overtakes the counts shortly before the
    second edge, is NaN on 80 rows across that edge."""
    c = analysis.CHUNK_ROWS
    xs = np.arange(2, 3 * c + 2, dtype=np.int64)
    actual = np.floor(xs / np.log(xs)).astype(np.int64)
    actual[: c + 10] = 0
    edge = float(xs[2 * c])

    def estimator(v):
        est = v / np.log(v) + (v - edge + 300.0) * 1e-3
        return np.where(np.abs(v - edge) < 40, np.nan, est)

    return CountSeries(xs, actual, estimator)


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


@pytest.mark.parametrize("chunk_rows", [4099, analysis.CHUNK_ROWS])
@pytest.mark.parametrize("name", sorted(STATISTICS_SERIES))
def test_statistics_equal_the_rows_oracles_bit_for_bit(tmp_path, monkeypatch, name, chunk_rows):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    ser = STATISTICS_SERIES[name](tmp_path)
    x = ser.x
    assert len(ser) > 2 * 4099  # three blocks or more at the smaller size
    bounds = [None, int(x[0]) - 1, int(x[len(x) // 2]), int(x[-1]), int(x[-1]) + 1]
    edges = range(chunk_rows, len(x), chunk_rows)
    for edge in {edges[0], edges[len(edges) // 2], edges[-1]} if edges else ():
        bounds += [int(x[edge - 1]), int(x[edge])]  # the last x of a block, the first of the next
    for upto in bounds:
        assert outcome(mape, ser, upto) == outcome(oracle_mape, ser, upto), upto
    assert find_crossover(ser) == oracle_find_crossover(ser)


def test_block_edge_series_crosses_over_near_the_nan_edge():
    ser = block_edge_series()
    c = analysis.CHUNK_ROWS
    assert ser.rows(0, c + 10)[1].max() == 0 and ser.rows(c + 10)[1].min() > 0
    crossover = find_crossover(ser)
    assert crossover is not None and abs(crossover - int(ser.x[2 * c])) < 400


def test_statistics_without_an_estimate_equal_the_rows_oracles():
    ser = build_series(quad_census(5, RegionSpec("norm-ball", 3000)))
    assert outcome(mape, ser) == outcome(oracle_mape, ser)
    assert "ValueError" in outcome(mape, ser)
    assert find_crossover(ser) is None and oracle_find_crossover(ser) is None


ANY_FLOATS = st.one_of(SOME_FLOATS, st.sampled_from([math.inf, -math.inf, -0.0]))


@settings(max_examples=150, deadline=None)
@given(
    chunk_rows=st.integers(1, 8),
    step=st.integers(1, 3),
    ranged=st.booleans(),
    data=st.data(),
)
def test_statistics_equal_the_rows_oracles_on_synthetic_blocks(chunk_rows, step, ranged, data):
    """One to three blocks of a series with any increments (a zero prefix
    included) and any estimates, on a range grid or an array grid, cut at
    any bound."""
    n = data.draw(st.integers(1, 3 * chunk_rows))
    rows = data.draw(st.lists(st.tuples(st.integers(0, 5), ANY_FLOATS), min_size=n, max_size=n))
    upto = data.draw(st.none() | st.integers(0, 2 + n * step + 2))
    grid = range(2, 2 + n * step, step)
    actual = np.cumsum([r[0] for r in rows], dtype=np.int64)
    est = np.array([r[1] for r in rows], dtype=np.float64)
    ser = CountSeries(grid if ranged else np.array(grid), actual, lambda v: est[(v - 2) // step])
    # values alone are compared: the oracle's rows() also computes the ratio,
    # which overflows for subnormal estimates, and inf - inf sums warn in both
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(analysis, "CHUNK_ROWS", chunk_rows)
        assert outcome(mape, ser, upto) == outcome(oracle_mape, ser, upto)
        assert find_crossover(ser) == oracle_find_crossover(ser)


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
        census = gaussian_census(n, "both-axes")
        tracemalloc.start()
        try:
            mape(build_series(census))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10**6), peak(8 * 10**6)
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
        ser, former = script.thin(census), oracle_thin(census)
        assert np.array_equal(ser.x, former.x), d
        assert np.array_equal(ser.actual, former.actual), d
        assert ser.metadata == former.metadata and ser.estimator is None
        assert fit_model(ser) == fit_model(former), d


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


def series_read_back(ser, tmp_path):
    path = tmp_path / "series.csv"
    write_csv(ser, path)
    return read_series_csv(path)


def synthetic_series(zeros, n):
    """x = 1 to n, counts 1 + floor(x / ln(x + 2)) except the first `zeros`, which are 0."""
    xs = np.arange(1, n + 1, dtype=np.int64)
    actual = 1 + np.floor(xs / np.log(xs + 2)).astype(np.int64)
    actual[:zeros] = 0
    return CountSeries(xs, actual)


FIT_SERIES = {
    # the golden fit commands
    "classical-20000": lambda _: build_series(classical_census(20000)),
    "monoid-d3-5000": lambda _: build_series(monoid_census(MonoidParams(3, 5000))),
    "gauss-10000": lambda _: build_series(gaussian_census(10000, "both-axes")),
    "quad-d5-norm-ball-3000": lambda _: build_series(quad_census(5, RegionSpec("norm-ball", 3000))),
    "quad-d6-euclidean-2000": lambda _: build_series(
        quad_census(6, RegionSpec("euclidean-ball", 2000))
    ),
    "monoid-d7-100000": lambda _: build_series(monoid_census(MonoidParams(7, 100000))),
    "from-csv": lambda tmp: series_read_back(
        build_series(gaussian_census(20000, "both-axes")), tmp
    ),
    "quad-growth-thin": lambda _: quad_growth().thin(quad_census(5, RegionSpec("norm-ball", 50000))),
    "zeros-and-x-below-3": lambda _: synthetic_series(6, 300),  # the zeros set the start
    "x-below-3": lambda _: synthetic_series(0, 300),  # x >= 3 sets the start
    "exactly-8-points": lambda _: synthetic_series(3, 11),
    # the benchmark's classical fit: its two best candidates of the last bracket
    # round lie 7e-16 apart in squared error, inside the screen's margin, so
    # the exact step decides between them
    "classical-1000000": lambda _: build_series(classical_census(1_000_000)),
}


@pytest.mark.parametrize("name", sorted(FIT_SERIES))
def test_fit_model_matches_oracle_bit_for_bit(tmp_path, name):
    ser = FIT_SERIES[name](tmp_path)
    assert fit_model(ser) == oracle_fit_model(ser)


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
def test_fit_model_matches_oracle_on_synthetic_series(c0, e0, noise, zeros, n, decades, seed):
    """Noisy model counts c0 * x / (ln x)^e0 with leading zeros, on up to
    3,000 points spread over up to four more decades than points."""
    xs = np.unique(np.geomspace(1, n * 10**decades, n).astype(np.int64))
    model = c0 * xs / np.log(np.maximum(xs, 2)) ** e0
    noisy = model * (1 + noise * np.random.default_rng(seed).standard_normal(xs.size))
    actual = np.maximum.accumulate(np.maximum(np.round(noisy), 0).astype(np.int64))
    actual[:zeros] = 0
    ser = CountSeries(xs, actual)
    try:
        expected = oracle_fit_model(ser)
    except ValueError:
        with pytest.raises(ValueError):
            fit_model(ser)
    else:
        assert fit_model(ser) == expected


def screen_through(monkeypatch, hook):
    """Make each screened round of fit_model return
    hook(base, log_ln_x, cand, rms2, scale) in place of (rms2, scale)."""
    screen = analysis._moment_screen

    def hooked(base, log_ln_x, work):
        screened = screen(base, log_ln_x, work)
        return lambda cand: hook(base, log_ln_x, cand, *screened(cand))

    monkeypatch.setattr(analysis, "_moment_screen", hooked)


@pytest.mark.parametrize("name", sorted(FIT_SERIES))
def test_fit_screen_error_is_a_hundredth_of_its_margin(tmp_path, monkeypatch, name):
    """Every e the search screens has a screened squared error within
    _TAU / 100 of its scale of the exact one, so the margin that decides
    which candidates are evaluated exactly keeps a 100-fold headroom."""
    errors = []

    def record(base, log_ln_x, cand, rms2, scale):
        for e, r2, s in zip(cand.tolist(), rms2, scale):
            errors.append(abs(r2 - oracle_squared_error(base, log_ln_x, e)[1]) / s)
        return rms2, scale

    screen_through(monkeypatch, record)
    fit_model(FIT_SERIES[name](tmp_path))
    assert len(errors) > 101 and max(errors) <= analysis._TAU / 100, max(errors)


@pytest.mark.parametrize("name", sorted(FIT_SERIES))
def test_fit_model_is_exact_for_any_screen_error_within_the_margin(tmp_path, monkeypatch, name):
    """The exact step, not the screen's accuracy, picks each round's best:
    with every screened squared error moved by up to _TAU / 2 of its scale,
    the fit is still the oracle's to the last bit."""
    rng = np.random.default_rng(0)

    def shake(base, log_ln_x, cand, rms2, scale):
        return rms2 + rng.uniform(-0.5, 0.5, cand.size) * analysis._TAU * scale, scale

    screen_through(monkeypatch, shake)
    ser = FIT_SERIES[name](tmp_path)
    assert fit_model(ser) == oracle_fit_model(ser)


def test_fit_model_memory_is_three_arrays(tmp_path):
    census = gaussian_census(10**6, "both-axes")
    ranged = build_series(census)
    assert isinstance(ranged.grid, range) and len(ranged) > 10**6 - 10
    for ser in (ranged, ranged.take(np.arange(len(ranged))), series_read_back(ranged, tmp_path)):
        tracemalloc.start()
        try:
            fit_model(ser)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * len(ser) + 64 * 1024, (type(ser.grid), peak / len(ser))


def test_fit_from_csv_memory_is_two_columns_and_one_block(tmp_path):
    """read_series_csv makes x and actual once, 16 bytes a row, and holds
    besides them only one block's lines and parsed rows, whatever the row
    count; the fit then adds its three arrays, 24 bytes a row."""
    path = tmp_path / "series.csv"
    write_csv(build_series(gaussian_census(10**6, "both-axes")), path)
    tracemalloc.start()
    try:
        ser = read_series_csv(path)
        held, read_peak = tracemalloc.get_traced_memory()
        fit_model(ser)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(ser)
    assert n > 10**6 - 10
    assert ser.x.nbytes + ser.actual.nbytes == 16 * n
    assert held <= 16 * n + 64 * 1024, held / n
    # about 10 bytes a block character: the text read, its lines and their parsed rows
    block = 12 * report._READ_BLOCK_CHARS
    assert read_peak <= 16 * n + block, (read_peak - 16 * n) / report._READ_BLOCK_CHARS
    assert peak <= 40 * n + 64 * 1024, peak / n
