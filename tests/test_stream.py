"""The streamed pass: a census read block by block from its sieve windows
feeds every reducer of a command in one pass, and gives what the whole-array
path gives (the census's counts collected whole, each statistic and writer
in a pass of its own), whatever the window and block sizes; its memory is one
window and one block, whatever the bound."""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    build_series,
    census_total,
    eratosthenes_flags,
    oracle_find_crossover,
    oracle_gaussian_census,
    oracle_mape,
    oracle_monoid_census,
    oracle_quad_census,
    whole_counts,
    write_series_csv,
)
from primelab import (
    GaussianCensus,
    MonoidParams,
    RegionSpec,
    classical_census,
    find_crossover,
    gaussian_census,
    monoid_census,
    quad_census,
)
from primelab import cli, report, sieve
from primelab import series as analysis
from primelab.cli import run_cli


def outcome(fn, *args):
    """repr of fn(*args), or of the ValueError it raises: equal reprs of
    floats are equal bits."""
    try:
        return repr(fn(*args))
    except ValueError as err:
        return repr(err)


def oracle_counts(name, limit):
    """The counts of CENSUSES[name](limit) from the tests' own whole-array
    sieves."""
    if name == "classical":
        return np.cumsum(eratosthenes_flags(limit)[2:])
    if name == "monoid-3":
        return oracle_monoid_census(MonoidParams(3, 3 * limit))
    return oracle_gaussian_census(limit, name.removeprefix("gauss-") + "-axes")


CENSUSES = {
    "classical": classical_census,
    "gauss-both": lambda n: gaussian_census(n, "both-axes"),
    "gauss-dedupe": lambda n: gaussian_census(n, "dedupe-axes"),
    "monoid-3": lambda n: monoid_census(MonoidParams(3, 3 * n)),  # n elements
}
WINDOW_SIZES = (224, 265, 361, 1000, 4096)
# A divisor of each window size: the sieve cuts every window into whole blocks.
WINDOW_BLOCKS = {224: 7, 265: 53, 361: 19, 1000: 8, 4096: 4096}
# (window, block) pairs: block 1 and a divisor of every window, and the
# default block at the default window; then blocks that divide no window
# here (7 but at 224, 4099 and the default block), under which a census of
# more than one window is refused, and one of a single window is checked
PAIRS = sorted(
    {(window, block) for window in WINDOW_SIZES
     for block in (1, WINDOW_BLOCKS[window], 7, 4099, sieve.COUNT_BLOCK)}
    | {(sieve.SEGMENT_SIZE, sieve.COUNT_BLOCK)}
)
# the bound that cuts a series into several blocks of each size
BOUNDS = {1: 300, 7: 2000, 8: 2000, 19: 2000, 53: 2000, 4096: 20_000, 4099: 20_000,
          sieve.COUNT_BLOCK: 2 * sieve.COUNT_BLOCK + 4099}


def edge_bounds(grid, window, block):
    """upto bounds on and next to block and window edges, below the first
    point, at and past the last, and None; grid is the census's change
    grid, its series' points, whose k-th point is in the sieve's window
    k // window."""
    rows, limit = len(grid), grid.stop - 1
    bounds = {None, 1, 2, int(grid[0]) - 1, limit - 1, limit, limit + 5}
    for edge in (block, 2 * block, rows - 1):
        for r in (edge - 1, edge, edge + 1):
            if 0 <= r < rows:
                bounds.add(int(grid[r]))
    windows = (len(grid) - 1) // window  # the first, a middle and the last window edge
    for lo in {window, windows // 2 * window, windows * window} - {0}:
        if lo < len(grid):
            bounds |= {grid[lo - 1], grid[lo], grid[lo] + 1}
    return sorted(bounds, key=lambda b: -1 if b is None else b)


@pytest.mark.parametrize(("window", "block"), PAIRS)
@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_streamed_pass_equals_the_whole_array_path(tmp_path, monkeypatch, name, window, block):
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
    monkeypatch.setattr(sieve, "COUNT_BLOCK", block)
    limit = BOUNDS[block]
    if window % block and len(CENSUSES[name](limit).change_grid()) > window:
        with pytest.raises(ValueError, match="no whole number of blocks"):
            analysis.scan(analysis.stream_series(CENSUSES[name](limit)))
        limit = window + 1  # a census of window points: one window

    ser = analysis.stream_series(CENSUSES[name](limit))
    grid = CENSUSES[name](limit).change_grid()
    bounds = edge_bounds(grid, window, block)
    total, crossover = analysis.Total(), analysis.Crossover()
    per_bound = [analysis.Mape((upto,)) for upto in bounds]
    defined = [upto for upto in bounds if upto is None or upto >= grid[0]]
    shared = analysis.Mape(defined)
    csv = report.SeriesCsvWriter(tmp_path / "streamed.csv")
    chart = report.Chart(ser, tmp_path / "streamed.svg")
    analysis.scan(ser, total, crossover, shared, csv, chart, *per_bound)
    csv.finish()
    chart.finish()

    census = CENSUSES[name](limit)
    assert np.array_equal(whole_counts(census), oracle_counts(name, limit))
    whole = build_series(census)
    assert len(whole) == len(ser) == len(grid) and whole.grid == grid == census.change_grid()
    assert total.value == census_total(census)
    got = [outcome(lambda m=m: m.result()[0]) for m in per_bound]
    assert got == [outcome(oracle_mape, whole, upto) for upto in bounds]
    if name != "classical":  # no estimate: no bound has a defined error
        assert [repr(pct) for pct in shared.result()] == [
            value for upto, value in zip(bounds, got) if upto in defined
        ]
    assert crossover.value == oracle_find_crossover(whole) == find_crossover(whole.stream())
    write_series_csv(whole, tmp_path / "whole.csv")
    whole_pass = whole.stream()
    analysis.scan(whole_pass, whole_chart := report.Chart(whole_pass, tmp_path / "whole.svg"))
    whole_chart.finish()
    for artifact in ("csv", "svg"):
        streamed = (tmp_path / f"streamed.{artifact}").read_bytes()
        assert streamed == (tmp_path / f"whole.{artifact}").read_bytes(), artifact


def test_a_pass_feeds_the_census_blocks_as_they_are(monkeypatch):
    """Every block that a pass feeds its reducers is the block that the
    census's increment_blocks() yielded, its points and its increments, not
    a copy: a Gaussian census of several windows."""
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 4096)
    monkeypatch.setattr(sieve, "COUNT_BLOCK", 512)
    increment_blocks, yielded = GaussianCensus.increment_blocks, []

    def recorded(census):
        for points, counts in increment_blocks(census):
            yielded.append((points, counts))
            yield points, counts

    monkeypatch.setattr(GaussianCensus, "increment_blocks", recorded)
    fed = []

    class Recorder:
        def feed(self, block):
            points, counts = yielded[-1]
            fed.append(block.points is points and block.increments is counts
                       and len(block) == len(counts))

    ser = analysis.stream_series(gaussian_census(5 * 4096 + 100, "both-axes"))
    analysis.scan(ser, Recorder())
    assert len(fed) == len(yielded) == -(-len(ser) // 512) and all(fed)


def test_streamed_series_is_read_in_one_pass(monkeypatch):
    monkeypatch.setattr(sieve, "COUNT_BLOCK", 4099)
    ser = analysis.stream_series(gaussian_census(50_000, "both-axes"))
    streamed, whole = analysis.Mape(), analysis.Mape()
    analysis.scan(ser, streamed)
    analysis.scan(build_series(gaussian_census(50_000, "both-axes")).stream(), whole)
    assert streamed.result() == whole.result()
    with pytest.raises(RuntimeError, match="read once"):
        find_crossover(ser)


def test_streamed_quadratic_series_shares_one_buffer():
    """A quadratic census's pass hands on its increments in one buffer that
    each block overwrites, and they sum to the counts of the former sieve."""
    region = RegionSpec("norm-ball", 10**6)
    first, copies = None, []
    for block in analysis.stream_series(quad_census(2, region))._blocks():
        first = block.increments if first is None else first
        assert np.shares_memory(block.increments, first)
        copies.append(block.actual)  # summed into an array of its own
    assert len(copies) > 2
    assert np.array_equal(np.concatenate(copies), oracle_quad_census(2, region))


def test_empty_census_streams_nothing():
    with pytest.raises(ValueError, match="census holds no primes"):
        analysis.stream_series(gaussian_census(1, "both-axes"))


# the censuses of the goldens gauss-norm-limit-1, monoid-empty-census and
# monoid-limit-1: no element past the unit, so no point
EMPTY_CENSUSES = {
    "gauss-norm-limit-1": lambda: gaussian_census(1, "both-axes"),
    "monoid-empty-census": lambda: monoid_census(MonoidParams(50, 40)),
    "monoid-limit-1": lambda: monoid_census(MonoidParams(4, 1)),
}


@pytest.mark.parametrize("name", sorted(EMPTY_CENSUSES))
def test_an_empty_grid_holds_no_count(name):
    census = EMPTY_CENSUSES[name]()
    assert len(census.change_grid()) == 0 and census_total(census) == 0
    assert list(census.increment_blocks()) == []
    with pytest.raises(ValueError, match="census holds no primes"):
        analysis.stream_series(census)


def test_no_prime_lies_below_2():
    for d in (1, 4, 50):
        primes = sieve.primes_upto(1, d)
        assert primes.dtype == np.int64 and primes.size == 0
    assert sieve.primes_upto(2).tolist() == [2] and sieve.primes_upto(3).tolist() == [2, 3]


def traced_peak(argv):
    """The tracemalloc peak of one command, in bytes."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A streamed command holds one window of flags, the sieve's block of counts
# (int32), and one block's columns (at most five float64 arrays), plus 1 MB.
STREAMED_PEAK = sieve.SEGMENT_SIZE + 44 * sieve.COUNT_BLOCK + (1 << 20)


def test_gauss_memory_does_not_grow_with_the_bound(capsys):
    small = traced_peak(["gauss", "--norm-limit", str(4 * 10**6)])
    large = traced_peak(["gauss", "--norm-limit", str(2 * 10**7)])
    assert abs(large - small) < 1 << 20, (small, large)
    assert large < STREAMED_PEAK, large


def test_monoid_memory_does_not_grow_with_the_bound(capsys):
    # 4*10^6 and 2*10^7 elements of A_3, as many points as the gauss runs: a
    # census of fewer elements than a window has a smaller window
    small = traced_peak(["monoid", "--d", "3", "--limit", str(12 * 10**6)])
    large = traced_peak(["monoid", "--d", "3", "--limit", str(6 * 10**7)])
    assert abs(large - small) < 1 << 20, (small, large)
    assert large < STREAMED_PEAK, large


def test_table2_memory_does_not_grow_with_the_bound(tmp_path, capsys, monkeypatch):
    large = traced_peak(["table2", "--svg", str(tmp_path / "t2.svg")])
    monkeypatch.setattr(cli, "TABLE2_BOUNDS", (*cli.TABLE2_BOUNDS[:-1], 4 * 10**6))
    small = traced_peak(["table2", "--svg", str(tmp_path / "t2.svg")])
    assert abs(large - small) < 1 << 20, (small, large)
    assert large < STREAMED_PEAK, large
