"""Evaluation series over censuses: ratios, MAPE, crossover points, model fits.

A series compares a census's counts on its change grid with the census's
own ``estimate``, which is defined for x > 1 alone.  The censuses that
have one (monoid, Gaussian) start their grids past the unit, at a point
that is always prime, so a series is its census, row for row.

A Series is a length, a stream of blocks of points and their increments
(the number each point adds to the count), read once, and a label: its
census's describe(), which a fit's line and a chart's title print.  It
comes from one of three sources:

- stream_series(census): the census's increment_blocks() as they are,
  each block its points and the sieve's weighted flags or the quadratic
  census's bincounts, so a pass holds one block, never a count per point
  (sieve.py, quadratic.py).
- report.read_series_csv: the points and counts of a series CSV, parsed
  during the pass and handed on COUNT_BLOCK rows at a time, labelled
  source=csv.
- scripts/quad_growth.thin: chosen points of a quadratic census and their
  counts, in COUNT_BLOCK slices (sieve.count_blocks).

The last two hold counts, which reach the series through increments(),
each count less the one before it: exact for integers.

Every statistic is a reducer, and scan(series, *reducers) feeds all of a
command's reducers in the series' one pass, block by block: Total, Mape
(at several bounds at once), Crossover, and in the report layer the
series CSV writer and the chart.  find_crossover and fit_model are
one-reducer passes; fit_model's reducer, FitMoments, sums binned moments,
so the fit too holds no array per point.  A Block carries its increments
and the count before its first row; what its readers need of the rest is
computed the first time one reads it, for its own rows alone: its runs
(the rows where the count changes, and the counts there), which Total,
Mape and the chart read, and its counts (``actual``, the running sum),
its estimate and its pct_err, which Crossover, FitMoments, the series CSV
writer and a per-point Mape read.  So a pass computes only what its
reducers read.

Mape sums a block per run of rows with one count A when the series'
estimate carries a run sum (``estimate_sum``, a census's closed form of
the estimate f summed over n grid points: the Gaussian census's alone),
the block starts at RUN_SUM_START or later and it has at most one run per
RUN_SUM_SPACING rows: a run of n rows adds |n A - sum f| * 100 / A.  A run
where f crosses A goes per point, as does every other block.  Points where no percentage error is
defined (actual = 0, or a series with no estimator) carry NaN in the
derived columns; statistics skip them.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

Estimator = Callable[[np.ndarray], np.ndarray]
RunSum = Callable[[np.ndarray, np.ndarray], np.ndarray]

_C_BOUNDS = (1e-3, 10.0)
_E_BOUNDS = (-2.0, 3.0)

# A block of a series with a run sum is summed per run when its first point
# is at least this: the gauss MAPEs at 10^6 and 10^7, at four bounds each and
# in blocks of 4,099 and 2^16 rows, kept every bit of the per-point sum from
# here on, but 5 of the 16 moved a unit in the last place with blocks
# summed per run from x = 2, and 2 of them from 2^14.  A run's closed-form
# sum and its per-point sum round differently, so the same bits hold on the
# censuses checked (gauss 10^6, 10^7, 2*10^7 and 10^8), not on every input:
# elsewhere the two may differ in the last bits.
RUN_SUM_START = 1 << 16
# ... and when it has at most one run per this many rows: against its
# per-point sum, a block took 0.46 of the time per run at 0.029 runs a row
# (the Gaussian census at 10^8), 0.90 at 0.115, 1.38 at 0.23 and 3.0 at
# 0.50 (the densities of the d = 2, 3 and 7 monoids' blocks at 10^8).
RUN_SUM_SPACING = 8

_NO_PRIMES = "census holds no primes; no point to compare with its estimate"


class Block:
    """A run of rows of a series, at ``points``, with ``increments``, the
    number each row adds to the count, and ``before``, the count before its
    first row: its runs, counts, x, estimate and pct_err are each computed
    for these rows alone when first read."""

    def __init__(self, points: range | np.ndarray, increments: np.ndarray, before: int,
                 estimator: Estimator | None, estimate_sum: RunSum | None = None) -> None:
        self.points, self.increments, self.before = points, increments, before
        self._estimator, self._estimate_sum = estimator, estimate_sum

    def __len__(self) -> int:
        return len(self.increments)

    @functools.cached_property
    def actual(self) -> np.ndarray:
        """The count at each row: the running sum of the increments."""
        actual = self.increments.copy()
        actual[0] += self.before
        np.cumsum(actual, out=actual)
        actual.setflags(write=False)
        return actual

    @functools.cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first row of each run of rows with one count, from row 0, and
        that count (int64)."""
        opens = self.increments != 0  # a bool mask: nonzero of an int array is slower
        opens[0] = True
        starts = np.flatnonzero(opens)
        counts = np.cumsum(self.increments[starts], dtype=np.int64)
        counts += self.before
        return starts, counts

    @property
    def last(self) -> int:
        """The count at the last row, from the counts or runs when read."""
        if "actual" in self.__dict__:
            return int(self.actual[-1])
        if "runs" in self.__dict__:
            return int(self.runs[1][-1])
        return self.before + int(self.increments.sum())

    def counts_at(self, rows: np.ndarray) -> np.ndarray:
        """The counts at rows, an increasing int64 array: from the counts when
        read, else from the runs."""
        if "actual" in self.__dict__:
            return self.actual[rows]
        starts, counts = self.runs
        return counts[np.searchsorted(starts, rows, side="right") - 1]

    @functools.cached_property
    def x(self) -> np.ndarray:
        return _points(self.points)

    @functools.cached_property
    def est(self) -> np.ndarray:
        """The estimator's values at x (NaN for a series with no estimator)."""
        return _estimates(self._estimator, self.x)

    @functools.cached_property
    def pct_err(self) -> np.ndarray:
        return _pct_err(self.actual, self.est)

    @functools.cached_property
    def by_runs(self) -> bool:
        """Whether Mape sums this block per run: its series has a run sum,
        its points are a range from RUN_SUM_START on, and it has at most one
        run per RUN_SUM_SPACING rows."""
        return (self._estimate_sum is not None and isinstance(self.points, range)
                and self.points.start >= RUN_SUM_START
                and np.count_nonzero(self.increments) * RUN_SUM_SPACING <= len(self))

    def columns(self) -> tuple[np.ndarray, ...]:
        """x, actual, estimate, ratio and pct_err."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = self.actual / self.est
        return self.x, self.actual, self.est, ratio, self.pct_err


class Series:
    """A series: ``length``, its number of rows; ``blocks``, its rows as
    (points, increments) runs in order from row 0, read once, the points
    increasing (a range, or an int64 array) and the increments, the number
    each point adds to the count from 0, nonnegative; ``estimator``, which
    maps int64 points to one estimate each (None: NaN at every point);
    ``label``, the census's describe() that a fit's line and a chart's title
    print; and ``estimate_sum``, the estimator's sum over runs of grid
    points (None: Mape sums per point).  Making one reads no block, and
    scan feeds each block to the reducers as it comes: scan it with every
    reducer, since a second pass raises RuntimeError."""

    def __init__(self, length: int, blocks: Iterable[tuple[range | np.ndarray, np.ndarray]],
                 estimator: Estimator | None = None, label: str = "",
                 estimate_sum: RunSum | None = None) -> None:
        self._length, self.estimator, self.label = length, estimator, label
        self.estimate_sum, self._blocks_left = estimate_sum, blocks

    def __len__(self) -> int:
        return self._length

    def _blocks(self) -> Iterator[Block]:
        blocks, self._blocks_left = self._blocks_left, None
        if blocks is None:
            raise RuntimeError("a streamed series is read once; scan it with every reducer")
        before = 0
        for points, increments in blocks:
            block = Block(points, increments, before, self.estimator, self.estimate_sum)
            yield block
            before = block.last


def increments(blocks):
    """Blocks (points, counts) of nondecreasing counts from 0 as a Series
    takes them, (points, increments): each count less the one before it,
    the first block's first less 0.  Exact for integers."""
    before = 0
    for points, counts in blocks:
        step = np.diff(counts, prepend=counts.dtype.type(before))
        before = counts[-1]
        yield points, step


def _points(grid: range | np.ndarray) -> np.ndarray:
    if isinstance(grid, range):
        return np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    return grid


def _points_at(points: range | np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The points at the positions idx, an int64 array."""
    return points.start + idx * points.step if isinstance(points, range) else points[idx]


def _estimates(estimator: Estimator | None, x: np.ndarray) -> np.ndarray:
    """The estimator's values at the points x, float64 (NaN with no estimator)."""
    if estimator is None:
        return np.full(x.shape, np.nan)
    est = np.asarray(estimator(x), dtype=np.float64)
    if est.shape != x.shape:
        raise ValueError("the estimator must return one value per point")
    return est


def _pct_err(actual: np.ndarray, est: np.ndarray) -> np.ndarray:
    """100 |actual - est| / actual, in one new array; NaN where actual < 1,
    a prefix, since actual never decreases."""
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = actual - est
        np.abs(pct, out=pct)
        pct *= 100.0
        pct /= actual
    pct[: _first_nonzero(actual)] = np.nan
    return pct


def _first_nonzero(actual: np.ndarray) -> int:
    """Index of the first count >= 1 in nondecreasing counts (len if none)."""
    return int(np.searchsorted(actual, actual.dtype.type(1)))  # a 1 of their dtype: no cast


def stream_series(census) -> Series:
    """A census's series, its increment_blocks(), its estimate and its run
    sum as they are, so a pass holds what the census's blocks hold; a census
    with an estimate and no point raises ValueError."""
    grid = census.change_grid()
    if census.estimate is not None and not grid:
        raise ValueError(_NO_PRIMES)
    return Series(len(grid), census.increment_blocks(), census.estimate, census.describe(),
                  census.estimate_sum)


def scan(series: Series, *reducers) -> None:
    """Feed each block of the series, in order, to every reducer: one pass."""
    for block in series._blocks():
        for reducer in reducers:
            reducer.feed(block)


def ratio_R(actual: int, estimate: float) -> float:
    """Normalized accuracy ratio actual/estimate."""
    if estimate <= 0:
        raise ValueError(f"estimate must be > 0, got {estimate}")
    if actual < 0:
        raise ValueError(f"actual must be >= 0, got {actual}")
    return actual / estimate


class Total:
    """The count at the last row: the census's total, for a census's series.
    It keeps the last block fed and reads its count when asked, once the
    pass's other readers have summed what they need of it."""

    _block: Block | None = None

    def feed(self, block: Block) -> None:
        self._block = block

    @property
    def value(self) -> int | None:
        return None if self._block is None else self._block.last


class Mape:
    """Mean absolute percentage error over the points that carry an error
    value, with x <= upto for each of ``bounds`` (None: every point).

    A block's sum of pct_err is shared by every bound past it; a bound that
    ends inside a block sums that block's rows up to it alone.  Each block
    is summed per run or per point (_error_sum)."""

    def __init__(self, bounds=(None,)) -> None:
        self._bounds = list(bounds)
        self._parts = [[] for _ in self._bounds]  # (sum, count) of each bound's rows per block

    def feed(self, block: Block) -> None:
        whole = None
        for upto, parts in zip(self._bounds, self._parts):
            stop = len(block) if upto is None else bisect.bisect_right(block.points, upto)
            if stop == len(block):
                if whole is None:
                    whole = _error_sum(block, stop)
                parts.append(whole)
            elif stop > 0:
                parts.append(_error_sum(block, stop))

    def result(self) -> list[float]:
        """The MAPE at each bound, in order."""
        out = []
        for parts in self._parts:
            count = sum(count for _, count in parts)
            if count == 0:
                raise ValueError("series has no points with a defined percentage error")
            out.append(math.fsum(total for total, _ in parts) / count)
        return out


def _error_sum(block: Block, stop: int) -> tuple[float, int]:
    """The sum and the number of the defined pct_err of the block's rows
    before stop: per run where the block is summed so (Block.by_runs), a
    run of n rows at count A >= 1 adding |n A - sum f| * 100 / A, with
    sum f the series' run sum of the estimate f; per point elsewhere, and
    for a run where f crosses A (f(first) < A < f(last)).  The run sum's
    first term left out is below 1e-5 (span/midpoint)^6 of it, and the
    Gaussian census's widest run past RUN_SUM_START spans 1/553 of its
    midpoint (144 norms from 78,989, to 10^8)."""
    if not block.by_runs:
        return _defined_sum(block.pct_err[:stop])
    starts, counts = block.runs
    k = int(np.searchsorted(starts, stop))  # the runs that start before stop
    starts, counts = starts[:k], counts[:k]
    n = np.diff(starts, append=stop)
    step = block.points.step
    first = block.points.start + starts * step
    last = first + (n - 1) * step
    count = counts.astype(np.float64)
    estimate = block._estimator
    f_first, f_last = np.split(estimate(np.concatenate((first, last))), 2)
    mid = (first + last) / 2.0
    summed = (counts >= 1) & ~((f_first < count) & (count < f_last))
    n_summed, count_summed = n[summed].astype(np.float64), count[summed]
    terms = n_summed * count_summed
    terms -= block._estimate_sum(mid[summed], n_summed)
    np.abs(terms, out=terms)
    terms *= 100.0
    terms /= count_summed
    total, rows = terms.sum(), int(n[summed].sum())
    for j in np.flatnonzero((counts >= 1) & ~summed).tolist():  # the runs summed per point
        at = np.arange(starts[j], starts[j] + n[j])
        pct = _pct_err(np.full(at.size, counts[j]), estimate(_points_at(block.points, at)))
        total += pct.sum()
        rows += pct.size
    return total, rows


def _defined_sum(pct: np.ndarray) -> tuple[float, int]:
    """The sum and the number of the values of pct that are not NaN."""
    total = pct.sum()
    if math.isnan(total):  # the block has points without an error value
        pct = pct[~np.isnan(pct)]
        total = pct.sum()
    return total, pct.size


class Crossover:
    """Smallest grid x after which estimate >= actual holds to the end.

    Implemented as the point following the last index where actual exceeds
    the estimate, among the points with an estimate; None when the estimate
    is above the actual count on the whole grid or still below it at the end.
    Reads x, actual and the estimate alone.
    """

    def __init__(self) -> None:
        self.value, self._above_seen = None, False

    def feed(self, block: Block) -> None:
        x, actual, est = block.x, block.actual, block.est
        undefined = np.isnan(est)
        if undefined.any():
            defined = ~undefined
            x, actual, est = x[defined], actual[defined], est[defined]
        above = np.flatnonzero(actual - est > 0)
        if above.size:
            after = above[-1] + 1
            self.value, self._above_seen = (int(x[after]) if after < x.size else None), True
        elif self._above_seen and self.value is None and x.size:
            self.value = int(x[0])  # the first point after a block that ended above


def find_crossover(series: Series) -> int | None:
    """Smallest grid x after which estimate >= actual holds to the end (see
    Crossover): a pass of one Crossover."""
    crossover = Crossover()
    scan(series, crossover)
    return crossover.value


@dataclass(frozen=True)
class FitResult:
    """Best parameters for the model count(x) = c * x / (ln x)^e."""

    c: float
    e: float
    rms_rel_err: float


def fit_model(series: Series) -> FitResult:
    """Fit c * x / (ln x)^e to the actual counts, minimizing RMS relative error.

    Deterministic: for each e the best c in [1e-3, 10] has a closed form, so
    the search is over e alone: a coarse scan of 101 points in [-2, 3], then
    a shrinking bracket of 21 points around the best of them, each round
    taking the first candidate of least RMS error.  Each candidate, and the
    c and the error at the e chosen, is evaluated from the binned moments
    that one pass of the series sums (FitMoments), at a cost independent of
    the number of points.
    """
    moments = FitMoments()
    scan(series, moments)
    if moments.n < 8:
        raise ValueError("need at least 8 points with actual >= 1 and x >= 3")

    def best(cand: np.ndarray) -> int:
        """Index of the first candidate of least RMS error."""
        return int(np.argmin(moments.squared_errors(cand)[1]))

    e_grid = np.linspace(_E_BOUNDS[0], _E_BOUNDS[1], 101)
    e = float(e_grid[best(e_grid)])
    span = float(e_grid[1] - e_grid[0])
    for _ in range(80):
        lo = max(e - span, _E_BOUNDS[0])
        hi = min(e + span, _E_BOUNDS[1])
        cand = np.linspace(lo, hi, 21)
        j = best(cand)
        e = float(cand[j])
        if 0 < j < len(cand) - 1:
            span /= 5.0  # interior minimum: tighten the bracket
        if span < 1e-5 * max(1.0, abs(e)):
            break
    c, rms2 = moments.squared_errors(np.array([e]))
    return FitResult(c=float(c[0]), e=e, rms_rel_err=math.sqrt(rms2[0]))


# bins of ln ln x: centres k/16, so e * centre is exact once e is cut to 46
# bits; with 13 Taylor terms the truncation is below 1e-19 relative
_BIN_WIDTH = 1.0 / 16.0
_TERMS = 13


class FitMoments:
    """fit_model's reducer: moments of b = x/actual over the fitted rows
    (actual >= 1 and x >= 3, a suffix of the series, since x increases and
    actual never decreases), binned by L = ln ln x.

    Bin k holds the rows whose L is nearest its centre k * _BIN_WIDTH, and
    with d = L - centre (exact, by Sterbenz) it sums b d^j and b^2 d^j for
    j below _TERMS.  A block adds its rows' sums to their bins, opening the
    bins past the last one as L grows; so the pass holds one block's
    columns, and n and the sums alone give, for each e,

        mean(b e^(-eL))     = sum_k e^(-e centre_k) sum_j (-e)^j/j! S1[j, k] / n
        mean(b^2 e^(-2eL))  = sum_k e^(-2e centre_k) sum_j (-2e)^j/j! S2[j, k] / n

    where e^(-e centre) is taken as e^(-e_hi centre) (1 - e_lo centre) with
    e_hi * centre exact.
    """

    def __init__(self) -> None:
        self.n = 0
        self._sums = np.zeros((2, _TERMS, 0))  # S1 and S2 of bins 0, 1, ...

    def feed(self, block: Block) -> None:
        x, actual = block.x, block.actual
        start = max(_first_nonzero(actual), int(np.searchsorted(x, 3)))
        if start == len(block):
            return
        d = x[start:].astype(np.float64)  # x, then ln x, ln ln x and L - centre
        base = d / actual[start:]
        np.log(d, out=d)
        np.log(d, out=d)
        k = np.rint(d / _BIN_WIDTH)
        d -= k * _BIN_WIDTH
        k = k.astype(np.intp)
        runs = np.flatnonzero(np.diff(k, prepend=-1))  # first row of each bin's run
        bins = self._sums.shape[2]
        if k[-1] >= bins:  # open the bins up to this block's last
            self._sums = np.pad(self._sums, ((0, 0), (0, 0), (0, k[-1] + 1 - bins)))
        per_run = np.empty((2, _TERMS, runs.size))
        w = base.copy()
        for j in range(_TERMS):
            per_run[0, j] = np.add.reduceat(w, runs)  # b d^j
            per_run[1, j] = np.add.reduceat(w * base, runs)  # b^2 d^j
            w *= d
        np.add.at(self._sums, (slice(None), slice(None), k[runs]), per_run)
        self.n += base.size

    def squared_errors(self, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each candidate e, the best c in [1e-3, 10] and the squared RMS
        relative error it leaves, max(c^2 m2 - 2c m1 + 1, 0)."""
        e = cand[:, None]
        e_hi = e * 129.0
        e_hi -= e_hi - e  # Veltkamp: e to 46 bits
        e_lo = e - e_hi
        centres = np.arange(self._sums.shape[2]) * _BIN_WIDTH
        powers = np.arange(_TERMS)
        inv_factorial = np.array([1.0 / math.factorial(j) for j in powers.tolist()])
        taylor = np.power(-e, powers) * inv_factorial  # (-e)^j / j!
        per_bin = taylor @ self._sums[0]
        per_bin *= np.exp(-e_hi * centres)
        per_bin *= 1.0 - e_lo * centres
        m1 = per_bin.sum(axis=1) / self.n
        per_bin = (taylor * 2.0**powers) @ self._sums[1]
        per_bin *= np.exp(-2.0 * e_hi * centres)
        per_bin *= 1.0 - 2.0 * e_lo * centres
        m2 = per_bin.sum(axis=1) / self.n
        c = np.clip(m1 / m2, *_C_BOUNDS)
        return c, np.maximum(c * c * m2 - 2.0 * c * m1 + 1.0, 0.0)
