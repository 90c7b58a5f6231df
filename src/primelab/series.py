"""Evaluation series over censuses: ratios, MAPE, crossover points, model fits.

A CountSeries is a view over a census: its points, the actual count at each
and the estimator; build_series makes one from any census, whose own
``estimate`` is the estimator.  The derived columns (estimate, ratio,
pct_err) are read through rows() and blocks(), computed for those rows
alone: CHUNK_ROWS rows at a time for the statistics and the writers, the
drawn rows for a chart; only a series read from a CSV stores them.
Points where no percentage error is defined (actual = 0, or a census with
no estimate) carry NaN in the derived columns; statistics skip them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

Estimator = Callable[[np.ndarray], np.ndarray]

# rows per block when a series is streamed
CHUNK_ROWS = 1 << 16

_C_BOUNDS = (1e-3, 10.0)
_E_BOUNDS = (-2.0, 3.0)


@dataclass(frozen=True)
class CountSeries:
    """Ordered evaluation points (x, actual), and (estimate, ratio, pct_err)
    derived from the estimator, which maps int64 points to one estimate each.

    ``grid`` is a range for a census's change grid: never built whole, it is
    increasing by construction and its counts are a view of the census's
    ``cumulative``, so only its step is checked.  Otherwise it is an
    int64 array.  The order of ``actual`` is checked for both kinds, one
    block at a time.  ``columns`` holds (estimate, ratio, pct_err) as read
    from a CSV.
    """

    grid: range | np.ndarray
    actual: np.ndarray  # nondecreasing
    estimator: Estimator | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        n = len(self.grid)
        if len(self.actual) != n or any(len(col) != n for col in self.columns or ()):
            raise ValueError("series columns must have equal length")
        grid = self.grid
        increasing = grid.step >= 1 if isinstance(grid, range) else _in_order(grid, np.greater)
        if not increasing:
            raise ValueError("x must be strictly increasing")
        if not _in_order(self.actual, np.greater_equal):
            raise ValueError("actual must be nondecreasing")

    def __len__(self) -> int:
        return len(self.grid)

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.metadata.items())

    @property
    def x(self) -> np.ndarray:
        return _points(self.grid)

    def rows(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, ...]:
        """x, actual, estimate, ratio and pct_err of rows lo to hi, with the
        derived columns computed for those rows alone."""
        x, actual = _points(self.grid[lo:hi]), self.actual[lo:hi]
        if self.columns is not None:
            return (x, actual, *(col[lo:hi] for col in self.columns))
        estimator = self.estimator or (lambda xs: np.full(xs.shape, np.nan))
        est = np.asarray(estimator(x), dtype=np.float64)
        if est.shape != x.shape:
            raise ValueError("the estimator must return one value per point")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = actual / est
            pct = np.where(
                actual >= 1,
                100.0 * np.abs(actual - est) / np.where(actual >= 1, actual, 1),
                np.nan,
            )
        return x, actual, est, ratio, pct

    def blocks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """rows() of each run of CHUNK_ROWS rows, in order."""
        return (self.rows(lo, lo + CHUNK_ROWS) for lo in range(0, len(self), CHUNK_ROWS))

    def take(self, idx: np.ndarray) -> CountSeries:
        """The rows at the ascending positions idx, as a series of their own."""
        grid = self.grid
        x = grid.start + idx * grid.step if isinstance(grid, range) else grid[idx]
        columns = None if self.columns is None else tuple(col[idx] for col in self.columns)
        return CountSeries(x, self.actual[idx], self.estimator, self.metadata, columns)


def _in_order(a: np.ndarray, follows: np.ufunc) -> bool:
    """Whether follows(a[i + 1], a[i]) holds for every i, checked CHUNK_ROWS
    pairs at a time so that no temporary grows with the length of a."""
    for lo in range(0, len(a) - 1, CHUNK_ROWS):
        block = a[lo : lo + CHUNK_ROWS + 1]
        if not follows(block[1:], block[:-1]).all():
            return False
    return True


def _points(grid: range | np.ndarray) -> np.ndarray:
    if isinstance(grid, range):
        return np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    return grid


def _first_nonzero(actual: np.ndarray) -> int:
    """Index of the first count >= 1 in nondecreasing counts (len if none)."""
    return int(np.searchsorted(actual, actual.dtype.type(1)))  # a 1 of their dtype: no cast


def build_series(census, grid=None) -> CountSeries:
    """Evaluate a census against its own estimate on a grid: given integer
    points (copied as int64 and checked for order), or by default every point
    where the count can change, as a view of the census's counts (for a
    census with an estimate, starting at the first nonzero count, since the
    estimates are undefined at x <= 1)."""
    if grid is not None:
        actual = census.counts_at(grid).astype(np.int64)  # rejects non-integer points
        if actual.size == 0:
            raise ValueError("series grid is empty")
        xs = np.array(grid, dtype=np.int64)  # a copy, so freezing never hits caller arrays
        xs.setflags(write=False)
        actual.setflags(write=False)
        return CountSeries(xs, actual, census.estimate, census.describe())
    grid, actual = census.change_grid(), census.cumulative
    if census.estimate is not None:
        first = _first_nonzero(actual)
        if first == actual.size:
            raise ValueError("census holds no primes; no default grid exists")
        grid, actual = grid[first:], actual[first:]
    return CountSeries(grid, actual, census.estimate, census.describe())


def ratio_R(actual: int, estimate: float) -> float:
    """Normalized accuracy ratio actual/estimate."""
    if estimate <= 0:
        raise ValueError(f"estimate must be > 0, got {estimate}")
    if actual < 0:
        raise ValueError(f"actual must be >= 0, got {actual}")
    return actual / estimate


def mape(series: CountSeries, upto: int | None = None) -> float:
    """Mean absolute percentage error over the points that carry an error
    value (only those with x <= upto, when given), one block at a time."""
    sums, count = [], 0
    for x, _, _, _, pct in series.blocks():
        if upto is not None:
            if x[0] > upto:
                break
            pct = pct[: np.searchsorted(x, upto, side="right")]
        valid = pct[~np.isnan(pct)]
        sums.append(valid.sum())
        count += valid.size
    if count == 0:
        raise ValueError("series has no points with a defined percentage error")
    return math.fsum(sums) / count


def find_crossover(series: CountSeries) -> int | None:
    """Smallest grid x after which estimate >= actual holds to the end.

    Implemented as the point following the last index where actual exceeds
    the estimate, among the points with an estimate; None when the estimate
    is above the actual count on the whole grid or still below it at the end.
    """
    crossover, above_seen = None, False
    for x, actual, est, _, _ in series.blocks():
        defined = ~np.isnan(est)
        x, above = x[defined], np.flatnonzero(actual[defined] - est[defined] > 0)
        if above.size:
            after = above[-1] + 1
            crossover, above_seen = (int(x[after]) if after < x.size else None), True
        elif above_seen and crossover is None and x.size:
            crossover = int(x[0])  # the first point after a block that ended above
    return crossover


@dataclass(frozen=True)
class FitResult:
    """Best parameters for the model count(x) = c * x / (ln x)^e."""

    c: float
    e: float
    rms_rel_err: float


def fit_model(series: CountSeries) -> FitResult:
    """Fit c * x / (ln x)^e to the actual counts, minimizing RMS relative error.

    Deterministic: for each e the best c in [1e-3, 10] has a closed form, so
    the search is over e alone: a coarse scan of 101 points in [-2, 3], then
    a shrinking bracket around the best of them.

    The fitted points (actual >= 1 and x >= 3) are a suffix of the series,
    since x increases and actual never decreases.  The search holds three
    float64 arrays of that length: x/actual, ln ln x, and one work buffer
    that each evaluation of the objective overwrites in place.  The
    objective is evaluated once per distinct e.
    """
    x, actual = series.x, series.actual
    first = max(_first_nonzero(actual), int(np.searchsorted(x, 3)))
    if len(x) - first < 8:
        raise ValueError("need at least 8 points with actual >= 1 and x >= 3")
    log_ln_x = x[first:].astype(np.float64)  # x, then ln x, then ln ln x, in place
    del x  # for a range grid, the points were built just for this
    base = np.true_divide(log_ln_x, actual[first:])
    np.log(log_ln_x, out=log_ln_x)
    np.log(log_ln_x, out=log_ln_x)
    u = np.empty_like(base)

    @functools.cache
    def profiled(e: float) -> tuple[float, float]:
        """Best in-bounds c at this e and the resulting RMS relative error."""
        np.multiply(log_ln_x, -e, out=u)
        np.exp(u, out=u)
        np.multiply(u, base, out=u)  # model(x; c=1, e) / actual
        m1 = float(u.mean())
        np.multiply(u, u, out=u)
        m2 = float(u.mean())
        c = min(max(m1 / m2, _C_BOUNDS[0]), _C_BOUNDS[1])
        return c, math.sqrt(max(c * c * m2 - 2.0 * c * m1 + 1.0, 0.0))

    e_grid = np.linspace(_E_BOUNDS[0], _E_BOUNDS[1], 101)
    e = float(e_grid[int(np.argmin([profiled(float(e))[1] for e in e_grid]))])
    span = float(e_grid[1] - e_grid[0])
    for _ in range(80):
        lo = max(e - span, _E_BOUNDS[0])
        hi = min(e + span, _E_BOUNDS[1])
        cand = np.linspace(lo, hi, 21)
        scores = [profiled(float(ec))[1] for ec in cand]
        j = int(np.argmin(scores))
        e = float(cand[j])
        if 0 < j < len(cand) - 1:
            span /= 5.0  # interior minimum: tighten the bracket
        if span < 1e-5 * max(1.0, abs(e)):
            break
    c, rms = profiled(e)
    return FitResult(c=c, e=e, rms_rel_err=rms)
