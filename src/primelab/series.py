"""Evaluation series over censuses: ratios, MAPE, crossover points, model fits.

A CountSeries is a view over a census: its points, the actual count at each
and the estimator; build_series makes one from any census.  The derived
columns (estimate, ratio, pct_err) are computed on demand, CHUNK_ROWS rows
at a time for the statistics and the writers; only a series read from a CSV
stores them.  Points where no percentage error is defined (actual = 0, or
no estimator supplied) carry NaN in the derived columns; statistics skip
them.
"""

from __future__ import annotations

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
    int64 array.  ``columns`` holds (estimate, ratio, pct_err) as read from
    a CSV.
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
        if isinstance(self.grid, range):
            if self.grid.step < 1:
                raise ValueError("x must be strictly increasing")
        elif n > 1:
            if not np.all(np.diff(self.grid) > 0):
                raise ValueError("x must be strictly increasing")
            if not np.all(np.diff(self.actual) >= 0):
                raise ValueError("actual must be nondecreasing")

    def __len__(self) -> int:
        return len(self.grid)

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.metadata.items())

    @property
    def x(self) -> np.ndarray:
        return _points(self.grid)

    @property
    def estimate(self) -> np.ndarray:
        return self.rows()[2]

    @property
    def ratio(self) -> np.ndarray:
        return self.rows()[3]

    @property
    def pct_err(self) -> np.ndarray:
        return self.rows()[4]

    def rows(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, ...]:
        """x, actual, estimate, ratio and pct_err of rows lo to hi, with the
        derived columns computed for those rows alone."""
        x, actual = _points(self.grid[lo:hi]), self.actual[lo:hi]
        if self.columns is not None:
            return (x, actual, *(col[lo:hi] for col in self.columns))
        if self.estimator is None:
            nan = np.full(x.shape, np.nan)
            return x, actual, nan, nan, nan
        est = np.asarray(self.estimator(x), dtype=np.float64)
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


def _points(grid: range | np.ndarray) -> np.ndarray:
    if isinstance(grid, range):
        return np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    return grid


def build_series(census, estimator: Estimator | None = None, grid=None) -> CountSeries:
    """Evaluate a census on a grid: given points (copied as int64 and checked
    for order), or by default every point where the count can change, as a
    view of the census's counts (with an estimator, starting at the first
    nonzero count, since the estimates are undefined at x <= 1)."""
    if grid is not None:
        xs = np.array(grid, dtype=np.int64)  # copies, so freezing never hits caller arrays
        if xs.size == 0:
            raise ValueError("series grid is empty")
        actual = census.counts_at(xs).astype(np.int64)
        xs.setflags(write=False)
        actual.setflags(write=False)
        return CountSeries(xs, actual, estimator, census.describe())
    grid, actual = census.change_grid(), census.cumulative
    if estimator is not None:
        # actual is nondecreasing; a 1 of its own dtype keeps searchsorted from casting it
        first = int(np.searchsorted(actual, actual.dtype.type(1)))
        if first == actual.size:
            raise ValueError("census holds no primes; no default grid exists")
        grid, actual = grid[first:], actual[first:]
    return CountSeries(grid, actual, estimator, census.describe())


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

    Deterministic: a coarse mesh over c in [1e-3, 10] (log steps) and
    e in [-2, 3], then shrinking-bracket coordinate refinement of e with c
    re-optimized (within its bounds) at every candidate.
    """
    xs = series.x
    mask = (series.actual >= 1) & (xs >= 3)
    if int(mask.sum()) < 8:
        raise ValueError("need at least 8 points with actual >= 1 and x >= 3")
    x = xs[mask].astype(np.float64)
    act = series.actual[mask].astype(np.float64)
    base = x / act
    log_ln_x = np.log(np.log(x))

    def moments(e: float) -> tuple[float, float]:
        u = base * np.exp(-e * log_ln_x)  # model(x; c=1, e) / actual
        return float(u.mean()), float((u * u).mean())

    def profiled(e: float) -> tuple[float, float]:
        """Best in-bounds c at this e and the resulting RMS relative error."""
        m1, m2 = moments(e)
        c = min(max(m1 / m2, _C_BOUNDS[0]), _C_BOUNDS[1])
        return c, math.sqrt(max(c * c * m2 - 2.0 * c * m1 + 1.0, 0.0))

    e_grid = np.linspace(_E_BOUNDS[0], _E_BOUNDS[1], 101)
    c_grid = np.logspace(math.log10(_C_BOUNDS[0]), math.log10(_C_BOUNDS[1]), 81)
    best_obj2, best_e = math.inf, float(e_grid[0])
    for e in e_grid:
        m1, m2 = moments(float(e))
        obj2 = c_grid * c_grid * m2 - 2.0 * c_grid * m1 + 1.0
        j = int(np.argmin(obj2))
        if obj2[j] < best_obj2:
            best_obj2, best_e = float(obj2[j]), float(e)

    e, span = best_e, float(e_grid[1] - e_grid[0])
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
