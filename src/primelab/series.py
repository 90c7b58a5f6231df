"""Evaluation series over censuses: ratios, MAPE, crossover points, model fits.

A CountSeries is a view over a census: its points, the actual count at
each and the estimator.  build_series(census) is the one constructor from
a census: every point of its change grid, with the census's own
``estimate`` as the estimator; take() keeps a subset of those rows, and
a series read from a CSV has points and counts alone.  The derived
columns (estimate, ratio, pct_err) are never stored: they are computed
from the estimator for the rows read alone, and each reader computes
only the columns it reads: mape the estimate and pct_err, find_crossover
the estimate, CHUNK_ROWS rows at a time; the series CSV writer all
three, through blocks(), and a chart all three of the rows it draws,
through rows().  Points where no percentage error is defined (actual = 0,
or a series with no estimator) carry NaN in the derived columns;
statistics skip them.
"""

from __future__ import annotations

import bisect
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
    derived from the estimator, which maps int64 points to one estimate each
    (NaN for every point when there is none).

    ``grid`` is a range for a census's change grid: never built whole, it is
    increasing by construction and its counts are a view of the census's
    ``cumulative``, so only its step is checked.  Otherwise it is an
    int64 array.  The order of ``actual`` is checked for both kinds, one
    block at a time.
    """

    grid: range | np.ndarray
    actual: np.ndarray  # nondecreasing
    estimator: Estimator | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.actual) != len(self.grid):
            raise ValueError("x and actual must have equal length")
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
        x, actual, est = self._estimated(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = actual / est
        return x, actual, est, ratio, _pct_err(actual, est)

    def _estimated(self, lo: int, hi: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x, actual and the estimator's values at the points of rows lo to hi."""
        x, actual = _points(self.grid[lo:hi]), self.actual[lo:hi]
        estimator = self.estimator or (lambda xs: np.full(xs.shape, np.nan))
        est = np.asarray(estimator(x), dtype=np.float64)
        if est.shape != x.shape:
            raise ValueError("the estimator must return one value per point")
        return x, actual, est

    def blocks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """rows() of each run of CHUNK_ROWS rows, in order."""
        return (self.rows(lo, lo + CHUNK_ROWS) for lo in range(0, len(self), CHUNK_ROWS))

    def take(self, idx: np.ndarray) -> CountSeries:
        """The rows at the ascending positions idx, as a series of their own."""
        grid = self.grid
        x = grid.start + idx * grid.step if isinstance(grid, range) else grid[idx]
        return CountSeries(x, self.actual[idx], self.estimator, self.metadata)


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


def build_series(census) -> CountSeries:
    """Evaluate a census against its own estimate at every point where the
    count can change, as a view of the census's counts (for a census with an
    estimate, starting at the first nonzero count, since the estimates are
    undefined at x <= 1).  take() keeps a subset of its rows."""
    grid, actual = census.change_grid(), census.cumulative
    if census.estimate is not None:
        first = _first_nonzero(actual)
        if first == actual.size:
            raise ValueError("census holds no primes; no point to compare with its estimate")
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
    value (only those with x <= upto, when given), one block at a time,
    computing pct_err alone."""
    stop = len(series) if upto is None else bisect.bisect_right(series.grid, upto)
    sums, count = [], 0
    for lo in range(0, stop, CHUNK_ROWS):
        pct = _pct_err(*series._estimated(lo, min(lo + CHUNK_ROWS, stop))[1:])
        total = pct.sum()
        if math.isnan(total):  # the block has points without an error value
            pct = pct[~np.isnan(pct)]
            total = pct.sum()
        sums.append(total)
        count += pct.size
    if count == 0:
        raise ValueError("series has no points with a defined percentage error")
    return math.fsum(sums) / count


def find_crossover(series: CountSeries) -> int | None:
    """Smallest grid x after which estimate >= actual holds to the end.

    Implemented as the point following the last index where actual exceeds
    the estimate, among the points with an estimate; None when the estimate
    is above the actual count on the whole grid or still below it at the end.
    Reads x, actual and the estimate alone, one block at a time.
    """
    crossover, above_seen = None, False
    for lo in range(0, len(series), CHUNK_ROWS):
        x, actual, est = series._estimated(lo, lo + CHUNK_ROWS)
        undefined = np.isnan(est)
        if undefined.any():
            defined = ~undefined
            x, actual, est = x[defined], actual[defined], est[defined]
        above = np.flatnonzero(actual - est > 0)
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
    a shrinking bracket of 21 points around the best of them, each round
    taking the first candidate of least RMS error.

    The fitted points (actual >= 1 and x >= 3) are a suffix of the series,
    since x increases and actual never decreases.  The search holds three
    float64 arrays of that length: b = x/actual, L = ln ln x, and one work
    buffer that each exact evaluation of the objective overwrites in place
    (the mean of u = b * exp(-e * L) and of u^2 give c and the error).

    Each round is screened before it is evaluated: one pass over the points
    sums b * (L - centre)^j and b^2 * (L - centre)^j in bins of L (see
    _moment_screen), from which the two means follow at any e by a Taylor
    series per bin, at a cost independent of the number of points.  Only
    the candidates whose screened squared error lies within 2 * _TAU * s of
    the least screened one are evaluated exactly, s being the larger of the
    two scales c^2 m2 + 2c|m1| + 1, which bound the terms that make up the
    squared error.  The screened and the exact squared error differ by far
    less than _TAU / 2 * s: the Taylor truncation is below 1e-19 relative,
    and the rounding of either side, at most about 1e-14 * s for sums of
    10^8 points, measures below 4e-16 * s.  So a candidate left out has an
    exact squared error above the least exact one by more than _TAU * s,
    its RMS error stays larger after the square root, and every candidate
    that ties with the best is kept: each round picks what evaluating every
    candidate would pick, and the result is equal to the last bit.  The
    exact objective is evaluated once per distinct e.
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
    screened = _moment_screen(base, log_ln_x, u)

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

    def best(cand: np.ndarray) -> int:
        """Index of the first candidate of least exact RMS error, evaluating
        exactly only those that the screen cannot rule out."""
        rms2, scale = screened(cand)
        least = int(np.argmin(rms2))
        near = np.flatnonzero(rms2 - rms2[least] <= 2.0 * _TAU * np.maximum(scale, scale[least]))
        return int(near[int(np.argmin([profiled(float(cand[i]))[1] for i in near]))])

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
    c, rms = profiled(e)
    return FitResult(c=c, e=e, rms_rel_err=rms)


# screen margin, relative to the magnitude s of the terms of the squared error
_TAU = 1e-13
# screen bins of ln ln x: centres k/16, so e * centre is exact once e is cut
# to 46 bits; with 13 Taylor terms the truncation is below 1e-19 relative
_BIN_WIDTH = 1.0 / 16.0
_TERMS = 13
# points per block of the screen's pass (its one work buffer, 16 KiB), and
# candidates screened at once: a batch's broadcasts over the bins briefly
# take three times its batch x bins floats, and the fit may use only 64 KiB
# beyond its three arrays
_SCREEN_BLOCK = 2048
_SCREEN_BATCH = 11


def _moment_screen(
    base: np.ndarray, log_ln_x: np.ndarray, work: np.ndarray
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Screened squared RMS error of fit_model's objective, from one pass.

    The points are cut into bins of L = ln ln x (sorted, since x increases)
    of width _BIN_WIDTH around centres k * _BIN_WIDTH.  With d = L - centre
    (exact, by Sterbenz) the pass sums b d^j and b^2 d^j per bin, j below
    _TERMS, one _SCREEN_BLOCK block at a time; ``work`` (any scratch of the
    points' length) holds d.  Then for each e

        mean(b e^(-eL))     = sum_k e^(-e centre_k) sum_j (-e)^j/j! S1[j, k] / n
        mean(b^2 e^(-2eL))  = sum_k e^(-2e centre_k) sum_j (-2e)^j/j! S2[j, k] / n

    where e^(-e centre) is taken as e^(-e_hi centre) (1 - e_lo centre) with
    e_hi * centre exact.  The returned function maps candidates e to their
    screened squared errors max(c^2 m2 - 2c m1 + 1, 0), c clamped as in the
    fit, and their scales c^2 m2 + 2c|m1| + 1.
    """
    n = base.size
    k_first = round(float(log_ln_x[0]) / _BIN_WIDTH)
    k_last = round(float(log_ln_x[-1]) / _BIN_WIDTH)
    centres = np.arange(k_first, k_last + 1) * _BIN_WIDTH
    bounds = np.searchsorted(log_ln_x, centres + 0.5 * _BIN_WIDTH)
    bounds[-1] = n  # the last point may sit on the last bin's upper edge
    sums = np.zeros((2, _TERMS, centres.size))
    buf = np.empty(min(_SCREEN_BLOCK, n))
    start = 0
    for k, stop in enumerate(bounds.tolist()):
        np.subtract(log_ln_x[start:stop], centres[k], out=work[start:stop])
        for lo in range(start, stop, _SCREEN_BLOCK):
            hi = min(lo + _SCREEN_BLOCK, stop)
            b, d, w = base[lo:hi], work[lo:hi], buf[: hi - lo]
            np.copyto(w, b)
            for j in range(_TERMS):
                sums[0, j, k] += w.sum()  # b d^j
                sums[1, j, k] += np.dot(w, b)  # b^2 d^j
                np.multiply(w, d, out=w)
        start = stop
    powers = np.arange(_TERMS)
    inv_factorial = np.array([1.0 / math.factorial(j) for j in powers.tolist()])

    def screened(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rms2, scale = np.empty(cand.size), np.empty(cand.size)
        for lo in range(0, cand.size, _SCREEN_BATCH):
            e = cand[lo : lo + _SCREEN_BATCH, None]
            e_hi = e * 129.0
            e_hi -= e_hi - e  # Veltkamp: e to 46 bits
            e_lo = e - e_hi
            taylor = np.power(-e, powers) * inv_factorial  # (-e)^j / j!
            per_bin = taylor @ sums[0]
            per_bin *= np.exp(-e_hi * centres)
            per_bin *= 1.0 - e_lo * centres
            m1 = per_bin.sum(axis=1) / n
            per_bin = (taylor * 2.0**powers) @ sums[1]
            per_bin *= np.exp(-2.0 * e_hi * centres)
            per_bin *= 1.0 - 2.0 * e_lo * centres
            m2 = per_bin.sum(axis=1) / n
            c = np.clip(m1 / m2, *_C_BOUNDS)
            rms2[lo : lo + e.size] = np.maximum(c * c * m2 - 2.0 * c * m1 + 1.0, 0.0)
            scale[lo : lo + e.size] = c * c * m2 + 2.0 * c * np.abs(m1) + 1.0
        return rms2, scale

    return screened
