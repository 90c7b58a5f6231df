"""Evaluation series over censuses: ratios, MAPE, crossover points, model fits.

A CountSeries pairs actual cumulative counts with an estimate evaluated on
the same grid.  Points where no percentage error is defined (actual = 0, or
no estimator supplied) carry NaN in the derived columns; statistics skip
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

Estimator = Callable[[np.ndarray], np.ndarray]

_C_BOUNDS = (1e-3, 10.0)
_E_BOUNDS = (-2.0, 3.0)


@dataclass(frozen=True)
class CountSeries:
    """Ordered evaluation points (x, actual, estimate, ratio, pct_err)."""

    x: np.ndarray  # int64, strictly increasing
    actual: np.ndarray  # int64, nondecreasing
    estimate: np.ndarray  # float64, NaN where no estimator applies
    ratio: np.ndarray  # float64, actual / estimate
    pct_err: np.ndarray  # float64, 100*|actual - estimate|/actual
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.x)
        if not (len(self.actual) == len(self.estimate) == len(self.ratio) == len(self.pct_err) == n):
            raise ValueError("series columns must have equal length")
        if n > 1:
            if not np.all(np.diff(self.x) > 0):
                raise ValueError("x must be strictly increasing")
            if not np.all(np.diff(self.actual) >= 0):
                raise ValueError("actual must be nondecreasing")

    def __len__(self) -> int:
        return len(self.x)

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.metadata.items())


def make_series(
    x: Sequence[int] | np.ndarray,
    actual: Sequence[int] | np.ndarray,
    estimator: Estimator | None = None,
    metadata: Mapping[str, str] | None = None,
) -> CountSeries:
    """Assemble a CountSeries, deriving estimate/ratio/pct_err columns."""
    xs = np.array(x, dtype=np.int64)  # copies, so freezing never hits caller arrays
    acts = np.array(actual, dtype=np.int64)
    if xs.size == 0:
        raise ValueError("series grid is empty")
    if estimator is None:
        est = np.full(xs.shape, np.nan)
    else:
        est = np.asarray(estimator(xs), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isnan(est), np.nan, acts / est)
        pct = np.where(
            (acts >= 1) & ~np.isnan(est),
            100.0 * np.abs(acts - est) / np.where(acts >= 1, acts, 1),
            np.nan,
        )
    for arr in (xs, acts, est, ratio, pct):
        arr.setflags(write=False)
    return CountSeries(
        x=xs, actual=acts, estimate=est, ratio=ratio, pct_err=pct, metadata=dict(metadata or {})
    )


def build_series(census, estimator: Estimator | None = None, grid=None) -> CountSeries:
    """Evaluate a census on a grid (default: every point where the count can
    change; with an estimator, starting at the first nonzero count, since
    the estimates are undefined at x <= 1)."""
    if grid is None:
        grid = census.change_grid()
        actual = census.counts_at(grid)
        if estimator is not None:
            first = int(np.searchsorted(actual, 1))  # actual is nondecreasing
            if first == actual.size:
                raise ValueError("census holds no primes; no default grid exists")
            grid, actual = grid[first:], actual[first:]
    else:
        grid = np.asarray(grid, dtype=np.int64)
        if grid.size == 0:
            raise ValueError("series grid is empty")
        actual = census.counts_at(grid)
    return make_series(grid, actual, estimator, census.describe())


def ratio_R(actual: int, estimate: float) -> float:
    """Normalized accuracy ratio actual/estimate."""
    if estimate <= 0:
        raise ValueError(f"estimate must be > 0, got {estimate}")
    if actual < 0:
        raise ValueError(f"actual must be >= 0, got {actual}")
    return actual / estimate


def mape(series: CountSeries) -> float:
    """Mean absolute percentage error over points that carry an error value."""
    valid = series.pct_err[~np.isnan(series.pct_err)]
    if valid.size == 0:
        raise ValueError("series has no points with a defined percentage error")
    return float(valid.mean())


def find_crossover(series: CountSeries) -> int | None:
    """Smallest grid x after which estimate >= actual holds to the end.

    Implemented as the point following the last index where actual exceeds
    the estimate; None when the estimate is above the actual count on the
    whole grid or still below it at the end.
    """
    defined = ~np.isnan(series.estimate)
    if not defined.any():
        return None
    diff = series.actual[defined] - series.estimate[defined]
    above = np.flatnonzero(diff > 0)
    if above.size == 0 or above[-1] == diff.size - 1:
        return None
    return int(series.x[defined][above[-1] + 1])


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
    mask = (series.actual >= 1) & (series.x >= 3)
    if int(mask.sum()) < 8:
        raise ValueError("need at least 8 points with actual >= 1 and x >= 3")
    x = series.x[mask].astype(np.float64)
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
