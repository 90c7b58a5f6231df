"""Independent oracles for every census, kept beside the tests that use them.

Each census in primelab is checked against a method that shares none of its
machinery:

- rational primes by trial division (``trial_division_is_prime``) and by a
  whole-array sieve of Eratosthenes over every integer
  (``eratosthenes_flags``), the prime source of every oracle below that
  needs primes: the package's odd-only, windowed sieve is what they check;
- monoid primes by trial division (``is_monoid_prime``), A_4 by rational
  factorization (``hilbert_classify``) and, at scale, by counting rational
  primes in residue classes (``a4_atom_count``);
- Gaussian primes by the norm rule (``is_gaussian_prime``) and by a
  divisor scan (``gaussian_brute_irreducible``);
- irreducibles of Z[sqrt(-d)] by exact ring arithmetic and a divisor search
  over one element (``quad_is_irreducible``);
- ``fit_model`` by its whole search with every candidate evaluated exactly
  on masked copies of the series (``oracle_fit_model``);
- ``mape`` and ``find_crossover`` by their bodies over whole ``blocks()``,
  every derived column computed (``oracle_mape``,
  ``oracle_find_crossover``);
- a census's count at any point by a search of its change grid
  (``census_counts_at``), and ``scripts/quad_growth.thin`` by the custom-grid
  rule it had before it took rows of the census's series (``oracle_thin``);
- ``series.stream_series`` by the whole series that the package built before
  every command streamed its census: a view of the census's whole counts
  (``whole_counts``) from its first nonzero count on (``build_series``),
  which for the sieved censuses, whose grids start at a prime, trims
  nothing;
- ``report.read_series_csv`` by the reader it had before it parsed blocks of
  lines: one numpy parse of every line, fed through a generator that
  rewrites empty fields and counts file lines (``oracle_read_series_csv``);
- ``gaussian_census`` by the census it was before it read the sieve one
  window at a time: a whole table of flags, here ``eratosthenes_flags``,
  an int8 copy weighted by residue, and one cumulative sum
  (``oracle_gaussian_census``);
- the sieve's running-count blocks, streamed or collected, by their
  whole-array form over ``eratosthenes_flags`` (``oracle_prime_running_counts``);
- ``monoid_census`` by the census it was before A_d was one modulus of the
  package's windowed sieve: its own marking loop over a whole array of the
  elements of A_d, and one cumulative sum (``oracle_monoid_census``);
- ``quad_census`` by the product sieve it ran before its norm grid was int32
  and its walk went in steps: the whole int64 grid, each y's cofactor view
  at once, and an int64 bincount (``oracle_quad_census``).

``table_primes`` lists the primes of a table of flags for the tests.  A
package Series is read once, so the tests hold their reference series whole
as a ``HeldSeries``, which makes a fresh Series for each pass (``stream``);
``hold`` reads the one pass of a package Series into one, ``series_rows``
gives the five columns of its rows, and ``write_series_csv`` writes its CSV
as the commands do.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from primelab import FitResult, MonoidParams, QuadCensus, RegionSpec, Series
from primelab import report
from primelab import series as analysis
from primelab.gaussian import AXIS_CONVENTIONS
from primelab.quadratic import MAX_CENSUS_BOUND, validate_ring_param
from primelab.report import _SERIES_DTYPE, SERIES_HEADER
from primelab.sieve import SievedCensus, count_blocks, count_dtype, cumulative_sum, require_int

# the divisor scans are exhaustive; cap the norms they will accept
BRUTE_NORM_CAP = 10**6


def eratosthenes_flags(limit: int) -> np.ndarray:
    """Read-only primality flags for 0..limit (>= 0), flags[n] == n is prime:
    one sieve of Eratosthenes over the whole array, every multiple of every
    prime p <= sqrt(limit) crossed out from p^2."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    flags.setflags(write=False)
    return flags


def table_primes(table: np.ndarray) -> np.ndarray:
    """All primes of a table of flags (``eratosthenes_flags``), ascending."""
    return np.flatnonzero(table).astype(np.int64)


def whole_counts(census) -> np.ndarray:
    """The census's counts held whole, read-only, in the dtype of its blocks:
    each block of running_blocks() copied into its slice as it comes, since
    a sieved census's blocks share one buffer that the next block
    overwrites.  An empty grid yields no block; its empty counts take the
    dtype that the sieve gives a sieved census's blocks."""
    most = census._sieve()[2] if isinstance(census, SievedCensus) else 0
    whole = np.empty(0, dtype=count_dtype(most))
    for k, counts in census.running_blocks():
        if k == 0:
            whole = np.empty(len(census.change_grid()), dtype=counts.dtype)
        whole[k : k + len(counts)] = counts
    whole.setflags(write=False)
    return whole


def census_counts_at(census, xs) -> np.ndarray:
    """The census's count at each integer x from 1 to its bound: the count at
    the last point of its change grid at or below x, found by a search, and
    0 below the grid's first point."""
    grid, whole = census.change_grid(), whole_counts(census)
    xs = np.asarray(xs, dtype=np.int64)
    assert np.all((xs >= 1) & (xs < grid.stop)), xs
    counts = np.concatenate([np.zeros(1, whole.dtype), whole])
    return counts[np.searchsorted(np.array(grid), xs, side="right")]


@dataclass(frozen=True)
class HeldSeries:
    """A series held whole: its points ``grid`` (a range, or an int64 array),
    its counts ``actual``, its estimator and its metadata.  The package's
    Series is read once, so stream() makes a fresh one over these arrays
    for each pass, cut as sieve.count_blocks cuts them."""

    grid: range | np.ndarray
    actual: np.ndarray
    estimator: analysis.Estimator | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def x(self) -> np.ndarray:
        return analysis._points(self.grid)

    def stream(self) -> Series:
        """A fresh package Series over the held points and counts."""
        return Series(self.grid, count_blocks(self.actual), self.estimator, self.metadata)

    def blocks(self):
        """The five columns of each block of a pass, in order."""
        return (block.columns() for block in self.stream()._blocks())


def hold(series: Series) -> HeldSeries:
    """A package Series held whole: its one pass read, each block's counts
    copied into one array (an empty series' is int64)."""
    blocks = [block.actual.copy() for block in series._blocks()]
    actual = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return HeldSeries(series.grid, actual, series.estimator, series.metadata)


def series_rows(series: HeldSeries, lo: int = 0, hi: int | None = None):
    """x, actual, estimate, ratio and pct_err of rows lo to hi of a held
    series, computed for those rows alone."""
    grid, actual = series.grid[lo:hi], series.actual[lo:hi]
    return analysis.Block(lo, grid, actual, series.estimator).columns()


def write_series_csv(series: HeldSeries, path) -> None:
    """Write the series CSV of a held series as a command writes one: a pass
    of one SeriesCsvWriter."""
    ser = series.stream()
    writer = report.SeriesCsvWriter(path)
    analysis.scan(ser, writer)
    writer.finish()


def build_series(census) -> HeldSeries:
    """The series of a census as a view of its whole counts (for a census
    with an estimate, from the first nonzero count on, since the estimates
    are undefined at x <= 1): what stream_series reads block by block."""
    grid, actual = census.change_grid(), whole_counts(census)
    if census.estimate is not None:
        first = analysis._first_nonzero(actual)
        if first == actual.size:
            raise ValueError(analysis._NO_PRIMES)
        grid, actual = grid[first:], actual[first:]
    return HeldSeries(grid, actual, census.estimate, census.describe())


def oracle_thin(census, points: int = 250) -> HeldSeries:
    """scripts/quad_growth.thin by its former rule: the distinct integer parts
    of geometrically spaced points from the first nonzero count (or 3, if
    later) to the bound, a custom grid whose counts are looked up and copied
    as int64."""
    grid = census.change_grid()
    lo = grid[int(np.argmax(whole_counts(census) >= 1))]
    xs = np.unique(np.geomspace(max(lo, 3), int(grid[-1]), points).astype(np.int64))
    actual = census_counts_at(census, xs).astype(np.int64)
    return HeldSeries(xs, actual, census.estimate, census.describe())


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_monoid_prime(n: int, d: int) -> bool:
    """Trial-division check, independent of the census sieve.

    True iff n > 1 and no divisor a of n with 1 < a <= sqrt(n) lies in A_d.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n < 1 or n % d != 1:
        raise ValueError(f"n={n} is not in A_{d}")
    if n == 1:
        return False
    a = 1 + d
    while a * a <= n:
        if n % a == 0:
            return False
        a += d
    return True


def hilbert_classify(n: int, table: np.ndarray) -> bool:
    """Independent primality oracle for A_4 via rational factorization.

    An element of A_4 is a monoid prime exactly when it is a rational prime
    (necessarily 1 mod 4) or a product of two rational primes that are each
    3 mod 4.
    """
    if n < 1 or n % 4 != 1:
        raise ValueError(f"n={n} is not in A_4")
    if n >= len(table):
        raise ValueError(f"n={n} exceeds the table's limit {len(table) - 1}")
    if n == 1:
        return False
    if table[n]:
        return True
    p = 3  # n is odd and composite, so its least divisor > 1 is an odd prime <= sqrt(n)
    while n % p:
        p += 2
    q = n // p
    return p % 4 == 3 and q % 4 == 3 and bool(table[q])


def a4_atom_count(x: int) -> int:
    """Monoid primes of A_4 up to x, by the rule ``hilbert_classify`` applies
    one element at a time: pi(x;4,1) + sum over primes p <= sqrt(x) with
    p = 3 (mod 4) of pi(x/p;4,3) - pi(p-1;4,3), the primes q = 3 (mod 4)
    with p <= q <= x/p."""
    primes = table_primes(eratosthenes_flags(x))
    ones, threes = primes[primes % 4 == 1], primes[primes % 4 == 3]
    small = threes[threes * threes <= x]
    # threes[i] = p, so pi(p-1;4,3) = i
    partners = np.searchsorted(threes, x // small, side="right") - np.arange(len(small))
    return len(ones) + int(partners.sum())


@dataclass(frozen=True)
class GaussPoint:
    """First-quadrant Gaussian integer a + bi, not zero."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError(f"coordinates must be >= 0, got ({self.a}, {self.b})")
        if self.a == 0 and self.b == 0:
            raise ValueError("0 + 0i has no primality status")

    @property
    def norm(self) -> int:
        return self.a * self.a + self.b * self.b


def is_gaussian_prime(p: GaussPoint, table: np.ndarray) -> bool:
    """Classify via the norm; needs a table of flags that reaches p.norm."""
    n = p.norm
    if len(table) <= n:
        raise ValueError(f"the table's limit {len(table) - 1} < norm {n}")
    if p.b == 0:
        return p.a % 4 == 3 and bool(table[p.a])
    if p.a == 0:
        return p.b % 4 == 3 and bool(table[p.b])
    return bool(table[n])


def gaussian_brute_irreducible(p: GaussPoint) -> bool:
    """Divisor-scan irreducibility, independent of the norm classification.

    Tests one representative x + yi (x >= 1, y >= 0) of every associate
    class with norm strictly between 1 and N(p); division is exact when
    p * conj(beta) has both coordinates divisible by N(beta).
    """
    n = p.norm
    if not 1 <= n <= BRUTE_NORM_CAP:
        raise ValueError(f"norm {n} outside oracle range [1, {BRUTE_NORM_CAP}]")
    if n == 1:
        return False  # unit
    a, b = p.a, p.b
    for y in range(0, math.isqrt(n - 1) + 1):
        hi = math.isqrt(n - 1 - y * y)
        if hi < 1:
            continue
        xs = np.arange(1, hi + 1, dtype=np.int64)
        norms = xs * xs + y * y
        re = a * xs + b * y
        im = b * xs - a * y
        divides = (norms > 1) & (re % norms == 0) & (im % norms == 0)
        if divides.any():
            return False
    return True


@dataclass(frozen=True)
class QuadInt:
    """The element a + b*sqrt(-d) of Z[sqrt(-d)]."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        validate_ring_param(self.d)


def quad_norm(x: QuadInt) -> int:
    return x.a * x.a + x.d * x.b * x.b


def quad_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    if x.d != y.d:
        raise ValueError(f"mismatched ring parameters {x.d} and {y.d}")
    return QuadInt(x.a * y.a - x.d * x.b * y.b, x.a * y.b + x.b * y.a, x.d)


def quad_divide_exact(x: QuadInt, y: QuadInt) -> QuadInt | None:
    """The quotient x/y when it lies in the ring, else None."""
    if x.d != y.d:
        raise ValueError(f"mismatched ring parameters {x.d} and {y.d}")
    n = quad_norm(y)
    if n == 0:
        raise ValueError("division by zero")
    # x / y = x * conj(y) / N(y)
    re = x.a * y.a + x.d * x.b * y.b
    im = x.b * y.a - x.a * y.b
    if re % n or im % n:
        return None
    return QuadInt(re // n, im // n, x.d)


def quad_is_unit(x: QuadInt) -> bool:
    return quad_norm(x) == 1


def quad_is_irreducible(x: QuadInt) -> bool:
    """Exhaustive divisor search over candidate norms dividing N(x)."""
    n = quad_norm(x)
    if not 2 <= n <= BRUTE_NORM_CAP:
        raise ValueError(f"norm {n} outside brute-force range [2, {BRUTE_NORM_CAP}]")
    return not _has_proper_divisor(x.a, x.b, x.d, _divisors_by_trial(n))


def _has_proper_divisor(a: int, b: int, d: int, divisors: list[int]) -> bool:
    """Any y with 1 < N(y) < n = a^2 + d*b^2 dividing a + b*sqrt(-d)?

    A divisor's norm divides n, so only representations m = alpha^2 + d*beta^2
    of the proper divisors m of n (``divisors``) need testing; (alpha, beta)
    and (alpha, -beta) together cover every associate class of that norm.
    """
    for m in divisors:
        for beta in range(0, math.isqrt(m // d) + 1):
            rem = m - d * beta * beta
            alpha = math.isqrt(rem)
            if alpha * alpha != rem:
                continue
            candidates = ((alpha, beta), (alpha, -beta)) if alpha and beta else ((alpha, beta),)
            for ya, yb in candidates:
                re = a * ya + d * b * yb
                im = b * ya - a * yb
                if re % m == 0 and im % m == 0:
                    return True
    return False


def _divisors_by_trial(n: int) -> list[int]:
    """Divisors m of n with 1 < m < n, ascending, by sqrt-bounded trial."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return [m for m in small + large[::-1] if 1 < m < n]


def oracle_squared_error(base, log_ln_x, e):
    """Best in-bounds c at this e and the squared RMS relative error, from
    whole-array means of u = base * exp(-e * log_ln_x), with the arithmetic
    of fit_model's exact evaluation."""
    u = base * np.exp(-e * log_ln_x)  # model(x; c=1, e) / actual
    m1, m2 = float(u.mean()), float((u * u).mean())
    c = min(max(m1 / m2, analysis._C_BOUNDS[0]), analysis._C_BOUNDS[1])
    return c, max(c * c * m2 - 2.0 * c * m1 + 1.0, 0.0)


def oracle_fit_model(series):
    """The whole search of fit_model, every candidate evaluated exactly on
    masked copies of the series: no screen, no work in place.  fit_model
    screens each round and evaluates exactly only the near-ties, with the
    same arithmetic, so the results must be equal to the last bit, not only
    to the printed digits."""
    xs = series.x
    mask = (series.actual >= 1) & (xs >= 3)
    if int(mask.sum()) < 8:
        raise ValueError("need at least 8 points with actual >= 1 and x >= 3")
    x = xs[mask].astype(np.float64)
    act = series.actual[mask].astype(np.float64)
    base = x / act
    log_ln_x = np.log(np.log(x))

    def profiled(e):
        """Best in-bounds c at this e and the resulting RMS relative error."""
        c, rms2 = oracle_squared_error(base, log_ln_x, e)
        return c, math.sqrt(rms2)

    e_grid = np.linspace(analysis._E_BOUNDS[0], analysis._E_BOUNDS[1], 101)
    e = float(e_grid[int(np.argmin([profiled(float(e))[1] for e in e_grid]))])
    span = float(e_grid[1] - e_grid[0])
    for _ in range(80):
        lo = max(e - span, analysis._E_BOUNDS[0])
        hi = min(e + span, analysis._E_BOUNDS[1])
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


def oracle_mape(series, upto=None):
    """mape over whole rows() blocks, each with all five columns and the NaN
    mask's compress: the same blocks and elementwise operations as mape, so
    the result must be equal to the last bit."""
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


def oracle_find_crossover(series):
    """find_crossover over whole rows() blocks, each masked by its defined
    estimates."""
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


def oracle_read_series_csv(path) -> HeldSeries:
    """read_series_csv as it read a file before it parsed blocks of lines:
    one np.loadtxt over a generator of every line, empty fields rewritten
    to nan, whose line count names the bad line."""
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != SERIES_HEADER:
            raise ValueError(f"{path} is not a series CSV (bad header)")
        line_no = 1

        def lines():
            nonlocal line_no
            for line_no, line in enumerate(f, 2):
                # empty fields become "nan": the second pass catches ",,," runs, and a
                # trailing one ends the line or, with no final newline, the file
                line = line.replace(",,", ",nan,").replace(",,", ",nan,")
                yield line.replace(",\n", ",nan\n") if line[-1:] != "," else line + "nan"

        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(
                    lines(), dtype=_SERIES_DTYPE, delimiter=",", comments=None, ndmin=1
                )
        except UnicodeDecodeError:
            raise  # text is decoded ahead of the line count, so no line is named
        except ValueError as exc:
            # numpy's own row number skips blank lines, so only the file line is given
            reason = str(exc).split(" at row ")[0]
            raise ValueError(f"{path} line {line_no}: {reason}") from exc
    x, actual = data["x"].copy(), data["actual"].copy()
    del data  # freed before the order checks' block temporaries are made
    x.setflags(write=False)
    actual.setflags(write=False)
    if not np.all(x[1:] > x[:-1]):
        raise ValueError(f"{path}: x must be strictly increasing")
    if not np.all(actual[1:] >= actual[:-1]):
        raise ValueError(f"{path}: actual must be nondecreasing")
    return HeldSeries(x, actual, metadata={"source": "csv"})


def oracle_quad_census(d: int, region: RegionSpec) -> QuadCensus:
    """quad_census as it was before its norm grid was int32 and its walk went
    in steps, verbatim but for its running totals, which spell out the int32 or
    int64 rule that cumulative_sum then applied to the int64 bincount."""
    validate_ring_param(d)
    top = region.largest_norm(d)
    if top > MAX_CENSUS_BOUND:
        raise ValueError(f"largest norm {top} exceeds census cap {MAX_CENSUS_BOUND}")
    # every quadrant cell (a, b) of norm <= top: the region's and each product's
    root = math.isqrt(top)
    a, b = np.ogrid[: root + 1, : math.isqrt(top // d) + 1]
    norm = a * a + d * b * b
    reducible = np.zeros(norm.shape, dtype=bool)

    corner = norm[: math.isqrt(root) + 1, : math.isqrt(root // d) + 1]
    ia, ib = np.nonzero((corner >= 2) & (corner <= root))
    for n, ya, yb in sorted(zip(corner[ia, ib].tolist(), ia.tolist(), ib.tolist())):
        if reducible[ya, yb]:
            continue  # a multiple already marked
        m = top // n
        cofactors = norm[: math.isqrt(m) + 1, : math.isqrt(m // d) + 1]
        za, zb = np.nonzero((cofactors >= n) & (cofactors <= m))
        reducible[np.abs(ya * za - d * yb * zb), ya * zb + yb * za] = True  # y*z
        reducible[ya * za + d * yb * zb, np.abs(yb * za - ya * zb)] = True  # y*conj(z)

    index = a * a + b * b if region.kind == "euclidean-ball" else norm
    counted = (index <= region.bound) & (norm >= 2) & ~reducible
    counts = np.bincount(index[counted], minlength=region.bound + 1)
    cumulative = counts[1:].astype(np.int32 if norm.size < 2**31 else np.int64)
    np.cumsum(cumulative, out=cumulative)
    cumulative.setflags(write=False)
    return QuadCensus(d=d, region=region, cumulative=cumulative)


def oracle_gaussian_census(norm_limit: int, convention: str) -> np.ndarray:
    """The counts of gaussian_census as it made them before it read the
    sieve one window at a time: a whole table of flags, an int8 copy of it
    and the int32 or int64 running totals, 6 B per norm at once.  Its flags
    come from ``eratosthenes_flags``, not from the package's sieve as they
    did then; the rest is as it was, but that it returns the read-only
    counts alone, since a GaussianCensus now makes its own."""
    if convention not in AXIS_CONVENTIONS:
        raise ValueError(f"unknown axis convention {convention!r}")
    require_int("norm_limit", norm_limit, 1)

    flags = eratosthenes_flags(norm_limit)
    counts = flags.astype(np.int8)  # norm 2: the one point 1+i
    counts[1::4] *= 2  # p = 1 (mod 4) is a^2 + b^2 as (a, b) and (b, a), a != b
    counts[3::4] = 0  # p = 3 (mod 4) is no sum of two squares
    # ...but its axis points (q, 0) and (0, q), of norm q^2, are prime
    qs = np.flatnonzero(flags[: math.isqrt(norm_limit) + 1])
    qs = qs[qs % 4 == 3]
    counts[qs * qs] += 2 if convention == "both-axes" else 1
    # from norm 2, the census's first point; at most 2 points per norm
    return cumulative_sum(counts[2:], 2 * norm_limit)


def oracle_monoid_census(params: MonoidParams) -> np.ndarray:
    """The counts of monoid_census as it made them before A_d was one modulus
    of the package's windowed sieve: its own marking loop over one bool per
    element of A_d for the whole range, then one cumulative sum in
    count_dtype of the element count.  The loop is as it was; it returns
    the read-only counts alone, from 1 + d, the census's first point, since
    a MonoidCensus now makes its own.

    Marking scheme: for each unmarked a in A_d with 1 < a, a*a <= limit, mark
    every product a*b with b in A_d, b >= a.  One-sided marking suffices
    because a | n with a, n = 1 (mod d) forces n/a = 1 (mod d); restricting
    the outer loop to unmarked a is safe because any monoid composite has a
    monoid-prime divisor p with p <= n/p.
    """
    d, limit = params.d, params.limit

    k_max = (limit - 1) // d
    composite = np.zeros(k_max + 1, dtype=bool)
    i = 1
    while True:
        a = 1 + i * d
        if a * a > limit:
            break
        if not composite[i]:
            # element a*(1 + j*d) sits at index i + a*j; start at j = i
            composite[i * (a + 1) :: a] = True
        i += 1

    prime = np.logical_not(composite, out=composite)
    return cumulative_sum(prime[1:], len(prime))  # the identity 1 is not a prime


def oracle_prime_running_counts(limit: int, most: int, weigh=None) -> np.ndarray:
    """The whole-array form of sieve.prime_running_blocks, as
    prime_running_counts made it before the blocks were streamed, but over
    one whole table of ``eratosthenes_flags`` instead of the package's
    windows: the flags of 2..limit (the sieve's elements past the unit)
    cast to count_dtype(most), weighted by ``weigh(2, counts)`` when given,
    then summed in place.  Read-only."""
    counts = eratosthenes_flags(limit)[2:].astype(count_dtype(most))
    if weigh is not None:
        weigh(2, counts)
    np.cumsum(counts, out=counts)
    counts.setflags(write=False)
    return counts
