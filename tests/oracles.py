"""Independent oracles for every census, kept beside the tests that use them.

Each census in primelab is checked against a method that shares none of its
machinery:

- rational primes by trial division (``trial_division_is_prime``);
- monoid primes by trial division (``is_monoid_prime``), A_4 by rational
  factorization (``hilbert_classify``) and, at scale, by counting rational
  primes in residue classes (``a4_atom_count``);
- Gaussian primes by the norm rule (``is_gaussian_prime``) and by a
  divisor scan (``gaussian_brute_irreducible``);
- irreducibles of Z[sqrt(-d)] by exact ring arithmetic and a divisor search
  over one element (``quad_is_irreducible``);
- ``fit_model`` by its whole search with every candidate evaluated exactly
  on masked copies of the series (``oracle_fit_model``);
- ``mape`` and ``find_crossover`` by their bodies over whole ``rows()``
  blocks, every derived column computed (``oracle_mape``,
  ``oracle_find_crossover``);
- a census's count at any point by a search of its change grid
  (``census_counts_at``), and ``scripts/quad_growth.thin`` by the custom-grid
  rule it had before it took rows of the census's series (``oracle_thin``);
- ``report.read_series_csv`` by the reader it had before it parsed blocks of
  lines: one numpy parse of every line, fed through a generator that
  rewrites empty fields and counts file lines (``oracle_read_series_csv``).

``table_primes`` lists the primes of a PrimeTable for the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from primelab import CountSeries, FitResult, PrimeTable, sieve_primes
from primelab import series as analysis
from primelab.quadratic import validate_ring_param
from primelab.report import _SERIES_DTYPE, SERIES_HEADER

# the divisor scans are exhaustive; cap the norms they will accept
BRUTE_NORM_CAP = 10**6


def table_primes(table: PrimeTable) -> np.ndarray:
    """All primes <= table.limit, ascending."""
    return np.flatnonzero(table.flags).astype(np.int64)


def census_counts_at(census, xs) -> np.ndarray:
    """The census's count at each integer x from 1 to its bound: the count at
    the last point of its change grid at or below x, found by a search."""
    grid = census.change_grid()
    xs = np.asarray(xs, dtype=np.int64)
    assert np.all((xs >= 1) & (xs < grid.stop)), xs
    return census.cumulative[np.searchsorted(np.array(grid), xs, side="right") - 1]


def oracle_thin(census, points: int = 250) -> CountSeries:
    """scripts/quad_growth.thin by its former rule: the distinct integer parts
    of geometrically spaced points from the first nonzero count (or 3, if
    later) to the bound, a custom grid whose counts are looked up and copied
    as int64."""
    grid = census.change_grid()
    lo = grid[int(np.argmax(census.cumulative >= 1))]
    xs = np.unique(np.geomspace(max(lo, 3), int(grid[-1]), points).astype(np.int64))
    actual = census_counts_at(census, xs).astype(np.int64)
    return CountSeries(xs, actual, census.estimate, census.describe())


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


def hilbert_classify(n: int, table: PrimeTable) -> bool:
    """Independent primality oracle for A_4 via rational factorization.

    An element of A_4 is a monoid prime exactly when it is a rational prime
    (necessarily 1 mod 4) or a product of two rational primes that are each
    3 mod 4.
    """
    if n < 1 or n % 4 != 1:
        raise ValueError(f"n={n} is not in A_4")
    if n > table.limit:
        raise ValueError(f"n={n} exceeds table.limit={table.limit}")
    if n == 1:
        return False
    if table.flags[n]:
        return True
    p = 3  # n is odd and composite, so its least divisor > 1 is an odd prime <= sqrt(n)
    while n % p:
        p += 2
    q = n // p
    return p % 4 == 3 and q % 4 == 3 and bool(table.flags[q])


def a4_atom_count(x: int) -> int:
    """Monoid primes of A_4 up to x, by the rule ``hilbert_classify`` applies
    one element at a time: pi(x;4,1) + sum over primes p <= sqrt(x) with
    p = 3 (mod 4) of pi(x/p;4,3) - pi(p-1;4,3), the primes q = 3 (mod 4)
    with p <= q <= x/p."""
    primes = table_primes(sieve_primes(max(x, 2)))
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


def is_gaussian_prime(p: GaussPoint, table: PrimeTable) -> bool:
    """Classify via the norm; needs table.limit >= p.norm."""
    n = p.norm
    if table.limit < n:
        raise ValueError(f"table.limit={table.limit} < norm {n}")
    if p.b == 0:
        return p.a % 4 == 3 and bool(table.flags[p.a])
    if p.a == 0:
        return p.b % 4 == 3 and bool(table.flags[p.b])
    return bool(table.flags[n])


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


def oracle_read_series_csv(path) -> CountSeries:
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
    try:
        return CountSeries(x, actual, metadata={"source": "csv"})
    except ValueError as exc:  # x out of order or a count that falls
        raise ValueError(f"{path}: {exc}") from exc
