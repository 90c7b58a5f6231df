"""Prime censuses and count estimates in unusual multiplicative domains.

Exact counting of primes in congruence monoids (n = 1 mod d), Gaussian
integers inside norm circles, and irreducibles in imaginary quadratic rings
Z[sqrt(-d)], together with the evaluation machinery (ratios, MAPE,
crossover points, model fits) and CSV/SVG reporting.
"""

from .gaussian import GaussianCensus, estimate_pi_G, gaussian_census
from .monoid import MonoidCensus, MonoidParams, estimate_pi_d, monoid_census
from .quadratic import QuadCensus, RegionSpec, quad_census
from .series import (
    FitResult,
    Series,
    find_crossover,
    fit_model,
    ratio_R,
    stream_series,
)
from .sieve import ClassicalCensus, classical_census

__all__ = [
    "ClassicalCensus",
    "FitResult",
    "GaussianCensus",
    "MonoidCensus",
    "MonoidParams",
    "QuadCensus",
    "RegionSpec",
    "Series",
    "classical_census",
    "estimate_pi_G",
    "estimate_pi_d",
    "find_crossover",
    "fit_model",
    "gaussian_census",
    "monoid_census",
    "quad_census",
    "ratio_R",
    "stream_series",
]
