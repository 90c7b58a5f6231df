"""Prime censuses and count estimates in unusual multiplicative domains.

Exact counting of primes in congruence monoids (n = 1 mod d), Gaussian
integers inside norm circles, and irreducibles in imaginary quadratic rings
Z[sqrt(-d)], together with the evaluation machinery (ratios, MAPE,
crossover points, model fits) and CSV/SVG reporting.
"""

from .gaussian import (
    GaussianCensus,
    GaussPoint,
    estimate_pi_G,
    gaussian_brute_irreducible,
    gaussian_census,
    is_gaussian_prime,
)
from .monoid import (
    MonoidCensus,
    MonoidParams,
    estimate_pi_d,
    hilbert_classify,
    is_monoid_prime,
    largest_element,
    monoid_census,
)
from .quadratic import (
    QuadCensus,
    QuadInt,
    RegionSpec,
    quad_census,
    quad_divide_exact,
    quad_is_irreducible,
    quad_is_unit,
    quad_mul,
    quad_norm,
)
from .series import (
    CountSeries,
    FitResult,
    build_series,
    find_crossover,
    fit_model,
    mape,
    ratio_R,
)
from .sieve import ClassicalCensus, PrimeTable, classical_census, sieve_primes

__all__ = [
    "ClassicalCensus",
    "CountSeries",
    "FitResult",
    "GaussPoint",
    "GaussianCensus",
    "MonoidCensus",
    "MonoidParams",
    "PrimeTable",
    "QuadCensus",
    "QuadInt",
    "RegionSpec",
    "build_series",
    "classical_census",
    "estimate_pi_G",
    "estimate_pi_d",
    "find_crossover",
    "fit_model",
    "gaussian_brute_irreducible",
    "gaussian_census",
    "hilbert_classify",
    "is_gaussian_prime",
    "is_monoid_prime",
    "largest_element",
    "mape",
    "monoid_census",
    "quad_census",
    "quad_divide_exact",
    "quad_is_irreducible",
    "quad_is_unit",
    "quad_mul",
    "quad_norm",
    "ratio_R",
    "sieve_primes",
]
