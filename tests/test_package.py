"""The package exports what its commands, scripts and benchmark use; the
oracles that only the tests call live in tests/oracles.py."""

import importlib
import pkgutil

import oracles
import primelab

PUBLIC = {
    "ClassicalCensus",
    "CountSeries",
    "FitResult",
    "GaussianCensus",
    "MonoidCensus",
    "MonoidParams",
    "PrimeTable",
    "QuadCensus",
    "RegionSpec",
    "build_series",
    "classical_census",
    "estimate_pi_G",
    "estimate_pi_d",
    "find_crossover",
    "fit_model",
    "gaussian_census",
    "mape",
    "monoid_census",
    "quad_census",
    "ratio_R",
    "sieve_primes",
}

ORACLES = {
    "BRUTE_NORM_CAP",
    "GaussPoint",
    "QuadInt",
    "_divisors_by_trial",
    "_has_proper_divisor",
    "census_counts_at",
    "gaussian_brute_irreducible",
    "hilbert_classify",
    "is_gaussian_prime",
    "is_monoid_prime",
    "oracle_fit_model",
    "oracle_read_series_csv",
    "oracle_thin",
    "quad_divide_exact",
    "quad_is_irreducible",
    "quad_is_unit",
    "quad_mul",
    "quad_norm",
    "table_primes",
    "trial_division_is_prime",
}


def test_package_exports():
    assert len(primelab.__all__) == len(PUBLIC) == 21
    assert set(primelab.__all__) == PUBLIC
    for name in primelab.__all__:
        assert getattr(primelab, name) is not None, name
    modules = [primelab] + [
        importlib.import_module(f"primelab.{info.name}")
        for info in pkgutil.iter_modules(primelab.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    assert len(modules) > 6
    for module in modules:
        assert not ORACLES & set(vars(module)), module.__name__
    for name in ORACLES:
        assert hasattr(oracles, name), name
