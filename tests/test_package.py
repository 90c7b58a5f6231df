"""The package exports what its commands, scripts and benchmark use; the
oracles that only the tests call live in tests/oracles.py."""

import importlib
import inspect
import pkgutil

import oracles
import primelab

PUBLIC = {
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
}

ORACLES = {
    "BRUTE_NORM_CAP",
    "OracleMape",
    "GaussPoint",
    "HeldSeries",
    "ORACLE_QUAD_MAX_NORM",
    "QuadInt",
    "_divisors_by_trial",
    "_has_proper_divisor",
    "a4_atom_count",
    "build_series",
    "census_counts_at",
    "census_total",
    "count_dtype",
    "eratosthenes_flags",
    "gaussian_brute_irreducible",
    "hilbert_classify",
    "hold",
    "is_gaussian_prime",
    "is_monoid_prime",
    "oracle_find_crossover",
    "oracle_fit_arrays",
    "oracle_fit_model",
    "oracle_gaussian_census",
    "oracle_mape",
    "oracle_monoid_census",
    "oracle_prime_running_counts",
    "oracle_quad_census",
    "oracle_read_series_csv",
    "oracle_squared_error",
    "oracle_thin",
    "quad_divide_exact",
    "quad_is_irreducible",
    "quad_is_unit",
    "quad_mul",
    "quad_norm",
    "series_rows",
    "table_primes",
    "trial_division_is_prime",
    "whole_counts",
    "write_series_csv",
}


def test_package_exports():
    assert len(primelab.__all__) == len(PUBLIC) == 18
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
    # every function and class the oracles define is listed, so a new one must be too
    defined = {name for name, value in vars(oracles).items()
               if (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == oracles.__name__}
    assert defined <= ORACLES, defined - ORACLES
