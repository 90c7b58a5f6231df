"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them live)."""

import math
import time

import numpy as np
import pytest

from oracles import (
    GaussPoint,
    HeldSeries,
    build_series,
    census_total,
    gaussian_brute_irreducible,
    hilbert_classify,
    is_gaussian_prime,
    is_monoid_prime,
    series_rows,
    whole_counts,
)
from primelab import (
    MonoidParams,
    RegionSpec,
    classical_census,
    estimate_pi_d,
    find_crossover,
    fit_model,
    gaussian_census,
    monoid_census,
    quad_census,
    ratio_R,
)
from primelab.cli import run_cli
from primelab.series import Mape, scan

TABLE1 = {
    # d: (largest element, count, estimate, R_d, mape %)
    3: (10000, 1380, 1590.21, 0.86781, 9.05),
    5: (9996, 1210, 1282.34, 0.94358, 3.81),
    7: (9997, 1009, 1039.97, 0.97022, 2.45),
    9: (10000, 851, 868.19, 0.98020, 2.28),
    11: (10000, 745, 742.93, 1.00279, 2.88),
    13: (9998, 653, 648.33, 1.00720, 3.10),
    21: (9997, 438, 428.29, 1.02268, 3.88),
    50: (9951, 196, 190.38, 1.02953, 3.03),
}

CROSSOVER_WINDOWS = {3: (2000, 600, 1000), 7: (10**4, 3400, 4800), 13: (25000, 12000, 16000)}

GAUSS_MAPE_BOUNDS = (10**3, 10**4, 10**5, 10**6, 10**7)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def table1_runs():
    # a census streams its counts, so the sieve runs in build_series's pass
    t0 = time.perf_counter()
    censuses = {d: monoid_census(MonoidParams(d, 10**4)) for d in TABLE1}
    series = {d: build_series(c) for d, c in censuses.items()}
    elapsed = time.perf_counter() - t0
    return censuses, series, elapsed


@pytest.fixture(scope="module")
def gauss_10m():
    t0 = time.perf_counter()
    census = gaussian_census(10**7, "both-axes")
    ser = build_series(census)  # the pass that sieves the census
    elapsed = time.perf_counter() - t0
    return census, ser, elapsed


def test_criterion_01_monoid_counts_exact(table1_runs):
    censuses, _, elapsed = table1_runs
    deltas = {}
    for d, (_, expected, _, _, _) in TABLE1.items():
        got = census_total(censuses[d])
        if got != expected:
            deltas[d] = got - expected
    ok = not deltas and elapsed < 10.0
    report("01 monoid counts", ok, f"eight censuses in {elapsed:.2f}s")
    # any delta would first need auditing against elements like 33 = 3 * 11,
    # whose only factorizations pass through numbers outside the monoid
    assert not deltas, f"count deltas vs published table: {deltas}"
    assert elapsed < 10.0


def test_criterion_02_estimates_at_largest_element():
    worst = 0.0
    for d, (x_eval, _, printed, _, _) in TABLE1.items():
        assert monoid_census(MonoidParams(d, 10**4)).change_grid()[-1] == x_eval
        worst = max(worst, abs(estimate_pi_d(d, x_eval) - printed))
    ok = worst <= 0.05
    report("02 estimates", ok, f"max |deviation| {worst:.4f} <= 0.05")
    assert ok


def test_criterion_03_accuracy_ratios(table1_runs):
    censuses, _, _ = table1_runs
    worst = 0.0
    for d, (x_eval, count, _, printed, _) in TABLE1.items():
        assert census_total(censuses[d]) == count
        r = ratio_R(count, estimate_pi_d(d, x_eval))
        worst = max(worst, abs(r - printed))
    ok = worst <= 0.0005
    report("03 ratios R_d", ok, f"max |deviation| {worst:.6f} <= 0.0005")
    assert ok


def test_criterion_04_mape(table1_runs):
    _, series, _ = table1_runs
    worst = 0.0
    for d, (_, _, _, _, printed) in TABLE1.items():
        scan(series[d].stream(), error := Mape())
        worst = max(worst, abs(error.result()[0] - printed))
    ok = worst <= 1.5
    report("04 MAPE", ok, f"max |deviation| {worst:.3f} <= 1.5 points")
    assert ok


def test_criterion_05_crossovers():
    results = {}
    for d, (limit, lo, hi) in CROSSOVER_WINDOWS.items():
        census = monoid_census(MonoidParams(d, limit))
        ser = build_series(census)
        results[d] = (find_crossover(ser.stream()), lo, hi)
    t0 = time.perf_counter()
    limit = 420_000
    census = monoid_census(MonoidParams(50, limit))
    ser = build_series(census)
    results[50] = (find_crossover(ser.stream()), 250_000, 420_000)
    d50_elapsed = time.perf_counter() - t0
    ok = d50_elapsed < 30.0 and all(
        x is not None and lo <= x <= hi for x, lo, hi in results.values()
    )
    report(
        "05 crossovers",
        ok,
        ", ".join(f"d={d}: x={x}" for d, (x, _, _) in sorted(results.items()))
        + f"; d=50 series in {d50_elapsed:.2f}s",
    )
    for d, (x, lo, hi) in results.items():
        assert x is not None and lo <= x <= hi, f"d={d} crossover {x} outside [{lo}, {hi}]"
    assert d50_elapsed < 30.0


def test_criterion_06_gaussian_mape_trend(gauss_10m):
    _, ser, elapsed = gauss_10m
    mapes = []
    for bound in GAUSS_MAPE_BOUNDS:
        upto = int(np.searchsorted(ser.x, bound, side="right"))
        pct = series_rows(ser, 0, upto)[4]
        mapes.append(float(pct[~np.isnan(pct)].mean()))
    decreasing = all(a > b for a, b in zip(mapes, mapes[1:]))
    final_ok = abs(mapes[-1] - 7.220) <= 2.0
    ok = decreasing and final_ok and elapsed < 60.0
    report(
        "06 gaussian MAPE",
        ok,
        "bounds 1e3..1e7 -> " + ", ".join(f"{m:.3f}" for m in mapes) + f"; census {elapsed:.2f}s",
    )
    assert decreasing, f"MAPE not strictly decreasing: {mapes}"
    assert final_ok, f"MAPE at 1e7 was {mapes[-1]:.3f}, expected 7.220 +/- 2.0"
    assert elapsed < 60.0


def test_criterion_07a_monoid_sieve_equals_trial_division():
    mismatches = 0
    for d in range(2, 13):
        census = monoid_census(MonoidParams(d, 10**4))
        flags = np.diff(whole_counts(census), prepend=0) > 0
        for n, flag in zip(census.change_grid(), flags.tolist()):
            if flag != is_monoid_prime(n, d):
                mismatches += 1
    report("07a monoid oracle", mismatches == 0, "d in 2..12, n <= 1e4")
    assert mismatches == 0


def test_criterion_07b_hilbert_equals_sieve(table_1m):
    census = monoid_census(MonoidParams(4, 10**6))
    flags = np.diff(whole_counts(census), prepend=0) > 0
    mismatches = sum(
        1
        for n, flag in zip(census.change_grid(), flags.tolist())
        if flag != hilbert_classify(n, table_1m)
    )
    report("07b Hilbert oracle", mismatches == 0, "d=4, n <= 1e6")
    assert mismatches == 0


def test_criterion_07c_gaussian_classifier_equals_brute_force(table_10k):
    mismatches = 0
    checked = 0
    for b in range(0, 101):
        for a in range(0 if b else 1, 101):
            if a * a + b * b > 10**4:
                break
            p = GaussPoint(a, b)
            checked += 1
            if is_gaussian_prime(p, table_10k) != gaussian_brute_irreducible(p):
                mismatches += 1
    report("07c gaussian oracle", mismatches == 0, f"{checked} points, norms <= 1e4")
    assert mismatches == 0


def test_criterion_07d_quadratic_d1_equals_gaussian():
    ser = build_series(quad_census(1, RegionSpec("norm-ball", 10**4)))
    census = gaussian_census(10**4, "both-axes")
    # bound 1 holds the units alone; the Gaussian census starts at norm 2
    equal = ser.actual[0] == 0 and np.array_equal(ser.actual[1:], whole_counts(census))
    report("07d quadratic d=1", equal, "norms <= 1e4")
    assert equal


def test_criterion_08_classical_baseline():
    ok = census_total(classical_census(10**4)) == 1229
    report("08 classical pi", ok, "pi(1e4) == 1229")
    assert ok


def test_criterion_09_fit_recovery():
    xs = np.unique(np.geomspace(10**3, 10**6, 80).astype(np.int64))
    worst = 0.0
    for c0, e0 in ((0.5, 1.0), (1 / 3, 1 / 3)):
        actual = np.maximum.accumulate(np.round(c0 * xs / np.log(xs) ** e0).astype(np.int64))
        fit = fit_model(HeldSeries(xs, actual).stream())
        worst = max(worst, abs(fit.c - c0) / c0, abs(fit.e - e0) / abs(e0))
    ok = worst <= 0.01
    report("09 fit recovery", ok, f"max relative error {worst:.4%} <= 1%")
    assert ok


def test_supplementary_growth_sanity(gauss_10m):
    # Landau-type normalization: pi_G(n) * ln(n) / n stays near 1
    _, ser, _ = gauss_10m  # its grid is the census's, from norm 2
    for n in (10**5, 10**6, 10**7):
        normalized = ser.actual[n - 2] * math.log(n) / n
        assert 0.8 <= normalized <= 1.3, (n, normalized)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        argv_sets = [
            ["monoid", "--d", "3", "--limit", "10000", "--eval-at", "largest",
             "--csv", str(base / "m.csv"), "--series-csv", str(base / "ms.csv"),
             "--svg", str(base / "m.svg")],
            ["gauss", "--norm-limit", "10000",
             "--csv", str(base / "g.csv"), "--series-csv", str(base / "gs.csv"),
             "--svg", str(base / "g.svg")],
            ["quad", "--d", "2", "--bound", "2000", "--csv", str(base / "q.csv"),
             "--svg", str(base / "q.svg")],
        ]
        for argv in argv_sets:
            assert run_cli(argv) == 0
        capsys.readouterr()
        outputs.append({p.name: p.read_bytes() for p in sorted(base.iterdir())})
    ok = outputs[0] == outputs[1]
    report("10 determinism", ok, "CSV and SVG bytes identical across reruns")
    assert ok
