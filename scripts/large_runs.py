#!/usr/bin/env python3
"""The paper's evidence at scale, one row per command: python scripts/large_runs.py

Each row runs from the repository root in a child of its own (PYTHONPATH=src and
the row's environment) and passes on its exit code, stdout (None: not read),
timeout, peak RSS bound (os.wait4) and output sha256s: fixed, or from the oracles
of tests/oracles.py once the last child has exited, since a child's peak counts
the pages it inherits from this process, which holds no numpy till then.
"""

import functools
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Row(NamedTuple):
    argv: tuple  # after the interpreter
    stdout: str | None = None
    bound_mb: float = 1536  # the north star's bound on every command
    code: int = 0
    timeout_s: float = 300
    env: dict = {}
    sha256: dict = {}  # path: its digest, or a function that makes it
    removes: str | None = None  # a path deleted after the row's checks


def primelab(line):
    return ("-m", "primelab", *line.split())


def oracle_sha256(domain):
    """The sha256 of the domain's series CSV from whole oracle counts, not stream_series."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from oracles import (oracle_gaussian_census, oracle_monoid_census, oracle_quad_census,
                         series_csv_sha256)
    from primelab import MonoidParams, RegionSpec, estimate_pi_d, estimate_pi_G

    if domain == "gauss":
        return series_csv_sha256(np.arange(2, 10**7 + 1), oracle_gaussian_census(10**7, "both-axes"),
                                 lambda x: estimate_pi_G(np.sqrt(x)))
    if domain == "monoid":
        return series_csv_sha256(np.arange(51, 10**8 + 1, 50),
                                 oracle_monoid_census(MonoidParams(d=50, limit=10**8)),
                                 lambda x: estimate_pi_d(50, x))
    return series_csv_sha256(np.arange(1, 10**6 + 1), oracle_quad_census(1, RegionSpec("norm-ball", 10**6)),
                             lambda x: np.full(x.shape, np.nan))


# Mape sums a sparse block past 2^16 per run of one count, from the estimate's
# closed-form run sum; OracleMape sums every block per point, as Mape did before.
# Both read one streamed pass of the 10^8-norm Gaussian census (1,525 of its 1,526
# blocks go per run) and must give the same repr, to the last bit: the bits held
# on this census, though not on every input (series.RUN_SUM_START)
MAPE_CHECK = """# Mape and OracleMape over the 10^8-norm Gaussian census, to the last bit
from oracles import OracleMape
from primelab import gaussian_census, series
census, error, oracle = gaussian_census(10**8, "both-axes"), series.Mape(), OracleMape()
series.scan(series.stream_series(census), error, oracle)
got, want = repr(error.result()[0]), repr(oracle.result()[0])
raise SystemExit(None if got == want else f"{census.describe()}: Mape {got}, OracleMape {want}")
"""

# the fit of the 10^7-norm Gaussian series, from its census and from its series
# CSV (captured before the fit's search was screened)
FIT_GAUSS_1E7 = "c=1.39876 e=1.09605 rms_rel_err=0.00166389\n"
GUARD_1E9 = {"PRIMES_LAB_MAX_LIMIT": "1000000000"}

ROWS = [
    # numpy picks its float kernels (np.log, np.exp, ...) by the CPU it imports on, and
    # on an AVX-512 host those kernels give other bits over 10^7 points than the AVX2
    # ones. So the quad_growth fits and the 10^7-norm fit line must come out the same
    # with every kernel in use ("") as with the AVX-512 ones disabled (the workflow
    # runs the golden corpus that way too). numpy ignores a named feature that the CPU
    # does not have: with the pinned numpy on a host without AVX-512 it imports and
    # runs the same. The quad_growth fits must be those that the script wrote while it
    # looked its thinned points up on a custom grid (hashes captured before it took
    # them as rows of the census's series). The 10^7-norm fit must print what the whole
    # unscreened search printed (captured before the screen went in). fit streams its
    # census into binned moment sums, one block at a time, and holds no array per
    # point: at 10^7 norms it measured 36.9 MB, against 264 MB while it filled three
    # float64 arrays per fitted point, so its bound is 64 MB
    *(row for env in ({"NPY_DISABLE_CPU_FEATURES": ""},
                      {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}) for row in (
        *(Row(("scripts/quad_growth.py", "--bound", "2000", *flag, "--csv", path), env=env,
              sha256={path: digest}) for flag, path, digest in (
            ((), "out/quad_norm_ball.csv",
             "10702fb8afa9710b415249f7f7533848b5cacde97e3bea9ef4ddc553f5c6a0df"),
            (("--euclidean",), "out/quad_euclidean.csv",
             "77a85a6e5e877ed9d3363d5a5a4ad76ab3d51fff57218e184f37af82958a9678"))),
        Row(primelab("fit --domain gauss --norm-limit 10000000"),
            "fit domain=gaussian norm_limit=10000000 axes=both-axes: " + FIT_GAUSS_1E7, 64, env=env),
    )),
    # The default-guard runs stay under 1.5 GB. gauss and table2 stream their census
    # through their statistics and writers in one pass, so they hold one 4 MB window of
    # sieve flags, one 256 KB block of counts and one block's columns, whatever the
    # bound. About 29 MB of each peak is the interpreter and numpy. The 10^8-norm
    # Gaussian run also draws its chart (--svg), which keeps the at most 2,001 rows it
    # draws: it measured 37.0 MB, against 415 MB while the census held 4 B per norm, so
    # its bound is 64 MB. The 10^8 gauss and monoid runs must print what they printed
    # while every statistic still read all five columns of each block (captured before
    # mape and find_crossover computed only the columns they read), which checks MAPE
    # at that size
    Row(primelab("gauss --norm-limit 100000000 --svg out/gauss_1e8.svg"),
        "gauss norm-limit=100000000 axes=both-axes: count=5762247 mape=6.175%\n"
        "wrote out/gauss_1e8.svg\n", 64),
    # table2 --csv --svg (norm bounds to 10^7, its chart included) measured 36.8 MB,
    # against 71.8 MB: bound 64 MB. It must print what it printed while it read its
    # census whole
    Row(primelab("table2 --csv out/gauss_mape.csv --svg out/gauss_1e7.svg"),
        "norm-bound=1000: mape=19.104%\nnorm-bound=10000: mape=14.309%\n"
        "norm-bound=100000: mape=10.912%\nnorm-bound=1000000: mape=8.695%\n"
        "norm-bound=10000000: mape=7.220%\nwrote out/gauss_mape.csv\nwrote out/gauss_1e7.svg\n", 64),
    # table1 --csv --svg-dir (moduli 3 to 50 at 10^4, a chart each) measured 30.4 MB
    # in 0.23 s on 2 vCPU x86-64: bound 64 MB, as for table2
    Row(primelab("table1 --csv out/table1.csv --svg-dir out/table1"),
        "".join(f"d={d}: {line}\nwrote out/table1/monoid_d{d}.svg\n" for d, line in (
            (3, "largest=10000 count=1380 estimate=1590.21 R=0.86781 mape=10.02%"),
            (5, "largest=9996 count=1210 estimate=1282.34 R=0.94358 mape=3.87%"),
            (7, "largest=9997 count=1009 estimate=1039.97 R=0.97022 mape=2.38%"),
            (9, "largest=10000 count=851 estimate=868.19 R=0.98020 mape=2.17%"),
            (11, "largest=10000 count=745 estimate=742.93 R=1.00279 mape=2.74%"),
            (13, "largest=9998 count=653 estimate=648.33 R=1.00720 mape=2.96%"),
            (21, "largest=9997 count=438 estimate=428.29 R=1.02268 mape=3.72%"),
            (50, "largest=9951 count=196 estimate=190.38 R=1.02953 mape=2.94%"),
        )) + "wrote out/table1.csv\n", 64),
    # With the guard raised, the 10^9-norm Gaussian census measured 39.4 MB in 24 s:
    # bound 150 MB; its count, 50,850,399, is also what the mod-4 floor-quotient count
    # of pi(N;4,1) and pi(sqrt N;4,3) gives
    Row(primelab("gauss --norm-limit 1000000000"),
        "gauss norm-limit=1000000000 axes=both-axes: count=50850399 mape=5.397%\n", 150,
        env=GUARD_1E9),
    # The monoid census streams from the same windowed sieve, run over the elements of
    # A_d: monoid --d 3 at 10^8 measured 35.8 MB, against 188.6 MB while it marked one
    # bool per element and held int32 counts for all of them, so its bound is 64 MB
    Row(primelab("monoid --d 3 --limit 100000000"), "monoid d=3 limit=100000000: count=7715403 "
        "estimate(100000000)=12621477.19 R=0.61129 mape=58.86%\n", 64),
    # at 10^8 norms or integers the fit measured 36.9 and 37.0 MB, against 2,323 MB:
    # bound 64 MB. Both fits must print what the search printed while it evaluated its
    # near-ties exactly over per-point arrays, which checks that the fit from binned
    # moments keeps its digits at those sizes
    Row(primelab("fit --domain gauss --norm-limit 100000000"),
        "fit domain=gaussian norm_limit=100000000 axes=both-axes: "
        "c=1.33552 e=1.07899 rms_rel_err=0.000706826\n", 64),
    Row(primelab("fit --domain classical --limit 100000000"),
        "fit domain=classical limit=100000000: c=1.32164 e=1.0754 rms_rel_err=0.000392934\n", 64),
    # The quadratic census at d=1 and 10^6 (10^6 grid cells) adds about 6 MB of arrays
    # (6 B per cell: the int32 norm grid, the marks and one mask) to the 29 MB of the
    # interpreter and numpy, then, once the grid is freed, 4 B per irreducible (the
    # bound at which each is counted) and one block of counts: it measured 35.0 MB,
    # against 53 MB with an int64 grid and a walk over whole cofactor views, so its
    # bound is 45 MB. The d=5 census at 10^6, the quad-rings benchmark's peak, has the
    # same bound: it measured 31.7 MB, against 34.1 MB while it held int32 counts for
    # every bound point
    Row(primelab("quad --d 1 --bound 1000000"), None, 45),
    Row(primelab("quad --d 5 --bound 1000000"), None, 45),
    # At the census's maximum largest norm, 10^8, the d=1 grid has the most cells
    # (about 10^8): it measured 602 MB in 10 s on 2 vCPU, so its bound is 800 MB, and
    # its count must be the 10^8-norm Gaussian count above; d=5 has a fifth of those
    # cells and measured 286 MB in 3.3 s, so its bound is 400 MB
    Row(primelab("quad --d 1 --bound 100000000"),
        "quad d=1 norm-ball bound=100000000: irreducibles=5762247\n", 800),
    Row(primelab("quad --d 5 --bound 100000000"),
        "quad d=5 norm-ball bound=100000000: irreducibles=4839639\n", 400),
    Row(("-c", MAPE_CHECK), env={"PYTHONPATH": "src:tests"}),
    # every output is created before the census's first window, so with the guard
    # raised to 10^9 an unwritable --svg must exit 4 with nothing on stdout well inside
    # 10 s; the 10^9-norm census that it skips ran 24 s above
    Row(primelab("gauss --norm-limit 1000000000 --svg missing/x.svg"), "", code=4, timeout_s=10,
        env=GUARD_1E9),
    # The series CSV writer formats a block at a time by numpy digit arithmetic and
    # leaves rows near a rounding tie to the printf-style row format; each file must
    # hash as that row format applied to every row of the same series. The d=50 monoid
    # estimates pass 10^6, so rows print in e+06 notation. quad --d 1 --bound 10^6
    # writes the one series CSV with empty fields (no estimate: every derived column is
    # empty), from x = 1; it hashes against the former product sieve's counts
    *(Row(primelab(f"{line} {path}"), sha256={path: functools.partial(oracle_sha256, line.split()[0])})
      for line, path in (("gauss --norm-limit 10000000 --series-csv", "out/gauss_series.csv"),
                         ("monoid --d 50 --limit 100000000 --series-csv", "out/monoid_series.csv"),
                         ("quad --d 1 --bound 1000000 --csv", "out/quad_series.csv"))),
    Row(primelab("gauss --norm-limit 30000000 --series-csv out/gauss_3e7_series.csv")),
    # fit --from-csv reads the 10^7-row gauss file back: it must print the fit that fit
    # --domain gauss --norm-limit 10000000 prints, and stay under 64 MB. The reader is
    # a source of blocks: the fit's pass parses one block of lines at a time and hands
    # on x and actual COUNT_BLOCK rows at a time, so nothing is held per row: on a
    # 2 vCPU x86-64 host it measured 36 MB, against 185 MB while the reader made x and
    # actual whole (16 B/row), 336 MB while the fit also held three float64 arrays per
    # row and 563 MB while the reader parsed every row at once. The 3*10^7-row gauss
    # file is read back the same way: its fit must print what fit --domain gauss
    # --norm-limit 30000000 printed (captured before the reader parsed blocks), and
    # stay under 64 MB; it measured 36 MB on that host, against 490 MB with x and
    # actual whole and 947 MB with the fit's arrays. Its 1.2 GB go once it is read.
    # fit --from-csv on the quad file must print the fit that fit --domain quad --d 1
    # --bound 1000000 prints, under 64 MB (38 MB on that host)
    Row(primelab("fit --from-csv out/gauss_series.csv"), "fit source=csv: " + FIT_GAUSS_1E7, 64),
    Row(primelab("fit --from-csv out/gauss_3e7_series.csv"),
        "fit source=csv: c=1.36682 e=1.08741 rms_rel_err=0.00107167\n", 64,
        removes="out/gauss_3e7_series.csv"),
    Row(primelab("fit --from-csv out/quad_series.csv"),
        "fit source=csv: c=1.4615 e=1.11325 rms_rel_err=0.00485453\n", 64),
]


def describe(row):
    argv = [arg.splitlines()[0] for arg in row.argv]  # a -c program by its first line
    return " ".join([*(f"{name}={value!r}" for name, value in row.env.items()), *argv])


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def run(rows):
    """Run each row in a child of its own and print one line for it, then one
    line for each sha256 that a function makes; True if every row passed."""
    env, failed, later = {**os.environ, "PYTHONPATH": "src"}, False, []
    for row in rows:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, *row.argv], cwd=ROOT, env={**env, **row.env},
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
            # os.kill, not proc.kill, which would reap an exited child before wait4
            timer = threading.Timer(row.timeout_s, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            out = proc.stdout.read()
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        wall, peak_mb = time.perf_counter() - start, usage.ru_maxrss / 1024  # Linux: KiB
        problems = [problem for fails, problem in (
            (code != row.code, f"exit {code}, not {row.code}"),
            (wall >= row.timeout_s, f"killed at its {row.timeout_s:g} s timeout"),
            (peak_mb >= row.bound_mb, f"peak {peak_mb:.1f} MB over its bound"),
            (row.stdout not in (None, out), f"stdout {out!r}, not {row.stdout!r}")) if fails]
        for path, want in row.sha256.items():
            got = file_sha256(ROOT / path) if (ROOT / path).is_file() else "no file"
            if callable(want):
                later.append((describe(row), path, got, want))
            elif got != want:
                problems.append(f"sha256 of {path} {got}, not {want}")
        if row.removes is not None:
            (ROOT / row.removes).unlink(missing_ok=True)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {describe(row)}: exit {code}, peak "
              f"{peak_mb:.1f} MB (bound {row.bound_mb:g} MB), {wall:.1f} s", *problems,
              sep="; ", flush=True)
    for name, path, got, want in later:
        same = got == want()
        failed |= not same
        print(f"{'ok  ' if same else 'FAIL'} {name}: sha256 of {path} "
              f"{'equals' if same else 'differs from'} the oracle's", flush=True)
    return not failed


if __name__ == "__main__":
    (ROOT / "out").mkdir(exist_ok=True)
    sys.exit(not run(ROWS))
