import errno
import os
import subprocess
import sys
import tempfile
import time
from datetime import timedelta

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from primelab import quadratic, report, sieve
from primelab.cli import EXIT_GUARD, EXIT_IO, EXIT_OK, EXIT_USAGE, run_cli


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_monoid_summary_row(tmp_path, capsys):
    csv = tmp_path / "d3.csv"
    code, out, _ = run(
        ["monoid", "--d", "3", "--limit", "10000", "--eval-at", "largest", "--csv", str(csv)],
        capsys,
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[1].startswith("3,10000,1380,1590.21,0.86781,0.13219,")
    assert "count=1380" in out


def test_monoid_eval_at_limit_default(capsys):
    code, out, _ = run(["monoid", "--d", "5", "--limit", "9998"], capsys)
    assert code == 0
    # default evaluates at the requested bound, not the largest element 9996
    assert "estimate(9998)" in out


def test_monoid_rejects_small_modulus(capsys):
    code, _, err = run(["monoid", "--d", "1", "--limit", "100"], capsys)
    assert code == 2
    assert "d must be" in err


def test_quad_rejects_real_rings(capsys):
    code, _, err = run(["quad", "--d", "-7", "--bound", "100"], capsys)
    assert code == 2
    assert "infinitely many units" in err


def test_quad_refuses_d_0_as_below_the_minimum(capsys):
    code, out, err = run(["quad", "--d", "0", "--bound", "10"], capsys)
    assert (code, out, err) == (2, "", "error: d must be an integer >= 1, got 0\n")


def test_fit_domain_gauss_fits_the_both_axes_series(capsys):
    code, _, err = run(["fit", "--domain", "gauss", "--norm-limit", "1000", "--dedupe-axes"],
                       capsys)
    assert code == 2 and "unrecognized arguments: --dedupe-axes" in err
    code, out, _ = run(["fit", "--domain", "gauss", "--norm-limit", "1000"], capsys)
    assert code == 0
    assert out.startswith("fit domain=gaussian norm_limit=1000 axes=both-axes: ")


def test_missing_subcommand(capsys):
    assert run([], capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(["--help"], capsys)[0] == 0


def test_resource_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "1000")
    code, _, err = run(["monoid", "--d", "3", "--limit", "2000"], capsys)
    assert code == 3
    assert "resource guard" in err
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "2000")
    assert run(["monoid", "--d", "3", "--limit", "2000"], capsys)[0] == 0
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "a lot")
    assert run(["monoid", "--d", "3", "--limit", "2000"], capsys)[0] == 3


def test_guard_default_without_env(capsys, monkeypatch):
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    code, _, err = run(["gauss", "--norm-limit", str(2 * 10**8)], capsys)
    assert code == 3


def test_guard_bounds_ring_parameter(capsys, monkeypatch):
    # squarefree validation trial-divides up to sqrt(d): the guard must act first
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    code, _, err = run(["quad", "--d", "100000000000000003", "--bound", "10"], capsys)
    assert code == 3
    assert "d=100000000000000003 exceeds resource guard" in err


def test_guard_bounds_largest_norm(capsys, monkeypatch):
    # the Euclidean disc holds norms up to d*bound: refused before any census work
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    start = time.perf_counter()
    code, _, err = run(["quad", "--d", "99999989", "--bound", "1000000", "--euclidean"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "largest norm=99999989000000 exceeds resource guard 100000000" in err
    assert run(["quad", "--d", "99999989", "--bound", "10", "--euclidean"], capsys)[0] == 3
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "1000")
    assert run(["quad", "--d", "5", "--bound", "200", "--euclidean"], capsys)[0] == 0
    assert run(["quad", "--d", "5", "--bound", "201", "--euclidean"], capsys)[0] == 3
    assert run(["quad", "--d", "5", "--bound", "1000"], capsys)[0] == 0
    assert run(["quad", "--d", "5", "--bound", "1001"], capsys)[0] == 3


def test_quad_counts_above_its_former_cap(capsys, monkeypatch):
    # the census once stopped at 10^6; at d = 1 it counts the Gaussian primes
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    code, out, _ = run(["quad", "--d", "1", "--bound", "1000001"], capsys)
    gauss_code, gauss_out, _ = run(["gauss", "--norm-limit", "1000001"], capsys)
    assert code == gauss_code == 0
    count = gauss_out.split("count=")[1].split()[0]
    assert out == f"quad d=1 norm-ball bound=1000001: irreducibles={count}\n"


def test_census_maximum_above_a_raised_guard(capsys, monkeypatch):
    # a raised guard passes the size on, and each census refuses its own maximum
    # (2^40 for the sieve, 10^8 for the quadratic grid) with exit 2, naming the
    # parameter, before any census work
    def census_work(*args):
        raise AssertionError("census work for a refused census")

    monkeypatch.setattr(sieve, "_prime_windows", census_work)
    monkeypatch.setattr(quadratic, "_mark_reducible", census_work)
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "2000000000000")
    code, out, err = run(["gauss", "--norm-limit", "1099511627777"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: norm_limit 1099511627777 exceeds maximum 1099511627776\n"
    code, out, err = run(["quad", "--d", "1", "--bound", "100000001"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: largest norm 100000001 exceeds maximum 100000000\n"
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "1000000000")
    start = time.perf_counter()
    code, out, err = run(["quad", "--d", "1", "--bound", "1000000000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: largest norm 1000000000 exceeds maximum 100000000\n"


# every output flag of each table command
TABLE_OUTPUTS = {
    "table1": ["--csv", "t.csv", "--svg-dir", "figs"],
    "table2": ["--csv", "t.csv", "--svg", "t.svg"],
}


# the guard error of each table command, naming its fixed census size
TABLE_GUARD_ERRORS = {
    "table1": "error: limit=10000 exceeds resource guard 1000\n",
    "table2": "error: norm-limit=10000000 exceeds resource guard 1000\n",
}


@pytest.mark.parametrize("outputs", ["csv", "all"])
@pytest.mark.parametrize("command", sorted(TABLE_OUTPUTS))
def test_guard_covers_tables(command, outputs, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIMES_LAB_MAX_LIMIT", "1000")
    monkeypatch.chdir(tmp_path)
    argv = [command, *TABLE_OUTPUTS[command][: 2 if outputs == "csv" else None]]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (EXIT_GUARD, "", TABLE_GUARD_ERRORS[command])
    assert not any(tmp_path.iterdir())


def test_fit_rejects_malformed_series_csv(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("x,actual,estimate,ratio,abs_pct_err\n2,1,0.5\n")
    code, _, err = run(["fit", "--from-csv", str(path)], capsys)
    assert code == 2
    assert "short.csv line 2" in err


def test_unwritable_output(tmp_path, capsys, monkeypatch):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(["monoid", "--d", "3", "--limit", "100", "--csv", str(target)], capsys)
    assert code == 4
    # an empty path names no file: an I/O failure, not an omitted option
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gauss", "--norm-limit", "100", "--csv", ""],
        ["gauss", "--norm-limit", "100", "--series-csv", ""],
        ["gauss", "--norm-limit", "100", "--svg", ""],
        ["quad", "--d", "5", "--bound", "100", "--csv", ""],
        ["quad", "--d", "5", "--bound", "100", "--svg", ""],
        ["table1", "--svg-dir", ""],
    ):
        assert run(argv, capsys)[0] == 4, argv
    # the error names the path as given, not the directory "." that pathlib reads "" as
    for argv in (
        ["gauss", "--norm-limit", "100", "--csv", ""],
        ["gauss", "--norm-limit", "100", "--svg", ""],
        ["fit", "--domain", "classical", "--limit", "100", "--csv", ""],
        ["table2", "--csv", ""],
    ):
        code, _, err = run(argv, capsys)
        assert code == 4 and "''" in err and "'.'" not in err, (argv, err)


def test_empty_census_writes_no_artifact(tmp_path, capsys):
    series_csv, svg = tmp_path / "s.csv", tmp_path / "g.svg"
    argv = ["gauss", "--norm-limit", "1", "--series-csv", str(series_csv), "--svg", str(svg)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "") and "census holds no primes" in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_fails_before_the_summary(tmp_path, capsys):
    """Every output is created before the pass, in the order of the flags:
    an unwritable one exits 4 before the summary line, and the outputs after
    it are not made."""
    csv, missing = tmp_path / "g.csv", tmp_path / "no" / "s.csv"
    argv = ["gauss", "--norm-limit", "100", "--csv", str(csv), "--series-csv", str(missing),
            "--svg", str(tmp_path / "g.svg")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_IO, "") and "No such file or directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv"] and csv.read_text() == ""


def test_an_unwritable_output_leaves_no_file_open(tmp_path, capsys, monkeypatch):
    """The series CSV, open from its creation on, is closed when a later
    output fails and when the pass fails."""
    made, writer = [], report.SeriesCsvWriter
    monkeypatch.setattr(report, "SeriesCsvWriter", lambda path: made.append(writer(path)) or made[-1])
    series_csv = str(tmp_path / "s.csv")
    argv = ["gauss", "--norm-limit", "100", "--series-csv", series_csv,
            "--svg", str(tmp_path / "no" / "g.svg")]
    assert run(argv, capsys)[:2] == (EXIT_IO, "")

    def failing_windows(d, limit):
        raise OSError("the sieve failed")

    monkeypatch.setattr(sieve, "_prime_windows", failing_windows)
    assert run(["gauss", "--norm-limit", "100", "--series-csv", series_csv], capsys)[:2] == (
        EXIT_IO, "")
    assert len(made) == 2 and all(w._file.closed for w in made)


# every output flag of every command, each given a path in a missing directory
UNWRITABLE_OUTPUTS = [
    [*command, flag, os.path.join("missing", "out")]
    for command, flags in (
        (["monoid", "--d", "3", "--limit", "10000"], ("--csv", "--series-csv", "--svg")),
        (["gauss", "--norm-limit", "10000"], ("--csv", "--series-csv", "--svg")),
        (["quad", "--d", "5", "--bound", "1000"], ("--csv", "--svg")),
        (["fit", "--domain", "classical", "--limit", "10000"], ("--csv",)),
        (["fit", "--domain", "gauss", "--norm-limit", "10000"], ("--csv",)),
        (["fit", "--domain", "quad", "--d", "5", "--bound", "1000"], ("--csv",)),
        (["fit", "--from-csv", "s.csv"], ("--csv",)),
        (["table1"], ("--csv", "--svg-dir")),
        (["table2"], ("--csv", "--svg")),
    )
    for flag in flags
]


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS, ids=" ".join)
def test_unwritable_output_exits_before_the_first_window(argv, tmp_path, capsys, monkeypatch):
    """No sieve window, and no product sieve of quad's ring, is made before an
    unwritable output is refused (fit --from-csv reads its input first)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text(SERIES_CSV)
    if argv[-2] == "--svg-dir":
        (tmp_path / "missing").write_text("")  # a file: no directory can be made there

    def no_window(*args):
        raise AssertionError("a census was sieved before the output was refused")

    monkeypatch.setattr(sieve, "_prime_windows", no_window)
    monkeypatch.setattr(quadratic, "_mark_reducible", no_window)
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_IO, ""), err


# the refusals of unwritable outputs at the default guard's largest censuses
FAST_REFUSALS = [
    ["gauss", "--norm-limit", "100000000", "--csv", "missing/g.csv"],
    ["gauss", "--norm-limit", "100000000", "--series-csv", "missing/s.csv"],
    ["gauss", "--norm-limit", "100000000", "--svg", "missing/x.svg"],
    ["fit", "--domain", "gauss", "--norm-limit", "10000000", "--csv", "missing/f.csv"],
    ["quad", "--d", "1", "--bound", "1000000", "--csv", "missing/q.csv"],
    ["quad", "--d", "1", "--bound", "1000000", "--svg", "missing/q.svg"],
    ["table1", "--svg-dir", ""],
]


@pytest.mark.parametrize("argv", FAST_REFUSALS, ids=" ".join)
def test_unwritable_output_is_refused_in_under_a_second(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (EXIT_IO, "") and "No such file or directory" in err
    assert elapsed < 1.0, elapsed


# two outputs of one command that name one file
SHARED_OUTPUTS = [
    ["monoid", "--d", "3", "--limit", "100", "--csv", "a.csv", "--series-csv", "./a.csv"],
    ["gauss", "--norm-limit", "100", "--csv", "a.csv", "--series-csv", "./a.csv"],
    ["gauss", "--norm-limit", "100", "--series-csv", "a.csv", "--svg", "./a.csv"],
    ["quad", "--d", "5", "--bound", "100", "--csv", "a.csv", "--svg", "./a.csv"],
    ["table2", "--csv", "a.csv", "--svg", "./a.csv"],
    ["table1", "--csv", "figs/monoid_d3.svg", "--svg-dir", "figs"],
]


@pytest.mark.parametrize("argv", SHARED_OUTPUTS, ids=" ".join)
def test_two_outputs_that_name_one_file_exit_2(argv, tmp_path, capsys, monkeypatch):
    """Outputs are compared by their real paths before any is made: two that
    name one file exit 2, print nothing and make no file or directory."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_USAGE, ""), err
    assert err.startswith(f"error: outputs {argv[-3]} and ") and err.endswith(" name one file\n")
    assert not any(tmp_path.iterdir())


def test_fit_may_overwrite_its_input_csv(tmp_path, capsys):
    """fit creates --csv before its pass without emptying it, and its pass
    reads --from-csv, so the two may name one file: the series is fitted,
    then replaced by the fit."""
    series = tmp_path / "s.csv"
    assert run(["monoid", "--d", "3", "--limit", "5000", "--series-csv", str(series)], capsys)[0] == 0
    code, line, _ = run(["fit", "--from-csv", str(series)], capsys)
    assert code == 0
    code, out, err = run(["fit", "--from-csv", str(series), "--csv", str(series)], capsys)
    assert (code, out, err) == (0, f"{line}wrote {series}\n", "")
    assert series.read_text().splitlines()[0] == "c,e,rms_rel_err"
    assert len(series.read_text().splitlines()) == 2


def test_gauss_summary_and_conventions(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    code, out, _ = run(["gauss", "--norm-limit", "10", "--csv", str(csv)], capsys)
    assert code == 0
    assert "count=5" in out
    code, out, _ = run(["gauss", "--norm-limit", "10", "--dedupe-axes"], capsys)
    assert code == 0
    assert "count=4" in out
    assert csv.read_text().splitlines()[0] == "norm_bound,mape_pct"


def test_quad_series_csv(tmp_path, capsys):
    csv = tmp_path / "q.csv"
    code, out, _ = run(["quad", "--d", "5", "--bound", "6", "--csv", str(csv)], capsys)
    assert code == 0
    assert "irreducibles=3" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,actual,estimate,ratio,abs_pct_err"
    assert lines[-1] == "6,3,,,"


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    paths = {}
    for tag in ("one", "two"):
        csv = tmp_path / f"{tag}.csv"
        series = tmp_path / f"{tag}_series.csv"
        svg = tmp_path / f"{tag}.svg"
        code, _, _ = run(
            [
                "monoid", "--d", "7", "--limit", "3000",
                "--csv", str(csv), "--series-csv", str(series), "--svg", str(svg),
            ],
            capsys,
        )
        assert code == 0
        paths[tag] = (csv.read_bytes(), series.read_bytes(), svg.read_bytes())
    assert paths["one"] == paths["two"]


def test_fit_roundtrip_through_csv(tmp_path, capsys):
    series = tmp_path / "series.csv"
    code, _, _ = run(
        ["monoid", "--d", "3", "--limit", "5000", "--series-csv", str(series)], capsys
    )
    assert code == 0
    out_csv = tmp_path / "fit.csv"
    code, out, _ = run(["fit", "--from-csv", str(series), "--csv", str(out_csv)], capsys)
    assert code == 0
    assert "c=" in out and "e=" in out
    assert out_csv.read_text().splitlines()[0] == "c,e,rms_rel_err"


def test_fit_classical(capsys):
    code, out, _ = run(["fit", "--domain", "classical", "--limit", "20000"], capsys)
    assert code == 0
    e = float(out.split("e=")[1].split()[0])
    assert 0.5 <= e <= 1.5


def test_fit_domain_streams_its_census(capsys):
    """fit --domain reads its census as a stream: a sieved census has no
    whole counts to read, and it prints its golden line."""
    assert not hasattr(sieve.SievedCensus, "cumulative")
    assert not hasattr(sieve.classical_census(20000), "cumulative")
    code, out, err = run(["fit", "--domain", "classical", "--limit", "20000"], capsys)
    assert (code, err) == (0, "")
    assert out == "fit domain=classical limit=20000: c=1.28326 e=1.05676 rms_rel_err=0.0112577\n"


def test_fit_requires_source(capsys):
    code, _, err = run(["fit"], capsys)
    assert code == 2
    code, _, err = run(["fit", "--from-csv", "", "--domain", "classical", "--limit", "100"], capsys)
    assert code == 2
    assert "choose either" in err


# each source of fit, census arguments it reads and does not, and the error naming the latter
UNREAD_FIT_ARGUMENTS = {
    "--domain classical": (["--limit", "20000", "--d", "7", "--norm-limit", "5", "--euclidean"],
                           "--d, --norm-limit, --euclidean"),
    "--domain monoid": (["--d", "3", "--limit", "100", "--bound", "0"], "--bound"),
    "--domain gauss": (["--norm-limit", "100", "--limit", "100"], "--limit"),
    "--domain quad": (["--d", "5", "--bound", "100", "--norm-limit", "9"], "--norm-limit"),
    "--from-csv": (["absent.csv", "--d", "0", "--euclidean"], "--d, --euclidean"),
}


@pytest.mark.parametrize("source", sorted(UNREAD_FIT_ARGUMENTS))
def test_fit_rejects_census_arguments_its_source_does_not_read(source, capsys):
    rest, unread = UNREAD_FIT_ARGUMENTS[source]
    argv = ["fit", *source.split(), *rest]
    code, out, err = run([*argv, "--csv", "f.csv"], capsys)
    assert (code, out, err) == (2, "", f"error: fit {source} does not read {unread}\n")
    # choosing both sources is still the first error
    code, _, err = run([*argv, "--from-csv" if "--domain" in argv else "--domain", "gauss"], capsys)
    assert code == 2 and "choose either --from-csv or --domain" in err


# each domain of fit with the census arguments given, and the error naming those missing
MISSING_FIT_ARGUMENTS = {
    "classical": "--limit is",
    "monoid": "--d and --limit are",
    "monoid --d 3": "--limit is",
    "monoid --limit 100": "--d is",
    "gauss": "--norm-limit is",
    "quad": "--d and --bound are",
    "quad --euclidean --bound 100": "--d is",
    "quad --d 5": "--bound is",
}


@pytest.mark.parametrize("source", sorted(MISSING_FIT_ARGUMENTS))
def test_fit_names_the_census_arguments_its_domain_misses(source, capsys):
    code, out, err = run(["fit", "--domain", *source.split()], capsys)
    missing, domain = MISSING_FIT_ARGUMENTS[source], source.split()[0]
    assert (code, out, err) == (2, "", f"error: {missing} required for the {domain} domain\n")


def test_fit_missing_input_file(tmp_path, capsys):
    code, _, _ = run(["fit", "--from-csv", str(tmp_path / "absent.csv")], capsys)
    assert code == 4
    code, _, _ = run(["fit", "--from-csv", ""], capsys)
    assert code == 4


def fifo(tmp_path):
    os.mkfifo(tmp_path / "fifo")
    return tmp_path / "fifo"


def long_first_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("x" * 10**7 + "\n" + report.SERIES_HEADER + "\n")
    return path


# fit --from-csv inputs that it cannot read as a series CSV: each is refused at
# once, not read whole (a device grew until a MemoryError, a FIFO blocked in open):
# the input, the exit code and the error after the path
UNREADABLE_INPUTS = {
    "dev-zero": (lambda _: "/dev/zero", 2, "is not a regular file"),
    "fifo": (fifo, 2, "is not a regular file"),
    "directory": (lambda tmp_path: tmp_path, 4, None),
    "long-first-line": (long_first_line, 2, "is not a series CSV (bad header)"),
}


def run_child(argv):
    """Run primelab in a child process that is killed after 10 s."""
    src = os.path.dirname(os.path.dirname(report.__file__))
    return subprocess.run([sys.executable, "-m", "primelab", *argv], capture_output=True,
                          text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("name", sorted(UNREADABLE_INPUTS))
def test_fit_refuses_an_input_it_cannot_read(tmp_path, name):
    make, code, reason = UNREADABLE_INPUTS[name]
    path = str(make(tmp_path))
    proc = run_child(["fit", "--from-csv", path])
    if reason is None:  # open's own error
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}"
    else:
        reason = f"{path} {reason}"
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"error: {reason}\n")
    assert "Traceback" not in proc.stderr


# outputs that open would block on, each refused at once (each of these blocked
# in open until it was killed), and a character device, which is written to:
# the command, its output and the exit code
DEVICE_OUTPUTS = [
    (["gauss", "--norm-limit", "100", "--csv"], fifo, EXIT_USAGE),
    (["gauss", "--norm-limit", "100", "--series-csv"], fifo, EXIT_USAGE),
    (["fit", "--domain", "classical", "--limit", "1000", "--csv"], fifo, EXIT_USAGE),
    (["quad", "--d", "5", "--bound", "100", "--svg"], fifo, EXIT_USAGE),
    (["gauss", "--norm-limit", "100", "--csv"], lambda _: "/dev/null", EXIT_OK),
]


@pytest.mark.parametrize("argv, make, code", DEVICE_OUTPUTS,
                         ids=[" ".join(argv) + f" {code}" for argv, _, code in DEVICE_OUTPUTS])
def test_a_fifo_output_exits_2_and_a_device_output_is_written(argv, make, code, tmp_path):
    path = str(make(tmp_path))
    proc = run_child([*argv, path])
    if code == EXIT_USAGE:
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr == f"error: output {path} is a FIFO or a socket\n"
    else:
        assert (proc.returncode, proc.stderr) == (code, "")
        assert proc.stdout.endswith(f"wrote {path}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_write_that_fails_after_creation_exits_4_after_the_printed_lines(capsys):
    """/dev/full opens, and only a write to it fails: the summary CSV is
    written after the summary line is printed, the series CSV during the
    pass, before any line."""
    summary = "gauss norm-limit=100 axes=both-axes: count=27 mape=25.359%\n"
    full = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    for flag, printed in (("--csv", summary), ("--series-csv", "")):
        argv = ["gauss", "--norm-limit", "100", flag, "/dev/full"]
        assert run(argv, capsys) == (EXIT_IO, printed, full), flag


def test_table1_summary(tmp_path, capsys):
    csv = tmp_path / "table.csv"
    code, out, _ = run(["table1", "--csv", str(csv)], capsys)
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 9
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "5", "7", "9", "11", "13", "21", "50"]
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == [1380, 1210, 1009, 851, 745, 653, 438, 196]


def test_monoid_svg_written(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    code, _, _ = run(["monoid", "--d", "4", "--limit", "500", "--svg", str(svg)], capsys)
    assert code == 0
    assert svg.read_text().startswith("<svg")


# A census with no primes, compared with an estimate: exit 2, nothing written.
EMPTY_CENSUS_COMMANDS = [
    ["monoid", "--d", "50", "--limit", "40", "--csv", "m.csv", "--svg", "m.svg"],
    ["monoid", "--d", "4", "--limit", "1", "--series-csv", "ms.csv"],
    ["gauss", "--norm-limit", "1", "--csv", "g.csv", "--series-csv", "gs.csv"],
    ["fit", "--domain", "monoid", "--d", "7", "--limit", "7", "--csv", "f.csv"],
    ["fit", "--domain", "gauss", "--norm-limit", "1"],
]


@pytest.mark.parametrize("argv", EMPTY_CENSUS_COMMANDS, ids=" ".join)
def test_empty_census_with_an_estimate_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: census holds no primes;")
    assert out == "" and not any(tmp_path.iterdir())


# The CLI property test: small argument values, any of them omitted, invalid,
# past a small resource guard or naming an empty census (limits 0..3, or
# limit <= d for a monoid); output paths that are writable or not.
GUARD = 4000
SIZES = st.one_of(st.integers(-2, 3), st.integers(4, GUARD), st.integers(-5, 2 * GUARD))
RINGS = st.one_of(st.integers(-3, 1), st.integers(2, 60))
SERIES_CSV = "x,actual,estimate,ratio,abs_pct_err\n" + "".join(
    f"{x},{x - 2},,,\n" for x in range(3, 23)
)


def option(flag, values):
    given_flag = values.map(lambda v: [flag, str(v)])
    return st.one_of(st.just([]), given_flag, given_flag, given_flag)  # given 3 times in 4


def switch(*argv):
    return st.sampled_from([[], list(argv)])


def output(flag, name):
    return st.sampled_from([[], [flag, name], [flag, os.path.join("absent", name)], [flag, ""]])


COMMAND_PARTS = {
    "monoid": [option("--d", RINGS), option("--limit", SIZES), switch("--eval-at", "largest"),
               output("--csv", "m.csv"), output("--series-csv", "ms.csv"),
               output("--svg", "m.svg")],
    "gauss": [option("--norm-limit", SIZES), switch("--dedupe-axes"), output("--csv", "g.csv"),
              output("--series-csv", "gs.csv"), output("--svg", "g.svg")],
    "quad": [option("--d", RINGS), option("--bound", SIZES), switch("--euclidean"),
             output("--csv", "q.csv"), output("--svg", "q.svg")],
    "fit": [option("--domain", st.sampled_from(["classical", "monoid", "gauss", "quad"])),
            st.sampled_from([[], ["--from-csv", "s.csv"], ["--from-csv", "absent.csv"]]),
            option("--d", RINGS), option("--limit", SIZES), option("--norm-limit", SIZES),
            option("--bound", SIZES), switch("--euclidean"), output("--csv", "f.csv")],
    "table1": [output("--csv", "t1.csv"), switch("--svg-dir", "figs")],
    "table2": [output("--csv", "t2.csv"), output("--svg", "t2.svg")],
}


@pytest.mark.parametrize("command", sorted(COMMAND_PARTS))
@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(data=st.data(), guard=st.sampled_from([str(GUARD), "10000"]))
def test_every_command_exits_with_a_documented_code(command, data, guard):
    argv = [command]
    for part in COMMAND_PARTS[command]:
        argv += data.draw(part)
    with tempfile.TemporaryDirectory() as workdir, pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        mp.setenv("PRIMES_LAB_MAX_LIMIT", guard)
        with open("s.csv", "w", encoding="utf-8") as f:
            f.write(SERIES_CSV)
        code = run_cli(argv)
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_GUARD, EXIT_IO), argv
