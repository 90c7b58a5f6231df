import hashlib
import importlib.util
import resource
from pathlib import Path

import numpy as np
import pytest
from oracles import oracle_gaussian_census, oracle_quad_census, series_csv_sha256

from primelab import RegionSpec, estimate_pi_G
from primelab.cli import _build_parser, run_cli


@pytest.fixture(scope="module")
def large_runs():
    """scripts/large_runs.py, loaded by its path."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "large_runs.py"
    spec = importlib.util.spec_from_file_location("large_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def above_this_process():
    """A peak bound in MB that a small child stays under: a child's peak
    counts the pages it inherits from the process that starts it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 256


WRITE_X = "import sys; open(sys.argv[1], 'w').write('x'); print('pinned')"
SHA256_X = hashlib.sha256(b"x").hexdigest()

# rows that fail one check each: the fields set on a row that passes every
# check (sha256: the digest of its output, or a function that makes it), and
# what its line says
FAULTS = {
    "stdout": ({"stdout": "other\n"}, "stdout 'pinned\\n', not 'other\\n'"),
    "peak": ({"bound_mb": 1}, "MB over its bound"),
    "exit-code": ({"code": 3}, "exit 0, not 3"),
    "sha256": ({"sha256": "0" * 64}, f"sha256 of out {SHA256_X}, not {'0' * 64}"),
    "later-sha256": ({"sha256": lambda: "0" * 64}, "sha256 of out differs from"),
    "timeout": ({"argv": ("-c", "import time; time.sleep(60)"), "stdout": "", "code": -9,
                 "timeout_s": 0.5}, "killed at its 0.5 s timeout"),
}


@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_the_runner_fails_a_row_on_each_check(fault, large_runs, tmp_path, capsys):
    out = tmp_path / "x.txt"
    row = large_runs.Row(("-c", WRITE_X, str(out)), "pinned\n", above_this_process(),
                         sha256={str(out): SHA256_X})
    if fault is None:
        assert large_runs.run([row, row._replace(sha256={str(out): lambda: SHA256_X})])
        assert capsys.readouterr().out.count("ok   -c import sys;") == 3
        return
    fields, reason = FAULTS[fault]
    sha256 = {str(out): fields.get("sha256", SHA256_X)}
    assert not large_runs.run([row._replace(**{**fields, "sha256": sha256})])
    printed = capsys.readouterr().out.replace(str(out), "out")
    assert "FAIL -c " in printed and reason in printed, printed


def test_every_primelab_row_parses_and_every_subcommand_has_one(large_runs):
    """A renamed flag fails here before it fails the large runs."""
    parser, commands = _build_parser(), set()
    for row in large_runs.ROWS:
        if row.argv[:2] == ("-m", "primelab"):
            commands.add(parser.parse_args(row.argv[2:]).subcommand)
    assert commands == {"monoid", "gauss", "quad", "fit", "table1", "table2"}


@pytest.mark.parametrize("argv, x, counts, estimate", [
    (["gauss", "--norm-limit", "100000", "--series-csv"], np.arange(2, 10**5 + 1),
     lambda: oracle_gaussian_census(10**5, "both-axes"), lambda x: estimate_pi_G(np.sqrt(x))),
    (["quad", "--d", "1", "--bound", "10000", "--csv"], np.arange(1, 10**4 + 1),
     lambda: oracle_quad_census(1, RegionSpec("norm-ball", 10**4)),
     lambda x: np.full(x.shape, np.nan)),
], ids=["gauss", "quad"])
def test_the_series_csv_oracle_hashes_what_the_command_writes(argv, x, counts, estimate,
                                                              tmp_path, capsys):
    path = tmp_path / "series.csv"
    assert run_cli([*argv, str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == series_csv_sha256(x, counts(), estimate)
