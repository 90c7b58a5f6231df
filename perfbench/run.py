#!/usr/bin/env python3
"""primelab benchmark: whole CLI and script invocations, one fresh interpreter each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-summary --seed 0 --seconds 20 --trace 0

The checkout's own ``src/`` is measured (PYTHONPATH=<checkout>/src, and the
imported ``primelab.__file__`` is checked).  The seed picks each command's
parameter from a short list of choices of similar cost; seed 0 runs the
first choice of every list.  Commands run one at a time in a closed loop:
one warm-up pass (compiled bytecode, page cache) is discarded, then whole
passes repeat until ``--seconds`` of measuring have passed.  Every command
is checked: exit code 0, printed counts and fit numbers, and the sha256 of
every CSV/SVG it writes (see expected.json), and the Gaussian count against
the closed form 1 + 2*pi(N;4,1) + 2*pi(isqrt(N);4,3) from a sieve of our own.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with traced passes (perfbench/traced.py) and reports the per-layer
metrics.  The last line of stdout is one JSON object.  See README.md in this
directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRIPTS = ("scripts/regen_tables.py", "scripts/crossover_hunt.py", "scripts/quad_growth.py")
TMP_ROOT = ROOT / ".perfbench_tmp"
GUARD_ENV = "PRIMES_LAB_MAX_LIMIT"

COMMAND_TIMEOUT_S = 60.0
# No pass starts later than this after start, and no child outlives the
# second limit, so a run exits within 180 s.
RUN_DEADLINE_S = 150.0
KILL_DEADLINE_S = 175.0
# Launches of `python -m primelab --help` before each measured pass.
SETUP_LAUNCHES = 4


@dataclass(frozen=True)
class Command:
    """One invocation after the interpreter; "{tmp}" is the pass's scratch dir."""

    argv: tuple[str, ...]
    check: str = "none"  # stdout check: monoid, gauss, quad, fit or none
    outputs: tuple[str, ...] = ()  # artifacts under {tmp}: files or directories

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _cli(*args) -> tuple[str, ...]:
    return ("-m", "primelab", *map(str, args))


# Parameter choices per workload; every choice of a list costs about the same.
CHOICES = {
    "census-summary": {
        "monoid_d": (50, 48, 52),
        "gauss_norm": (20_000_000, 19_990_000, 20_010_000),
    },
    "quad-rings": {
        "quad_bound": (1_000_000, 999_000, 998_000),
        "euclid_d": (6, 5),
    },
    "series-io": {
        "gauss_norm": (1_000_000, 999_000, 1_001_000),
        "classical_limit": (1_000_000, 999_000, 1_001_000),
    },
}


def commands(workload: str, pick: dict[str, int]) -> list[Command]:
    if workload == "census-summary":
        return [
            Command(_cli("monoid", "--d", pick["monoid_d"], "--limit", 10**8), "monoid"),
            Command(_cli("gauss", "--norm-limit", pick["gauss_norm"]), "gauss"),
            Command(("scripts/regen_tables.py", "--out", "{tmp}/tables"), outputs=("tables",)),
            Command(("scripts/crossover_hunt.py", "--csv", "{tmp}/crossovers.csv"),
                    outputs=("crossovers.csv",)),
        ]
    if workload == "quad-rings":
        return [
            Command(("scripts/quad_growth.py", "--csv", "{tmp}/quad_fits.csv"),
                    outputs=("quad_fits.csv",)),
            Command(_cli("quad", "--d", 5, "--bound", pick["quad_bound"]), "quad"),
            Command(_cli("quad", "--d", pick["euclid_d"], "--euclidean", "--bound", 150_000), "quad"),
        ]
    if workload == "series-io":
        series = f"gauss_{pick['gauss_norm']}"  # names the input, so the fit's pin key does too
        return [
            Command(_cli("gauss", "--norm-limit", pick["gauss_norm"],
                         "--series-csv", f"{{tmp}}/{series}.csv", "--svg", f"{{tmp}}/{series}.svg"),
                    "gauss", (f"{series}.csv", f"{series}.svg")),
            Command(_cli("fit", "--from-csv", f"{{tmp}}/{series}.csv", "--csv", "{tmp}/fit.csv"),
                    "fit", ("fit.csv",)),
            Command(_cli("fit", "--domain", "classical", "--limit", pick["classical_limit"]), "fit"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pick_for_seed(workload: str, seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    return {name: opts[0] if seed == 0 else rng.choice(opts)
            for name, opts in CHOICES[workload].items()}


def gaussian_prime_count(n: int) -> int:
    """1 + 2*pi(n;4,1) + 2*pi(isqrt(n);4,3): first-quadrant Gaussian primes of
    norm <= n with axis primes on both axes, by an independent sieve."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    root = math.isqrt(n)
    return 1 + 2 * int(flags[1::4].sum()) + 2 * int(flags[3 : root + 1 : 4].sum())


_NUMBER = r"([-+0-9.eEnaif]+)"
_PATTERNS = {
    "monoid": re.compile(r"count=(\d+)"),
    "quad": re.compile(r"irreducibles=(\d+)"),
    "fit": re.compile(rf"c={_NUMBER} e={_NUMBER} rms_rel_err={_NUMBER}"),
}


class Checker:
    """Output checks for one workload's commands; expectations are pinned in
    expected.json, except the Gaussian counts, which are computed here."""

    def __init__(self, cmds: list[Command]) -> None:
        self.expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
        self.gauss = {}
        for cmd in cmds:
            if cmd.check == "gauss":
                n = int(cmd.argv[cmd.argv.index("--norm-limit") + 1])
                self.gauss[n] = gaussian_prime_count(n)

    def problems(self, cmd: Command, stdout: str, tmp: Path) -> list[str]:
        if cmd.check == "gauss":
            m = re.search(r"norm-limit=(\d+) axes=both-axes: count=(\d+)", stdout)
            if not m or self.gauss.get(int(m.group(1))) != int(m.group(2)):
                return [f"gauss count {m and m.groups()} != closed form {self.gauss}"]
            if not cmd.outputs:
                return []
        want = self.expected.get(cmd.key)
        if want is None:
            return [f"no pinned output for {cmd.key!r}"]
        found = []
        if cmd.check in _PATTERNS:
            m = _PATTERNS[cmd.check].search(stdout)
            if not m or list(m.groups()) != want["stdout"]:
                found.append(f"printed {m and list(m.groups())} != pinned {want['stdout']}")
        hashes = artifact_hashes(tmp, cmd.outputs)
        if hashes != want.get("sha256", {}):
            found.append(f"artifact sha256 {hashes} != pinned {want.get('sha256')}")
        return found


def artifact_hashes(tmp: Path, outputs: tuple[str, ...]) -> dict[str, str]:
    hashes = {}
    for out in outputs:
        path = tmp / out
        for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
            name = file.relative_to(tmp).as_posix()
            if file.is_file():
                hashes[name] = hashlib.sha256(file.read_bytes()).hexdigest()
            elif not file.is_dir():
                hashes[name] = "missing"
    return hashes


@dataclass
class Launch:
    wall: float
    rss_mb: float
    cpu: float
    rc: int
    stdout: str
    stderr: str


def launch(argv: list[str], env: dict, logs: Path, deadline: float) -> Launch:
    """Run one child to completion; peak RSS and CPU come from its own wait4."""
    timeout = max(0.0, min(COMMAND_TIMEOUT_S, deadline - perf_counter()))
    out_path, err_path = logs / "stdout", logs / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        cpu=usage.ru_utime + usage.ru_stime,
        rc=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


@dataclass
class PassResult:
    walls: list[float]  # one per command, in order
    peak_rss_mb: float
    cpu_s: float
    # traced passes only: self time, calls and errors; computed counts; root-span time
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    root_s: float = 0.0


def run_pass(cmds: list[Command], env: dict, tmp: Path, checker: Checker, tally: Tally,
             deadline: float, traced: bool) -> PassResult:
    work = Path(tempfile.mkdtemp(dir=tmp))
    logs = work / ".logs"
    logs.mkdir()
    launches, span_docs = [], []
    for run_id, cmd in enumerate(cmds):
        argv = [a.replace("{tmp}", str(work)) for a in cmd.argv]
        spans = logs / f"spans{run_id}.json"
        if traced:
            argv = ["perfbench/traced.py", "--spans", str(spans), "--run-id", str(run_id), "--", *argv]
        result = launch(argv, env, logs, deadline)
        launches.append(result)
        problems = [] if result.rc == 0 else [f"exit code {result.rc}: {result.stderr[-500:]}"]
        if not problems:
            problems = checker.problems(cmd, result.stdout, work)
        if traced:
            if spans.is_file():
                span_docs.append(json.loads(spans.read_text(encoding="utf-8")))
            else:
                problems.append("traced child wrote no spans")
        tally.record(cmd.key, problems)
    shutil.rmtree(work)
    result = PassResult(
        walls=[r.wall for r in launches],
        peak_rss_mb=max(r.rss_mb for r in launches),
        cpu_s=sum(r.cpu for r in launches),
    )
    if traced:
        result.layers, result.counts, result.root_s = layer_times(span_docs)
    return result


# Self time of a span goes to "<layer>.self_s" unless its function is listed here.
TIME_BUCKETS = {
    "series.mape": "series.stats_s",
    "series.find_crossover": "series.stats_s",
    "series.ratio_R": "series.stats_s",
    "series.fit_model": "series.fit_s",
    "report.read_series_csv": "report.csv_read_s",
    "report.render_svg": "report.svg_s",
    "report.svg_text": "report.svg_s",
}
LAYER_DEFAULT_BUCKET = {"series": "series.build_s", "report": "report.csv_write_s"}
COUNT_NAMES = (
    "sieve.numbers", "sieve.bytes", "monoid.elements", "gaussian.norms",
    "quadratic.lattice_points", "series.rows", "series.bytes", "series.fit_points",
    "report.csv_write_bytes", "report.csv_read_rows", "report.svg_bytes",
)


def layer_times(docs: list[dict]) -> tuple[dict[str, float], dict[str, int], float]:
    """Self time per bucket (span duration minus its children's), calls and
    errors per layer, computed counts, and the time covered by root spans."""
    times: dict[str, float] = defaultdict(float)
    counts = {name: 0 for name in COUNT_NAMES}
    root_s = 0.0
    for doc in docs:
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(spans, child_s):
            duration = span["end"] - span["start"]
            layer = span["name"].split(".", 1)[0]
            bucket = TIME_BUCKETS.get(span["name"], LAYER_DEFAULT_BUCKET.get(layer, f"{layer}.self_s"))
            times[bucket] += duration - inner
            times[f"{layer}.calls"] += 1
            times[f"{layer}.errors"] += span["error"]
            if span["parent"] is None:
                root_s += duration
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return times, counts, root_s


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """(value, unit, samples) per end-to-end metric."""
    per_command = zip(*(p.walls for p in passes))
    return {
        # sum over commands of each command's median wall time across passes
        "wall_s": (sum(median(w) for w in per_command), "s", len(passes)),
        "peak_rss_mb": (median(p.peak_rss_mb for p in passes), "MB", len(passes)),
        "setup_s": (median(setup), "s", len(setup)),
    }


def per_layer(plain: list[PassResult], traced: list[PassResult]) -> dict[str, tuple[float, str, int]]:
    """(value, unit, samples) per layer metric of BENCHMARK.json, in its order:
    medians over traced passes, except cli.cpu_s, from the untraced passes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    values = {name: median(p.counts[name] if name in COUNT_NAMES else p.layers.get(name, 0.0)
                           for p in traced)
              for name in units}
    quad_s = values["quadratic.self_s"]
    values["quadratic.points_per_s"] = values["quadratic.lattice_points"] / quad_s if quad_s else 0.0
    values["cli.cpu_s"] = median(p.cpu_s for p in plain)
    traced_wall = median(sum(p.walls) for p in traced)
    values["trace.overhead_s"] = traced_wall - median(sum(p.walls) for p in plain)
    values["trace.coverage"] = median(p.root_s for p in traced) / traced_wall
    n = len(traced)
    samples = {"cli.cpu_s": len(plain), "trace.overhead_s": min(n, len(plain))}
    return {name: (values[name], unit, samples.get(name, n)) for name, unit in units.items()}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(GUARD_ENV, None)  # measure the default resource guard
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up pass writes bytecode, as an install has
    return env


def check_checkout(env: dict) -> str | None:
    """Why this directory cannot be measured, or None."""
    missing = [p for p in ("src/primelab/__init__.py", *SCRIPTS) if not (ROOT / p).is_file()]
    if missing:
        return f"not a primelab checkout: missing {', '.join(missing)}"
    found = subprocess.run(
        [sys.executable, "-c", "import primelab; print(primelab.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    path = Path(found.stdout.strip()).resolve() if found.returncode == 0 else None
    if path is None or not path.is_relative_to(SRC):
        return f"primelab does not import from {SRC}: {found.stdout.strip() or found.stderr[-300:]}"
    return None


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through launch(), which kills and reaps the child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHOICES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = child_env()
    reason = check_checkout(env)
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    start = perf_counter()
    deadline = start + RUN_DEADLINE_S
    kill_at = start + KILL_DEADLINE_S
    pick = pick_for_seed(args.workload, args.seed)
    cmds = commands(args.workload, pick)
    checker = Checker(cmds)
    print(f"workload {args.workload} seed {args.seed}: {pick}")

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    tally = Tally()
    setup: list[float] = []
    plain: list[PassResult] = []
    traced: list[PassResult] = []

    def setup_launch() -> float:
        result = launch(["-m", "primelab", "--help"], env, tmp, kill_at)
        ok = result.rc == 0 and result.stdout.startswith("usage:")
        tally.record("-m primelab --help", [] if ok else [f"exit code {result.rc}"])
        return result.wall

    try:
        setup_launch()
        run_pass(cmds, env, tmp, checker, tally, kill_at, traced=False)  # warm-up
        measuring = perf_counter()
        # trace mode makes two traced passes at least, so the counts can be compared
        while len(plain) < 1 + args.trace or (
            perf_counter() - measuring < args.seconds and perf_counter() < deadline
        ):
            if args.trace:
                plain.append(run_pass(cmds, env, tmp, checker, tally, kill_at, False))
                traced.append(run_pass(cmds, env, tmp, checker, tally, kill_at, True))
            else:
                setup += [setup_launch() for _ in range(SETUP_LAUNCHES)]
                plain.append(run_pass(cmds, env, tmp, checker, tally, kill_at, False))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    counts_repeat = all(p.counts == traced[0].counts for p in traced)
    if not counts_repeat:
        print(f"FAILED computed counts differ between traced passes: "
              f"{[p.counts for p in traced]}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup)
    for cmd, walls in zip(cmds, zip(*(p.walls for p in plain))):
        print(f"  {median(walls):9.4f} s  median of {len(walls)}  {cmd.key}")
    for name, (value, unit, samples) in metrics.items():
        tag = "  [computed]" if name in COUNT_NAMES else ""
        print(f"  {name:26s} {value:>16.6g} {unit:6s} median of {samples}{tag}")
    print(f"  {'error_rate':26s} {tally.failed / tally.attempted:>16.6g} {'ratio':6s} "
          f"{tally.failed} failed of {tally.attempted} commands")
    print(json.dumps({
        "correct": tally.failed == 0 and counts_repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
