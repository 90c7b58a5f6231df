"""Run one primelab command in-process with every public layer function traced.

Usage (from the root of a checkout, with PYTHONPATH=<checkout>/src, which
perfbench/run.py sets):

    python perfbench/traced.py --spans OUT.json --run-id N -- -m primelab gauss ...
    python perfbench/traced.py --spans OUT.json --run-id N -- scripts/quad_growth.py ...

Every public function defined in one of the layer modules is replaced, on
its module and on every primelab module that re-exports it, by a wrapper
that records a span (name, start, end, parent, run id, error).  The
package itself is not edited.  CLI commands go through
``primelab.cli.run_cli``; scripts run through ``runpy`` after patching,
because they bind ``from primelab import ...`` names at import time.
Spans stay in memory and are written to OUT.json when the command ends,
together with work counts computed from call arguments and results.
The process exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import os
import runpy
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("sieve", "monoid", "gaussian", "quadratic", "series", "report", "cli")


def _lattice_points(d: int, region) -> int:
    """First-quadrant (a, b >= 0) points of the census region, zero included."""
    weight = 1 if region.kind == "euclidean-ball" else d
    total, b = 0, 0
    while weight * b * b <= region.bound:
        total += math.isqrt(region.bound - weight * b * b) + 1
        b += 1
    return total


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


# Work counts per traced function, from its bound arguments and its result.
COUNTERS = {
    "sieve.sieve_primes": lambda a, r: {
        "sieve.numbers": a["limit"] + 1,
        "sieve.bytes": r.flags.nbytes,
    },
    "monoid.monoid_census": lambda a, r: {
        "monoid.elements": (a["params"].limit - 1) // a["params"].d + 1,
    },
    "gaussian.gaussian_census": lambda a, r: {"gaussian.norms": a["norm_limit"] + 1},
    "quadratic.quad_census": lambda a, r: {
        "quadratic.lattice_points": _lattice_points(a["d"], a["region"]),
    },
    "series.make_series": lambda a, r: {"series.rows": len(r), "series.bytes": _array_bytes(r)},
    "series.fit_model": lambda a, r: {"series.fit_points": len(a["series"])},
    "report.write_csv": lambda a, r: {"report.csv_write_bytes": os.path.getsize(a["path"])},
    "report.read_series_csv": lambda a, r: {"report.csv_read_rows": len(r)},
    "report.render_svg": lambda a, r: {"report.svg_bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id, "error": False}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[key] = self.counts.get(key, 0) + int(value)
            return result

        return traced

    def install(self) -> None:
        """Patch every public layer function wherever primelab binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"primelab.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self.wrap(f"{layer}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "primelab" and not module_name.startswith("primelab."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])

    def dump(self, path: str) -> None:
        Path(path).write_text(
            json.dumps({"run": self.run_id, "spans": self.spans, "counts": self.counts}),
            encoding="utf-8",
        )


def _run(command: list[str]) -> int:
    if command[:2] == ["-m", "primelab"]:
        from primelab.cli import run_cli  # the patched binding

        return run_cli(command[2:])
    sys.argv = list(command)
    try:
        runpy.run_path(command[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import primelab

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(primelab.__file__).resolve().is_relative_to(src):
        print(f"primelab imported from {primelab.__file__}, not from {src}", file=sys.stderr)
        return 5
    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        return _run(command)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
