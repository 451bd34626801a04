#!/usr/bin/env python3
"""Parameter fuzz: every numeric key of every command at edge values.

Runs ``atompairs <command> <flag>=<value>`` for each numeric key of
``atompairs.cli.PARAMS`` (int, float, optional float and float list) at 0,
-1, nan, inf, 1e-300 and 1e300 and just outside the key's interval in
``atompairs.cli.DOMAINS`` (each end itself where it is open, else the next
number beyond it), a list key's value repeated to the fewest entries its
domain allows, on top of the command's defaults and again
on top of each ``PRESETS`` entry of the command that sets keys (fig11's
``--fisher-at-mT``, say, whose Fisher block the defaults never run), each in
a fresh process with its own output directory, a few at a time, each
stopped at a time limit.  Prints one line
per run that exits 1, runs past the limit, prints a traceback, exits 0
after numpy printed a RuntimeWarning, exits 0 at a value outside the key's
domain, writes NaN or Infinity into an output file, or exits non-zero and
leaves a file in its output directory; then the tallies, and exits 1 if any
run did.  A sweep takes minutes, so it is not part of the test suite:

    PYTHONPATH=src python3 scripts/fuzz_params.py [--jobs 2] [--timeout 40] [command ...]
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from atompairs.cli import DOMAINS, PARAMS, PRESETS, flag_of

VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300")
NON_FINITE = re.compile(rb"\b(nan|inf|infinity)\b", re.IGNORECASE)
# a warning as Python prints it: "<file>:<line>: RuntimeWarning: <message>"
RUNTIME_WARNING = re.compile(r"[^\s/]+:\d+: RuntimeWarning: .*")
SRC = Path(__file__).resolve().parent.parent / "src"


def numeric_keys(command: str) -> list[str]:
    return [
        key
        for key, spec in PARAMS[command].items()
        if spec is float or type(spec) in (int, float) or isinstance(spec, list)
    ]


def values(command: str, key: str) -> list[str]:
    """``VALUES``, then the numbers just outside ``key``'s domain that they do
    not already hold."""
    outside, _ = DOMAINS[key].edges(integer=type(PARAMS[command][key]) is int)
    return [*VALUES, *(v for v in map(repr, outside) if v not in VALUES)]


def bases(command: str) -> list[list[str]]:
    """The flags each key is swept on top of: none (the command's defaults),
    then those of each preset of the command that sets keys."""
    presets = [p["params"] for _, p in sorted(PRESETS.items()) if p["scenario"] == command and p["params"]]
    return [[]] + [[f"{flag_of(k)}={v}" for k, v in params.items()] for params in presets]


def run(command: str, base: list[str], key: str, value: str, timeout: float) -> dict:
    """One fresh-process run: its exit code (None past the time limit), wall
    time, whether the value lies outside the key's domain, whether stderr
    holds a traceback, its first RuntimeWarning (or ""), which outputs hold
    NaN or Infinity, and which files it leaves if it exits non-zero."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        # its own directory, so that the run's staging directory beside it
        # goes with it
        out = Path(tmp, "out")
        out.mkdir()
        # the swept flag last, so that it overrides a preset's value; a list
        # of several entries as separate words
        least = DOMAINS[key].least
        swept = [flag_of(key), *[value] * least] if least > 1 else [f"{flag_of(key)}={value}"]
        args = [command, *base, *swept]
        argv = [sys.executable, "-m", "atompairs.cli", "--out-dir", out, *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=timeout)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stderr = None, exc.stderr or b""
        wall = time.perf_counter() - start
        files = sorted(out.iterdir())
        non_finite = [p.name for p in files if NON_FINITE.search(p.read_bytes())]
    text = stderr.decode(errors="replace")
    warning = RUNTIME_WARNING.search(text)
    return {
        "run": " ".join(args),
        "code": code,
        "wall_s": wall,
        "outside": float(value) not in DOMAINS[key],
        "traceback": b"Traceback" in stderr,
        "warning": warning.group(0) if warning else "",
        "non_finite": non_finite,
        "partial": [p.name for p in files] if code not in (0, None) else [],
        "last_line": text.strip().splitlines()[-1:] or [""],
    }


def problems(r: dict, timeout: float) -> list[str]:
    """What is wrong with the run ``r`` (as ``run`` returns it), one label
    each: none for a clean run, whatever its exit code."""
    return [
        label
        for label, hit in (
            ("exit 1", r["code"] == 1),
            (f"past {timeout:g} s", r["code"] is None),
            ("traceback", r["traceback"]),
            (f"exit 0 after {r['warning']}", r["code"] == 0 and bool(r["warning"])),
            ("exit 0 outside the domain", r["code"] == 0 and r["outside"]),
            (f"NaN/Infinity in {', '.join(r['non_finite'])}", bool(r["non_finite"])),
            (f"exit {r['code']} leaves {', '.join(r['partial'])}", bool(r["partial"])),
        )
        if hit
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", default=sorted(PARAMS), help="commands to fuzz (all by default)")
    parser.add_argument("--jobs", type=int, default=2, help="runs at a time")
    parser.add_argument("--timeout", type=float, default=40.0, help="seconds before a run is stopped")
    args = parser.parse_args(argv)
    cases = [(c, b, k, v) for c in args.commands for b in bases(c) for k in numeric_keys(c) for v in values(c, k)]
    start = time.perf_counter()
    with ThreadPoolExecutor(args.jobs) as pool:
        results = list(pool.map(lambda case: run(*case, args.timeout), cases))
    findings = 0
    for r in results:
        if found := problems(r, args.timeout):
            findings += 1
            print(f"{r['run']}: {'; '.join(found)} | {r['last_line'][0][:160]}")
    codes = Counter("timeout" if r["code"] is None else f"exit {r['code']}" for r in results)
    slowest = max(results, key=lambda r: r["wall_s"])
    print(
        f"{len(results)} runs of {len({(c, k) for c, _, k, _ in cases})} keys on "
        f"{len({(c, tuple(b)) for c, b, _, _ in cases})} bases in "
        f"{time.perf_counter() - start:.0f} s: "
        + ", ".join(f"{n} {code}" for code, n in sorted(codes.items()))
    )
    print(f"tracebacks {sum(r['traceback'] for r in results)}, "
          f"RuntimeWarnings {sum(bool(r['warning']) for r in results)} "
          f"({sum(bool(r['warning']) and r['code'] == 0 for r in results)} at exit 0), "
          f"non-finite outputs {sum(bool(r['non_finite']) for r in results)}, "
          f"partial outputs {sum(bool(r['partial']) for r in results)}, "
          f"slowest {slowest['wall_s']:.1f} s ({slowest['run']})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
