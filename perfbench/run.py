"""Preset-level benchmark of atompairs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Every pass is a fresh Python process (``child.py``) that pays what a CLI user
pays: import, atom-data load and every lazy cache.  Passes run one at a time
with BLAS and OpenMP pinned to one thread, until ``S`` seconds have passed
and at least two passes have run.  Every preset run is checked against
``reference.json`` and against the first pass of the run, whose manifests a
pass with the same seed must reproduce byte for byte.

``--trace 0`` reports end-to-end metrics: the median pass time, the median
set-up time and the median peak resident set.  Times are wall times rescaled
to a fixed host speed by ``pace.py``; the wall times stay in the record.  ``--trace 1`` runs passes in the
order traced, untraced, traced, ... and reports the per-layer metrics of
``tracer.py``; work counts must repeat exactly across traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, spans and a
full record of each run (samples, failures, environment) go to
``.perfbench/``.  When the benchmark cannot measure, for instance because
``src/atompairs`` is missing, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from tracer import EXACT_UNITS, METRICS
from workloads import SEEDED_PRESETS, WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
MIN_PASSES = 2  # so that every run compares two same-seed passes
MIN_SETUPS = 5
DEADLINE_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before the next child process")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **THREAD_PINS}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {args[:2]} did not finish in time") from None
    if proc.returncode != 0:
        raise HarnessError(f"child {args[:2]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise HarnessError(f"child {args[:2]} printed no result:\n{proc.stderr[-4000:]}") from None
    if not Path(out["atompairs"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise HarnessError(f"imported atompairs from {out['atompairs']}, not from src/")
    return out


def check_pass(workload, seed, out_dir: Path, errors: dict, reference: dict, first: dict):
    """Failures of one pass, per preset; ``first`` collects the first manifests."""
    failures = {}
    for name in WORKLOADS[workload]:
        if name in errors:
            failures[name] = [errors[name].strip().splitlines()[-1]]
            continue
        try:
            manifest = (out_dir / name / "manifest.json").read_bytes()
            problems = []
            if first.setdefault(name, manifest) != manifest:
                problems.append("manifest differs from the first pass with this seed")
            if name not in SEEDED_PRESETS or seed == reference["seed"]:
                problems += check.compare(reference["presets"][name], check.snapshot(out_dir / name))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures[name] = problems
    return failures


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    reference = json.loads(check.REFERENCE.read_text())
    out_dir = WORK / "out" / workload
    span_dir = WORK / "trace" / workload
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    first_manifests: dict[str, bytes] = {}
    passes = []
    start = time.monotonic()
    while True:
        traced = sum(p["traced"] for p in passes)
        plain = len(passes) - traced
        enough = plain >= 1 and traced >= 2 if trace else len(passes) >= MIN_PASSES
        if enough and time.monotonic() - start >= seconds:
            return passes
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["pass", workload, str(seed), str(out_dir)]
        # traced, untraced, traced: neither kind always runs first
        next_traced = trace and len(passes) % 3 != 1
        if next_traced:
            args.append(str(span_dir / f"pass{len(passes)}.json"))
        res = run_child(args, deadline)
        res["traced"] = next_traced
        res["failures"] = check_pass(workload, seed, out_dir, res["errors"], reference, first_manifests)
        passes.append(res)


def layer_metrics(passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer medians over traced passes, and the count metrics that did not repeat."""
    traced = [p["layers"] for p in passes if p["traced"]]
    plain_run_s = statistics.median(p["run_s"] for p in passes if not p["traced"])
    values, unstable = {}, {}
    for name, unit, _ in METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(t["trace.run_s"] for t in traced) - plain_run_s
        else:
            samples = [t[name] for t in traced]
            if unit not in EXACT_UNITS:
                value = statistics.median(samples)
            elif len(set(samples)) == 1:
                value = samples[0]
            else:
                unstable[name] = samples
                value = statistics.median(samples)
        values[name] = {"value": value, "unit": unit}
    return values, unstable


def environment(versions: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        **{k: versions[k] for k in ("python", "numpy", "scipy", "blas")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "atompairs" / "cli.py").is_file():
            raise HarnessError(f"no src/atompairs under {ROOT}; run from the root of a checkout")
        # warm-up: compiles bytecode and fills the file cache; not a sample
        versions = run_child(["setup"], deadline)
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        setups = list(passes)
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(run_child(["setup"], deadline))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [{"pass": i, **p["failures"]} for i, p in enumerate(passes) if p["failures"]]
    failed = sum(len(f) - 1 for f in failures)
    if args.trace:
        metrics, unstable = layer_metrics(passes)
        if unstable:
            failures.append({"trace counts differ between traced passes": unstable})
            failed += sum(p["traced"] for p in passes) - 1
    else:
        metrics = {
            "run_s": {"value": statistics.median(p["run_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": len(passes) * len(WORKLOADS[args.workload]),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "args": vars(args),
        "environment": environment(versions),
        "samples": {
            "run_s": [p["run_s"] for p in passes],
            "run_wall_s": [p["run_wall_s"] for p in passes],
            "speed": [p["speed"] for p in passes],
            "probe_s": [p["probe_s"] for p in passes],
            "traced": [p["traced"] for p in passes],
            "setup_s": [s["setup_s"] for s in setups],
            "setup_wall_s": [s["setup_wall_s"] for s in setups],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        },
        "failures": failures,
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    for f in failures:
        print(f"perfbench: failure {json.dumps(f)[:2000]}", file=sys.stderr)
    print(f"perfbench: {len(passes)} passes, run_s samples {record['samples']['run_s']}")
    print(f"perfbench: environment {json.dumps(record['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
