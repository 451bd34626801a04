#!/usr/bin/env python3
"""Compare the outputs of two checkouts of the package, file by file.

Runs every preset (``scenario run <preset> --seed 0``), every command at its
defaults and with ``--help`` (so a change to the parameter schema shows), and
every ``studies/*.yaml`` (``scenario run <file>``, so a change that moves a
study shows), each in a fresh process against ``PARENT/src`` and
then ``CHANGE/src``, into its own scratch directory; a run one side does not
declare is a difference.  For every run it prints its exit codes, whether
stdout differs and one of, per file:

- byte-identical
- for a CSV, the largest |delta| and relative delta per column, with the row
- for a JSON file and for stdout, the same per key path
- for ``manifest.json``, which hashes differ, and its meta as JSON

A relative delta is |delta| / |parent value|.  It exits 0 only when the exit
codes match and every difference is within ``--max-abs`` or ``--max-rel``,
both 0 by default, so that a pure restructure must be byte-identical:

    python3 scripts/compare_outputs.py PARENT CHANGE [--max-abs 1e-10] [--only fig4-g2-comb ...]
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LIST_RUNS = "import json; from atompairs.cli import PARAMS, PRESETS; print(json.dumps([list(PRESETS), list(PARAMS)]))"


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src"), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def runs_of(root: Path) -> dict:
    """Run name -> CLI arguments: the presets at seed 0, the commands at their
    defaults and with ``--help``, and the study files, as the checkout at
    ``root`` declares them."""
    out = subprocess.run([sys.executable, "-c", LIST_RUNS], env=_env(root), capture_output=True, text=True, check=True)
    presets, commands = json.loads(out.stdout)
    studies = {f"studies/{f.name}": ["scenario", "run", str(f)] for f in sorted(root.glob("studies/*.yaml"))}
    helps = {f"{c} --help": [c, "--help"] for c in commands}
    return {**{p: ["scenario", "run", p] for p in presets}, **{c: [c] for c in commands}, **helps, **studies}


def run(root: Path, args: list, out_dir: Path) -> tuple:
    """One fresh-process run into ``out_dir``: its exit code, and its stdout
    and each file it wrote, by name."""
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-m", "atompairs.cli", "--out-dir", str(out_dir), "--seed", "0", *args]
    proc = subprocess.run(argv, env=_env(root), cwd=out_dir.parent, capture_output=True)
    found = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return proc.returncode, {"stdout": proc.stdout, **{p.name: p.read_bytes() for p in found}}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _delta(a, b) -> tuple:
    """(|delta|, relative delta) of two numbers, or None if either is not one."""
    if isinstance(a, bool) or isinstance(b, bool) or not all(isinstance(x, (int, float)) for x in (a, b)):
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    return diff, diff / abs(a) if a else math.inf


class Report:
    """One output's differences: the largest deltas per key, notes, and the
    mismatches that no tolerance covers."""

    def __init__(self):
        self.worst: dict = {}  # key -> (|delta|, " (row r)", relative delta, " (row r)")
        self.notes: list[str] = []
        self.mismatches: list[str] = []

    def add(self, key, a, b, where=""):
        delta = _delta(a, b)
        if delta is None:
            if a != b:
                self.mismatches.append(f"{key}{where}: {a!r} -> {b!r}")
            return
        diff, rel = delta
        worst = self.worst.get(key, (0.0, "", 0.0, ""))
        self.worst[key] = (
            *((diff, where) if diff > worst[0] else worst[:2]),
            *((rel, where) if rel > worst[2] else worst[2:]),
        )

    def within(self, max_abs: float, max_rel: float) -> bool:
        return not self.mismatches and all(a <= max_abs or r <= max_rel for a, _, r, _ in self.worst.values())

    def lines(self) -> list[str]:
        deltas = [
            f"{key}: max |delta| {a:.3g}{a_at}, max rel {r:.3g}{r_at}"
            for key, (a, a_at, r, r_at) in self.worst.items()
            if a or r
        ]
        return self.notes + self.mismatches + deltas


def compare_csv(parent: str, change: str) -> Report:
    """Per column of two CSV texts: the largest |delta| and relative delta and
    their rows (row 1 is the first after the header); a different header or
    row count, or a cell that is not a number and differs, is a mismatch."""
    report = Report()
    rows_a, rows_b = list(csv.reader(parent.splitlines())), list(csv.reader(change.splitlines()))
    if rows_a[:1] != rows_b[:1]:
        report.mismatches.append(f"header {rows_a[:1]} -> {rows_b[:1]}")
        return report
    if len(rows_a) != len(rows_b):
        report.mismatches.append(f"{len(rows_a) - 1} -> {len(rows_b) - 1} rows")
    header = rows_a[0] if rows_a else []
    for row, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            report.mismatches.append(f"row {row}: {len(ra)} -> {len(rb)} cells")
            continue
        for name, a, b in zip(header, ra, rb):
            na, nb = _number(a), _number(b)
            report.add(name, a if na is None else na, b if nb is None else nb, f" (row {row})")
    return report


def _leaves(value, path="") -> dict:
    if isinstance(value, dict):
        return {k: v for key in value for k, v in _leaves(value[key], f"{path}.{key}" if path else str(key)).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def compare_json(a, b) -> Report:
    """Per key path, list indices included: |delta| and relative delta of
    numbers; other values that differ, and paths on one side only, are
    mismatches."""
    report = Report()
    leaves_a, leaves_b = _leaves(a), _leaves(b)
    for key in sorted(leaves_a.keys() | leaves_b.keys()):
        if key not in leaves_a or key not in leaves_b:
            report.mismatches.append(f"{key}: only in the {'change' if key in leaves_b else 'parent'}")
        else:
            report.add(key, leaves_a[key], leaves_b[key])
    return report


def compare_bytes(name: str, a: bytes, b: bytes):
    """None if ``a`` and ``b`` are byte-identical, else the Report of how
    ``name`` differs: as a CSV, a manifest (which hashes differ, and its
    meta) or other JSON.  Bytes that differ with every value equal are a
    mismatch too."""
    if a == b:
        return None
    report = Report()
    try:
        if name.endswith(".csv"):
            report = compare_csv(a.decode(), b.decode())
        elif name == "manifest.json":
            ja, jb = json.loads(a), json.loads(b)
            hashes_a, hashes_b = ja.get("files", {}), jb.get("files", {})
            differ = sorted(k for k in hashes_a.keys() | hashes_b.keys() if hashes_a.get(k) != hashes_b.get(k))
            report = compare_json({"meta": ja.get("meta")}, {"meta": jb.get("meta")})
            report.notes = [f"hashes differ: {', '.join(differ)}"] if differ else []
        else:
            report = compare_json(json.loads(a), json.loads(b))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError included
        report.mismatches.append("differs, and does not parse as CSV or JSON")
    if not report.lines():
        report.mismatches.append("bytes differ, every value is equal")
    return report


def compare_run(name: str, parent: tuple, change: tuple, max_abs: float, max_rel: float) -> tuple:
    """Print how one run's (exit code, outputs) differ between the sides;
    return its (files, byte-identical files, differences beyond the bounds)."""
    (code_a, out_a), (code_b, out_b) = parent, change
    lines, same, beyond = [], [], 0
    if code_a != code_b:
        lines.append(f"exit code {code_a} -> {code_b}")
        beyond += 1
    for label in sorted(out_a.keys() ^ out_b.keys()):
        lines.append(f"{label}: only in the {'change' if label in out_b else 'parent'}")
        beyond += 1
    for label in sorted(out_a.keys() & out_b.keys(), key=lambda k: (k != "stdout", k)):
        report = compare_bytes(label, out_a[label], out_b[label])
        if report is None:
            same.append(label)
        else:
            beyond += not report.within(max_abs, max_rel)
            lines += [f"{label}: {line}" for line in report.lines()]
    print(f"{name}: exit {code_a}" + ("" if code_a == code_b else f" -> {code_b}"))
    if same:
        print(f"  byte-identical: {', '.join(same)}")
    for line in lines:
        print(f"  {line}")
    files = len(out_a.keys() & out_b.keys() - {"stdout"})
    return files, len(set(same) - {"stdout"}), beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--max-abs", type=float, default=0.0, help="largest |delta| allowed")
    parser.add_argument("--max-rel", type=float, default=0.0, help="largest relative delta allowed")
    parser.add_argument("--only", nargs="+", metavar="RUN", help="run only these presets, commands or studies/<file>")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    totals = [0, 0, 0]
    # the two sides of each step run at once
    with ThreadPoolExecutor(2) as pool, tempfile.TemporaryDirectory() as work:
        declared = dict(zip(sides, pool.map(runs_of, sides.values())))
        names = list(dict.fromkeys([*declared["parent"], *declared["change"]]))
        if unknown := sorted(set(args.only or ()) - set(names)):
            parser.error(f"unknown runs: {', '.join(unknown)}")
        selected = [n for n in names if args.only is None or n in args.only]
        for name in selected:
            if missing := [side for side in sides if name not in declared[side]]:
                print(f"{name}: not declared by the {missing[0]}")
                totals[2] += 1
                continue
            outputs = pool.map(lambda side: run(sides[side], declared[side][name], Path(work, side, name)), sides)
            counts = compare_run(name, *outputs, args.max_abs, args.max_rel)
            totals = [t + c for t, c in zip(totals, counts)]
    print(
        f"{len(selected)} runs, {totals[0]} files, {totals[1]} byte-identical; "
        f"{totals[2]} difference(s) beyond --max-abs {args.max_abs:g} / --max-rel {args.max_rel:g}"
    )
    return 1 if totals[2] else 0


if __name__ == "__main__":
    sys.exit(main())
