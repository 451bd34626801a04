"""Output check: compare a preset's outputs numerically with a recorded reference.

A snapshot of one preset's output directory holds the report from its
manifest, the full contents of every other JSON file, and for every CSV its
header, row count and a fixed subsample of rows.  Values are compared with
``|got - ref| <= ATOL + RTOL * |ref|``: a change of the transmission by up to
1e-10 (the bound a numerics-only refactor may move it) passes, while a change
of the physics, which moves results by 1e-4 or more, fails.  Byte hashes are
not compared here, because a numerics-only refactor changes the last digits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9
CSV_ROWS = 101  # evenly spaced rows kept per CSV, first and last included
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def snapshot(out_dir: Path) -> dict:
    out_dir = Path(out_dir)
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        if path.suffix == ".csv":
            files[path.name] = _csv_sample(path)
        else:
            files[path.name] = json.loads(path.read_text())
    report = json.loads((out_dir / "manifest.json").read_text())["meta"]["report"]
    return {"report": report, "files": files}


def _csv_sample(path: Path) -> dict:
    lines = path.read_text().splitlines()
    rows = lines[1:]
    n = len(rows)
    keep = sorted({round(k * (n - 1) / (CSV_ROWS - 1)) for k in range(CSV_ROWS)}) if n else []
    return {
        "header": lines[0].split(","),
        "rows": n,
        "sample": {str(i): [float(v) for v in rows[i].split(",")] for i in keep},
    }


def compare(ref, got, where: str = "") -> list[str]:
    """Every place where ``got`` differs from ``ref`` beyond the tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{where}/{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{where}[{i}]")]
    if _is_number(ref) and _is_number(got):
        if math.isnan(ref) and math.isnan(got):
            return []
        if math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)
