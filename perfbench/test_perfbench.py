"""Self-tests of the benchmark; not part of the library's test suite.

    python3 -m pytest -q perfbench

The traced-run tests run every workload (about two minutes in all).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import check
import pace
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

ALL = tuple(WORKLOADS)
# where each layer does work, so its metrics must be non-zero there
DOES_WORK = {
    "atoms.": ALL,
    "wigner.": ALL,
    "faddeeva.": ALL,
    "vapor.": ALL,
    "vapor.rotation_angle_at.": ("field-scan",),
    "vapor.blocking_cell_transmission.": ("filter-spectrum",),
    "filters.": ("filter-spectrum",),
    "cavity.": ("filter-spectrum",),
    "coincidences.": ("field-scan",),
    "biphoton.": ("field-scan",),
    "noon.": ("field-scan",),
    "cli.": ALL,
    "trace.": ALL,
}


def _does_work(metric: str) -> tuple[str, ...]:
    prefix = max((p for p in DOES_WORK if metric.startswith(p)), key=len)
    return DOES_WORK[prefix]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracer.METRICS
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    for name, _, _ in tracer.METRICS:
        _does_work(name)  # every per-layer metric names where it must fire


def test_tolerance_passes_numerics_noise_and_fails_physics_changes():
    ref = json.loads(check.REFERENCE.read_text())["presets"]["fig2-fadof"]
    assert check.compare(ref, ref) == []
    rows = ref["files"]["fadof.csv"]["sample"]
    row = next(k for k, v in rows.items() if v[2] > 0.1)

    noisy = copy.deepcopy(ref)
    noisy["files"]["fadof.csv"]["sample"][row][2] += 1e-10
    noisy["report"]["enbw_hz"] *= 1 + 1e-9
    assert check.compare(ref, noisy) == []

    changed = copy.deepcopy(ref)
    changed["files"]["fadof.csv"]["sample"][row][2] *= 1 + 1e-4
    assert len(check.compare(ref, changed)) == 1
    changed = copy.deepcopy(ref)
    changed["report"]["t_max"] *= 1 + 1e-5
    assert len(check.compare(ref, changed)) == 1


def test_self_time_excludes_children_and_totals_count_outermost_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(ticks))
    tr = tracer.Tracer()

    def leaf():
        return None

    def outer(depth):
        leaf()
        if depth:
            outer(depth - 1)

    leaf = tr.wrap(leaf, "leaf")
    outer = tr.wrap(outer, "outer")
    outer(1)
    # clock reads: outer 0, leaf 1-2, outer 3, leaf 4-5, outer end 6, outer end 7
    calls, total, self_s = tr.span_totals()
    assert calls == {"outer": 2, "leaf": 2}
    assert total == {"outer": 7, "leaf": 2}
    assert self_s == {"outer": 5, "leaf": 2}


def test_pacer_takes_both_probes_and_leaves_their_time_out():
    pacer = pace.Pacer()
    pacer.start()
    try:
        mark = pacer.begin()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
        span = pacer.end(mark)
    finally:
        pacer.stop()
    # two probes at each end, and one every INTERVAL_S in between
    assert span["probes"] >= 4 + 0.5 / pace.INTERVAL_S / 2
    assert all(len(s) >= 3 for s in pacer.samples.values())
    assert 0 < span["wall_s"] < 0.5
    assert span["scaled_s"] == pytest.approx(span["wall_s"] * span["speed"])


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_is_faithful_and_every_layer_fires(workload):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # failed counts presets whose traced outputs differ from the untraced
    # pass and traced passes whose work counts differ from each other
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    silent = [k for k, v in metrics.items() if workload in _does_work(k) and v == 0]
    assert silent == []

    run_s = metrics["trace.run_s"]
    if workload == "field-scan":
        assert metrics["atoms.self_s"] >= 0.5 * run_s
    if workload in ("filter-spectrum", "spectroscopy-grid"):
        assert metrics["faddeeva.self_s"] >= 0.5 * run_s
    if workload == "filter-spectrum":
        assert metrics["atoms.self_s"] < 0.05 * run_s


def test_untraced_run_reports_end_to_end_metrics():
    proc = _run("filter-spectrum", trace=0, seed=5)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("filter-spectrum", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
