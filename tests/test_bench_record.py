"""scripts/bench_record.py: how parent and change runs are paired."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _write_run(
    root: Path, name: str, seed: int, run_s: list[float], wall_s: list[float],
    correct: bool = True, failed: int = 0,
):
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    samples = {
        "run_s": run_s,
        "run_wall_s": wall_s,
        "speed": [s / w for s, w in zip(run_s, wall_s)],
        "setup_s": [0.8] * 5,
        "peak_rss_mb": [90.0] * len(run_s),
    }
    record = {
        "args": {"workload": "w", "seed": seed, "trace": 0},
        "environment": {k: "x" for k in bench_record.SIDE_KEYS},
        "samples": samples,
        "result": {
            "correct": correct, "attempted": 2, "failed": failed,
            "metrics": {
                "run_s": {"value": sorted(run_s)[len(run_s) // 2]},
                "setup_s": {"value": 0.8},
                "peak_rss_mb": {"value": 90.0},
            },
        },
    }
    (results / name).write_text(json.dumps(record))


def _record(tmp_path) -> dict:
    out = tmp_path / "bench.json"
    bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)])
    return json.loads(out.read_text())["workloads"]["w"]


def test_repeated_seed_pairs_by_position(tmp_path):
    # two runs of seed 1 per side: the k-th change run meets the k-th parent run
    _write_run(tmp_path / "parent", "w-seed1-a.json", 1, [10.0, 10.0], [11.0, 11.0])
    _write_run(tmp_path / "parent", "w-seed1-b.json", 1, [30.0, 30.0], [33.0, 33.0])
    _write_run(tmp_path / "change", "w-seed1-a.json", 1, [20.0, 20.0], [21.0, 21.0])
    _write_run(tmp_path / "change", "w-seed1-b.json", 1, [25.0, 25.0], [26.0, 26.0])
    summary = _record(tmp_path)["summary"]
    assert summary["run_s"]["pairs"] == 2
    assert summary["run_s"]["change_wins"] == 1
    assert summary["run_wall_s"]["change_wins"] == 1
    assert summary["run_wall_s"]["parent"]["median"] == pytest.approx(22.0)
    assert "change_wins" not in summary["speed"]


def test_unpaired_runs_count_no_pair(tmp_path):
    _write_run(tmp_path / "parent", "w-seed1.json", 1, [10.0, 10.0], [11.0, 11.0])
    _write_run(tmp_path / "change", "w-seed1.json", 1, [9.0, 9.0], [10.0, 10.0])
    _write_run(tmp_path / "change", "w-seed1-again.json", 1, [8.0, 8.0], [9.0, 9.0])
    record = _record(tmp_path)
    assert record["summary"]["run_s"]["pairs"] == 1
    assert record["runs"]["change"][0]["medians"]["run_wall_s"] == pytest.approx(9.0)


def test_the_same_run_twice_is_rejected(tmp_path):
    _write_run(tmp_path / "parent", "w-seed1.json", 1, [10.0, 10.0], [11.0, 11.0])
    _write_run(tmp_path / "parent", "w-seed1-copy.json", 1, [10.0, 10.0], [11.0, 11.0])
    _write_run(tmp_path / "change", "w-seed1.json", 1, [9.0, 9.0], [10.0, 10.0])
    with pytest.raises(SystemExit, match="holds the same run"):
        _record(tmp_path)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_a_failing_run_is_refused(tmp_path, correct, failed):
    _write_run(tmp_path / "parent", "w-seed1.json", 1, [10.0, 10.0], [11.0, 11.0])
    _write_run(tmp_path / "change", "w-seed1.json", 1, [9.0, 9.0], [10.0, 10.0], correct, failed)
    with pytest.raises(SystemExit, match=r"w-seed1\.json records a failing run"):
        _record(tmp_path)
