"""Fold the benchmark results of a parent and a change into one BENCH_<n>.json.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_2.json

Each directory is the root of a checkout in which ``perfbench/run.py`` was
run; its ``.perfbench/results/*.json`` records are read in file-name order.
A run writes ``<workload>-seed<n>-trace<t>.json``, so keep a repeated seed's
earlier records under other names in that directory.  For each side the
output keeps the git SHA, source hash, nproc and ``src/`` line count the runs
recorded.  Per workload it keeps every ``--trace 0`` run's samples and
medians of the end-to-end metrics and of the plain wall time and host speed
of its passes, a summary per metric (median and quartiles of the run
medians, and in how many pairs the change was better), and the per-layer
metrics of the ``--trace 1`` runs.

A pair is the k-th run with seed n on each side.  A side that holds the same
run twice is rejected, since it would count one comparison twice.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")  # all "lower is better"
# The pacer's probes compete with a program's own threads, so a threaded
# change has to show its gain in plain wall time too, at a similar speed.
UNSCALED = ("run_wall_s", "speed")
SIDE_KEYS = ("git_sha", "src_sha256", "src_lines", "nproc", "python", "numpy", "scipy")


def load_side(root: Path) -> tuple[dict, dict]:
    """(environment shared by every run, workload -> {"runs": [...], "layers": [...]})."""
    env, workloads = None, defaultdict(lambda: {"runs": [], "layers": []})
    seen = {}
    files = sorted((root / ".perfbench" / "results").glob("*.json"))
    if not files:
        raise SystemExit(f"no benchmark results under {root}/.perfbench/results")
    for path in files:
        record = json.loads(path.read_text())
        run_env = {k: record["environment"][k] for k in SIDE_KEYS}
        if env is None:
            env = run_env
        elif run_env != env:
            raise SystemExit(f"{path} was recorded on other code or host than {files[0]}")
        args, result = record["args"], record["result"]
        entry = workloads[args["workload"]]
        base = {"seed": args["seed"], "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"]}
        if args["trace"]:
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            entry["layers"].append({**base, "metrics": layers})
        else:
            samples = {k: record["samples"][k] for k in END_TO_END + UNSCALED}
            key = json.dumps([args["workload"], samples])
            if key in seen:
                raise SystemExit(f"{path} holds the same run as {seen[key]}")
            seen[key] = path
            entry["runs"].append({
                **base,
                "samples": samples,
                "medians": {
                    **{k: result["metrics"][k]["value"] for k in END_TO_END},
                    **{k: statistics.median(samples[k]) for k in UNSCALED},
                },
            })
    return env, workloads


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def by_seed_and_position(runs: list[dict]) -> dict:
    """(seed, k) -> the k-th run with that seed, in file-name order."""
    count, out = Counter(), {}
    for run in runs:
        out[run["seed"], count[run["seed"]]] = run
        count[run["seed"]] += 1
    return out


def summary(parent_runs: list[dict], change_runs: list[dict]) -> dict:
    parent, change = by_seed_and_position(parent_runs), by_seed_and_position(change_runs)
    pairs = [(parent[key], change[key]) for key in sorted(parent.keys() & change.keys())]
    out = {}
    for metric in END_TO_END + UNSCALED:
        p = spread([r["medians"][metric] for r in parent_runs])
        c = spread([r["medians"][metric] for r in change_runs])
        out[metric] = {
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"],
            "pairs": len(pairs),
        }
        if metric != "speed":  # higher speed is the host's doing, not the change's
            out[metric]["change_wins"] = sum(
                b["medians"][metric] < a["medians"][metric] for a, b in pairs
            )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout root holding the parent's results")
    p.add_argument("change", type=Path, help="checkout root holding the change's results")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    parent_env, parent = load_side(args.parent)
    change_env, change = load_side(args.change)
    workloads = {}
    for name in sorted(set(parent) | set(change)):
        a, b = parent[name], change[name]
        workloads[name] = {
            "summary": summary(a["runs"], b["runs"]) if a["runs"] and b["runs"] else None,
            "runs": {"parent": a["runs"], "change": b["runs"]},
            "layers": {"parent": a["layers"], "change": b["layers"]},
        }
    record = {"parent": parent_env, "change": change_env, "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, w in workloads.items():
        for metric, s in (w["summary"] or {}).items():
            wins = f"wins {s['change_wins']}/{s['pairs']}" if "change_wins" in s else ""
            print(f"{name:18s} {metric:12s} parent {s['parent']['median']:9.3f}  "
                  f"change {s['change']['median']:9.3f}  {wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
