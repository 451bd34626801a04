"""Record ``reference.json``, the outputs every benchmark pass is checked against.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Re-record only when a change is meant to
alter what the presets compute, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import time

import check
from run import WORK, run_child
from workloads import WORKLOADS

SEED = 0


def main():
    presets = {}
    for workload, jobs in WORKLOADS.items():
        out_dir = WORK / "reference" / workload
        shutil.rmtree(out_dir, ignore_errors=True)
        res = run_child(["pass", workload, str(SEED), str(out_dir)], time.monotonic() + 600)
        if res["errors"]:
            raise SystemExit(f"{workload}: presets failed:\n" + "\n".join(res["errors"].values()))
        for name in jobs:
            presets[name] = check.snapshot(out_dir / name)
    check.REFERENCE.write_text(json.dumps({"seed": SEED, "presets": presets}, indent=1) + "\n")


if __name__ == "__main__":
    main()
