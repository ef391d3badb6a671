"""Regenerate trainbench/reference.json: the final train loss and the
largest drift of every workload's child run at each training seed of the
pool.

    python3 trainbench/make_reference.py

Run it only on a commit whose training numerics are the accepted
reference; the benchmark compares every later run against these values
with the relative tolerance stored next to them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RTOL = 1e-9
# training seeds per workload; child runs draw from range(POOL)
POOL = 16


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    out = {"commit": commit, "rtol": RTOL, "workloads": {}}
    run.WORK_DIR.mkdir(exist_ok=True)
    for wl in run.WORKLOADS:
        run_dir = Path(tempfile.mkdtemp(prefix=f"ref-{wl.name}-", dir=run.WORK_DIR))
        try:
            config, _ = run.write_config(wl, run_dir)
            losses, drifts = [], []
            for seed in range(POOL):
                child_out = run_dir / f"seed{seed}"
                res = run.run_child(config, child_out, seed, traced=False)
                if "error" in res or res["exit_code"] != 0:
                    raise SystemExit(f"{wl.name} seed {seed} failed: {res}")
                rows = run.read_metrics(child_out / "metrics.csv")
                losses.append(float(rows[-1][1]))
                drifts.append(max(float(row[3]) for row in rows))
                print(f"{wl.name} seed={seed} final_train_loss={losses[-1]!r} "
                      f"max_drift={drifts[-1]!r}", flush=True)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        out["workloads"][wl.name] = {"iterations": wl.iterations,
                                     "final_train_loss": losses, "max_drift": drifts}
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
