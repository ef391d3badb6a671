"""The benchmark's numerics, checked by the unit suite.

Every trainbench workload trains two seeds of its reference pool in
process, at the benchmark's iteration count, and must end within the
relative tolerance of `trainbench/reference.json`. A numerics change that
`trainbench/run.py` would refuse fails here first. The workload list, the
config writer and the reference are imported from `trainbench/run.py`,
read only.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trainbench"))

from run import WORKLOADS, load_reference, read_metrics, write_config  # noqa: E402

from ncgru import cli  # noqa: E402

SEEDS = (0, 1)


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda wl: wl.name)
def test_final_train_loss_matches_benchmark_reference(workload, tmp_path):
    reference = load_reference()
    want = reference["workloads"][workload.name]["final_train_loss"]
    config, _ = write_config(workload, tmp_path)
    for seed in SEEDS:
        out = tmp_path / f"seed{seed}"
        code = cli.main(["train", "--config", str(config), "--out", str(out),
                         "--seed", str(seed)])
        assert code == 0
        loss = float(read_metrics(out / "metrics.csv")[-1][1])
        assert abs(loss - want[seed]) <= reference["rtol"] * abs(want[seed]), \
            (workload.name, seed, loss, want[seed])
