"""Tests of the benchmark itself (not of ncgru).

    python3 -m pytest trainbench -q

They run tiny workloads (3 iterations per child) so they finish in about
a minute on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402


def tiny(name: str, iterations: int = 3) -> run.Workload:
    wl = next(w for w in run.WORKLOADS if w.name == name)
    return replace(wl, iterations=iterations)


def reference_for(wl: run.Workload, tmp_path: Path, pool: int = 2) -> dict:
    """Reference losses and drifts for a tiny workload, from plain child runs."""
    config, _ = run.write_config(wl, tmp_path)
    losses, drifts = [], []
    for seed in range(pool):
        out = tmp_path / f"ref{seed}"
        res = run.run_child(config, out, seed, traced=False)
        assert "error" not in res, res
        rows = run.read_metrics(out / "metrics.csv")
        losses.append(float(rows[-1][1]))
        drifts.append(max(float(row[3]) for row in rows))
    return {"rtol": 1e-9,
            "workloads": {wl.name: {"iterations": wl.iterations, "final_train_loss": losses,
                                    "max_drift": drifts}}}


def test_spec_matches_runner():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in run.WORKLOADS]
    assert spec["paths"] == ["trainbench"]
    reference = run.load_reference()
    layers = {m["name"] for m in spec["per_layer"]}
    for wl in run.WORKLOADS:
        ref = reference["workloads"][wl.name]
        assert ref["iterations"] == wl.iterations
        assert len(ref["max_drift"]) == len(ref["final_train_loss"])
        assert set(wl.idle) <= layers
    assert set(run.UNSIGNED_EXEMPT) <= layers


@pytest.mark.parametrize("traced", [False, True])
def test_smoke_every_metric_appears_with_its_unit(tmp_path, traced, capsys):
    wl = tiny("ortho_wide")
    reference = reference_for(wl, tmp_path)
    spec = run.load_spec()
    spans = run.WORK_DIR / f"spans_{wl.name}.json"
    spans.unlink(missing_ok=True)
    summary = run.run_workload(wl, seed=0, seconds=0.0, traced=traced, reference=reference)
    result = run.report(summary, run.environment(), spec, wl.idle)
    printed = capsys.readouterr().out
    assert result["correct"], (summary["failures"], printed)
    assert result["attempted"] == wl.iterations * (2 if traced else 1)
    assert result["failed"] == 0
    wanted = spec["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in printed
    assert "git_commit=" in printed and "blas=" in printed and "nproc=" in printed
    assert "write_s" in printed and "failed_frac" in printed
    # the last traced child's spans outlive the run directory
    assert spans.is_file() == traced
    if traced:
        # the tiny child ends on a reset step, so the reset layers ran
        assert result["metrics"]["orthocore.reset.calls"]["value"] > 0
        assert result["metrics"]["orthocore.exact_step.ms_per_iter"]["value"] == 0


@pytest.mark.parametrize("name", ["adding_desk", "ortho_wide_exact"])
def test_traced_metrics_csv_is_byte_identical(tmp_path, name):
    config, _ = run.write_config(tiny(name), tmp_path)
    outs = {}
    for traced in (False, True):
        outs[traced] = tmp_path / f"out-{traced}"
        res = run.run_child(config, outs[traced], 5, traced=traced)
        assert "error" not in res, res
    assert "layers" in json.loads(outs[True].with_suffix(".result.json").read_text())
    plain = (outs[False] / "metrics.csv").read_bytes()
    assert plain == (outs[True] / "metrics.csv").read_bytes()
    assert (outs[True] / "spans.json").is_file()


def _fake_run(tmp_path: Path, rows: list[str], exit_code: int = 0) -> tuple[dict, Path]:
    out = tmp_path / "fake"
    out.mkdir()
    (out / "metrics.csv").write_text("\n".join([run.METRICS_HEADER] + rows) + "\n")
    res = {"exit_code": exit_code,
           "stdout": "status=completed" if exit_code == 0 else "status=numeric_error"}
    return res, out


CFG = {"model": {"hidden": 8, "reset_every": 2}, "train": {"iterations": 2}}


def test_checks_pass_a_good_run(tmp_path):
    res, out = _fake_run(tmp_path, ["1,0.5,,1e-12,0.1,0", "2,0.25,0.3,1e-13,0.1,0"])
    assert run.check_child(res, out, CFG, 0.25, 1e-9) == []
    assert res["max_drift"] == 1e-12


@pytest.mark.parametrize("rows,exit_code,ref,needle", [
    (["1,0.5,,1e-12,0.1,0", "2,0.25,,1e-13,0.1,0"], 1, 0.25, "exited 1"),
    (["1,0.5,,1e-12,0.1,0", "2,nan,,1e-13,0.1,0"], 0, 0.25, "non-finite"),
    (["1,0.5,,1e-12,1.0,0", "2,0.25,,1e-13,0.1,0"], 0, 0.25, "contraction_norm"),
    (["1,0.5,,1e-6,0.1,0", "2,0.25,,1e-8,0.1,0"], 0, 0.25, "after reset"),
    (["1,0.5,,1e-12,0.1,0", "2,0.25,,1e-13,0.1,0"], 0, 0.2500001, "reference"),
    (["1,0.5,,1e-12,0.1,0"], 0, 0.5, "rows"),
])
def test_checks_catch_bad_output(tmp_path, rows, exit_code, ref, needle):
    res, out = _fake_run(tmp_path, rows, exit_code)
    problems = run.check_child(res, out, CFG, ref, 1e-9)
    assert any(needle in p for p in problems), problems


def test_reference_time_scales_by_the_probe_and_excludes_it():
    ref = probes.REF_PROBE_S
    rec = probes.Recorder(traced=False)
    # eval batch at t=0, iteration 1 from 1.002 s to the loop-end probe at 2.0 s
    rec.probe_starts = [0.0, 1.0, 2.0]
    rec.probe_s = [ref, ref, 3 * ref]
    rec.batch_starts = [0.001, 1.002]
    ((wall_ms, ref_ms),) = probes.iterations(rec)
    assert wall_ms == pytest.approx(998.0)
    assert ref_ms == pytest.approx(998.0 / 2)
    rec.spans = [["harness.write_metrics_csv", 2.1, 2.2, -1, -1],
                 ["harness.save_checkpoint", 2.2, 2.5, -1, -1]]
    assert probes.write_seconds(rec) == pytest.approx(0.4)
    # set-up is scaled by the child's median probe reading
    child = {"spawn": 10.0, "first_iteration": 10.5,
             "probe_ms": [ref * 1e3, 2 * ref * 1e3, 2 * ref * 1e3]}
    assert run.setup_seconds(child, "wall") == pytest.approx(0.5)
    assert run.setup_seconds(child, "ref") == pytest.approx(0.25)


def test_max_drift_does_not_depend_on_which_seeds_ran():
    ref_drift = [1e-8, 3e-8, 2e-8, 6e-8]
    every = [{"train_seed": i, "max_drift": d} for i, d in enumerate(ref_drift)]
    pool_mean = sum(ref_drift) / len(ref_drift)
    assert run.pool_drift(every[:1], ref_drift) == pytest.approx(pool_mean)
    assert run.pool_drift(every[1:3], ref_drift) == pytest.approx(pool_mean)
    doubled = [dict(c, max_drift=2 * c["max_drift"]) for c in every[2:]]
    assert run.pool_drift(doubled, ref_drift) == pytest.approx(2 * pool_mean)


@pytest.mark.parametrize("values,needle", [
    ({"setup_s": 0.0}, "setup_s is 0.0"),
    ({"max_drift": float("nan")}, "max_drift is nan"),
    ({"orthocore.reset.calls": 0.0}, "expected > 0"),
    ({"orthocore.exact_step.ms_per_iter": 1.5}, "never calls"),
    ({"trace.overhead_pct": float("inf")}, "inf"),
])
def test_implausible_figures_are_caught(values, needle):
    idle = ("orthocore.exact_step.ms_per_iter",)
    problems = run.implausible(values, idle)
    assert any(needle in p for p in problems), problems


def test_idle_zero_and_signed_overhead_are_plausible():
    values = {"orthocore.exact_step.ms_per_iter": 0.0, "trace.overhead_pct": -1.2,
              "linalg.spectral_norm.converged_frac": 0.0, "orthocore.reset.calls": 1.0}
    assert run.implausible(values, ("orthocore.exact_step.ms_per_iter",)) == []


def test_report_marks_an_implausible_run_incorrect(capsys):
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower"}],
            "per_layer": []}
    summary = {"workload": "w", "seed": 0, "seconds": 1.0, "trace": 0, "children": 1,
               "iterations_per_child": 1, "elapsed_s": 1.0, "attempted": 1, "failed": 0,
               "failures": [], "end_to_end": {"setup_s": 0.0}, "write_s": 0.1,
               "end_to_end_wall": {"setup_s": 0.1, "iter_ms_p50": 1.0,
                                   "train_samples_per_s": 1.0},
               "probe_ms_p50": 0.7, "iter_samples": 1, "iter_tail": None}
    result = run.report(summary, {"thread_env": {}}, spec)
    assert not result["correct"]
    assert "CHECK FAILED metric: setup_s" in capsys.readouterr().out


def test_child_seeds_follow_the_benchmark_seed():
    first = [run.child_seed(3, i, 16) for i in range(8)]
    assert first == [run.child_seed(3, i, 16) for i in range(8)]
    assert first != [run.child_seed(4, i, 16) for i in range(8)]
    assert all(0 <= s < 16 for s in first)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "trainbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "trainbench/run.py", "--workload", "adding_desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
