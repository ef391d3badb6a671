"""Training benchmark for ncgru.

Runs one workload (or all of them) through ``ncgru train``, one fresh
single-threaded child process per training run, for a fixed measurement
time; checks every run's outputs; prints every metric by name and unit and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 trainbench/run.py --workload adding_desk --seed 0 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced children on the same training seeds and reports the per-layer
split plus the tracing overhead. --workload all runs every workload in
turn. Run it from the repository root; it builds nothing and writes only
under .trainbench/ there (run records, and the spans of the last traced
child of each workload). See trainbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".trainbench"

CHILD_TIMEOUT_S = 150.0
# Drift after an exact reset must sit at machine precision (ROADMAP contract).
RESET_DRIFT_PER_N = 1e-10
METRICS_HEADER = "step,train_loss,eval_loss,drift,contraction_norm,wall_ms"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # relative to the repository root
    iterations: int      # training iterations per child run
    # per-layer figures of layers this workload never calls: they must read 0
    idle: tuple[str, ...] = ()


_EXACT_STEP = ("orthocore.exact_step.ms_per_iter",)
_NEUMANN_STEP = ("orthocore.neumann_step.ms_per_iter",
                 "orthocore.neumann_step.self_ms_per_iter")

# Why each workload is here: BENCHMARK.json ("why") and README.md. Child
# runs are short so that a 25 s measurement holds several of them.
WORKLOADS = (
    Workload("adding_desk", "configs/adding_desk.json", 50, _EXACT_STEP),
    Workload("copying_full", "configs/copying_full.json", 4, _EXACT_STEP),
    Workload("ortho_wide", "trainbench/ortho_wide.json", 50, _EXACT_STEP),
    Workload("ortho_wide_exact", "trainbench/ortho_wide_exact.json", 50, _NEUMANN_STEP),
)

# Per-layer figures that are not a time, size or count of work done: the
# tracing overhead is a signed difference, and a converged fraction may be 0.
# Every other figure of a layer the workload calls must be > 0.
UNSIGNED_EXEMPT = ("trace.overhead_pct", "linalg.spectral_norm.converged_frac")


def load_spec() -> dict:
    """BENCHMARK.json: metric names, units and directions, and workloads."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    """What must match before two runs may be compared."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # The ceiling stops git from reporting an enclosing repository's commit.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none (not a git checkout)"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: "1" for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------------------
# one child run


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_seed(seed: int, index: int, pool: int) -> int:
    """Training seed of the index-th child run: the workload inputs are a
    pure function of the benchmark seed, drawn from the reference pool."""
    return (seed * 7 + index) % pool


def write_config(wl: Workload, run_dir: Path) -> tuple[Path, dict]:
    with open(ROOT / wl.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.pop("output", None)
    cfg["train"]["iterations"] = wl.iterations
    # Every child ends on a reset step, so the post-reset drift check and
    # the reset layers run on every workload (copying_full resets every 20).
    cfg["model"]["reset_every"] = wl.iterations
    path = run_dir / "config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path, cfg


def run_child(config: Path, out: Path, train_seed: int, traced: bool) -> dict:
    result_path = out.with_suffix(".result.json")
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--config", str(config), "--out", str(out), "--seed", str(train_seed),
           "--trace", str(int(traced)), "--result", str(result_path)]
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}"}
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["spawn"] = spawn
    return res


def read_metrics(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"unexpected metrics.csv header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def check_child(res: dict, out: Path, cfg: dict, ref_loss: float, rtol: float) -> list[str]:
    """Output checks of one child run; an empty list means it passed."""
    if "error" in res:
        return [res["error"]]
    problems = []
    if res["exit_code"] != 0:
        problems.append(f"ncgru train exited {res['exit_code']}")
    if "status=completed" not in res["stdout"]:
        problems.append(f"status is not completed: {res['stdout'].strip()[:120]!r}")
    try:
        rows = read_metrics(out / "metrics.csv")
    except (OSError, ValueError) as err:
        return problems + [f"metrics.csv unreadable: {err}"]
    iterations = cfg["train"]["iterations"]
    if len(rows) != iterations:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {iterations}")
    model = cfg["model"]
    exact = model.get("exact_inverse_mode", False)
    reset_every = model.get("reset_every", 50)
    drift_ceiling = RESET_DRIFT_PER_N * model["hidden"]
    for row in rows:
        step = int(row[0])
        values = [float(v) for v in row[1:5] if v != ""]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"step {step}: non-finite value in {row}")
            continue
        drift, contraction = float(row[3]), float(row[4])
        if not contraction < 1.0:
            problems.append(f"step {step}: contraction_norm {contraction!r} >= 1")
        reset_step = exact or (reset_every > 0 and step % reset_every == 0)
        if reset_step and not drift < drift_ceiling:
            problems.append(f"step {step}: drift {drift!r} after reset >= {drift_ceiling:g}")
    if rows:
        loss = float(rows[-1][1])
        if not abs(loss - ref_loss) <= rtol * abs(ref_loss):
            problems.append(f"final train loss {loss!r} differs from reference {ref_loss!r} "
                            f"by more than rtol {rtol:g}")
        res["max_drift"] = max(float(row[3]) for row in rows)
    return problems


# ---------------------------------------------------------------------------
# one workload


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    if p < 50:
        return None
    ordered = sorted(samples)
    return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def pool_drift(children: list[dict], ref_drift: list[float]) -> float:
    """max_drift on the whole reference pool: the pool's mean reference
    drift, scaled by the mean ratio of each child's drift to its seed's
    reference. Drift is exact for each training seed, so which seeds a run
    drew (and how many fit in its time) does not move the figure; a change
    to the program's drift does."""
    ratio = statistics.mean(c["max_drift"] / ref_drift[c["train_seed"]] for c in children)
    return statistics.mean(ref_drift) * ratio


def setup_seconds(child: dict, key: str) -> float:
    """Spawn to first training iteration. Most of set-up passes before the
    child can run a probe, so reference time ("ref") scales it by the
    child's median probe reading."""
    wall = child["first_iteration"] - child["spawn"]
    if key == "wall":
        return wall
    return wall * probes.REF_PROBE_S * 1e3 / statistics.median(child["probe_ms"])


def end_to_end(children: list[dict], batch_size: int, key: str = "ref") -> dict:
    """Iteration and set-up metrics from untraced children. key "ref" gives
    times in reference time (see probes.py), "wall" the plain wall-clock
    figures. Medians across children; the iteration figures pool all
    iterations."""
    iter_ms = [ms for c in children
               for ms in c["iteration_ref_ms" if key == "ref" else "iteration_ms"]]
    return {
        "setup_s": statistics.median(setup_seconds(c, key) for c in children),
        "iter_ms_p50": statistics.median(iter_ms),
        "train_samples_per_s": len(iter_ms) * batch_size / (sum(iter_ms) / 1e3),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool,
                 reference: dict) -> dict:
    """Run wl's children for about `seconds`, check them, aggregate."""
    ref = reference["workloads"][wl.name]
    if ref["iterations"] != wl.iterations:
        raise SystemExit(f"reference for {wl.name} was made at {ref['iterations']} "
                         f"iterations, the workload runs {wl.iterations}")
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR))
    try:
        config, cfg = write_config(wl, run_dir)
        plain, traced_runs, failures = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        unit_s = 0.0
        index = 0
        while index == 0 or time.perf_counter() - start + unit_s <= seconds:
            unit_start = time.perf_counter()
            train_seed = child_seed(seed, index, len(ref["final_train_loss"]))
            ref_loss = ref["final_train_loss"][train_seed]
            modes = (False, True) if traced else (False,)
            for mode in modes:
                out = run_dir / f"child{index}-{'traced' if mode else 'plain'}"
                res = run_child(config, out, train_seed, mode)
                problems = check_child(res, out, cfg, ref_loss, reference["rtol"])
                plain_csv = run_dir / f"child{index}-plain" / "metrics.csv"
                if mode and not problems and (not plain_csv.is_file() or
                                              plain_csv.read_bytes()
                                              != (out / "metrics.csv").read_bytes()):
                    problems.append("traced metrics.csv differs from the untraced one")
                # 28 MB on ortho_wide; dropping it early keeps dirty pages
                # of one child from being flushed while the next one writes
                (out / "checkpoint.json").unlink(missing_ok=True)
                if mode and (out / "spans.json").is_file():
                    (out / "spans.json").replace(WORK_DIR / f"spans_{wl.name}.json")
                attempted += wl.iterations
                if problems:
                    failed += wl.iterations
                    failures.append({"child": out.name, "seed": train_seed,
                                     "problems": problems[:5]})
                else:
                    res["train_seed"] = train_seed
                    (traced_runs if mode else plain).append(res)
            unit_s = time.perf_counter() - unit_start
            index += 1
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    summary = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(traced),
               "iterations_per_child": wl.iterations, "children": index,
               "elapsed_s": elapsed, "attempted": attempted, "failed": failed,
               "failures": failures}
    if plain:
        iter_ms = [ms for c in plain for ms in c["iteration_ref_ms"]]
        probe_ms = [ms for c in plain for ms in c["probe_ms"]]
        batch_size = cfg["train"]["batch_size"]
        summary["iter_samples"] = len(iter_ms)
        summary["iter_tail"] = tail_percentile(iter_ms)
        summary["probe_ms_p50"] = statistics.median(probe_ms)
        summary["blas_threads"] = sorted({c["blas_threads"] for c in plain}, key=str)
        summary["end_to_end"] = end_to_end(plain, batch_size)
        summary["end_to_end"]["max_drift"] = pool_drift(plain, ref["max_drift"])
        summary["end_to_end_wall"] = end_to_end(plain, batch_size, key="wall")
        summary["write_s"] = statistics.median(c["write_s"] for c in plain)
        summary["per_child"] = [
            {"seed": c["train_seed"], "setup_s": setup_seconds(c, "wall"),
             "write_s": c["write_s"], "max_drift": c["max_drift"],
             "iter_ref_ms_p50": statistics.median(c["iteration_ref_ms"]),
             "probe_ms_p50": statistics.median(c["probe_ms"])} for c in plain]
    if traced_runs and plain:
        layers = {name: statistics.median(c["layers"][name] for c in traced_runs)
                  for name in traced_runs[0]["layers"]}
        traced_ms = statistics.median(ms for c in traced_runs for ms in c["iteration_ref_ms"])
        layers["trace.overhead_pct"] = 100.0 * (traced_ms / summary["end_to_end"]["iter_ms_p50"]
                                                - 1.0)
        summary["per_layer"] = layers
    return summary


# ---------------------------------------------------------------------------
# output


def implausible(values: dict, idle: tuple[str, ...]) -> list[str]:
    """Figures that no correct run can give. Every figure must be finite.
    Those of layers the workload never calls (idle, per-layer only) must
    be 0; the rest must be > 0, apart from the per-layer figures in
    UNSIGNED_EXEMPT."""
    problems = []
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value!r}")
        elif name in idle:
            if value != 0:
                problems.append(f"{name} is {value!r}, but the workload never calls the layer")
        elif name not in UNSIGNED_EXEMPT and not value > 0:
            problems.append(f"{name} is {value!r}, expected > 0")
    return problems


def report(summary: dict, env: dict, spec: dict, idle: tuple[str, ...] = ()) -> dict:
    """Print the human-readable block and return the contract's JSON object.

    Metric names, units and directions come from BENCHMARK.json; a metric
    it lists that the run could not measure, or that fails implausible(),
    makes the result incorrect. idle names the workload's per-layer
    figures that must read 0.
    """
    print(f"== workload {summary['workload']}  seed={summary['seed']}  "
          f"seconds={summary['seconds']}  trace={summary['trace']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env")
          + " threads=" + ",".join(f"{k}={v}" for k, v in env["thread_env"].items())
          + f" blas_threads_seen={summary.get('blas_threads')}")
    print(f"children={summary['children']} iterations_per_child="
          f"{summary['iterations_per_child']} elapsed_s={summary['elapsed_s']:.1f}")
    metrics = {}
    names = spec["per_layer" if summary["trace"] else "end_to_end"]
    values = summary.get("per_layer" if summary["trace"] else "end_to_end", {})
    for m in names:
        if m["name"] in values:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            note = " (layer not called here)" if summary["trace"] and m["name"] in idle else ""
            print(f"  {m['name']:<42} {value:>14.6g} {m['unit']:<6} "
                  f"({m['better']} is better){note}")
    if "end_to_end" in summary:
        print(f"  {'write_s (wall clock, not gated, see README)':<42} "
              f"{summary['write_s']:>14.6g} s")
        wall = summary["end_to_end_wall"]
        print(f"  wall clock: setup_s={wall['setup_s']:.6g} s "
              f"iter_ms_p50={wall['iter_ms_p50']:.6g} ms "
              f"train_samples_per_s={wall['train_samples_per_s']:.6g} 1/s; speed probe p50="
              f"{summary['probe_ms_p50']:.4g} ms (reference {probes.REF_PROBE_S * 1e3:g} ms)")
        tail = summary["iter_tail"]
        print(f"  iter_ms samples={summary['iter_samples']} tail="
              + (f"p{tail[0]}:{tail[1]:.6g} ms" if tail else "none (too few samples)"))
    if summary["trace"] and "end_to_end" in summary:
        print(f"  untraced iter_ms_p50 in this run: "
              f"{summary['end_to_end']['iter_ms_p50']:.6g} ms")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for f in summary["failures"]:
        print(f"  CHECK FAILED {f['child']} (seed {f['seed']}): " + "; ".join(f["problems"]))
    bad = implausible({k: v["value"] for k, v in metrics.items()}, idle)
    for problem in bad:
        print(f"  CHECK FAILED metric: {problem}")
    correct = failed == 0 and len(metrics) == len(names) and not bad
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[w.name for w in WORKLOADS] + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ncgru" / "cli.py").is_file():
        print(f"error: no ncgru sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    reference = load_reference()
    env = environment()
    chosen = [w for w in WORKLOADS if args.workload in (w.name, "all")]
    ok = True
    for wl in chosen:
        summary = run_workload(wl, args.seed, args.seconds, bool(args.trace), reference)
        result = report(summary, env, spec, wl.idle)
        WORK_DIR.mkdir(exist_ok=True)
        with open(WORK_DIR / f"last_{wl.name}_trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"env": env, "summary": summary, "result": result}, fh, indent=1)
        ok &= result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
