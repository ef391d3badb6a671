"""Timing probes installed around ncgru's public functions from outside.

Nothing under src/ changes. A probe replaces a module attribute (or a
class attribute, for methods) with a wrapper that records a span and calls
the original. Names that one ncgru module imported from another
(``harness.make_batch``, ``orthocore.spectral_norm``, ...) are bound in the
importer's namespace, so each probe is installed at every place the
training path looks the function up.

Two modes:

* untraced: only the marks the end-to-end metrics need - a timestamp at
  every ``make_batch`` call (each training iteration opens with one), the
  duration of the artifact writes at the end of the run, and the speed
  probe below;
* traced: additionally one span per call to every layer function in
  TRACED, kept in memory and written out when the run ends.

Iteration ids: the first ``make_batch`` call builds the held-out eval
batch and belongs to set-up (iteration 0); call k >= 1 opens training
iteration k. Spans after the loop (artifact writes) get iteration -1.

Speed probe: shared 2-vCPU hosts change speed by +-30% from one second to
the next. Before every ``make_batch`` call and at the end of the loop the
probe times a fixed piece of reference work (``SpeedProbe``, ~0.7 ms, run
warm). An iteration is then also reported in reference time: its wall
time scaled by REF_PROBE_S over the mean of the probe readings at its
ends. Probe time lies outside every timed interval. The artifact writes
are reported in wall time only.
"""

from __future__ import annotations

import functools
import json
import os
import time

_clock = time.perf_counter

# Probe duration that defines reference time: the probe's typical reading
# on an idle 2-vCPU Xeon VM (OpenBLAS, 1 thread). Figures in reference time
# read like wall time on that machine.
REF_PROBE_S = 0.7e-3

# (module, owner, attribute, span name): the probe replaces
# module.owner.attribute, where owner is a class name or "" for the module.
TRACED = (
    ("tasks", "TaskBatch", "step_inputs", "tasks.step_inputs"),
    ("harness", "", "sequence_bptt", "cells.sequence_bptt"),
    ("cells", "", "cell_forward", "cells.cell_forward"),
    ("cells", "", "cell_backward", "cells.cell_backward"),
    ("cells", "", "sigmoid", "cells.sigmoid"),
    ("harness", "LinearReadoutMse", "loss_and_grads", "harness.loss_and_grads"),
    ("harness", "SoftmaxReadoutXent", "loss_and_grads", "harness.loss_and_grads"),
    ("harness", "", "evaluate", "harness.evaluate"),
    ("optim", "Optimizer", "step", "optim.step"),
    ("orthocore", "SkewOrthogonal", "grad_pullback", "orthocore.grad_pullback"),
    ("orthocore", "SkewOrthogonal", "neumann_step", "orthocore.neumann_step"),
    ("orthocore", "SkewOrthogonal", "exact_step", "orthocore.exact_step"),
    ("orthocore", "SkewOrthogonal", "reset", "orthocore.reset"),
    ("orthocore", "", "check_skew", "orthocore.check_skew"),
    ("orthocore", "", "spectral_norm", "linalg.spectral_norm"),
    ("orthocore", "", "exact_inverse", "linalg.exact_inverse"),
    ("orthocore", "", "fro_dist_identity", "linalg.fro_dist_identity"),
)

# Fields of cells.StepCache that hold arrays.
_CACHE_FIELDS = ("x_t", "h_prev", "pre_r", "pre_u", "pre_c", "r_t", "u_t", "c_t", "h_t")


class SpeedProbe:
    """A fixed mix of the work ncgru does: small matrix products with an
    elementwise function and a bare interpreter loop (the cells), a
    128x128 product, matrix-vector products on a 256x256 matrix (the
    power iteration), elementwise updates of 256x256 arrays (Adam on the
    skews) and indented JSON encoding of floats (the checkpoint).

    Calling it runs one untimed round, which brings the probe's 1.6 MB of
    data back into cache, then returns how long a second round took, in
    seconds. The large arrays are updated in place, so the reading does
    not depend on what the program left in the cache or the allocator.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.random((32, 32)) / 32
        self._cols = rng.random((32, 50))
        self._square = rng.random((128, 128)) / 128
        self._square_out = np.empty((128, 128))
        self._wide = rng.random((256, 256)) / 256
        self._vec = rng.random(256)
        self._grad = rng.random((256, 256))
        self._avg = np.zeros((256, 256))
        self._tmp = np.empty((256, 256))
        self._floats = rng.random((8, 8)).tolist()

    def _round(self) -> None:
        np = self._np
        x = self._cols
        for _ in range(10):
            x = np.tanh(self._small @ x)
        total = 0
        for i in range(1000):
            total += i
        json.dumps(self._floats, indent=1)
        np.matmul(self._square, self._square, out=self._square_out)
        v = self._vec
        for _ in range(5):
            v = self._wide @ v
            v /= np.linalg.norm(v)
        np.multiply(self._grad, 0.1, out=self._tmp)
        self._avg *= 0.9
        self._avg += self._tmp
        np.multiply(self._avg, self._avg, out=self._tmp)
        np.sqrt(self._tmp, out=self._tmp)

    def __call__(self) -> float:
        self._round()
        start = _clock()
        self._round()
        return _clock() - start


class Recorder:
    """Marks and spans of one child run. Single-threaded by construction."""

    def __init__(self, traced: bool):
        self.traced = traced
        # one entry per make_batch call, then one at the end of the loop
        self.probe_starts: list[float] = []
        self.probe_s: list[float] = []
        # when each make_batch call began, after its probe
        self.batch_starts: list[float] = []
        self.loop_end: float | None = None
        self.iteration = 0
        # span: [name, start, end, parent index or -1, iteration]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.spectral_fallbacks = 0
        self.checkpoint_bytes = 0
        # computed per sequence_bptt call: bytes of the step caches it keeps
        self.cache_bytes: list[int] = []
        self._cache_ids: set[int] | None = None
        self._probe = SpeedProbe()

    def probe(self) -> None:
        self.probe_starts.append(_clock())
        self.probe_s.append(self._probe())

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.iteration])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (columns + rows)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "iteration"],
                       "batch_starts": self.batch_starts, "loop_end": self.loop_end,
                       "probe_s": self.probe_s, "rows": self.spans}, fh)


def install(rec: Recorder) -> None:
    """Install the probes for rec's mode. Call before ncgru runs anything."""
    from ncgru import cells, errors, harness, optim, orthocore, tasks
    modules = {"tasks": tasks, "cells": cells, "harness": harness,
               "optim": optim, "orthocore": orthocore}

    make_batch = harness.make_batch
    if rec.traced:
        make_batch = rec.span("tasks.make_batch", make_batch)

    def probed_make_batch(*args, **kwargs):
        rec.probe()
        rec.batch_starts.append(_clock())
        rec.iteration = len(rec.batch_starts) - 1
        return make_batch(*args, **kwargs)

    write_metrics_csv = rec.span("harness.write_metrics_csv", harness.write_metrics_csv)
    save_checkpoint = rec.span("harness.save_checkpoint", harness.save_checkpoint)

    def probed_write_metrics_csv(metrics, path):
        if rec.loop_end is None:
            rec.probe()
            rec.loop_end = rec.probe_starts[-1]
            rec.iteration = -1
        return write_metrics_csv(metrics, path)

    def probed_save_checkpoint(path, *args, **kwargs):
        try:
            return save_checkpoint(path, *args, **kwargs)
        finally:
            rec.checkpoint_bytes = os.path.getsize(path)

    harness.make_batch = probed_make_batch
    harness.write_metrics_csv = probed_write_metrics_csv
    harness.save_checkpoint = probed_save_checkpoint

    if not rec.traced:
        return

    for module, owner, attr, name in TRACED:
        target = modules[module]
        if owner:
            target = getattr(target, owner)
        fn = getattr(target, attr)
        if attr == "spectral_norm":
            fn = _count_fallbacks(rec, fn, errors.ConvergenceError)
        elif attr == "cell_forward":
            fn = _count_cache_bytes(rec, fn)
        setattr(target, attr, rec.span(name, fn))

    sequence_bptt = harness.sequence_bptt

    def bptt_with_cache_count(*args, **kwargs):
        rec._cache_ids = set()
        rec.cache_bytes.append(0)
        try:
            return sequence_bptt(*args, **kwargs)
        finally:
            rec._cache_ids = None

    harness.sequence_bptt = bptt_with_cache_count


def _count_fallbacks(rec: Recorder, fn, convergence_error):
    """orthocore catches ConvergenceError and keeps the last estimate; the
    probe sees the raise first and counts it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except convergence_error:
            rec.spectral_fallbacks += 1
            raise
    return wrapper


def _count_cache_bytes(rec: Recorder, fn):
    """Add the nbytes of each distinct array in the caches cell_forward
    returns while a sequence_bptt call keeps them (eval forwards drop
    theirs). h_prev of step t is h_t of step t-1, hence the id set."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen = rec._cache_ids
        if seen is not None:
            cache = out[1]
            for field in _CACHE_FIELDS:
                arr = getattr(cache, field)
                if id(arr) not in seen:
                    seen.add(id(arr))
                    rec.cache_bytes[-1] += arr.nbytes
        return out
    return wrapper


def iterations(rec: Recorder) -> list[tuple[float, float]]:
    """(wall ms, reference-time ms) of each training iteration. Iteration k
    runs from its make_batch call to the probe before the next one (or the
    probe at the end of the loop)."""
    out = []
    for k in range(1, len(rec.batch_starts)):
        wall_s = rec.probe_starts[k + 1] - rec.batch_starts[k]
        speed = REF_PROBE_S / ((rec.probe_s[k] + rec.probe_s[k + 1]) / 2)
        out.append((wall_s * 1e3, wall_s * speed * 1e3))
    return out


def write_seconds(rec: Recorder) -> float:
    """Wall seconds of write_metrics_csv + save_checkpoint."""
    return sum(end - start for name, start, end, _, _ in rec.spans
               if name in ("harness.write_metrics_csv", "harness.save_checkpoint"))


def summarize(rec: Recorder) -> dict:
    """Per-layer figures of one traced child run.

    ``*.ms_per_iter`` and ``*.calls_per_iter`` count spans inside training
    iterations only, divided by the number of iterations; ``*.calls``
    counts the whole run, set-up included. Self time is a span's duration
    minus the durations of its direct child spans. Times are in reference
    time, scaled by the child's median probe reading.
    """
    probe_sorted = sorted(rec.probe_s)
    speed = REF_PROBE_S / probe_sorted[len(probe_sorted) // 2]
    iters = len(rec.batch_starts) - 1
    loop_s = sum(wall for wall, _ in iterations(rec)) / 1e3
    in_iter_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls_in: dict[str, int] = {}
    calls_all: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    child_s = [0.0] * len(rec.spans)
    top_s = 0.0
    for name, start, end, parent, it in rec.spans:
        if parent >= 0:
            child_s[parent] += end - start
        elif it >= 1:
            top_s += end - start
    for i, (name, start, end, parent, it) in enumerate(rec.spans):
        d = end - start
        calls_all[name] = calls_all.get(name, 0) + 1
        durations.setdefault(name, []).append(d)
        if it >= 1:
            in_iter_s[name] = in_iter_s.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - child_s[i]
            calls_in[name] = calls_in.get(name, 0) + 1

    ms = 1e3 * speed
    out = {}
    for name in ("tasks.make_batch", "tasks.step_inputs", "cells.sequence_bptt",
                 "cells.cell_forward", "cells.cell_backward", "cells.sigmoid",
                 "harness.loss_and_grads", "optim.step", "orthocore.grad_pullback",
                 "orthocore.neumann_step", "orthocore.check_skew", "orthocore.exact_step",
                 "orthocore.reset", "linalg.spectral_norm", "linalg.exact_inverse",
                 "linalg.fro_dist_identity"):
        out[name + ".ms_per_iter"] = in_iter_s.get(name, 0.0) * ms / iters
    for name in ("cells.sequence_bptt", "orthocore.neumann_step"):
        out[name + ".self_ms_per_iter"] = self_s.get(name, 0.0) * ms / iters
    for name in ("cells.cell_forward", "cells.cell_backward", "optim.step"):
        out[name + ".calls_per_iter"] = calls_in.get(name, 0) / iters
    for name in ("harness.evaluate", "orthocore.reset", "linalg.spectral_norm",
                 "linalg.exact_inverse"):
        out[name + ".calls"] = calls_all.get(name, 0)
    evals = durations.get("harness.evaluate", [])
    out["harness.evaluate.ms_per_call"] = sum(evals) * ms / len(evals) if evals else 0.0
    out["harness.evaluate.share_pct"] = in_iter_s.get("harness.evaluate", 0.0) * 100 / loop_s
    out["harness.loop_self.ms_per_iter"] = (loop_s - top_s) * ms / iters
    out["harness.save_checkpoint.ms"] = sum(durations.get("harness.save_checkpoint", [])) * ms
    out["harness.write_metrics_csv.ms"] = sum(durations.get("harness.write_metrics_csv", [])) * ms
    out["harness.checkpoint_bytes"] = rec.checkpoint_bytes
    out["cells.cache_bytes"] = max(rec.cache_bytes, default=0)
    sn_calls = calls_all.get("linalg.spectral_norm", 0)
    out["linalg.spectral_norm.converged_frac"] = (
        1.0 - rec.spectral_fallbacks / sn_calls if sn_calls else 1.0)
    return out
