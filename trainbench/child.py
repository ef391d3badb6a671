"""One benchmark child: a single `ncgru train` run under the probes.

Usage (the parent in run.py builds this command):

    python3 trainbench/child.py --root ROOT --config CFG --out DIR \
        --seed N --trace 0|1 --result RESULT.json

The child imports ncgru from ROOT/src, installs the probes, calls
``ncgru.cli.main(["train", ...])`` and writes what it measured to
RESULT.json. Thread pinning comes from the environment the parent sets.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, if its library is loaded here."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import probes
    rec = probes.Recorder(traced=bool(args.trace))
    probes.install(rec)
    from ncgru import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["train", "--config", args.config, "--out", args.out,
                         "--seed", str(args.seed)])
    done = rec.loop_end is not None
    iters = probes.iterations(rec) if done else []
    result = {
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "first_iteration": rec.batch_starts[1] if len(rec.batch_starts) > 1 else None,
        "iteration_ms": [wall for wall, _ in iters],
        "iteration_ref_ms": [ref for _, ref in iters],
        "write_s": probes.write_seconds(rec),
        "probe_ms": [s * 1e3 for s in rec.probe_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if rec.traced and done:
        result["layers"] = probes.summarize(rec)
        rec.dump(os.path.join(args.out, "spans.json"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
