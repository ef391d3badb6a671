"""The package's public surface, ncgru.__all__, and what importing it loads."""

import os
import pathlib
import subprocess
import sys

import ncgru
import ncgru.errors
from ncgru import cells, orthocore


def test_public_names_resolve_once_and_removed_names_stay_gone():
    assert len(ncgru.__all__) == len(set(ncgru.__all__))
    for name in ncgru.__all__:
        assert getattr(ncgru, name, None) is not None, name
    for name in ("LinearReadoutMse", "SoftmaxReadoutXent"):   # both readouts
        assert name in ncgru.__all__
        assert getattr(ncgru, name) is getattr(ncgru.harness, name)
    for name in ("sequence_forward", "skew_from_angles"):
        assert name not in ncgru.__all__
        for module in (ncgru, cells, orthocore):
            assert not hasattr(module, name), (module.__name__, name)


def test_convergence_error_is_only_the_probes_name():
    """Nothing raises ConvergenceError, so the package does not export it;
    trainbench's probe still names ncgru.errors.ConvergenceError as an
    exception class until the benchmark revision drops it."""
    assert "ConvergenceError" not in ncgru.__all__
    assert not hasattr(ncgru, "ConvergenceError")
    assert issubclass(ncgru.errors.ConvergenceError, ncgru.NcgruError)


_IMPORT_FOOTPRINT = """
import sys
import numpy as np
import ncgru, ncgru.cli
from ncgru.linalg import exact_inverse, spectral_norm
w = ncgru.SkewOrthogonal.create(8, seed=0)
exact_inverse(np.eye(8) + w.a)
spectral_norm(w.u)
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_package_runs_without_importing_scipy_linalg():
    # A fresh interpreter: this one imports scipy.linalg for the tests' oracles.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
