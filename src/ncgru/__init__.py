"""Orthogonal GRU training via Neumann-Cayley updates.

The public surface: linear algebra kernels (linalg), the skew-symmetric
orthogonal parameterization and its incremental inverse (orthocore), GRU
and NC-GRU cells with hand-derived BPTT (cells), skew-preserving
optimizers (optim), Jacobian-norm bounds (bounds), synthetic task
generators (tasks), and the experiment harness plus CLI (harness, cli).
"""

from .bounds import BoundReport, compute_bound, saturation_sweep
from .cells import (BpttResult, CellParams, StepCache, cell_backward, cell_forward,
                    jacobian_h, modrelu, sequence_bptt, sequence_forward)
from .errors import (ConfigError, ContractError, ConvergenceError, NcgruError,
                     NumericError, ShapeError, SingularMatrixError)
from .harness import (ExperimentConfig, LinearReadoutMse, RunResult, RunState, build_model,
                      load_checkpoint, run_ablation, run_gradcheck, run_training, save_checkpoint,
                      train_steps)
from .linalg import exact_inverse, fro_dist_identity, spectral_norm
from .optim import Optimizer
from .orthocore import (NeumannDiagnostics, SkewOrthogonal, cayley_transform,
                        init_skew, make_scaling)
from .tasks import (TaskBatch, adding_baseline_mse, copying_baseline_xent, dump_jsonl,
                    gen_adding, gen_copying, gen_denoise, gen_parenthesis, make_batch,
                    memoryless_copying_xent, task_dims)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "compute_bound", "saturation_sweep",
    "BpttResult", "CellParams", "LinearReadoutMse", "StepCache",
    "cell_backward", "cell_forward", "jacobian_h", "modrelu",
    "sequence_bptt", "sequence_forward",
    "ConfigError", "ContractError", "ConvergenceError", "NcgruError",
    "NumericError", "ShapeError", "SingularMatrixError",
    "ExperimentConfig", "RunResult", "RunState", "build_model", "load_checkpoint",
    "run_ablation", "run_gradcheck", "run_training", "save_checkpoint", "train_steps",
    "exact_inverse", "fro_dist_identity", "spectral_norm",
    "Optimizer",
    "NeumannDiagnostics", "SkewOrthogonal", "cayley_transform", "init_skew",
    "make_scaling",
    "TaskBatch", "adding_baseline_mse", "copying_baseline_xent", "dump_jsonl",
    "gen_adding", "gen_copying", "gen_denoise", "gen_parenthesis", "make_batch",
    "memoryless_copying_xent", "task_dims",
    "__version__",
]
