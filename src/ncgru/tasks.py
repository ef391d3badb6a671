"""Synthetic long-memory tasks: adding, copying, parenthesis, denoise.

Every generator is a pure function of (sizes, seed) built on
numpy.random.default_rng, so a batch is reproducible from its metadata
alone. Inputs come out as float64 arrays of shape (batch, T_total, dim)
with symbolic tasks one-hot encoded; targets are float scalars per sample
for the adding task and per-step integer class indices otherwise.

Conventions, per task:

  adding       T steps, dim 2. Channel 0 carries exactly two marker ones,
               one in each half of the sequence; channel 1 carries iid
               uniform [0, 1) values. Target: the sum of the two marked
               values. A model that always predicts 1 (the target mean)
               scores MSE 1/6.

  copying      T + 20 steps over a 10-symbol alphabet: 10 digits drawn
               from {1..8}, T blanks (0), a recall marker (9), then 9 more
               blanks. Targets are blank everywhere except the final 10
               steps, which replay the digits. The best memoryless
               strategy scores cross-entropy 10*ln(8)/(T+20).

  parenthesis  T steps over 10 bracket pairs plus one noise symbol
               (dim 21). At each step: 1/3 noise, 1/3 open a uniform
               bracket type, 1/3 close a uniformly chosen currently-open
               type (noise when nothing is open). Target per step: the
               total count of unmatched opens, capped at 10, so 11 classes.

  denoise      T + 10 steps. 10 data symbols from an n-symbol alphabet sit
               at random distinct positions in the first T steps, noise
               elsewhere; a marker arrives at step T and the 10 symbols
               must be replayed from the marker step on. Targets are the
               blank class (index n) before the marker. Input dim n + 2
               (data, noise, marker), output classes n + 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

TASK_NAMES = ("adding", "copying", "parenthesis", "denoise")

PARENTHESIS_PAIRS = 10
PARENTHESIS_CAP = 10
DENOISE_ALPHABET = 10
_COPY_DIGITS = 8
_COPY_RECALL = 10
# shortest T each generator accepts
_MIN_T = {"adding": 2, "copying": 1, "parenthesis": 1, "denoise": 11}


@dataclass
class TaskBatch:
    """One generated batch plus the metadata that reproduces it.

    inputs: (batch, T_total, dim) float64.
    targets: (batch,) float for loss_kind "mse", else (batch, T_total) int.
    final_only marks batches whose cross-entropy applies to the last step
    only (a parenthesis variant); n_classes is None for the scalar task.
    """

    task: str
    T: int
    seed: int
    inputs: np.ndarray
    targets: np.ndarray
    loss_kind: str
    n_classes: int | None
    final_only: bool = False

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[2]

    def step_inputs(self) -> list[np.ndarray]:
        """Per-step (dim, batch) column copies, C-contiguous, one per step."""
        return [np.ascontiguousarray(self.inputs[:, t, :].T)
                for t in range(self.inputs.shape[1])]


def _one_hot(classes: np.ndarray, depth: int) -> np.ndarray:
    b, t = classes.shape
    out = np.zeros((b, t, depth))
    rows = np.repeat(np.arange(b), t)
    cols = np.tile(np.arange(t), b)
    out[rows, cols, classes.ravel()] = 1.0
    return out


def _check_request(task: str, T: int, batch: int = 1, seed: int = 0,
                   n_pairs: int = PARENTHESIS_PAIRS, alphabet_n: int = DENOISE_ALPHABET) -> None:
    """The size rules of every generator; configs are checked against them too."""
    if T < _MIN_T[task]:
        raise ContractError(f"{task} task needs T >= {_MIN_T[task]}, got {T}")
    if batch < 1:
        raise ContractError(f"batch must be >= 1, got {batch}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if not 1 <= n_pairs <= PARENTHESIS_PAIRS:
        raise ContractError(f"n_pairs must be in [1, {PARENTHESIS_PAIRS}], got {n_pairs}")
    if alphabet_n < 2:
        raise ContractError(f"denoise alphabet must have >= 2 symbols, got {alphabet_n}")


def gen_adding(T: int, batch: int, seed: int) -> TaskBatch:
    _check_request("adding", T, batch, seed)
    rng = np.random.default_rng(seed)
    inputs = np.zeros((batch, T, 2))
    inputs[:, :, 1] = rng.uniform(0.0, 1.0, (batch, T))
    first = rng.integers(0, T // 2, batch)
    second = rng.integers(T // 2, T, batch)
    rows = np.arange(batch)
    inputs[rows, first, 0] = 1.0
    inputs[rows, second, 0] = 1.0
    targets = inputs[rows, first, 1] + inputs[rows, second, 1]
    return TaskBatch(task="adding", T=T, seed=seed, inputs=inputs,
                     targets=targets, loss_kind="mse", n_classes=None)


def gen_copying(T: int, batch: int, seed: int) -> TaskBatch:
    _check_request("copying", T, batch, seed)
    rng = np.random.default_rng(seed)
    total = T + 20
    digits = rng.integers(1, _COPY_DIGITS + 1, (batch, 10))
    stream = np.zeros((batch, total), dtype=np.int64)
    stream[:, :10] = digits
    stream[:, T + 10] = 9
    targets = np.zeros((batch, total), dtype=np.int64)
    targets[:, T + 10:] = digits
    inputs = _one_hot(stream, 10)
    return TaskBatch(task="copying", T=T, seed=seed, inputs=inputs,
                     targets=targets, loss_kind="xent", n_classes=_COPY_DIGITS + 1)


def unmatched_counts(symbols: np.ndarray, n_pairs: int = PARENTHESIS_PAIRS,
                     cap: int = PARENTHESIS_CAP) -> np.ndarray:
    """Per-step count of unmatched opens in a bracket stream, capped.

    Symbol ids follow the parenthesis encoding: 2k opens pair k, 2k+1
    closes it, 2*n_pairs is noise. Closes of types with nothing open are
    ignored (the generator never emits them, but the counter is total).
    """
    symbols = np.asarray(symbols)
    per_type = np.zeros(n_pairs, dtype=np.int64)
    out = np.zeros(symbols.shape[0], dtype=np.int64)
    for t, sym in enumerate(symbols):
        if sym < 2 * n_pairs:
            k, closing = divmod(int(sym), 2)
            if closing:
                if per_type[k] > 0:
                    per_type[k] -= 1
            else:
                per_type[k] += 1
        out[t] = min(per_type.sum(), cap)
    return out


def gen_parenthesis(T: int, batch: int, seed: int, n_pairs: int = PARENTHESIS_PAIRS,
                    final_only: bool = False) -> TaskBatch:
    _check_request("parenthesis", T, batch, seed, n_pairs=n_pairs)
    rng = np.random.default_rng(seed)
    noise = 2 * n_pairs
    symbols = np.zeros((batch, T), dtype=np.int64)
    for b in range(batch):
        open_now = np.zeros(n_pairs, dtype=np.int64)
        for t in range(T):
            action = rng.integers(0, 3)
            if action == 0:
                sym = noise
            elif action == 1:
                k = int(rng.integers(0, n_pairs))
                open_now[k] += 1
                sym = 2 * k
            else:
                avail = np.flatnonzero(open_now)
                if avail.size == 0:
                    sym = noise
                else:
                    k = int(avail[rng.integers(0, avail.size)])
                    open_now[k] -= 1
                    sym = 2 * k + 1
            symbols[b, t] = sym
    targets = np.stack([unmatched_counts(symbols[b], n_pairs) for b in range(batch)])
    inputs = _one_hot(symbols, noise + 1)
    return TaskBatch(task="parenthesis", T=T, seed=seed, inputs=inputs,
                     targets=targets, loss_kind="xent",
                     n_classes=PARENTHESIS_CAP + 1, final_only=final_only)


def gen_denoise(T: int, batch: int, seed: int,
                alphabet_n: int = DENOISE_ALPHABET) -> TaskBatch:
    _check_request("denoise", T, batch, seed, alphabet_n=alphabet_n)
    rng = np.random.default_rng(seed)
    total = T + 10
    noise = alphabet_n
    marker = alphabet_n + 1
    stream = np.full((batch, total), noise, dtype=np.int64)
    targets = np.full((batch, total), alphabet_n, dtype=np.int64)
    for b in range(batch):
        pos = np.sort(rng.choice(T, size=10, replace=False))
        sym = rng.integers(0, alphabet_n, 10)
        stream[b, pos] = sym
        targets[b, T:] = sym
    stream[:, T] = marker
    inputs = _one_hot(stream, alphabet_n + 2)
    return TaskBatch(task="denoise", T=T, seed=seed, inputs=inputs,
                     targets=targets, loss_kind="xent", n_classes=alphabet_n + 1)


def make_batch(task: str, T: int, batch: int, seed: int, **kw) -> TaskBatch:
    """Dispatch by task name; kw passes task-specific options through."""
    gens = {"adding": gen_adding, "copying": gen_copying,
            "parenthesis": gen_parenthesis, "denoise": gen_denoise}
    if task not in gens:
        raise ContractError(f"unknown task {task!r}, expected one of {TASK_NAMES}")
    return gens[task](T, batch, seed, **kw)


def task_dims(task: str, alphabet_n: int = DENOISE_ALPHABET,
              n_pairs: int = PARENTHESIS_PAIRS) -> tuple[int, int]:
    """(input dim, readout dim) for a task; readout dim 1 means scalar."""
    if task == "adding":
        return 2, 1
    if task == "copying":
        return 10, _COPY_DIGITS + 1
    if task == "parenthesis":
        return 2 * n_pairs + 1, PARENTHESIS_CAP + 1
    if task == "denoise":
        return alphabet_n + 2, alphabet_n + 1
    raise ContractError(f"unknown task {task!r}, expected one of {TASK_NAMES}")


def memoryless_copying_xent(batch: TaskBatch) -> float:
    """Empirical mean cross-entropy of the best memoryless strategy on a
    generated copying batch.

    The strategy sees only the current input: predict blank (class 0) with
    certainty until the recall marker shows up, then predict uniformly over
    the 8 digits from the marker step on.
    """
    if batch.task != "copying":
        raise ContractError(f"memoryless strategy defined for copying, got {batch.task!r}")
    marker_seen = np.zeros(batch.batch_size, dtype=bool)
    total = 0.0
    steps = batch.inputs.shape[1]
    for t in range(steps):
        marker_seen |= batch.inputs[:, t, 9] == 1.0
        tgt = batch.targets[:, t]
        # CE is ln(8) when mass is uniform over digits, 0 for a certain
        # correct blank; a wrong certain prediction would be infinite and
        # never happens for this generator.
        ce = np.where(marker_seen, np.log(_COPY_DIGITS), np.where(tgt == 0, 0.0, np.inf))
        total += float(np.sum(ce))
    return total / (batch.batch_size * steps)


def adding_baseline_mse() -> float:
    """MSE of always predicting the target mean (1.0).

    The target is a sum of two independent uniform [0, 1) values, so the
    constant predictor's error is its variance, 2 * (1/12) = 1/6.
    """
    return 1.0 / 6.0


def copying_baseline_xent(T: int) -> float:
    """Mean cross-entropy of the best memoryless strategy on copying.

    Predict blank until the marker has been seen, then spread mass
    uniformly over the 8 digits: ln(8) on each of the 10 replay steps,
    0 elsewhere, averaged over T + 20 steps.
    """
    return 10.0 * np.log(_COPY_DIGITS) / (T + 20)


def dump_jsonl(batch: TaskBatch, path) -> int:
    """Write one JSON object per sample; returns the number of lines.

    Schema: {"task", "T", "seed", "input", "target"} with input as a
    (T_total, dim) nested list and target as a flat list (single-element
    for the scalar task).
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(batch.batch_size):
            if batch.loss_kind == "mse":
                target = [float(batch.targets[i])]
            else:
                target = [int(v) for v in batch.targets[i]]
            rec = {"task": batch.task, "T": batch.T, "seed": batch.seed,
                   "input": batch.inputs[i].tolist(), "target": target}
            fh.write(json.dumps(rec) + "\n")
    return batch.batch_size
