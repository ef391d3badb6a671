"""Synthetic long-memory tasks: adding, copying, parenthesis, denoise.

Every generator is a pure function of (T, batch, seed) built on
numpy.random.default_rng, so a batch is reproducible from its metadata
alone. A batch keeps its stream as generated: the adding task's float64
channels, (batch, T, 2), or a symbolic task's int64 symbols, (batch,
T_total), one-hot encoded into the task's input dim only where the cells
read them (step_inputs, stream_step_inputs). Targets are float scalars per
sample for the adding task and per-step integer class indices otherwise.

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

  parenthesis  T steps over a fixed 10 bracket pairs plus one noise
               symbol (dim 21). At each step: 1/3 noise, 1/3 open a uniform
               bracket type, 1/3 close a uniformly chosen currently-open
               type (noise when nothing is open). Target per step: the
               total count of unmatched opens, capped at 10, so 11 classes.

  denoise      T + 10 steps. 10 data symbols from a fixed 10-symbol
               alphabet sit at random distinct positions in the first T
               steps, noise elsewhere; a marker arrives at step T and the
               10 symbols must be replayed from the marker step on. Targets
               are the blank class (index 10) before the marker. Input dim
               12 (data, noise, marker), output classes 11.

The sizes are fixed: a task is its name and its length T. The _TASKS
table at the end states each task's generator, shortest T and dims once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codec import replacing
from .errors import ContractError

PARENTHESIS_PAIRS = 10
PARENTHESIS_CAP = 10
DENOISE_ALPHABET = 10
_COPY_DIGITS = 8
_STREAM_STEPS = 32   # steps per array that stream_step_inputs makes


@dataclass
class TaskBatch:
    """One generated batch plus the metadata that reproduces it.

    stream: (batch, T, 2) float64 channels for the adding task, else the
        (batch, T_total) int64 symbols, each a class of the input dim.
    targets: (batch,) float for loss_kind "mse", else (batch, T_total) int.
    """

    task: str
    T: int
    seed: int
    stream: np.ndarray
    targets: np.ndarray
    loss_kind: str

    @property
    def batch_size(self) -> int:
        return self.stream.shape[0]

    @property
    def _symbolic(self) -> bool:
        return self.stream.dtype.kind == "i"

    def step_inputs(self) -> np.ndarray:
        """The C-contiguous (T_total, dim, batch) float64 inputs, entry t
        being step t's (dim, batch) columns; a symbolic task's one-hot is
        written straight from its symbols."""
        return self._columns(slice(None))

    def stream_step_inputs(self):
        """The columns of step_inputs one at a time, made _STREAM_STEPS
        steps at a time when the iteration reaches them, so a pass over
        them holds O(dim * batch) for any T_total."""
        for t in range(0, self.stream.shape[1], _STREAM_STEPS):
            yield from self._columns(slice(t, t + _STREAM_STEPS))

    def _columns(self, steps: slice) -> np.ndarray:
        """The C-contiguous (len(steps), dim, batch) float64 inputs of steps."""
        if self._symbolic:
            return _one_hot(self.stream[:, steps].T, task_dims(self.task)[0], axis=1)
        return np.ascontiguousarray(self.stream[:, steps].transpose(1, 2, 0))


def _one_hot(classes: np.ndarray, depth: int, axis: int = -1) -> np.ndarray:
    """float64 one-hot of int classes, its axis of length depth at
    position axis of the result."""
    axis %= classes.ndim + 1
    index = list(np.indices(classes.shape, sparse=True))
    index.insert(axis, classes)
    out = np.zeros(classes.shape[:axis] + (depth,) + classes.shape[axis:])
    out[tuple(index)] = 1.0
    return out


def _check_request(task: str, T: int, batch: int = 1, seed: int = 0) -> None:
    """The size rules of every generator; configs are checked against them too."""
    min_t = _TASKS[task][1]
    if T < min_t:
        raise ContractError(f"{task} task needs T >= {min_t}, got {T}")
    if batch < 1:
        raise ContractError(f"batch must be >= 1, got {batch}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")


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
    return TaskBatch(task="adding", T=T, seed=seed, stream=inputs,
                     targets=targets, loss_kind="mse")


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
    return TaskBatch(task="copying", T=T, seed=seed, stream=stream,
                     targets=targets, loss_kind="xent")


def gen_parenthesis(T: int, batch: int, seed: int) -> TaskBatch:
    _check_request("parenthesis", T, batch, seed)
    rng = np.random.default_rng(seed)
    noise = 2 * PARENTHESIS_PAIRS
    symbols = np.zeros((batch, T), dtype=np.int64)
    targets = np.zeros((batch, T), dtype=np.int64)
    for b in range(batch):
        open_now = np.zeros(PARENTHESIS_PAIRS, dtype=np.int64)
        depth = 0   # open_now.sum(), the unmatched opens so far
        for t in range(T):
            action = rng.integers(0, 3)
            if action == 0:
                sym = noise
            elif action == 1:
                k = int(rng.integers(0, PARENTHESIS_PAIRS))
                open_now[k] += 1
                depth += 1
                sym = 2 * k
            else:
                avail = np.flatnonzero(open_now)
                if avail.size == 0:
                    sym = noise
                else:
                    k = int(avail[rng.integers(0, avail.size)])
                    open_now[k] -= 1
                    depth -= 1
                    sym = 2 * k + 1
            symbols[b, t] = sym
            targets[b, t] = min(depth, PARENTHESIS_CAP)
    return TaskBatch(task="parenthesis", T=T, seed=seed, stream=symbols,
                     targets=targets, loss_kind="xent")


def gen_denoise(T: int, batch: int, seed: int) -> TaskBatch:
    _check_request("denoise", T, batch, seed)
    rng = np.random.default_rng(seed)
    total = T + 10
    noise, marker = DENOISE_ALPHABET, DENOISE_ALPHABET + 1
    stream = np.full((batch, total), noise, dtype=np.int64)
    targets = np.full((batch, total), DENOISE_ALPHABET, dtype=np.int64)   # blank
    for b in range(batch):
        pos = np.sort(rng.choice(T, size=10, replace=False))
        sym = rng.integers(0, DENOISE_ALPHABET, 10)
        stream[b, pos] = sym
        targets[b, T:] = sym
    stream[:, T] = marker
    return TaskBatch(task="denoise", T=T, seed=seed, stream=stream,
                     targets=targets, loss_kind="xent")


# name -> (generator, shortest T, input dim, readout dim; 1 means scalar)
_TASKS = {
    "adding": (gen_adding, 2, 2, 1),
    "copying": (gen_copying, 1, 10, _COPY_DIGITS + 1),
    "parenthesis": (gen_parenthesis, 1, 2 * PARENTHESIS_PAIRS + 1, PARENTHESIS_CAP + 1),
    "denoise": (gen_denoise, 11, DENOISE_ALPHABET + 2, DENOISE_ALPHABET + 1),
}
TASK_NAMES = tuple(_TASKS)


def _task(task: str) -> tuple:
    if task not in _TASKS:
        raise ContractError(f"unknown task {task!r}, expected one of {TASK_NAMES}")
    return _TASKS[task]


def make_batch(task: str, T: int, batch: int, seed: int) -> TaskBatch:
    """Dispatch by task name."""
    return _task(task)[0](T, batch, seed)


def task_dims(task: str) -> tuple[int, int]:
    """(input dim, readout dim) for a task; readout dim 1 means scalar."""
    return _task(task)[2:]


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
    steps = batch.stream.shape[1]
    for t in range(steps):
        marker_seen |= batch.stream[:, t] == 9
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
    (T_total, dim) nested list (one-hot rows for a symbolic task) and
    target as a flat list (single-element for the scalar task). Like every
    artifact, the file is replaced whole or not at all (codec.replacing).
    """
    with replacing(path) as fh:
        for i in range(batch.batch_size):
            if batch.loss_kind == "mse":
                target = [float(batch.targets[i])]
            else:
                target = [int(v) for v in batch.targets[i]]
            sample = batch.stream[i]
            if batch._symbolic:
                sample = _one_hot(sample, task_dims(batch.task)[0])
            rec = {"task": batch.task, "T": batch.T, "seed": batch.seed,
                   "input": sample.tolist(), "target": target}
            fh.write(json.dumps(rec) + "\n")
    return batch.batch_size
