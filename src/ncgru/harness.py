"""Experiment orchestration: configs, readout losses, the training loop,
ablations, finite-difference gradient checks, metric CSVs and checkpoints.

README.md gives the config schema, the seeding layout, the artifacts and
the checkpoint format. A run is a pure function of its config: every seed
is train.seed plus an offset below, and nothing reads global RNG state.
metrics.csv is byte-identical across reruns, so its wall_ms column is
pinned to 0. A numeric abort (NumericError or SingularMatrixError) ends a
run with one row of train_loss nan, status "numeric_error" and no
checkpoint, since it can strike after part of an update was applied.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import tasks
from .cells import (CellParams, _kink_margin, cell_backward, cell_forward, sequence_bptt,
                    sequence_states, step_store)
from .codec import decode, decode_int, encode, reading, replacing
from .errors import ConfigError, ContractError, NumericError, ShapeError, SingularMatrixError
from .optim import _KINDS, Optimizer
from .orthocore import _VALID_ORDERS, SkewOrthogonal, cayley_transform
from .tasks import TaskBatch, make_batch, task_dims

_ORTHO_ORDER = ("u_r", "u_u", "u_c")
_SKEW_SEED = {"u_r": 101, "u_u": 102, "u_c": 103}
_READOUT_SEED = 104
_EVAL_SEED = 1
_BATCH_SEED_BASE = 2
_LOGZ_STEPS = 32   # steps of SoftmaxReadoutXent's exp(logits) scratch

METRICS_HEADER = "step,train_loss,eval_loss,drift,contraction_norm,wall_ms"
ORTHO_HEADER = "step,weight,contraction_norm,spectral_norm,drift"
_FORMAT = "ncgru-checkpoint-v3"


# ---------------------------------------------------------------------------
# configuration


def _check_keys(blob: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(blob) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


# field annotation -> (what the JSON value must be, test, conversion)
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str), str),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "float": ("a finite number", lambda v: isinstance(v, (int, float))
              and not isinstance(v, bool) and abs(v) <= sys.float_info.max, float),
    "tuple[str, ...]": ("a list of strings", lambda v: isinstance(v, (list, tuple))
                        and all(isinstance(item, str) for item in v), tuple),
}


def _key(f) -> str:
    return f.metadata.get("key", f.name)


class _Section:
    """Base of the config sections, dataclasses whose fields are the JSON
    keys. Each __post_init__ runs _check_types and then the range checks, so
    a section made by replace() is checked like one read by from_dict."""

    @classmethod
    def _where(cls) -> str:
        return cls.__name__.removesuffix("Section").lower()

    @classmethod
    def from_dict(cls, blob: dict):
        """Unknown keys and missing required ones are errors; an absent
        optional key takes the field default."""
        by_key = {_key(f): f for f in fields(cls)}
        _check_keys(blob, tuple(by_key), cls._where())
        for key, f in by_key.items():
            if key not in blob and f.default is MISSING:
                raise ConfigError(f"missing required key {key!r} in {cls._where()}")
        return cls(**{by_key[key].name: value for key, value in blob.items()})

    def _check_types(self) -> None:
        """Check each field against its annotation and store it converted:
        an int is never a bool, a float is finite (an int that fits widens
        to it), and None passes only where the annotation allows it."""
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            what, ok, convert = _FIELD_TYPES[kind]
            if not ok(value):
                raise ConfigError(f"{self._where()}.{_key(f)} must be {what}, got {value!r}")
            setattr(self, f.name, convert(value))

    def to_dict(self) -> dict:
        """The JSON object from_dict reads back, keys in field order; None
        fields are left out."""
        return {_key(f): getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


@dataclass
class TaskSection(_Section):
    name: str
    T: int

    def __post_init__(self):
        self._check_types()
        if self.name not in tasks.TASK_NAMES:
            raise ConfigError(f"task.name must be one of {tasks.TASK_NAMES}, got {self.name!r}")
        try:   # the generators own the size rules
            tasks._check_request(self.name, self.T)
        except ContractError as err:
            raise ConfigError(f"task: {err}") from err


_VARIANT_ALIASES = {"gru": "gru", "nc-gru": "ncgru", "ncgru": "ncgru"}


@dataclass
class ModelSection(_Section):
    variant: str
    hidden: int
    ortho_set: tuple[str, ...] | None = None   # None: the variant's default
    neumann_order: int = 2
    reset_every: int = 50
    exact_inverse_mode: bool = False
    num_neg: int | None = None

    def __post_init__(self):
        self._check_types()
        variant = _VARIANT_ALIASES.get(self.variant.lower())
        if variant is None:
            raise ConfigError(f"model.variant must be GRU or NC-GRU, got {self.variant!r}")
        self.variant = variant
        if self.hidden < 2:
            raise ConfigError(f"model.hidden must be >= 2, got {self.hidden}")
        if self.ortho_set is None:
            self.ortho_set = ("u_r", "u_c") if variant == "ncgru" else ()
        canon = [item.lower() for item in self.ortho_set]
        if not set(canon) <= set(_ORTHO_ORDER) or len(set(canon)) != len(canon):
            raise ConfigError("model.ortho_set must list distinct names out of U_r, U_u, U_c, "
                              f"got {list(self.ortho_set)}")
        self.ortho_set = tuple(name for name in _ORTHO_ORDER if name in canon)
        if variant == "gru" and self.ortho_set:
            raise ConfigError("model.ortho_set applies to the NC-GRU variant only")
        if self.neumann_order not in _VALID_ORDERS:
            raise ConfigError(f"model.neumann_order must be one of {_VALID_ORDERS}, "
                              f"got {self.neumann_order}")
        if self.reset_every < 0:
            raise ConfigError(f"model.reset_every must be >= 0, got {self.reset_every}")
        if self.num_neg is not None and not 0 <= self.num_neg <= self.hidden:
            raise ConfigError(f"model.num_neg must be in [0, {self.hidden}], got {self.num_neg}")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "variant": "NC-GRU" if self.variant == "ncgru" else "GRU",
                "ortho_set": [name.replace("u_", "U_") for name in self.ortho_set]}


@dataclass
class OptimizerSection(_Section):
    kind: str
    lr: float
    lr_a: float | None = field(default=None, metadata={"key": "lr_A"})

    def __post_init__(self):
        self._check_types()
        self.kind = self.kind.lower()
        if self.kind not in _KINDS:
            raise ConfigError(f"optimizer.kind must be one of {_KINDS}, got {self.kind!r}")
        if self.lr <= 0 or (self.lr_a is not None and self.lr_a <= 0):
            raise ConfigError("learning rates must be positive")


@dataclass
class TrainSection(_Section):
    iterations: int
    batch_size: int
    seed: int
    eval_every: int = 50
    eval_batch_size: int | None = None

    def __post_init__(self):
        self._check_types()
        for key, low in (("iterations", 0), ("batch_size", 1), ("seed", 0), ("eval_every", 1),
                         ("eval_batch_size", 1)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ConfigError(f"train.{key} must be >= {low}, got {value}")


@dataclass
class ExperimentConfig:
    task: TaskSection
    model: ModelSection
    optimizer: OptimizerSection
    train: TrainSection

    @classmethod
    def from_dict(cls, blob: dict) -> "ExperimentConfig":
        if not isinstance(blob, dict):
            raise ConfigError("config root must be a JSON object")
        sections = {"task": TaskSection, "model": ModelSection,
                    "optimizer": OptimizerSection, "train": TrainSection}
        _check_keys(blob, tuple(sections), "config root")
        for section in sections:
            if section not in blob:
                raise ConfigError(f"missing required section {section!r}")
            if not isinstance(blob[section], dict):
                raise ConfigError(f"section {section!r} must be a JSON object")
        return cls(**{name: kind.from_dict(blob[name]) for name, kind in sections.items()})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                blob = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ConfigError(f"config {path} is not valid UTF-8 JSON: {err}") from err
        return cls.from_dict(blob)

    def to_dict(self) -> dict:
        """What config.json and checkpoints record; from_dict reads it back."""
        return {"task": self.task.to_dict(), "model": self.model.to_dict(),
                "optimizer": self.optimizer.to_dict(), "train": self.train.to_dict()}


# ---------------------------------------------------------------------------
# readout losses


def _no_states(steps: int) -> None:
    if steps == 0:
        raise ContractError("the readout needs at least one state, got none")


class LinearReadoutMse:
    """y = W h_T + b on the final (n, B) state; loss is the squared error
    summed over the entries of y and averaged over the batch. targets has
    y's shape (out, B), or is (B,) when out is 1; else ContractError."""

    def __init__(self, w: np.ndarray, b: np.ndarray, targets: np.ndarray):
        self.w = w
        self.b = b
        self.targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))

    def _residual(self, h):
        """(loss, y - targets) of the final state h: the one loss formula
        of loss_and_grads and loss."""
        y = self.w @ h + self.b[:, None]
        if self.targets.shape != y.shape:
            raise ContractError(f"targets shape {self.targets.shape} does not match "
                                f"the readout's {y.shape}")
        diff = y - self.targets
        return float(np.sum(diff * diff)) / h.shape[1], diff

    def loss_and_grads(self, hs):
        """hs is the (T, n, B) block of states; hs[-1] is scored."""
        _no_states(len(hs))
        h = hs[-1]
        loss, diff = self._residual(h)
        g_y = 2.0 * diff / h.shape[1]
        self.grad_w = g_y @ h.T
        self.grad_b = np.sum(g_y, axis=1)
        grads = [None] * len(hs)
        grads[-1] = self.w.T @ g_y
        return loss, grads

    def loss(self, hs):
        """loss_and_grads(hs)[0] without the gradients, for any iterable of
        states read once in order; only the last one is scored."""
        steps = 0
        for steps, h in enumerate(hs, 1):
            pass
        _no_states(steps)
        return self._residual(h)[0]


class _StepGrads:
    """dL/dh_t = w.T @ probs[t] for every step t, formed when step t is
    read: a sequence of T (n, B) arrays that holds only the (T, out, B)
    probs. w is a copy taken when the readout scored the states, so an
    optimizer updating the readout in place does not change it."""

    def __init__(self, w: np.ndarray, probs: np.ndarray):
        self.w = w.copy()
        self.probs = probs

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, t):
        return self.w.T @ self.probs[t]


class SoftmaxReadoutXent:
    """Per-step softmax cross-entropy of (n, B) states through a shared
    linear readout, scored at every step and averaged over batch and
    steps. targets is (B, T) class indices in [0, out); another shape, a
    fractional value or an index out of range is a ContractError."""

    def __init__(self, w: np.ndarray, b: np.ndarray, targets: np.ndarray):
        self.w = w
        self.b = b
        targets = np.asarray(targets)
        # reductions, not elementwise tests: an eval batch's targets are
        # (B, T), and evaluation holds O(n B). A NaN fails the range test.
        ok = targets.dtype.kind in "iuf" and (
            targets.size == 0 or 0 <= targets.min() and targets.max() < len(b))
        if not ok or (targets.dtype.kind == "f" and np.any(targets % 1)):
            raise ContractError(f"targets must be class indices in [0, {len(b)})")
        self.targets = targets.astype(np.int64, copy=False)

    def _check(self, batch: int, steps: int) -> None:
        if self.targets.shape != (batch, steps):
            raise ContractError(f"targets shape {self.targets.shape} does not cover "
                                f"{batch} examples x {steps} steps")

    def _block(self, t0, hs):
        """(cross-entropy summed over the batch, one entry per step;
        max-shifted logits; log partition) of the (k, n, B) states hs of
        steps t0 .. t0 + k - 1: the one formula of loss_and_grads, which
        applies it to all T states at once, and loss, one state at a time.
        exp(logits) goes through a scratch of _LOGZ_STEPS steps, so the
        logits are the only (k, out, B) array; each step's sum is the same
        whatever k is."""
        k, _, batch = hs.shape
        logits = self.w @ hs
        logits += self.b[:, None]
        logits -= np.max(logits, axis=1, keepdims=True)
        logz = np.empty((k, batch))
        scratch = np.empty((min(k, _LOGZ_STEPS),) + logits.shape[1:])
        for s in range(0, k, _LOGZ_STEPS):
            part = logits[s:s + _LOGZ_STEPS]
            np.sum(np.exp(part, out=scratch[:len(part)]), axis=1, out=logz[s:s + len(part)])
        np.log(logz, out=logz)
        picked = logits[np.arange(k)[:, None], self.targets[:, t0:t0 + k].T, np.arange(batch)]
        return np.sum(logz - picked, axis=1), logits, logz

    def loss_and_grads(self, hs):
        """hs is the (T, n, B) block of states; the step gradients are
        formed one at a time as they are read."""
        _no_states(len(hs))
        steps, _, batch = hs.shape
        self._check(batch, steps)
        denom = batch * steps
        step_losses, probs, logz = self._block(0, hs)
        probs -= logz[:, None, :]   # the logits become the probabilities in place
        np.exp(probs, out=probs)
        probs[np.arange(steps)[:, None], self.targets.T, np.arange(batch)] -= 1.0
        probs /= denom
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        loss = 0.0
        for t in range(steps):
            loss += float(step_losses[t])
            self.grad_w += probs[t] @ hs[t].T
            self.grad_b += np.sum(probs[t], axis=1)
        return loss / denom, _StepGrads(self.w, probs)

    def loss(self, hs):
        """loss_and_grads(hs)[0] without the gradients, for any iterable of
        states read once in order: each is scored as it arrives and none is
        kept, so a stream of states needs no list of them."""
        loss, steps = 0.0, 0
        for h in hs:
            if steps == 0:
                self._check(h.shape[1], self.targets.shape[-1])
            if steps < self.targets.shape[1]:   # a surplus step fails the check below
                loss += float(self._block(steps, h[None])[0][0])
            steps += 1
        _no_states(steps)
        self._check(h.shape[1], steps)
        return loss / (h.shape[1] * steps)


# ---------------------------------------------------------------------------
# run state


@dataclass
class RunState:
    """A run between iterations, as a checkpoint stores it: config, cell
    weights (an orthogonal one is its skew's u), skews, the readout
    y = readout_w h + readout_b, the two optimizers and the number of
    iterations done. opt steps the arrays of trained(); opt_a steps each
    skew's a under the skew's name and holds nothing without ortho_set."""

    config: ExperimentConfig
    params: CellParams
    skews: dict
    readout_w: np.ndarray
    readout_b: np.ndarray
    opt: Optimizer
    opt_a: Optimizer
    step: int = 0

    def trained(self) -> dict:
        """name -> array for every array opt steps: the cell weights other
        than the orthogonal ones, then the readout."""
        return {**{name: arr for name, arr in self.params.named_arrays()
                   if name not in self.skews},
                "readout_w": self.readout_w, "readout_b": self.readout_b}


def build_model(cfg: ExperimentConfig) -> RunState:
    in_dim, out_dim = task_dims(cfg.task.name)
    m = cfg.model
    seed = cfg.train.seed
    params = CellParams.init(m.variant, m.hidden, in_dim, seed)
    skews = {}
    for name in m.ortho_set:
        skew = SkewOrthogonal.create(
            m.hidden, seed + _SKEW_SEED[name],
            num_neg=m.num_neg, neumann_order=m.neumann_order,
            reset_every=m.reset_every)
        skews[name] = skew
        setattr(params, name, skew.u)
    rng = np.random.default_rng(seed + _READOUT_SEED)
    lim = np.sqrt(6.0 / (out_dim + m.hidden))
    sec = cfg.optimizer
    return RunState(config=cfg, params=params, skews=skews,
                    readout_w=rng.uniform(-lim, lim, (out_dim, m.hidden)),
                    readout_b=np.zeros(out_dim), opt=Optimizer(sec.kind, sec.lr),
                    opt_a=Optimizer(sec.kind, sec.lr if sec.lr_a is None else sec.lr_a))


def make_loss(state: RunState, batch: TaskBatch):
    if batch.loss_kind == "mse":
        return LinearReadoutMse(state.readout_w, state.readout_b, batch.targets)
    return SoftmaxReadoutXent(state.readout_w, state.readout_b, batch.targets)


def evaluate(state: RunState, batch: TaskBatch) -> float:
    """The readout's loss on batch, with inputs, states and per-step
    losses streamed, so it holds O(n B) for any sequence length."""
    states = sequence_states(state.params, batch.stream_step_inputs())
    return make_loss(state, batch).loss(states)


# ---------------------------------------------------------------------------
# training


@dataclass
class MetricRow:
    step: int
    train_loss: float
    eval_loss: float | None
    drift: float
    contraction_norm: float
    wall_ms: int = 0

    def to_csv_row(self) -> str:
        ev = "" if self.eval_loss is None else repr(self.eval_loss)
        return (f"{self.step},{self.train_loss!r},{ev},"
                f"{self.drift!r},{self.contraction_norm!r},{self.wall_ms}")


@dataclass
class RunResult:
    config: ExperimentConfig
    status: str
    metrics: list
    final_eval: float | None
    max_drift: float
    max_contraction: float
    metrics_path: str | None = None
    checkpoint_path: str | None = None


def train_steps(state: RunState):
    """Train state through iterations state.step + 1 ... train.iterations,
    fresh or loaded alike, yielding each one's MetricRow and orthogonal.csv
    rows once state.step is advanced to it. An iteration is: batch ->
    sequence_bptt -> optimizer steps for the cell weights and readout ->
    per orthogonal weight, grad_pullback then a Neumann or exact step ->
    eval at eval iterations. The held-out batch comes from the config,
    drawn once. A numeric abort raises NumericError or SingularMatrixError,
    possibly mid-update. Every iteration writes its activations into one
    step store made here, so their pages are not faulted in again."""
    cfg, params, ortho = state.config, state.params, state.config.model.ortho_set
    eval_batch = make_batch(cfg.task.name, cfg.task.T,
                            cfg.train.eval_batch_size or cfg.train.batch_size,
                            cfg.train.seed + _EVAL_SEED)
    store = step_store(params.n, eval_batch.stream.shape[1], cfg.train.batch_size)
    for k in range(state.step + 1, cfg.train.iterations + 1):
        batch = make_batch(cfg.task.name, cfg.task.T, cfg.train.batch_size,
                           cfg.train.seed + _BATCH_SEED_BASE + k)
        loss_obj = make_loss(state, batch)
        # Overflow in a diverging run shows up as a non-finite loss or
        # gradient check, not as a flood of runtime warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = sequence_bptt(params, batch.step_inputs(), loss_obj, store=store)
            if not np.isfinite(result.loss):
                raise NumericError(f"non-finite training loss at iteration {k}")

            grads = dict(result.grads.named_arrays(),
                         readout_w=loss_obj.grad_w, readout_b=loss_obj.grad_b)
            for name, arr in state.trained().items():
                arr -= state.opt.step(name, grads[name])

            is_eval = k % cfg.train.eval_every == 0 or k == cfg.train.iterations
            drift = 0.0
            contraction = 0.0
            sampled = []
            for name in ortho:
                skew = state.skews[name]
                grad_a = skew.grad_pullback(getattr(result.grads, name))
                delta = state.opt_a.step(name, grad_a)
                if cfg.model.exact_inverse_mode:
                    diag = skew.exact_step(delta, sample=is_eval)
                else:
                    diag = skew.neumann_step(delta, sample=is_eval)
                setattr(params, name, skew.u)
                drift = max(drift, diag.drift)
                contraction = max(contraction, diag.contraction_norm)
                if is_eval:
                    sampled.append(f"{k},{name},{diag.contraction_norm!r},"
                                   f"{diag.spectral_norm!r},{diag.drift!r}")

            eval_loss = None
            if is_eval:
                eval_loss = evaluate(state, eval_batch)
                if not np.isfinite(eval_loss):
                    raise NumericError(f"non-finite eval loss at iteration {k}")
        state.step = k
        yield MetricRow(step=k, train_loss=result.loss, eval_loss=eval_loss,
                        drift=drift, contraction_norm=contraction), sampled


def run_training(cfg: ExperimentConfig, out_dir: str | None = None,
                 seed: int | None = None) -> RunResult:
    """Train per cfg through train_steps and write the artifacts into
    out_dir; without one the run stays in memory and writes nothing. seed
    overrides train.seed when given. out_dir is made before training, so
    a path that cannot be a directory fails before the first iteration."""
    if seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=seed))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    state = build_model(cfg)
    steps = train_steps(state)
    metrics: list[MetricRow] = []
    ortho_rows: list[str] = []
    laps = [time.perf_counter()]   # iteration k runs from laps[k - 1] to laps[k]
    status = "completed"
    try:
        for row, sampled in steps:
            metrics.append(row)
            ortho_rows.extend(sampled)
            laps.append(time.perf_counter())
    except (NumericError, SingularMatrixError):
        laps.append(time.perf_counter())
        status = "numeric_error"
    max_drift = max((row.drift for row in metrics), default=0.0)
    max_contraction = max((row.contraction_norm for row in metrics), default=0.0)
    if status != "completed":   # the abort row, with the maxima so far
        metrics.append(MetricRow(step=state.step + 1, train_loss=float("nan"), eval_loss=None,
                                 drift=max_drift, contraction_norm=max_contraction))
    evals = [row.eval_loss for row in metrics if row.eval_loss is not None]
    run = RunResult(config=cfg, status=status, metrics=metrics,
                    final_eval=evals[-1] if evals else None,
                    max_drift=max_drift, max_contraction=max_contraction)
    if out_dir:
        run.metrics_path = os.path.join(out_dir, "metrics.csv")
        write_metrics_csv(metrics, run.metrics_path)
        _write_csv(os.path.join(out_dir, "timing.csv"), "step,wall_ms",
                   (f"{row.step},{round((end - start) * 1000)}"
                    for row, start, end in zip(metrics, laps, laps[1:])))
        _write_csv(os.path.join(out_dir, "orthogonal.csv"), ORTHO_HEADER, ortho_rows)
        _write_json(os.path.join(out_dir, "config.json"), cfg.to_dict(),
                    indent=2, sort_keys=True)
        checkpoint_path = os.path.join(out_dir, "checkpoint.json")
        if status == "completed":
            run.checkpoint_path = checkpoint_path
            save_checkpoint(checkpoint_path, state)
        elif os.path.exists(checkpoint_path):
            # A numeric abort can strike mid-update, so its state is not
            # saved; a checkpoint of an earlier run would not match metrics.csv.
            os.remove(checkpoint_path)
    return run


def _write_json(path, blob, **dump_kwargs) -> None:
    with replacing(path) as fh:
        json.dump(blob, fh, **dump_kwargs)
        fh.write("\n")


def _write_csv(path, header: str, rows) -> None:
    with replacing(path) as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_metrics_csv(metrics, path) -> None:
    _write_csv(path, METRICS_HEADER, (row.to_csv_row() for row in metrics))


def read_metrics_csv(path) -> list[MetricRow]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise ContractError(f"unexpected metrics header {header!r}")
        rows = []
        for line in fh:
            # a wrong field count fails the unpacking, a bad field its int()/float()
            with reading(f"metrics row {line!r}"):
                step, loss, ev, drift, contraction, wall = line.strip().split(",")
                rows.append(MetricRow(step=int(step), train_loss=float(loss),
                                      eval_loss=float(ev) if ev else None,
                                      drift=float(drift), contraction_norm=float(contraction),
                                      wall_ms=int(wall)))
    return rows


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, state: RunState) -> None:
    """JSON snapshot of state, tagged ncgru-checkpoint-v3: its config and
    everything training changes, laid out as README.md describes.
    json.dump encodes each float64 array as a codec record only when it
    reaches that array, so a save holds one array's text at a time, and
    load -> save reproduces the file byte for byte."""
    blob = {
        "format": _FORMAT,
        "step": state.step,
        "config": state.config.to_dict(),
        "params": state.trained(),
        "skews": {name: skew.to_dict() for name, skew in state.skews.items()},
        "optimizer": state.opt.to_dict(),
        "optimizer_A": state.opt_a.to_dict(),
    }
    _write_json(path, blob, indent=1, default=encode)


def load_checkpoint(path) -> RunState:
    """The RunState save_checkpoint wrote, which train_steps continues as
    if the run had not stopped: build_model of the stored config with the
    trained state restored onto it; other keys are not read. Raises
    ContractError when the file is not an ncgru-checkpoint-v3, misses a
    section, holds a malformed entry, an invalid config or a negative
    step, names or shapes arrays unlike the run's, holds state that fresh
    state never is, or has a counter that disagrees with the step."""
    with reading(f"checkpoint {path}"):
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if blob.get("format") != _FORMAT:
            raise ContractError(f"not an ncgru checkpoint: {path}")
        try:
            cfg = ExperimentConfig.from_dict(blob["config"])
        except ConfigError as err:
            raise ContractError(f"checkpoint {path} holds an invalid config: {err}") from err
        step = decode_int(blob["step"], "step")
        if step < 0:
            raise ContractError(f"checkpoint step must be >= 0, got {step}")
        state = build_model(cfg)
        state.step = step
        trained = state.trained()
        if set(blob["params"]) != set(trained):
            raise ContractError(f"checkpoint params {sorted(blob['params'])} are not "
                                f"the run's {sorted(trained)}")
        for name, arr in trained.items():
            arr[...] = decode(blob["params"][name], f"params.{name}", arr)
        if set(blob["skews"]) != set(state.skews):
            raise ContractError(f"checkpoint skews {sorted(blob['skews'])} do not match "
                                f"the config's ortho_set {list(cfg.model.ortho_set)}")
        try:   # the restores raise ShapeError for state that fresh state never is
            for name, skew in state.skews.items():
                state.skews[name] = skew = skew.restore(blob["skews"][name], step)
                setattr(state.params, name, skew.u)
            state.opt = state.opt.restore(blob["optimizer"], trained, step)
            state.opt_a = state.opt_a.restore(
                blob["optimizer_A"], {name: skew.a for name, skew in state.skews.items()}, step)
        except ShapeError as err:
            raise ContractError(f"checkpoint {path} holds a malformed state: {err}") from err
        return state


# ---------------------------------------------------------------------------
# ablations


ABLATION_MODES = ("neumann-vs-inverse", "ortho-placement")


def run_ablation(mode: str, cfg: ExperimentConfig, out_dir: str | None = None
                 ) -> list[tuple[str, RunResult]]:
    """Run the labeled arms of an ablation, identical seeds across arms.

    neumann-vs-inverse: Neumann orders 1, 2, 3 plus the exact-inverse arm.
    ortho-placement: ortho_set in {U_c}, {U_r, U_c}, {U_r, U_u, U_c}.

    With out_dir, arms write under per-label subdirectories next to a
    summary.json; without it, nothing is written. A config that gives the
    arms nothing to tell apart (neumann-vs-inverse without orthogonal
    weights, ortho-placement on GRU) is a ConfigError before any arm trains.
    """
    if mode not in ABLATION_MODES:
        raise ContractError(f"unknown ablation mode {mode!r}, expected one of {ABLATION_MODES}")
    if mode == "neumann-vs-inverse":
        if not cfg.model.ortho_set:
            raise ConfigError("ablation neumann-vs-inverse needs orthogonal weights: "
                              "the config's model.ortho_set is empty")
        arms = [(f"order{p}", replace(cfg, model=replace(cfg.model, neumann_order=p,
                                                         exact_inverse_mode=False)))
                for p in (1, 2, 3)]
        arms.append(("exact", replace(cfg, model=replace(cfg.model, exact_inverse_mode=True))))
    else:
        # a GRU config fails here: ModelSection rejects an ortho_set on GRU
        placements = [("uc", ("u_c",)), ("ur_uc", ("u_r", "u_c")),
                      ("ur_uu_uc", ("u_r", "u_u", "u_c"))]
        arms = [(label, replace(cfg, model=replace(cfg.model, ortho_set=ortho)))
                for label, ortho in placements]

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results = []
    for label, arm_cfg in arms:
        arm_out = os.path.join(out_dir, label) if out_dir else None
        results.append((label, run_training(arm_cfg, out_dir=arm_out)))
    if out_dir:
        summary = {label: {"status": run.status,
                           "final_eval": run.final_eval,
                           "max_drift": run.max_drift,
                           "max_contraction": run.max_contraction}
                   for label, run in results}
        _write_json(os.path.join(out_dir, "summary.json"), summary,
                    indent=2, sort_keys=True)
    return results


# ---------------------------------------------------------------------------
# finite-difference gradient checks


@dataclass
class GradcheckReport:
    scope: str
    tol: float
    max_rel_err: float
    per_case: dict
    passed: bool


def _fd_grad(f, arr: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(arr)
    flat = arr.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        lp = f()
        flat[i] = keep - eps
        lm = f()
        flat[i] = keep
        out.ravel()[i] = (lp - lm) / (2.0 * eps)
    return out


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    return float(np.max(np.abs(analytic - fd))) / scale


def _gradcheck_cayley(seed: int, instances: int) -> dict:
    errs = {}
    for i in range(instances):
        rng = np.random.default_rng(seed + 1000 + i)
        n = int(rng.integers(2, 9))
        skew = SkewOrthogonal.create(n, seed + 2000 + i)
        c = rng.standard_normal((n, n))
        # A = S - S^T is skew for every S, so perturbing one entry of S
        # perturbs A[r, s] and A[s, r] in opposite directions. S is the
        # strict upper triangle of A, which makes S - S^T equal A exactly.
        s = np.triu(skew.a, 1)
        fd = _fd_grad(lambda: float(np.sum(c * cayley_transform(s - s.T, skew.d))), s)
        errs[f"cayley_n{n}_i{i}"] = _rel_err(skew.grad_pullback(c), fd)
    return errs


def _random_cell(variant: str, seed: int, n: int = 4, m: int = 3, batch: int = 2,
                 out: int = 3, kink_margin: float = 1e-3):
    """Random params/inputs and an (out, n) readout (w, b), rejecting NC-GRU
    draws near a modReLU kink; the generator comes back for the targets."""
    for attempt in range(50):
        rng = np.random.default_rng(seed + 7919 * attempt)
        p = CellParams.init(variant, n, m, int(rng.integers(0, 2**31)))
        if variant == "ncgru":
            p.b_c = rng.uniform(-0.5, 0.5, n)
        x = rng.standard_normal((m, batch))
        h = rng.uniform(-1.0, 1.0, (n, batch))
        if variant == "ncgru" and _kink_margin(p, cell_forward(p, x, h)[1]) < kink_margin:
            continue
        return p, x, h, rng.standard_normal((out, n)), rng.standard_normal(out), rng
    raise ContractError("could not draw a kink-free NC-GRU instance")


def _gradcheck_cell(seed: int, instances: int) -> dict:
    errs = {}
    for variant in ("gru", "ncgru"):
        for i in range(instances):
            p, x, h, w, b, rng = _random_cell(variant, seed + 31 * i)
            loss = LinearReadoutMse(w, b, rng.standard_normal((len(b), 2)))

            def value() -> float:
                h1, _ = cell_forward(p, x, h)
                return loss.loss(h1[None])

            h1, cache = cell_forward(p, x, h)
            _, step_grads = loss.loss_and_grads(h1[None])
            grads, g_hprev = cell_backward(p, cache, step_grads[-1])
            analytic = {**dict(grads.named_arrays()), "h_prev": g_hprev,
                        "readout_w": loss.grad_w, "readout_b": loss.grad_b}
            arrays = {**dict(p.named_arrays()), "h_prev": h, "readout_w": w, "readout_b": b}
            for name, arr in arrays.items():
                errs[f"{variant}_{name}_i{i}"] = _rel_err(analytic[name], _fd_grad(value, arr))
    return errs


def _gradcheck_bptt(seed: int, instances: int, length: int = 5) -> dict:
    errs = {}
    for variant in ("gru", "ncgru"):
        for i in range(instances):
            p, _, _, w, b, _ = _random_cell(variant, seed + 77 * i)
            rng = np.random.default_rng(seed + 13 + i)
            xs = [rng.standard_normal((p.m, 2)) for _ in range(length)]
            loss = SoftmaxReadoutXent(w, b, rng.integers(0, len(b), (2, length)))

            def value() -> float:
                return loss.loss(sequence_states(p, xs))

            result = sequence_bptt(p, xs, loss)
            analytic = {**dict(result.grads.named_arrays()),
                        "readout_w": loss.grad_w, "readout_b": loss.grad_b}
            arrays = {**dict(p.named_arrays()), "readout_w": w, "readout_b": b}
            for name, arr in arrays.items():
                errs[f"{variant}_{name}_i{i}"] = _rel_err(analytic[name], _fd_grad(value, arr))
    return errs


# scope -> (check, default instance count, tolerance)
_GRADCHECKS = {"cayley": (_gradcheck_cayley, 20, 1e-6), "cell": (_gradcheck_cell, 8, 1e-5),
               "bptt": (_gradcheck_bptt, 4, 1e-5)}


def run_gradcheck(scope: str, seed: int = 0, instances: int | None = None) -> GradcheckReport:
    """Finite-difference check of one analytic-gradient surface: "cayley"
    (grad_pullback), "cell" (one step through LinearReadoutMse) or "bptt"
    (a sequence through SoftmaxReadoutXent). Invalid arguments raise
    ContractError."""
    if instances is not None and instances < 1:
        raise ContractError(f"instances must be >= 1, got {instances}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if scope not in _GRADCHECKS:
        raise ContractError(f"unknown gradcheck scope {scope!r}")
    check, default_instances, tol = _GRADCHECKS[scope]
    errs = check(seed, instances or default_instances)
    worst = max(errs.values())
    return GradcheckReport(scope=scope, tol=tol, max_rel_err=worst,
                           per_case=errs, passed=worst < tol)
