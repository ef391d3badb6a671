"""Experiment orchestration: configs, the training loop with the
orthogonal-weight update interleaved, ablations, finite-difference
gradient checks, metric CSVs, and JSON checkpoints.

Config schema (JSON; unknown keys and values of the wrong JSON type are
errors: an int is never a bool or a float, a float must be finite):

    {
      "task":      {"name": "adding" | "copying" | "parenthesis" | "denoise",
                    "T": int             (>= 2 adding, >= 11 denoise, else >= 1),
                    "alphabet_n": int    (denoise only; >= 2, default 10),
                    "n_pairs": int       (parenthesis only; 1..10, default 10),
                    "final_only": bool   (parenthesis only; default false)},
      "model":     {"variant": "GRU" | "NC-GRU",
                    "hidden": int        (>= 2),
                    "ortho_set": ["U_r", "U_u", "U_c"] subset (NC-GRU only;
                                 default ["U_r", "U_c"]),
                    "num_neg": int       (0..hidden; default hidden // 2),
                    "neumann_order": 1 | 2 | 3   (default 2),
                    "reset_every": int   (>= 0, 0 disables resets; default 50),
                    "exact_inverse_mode": bool   (default false)},
      "optimizer": {"kind": "sgd" | "rmsprop" | "adam",
                    "lr": float > 0,
                    "lr_A": float > 0    (default lr)},
      "train":     {"iterations": int >= 0, "batch_size": int >= 1,
                    "seed": int >= 0, "eval_every": int >= 1 (default 50),
                    "eval_batch_size": int >= 1 (default batch_size)},
      "output":    "directory"           (optional)
    }

The section dataclasses check these rules on construction, so a config
changed with dataclasses.replace (the seed override, the ablation arms)
raises ConfigError just like a bad file.

Seeding layout, all derived from train.seed: cell weights use seed, the
orthogonal states seed+101/102/103 (u_r/u_u/u_c), the readout seed+104,
the held-out eval batch seed+1 (generated once), and the training batch of
iteration k uses seed+2+k. Nothing reads global RNG state, so a run is a
pure function of its config.

Each training iteration: generate batch -> sequence_bptt -> optimizer
steps for ordinary weights and the readout -> for every weight in
ortho_set, grad_pullback then a Neumann (or exact-inverse) step -> emit a
MetricRow. A non-finite training or eval loss, gradient or orthogonal
state ends the run with one structured row (train_loss = nan) and status
"numeric_error" instead of a crash; such a run writes no checkpoint,
because the abort can come after some weights of the iteration were
already updated.

The metrics CSV must be byte-identical across reruns of the same config
and seed, so its wall_ms column is pinned to 0; measured per-iteration
times go to a timing.csv sidecar next to it.

Every artifact (metrics.csv, timing.csv, config.json, checkpoint.json,
an ablation's summary.json) is written to a temporary file in its
directory and then renamed over the old one, so a process that dies
mid-write leaves the earlier file whole. Nothing is fsynced: this does
not guard against a power loss.

A checkpoint is one JSON document tagged ncgru-checkpoint-v2 in which
every float64 array is an ncgru.codec record, base64 of its
little-endian bytes plus its shape, so a load gives back the same bits.
v1 files, which hold the arrays as decimal lists, still load.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import tasks
from .cells import (CellParams, FinalStateMse, cell_backward, cell_forward,
                    sequence_bptt, sequence_forward)
from .codec import decode, encode, reading
from .errors import ConfigError, ContractError, NumericError
from .optim import _KINDS, Optimizer
from .orthocore import _VALID_ORDERS, SkewOrthogonal, cayley_transform
from .tasks import TaskBatch, make_batch, task_dims

_ORTHO_ORDER = ("u_r", "u_u", "u_c")
_SKEW_SEED = {"u_r": 101, "u_u": 102, "u_c": 103}
_READOUT_SEED = 104
_EVAL_SEED = 1
_BATCH_SEED_BASE = 2

METRICS_HEADER = "step,train_loss,eval_loss,drift,contraction_norm,wall_ms"
_FORMAT = "ncgru-checkpoint-v2"


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
    alphabet_n: int = tasks.DENOISE_ALPHABET
    n_pairs: int = tasks.PARENTHESIS_PAIRS
    final_only: bool = False

    @classmethod
    def from_dict(cls, blob: dict) -> "TaskSection":
        if "alphabet_n" in blob and blob.get("name") != "denoise":
            raise ConfigError("task.alphabet_n only applies to the denoise task")
        if ("n_pairs" in blob or "final_only" in blob) and blob.get("name") != "parenthesis":
            raise ConfigError("task.n_pairs / task.final_only only apply to the parenthesis task")
        return super().from_dict(blob)

    def __post_init__(self):
        self._check_types()
        if self.name not in tasks.TASK_NAMES:
            raise ConfigError(f"task.name must be one of {tasks.TASK_NAMES}, got {self.name!r}")
        try:   # the generators own the size rules
            tasks._check_request(self.name, self.T, n_pairs=self.n_pairs,
                                 alphabet_n=self.alphabet_n)
        except ContractError as err:
            raise ConfigError(f"task: {err}") from err

    def generator_kwargs(self) -> dict:
        if self.name == "denoise":
            return {"alphabet_n": self.alphabet_n}
        if self.name == "parenthesis":
            return {"n_pairs": self.n_pairs, "final_only": self.final_only}
        return {}

    def dims(self) -> tuple[int, int]:
        return task_dims(self.name, alphabet_n=self.alphabet_n, n_pairs=self.n_pairs)

    def to_dict(self) -> dict:
        return {"name": self.name, "T": self.T, **self.generator_kwargs()}


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
    output: str | None = None

    @classmethod
    def from_dict(cls, blob: dict) -> "ExperimentConfig":
        if not isinstance(blob, dict):
            raise ConfigError("config root must be a JSON object")
        sections = {"task": TaskSection, "model": ModelSection,
                    "optimizer": OptimizerSection, "train": TrainSection}
        _check_keys(blob, (*sections, "output"), "config root")
        for section in sections:
            if section not in blob:
                raise ConfigError(f"missing required section {section!r}")
            if not isinstance(blob[section], dict):
                raise ConfigError(f"section {section!r} must be a JSON object")
        output = blob.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a directory path string")
        return cls(**{name: kind.from_dict(blob[name]) for name, kind in sections.items()},
                   output=output)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                blob = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ConfigError(f"config {path} is not valid UTF-8 JSON: {err}") from err
        return cls.from_dict(blob)

    def to_dict(self) -> dict:
        out = {"task": self.task.to_dict(), "model": self.model.to_dict(),
               "optimizer": self.optimizer.to_dict(), "train": self.train.to_dict()}
        if self.output is not None:
            out["output"] = self.output
        return out


# ---------------------------------------------------------------------------
# readout losses


class LinearReadoutMse:
    """y = W h_T + b on the final (n, B) state; loss is the squared error
    summed over output entries and averaged over the batch."""

    def __init__(self, w: np.ndarray, b: np.ndarray, targets: np.ndarray):
        self.w = w
        self.b = b
        self.targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        self.grad_w = np.zeros_like(w)
        self.grad_b = np.zeros_like(b)

    def loss_and_grads(self, hs):
        h = hs[-1]
        y = self.w @ h + self.b[:, None]
        diff = y - self.targets
        batch = h.shape[1]
        loss = float(np.sum(diff * diff)) / batch
        g_y = 2.0 * diff / batch
        self.grad_w = g_y @ h.T
        self.grad_b = np.sum(g_y, axis=1)
        grads = [None] * len(hs)
        grads[-1] = self.w.T @ g_y
        return loss, grads


class SoftmaxReadoutXent:
    """Per-step softmax cross-entropy of (n, B) states through a shared
    linear readout, averaged over batch and steps (final step only when
    final_only)."""

    def __init__(self, w: np.ndarray, b: np.ndarray, targets: np.ndarray,
                 final_only: bool = False):
        self.w = w
        self.b = b
        self.targets = np.asarray(targets, dtype=np.int64)
        self.final_only = final_only
        self.grad_w = np.zeros_like(w)
        self.grad_b = np.zeros_like(b)

    def loss_and_grads(self, hs):
        steps = len(hs)
        if self.targets.ndim != 2 or self.targets.shape[1] != steps:
            raise ContractError(
                f"targets shape {self.targets.shape} does not cover {steps} steps")
        batch = self.targets.shape[0]
        denom = batch if self.final_only else batch * steps
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        cols = np.arange(batch)
        loss = 0.0
        grads: list = [None] * steps
        for t in range(steps):
            if self.final_only and t != steps - 1:
                continue
            h = hs[t]
            logits = self.w @ h + self.b[:, None]
            logits -= np.max(logits, axis=0, keepdims=True)
            logz = np.log(np.sum(np.exp(logits), axis=0))
            tgt = self.targets[:, t]
            loss += float(np.sum(logz - logits[tgt, cols]))
            probs = np.exp(logits - logz[None, :])
            probs[tgt, cols] -= 1.0
            probs /= denom
            self.grad_w += probs @ h.T
            self.grad_b += np.sum(probs, axis=1)
            grads[t] = self.w.T @ probs
        return loss / denom, grads


# ---------------------------------------------------------------------------
# model assembly


@dataclass
class Model:
    params: CellParams
    skews: dict
    readout_w: np.ndarray
    readout_b: np.ndarray


def build_model(cfg: ExperimentConfig) -> Model:
    in_dim, out_dim = cfg.task.dims()
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
    readout_w = rng.uniform(-lim, lim, (out_dim, m.hidden))
    readout_b = np.zeros(out_dim)
    return Model(params=params, skews=skews, readout_w=readout_w, readout_b=readout_b)


def make_loss(model: Model, batch: TaskBatch):
    if batch.loss_kind == "mse":
        return LinearReadoutMse(model.readout_w, model.readout_b, batch.targets)
    return SoftmaxReadoutXent(model.readout_w, model.readout_b, batch.targets,
                              final_only=batch.final_only)


def evaluate(model: Model, batch: TaskBatch) -> float:
    hs = sequence_forward(model.params, batch.step_inputs())
    loss, _ = make_loss(model, batch).loss_and_grads(hs)
    return float(loss)


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
    out_dir: str | None = None
    metrics_path: str | None = None
    checkpoint_path: str | None = None


def run_training(cfg: ExperimentConfig, out_dir: str | None = None,
                 seed: int | None = None) -> RunResult:
    """Train per cfg; see the module docstring for the loop layout.

    out_dir and seed override the config when given. With no output
    directory anywhere, the run stays in memory and writes nothing.
    """
    if seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=seed))
    if out_dir is None:
        out_dir = cfg.output

    model = build_model(cfg)
    params = model.params
    ortho = cfg.model.ortho_set
    opt = Optimizer(cfg.optimizer.kind, cfg.optimizer.lr)
    opt_a = None
    if ortho:
        opt_a = Optimizer(cfg.optimizer.kind,
                          cfg.optimizer.lr if cfg.optimizer.lr_a is None else cfg.optimizer.lr_a)

    tsec = cfg.task
    eval_bs = cfg.train.eval_batch_size or cfg.train.batch_size
    eval_batch = make_batch(tsec.name, tsec.T, eval_bs,
                            cfg.train.seed + _EVAL_SEED, **tsec.generator_kwargs())

    metrics: list[MetricRow] = []
    timings: list[tuple[int, int]] = []
    status = "completed"
    final_eval = None
    max_drift = 0.0
    max_contraction = 0.0

    for k in range(1, cfg.train.iterations + 1):
        t0 = time.perf_counter()
        batch = make_batch(tsec.name, tsec.T, cfg.train.batch_size,
                           cfg.train.seed + _BATCH_SEED_BASE + k, **tsec.generator_kwargs())
        loss_obj = make_loss(model, batch)
        try:
            # Overflow in a diverging run shows up as a non-finite loss or
            # gradient check, not as a flood of runtime warnings.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                result = sequence_bptt(params, batch.step_inputs(), loss_obj)
                if not np.isfinite(result.loss):
                    raise NumericError(f"non-finite training loss at iteration {k}")

                model.readout_w -= opt.step("readout_w", loss_obj.grad_w)
                model.readout_b -= opt.step("readout_b", loss_obj.grad_b)
                for name, arr in params.named_arrays():
                    if name in ortho:
                        continue
                    arr -= opt.step(name, getattr(result.grads, name))

                drift = 0.0
                contraction = 0.0
                for name in ortho:
                    skew = model.skews[name]
                    grad_a = skew.grad_pullback(getattr(result.grads, name))
                    delta = opt_a.step("A_" + name, grad_a)
                    if cfg.model.exact_inverse_mode:
                        diag = skew.exact_step(delta)
                    else:
                        diag = skew.neumann_step(delta)
                    setattr(params, name, skew.u)
                    drift = max(drift, diag.drift)
                    contraction = max(contraction, diag.contraction_norm)

                eval_loss = None
                if k % cfg.train.eval_every == 0 or k == cfg.train.iterations:
                    eval_loss = evaluate(model, eval_batch)
                    if not np.isfinite(eval_loss):
                        raise NumericError(f"non-finite eval loss at iteration {k}")
                    final_eval = eval_loss
        except NumericError:
            metrics.append(MetricRow(step=k, train_loss=float("nan"), eval_loss=None,
                                     drift=max_drift, contraction_norm=max_contraction))
            status = "numeric_error"
            break

        max_drift = max(max_drift, drift)
        max_contraction = max(max_contraction, contraction)
        metrics.append(MetricRow(step=k, train_loss=result.loss, eval_loss=eval_loss,
                                 drift=drift, contraction_norm=contraction))
        timings.append((k, int(round((time.perf_counter() - t0) * 1000))))

    run = RunResult(config=cfg, status=status, metrics=metrics, final_eval=final_eval,
                    max_drift=max_drift, max_contraction=max_contraction)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        run.out_dir = out_dir
        run.metrics_path = os.path.join(out_dir, "metrics.csv")
        write_metrics_csv(metrics, run.metrics_path)
        with _replacing(os.path.join(out_dir, "timing.csv")) as fh:
            fh.write("step,wall_ms\n")
            for step, ms in timings:
                fh.write(f"{step},{ms}\n")
        _write_json(os.path.join(out_dir, "config.json"), cfg.to_dict(),
                    indent=2, sort_keys=True)
        checkpoint_path = os.path.join(out_dir, "checkpoint.json")
        if status == "completed":
            run.checkpoint_path = checkpoint_path
            save_checkpoint(checkpoint_path, cfg, model, opt, opt_a, step=len(metrics))
        elif os.path.exists(checkpoint_path):
            # A numeric abort can strike mid-update, so its state is not
            # saved; a checkpoint of an earlier run would not match metrics.csv.
            os.remove(checkpoint_path)
    return run


@contextmanager
def _replacing(path):
    """Text file handle whose content replaces path when the block ends.
    It writes path + ".tmp" and renames that over path, so an error or a
    crash mid-write leaves the earlier file whole; the temporary file is
    removed on an error. No fsync: a power loss can still lose the file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path, blob, **dump_kwargs) -> None:
    with _replacing(path) as fh:
        json.dump(blob, fh, **dump_kwargs)
        fh.write("\n")


def write_metrics_csv(metrics, path) -> None:
    lines = [METRICS_HEADER]
    lines.extend(row.to_csv_row() for row in metrics)
    with _replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


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


def save_checkpoint(path, cfg: ExperimentConfig, model: Model,
                    opt: Optimizer, opt_a: Optimizer | None, step: int) -> None:
    """JSON snapshot of everything a run mutates, tagged
    ncgru-checkpoint-v2. json.dump streams it and encodes each float64
    array as a codec record only when it reaches that array, so the
    bytes are stored exactly and load -> save reproduces the file byte
    for byte. An orthogonal weight is stored once, as its skew state;
    load_checkpoint rebuilds it from there bit for bit."""
    blob = {
        "format": _FORMAT,
        "step": step,
        "config": cfg.to_dict(),
        "params": {name: arr for name, arr in model.params.named_arrays()
                   if name not in model.skews},
        "skews": {name: skew.to_dict() for name, skew in model.skews.items()},
        "readout": {"w": model.readout_w, "b": model.readout_b},
        "optimizer": opt.to_dict(),
        "optimizer_A": opt_a.to_dict() if opt_a is not None else None,
    }
    _write_json(path, blob, indent=1, default=encode)


@dataclass
class Checkpoint:
    config: ExperimentConfig
    model: Model
    optimizer: Optimizer
    optimizer_a: Optimizer | None
    step: int


def _stored_array(value, like: np.ndarray | None, what: str) -> np.ndarray:
    """A checkpoint array (a codec record or a v1 list, decoded; an array
    already rebuilt, as is) checked against like, the array build_model
    makes in its place (None: the model has no such array)."""
    if like is None:
        raise ContractError(f"checkpoint has an unknown array {what}")
    arr = value if isinstance(value, np.ndarray) else decode(value, what)
    if arr.shape != like.shape:
        raise ContractError(f"checkpoint array {what} has shape {arr.shape}, "
                            f"its config gives {like.shape}")
    return arr


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a run's state from save_checkpoint's file, v2 or v1.
    Raises ContractError when the file is not such a checkpoint, misses a
    section or holds a malformed entry, or when an array's name or shape
    does not fit the model build_model makes from the stored config."""
    with reading(f"checkpoint {path}"):
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if blob.get("format") not in (_FORMAT, "ncgru-checkpoint-v1"):
            raise ContractError(f"not an ncgru checkpoint: {path}")
        cfg = ExperimentConfig.from_dict(blob["config"])
        model = build_model(cfg)
        built = dict(model.params.named_arrays())
        for name, arr in blob["params"].items():
            setattr(model.params, name, _stored_array(arr, built.get(name), f"params.{name}"))
        if set(blob["skews"]) != set(cfg.model.ortho_set):
            raise ContractError(f"checkpoint skews {sorted(blob['skews'])} do not match "
                                f"the config's ortho_set {list(cfg.model.ortho_set)}")
        model.skews = {name: SkewOrthogonal.from_dict(sub) for name, sub in blob["skews"].items()}
        # files written before the orthogonal weights left "params" list them
        # there too; the skew state is authoritative either way
        for name, skew in model.skews.items():
            setattr(model.params, name, _stored_array(skew.u, built[name], f"skews.{name}"))
        model.readout_w = _stored_array(blob["readout"]["w"], model.readout_w, "readout.w")
        model.readout_b = _stored_array(blob["readout"]["b"], model.readout_b, "readout.b")
        opt = Optimizer.from_dict(blob["optimizer"])
        opt_a = Optimizer.from_dict(blob["optimizer_A"]) if blob["optimizer_A"] else None
        return Checkpoint(config=cfg, model=model, optimizer=opt, optimizer_a=opt_a,
                          step=int(blob["step"]))


# ---------------------------------------------------------------------------
# ablations


ABLATION_MODES = ("neumann-vs-inverse", "ortho-placement", "norm-monitor")


def run_ablation(mode: str, cfg: ExperimentConfig, out_dir: str | None = None
                 ) -> list[tuple[str, RunResult]]:
    """Run the labeled arms of an ablation, identical seeds across arms.

    neumann-vs-inverse: Neumann orders 1, 2, 3 plus the exact-inverse arm.
    ortho-placement: ortho_set in {U_c}, {U_r, U_c}, {U_r, U_u, U_c}.
    norm-monitor: the config as given, one arm; pair with the metrics CSV
    to check every contraction_norm stays below 1.

    out_dir falls back to the config's output directory; when either is set,
    arms write under per-label subdirectories next to a summary.json.
    """
    if mode not in ABLATION_MODES:
        raise ContractError(f"unknown ablation mode {mode!r}, expected one of {ABLATION_MODES}")
    if out_dir is None:
        # Without a fallback the arms would each inherit cfg.output and
        # overwrite one another's artifacts.
        out_dir = cfg.output
    if mode == "neumann-vs-inverse":
        arms = [(f"order{p}", replace(cfg, model=replace(cfg.model, neumann_order=p,
                                                         exact_inverse_mode=False)))
                for p in (1, 2, 3)]
        arms.append(("exact", replace(cfg, model=replace(cfg.model, exact_inverse_mode=True))))
    elif mode == "ortho-placement":
        # a GRU config fails here: ModelSection rejects an ortho_set on GRU
        placements = [("uc", ("u_c",)), ("ur_uc", ("u_r", "u_c")),
                      ("ur_uu_uc", ("u_r", "u_u", "u_c"))]
        arms = [(label, replace(cfg, model=replace(cfg.model, ortho_set=ortho)))
                for label, ortho in placements]
    else:
        arms = [("monitor", cfg)]

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
                 kink_margin: float = 1e-3):
    """Random params/inputs, rejecting NC-GRU draws near a modReLU kink."""
    for attempt in range(50):
        rng = np.random.default_rng(seed + 7919 * attempt)
        p = CellParams.init(variant, n, m, int(rng.integers(0, 2**31)))
        if variant == "ncgru":
            p.modrelu_b = rng.uniform(-0.5, 0.5, n)
        x = rng.standard_normal((m, batch))
        h = rng.uniform(-1.0, 1.0, (n, batch))
        _, cache = cell_forward(p, x, h)
        if variant == "ncgru":
            margin = np.min(np.abs(np.abs(cache.pre_c) + p.modrelu_b[:, None]))
            if margin < kink_margin:
                continue
        target = rng.standard_normal((n, batch))
        return p, x, h, target
    raise ContractError("could not draw a kink-free NC-GRU instance")


def _gradcheck_cell(seed: int, instances: int) -> dict:
    errs = {}
    for variant in ("gru", "ncgru"):
        for i in range(instances):
            p, x, h, target = _random_cell(variant, seed + 31 * i)
            loss = FinalStateMse(target)

            def value() -> float:
                h1, _ = cell_forward(p, x, h)
                return loss.loss_and_grads([h1])[0]

            _, cache = cell_forward(p, x, h)
            _, step_grads = loss.loss_and_grads([cache.h_t])
            grads, g_hprev = cell_backward(p, cache, step_grads[-1])
            for name, arr in p.named_arrays():
                fd = _fd_grad(value, arr)
                errs[f"{variant}_{name}_i{i}"] = _rel_err(getattr(grads, name), fd)
            fd_h = _fd_grad(value, h)
            errs[f"{variant}_h_prev_i{i}"] = _rel_err(g_hprev, fd_h)
    return errs


def _gradcheck_bptt(seed: int, instances: int, length: int = 5) -> dict:
    errs = {}
    for variant in ("gru", "ncgru"):
        for i in range(instances):
            p, _, _, target = _random_cell(variant, seed + 77 * i)
            rng = np.random.default_rng(seed + 13 + i)
            xs = [rng.standard_normal((p.m, 2)) for _ in range(length)]
            loss = FinalStateMse(target)

            def value() -> float:
                hs = sequence_forward(p, xs)
                return loss.loss_and_grads(hs)[0]

            result = sequence_bptt(p, xs, loss)
            for name, arr in p.named_arrays():
                fd = _fd_grad(value, arr)
                errs[f"{variant}_{name}_i{i}"] = _rel_err(getattr(result.grads, name), fd)
    return errs


# scope -> (check, default instance count, tolerance)
_GRADCHECKS = {"cayley": (_gradcheck_cayley, 20, 1e-6), "cell": (_gradcheck_cell, 8, 1e-5),
               "bptt": (_gradcheck_bptt, 4, 1e-5)}


def run_gradcheck(scope: str, seed: int = 0, instances: int | None = None) -> GradcheckReport:
    """Finite-difference check of one analytic-gradient surface.

    scope "cayley" checks grad_pullback through the exact transform
    (tol 1e-6); "cell" checks one-step backward passes and "bptt" the full
    unrolled sequence (tol 1e-5), both on kink-free instances.
    """
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
