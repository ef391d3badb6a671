"""First-order optimizers (SGD, RMSProp, Adam) over named parameters.

step() returns the update the caller subtracts, in a fresh array the
caller may modify; the optimizer itself never touches parameter memory.
Buffers are keyed by parameter name, created lazily, updated in place,
and serialize to JSON for checkpoints through ncgru.codec; construction,
restore included, rejects buffers that do not fit the kind.

The constants are fixed: Adam's beta1 0.9 and beta2 0.999, RMSProp's
decay 0.9, and epsilon 1e-8 for both. Only the kind and the learning rate
are settings, and a checkpoint takes them from its config.

All three updates act entrywise with symmetric functions of the gradient
history, and epsilon is added inside the denominator, so a skew-symmetric
gradient stream yields skew-symmetric updates. That closure property is
what lets the same class drive both ordinary weights and the skew
parameters of an orthogonal weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .codec import decode, decode_int, reading
from .errors import ContractError, NumericError, ShapeError

_KINDS = ("sgd", "rmsprop", "adam")
_BETA1, _BETA2, _DECAY, _EPS = 0.9, 0.999, 0.9, 1e-8


def _ema(bufs: dict, name: str, rate: float, grad: np.ndarray, tmp: np.ndarray,
         square: bool) -> np.ndarray:
    """In place, buf = rate * buf + (1 - rate) * grad (* grad if square), in
    that operation order, for buf = bufs[name] (zeros on first use); tmp is
    scratch of grad's shape. Returns buf."""
    buf = bufs.get(name)
    if buf is None:
        buf = bufs[name] = np.zeros_like(grad)
    buf *= rate
    np.multiply(1.0 - rate, grad, out=tmp)
    if square:
        tmp *= grad
    buf += tmp
    return buf


@dataclass
class Optimizer:
    kind: str
    lr: float
    _m: dict = field(default_factory=dict)
    _v: dict = field(default_factory=dict)
    _t: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"unknown optimizer {self.kind!r}, expected one of {_KINDS}")
        if self.lr <= 0:
            raise ContractError(f"learning rate must be positive, got {self.lr}")
        self._check_state()

    def _check_state(self) -> None:
        """Raise ShapeError unless the buffers fit the kind: sgd keeps none,
        rmsprop only v, adam m, v and t under the same names with m and v
        of one shape; every buffer finite, v >= 0 and t >= 1."""
        names = set(self._v)
        want = {"sgd": (set(), set(), set()), "rmsprop": (set(), names, set()),
                "adam": (names, names, names)}[self.kind]
        if (set(self._m), names, set(self._t)) != want:
            raise ShapeError(f"{self.kind} state with names m={sorted(self._m)}, "
                             f"v={sorted(self._v)}, t={sorted(self._t)}")
        for name, v in self._v.items():
            m = self._m.get(name, v)  # rmsprop keeps no m
            if m.shape != v.shape:
                raise ShapeError(f"m{m.shape} and v{v.shape} of {name!r} differ in shape")
            if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
                raise ShapeError(f"non-finite optimizer state for {name!r}")
            if np.any(v < 0):
                raise ShapeError(f"negative second moment in the state of {name!r}")
        if any(t < 1 for t in self._t.values()):
            raise ShapeError(f"step counts must be >= 1, got {self._t}")

    def step(self, name: str, grad: np.ndarray) -> np.ndarray:
        """Update to subtract from the parameter registered under name.

        Rejects non-finite gradients, and gradients whose shape differs
        from the buffers of name, before any buffer is mutated, so a
        rejected step leaves the optimizer state intact.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for {name!r}")
        for buf in (self._m.get(name), self._v.get(name)):
            if buf is not None and buf.shape != grad.shape:
                raise ShapeError(f"gradient shape {grad.shape} for {name!r} does not "
                                 f"match its optimizer state {buf.shape}")
        if self.kind == "sgd":
            return self.lr * grad
        # Buffers are updated in place and the update is built in one fresh
        # array, keeping the operation order of the out-of-place formulas
        #   rmsprop: lr * grad / (sqrt(v) + eps)
        #   adam:    lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
        # so every result equals theirs bit for bit.
        tmp = np.empty_like(grad)
        if self.kind == "rmsprop":
            v = _ema(self._v, name, _DECAY, grad, tmp, square=True)
            np.sqrt(v, out=tmp)
            upd = np.multiply(self.lr, grad)
        else:
            t = self._t[name] = self._t.get(name, 0) + 1
            m = _ema(self._m, name, _BETA1, grad, tmp, square=False)
            v = _ema(self._v, name, _BETA2, grad, tmp, square=True)
            np.divide(v, 1.0 - _BETA2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            upd = np.divide(m, 1.0 - _BETA1 ** t)
            upd *= self.lr
        tmp += _EPS
        upd /= tmp
        return upd

    def to_dict(self) -> dict:
        """The state training changes, for json.dump(..., default=
        codec.encode). The m and v arrays are the live buffers, which the
        next step updates in place, so serialize the snapshot before
        stepping again."""
        return {"m": dict(self._m), "v": dict(self._v), "t": dict(self._t)}

    def restore(self, blob: dict, trained: dict, step: int) -> "Optimizer":
        """A copy of this optimizer, kind and lr kept, with the buffers of
        to_dict's JSON form after step steps of every name. trained maps
        each name the run steps to the array it trains. A buffer under
        another name or of another shape, a missing key, a malformed entry
        (a step count that is not a JSON integer included), a trained name
        without buffers from step 1 on, or an Adam count t other than step
        raises ContractError; buffers that do not fit the kind ShapeError."""
        with reading("optimizer state"):
            out = replace(
                self,
                _m={k: decode(v, f"m[{k!r}]", trained.get(k)) for k, v in blob["m"].items()},
                _v={k: decode(v, f"v[{k!r}]", trained.get(k)) for k, v in blob["v"].items()},
                _t={k: decode_int(v, f"t[{k!r}]") for k, v in blob["t"].items()})
        want = set(trained) if step and self.kind != "sgd" else set()
        if set(out._v) != want or any(t != step for t in out._t.values()):
            raise ContractError(f"{self.kind} buffers for {sorted(out._v)} at t={out._t} are not "
                                f"what {step} steps leave: {sorted(want)} at t={step}")
        return out
