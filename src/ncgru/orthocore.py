"""Skew-symmetric parameterization of orthogonal matrices and the
truncated-Neumann incremental inverse that keeps it cheap to train.

A recurrent weight is kept exactly orthogonal by never storing it directly.
Instead we store a skew-symmetric A and a +/-1 diagonal scaling d and form

    U = (I + A)^-1 (I - A) diag(d).

I + A is always nonsingular (its eigenvalues are 1 + i*lambda with lambda
real), so U exists for every skew A and is orthogonal by construction.

Training perturbs A by a small skew step dA per iteration. Refactorizing
I + A each time costs a dense inverse, so the cached inverse
Atil ~= (I + A)^-1 is advanced in place with a truncated Neumann series:

    E = Atil @ dA
    Atil <- (I + E + ... + E^p) @ Atil        after  A <- A - dA

which is exact up to O(||E||^(p+1)) while ||E|| < 1. The series contraction
norm ||E||_2 is returned as a per-step diagnostic together with the
orthogonality defect of the refreshed U; crossing ||E|| >= 1 logs a warning
(the update is still applied, the caller decides what to do). Periodic
exact-inverse resets pull the accumulated truncation error back to machine
precision.

Loss gradients reach A through the chain rule of the transform above:
given dL/dU, with the cached inverse standing in for (I + A)^-T,

    V = Atil^T @ dL/dU @ (diag(d) + U^T)
    dL/dA = V^T - V

so the pullback is skew-symmetric by construction and any optimizer that
maps skew to skew keeps the parameterization closed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .codec import decode, decode_int, reading
from .errors import ShapeError
from .linalg import ensure_finite, exact_inverse, fro_dist_identity, spectral_norm

logger = logging.getLogger(__name__)

_SKEW_ATOL = 1e-10

_VALID_ORDERS = (1, 2, 3)


def skew_from_angles(angles: np.ndarray, n: int) -> np.ndarray:
    """Assemble a block-diagonal skew matrix from 2x2 rotation generators.

    Each angle t contributes a block [[0, s], [-s, 0]] with
    s = sqrt((1 - cos t) / (1 + cos t)); an odd n leaves a trailing 1x1
    zero block.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (n // 2,):
        raise ShapeError(f"need {n // 2} angles for size {n}, got {angles.shape}")
    s = np.sqrt((1.0 - np.cos(angles)) / (1.0 + np.cos(angles)))
    a = np.zeros((n, n))
    idx = 2 * np.arange(n // 2)
    a[idx, idx + 1] = s
    a[idx + 1, idx] = -s
    return a


def init_skew(n: int, seed: int) -> np.ndarray:
    """Random block-diagonal skew matrix whose Cayley image starts as a
    product of mild pairwise rotations.

    Angles are drawn uniformly from [0, pi/2), so each block magnitude
    s = tan(t/2) lies in [0, 1).
    """
    if n < 2:
        raise ShapeError(f"hidden size must be at least 2, got {n}")
    rng = np.random.default_rng(seed)
    return skew_from_angles(rng.uniform(0.0, np.pi / 2.0, n // 2), n)


def make_scaling(n: int, num_neg: int) -> np.ndarray:
    """Diagonal of the +/-1 scaling: the first num_neg entries are -1."""
    if not 0 <= num_neg <= n:
        raise ShapeError(f"num_neg must be in [0, {n}], got {num_neg}")
    d = np.ones(n)
    d[:num_neg] = -1.0
    return d


def check_skew(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{what} must be square, got {m.shape}")
    # checked apart: a NaN defect would pass the comparison below
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{what} has NaN or Inf entries")
    defect = float(np.max(np.abs(m + m.T))) if m.size else 0.0
    if defect > _SKEW_ATOL:
        raise ShapeError(f"{what} is not skew-symmetric (max |m + m^T| = {defect:.3e})")
    return m


def cayley_transform(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """U = (I + a)^-1 (I - a) diag(d), via an exact LU inverse."""
    a = check_skew(a, "a")
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (a.shape[0],):
        raise ShapeError(f"scaling shape {d.shape} does not match matrix {a.shape}")
    eye = np.eye(a.shape[0])
    return exact_inverse(eye + a) @ ((eye - a) * d)


@dataclass
class NeumannDiagnostics:
    """Per-update health readings.

    contraction_norm is the exact ||Atil @ dA||_2 measured before the
    update was applied; drift is ||U^T U - I||_F measured after (so a step
    that triggered a reset reports the post-reset value); step counts
    updates applied since the state was created.
    """

    contraction_norm: float
    drift: float
    step: int


@dataclass
class SkewOrthogonal:
    """A trainable orthogonal matrix in Cayley form with a cached inverse.

    Fields a (skew), d (+/-1 diagonal) are the parameters; a_tilde caches
    (I + a)^-1 up to Neumann truncation error and u caches the assembled
    orthogonal matrix, derived on construction. steps_since_reset drives
    the periodic exact reset (reset_every == 0 disables it).
    Construction checks the same rules for fresh and loaded state (a
    negative counter among them) and raises ShapeError on a violation.
    """

    a: np.ndarray
    d: np.ndarray
    a_tilde: np.ndarray
    u: np.ndarray = field(init=False)
    neumann_order: int = 2
    reset_every: int = 50
    steps_since_reset: int = 0
    step: int = field(default=0)

    def __post_init__(self):
        if self.neumann_order not in _VALID_ORDERS:
            raise ShapeError(f"neumann_order must be one of {_VALID_ORDERS}, "
                             f"got {self.neumann_order}")
        for key in ("reset_every", "steps_since_reset", "step"):
            if getattr(self, key) < 0:
                raise ShapeError(f"{key} must be >= 0, got {getattr(self, key)}")
        self.a = check_skew(self.a, "a")
        self.d = np.asarray(self.d, dtype=np.float64)
        self.a_tilde = np.asarray(self.a_tilde, dtype=np.float64)
        n = self.n
        if self.d.shape != (n,) or not np.all(np.abs(self.d) == 1.0):
            raise ShapeError(f"d must be a vector of {n} entries, each +1 or -1")
        if self.a_tilde.shape != (n, n) or not np.all(np.isfinite(self.a_tilde)):
            raise ShapeError(f"a_tilde must be a finite {n}x{n} matrix, got shape {self.a_tilde.shape}")
        self._refresh_u()

    @classmethod
    def create(
        cls,
        n: int,
        seed: int,
        num_neg: int | None = None,
        neumann_order: int = 2,
        reset_every: int = 50,
    ) -> "SkewOrthogonal":
        if num_neg is None:
            num_neg = n // 2
        a = init_skew(n, seed)
        d = make_scaling(n, num_neg)
        a_tilde = exact_inverse(np.eye(n) + a)
        return cls(a=a, d=d, a_tilde=a_tilde,
                   neumann_order=neumann_order, reset_every=reset_every)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def _refresh_u(self) -> None:
        eye = np.eye(self.n)
        self.u = self.a_tilde @ ((eye - self.a) * self.d)

    def drift(self) -> float:
        """Orthogonality defect ||u^T u - I||_F of the cached u."""
        return fro_dist_identity(self.u)

    def reset(self) -> None:
        """Recompute a_tilde exactly and refresh u; zeroes the reset counter."""
        self.a_tilde = exact_inverse(np.eye(self.n) + self.a)
        self._refresh_u()
        self.steps_since_reset = 0

    def grad_pullback(self, grad_u: np.ndarray) -> np.ndarray:
        """Map dL/dU to the skew gradient dL/dA = V^T - V,
        V = a_tilde^T @ grad_u @ (diag(d) + u^T).

        Uses the current cached state, so call it before the step that
        consumes the result.
        """
        grad_u = np.asarray(grad_u, dtype=np.float64)
        if grad_u.shape != self.a.shape:
            raise ShapeError(f"grad shape {grad_u.shape} does not match parameter {self.a.shape}")
        ensure_finite(grad_u, "grad_u")
        m = self.u.T + np.diag(self.d)
        v = self.a_tilde.T @ grad_u @ m
        return v.T - v

    def _apply_delta(self, delta_a: np.ndarray) -> tuple[np.ndarray, float]:
        """Start of both steps: validate delta_a, measure ||E||_2 for
        E = a_tilde @ delta_a, apply A <- A - delta_a and count the step.
        Returns (E, ||E||_2); a_tilde and u are left to the caller."""
        # finiteness first: a diverging run must end in NumericError (a
        # numeric abort), not in check_skew's ShapeError
        ensure_finite(delta_a, "delta_a")
        delta_a = check_skew(delta_a, "delta_a")
        if delta_a.shape != self.a.shape:
            raise ShapeError(f"delta shape {delta_a.shape} does not match parameter {self.a.shape}")
        e = self.a_tilde @ delta_a
        contraction = spectral_norm(e)
        self.a = self.a - delta_a
        self.step += 1
        self.steps_since_reset += 1
        return e, contraction

    def neumann_step(self, delta_a: np.ndarray) -> NeumannDiagnostics:
        """Apply A <- A - delta_a and advance the cached inverse by the
        order-p truncated Neumann series. Returns diagnostics."""
        e, contraction = self._apply_delta(delta_a)
        if contraction >= 1.0:
            logger.warning(
                "Neumann contraction norm %.3f >= 1 at step %d; series no longer converges",
                contraction, self.step,
            )
        acc = self.a_tilde.copy()
        term = self.a_tilde
        for _ in range(self.neumann_order):
            term = e @ term
            acc += term
        self.a_tilde = acc
        ensure_finite(self.a_tilde, "a_tilde after Neumann update")
        if self.reset_every > 0 and self.steps_since_reset >= self.reset_every:
            self.reset()
        else:
            self._refresh_u()
        ensure_finite(self.u, "u after Neumann update")
        return NeumannDiagnostics(contraction_norm=contraction, drift=self.drift(), step=self.step)

    def exact_step(self, delta_a: np.ndarray) -> NeumannDiagnostics:
        """Apply A <- A - delta_a with a fresh exact inverse (the ablation
        reference arm). Diagnostics mirror neumann_step."""
        _, contraction = self._apply_delta(delta_a)
        self.reset()
        return NeumannDiagnostics(contraction_norm=contraction, drift=self.drift(), step=self.step)

    def to_dict(self) -> dict:
        """Snapshot for json.dump(..., default=codec.encode), which stores
        each array as its float64 bytes. u is left out: from_dict rederives
        it from a_tilde, a and d, bit for bit."""
        return {
            "a": self.a,
            "d": self.d,
            "a_tilde": self.a_tilde,
            "neumann_order": self.neumann_order,
            "reset_every": self.reset_every,
            "steps_since_reset": self.steps_since_reset,
            "step": self.step,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "SkewOrthogonal":
        """Load to_dict's snapshot, or its JSON form; state that breaks the
        construction rules raises ShapeError, a missing key or a malformed
        entry (a counter that is not a JSON integer included) ContractError."""
        with reading("skew state"):
            return cls(
                a=decode(blob["a"], "a"),
                d=decode(blob["d"], "d"),
                a_tilde=decode(blob["a_tilde"], "a_tilde"),
                **{key: decode_int(blob[key], key) for key in
                   ("neumann_order", "reset_every", "steps_since_reset", "step")},
            )
