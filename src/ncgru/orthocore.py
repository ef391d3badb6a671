"""Orthogonal matrices in scaled Cayley form with a Neumann-advanced inverse.

    U = (I + A)^-1 (I - A) diag(d)       A skew, d in {+1, -1}^n
    E = Atil @ dA,   Atil <- (I + E + ... + E^p) @ Atil   after A <- A - dA

Atil caches (I + A)^-1, exact up to O(||E||^(p+1)) while ||E||_2 < 1. A
step certifies that with ||E||_F >= ||E||_2 and computes the exact
||E||_2 only when the certificate reaches 1 or the step is sampled; an
uncertified step re-inverts instead of applying the series.

The loss gradient reaches A as

    V = Atil^T @ dL/dU @ (diag(d) + U^T),   dL/dA = V^T - V

which is skew by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .codec import decode, decode_int, reading
from .errors import ContractError, ShapeError
from .linalg import ensure_finite, exact_inverse, fro_dist_identity, spectral_norm

_SKEW_ATOL = 1e-10

_VALID_ORDERS = (1, 2, 3)


def init_skew(n: int, seed: int) -> np.ndarray:
    """Random block-diagonal skew matrix whose Cayley image is a product of
    mild pairwise rotations: angle t, drawn uniformly from [0, pi/2), gives
    the block [[0, s], [-s, 0]] with s = sqrt((1 - cos t) / (1 + cos t)) =
    tan(t/2) in [0, 1). An odd n leaves a trailing 1x1 zero block.
    """
    if n < 2:
        raise ShapeError(f"hidden size must be at least 2, got {n}")
    angles = np.random.default_rng(seed).uniform(0.0, np.pi / 2.0, n // 2)
    s = np.sqrt((1.0 - np.cos(angles)) / (1.0 + np.cos(angles)))
    a = np.zeros((n, n))
    idx = 2 * np.arange(n // 2)
    a[idx, idx + 1] = s
    a[idx + 1, idx] = -s
    return a


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
    sym = m + m.T
    defect = float(np.max(np.abs(sym, out=sym), initial=0.0))
    if defect > _SKEW_ATOL:
        raise ShapeError(f"{what} is not skew-symmetric (max |m + m^T| = {defect:.3e})")
    return m


def cayley_transform(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """U = (I + a)^-1 (I - a) diag(d), via an exact LU inverse and the
    identity (I + a)^-1 (I - a) = 2 (I + a)^-1 - I."""
    a = check_skew(a, "a")
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (a.shape[0],):
        raise ShapeError(f"scaling shape {d.shape} does not match matrix {a.shape}")
    eye = np.eye(a.shape[0])
    return (2.0 * exact_inverse(eye + a) - eye) * d


@dataclass
class NeumannDiagnostics:
    """Per-update health readings.

    contraction_norm certifies the series for E = Atil @ dA, measured
    before the update was applied: ||E||_F when that is below 1, else the
    exact ||E||_2. It is < 1 exactly when ||E||_2 < 1, and never below
    ||E||_2; a value >= 1 means the step re-inverted instead of applying
    the series. An unsampled exact step forms no E and reports 0.0.
    spectral_norm is the exact ||E||_2 when the step was sampled or the
    certificate reached 1, else None. drift is
    ||U^T U - I||_F measured after the update (so a step that re-inverted
    reports the post-reset value).
    """

    contraction_norm: float
    drift: float
    spectral_norm: float | None = None


@dataclass
class SkewOrthogonal:
    """A trainable orthogonal matrix in Cayley form with a cached inverse.

    Fields a (skew), d (+/-1 diagonal) are the parameters; a_tilde caches
    (I + a)^-1 up to Neumann truncation error and u caches the assembled
    orthogonal matrix, derived on construction. steps_since_reset drives
    the periodic exact reset (reset_every == 0 disables it); a step whose
    series is uncertified resets either way.
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
        """u = (2 a_tilde - I) diag(d), in O(n^2), right after an exact
        reset (steps_since_reset == 0 < step), since (I + A)^-1 (I - A) =
        2 (I + A)^-1 - I; else the product a_tilde (I - A) diag(d), as a
        Neumann-advanced a_tilde is not an exact inverse. Step 0 keeps the
        product: both arms start from that u, and a zero Neumann step must
        reproduce it bit for bit. The elementwise u takes a_tilde's memory
        order, which exact_inverse returns C-ordered."""
        n, d = self.n, self.d
        if self.steps_since_reset == 0 < self.step:
            self.u = self.a_tilde * (2.0 * d)
            self.u.flat[:: n + 1] -= d
        else:
            # 0 - a, not -a: keeps the signed zeros of I - A
            m = 0.0 - self.a
            m *= d
            m.flat[:: n + 1] += d
            self.u = self.a_tilde @ m

    def drift(self) -> float:
        """Orthogonality defect ||u^T u - I||_F of the cached u."""
        return fro_dist_identity(self.u)

    def reset(self, a: np.ndarray | None = None, step: int | None = None) -> None:
        """Recompute a_tilde exactly, zero the reset counter and refresh u
        (elementwise once the state has stepped; see _refresh_u).

        A re-inverting step passes its new A and step count; a and step
        default to the current ones. Nothing is assigned until the inverse
        of I + a succeeds, so a SingularMatrixError or NumericError leaves
        every field as it was."""
        a = self.a if a is None else a
        a_tilde = exact_inverse(np.eye(self.n) + a)
        self.a, self.a_tilde, self.steps_since_reset = a, a_tilde, 0
        if step is not None:
            self.step = step
        self._refresh_u()

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
        m = self.u.T.copy()
        m.flat[:: self.n + 1] += self.d
        v = self.a_tilde.T @ grad_u @ m
        return v.T - v

    def _step(self, delta_a: np.ndarray, sample: bool, invert: bool) -> NeumannDiagnostics:
        """Both steps: validate delta_a, certify E = a_tilde @ delta_a,
        then either re-invert I + (A - delta_a) (reset) or advance a_tilde
        by the order-p series. It re-inverts when invert is set (the exact
        arm), when a periodic reset is due, or when the certificate is
        >= 1, so an uncertified series is never applied. The exact arm
        forms E only when sampled. A step that re-inverts assigns nothing
        until the inverse succeeded, so a failing inverse changes nothing.

        The contraction is ||E||_F while that is below 1, else the exact
        ||E||_2, so ">= 1" is never a false alarm of the cheap bound. A NaN
        or Inf ||E||_F fails the < 1 test too, so it reaches spectral_norm's
        finiteness check and raises NumericError."""
        # finiteness first: a diverging run must end in NumericError (a
        # numeric abort), not in check_skew's ShapeError
        ensure_finite(delta_a, "delta_a")
        delta_a = check_skew(delta_a, "delta_a")
        if delta_a.shape != self.a.shape:
            raise ShapeError(f"delta shape {delta_a.shape} does not match parameter {self.a.shape}")
        contraction, exact = 0.0, None
        if sample or not invert:
            e = self.a_tilde @ delta_a
            contraction = float(np.linalg.norm(e))
            if contraction < 1e-150 and np.any(e):
                # entries below about 1e-160 square to 0 unless scaled first
                scale = float(np.max(np.abs(e)))
                contraction = scale * float(np.linalg.norm(e / scale))
            certified = contraction < 1.0
            exact = spectral_norm(e) if sample or not certified else None
            if not certified:
                contraction = exact
        step, since = self.step + 1, self.steps_since_reset + 1
        if invert or contraction >= 1.0 or 0 < self.reset_every <= since:
            self.reset(self.a - delta_a, step)
        else:
            # A is replaced before the series: holding the old A through it
            # as well made ortho_wide's iterations about 6% slower. A
            # certified series stays finite, so nothing is left to roll back.
            self.a = self.a - delta_a
            acc = self.a_tilde.copy()
            term = self.a_tilde
            for _ in range(self.neumann_order):
                term = e @ term
                acc += term
            self.a_tilde, self.step, self.steps_since_reset = acc, step, since
            ensure_finite(self.a_tilde, "a_tilde after Neumann update")
            self._refresh_u()
            ensure_finite(self.u, "u after Neumann update")
        return NeumannDiagnostics(contraction_norm=contraction, drift=self.drift(),
                                  spectral_norm=exact)

    def neumann_step(self, delta_a: np.ndarray, sample: bool = False) -> NeumannDiagnostics:
        """Apply A <- A - delta_a and advance the cached inverse by the
        order-p truncated Neumann series, or re-invert when a reset is due
        or the series is uncertified. sample=True also measures the exact
        ||E||_2."""
        return self._step(delta_a, sample, invert=False)

    def exact_step(self, delta_a: np.ndarray, sample: bool = False) -> NeumannDiagnostics:
        """Apply A <- A - delta_a with a fresh exact inverse (the ablation
        reference arm). A sampled step reports the diagnostics neumann_step
        would; an unsampled one forms no E and reports contraction 0.0."""
        return self._step(delta_a, sample, invert=True)

    def to_dict(self) -> dict:
        """The state training changes, for json.dump(..., default=
        codec.encode). d, neumann_order, reset_every and step are the run's
        settings and step; restore rederives u from a_tilde, a and d, bit
        for bit."""
        return {"a": self.a, "a_tilde": self.a_tilde,
                "steps_since_reset": self.steps_since_reset}

    def restore(self, blob: dict, step: int) -> "SkewOrthogonal":
        """A copy of this state, d and the settings kept, with the arrays
        and counter of to_dict's JSON form and the given step. An array of
        another shape than this state's, a missing key, a malformed entry
        or a counter that step steps cannot leave raises ContractError;
        state that breaks the construction rules ShapeError."""
        with reading("skew state"):
            out = replace(self, a=decode(blob["a"], "a", self.a),
                          a_tilde=decode(blob["a_tilde"], "a_tilde", self.a_tilde),
                          steps_since_reset=decode_int(blob["steps_since_reset"],
                                                       "steps_since_reset"),
                          step=step)
        if out.steps_since_reset > step or 0 < out.reset_every <= out.steps_since_reset:
            raise ContractError(f"steps_since_reset {out.steps_since_reset} cannot follow "
                                f"{step} steps with reset_every {out.reset_every}")
        return out
