"""GRU and NC-GRU cells with hand-derived backward passes.

Both variants share the gate structure

    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
    u_t = sigmoid(W_u x_t + U_u h_{t-1} + b_u)
    h_t = (1 - u_t) * h_{t-1} + u_t * c_t

and differ only in the candidate path. The plain GRU uses

    c_t = tanh(W_c x_t + U_c (r_t * h_{t-1}) + b_c)

while the NC-GRU moves the candidate bias b_c out of the pre-activation
and into modReLU instead,

    c_t = modrelu(W_c x_t + U_c (r_t * h_{t-1}), b_c)
    modrelu(z, b) = sign(z) * max(|z| + b, 0)

so b_c plays the role for modReLU that it plays inside the tanh.
modReLU preserves the norm direction of its input, which is what lets an
orthogonal U_c carry signal across long horizons without squashing it.

State convention: columns. An input is (m, B) and a hidden state (n, B),
one example per column; a single example is B = 1, and a 1-D vector is a
ShapeError. h_0 is always the zero state. All activations of a step are
cached on the way forward so the backward pass is a pure function of
(params, cache, incoming gradient).

The backward pass and the analytic one-step Jacobian
d h_t / d h_{t-1} are derived by hand from the equations above; finite
differences in the test-suite pin them down. modReLU is flat at its kink
(|z| + b == 0), where the subgradient 0 is used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ShapeError

_VARIANTS = ("gru", "ncgru")

# A candidate pre-activation within this distance of the modReLU kink makes
# finite-difference checks unreliable; jacobian_h flags it.
_KINK_ATOL = 1e-6


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, so no branch on the sign of x
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def modrelu(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sign(z) * relu(|z| + b) with a broadcastable bias."""
    return np.sign(z) * np.maximum(np.abs(z) + b, 0.0)


@dataclass
class CellParams:
    """Weights of one recurrent cell.

    w_* map inputs (n, m); u_* map the previous hidden state (n, n);
    b_r and b_u are gate biases and b_c the candidate bias, inside the
    tanh for gru and modReLU's bias for ncgru.
    cell_backward and sequence_bptt return gradients in this container too.
    """

    variant: str
    w_r: np.ndarray
    w_u: np.ndarray
    w_c: np.ndarray
    u_r: np.ndarray
    u_u: np.ndarray
    u_c: np.ndarray
    b_r: np.ndarray
    b_u: np.ndarray
    b_c: np.ndarray

    @property
    def n(self) -> int:
        return self.u_r.shape[0]

    @property
    def m(self) -> int:
        return self.w_r.shape[1]

    @classmethod
    def init(cls, variant: str, n: int, m: int, seed: int) -> "CellParams":
        """Glorot-uniform weights, zero biases. A caller that keeps a
        recurrent weight orthogonal overwrites it."""
        if variant not in _VARIANTS:
            raise ContractError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
        rng = np.random.default_rng(seed)

        def glorot(rows: int, cols: int) -> np.ndarray:
            lim = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-lim, lim, (rows, cols))

        return cls(
            variant=variant,
            w_r=glorot(n, m), w_u=glorot(n, m), w_c=glorot(n, m),
            u_r=glorot(n, n), u_u=glorot(n, n), u_c=glorot(n, n),
            b_r=np.zeros(n), b_u=np.zeros(n), b_c=np.zeros(n),
        )

    def named_arrays(self):
        """(name, array) pairs for every trainable tensor, in a fixed order."""
        return [("w_r", self.w_r), ("w_u", self.w_u), ("w_c", self.w_c),
                ("u_r", self.u_r), ("u_u", self.u_u), ("u_c", self.u_c),
                ("b_r", self.b_r), ("b_u", self.b_u), ("b_c", self.b_c)]


def _zeros_like(p: CellParams) -> CellParams:
    """Gradient accumulator: p's variant and shapes, every array zero."""
    return replace(p, **{name: np.zeros_like(arr) for name, arr in p.named_arrays()})


@dataclass
class StepCache:
    """Everything the backward pass needs about one forward step, as
    (rows, B) columns. variant tags which forward produced the cache so a
    mismatched backward is rejected instead of silently using the wrong
    candidate slope.
    """

    x_t: np.ndarray
    h_prev: np.ndarray
    pre_r: np.ndarray
    pre_u: np.ndarray
    pre_c: np.ndarray
    r_t: np.ndarray
    u_t: np.ndarray
    c_t: np.ndarray
    h_t: np.ndarray
    variant: str


def cell_forward(p: CellParams, x_t: np.ndarray, h_prev: np.ndarray
                 ) -> tuple[np.ndarray, StepCache]:
    """One step of the cell named by p.variant.

    x_t is (m, B) and h_prev is (n, B); returns h_t (n, B) and the cache.
    """
    x = np.asarray(x_t, dtype=np.float64)
    h = np.asarray(h_prev, dtype=np.float64)
    if x.ndim != 2 or h.ndim != 2:
        raise ShapeError(f"x_t and h_prev must be 2-D columns, got ndim {x.ndim} and {h.ndim}")
    if x.shape[0] != p.m:
        raise ShapeError(f"x_t has {x.shape[0]} features, cell expects {p.m}")
    if h.shape[0] != p.n:
        raise ShapeError(f"h_prev has {h.shape[0]} entries, cell expects {p.n}")
    if x.shape[1] != h.shape[1]:
        raise ShapeError(f"batch sizes differ: x {x.shape[1]}, h {h.shape[1]}")

    pre_r = p.w_r @ x + p.u_r @ h + p.b_r[:, None]
    pre_u = p.w_u @ x + p.u_u @ h + p.b_u[:, None]
    r = sigmoid(pre_r)
    u = sigmoid(pre_u)
    if p.variant == "gru":
        pre_c = p.w_c @ x + p.u_c @ (r * h) + p.b_c[:, None]
        c = np.tanh(pre_c)
    elif p.variant == "ncgru":
        pre_c = p.w_c @ x + p.u_c @ (r * h)
        c = modrelu(pre_c, p.b_c[:, None])
    else:
        raise ContractError(f"unknown variant {p.variant!r}")
    h_t = (1.0 - u) * h + u * c
    cache = StepCache(x_t=x, h_prev=h, pre_r=pre_r, pre_u=pre_u, pre_c=pre_c,
                      r_t=r, u_t=u, c_t=c, h_t=h_t, variant=p.variant)
    return h_t, cache


def _candidate_slope(p: CellParams, cache: StepCache) -> np.ndarray:
    """d c_t / d pre_c, entrywise; for modReLU the 0/1 mask |pre_c| + b > 0."""
    if p.variant == "gru":
        return 1.0 - cache.c_t * cache.c_t
    return np.abs(cache.pre_c) + p.b_c[:, None] > 0.0


def cell_backward(p: CellParams, cache: StepCache, grad_h: np.ndarray,
                  into: CellParams | None = None) -> tuple[CellParams, np.ndarray]:
    """Backpropagate dL/dh_t through one step.

    Returns (weight gradients in a CellParams, dL/dh_{t-1}). Bias gradients
    are summed over the batch. When into is given, gradients accumulate
    there (and it is also returned), which is what the sequence loop uses.
    """
    if p.variant != cache.variant:
        raise ContractError(
            f"cache from a {cache.variant!r} forward fed to {p.variant!r} backward")
    g_h = np.asarray(grad_h, dtype=np.float64)
    if g_h.shape != cache.h_t.shape:
        raise ShapeError(f"grad_h shape {g_h.shape} does not match h_t {cache.h_t.shape}")
    g = into if into is not None else _zeros_like(p)

    h, r, u, c = cache.h_prev, cache.r_t, cache.u_t, cache.c_t
    g_u_gate = g_h * (c - h)
    g_c = g_h * u
    g_hprev = g_h * (1.0 - u)

    g_pre_c = g_c * _candidate_slope(p, cache)
    # modReLU adds b_c to |pre_c|, so its gradient picks up sign(pre_c)
    g_b_c = g_pre_c * np.sign(cache.pre_c) if p.variant == "ncgru" else g_pre_c
    g.b_c += np.sum(g_b_c, axis=1)
    rh = r * h
    g.w_c += g_pre_c @ cache.x_t.T
    g.u_c += g_pre_c @ rh.T
    g_rh = p.u_c.T @ g_pre_c
    g_r_gate = g_rh * h
    g_hprev += g_rh * r

    g_pre_u = g_u_gate * u * (1.0 - u)
    g_pre_r = g_r_gate * r * (1.0 - r)
    g.w_u += g_pre_u @ cache.x_t.T
    g.u_u += g_pre_u @ h.T
    g.b_u += np.sum(g_pre_u, axis=1)
    g.w_r += g_pre_r @ cache.x_t.T
    g.u_r += g_pre_r @ h.T
    g.b_r += np.sum(g_pre_r, axis=1)
    g_hprev += p.u_u.T @ g_pre_u + p.u_r.T @ g_pre_r

    return g, g_hprev


def _unroll(p: CellParams, inputs, caches: list | None) -> list[np.ndarray]:
    """Hidden states [h_1 .. h_T] from h_0 = 0; each step's cache is
    appended to caches when it is a list and dropped when it is None."""
    xs = [np.asarray(x, dtype=np.float64) for x in inputs]
    if not xs:
        raise ContractError("input sequence is empty")
    # a 1-D x makes h 1-D too; cell_forward then rejects the step
    h = np.zeros((p.n,) + xs[0].shape[1:])
    hs = []
    for x in xs:
        h, cache = cell_forward(p, x, h)
        hs.append(h)
        if caches is not None:
            caches.append(cache)
    return hs


def sequence_forward(p: CellParams, inputs) -> list[np.ndarray]:
    """Hidden states [h_1 .. h_T] from h_0 = 0, no caches kept."""
    return _unroll(p, inputs, None)


@dataclass
class BpttResult:
    loss: float
    grads: CellParams


def sequence_bptt(p: CellParams, inputs, loss) -> BpttResult:
    """Full backpropagation through time from h_0 = 0.

    inputs is a sequence of per-step (m, B) arrays or an ndarray with time
    on axis 0. loss must provide
    loss_and_grads(hs) -> (scalar, per-step dL/dh list, None meaning zero),
    evaluated on the collected hidden states [h_1 .. h_T].
    """
    caches = []
    hs = _unroll(p, inputs, caches)

    loss_value, step_grads = loss.loss_and_grads(hs)
    if len(step_grads) != len(hs):
        raise ContractError(
            f"loss returned {len(step_grads)} step gradients for {len(hs)} steps")

    grads = _zeros_like(p)
    g_h = None
    for t in range(len(hs) - 1, -1, -1):
        inject = step_grads[t]
        if inject is not None:
            g_h = inject if g_h is None else g_h + inject
        if g_h is None:
            continue
        grads, g_h = cell_backward(p, caches[t], g_h, into=grads)
    return BpttResult(loss=float(loss_value), grads=grads)


@dataclass
class JacobianResult:
    """matrix is d h_t / d h_{t-1}; near_kink is True when a modReLU
    pre-activation sits within 1e-6 of its kink, where the analytic
    subgradient and a finite-difference probe may disagree."""

    matrix: np.ndarray
    near_kink: bool


def jacobian_h(p: CellParams, cache: StepCache) -> JacobianResult:
    """Analytic one-step state Jacobian at a cached one-column (B = 1) step.

    With Du = diag(u(1-u)) and Dr = diag(r(1-r)):

        J = diag(c - h) Du U_u + diag(1 - u)
            + diag(u) diag(phi') U_c (diag(h) Dr U_r + diag(r))
    """
    if p.variant != cache.variant:
        raise ContractError(
            f"cache from a {cache.variant!r} forward fed to {p.variant!r} jacobian")
    if cache.h_t.shape[1] != 1:
        raise ContractError(f"jacobian_h needs a one-column cache, got B={cache.h_t.shape[1]}")
    h = cache.h_prev[:, 0]
    r = cache.r_t[:, 0]
    u = cache.u_t[:, 0]
    c = cache.c_t[:, 0]
    du = u * (1.0 - u)
    dr = r * (1.0 - r)
    slope = _candidate_slope(p, cache)[:, 0]

    inner = (h * dr)[:, None] * p.u_r + np.diag(r)
    jac = ((c - h) * du)[:, None] * p.u_u
    jac += np.diag(1.0 - u)
    jac += (u * slope)[:, None] * (p.u_c @ inner)

    near = False
    if p.variant == "ncgru":
        margin = np.abs(np.abs(cache.pre_c[:, 0]) + p.b_c)
        near = bool(np.min(margin) < _KINK_ATOL)
    return JacobianResult(matrix=jac, near_kink=near)
