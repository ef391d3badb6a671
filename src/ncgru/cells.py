"""GRU and NC-GRU cells with hand-derived backward passes.

    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
    u_t = sigmoid(W_u x_t + U_u h_{t-1} + b_u)
    h_t = (1 - u_t) * h_{t-1} + u_t * c_t
    c_t = tanh(W_c x_t + U_c (r_t * h_{t-1}) + b_c)          gru
    c_t = modrelu(W_c x_t + U_c (r_t * h_{t-1}), b_c)        ncgru
    modrelu(z, b) = sign(z) * max(|z| + b, 0)

Inputs are (m, B) and states (n, B) columns; a 1-D vector is a ShapeError.
h_0 is the zero state. modReLU's backward reads only c_t: c_t == 0 takes
slope 0, a valid subgradient also at the jump z == 0, b > 0.

cell_forward writes a step's four (n, B) rows (h_t, r, u, c) into a
(4, n, B) slot. Each of r, u and c takes its pre-activation and then its
nonlinearity in place, since backward reads only the activations. The
StepCache and h_t are views of the rows, valid until the slot is written
again. A step store, step_store(n, T, B), is T slots, store[:, t] being
step t's.

sequence_bptt does the work that does not depend on h once per sequence:
W_g x_t of all T steps before the loop, one batched matmul per gate into
the r, u and c rows, and the input-weight and bias gradients after it.
Each backward step writes its gate gradients over its own slot, each row
once it has been read: modReLU's dL/db_c term over h_t, which step t + 1
has read as its h_prev, and dL/dpre_r, dL/dpre_u and dL/dpre_c over r, u
and c. The reduction adds them up in the per-step order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ShapeError

_VARIANTS = ("gru", "ncgru")

# A candidate pre-activation within this distance of the modReLU kink makes
# finite-difference checks unreliable; jacobian_h flags it.
_KINK_ATOL = 1e-6


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 (1 + tanh(x / 2)), into out when given; tanh saturates instead
    of overflowing, so no branch on the sign of x."""
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def modrelu(z: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sign(z) * relu(|z| + b) with a broadcastable bias, into out when
    given; out may be z itself, since sign(z) is taken first."""
    sign = np.sign(z)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(b)))
    np.abs(z, out=out)
    out += b
    np.maximum(out, 0.0, out=out)
    out *= sign
    return out


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

    x_t and h_prev are the arrays the step was given; r_t, u_t, c_t and
    h_t are views of the step's slot. No pre-activation is kept: the
    candidate's is p.w_c @ x_t + p.u_c @ (r_t * h_prev). Inside
    sequence_bptt, backward overwrites the slot rows with gate gradients,
    all but a GRU step's h_t.
    """

    x_t: np.ndarray
    h_prev: np.ndarray
    r_t: np.ndarray
    u_t: np.ndarray
    c_t: np.ndarray
    h_t: np.ndarray
    variant: str

    @property
    def pre_r(self) -> np.ndarray:
        """r_t itself: the r row holds its pre-activation only until the
        sigmoid. An alias for trainbench's cache probe, which counts each
        view once by id; it goes with the probe fix of ROADMAP Direction 2."""
        return self.r_t

    @property
    def pre_u(self) -> np.ndarray:
        """u_t itself, as pre_r is r_t."""
        return self.u_t

    @property
    def pre_c(self) -> np.ndarray:
        """c_t itself, as pre_r is r_t."""
        return self.c_t


# The rows of a step slot. Backward writes the gate gradients
# (g_b_c, g_pre_r, g_pre_u, g_pre_c) over them in this order.
_SLOT_ROWS = ("h_t", "r_t", "u_t", "c_t")
# Steps per batched input-gradient product: a (32, n, m) buffer, not (T, n, m).
_CHUNK = 32


def step_store(n: int, steps: int, batch: int) -> np.ndarray:
    """Uninitialised room for the activations of `steps` forward steps of
    an n-unit cell at batch size B: a (4, steps, n, B) float64 array whose
    store[:, t] is step t's slot, rows h_t, r, u and c. sequence_bptt
    leaves gate gradients in store[1:4] of every step backward reached,
    and in store[0] modReLU's dL/db_c terms for NC-GRU, the states h_t
    for GRU."""
    return np.empty((len(_SLOT_ROWS), steps, n, batch))


def _project(p: CellParams, x: np.ndarray, rows: np.ndarray) -> None:
    """W_r x, W_u x and W_c x into the r, u and c rows, rows[1:4]: one
    step's (m, B) inputs into a slot's rows, or a sequence's (T, m, B)
    inputs into a store's, one batched matmul per gate."""
    for w, out in zip((p.w_r, p.w_u, p.w_c), rows[1:]):
        np.matmul(w, x, out=out)


def cell_forward(p: CellParams, x_t: np.ndarray, h_prev: np.ndarray,
                 slot: np.ndarray | None = None,
                 bias: np.ndarray | None = None) -> tuple[np.ndarray, StepCache]:
    """One step of the cell named by p.variant.

    x_t is (m, B) and h_prev is (n, B); returns h_t (n, B) and the cache.
    The step's four activations are written into slot, a (4, n, B)
    float64 array such as store[:, t] of a step_store, or into a fresh
    one when slot is None; h_t and the cache's other activations are
    views of it. The c row takes the candidate's pre-activation and then
    the candidate in place.
    bias is sequence_bptt's form of the step: b_r, b_u and b_c broadcast
    to a float64 (3, n, B) array once per sequence, with slot's r, u and
    c rows already holding W_r x_t, W_u x_t and W_c x_t. Without it
    the step projects x_t itself. A bias without a slot is a
    ContractError, since a fresh slot holds no projection.
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
    want = (len(_SLOT_ROWS),) + h.shape
    if slot is None:
        if bias is not None:
            raise ContractError("bias needs the slot that holds the step's input projections")
        slot = np.empty(want)
    elif slot.shape != want or slot.dtype != np.float64:
        raise ShapeError(f"slot is {slot.dtype} {slot.shape}, the step needs float64 {want}")
    if bias is None:
        _project(p, x, slot)
        bias = (p.b_r[:, None], p.b_u[:, None], p.b_c[:, None])
    elif not (isinstance(bias, np.ndarray) and bias.dtype == np.float64
              and bias.shape == (3,) + h.shape):
        raise ShapeError(f"bias must be a float64 {(3,) + h.shape} array, got {np.shape(bias)}")
    h_t, r, u, c = slot

    r += p.u_r @ h
    r += bias[0]
    u += p.u_u @ h
    u += bias[1]
    sigmoid(slot[1:3], out=slot[1:3])
    c += p.u_c @ (r * h)
    if p.variant == "gru":
        c += bias[2]
        np.tanh(c, out=c)
    elif p.variant == "ncgru":
        modrelu(c, bias[2], out=c)
    else:
        raise ContractError(f"unknown variant {p.variant!r}")
    np.subtract(1.0, u, out=h_t)
    h_t *= h
    h_t += u * c
    cache = StepCache(x_t=x, h_prev=h, r_t=r, u_t=u, c_t=c, h_t=h_t, variant=p.variant)
    return h_t, cache


def _candidate_slope(p: CellParams, cache: StepCache) -> np.ndarray:
    """d c_t / d pre_c, entrywise, from c_t alone; for modReLU the 0/1
    mask c_t != 0."""
    if p.variant == "gru":
        return 1.0 - cache.c_t * cache.c_t
    return cache.c_t != 0.0


def cell_backward(p: CellParams, cache: StepCache, grad_h: np.ndarray,
                  into: CellParams | None = None,
                  gates: np.ndarray | None = None) -> tuple[CellParams, np.ndarray]:
    """Backpropagate dL/dh_t through one step.

    Returns (weight gradients in a CellParams, dL/dh_{t-1}). Bias gradients
    are summed over the batch. When into is given, gradients accumulate
    there (and it is also returned), which is what the sequence loop uses.
    gates is sequence_bptt's form of the step: the cache's own slot, where
    the step writes its gate gradients, each row after its last read
    (h_t is not read but for its shape), and leaves the input-weight and
    bias gradients to the caller. Without gates the step adds them itself.
    """
    if p.variant != cache.variant:
        raise ContractError(
            f"cache from a {cache.variant!r} forward fed to {p.variant!r} backward")
    g_h = np.asarray(grad_h, dtype=np.float64)
    if g_h.shape != cache.h_t.shape:
        raise ShapeError(f"grad_h shape {g_h.shape} does not match h_t {cache.h_t.shape}")
    g = into if into is not None else _zeros_like(p)
    own_gates = gates is None
    if own_gates:
        gates = np.empty((4,) + g_h.shape)
    g_b_c, g_pre_r, g_pre_u, g_pre_c = gates

    h, r, u, c = cache.h_prev, cache.r_t, cache.u_t, cache.c_t
    g_u_gate = g_h * (c - h)
    g_hprev = g_h * (1.0 - u)
    slope = _candidate_slope(p, cache)
    # modReLU adds b_c to |pre_c|, so its gradient picks up sign(pre_c),
    # which is sign(c_t) wherever the slope is not 0; g_pre_c overwrites c
    sign = np.sign(c) if p.variant == "ncgru" else None
    np.multiply(g_h, u, out=g_pre_c)
    g_pre_c *= slope
    if sign is not None:
        np.multiply(g_pre_c, sign, out=g_b_c)
    g.u_c += g_pre_c @ (r * h).T
    g_rh = p.u_c.T @ g_pre_c
    g_r_gate = g_rh * h
    g_hprev += g_rh * r

    np.multiply(g_u_gate * u, 1.0 - u, out=g_pre_u)
    np.multiply(g_r_gate * r, 1.0 - r, out=g_pre_r)
    g.u_u += g_pre_u @ h.T
    g.u_r += g_pre_r @ h.T
    g_hprev += p.u_u.T @ g_pre_u + p.u_r.T @ g_pre_r
    if own_gates:
        _input_grads(p, g, cache.x_t[None], gates[:, None])
    return g, g_hprev


def _input_grads(p: CellParams, g: CellParams, x: np.ndarray, gates: np.ndarray) -> None:
    """Add to g the input-weight and bias gradients of k steps, given their
    (k, m, B) inputs x and their (4, k, n, B) gate gradients as
    cell_backward writes them. Step k-1's enter first and step 0's last,
    so g gets the bits of k per-step accumulations in backward order."""
    steps, n = gates.shape[1:3]
    xt = x.transpose(0, 2, 1)
    weight_parts = np.empty((steps, n, x.shape[1]))
    for acc, g_pre in zip((g.w_r, g.w_u, g.w_c), gates[1:]):
        _fold(acc, np.matmul(g_pre, xt, out=weight_parts))
    bias_parts = np.empty((steps, n))
    g_b_c = gates[0] if p.variant == "ncgru" else gates[3]
    for acc, g_pre in zip((g.b_r, g.b_u, g.b_c), (gates[1], gates[2], g_b_c)):
        _fold(acc, np.sum(g_pre, axis=2, out=bias_parts))


def _fold(acc: np.ndarray, parts: np.ndarray) -> None:
    """acc += parts[-1], then parts[-2], ..., parts[0], one add at a time:
    the running sum enters the last slice and accumulates down from it."""
    np.add(acc, parts[-1], out=parts[-1])
    down = parts[::-1]
    np.add.accumulate(down, axis=0, out=down)
    acc[...] = parts[0]


def _columns(x) -> np.ndarray:
    """x as a float64 (m, B) step input; any other ndim is a ShapeError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"step inputs must be 2-D (m, B) columns, got ndim {x.ndim}")
    return x


def sequence_states(p: CellParams, inputs):
    """Yield the hidden states h_1 .. h_T from h_0 = 0, reading inputs (any
    iterable of per-step (m, B) arrays) as it goes, through a two-slot
    store: h_t is overwritten by step t + 2, so the pass holds O(n B)."""
    h = None
    for t, x in enumerate(inputs):
        if h is None:
            x = _columns(x)
            store = step_store(p.n, 2, x.shape[1])
            h = np.zeros((p.n, x.shape[1]))
        h, _ = cell_forward(p, x, h, store[:, t % 2])
        yield h
    if h is None:
        raise ContractError("input sequence is empty")


def _sequence_inputs(p: CellParams, inputs) -> np.ndarray:
    """inputs as a C-contiguous float64 (T, m, B) array, checked whole: an
    empty sequence is a ContractError, a mis-shaped or ragged step a
    ShapeError."""
    if not isinstance(inputs, np.ndarray):
        steps = [np.asarray(x, dtype=np.float64) for x in inputs]
        shapes = sorted({x.shape for x in steps})
        if len(shapes) > 1:
            raise ShapeError(f"step inputs differ in shape: {shapes}")
        inputs = np.array(steps)
    xs = np.ascontiguousarray(inputs, dtype=np.float64)
    if xs.shape[:1] == (0,):
        raise ContractError("input sequence is empty")
    if xs.ndim != 3:
        raise ShapeError(f"step inputs must be 2-D (m, B) columns, got ndim {xs.ndim - 1}")
    if xs.shape[1] != p.m:
        raise ShapeError(f"x_t has {xs.shape[1]} features, cell expects {p.m}")
    return xs


@dataclass
class BpttResult:
    loss: float
    grads: CellParams


def sequence_bptt(p: CellParams, inputs, loss, store: np.ndarray | None = None
                  ) -> BpttResult:
    """Full backpropagation through time from h_0 = 0.

    inputs is a sequence of per-step (m, B) arrays or an ndarray with time
    on axis 0, checked whole before anything is written.
    loss.loss_and_grads(hs) gets the store's (T, n, B) block of h_1 .. h_T
    and returns (scalar, step gradients): a length-T sequence whose entry
    t, read once when backward reaches step t, is dL/dh_t (n, B) or None
    for zero. For NC-GRU, backward writes step t's dL/db_c term over hs[t]
    once it is done with step t, so a loss takes what it keeps of hs before
    it returns, and its step gradient t may read only hs[:t + 1].
    store, step_store(p.n, T, B), is overwritten; any other shape or dtype
    is a ShapeError, and without one the call makes a fresh store. The
    forward writes the T steps' activations there, and backward writes
    each reached step's gate gradients over its slot, so on return only a
    GRU store's h_t rows, store[0], still hold activations.
    """
    xs = _sequence_inputs(p, inputs)
    steps, _, batch = xs.shape
    if store is None:
        store = step_store(p.n, steps, batch)
    want = (len(_SLOT_ROWS), steps, p.n, batch)
    if store.shape != want or store.dtype != np.float64:
        raise ShapeError(f"step store is {store.dtype} {store.shape}, "
                         f"this call needs float64 {want}")
    bias = np.stack((p.b_r, p.b_u, p.b_c))[:, :, None].repeat(batch, axis=2)
    _project(p, xs, store)
    h = np.zeros((p.n, batch))
    caches = []
    for t in range(steps):
        h, cache = cell_forward(p, xs[t], h, store[:, t], bias)
        caches.append(cache)

    loss_value, step_grads = loss.loss_and_grads(store[0])
    if len(step_grads) != steps:
        raise ContractError(
            f"loss returned {len(step_grads)} step gradients for {steps} steps")

    grads = _zeros_like(p)
    g_h = None
    reached = 0   # backward ran steps reached - 1 .. 0
    for t in range(steps - 1, -1, -1):
        inject = step_grads[t]
        if inject is not None:
            g_h = inject if g_h is None else g_h + inject
        if g_h is None:
            continue
        reached = reached or t + 1
        grads, g_h = cell_backward(p, caches[t], g_h, grads, store[:, t])
    for end in range(reached, 0, -_CHUNK):
        begin = max(end - _CHUNK, 0)
        _input_grads(p, grads, xs[begin:end], store[:, begin:end])
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

    near = p.variant == "ncgru" and _kink_margin(p, cache) < _KINK_ATOL
    return JacobianResult(matrix=jac, near_kink=near)


def _kink_margin(p: CellParams, cache: StepCache) -> float:
    """The least | |pre_c| + b_c | of an NC-GRU step: how close its
    candidate sits to modReLU's kink. No cache keeps pre_c, so it is
    recomputed from x_t, r_t and h_prev with the forward's ops in the
    forward's order."""
    pre_c = p.w_c @ cache.x_t + p.u_c @ (cache.r_t * cache.h_prev)
    return float(np.min(np.abs(np.abs(pre_c) + p.b_c[:, None])))
