"""Recurrent cell forward/backward tests.

The main oracles are an independent plain-numpy rewrite of each step and
central finite differences through the full forward pass.
"""

import ast
import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ncgru import cells
from ncgru.cells import (
    CellParams,
    StepCache,
    cell_backward,
    cell_forward,
    jacobian_h,
    modrelu,
    sequence_bptt,
    sequence_states,
    sigmoid,
    step_store,
)
from ncgru.errors import ContractError, ShapeError
from ncgru.harness import LinearReadoutMse, SoftmaxReadoutXent


def oracle_step(p, x, h):
    """The same cell math written independently, loops and raw numpy."""
    r = 1.0 / (1.0 + np.exp(-(p.w_r @ x + p.u_r @ h + p.b_r)))
    u = 1.0 / (1.0 + np.exp(-(p.w_u @ x + p.u_u @ h + p.b_u)))
    if p.variant == "gru":
        c = np.tanh(p.w_c @ x + p.u_c @ (r * h) + p.b_c)
    else:
        z = p.w_c @ x + p.u_c @ (r * h)
        c = np.sign(z) * np.maximum(np.abs(z) + p.b_c, 0.0)
    return (1.0 - u) * h + u * c


def test_sigmoid_stable_and_correct():
    x = np.array([-1000.0, 0.0, 1000.0])
    with np.errstate(over="raise"):
        y = sigmoid(x)
    assert y[0] == 0.0
    assert y[1] == 0.5
    assert y[2] == 1.0


def test_modrelu_cases():
    b = np.array([-1.0, -1.0, -1.0, 0.5])
    z = np.array([2.0, -2.0, 0.5, -0.25])
    got = modrelu(z, b)
    want = np.array([1.0, -1.0, 0.0, -0.75])
    assert np.array_equal(got, want)


def test_out_arguments_write_the_same_bits():
    """sigmoid and modrelu into a given array equal the plain formulas, and
    each in place (as cell_forward runs them on the r, u and c rows) gives
    the bits of the out-of-place call."""
    rng = np.random.default_rng(30)
    z = rng.normal(size=(5, 3)) * 4.0
    b = rng.uniform(-1.0, 1.0, (5, 1))
    out = np.empty((5, 3))
    assert sigmoid(z, out=out) is out
    assert np.array_equal(out, 0.5 * (1.0 + np.tanh(0.5 * z)))
    inplace = z.copy()
    assert sigmoid(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, sigmoid(z))
    assert modrelu(z, b, out=out) is out
    assert np.array_equal(out, np.sign(z) * np.maximum(np.abs(z) + b, 0.0))
    inplace = z.copy()
    assert modrelu(inplace, b, out=inplace) is inplace
    assert np.array_equal(inplace, modrelu(z, b))


def test_gru_zero_everything():
    p = CellParams.init("gru", 4, 3, seed=0)
    for name, arr in p.named_arrays():
        arr[:] = 0.0
    h, cache = cell_forward(p, np.zeros((3, 1)), np.zeros((4, 1)))
    assert np.all(h == 0.0)
    assert np.all(cache.r_t == 0.5)
    assert np.all(cache.u_t == 0.5)


def test_gru_saturated_update_gate_keeps_candidate():
    # b_u = +40 drives u to 1, so h_t collapses onto the candidate.
    p = CellParams.init("gru", 5, 3, seed=1)
    p.b_u[:] = 40.0
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 1))
    h_prev = rng.normal(size=(5, 1))
    h, cache = cell_forward(p, x, h_prev)
    assert np.max(np.abs(h - cache.c_t)) < 1e-10


def test_gru_frozen_update_gate_keeps_state():
    p = CellParams.init("gru", 5, 3, seed=1)
    p.b_u[:] = -40.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 1))
    h_prev = rng.normal(size=(5, 1))
    h, _ = cell_forward(p, x, h_prev)
    assert np.max(np.abs(h - h_prev)) < 1e-10


def test_ncgru_zero_everything():
    p = CellParams.init("ncgru", 4, 3, seed=0)
    for name, arr in p.named_arrays():
        arr[:] = 0.0
    h, cache = cell_forward(p, np.zeros((3, 1)), np.zeros((4, 1)))
    assert np.all(h == 0.0)
    assert np.all(cache.c_t == 0.0)


def test_ncgru_negative_bias_clips_candidate():
    p = CellParams.init("ncgru", 4, 3, seed=4)
    p.b_c[:] = -100.0
    rng = np.random.default_rng(5)
    h, cache = cell_forward(p, rng.normal(size=(3, 1)), rng.normal(size=(4, 1)))
    assert np.all(cache.c_t == 0.0)
    # With the candidate clipped to zero the step is pure decay.
    assert np.array_equal(h, (1.0 - cache.u_t) * cache.h_prev)


def test_forward_matches_oracle_both_variants():
    rng = np.random.default_rng(6)
    for variant in ("gru", "ncgru"):
        for trial in range(10):
            p = CellParams.init(variant, 6, 4, seed=100 + trial)
            x = rng.normal(size=4)
            h_prev = rng.normal(size=6)
            h, _ = cell_forward(p, x[:, None], h_prev[:, None])
            want = oracle_step(p, x, h_prev)
            assert np.max(np.abs(h[:, 0] - want)) <= 1e-14


def test_gate_ranges():
    rng = np.random.default_rng(7)
    p = CellParams.init("gru", 8, 5, seed=8)
    for _ in range(20):
        _, cache = cell_forward(p, 10 * rng.normal(size=(5, 1)), rng.normal(size=(8, 1)))
        assert np.all(cache.r_t > 0.0) and np.all(cache.r_t < 1.0)
        assert np.all(cache.u_t > 0.0) and np.all(cache.u_t < 1.0)


def test_gru_state_stays_inside_unit_box():
    """From h_0 = 0 every GRU state is a convex mix of tanh outputs."""
    rng = np.random.default_rng(9)
    p = CellParams.init("gru", 12, 6, seed=10)
    xs = rng.normal(size=(50, 6, 1)) * 3.0
    peak = max(float(np.max(np.abs(h))) for h in sequence_states(p, xs))
    assert peak <= 1.0


def test_forward_shape_errors():
    p = CellParams.init("gru", 4, 3, seed=0)
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros((2, 1)), np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros((3, 1)), np.zeros((5, 1)))
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros((3, 2)), np.zeros((4, 5)))


def test_vectors_are_rejected():
    """States are (n, B) columns only; a 1-D vector is a shape error."""
    p = CellParams.init("ncgru", 4, 3, seed=0)
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros(3), np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros((3, 1)), np.zeros(4))
    with pytest.raises(ShapeError):
        cell_forward(p, np.zeros(3), np.zeros(4))
    _, cache = cell_forward(p, np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        cell_backward(p, cache, np.zeros(4))
    with pytest.raises(ShapeError):
        list(sequence_states(p, np.zeros((5, 3))))
    with pytest.raises(ShapeError):
        sequence_bptt(p, [np.zeros(3)] * 5,
                      LinearReadoutMse(np.eye(4), np.zeros(4), np.zeros((4, 1))))


def test_bptt_shares_states_and_forward_keeps_no_caches(monkeypatch):
    """sequence_bptt's step t cache holds step t-1's h_t itself, not a
    copy; sequence_states lets each step cache go by the step after next
    and keeps none once it is exhausted."""
    p = CellParams.init("ncgru", 4, 3, seed=28)
    xs = np.random.default_rng(29).normal(size=(6, 3, 2))
    forward = cells.cell_forward
    caches = []

    def keep(*args):
        out = forward(*args)
        caches.append(out[1])
        return out

    monkeypatch.setattr(cells, "cell_forward", keep)
    sequence_bptt(p, xs, LinearReadoutMse(np.eye(4), np.zeros(4), np.zeros((4, 2))))
    assert len(caches) == 6
    for t in range(1, 6):
        assert caches[t].h_prev is caches[t - 1].h_t

    refs = []
    live = []

    def watch(*args):
        gc.collect()
        live.append(sum(ref() is not None for ref in refs))
        out = forward(*args)
        refs.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(cells, "cell_forward", watch)
    hs = [h.copy() for h in sequence_states(p, xs)]
    gc.collect()
    assert len(hs) == len(refs) == 6
    assert max(live) <= 1
    assert all(ref() is None for ref in refs)


def _xent_loss(targets):
    return SoftmaxReadoutXent(np.eye(5)[:4], np.zeros(4), targets)


@pytest.mark.parametrize("variant", ["gru", "ncgru"])
def test_reused_store_gives_the_fresh_store_result(variant):
    """A store that held another batch's steps gives the second batch the
    loss and gradients of a fresh store, bit for bit, and ends up holding
    the fresh store's bits; a GRU store's h_t rows hold the states."""
    rng = np.random.default_rng(31)
    p = CellParams.init(variant, 5, 3, seed=32)
    p.b_c[:] = rng.uniform(-0.5, 0.5, 5)
    first, second = rng.normal(size=(2, 7, 3, 4))
    targets = rng.integers(0, 4, (2, 4, 7))
    store, fresh_store = step_store(5, 7, 4), step_store(5, 7, 4)
    sequence_bptt(p, first, _xent_loss(targets[0]), store)
    reused_loss, fresh_loss = _xent_loss(targets[1]), _xent_loss(targets[1])
    reused = sequence_bptt(p, second, reused_loss, store)
    fresh = sequence_bptt(p, second, fresh_loss, fresh_store)
    assert reused.loss == fresh.loss
    for (name, got), (_, want) in zip(reused.grads.named_arrays(), fresh.grads.named_arrays()):
        assert np.array_equal(got, want), name
    assert np.array_equal(reused_loss.grad_w, fresh_loss.grad_w)
    assert np.array_equal(reused_loss.grad_b, fresh_loss.grad_b)
    assert store.tobytes() == fresh_store.tobytes()
    if variant == "gru":
        h_rows = store[cells._SLOT_ROWS.index("h_t")]
        assert np.array_equal(h_rows, np.stack([h.copy() for h in sequence_states(p, second)]))


def test_step_store_has_four_rows_and_the_candidate_stands_for_its_pre_activation():
    """A slot is h_t, r, u and c. Each gate row holds its activation, so a
    cache's pre_r, pre_u and pre_c are the r_t, u_t and c_t views
    themselves, with a slot or without one."""
    assert step_store(5, 7, 4).shape == (4, 7, 5, 4)
    assert cells._SLOT_ROWS == ("h_t", "r_t", "u_t", "c_t")
    rng = np.random.default_rng(39)
    p = CellParams.init("ncgru", 5, 3, seed=35)
    p.b_c[:] = rng.uniform(-0.5, 0.5, 5)
    x, h = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    slot = step_store(5, 1, 4)[:, 0]
    h_t, cache = cell_forward(p, x, h, slot)
    for row, name in zip(slot, cells._SLOT_ROWS):
        assert np.shares_memory(getattr(cache, name), row) and getattr(cache, name).shape == row.shape
    assert h_t is cache.h_t
    assert cache.pre_r is cache.r_t
    assert cache.pre_u is cache.u_t
    assert cache.pre_c is cache.c_t
    _, own = cell_forward(p, x, h)
    assert own.pre_c is own.c_t
    assert np.array_equal(own.c_t, cache.c_t)
    pre_c = p.w_c @ x + p.u_c @ (own.r_t * h)
    assert np.array_equal(modrelu(pre_c, p.b_c[:, None]), own.c_t)


def test_candidate_at_zero_takes_slope_zero():
    """modReLU jumps by 2 b_c at pre_c == 0 when b_c > 0; c_t is 0 there,
    and backward passes no gradient through the candidate, with a slot or
    without one."""
    p = CellParams.init("ncgru", 3, 2, seed=40)
    for _, arr in p.named_arrays():
        arr[:] = 0.0
    p.b_c[:] = 0.3
    x, h = np.ones((2, 4)), np.random.default_rng(41).normal(size=(3, 4))
    g_h = np.ones((3, 4))
    _, own = cell_forward(p, x, h)
    assert np.all(p.w_c @ x + p.u_c @ (own.r_t * h) == 0.0) and np.all(own.c_t == 0.0)
    slot = step_store(3, 1, 4)[:, 0]
    _, in_slot = cell_forward(p, x, h, slot)
    for cache in (own, in_slot):
        grads, g_hprev = cell_backward(p, cache, g_h)
        for name in ("w_c", "u_c", "b_c"):
            assert not np.any(getattr(grads, name)), name
        assert np.array_equal(g_hprev, g_h * (1.0 - cache.u_t))


def test_trainbench_cache_probe_reads_only_step_cache_names(monkeypatch):
    """trainbench/probes.py counts cells.cache_bytes by reading the names in
    its _CACHE_FIELDS off every StepCache. A name dropped from StepCache
    would fail there, inside a benchmark child; it fails here instead. On
    sequence_bptt's caches every name is an ndarray, and the distinct ones
    are each step's x_t and its four slot rows (and the zero h_0), so the
    probe counts the four-row store."""
    probes = Path(__file__).resolve().parents[1] / "trainbench" / "probes.py"
    fields = next(ast.literal_eval(node.value) for node in ast.parse(probes.read_text()).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "_CACHE_FIELDS" for t in node.targets))
    _, cache = cell_forward(CellParams.init("gru", 4, 3, seed=36), np.ones((3, 2)), np.zeros((4, 2)))
    missing = [name for name in fields if not hasattr(cache, name)]
    assert not missing, (f"StepCache lacks {missing}, which trainbench/probes.py's _CACHE_FIELDS "
                         "reads; keep them until the probe fix of ROADMAP Direction 2")

    p = CellParams.init("ncgru", 4, 3, seed=36)
    xs = np.random.default_rng(38).normal(size=(6, 3, 2))
    forward = cells.cell_forward
    caches = []

    def keep(*args):
        out = forward(*args)
        caches.append(out[1])
        return out

    monkeypatch.setattr(cells, "cell_forward", keep)
    store = step_store(4, 6, 2)
    sequence_bptt(p, xs, LinearReadoutMse(np.eye(4), np.zeros(4), np.zeros((4, 2))), store)
    seen, counted = set(), 0
    for t, cache in enumerate(caches):
        arrays = {name: getattr(cache, name) for name in fields}
        assert all(isinstance(arr, np.ndarray) for arr in arrays.values())
        rows = [getattr(cache, name) for name in cells._SLOT_ROWS]
        assert {id(arr) for arr in arrays.values()} == {id(cache.x_t), id(cache.h_prev),
                                                       *map(id, rows)}
        for row, arr in zip(store[:, t], rows):
            assert np.shares_memory(arr, row) and arr.shape == row.shape
        for arr in arrays.values():   # the probe's count
            if id(arr) not in seen:
                seen.add(id(arr))
                counted += arr.nbytes
    assert counted == store.nbytes + xs.nbytes + caches[0].h_prev.nbytes


def test_store_of_another_shape_is_rejected_untouched():
    """A store made for another T, B or n, or not float64, is a ShapeError
    before any step is written: it is never reused in part or replaced."""
    p = CellParams.init("ncgru", 5, 3, seed=33)
    xs = np.random.default_rng(34).normal(size=(7, 3, 4))
    loss = LinearReadoutMse(np.eye(5), np.zeros(5), np.zeros((5, 4)))
    for store in (step_store(5, 6, 4), step_store(5, 8, 4), step_store(5, 7, 3),
                  step_store(4, 7, 4), np.empty((4, 7, 5, 4), dtype=np.float32)):
        store[...] = np.nan
        with pytest.raises(ShapeError, match="step store"):
            sequence_bptt(p, xs, loss, store)
        assert np.all(np.isnan(store))
    with pytest.raises(ShapeError, match="slot"):
        cell_forward(p, xs[0], np.zeros((5, 4)), step_store(5, 1, 3)[:, 0])
    # A mis-shaped step anywhere in the input is found before step 0 runs.
    store = step_store(5, 7, 4)
    for bad in (np.zeros((3, 3)), np.zeros((2, 4)), np.zeros(3), np.zeros((1, 3, 4))):
        ragged = list(xs)
        ragged[5] = bad
        store[...] = np.nan
        with pytest.raises(ShapeError, match="step inputs"):
            sequence_bptt(p, ragged, loss, store)
        assert np.all(np.isnan(store))
    for bad in (xs[:, :2], xs[..., 0], xs[None]):
        with pytest.raises(ShapeError):
            sequence_bptt(p, bad, loss, store)
        assert np.all(np.isnan(store))


def test_step_bias_needs_its_slot_and_a_float64_3_n_b_array():
    """sequence_bptt's form of a step: a bias without the slot that holds
    the step's input projections is a ContractError, and a bias that is not
    float64 (3, n, B) is a ShapeError rather than a broadcast."""
    p = CellParams.init("ncgru", 5, 3, seed=37)
    x, h = np.ones((3, 4)), np.zeros((5, 4))
    with pytest.raises(ContractError, match="bias"):
        cell_forward(p, x, h, None, np.zeros((3, 5, 4)))
    for bad in (np.zeros(5), np.zeros((3, 5, 1)), np.zeros((3, 5, 4), dtype=np.float32),
                np.zeros((3, 5, 4)).tolist()):
        with pytest.raises(ShapeError, match="bias"):
            cell_forward(p, x, h, step_store(5, 1, 4)[:, 0], bad)


def test_batched_forward_equals_loop():
    rng = np.random.default_rng(11)
    for variant in ("gru", "ncgru"):
        p = CellParams.init(variant, 5, 3, seed=12)
        xb = rng.normal(size=(3, 7))
        hb = rng.normal(size=(5, 7))
        hout, cache = cell_forward(p, xb, hb)
        assert hout.shape == (5, 7)
        assert cache.x_t.shape == (3, 7)
        for j in range(7):
            hj, _ = cell_forward(p, xb[:, j:j + 1], hb[:, j:j + 1])
            assert np.max(np.abs(hout[:, j] - hj[:, 0])) < 1e-14


def test_backward_zero_grad():
    p = CellParams.init("gru", 4, 3, seed=13)
    _, cache = cell_forward(p, np.ones((3, 1)), np.ones((4, 1)))
    grads, g_prev = cell_backward(p, cache, np.zeros((4, 1)))
    for name, arr in grads.named_arrays():
        assert np.all(arr == 0.0), name
    assert np.all(g_prev == 0.0)


def _fd_cell_param_grads(p, x, h_prev, g_out, eps=1e-6):
    """Central differences of L = <g_out, h_t> in every parameter entry."""
    out = {}
    for name, arr in p.named_arrays():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            hp, _ = cell_forward(p, x[:, None], h_prev[:, None])
            flat[idx] = orig - eps
            hm, _ = cell_forward(p, x[:, None], h_prev[:, None])
            flat[idx] = orig
            gflat[idx] = float(g_out @ (hp - hm)[:, 0]) / (2.0 * eps)
        out[name] = g
    return out


def _fd_cell_state_grad(p, x, h_prev, g_out, eps=1e-6):
    g = np.zeros_like(h_prev)
    for idx in range(h_prev.size):
        orig = h_prev[idx]
        h_prev[idx] = orig + eps
        hp, _ = cell_forward(p, x[:, None], h_prev[:, None])
        h_prev[idx] = orig - eps
        hm, _ = cell_forward(p, x[:, None], h_prev[:, None])
        h_prev[idx] = orig
        g[idx] = float(g_out @ (hp - hm)[:, 0]) / (2.0 * eps)
    return g


@pytest.mark.parametrize("variant", ["gru", "ncgru"])
def test_backward_matches_finite_differences(variant):
    rng = np.random.default_rng(14)
    p = CellParams.init(variant, 4, 3, seed=15)
    if variant == "ncgru":
        # Keep the candidate away from the modrelu kink.
        p.b_c[:] = 0.5
    x = rng.normal(size=3)
    h_prev = rng.normal(size=4)
    g_out = rng.normal(size=4)
    _, cache = cell_forward(p, x[:, None], h_prev[:, None])
    grads, g_prev = cell_backward(p, cache, g_out[:, None])
    fd = _fd_cell_param_grads(p, x, h_prev, g_out)
    for name, arr in grads.named_arrays():
        denom = max(float(np.max(np.abs(fd[name]))), 1e-12)
        err = float(np.max(np.abs(arr - fd[name]))) / denom
        assert err < 1e-6, f"{variant} {name}: rel err {err:.3e}"
    fd_h = _fd_cell_state_grad(p, x, h_prev, g_out)
    denom = max(float(np.max(np.abs(fd_h))), 1e-12)
    assert float(np.max(np.abs(g_prev[:, 0] - fd_h))) / denom < 1e-6


def test_backward_batched_equals_sum_of_single():
    rng = np.random.default_rng(16)
    p = CellParams.init("gru", 4, 3, seed=17)
    xb = rng.normal(size=(3, 5))
    hb = rng.normal(size=(4, 5))
    gb = rng.normal(size=(4, 5))
    _, cache = cell_forward(p, xb, hb)
    grads, g_prev = cell_backward(p, cache, gb)
    assert g_prev.shape == (4, 5)
    for name, arr in grads.named_arrays():
        total = np.zeros_like(arr)
        for j in range(5):
            _, cj = cell_forward(p, xb[:, j:j + 1], hb[:, j:j + 1])
            gj, g_prev_j = cell_backward(p, cj, gb[:, j:j + 1])
            total += dict(gj.named_arrays())[name]
            assert np.max(np.abs(g_prev[:, j] - g_prev_j[:, 0])) < 1e-12
        assert np.max(np.abs(arr - total)) < 1e-12, name


def test_variant_mismatch_raises():
    pg = CellParams.init("gru", 4, 3, seed=1)
    pn = CellParams.init("ncgru", 4, 3, seed=1)
    _, cache = cell_forward(pg, np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ContractError):
        cell_backward(pn, cache, np.ones((4, 1)))
    with pytest.raises(ContractError):
        jacobian_h(pn, cache)


def test_sequence_states_zero_initial_state():
    p = CellParams.init("gru", 4, 3, seed=18)
    xs = np.zeros((6, 3, 1))
    for name, arr in p.named_arrays():
        arr[:] = 0.0
    hs = [h.copy() for h in sequence_states(p, xs)]
    assert len(hs) == 6
    for h in hs:
        assert np.all(h == 0.0)


class _ScoredPrefix:
    """A readout that scores only the first `scored` states: dL/dh_t is
    None for every later step, so backward starts below step T - 1."""

    def __init__(self, readout, scored):
        self.readout = readout
        self.scored = scored

    def loss_and_grads(self, hs):
        value, grads = self.readout.loss_and_grads(hs[:self.scored])
        return value, list(grads) + [None] * (len(hs) - self.scored)


def _reference_bptt(p, xs, loss):
    """BPTT as a loop of public one-step calls, each with a fresh slot and
    its own input-weight and bias gradients: the per-step order that
    sequence_bptt's per-sequence reductions must reproduce bit for bit."""
    h = np.zeros((p.n, xs.shape[2]))
    caches = []
    for x in xs:
        h, cache = cell_forward(p, x, h)
        caches.append(cache)
    value, step_grads = loss.loss_and_grads(np.stack([c.h_t for c in caches]))
    grads = dataclasses.replace(p, **{name: np.zeros_like(a) for name, a in p.named_arrays()})
    g_h = None
    for t in range(len(xs) - 1, -1, -1):
        inject = step_grads[t]
        if inject is not None:
            g_h = inject if g_h is None else g_h + inject
        if g_h is not None:
            grads, g_h = cell_backward(p, caches[t], g_h, into=grads)
    return value, grads


@pytest.mark.parametrize("variant", ["gru", "ncgru"])
@pytest.mark.parametrize("readout", ["mse", "xent"])
def test_bptt_equals_the_per_step_loop_byte_for_byte(variant, readout):
    """sequence_bptt projects the inputs and reduces the input-weight and
    bias gradients once per sequence, in chunks of 32 steps; its loss, the
    nine cell gradients and the readout's gradients equal the per-step
    loop's byte for byte. The lengths cross the chunk boundary, and a
    loss scoring only a prefix makes backward start below step T - 1."""
    rng = np.random.default_rng(40)
    n, m = 5, 3
    p = CellParams.init(variant, n, m, seed=41)
    for _, arr in p.named_arrays():
        arr += rng.normal(scale=0.3, size=arr.shape)
    for steps in (1, 2, 31, 33, 70):
        for batch in (1, 3):
            xs = rng.normal(size=(steps, m, batch))
            w, b = rng.normal(size=(4, n)), rng.normal(size=4)
            if readout == "mse":
                targets = rng.normal(size=(4, batch))
            else:
                targets = rng.integers(0, 4, (batch, steps))
            for scored in sorted({steps, max(1, steps - 3)}):

                def make_loss():
                    if readout == "mse":
                        head = LinearReadoutMse(w, b, targets)
                    else:
                        head = SoftmaxReadoutXent(w, b, targets[:, :scored])
                    return head, _ScoredPrefix(head, scored)

                head, loss = make_loss()
                got = sequence_bptt(p, xs, loss)
                ref_head, ref_loss = make_loss()
                want_loss, want = _reference_bptt(p, xs, ref_loss)
                case = (steps, batch, scored)
                assert got.loss == want_loss, case
                for (name, arr), (_, ref) in zip(got.grads.named_arrays(), want.named_arrays()):
                    assert arr.tobytes() == ref.tobytes(), (case, name)
                assert head.grad_w.tobytes() == ref_head.grad_w.tobytes(), case
                assert head.grad_b.tobytes() == ref_head.grad_b.tobytes(), case


def test_sequences_call_the_step_functions_every_step(monkeypatch):
    """The per-sequence work leaves cell_forward, cell_backward and sigmoid
    to run through the module at every step, so wrappers installed on
    those names, as a profiler's are, see each step."""
    p = CellParams.init("ncgru", 4, 3, seed=42)
    steps = 9
    xs = np.random.default_rng(43).normal(size=(steps, 3, 2))
    calls = dict.fromkeys(("cell_forward", "cell_backward", "sigmoid"), 0)

    def counting(name):
        fn = getattr(cells, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cells, name, counting(name))
    sequence_bptt(p, xs, SoftmaxReadoutXent(np.eye(4), np.zeros(4),
                                            np.zeros((2, steps), dtype=int)))
    assert min(calls.values()) >= steps, calls
    calls["cell_forward"] = 0
    for _ in sequence_states(p, xs):
        pass
    assert calls["cell_forward"] >= steps


def test_sequence_rejects_empty():
    p = CellParams.init("gru", 4, 3, seed=18)
    with pytest.raises(ContractError):
        list(sequence_states(p, np.zeros((0, 3, 1))))
    with pytest.raises(ContractError):
        sequence_bptt(p, np.zeros((0, 3, 1)),
                      LinearReadoutMse(np.eye(4), np.zeros(4), np.zeros((4, 1))))


def test_bptt_length_one_equals_cell_backward():
    rng = np.random.default_rng(19)
    p = CellParams.init("gru", 4, 3, seed=20)
    x = rng.normal(size=(1, 3, 1))
    target = rng.normal(size=(4, 1))
    res = sequence_bptt(p, x, LinearReadoutMse(np.eye(4), np.zeros(4), target))
    h, cache = cell_forward(p, x[0], np.zeros((4, 1)))
    # An identity readout sums squared error over entries, gradient 2 (h - target).
    g_out = 2.0 * (h - target)
    grads, _ = cell_backward(p, cache, g_out)
    assert abs(res.loss - float(np.sum((h - target) ** 2))) < 1e-14
    for name, arr in grads.named_arrays():
        got = dict(res.grads.named_arrays())[name]
        assert np.max(np.abs(got - arr)) < 1e-13, name


@pytest.mark.parametrize("variant", ["gru", "ncgru"])
def test_bptt_matches_finite_differences(variant):
    """Length-5 sequence, every parameter, central differences."""
    rng = np.random.default_rng(21)
    p = CellParams.init(variant, 4, 3, seed=22)
    if variant == "ncgru":
        p.b_c[:] = 0.5
    xs = rng.normal(size=(5, 3, 1))
    target = rng.normal(size=(4, 1))
    loss = LinearReadoutMse(np.eye(4), np.zeros(4), target)
    res = sequence_bptt(p, xs, loss)
    eps = 1e-6
    for name, arr in p.named_arrays():
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fdflat = fd.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss.loss(sequence_states(p, xs))
            flat[idx] = orig - eps
            lm = loss.loss(sequence_states(p, xs))
            flat[idx] = orig
            fdflat[idx] = (lp - lm) / (2.0 * eps)
        got = dict(res.grads.named_arrays())[name]
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        err = float(np.max(np.abs(got - fd))) / denom
        assert err < 1e-5, f"{variant} {name}: rel err {err:.3e}"


def test_jacobian_identity_when_update_gate_closed():
    p = CellParams.init("gru", 4, 3, seed=23)
    _, cache = cell_forward(p, np.zeros((3, 1)), np.zeros((4, 1)))
    # Force u = 0 in the cache: J = diag(1 - u) = I and the gate path dies.
    frozen = dataclasses.replace(cache, u_t=np.zeros_like(cache.u_t))
    jac = jacobian_h(p, frozen)
    assert np.max(np.abs(jac.matrix - np.eye(4))) < 1e-12


@pytest.mark.parametrize("variant", ["gru", "ncgru"])
def test_jacobian_matches_finite_differences(variant):
    rng = np.random.default_rng(24)
    p = CellParams.init(variant, 5, 3, seed=25)
    if variant == "ncgru":
        p.b_c[:] = 0.5
    x = rng.normal(size=3)
    h_prev = rng.normal(size=5)
    _, cache = cell_forward(p, x[:, None], h_prev[:, None])
    jac = jacobian_h(p, cache)
    assert not jac.near_kink
    eps = 1e-6
    fd = np.zeros((5, 5))
    for j in range(5):
        hp = h_prev.copy()
        hm = h_prev.copy()
        hp[j] += eps
        hm[j] -= eps
        fp, _ = cell_forward(p, x[:, None], hp[:, None])
        fm, _ = cell_forward(p, x[:, None], hm[:, None])
        fd[:, j] = (fp - fm)[:, 0] / (2.0 * eps)
    assert np.max(np.abs(jac.matrix - fd)) < 1e-6


def test_jacobian_near_kink_flag():
    p = CellParams.init("ncgru", 3, 2, seed=26)
    p.b_c[:] = 0.0
    for name, arr in p.named_arrays():
        if name != "b_c":
            arr[:] = 0.0
    # pre_c = 0 and b = 0 sits exactly on the kink.
    _, cache = cell_forward(p, np.zeros((2, 1)), np.zeros((3, 1)))
    jac = jacobian_h(p, cache)
    assert jac.near_kink


def test_jacobian_of_a_slot_cache_is_the_fresh_cache_jacobian():
    """No cache keeps the candidate's pre-activation; NC-GRU's kink flag
    recomputes it from x_t, r_t and h_prev. A cache from a given slot gives
    the Jacobian and the flag of a cache from a fresh one, bit for bit,
    off the kink and on it. On the kink below, pre_c = 0.5 and b_c = -0.5
    make c_t = 0, so a flag that read c_t for pre_c would miss it."""
    rng = np.random.default_rng(42)
    x, h = rng.normal(size=(2, 1)), rng.normal(size=(3, 1))
    on_kink = CellParams.init("ncgru", 3, 2, seed=26)
    for _, arr in on_kink.named_arrays():
        arr[:] = 0.0
    on_kink.w_c[:] = 0.25
    on_kink.b_c[:] = -0.5
    cases = [(CellParams.init(variant, 3, 2, seed=43), x, h) for variant in ("gru", "ncgru")]
    cases.append((on_kink, np.ones((2, 1)), np.zeros((3, 1))))
    for p, x_t, h_prev in cases:
        want = jacobian_h(p, cell_forward(p, x_t, h_prev)[1])
        got = jacobian_h(p, cell_forward(p, x_t, h_prev, step_store(3, 1, 1)[:, 0])[1])
        assert np.array_equal(got.matrix, want.matrix), p.variant
        assert got.near_kink == want.near_kink
    assert got.near_kink


def test_kink_margin_is_the_forward_pre_activation_margin(monkeypatch):
    """_kink_margin recomputes the candidate's pre-activation, which no
    cache keeps. On a fresh cache and on each slot cache sequence_bptt
    makes (read before backward overwrites the slot), it equals the margin
    | |z| + b | of the z and b the forward hands modReLU, bit for bit."""
    forward_margins, slot_margins = [], []
    modrelu_ = cells.modrelu
    cell_forward_ = cells.cell_forward

    def recording_modrelu(z, b, out=None):
        forward_margins.append(float(np.min(np.abs(np.abs(z) + b))))
        return modrelu_(z, b, out=out)

    def recording_forward(p, *args):
        h, cache = cell_forward_(p, *args)
        slot_margins.append(cells._kink_margin(p, cache))
        return h, cache

    monkeypatch.setattr(cells, "modrelu", recording_modrelu)
    monkeypatch.setattr(cells, "cell_forward", recording_forward)
    on_kink = CellParams.init("ncgru", 3, 2, seed=26)   # pre_c 0.5, b_c -0.5
    for _, arr in on_kink.named_arrays():
        arr[:] = 0.0
    on_kink.w_c[:] = 0.25
    on_kink.b_c[:] = -0.5
    fresh = [(on_kink, np.ones((2, 1)), np.zeros((3, 1)))]
    for seed, batch in ((0, 1), (1, 3), (2, 5)):
        rng = np.random.default_rng(seed)
        p = CellParams.init("ncgru", 6, 4, seed=seed)
        p.b_c = rng.uniform(-0.5, 0.5, 6)
        fresh.append((p, rng.normal(size=(4, batch)), rng.normal(size=(6, batch))))
        xs = rng.normal(size=(7, 4, batch))
        loss = SoftmaxReadoutXent(rng.normal(size=(3, 6)), np.zeros(3),
                                  rng.integers(0, 3, (batch, 7)))
        forward_margins.clear()
        slot_margins.clear()
        sequence_bptt(p, xs, loss)
        assert len(slot_margins) == 7
        assert slot_margins == forward_margins, seed
    margins = []
    for p, x, h in fresh:
        forward_margins.clear()
        margins.append(cells._kink_margin(p, cell_forward_(p, x, h)[1]))
        assert margins[-1] == forward_margins[0]
    assert margins[0] == 0.0   # on the kink


def test_jacobian_rejects_batched_cache():
    p = CellParams.init("gru", 3, 2, seed=27)
    _, cache = cell_forward(p, np.zeros((2, 4)), np.zeros((3, 4)))
    with pytest.raises(ContractError):
        jacobian_h(p, cache)
    _, one = cell_forward(p, np.zeros((2, 1)), np.zeros((3, 1)))
    assert jacobian_h(p, one).matrix.shape == (3, 3)


def test_init_rejects_unknown_variant_and_ortho_name():
    with pytest.raises(ContractError):
        CellParams.init("lstm", 4, 3, seed=0)
