"""Recurrent cell forward/backward tests.

The main oracles are an independent plain-numpy rewrite of each step and
central finite differences through the full forward pass.
"""

import dataclasses
import gc
import weakref

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
    sequence_forward,
    sigmoid,
)
from ncgru.errors import ContractError, ShapeError
from ncgru.harness import LinearReadoutMse


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
    hs = sequence_forward(p, xs)
    peak = max(float(np.max(np.abs(h))) for h in hs)
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
        sequence_forward(p, np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        sequence_bptt(p, [np.zeros(3)] * 5,
                      LinearReadoutMse(np.eye(4), np.zeros(4), np.zeros((4, 1))))


def test_bptt_shares_states_and_forward_keeps_no_caches(monkeypatch):
    """sequence_bptt's step t cache holds step t-1's h_t itself, not a
    copy; sequence_forward lets each step cache go by the step after next
    and keeps none once it returns."""
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
    hs = sequence_forward(p, xs)
    gc.collect()
    assert len(hs) == len(refs) == 6
    assert max(live) <= 1
    assert all(ref() is None for ref in refs)


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


def test_sequence_forward_zero_initial_state():
    p = CellParams.init("gru", 4, 3, seed=18)
    xs = np.zeros((6, 3, 1))
    for name, arr in p.named_arrays():
        arr[:] = 0.0
    hs = sequence_forward(p, xs)
    assert len(hs) == 6
    for h in hs:
        assert np.all(h == 0.0)


def test_sequence_rejects_empty():
    p = CellParams.init("gru", 4, 3, seed=18)
    with pytest.raises(ContractError):
        sequence_forward(p, np.zeros((0, 3, 1)))
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
            lp = loss.loss_and_grads(sequence_forward(p, xs))[0]
            flat[idx] = orig - eps
            lm = loss.loss_and_grads(sequence_forward(p, xs))[0]
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
