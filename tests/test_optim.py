"""Optimizer update-rule tests against hand-evaluated formulas."""

import json

import numpy as np
import pytest

from ncgru.codec import encode
from ncgru.errors import ContractError, NumericError, ShapeError
from ncgru.optim import Optimizer


def as_json(opt):
    """The optimizer's snapshot as a checkpoint stores it."""
    return json.loads(json.dumps(opt.to_dict(), default=encode))


def skew(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return (m - m.T) / 2.0


def test_sgd_formula():
    opt = Optimizer("sgd", lr=0.1)
    g = np.array([1.0, -2.0, 0.5])
    upd = opt.step("w", g)
    assert np.array_equal(upd, 0.1 * g)
    # SGD is stateless, the same gradient gives the same update forever.
    assert np.array_equal(opt.step("w", g), upd)


def test_adam_first_step_closed_form():
    # After one step m_hat = g and sqrt(v_hat) = |g|, so the update is
    # lr * g / (|g| + eps).
    opt = Optimizer("adam", lr=1e-3)
    g = np.array([3.0, -0.2, 1e-4, -7.0])
    upd = opt.step("w", g)
    want = 1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(upd, want, atol=1e-12, rtol=0.0)


def test_adam_second_step_hand_formula():
    opt = Optimizer("adam", lr=0.01)
    g1 = np.array([1.0, -2.0])
    g2 = np.array([0.5, 0.5])
    opt.step("w", g1)
    upd = opt.step("w", g2)
    m = 0.9 * (0.1 * g1) + 0.1 * g2
    v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
    m_hat = m / (1.0 - 0.9**2)
    v_hat = v / (1.0 - 0.999**2)
    want = 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(upd, want, atol=1e-15, rtol=0.0)


def test_rmsprop_first_step_hand_formula():
    opt = Optimizer("rmsprop", lr=0.05)
    g = np.array([2.0, -4.0])
    upd = opt.step("w", g)
    v = 0.1 * g * g
    want = 0.05 * g / (np.sqrt(v) + 1e-8)
    assert np.allclose(upd, want, atol=1e-15, rtol=0.0)


def out_of_place_updates(kind, grads, lr, b1=0.9, b2=0.999, decay=0.9, eps=1e-8):
    """Reference: the textbook formulas, a fresh array for every term."""
    m = np.zeros_like(grads[0])
    v = np.zeros_like(grads[0])
    out = []
    for t, g in enumerate(grads, start=1):
        if kind == "rmsprop":
            v = decay * v + (1.0 - decay) * g * g
            out.append(lr * g / (np.sqrt(v) + eps))
        else:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            out.append(lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


@pytest.mark.parametrize("kind", ["rmsprop", "adam"])
def test_updates_equal_out_of_place_formula(kind):
    rng = np.random.default_rng(5)
    grads = [rng.normal(size=(6, 5)) for _ in range(5)]
    want = out_of_place_updates(kind, grads, lr=3e-3)
    opt = Optimizer(kind, lr=3e-3)
    for k, g in enumerate(grads):
        if k == 3:
            # a checkpoint round trip mid-run continues identically
            back = Optimizer.from_dict(as_json(opt))
            assert np.array_equal(back.step("w", g), want[k])
        upd = opt.step("w", g)
        assert np.array_equal(upd, want[k]), k
        # callers subtract the update in place or reuse its memory; that
        # must not reach the optimizer's state
        upd *= -7.0


def test_buffers_are_per_name():
    opt = Optimizer("adam", lr=1e-3)
    g = np.ones(3)
    u1 = opt.step("a", g)
    u2 = opt.step("b", g)
    # Fresh buffers for "b": identical first-step update.
    assert np.array_equal(u1, u2)
    u3 = opt.step("a", g)
    assert not np.array_equal(u1, u3)


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_skew_gradients_give_skew_updates(kind):
    """Entrywise symmetric updates preserve skew structure every step."""
    opt = Optimizer(kind, lr=1e-3)
    for k in range(100):
        g = skew(8, seed=k)
        upd = opt.step("a", g)
        assert np.max(np.abs(upd + upd.T)) < 1e-13


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_updates_bitwise_deterministic(kind):
    grads = [np.random.default_rng(k).normal(size=(4, 4)) for k in range(10)]
    outs = []
    for _ in range(2):
        opt = Optimizer(kind, lr=1e-3)
        outs.append([opt.step("w", g).copy() for g in grads])
    for a, b in zip(outs[0], outs[1]):
        assert np.array_equal(a, b)


def test_zero_gradient_gives_zero_update():
    for kind in ("sgd", "rmsprop", "adam"):
        opt = Optimizer(kind, lr=1e-3)
        upd = opt.step("w", np.zeros(5))
        assert np.all(upd == 0.0)


def test_nan_gradient_rejected_without_buffer_damage():
    opt = Optimizer("adam", lr=1e-3)
    bad = np.array([1.0, np.nan])
    with pytest.raises(NumericError):
        opt.step("w", bad)
    # The poisoned call must not have created or advanced any buffer.
    g = np.array([1.0, 2.0])
    upd = opt.step("w", g)
    want = 1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(upd, want, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("kind", ["rmsprop", "adam"])
def test_shape_mismatch_rejected_without_buffer_damage(kind):
    opt = Optimizer(kind, lr=1e-3)
    g = np.array([1.0, 2.0, 3.0])
    opt.step("w", g)
    before = as_json(opt)
    with pytest.raises(ShapeError):
        opt.step("w", np.ones((3, 3)))
    assert as_json(opt) == before


def test_inf_gradient_rejected():
    opt = Optimizer("sgd", lr=1e-3)
    with pytest.raises(NumericError):
        opt.step("w", np.array([np.inf]))


def test_unknown_kind_and_bad_lr():
    with pytest.raises(ContractError):
        Optimizer("adagrad", lr=1e-3)
    with pytest.raises(ContractError):
        Optimizer("sgd", lr=0.0)
    with pytest.raises(ContractError):
        Optimizer("sgd", lr=-1.0)


def test_serialization_round_trip():
    opt = Optimizer("adam", lr=1e-3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        opt.step("w", rng.normal(size=(3, 3)))
        opt.step("b", rng.normal(size=3))
    back = Optimizer.from_dict(as_json(opt))
    g = rng.normal(size=(3, 3))
    u1 = opt.step("w", g)
    u2 = back.step("w", g)
    assert np.array_equal(u1, u2)


def _stepped_blob(kind):
    opt = Optimizer(kind, lr=1e-3)
    for g in ([1.0, -2.0], [0.5, 0.25], [-1.0, 3.0]):
        opt.step("w", np.array(g))
    return as_json(opt)


@pytest.mark.parametrize("kind,edit", [
    ("adam", lambda b: b.update(t={})),                      # t lost for a buffered name
    ("adam", lambda b: b["m"].pop("w")),                     # v without m
    ("adam", lambda b: b["t"].update(x=2)),                  # t for an unbuffered name
    ("adam", lambda b: b["m"].update(w=[0.1, 0.2, 0.3])),    # m and v shapes differ
    ("adam", lambda b: b["m"].update(w=[float("nan"), 0.0])),
    ("adam", lambda b: b["v"].update(w=[float("inf"), 1.0])),
    ("adam", lambda b: b["v"].update(w=[-1.0, 5.0])),
    ("adam", lambda b: b["t"].update(w=0)),
    ("rmsprop", lambda b: b["m"].update(w=[0.0, 0.0])),      # rmsprop keeps no m
    ("rmsprop", lambda b: b["t"].update(w=3)),               # nor t
    ("rmsprop", lambda b: b["v"].update(w=[-1e-3, 1.0])),
    ("sgd", lambda b: b["v"].update(w=[1.0, 1.0])),          # sgd keeps no buffer
], ids=["adam_no_t", "adam_no_m", "adam_extra_t", "adam_m_v_shapes", "adam_nan_m",
        "adam_inf_v", "adam_negative_v", "adam_t_zero", "rmsprop_m", "rmsprop_t",
        "rmsprop_negative_v", "sgd_v"])
def test_from_dict_rejects_corrupt_state(kind, edit):
    blob = _stepped_blob(kind)
    Optimizer.from_dict(blob)  # the unedited state loads
    edit(blob)
    with pytest.raises(ShapeError):
        Optimizer.from_dict(blob)


def test_from_dict_accepts_fresh_and_stepped_state():
    for kind in ("sgd", "rmsprop", "adam"):
        fresh = Optimizer(kind, lr=1e-3).to_dict()
        assert Optimizer.from_dict(fresh).to_dict() == fresh
        stepped = _stepped_blob(kind)
        assert as_json(Optimizer.from_dict(stepped)) == stepped


@pytest.mark.parametrize("edit", [
    lambda b: b.pop("kind"),
    lambda b: b.pop("m"),
    lambda b: b.update(t=[3]),                                 # t must map names
    lambda b: b["v"].update(w="x"),
    lambda b: b["m"].update(w=[0.5, "x"]),
    lambda b: b["m"].update(w=[0.5, "0.5"]),                  # a v1 list with a string
    lambda b: b["v"].update(w=[None, 1.0]),                    # or a null
    lambda b: b["t"].update(w="x"),
    lambda b: b.update(beta1="x"),
    lambda b: b["v"]["w"].update(f8="not base64!"),
    lambda b: b["v"]["w"].update(f8=encode(np.ones(3))["f8"]),  # 24 bytes for shape [2]
    lambda b: b["v"]["w"].update(shape=[2.0]),
    lambda b: b["v"]["w"].update(shape=[-2]),
    lambda b: b["v"]["w"].pop("shape"),
], ids=["no_kind", "no_m", "t_list", "v_string", "m_entry_string",
        "m_numeric_string", "v_null", "t_string",
        "beta1_string", "bad_base64", "byte_length", "float_shape", "negative_shape", "no_shape"])
def test_from_dict_rejects_malformed_blob(edit):
    blob = _stepped_blob("adam")
    Optimizer.from_dict(blob)
    edit(blob)
    with pytest.raises(ContractError):
        Optimizer.from_dict(blob)
