"""Skew parameterization, Cayley transform, and Neumann update tests."""

import json

import numpy as np
import pytest

from ncgru.codec import encode
from ncgru.errors import ContractError, NumericError, ShapeError
from ncgru.linalg import exact_inverse, fro_dist_identity, spectral_norm
from ncgru.optim import Optimizer
from ncgru.orthocore import (
    SkewOrthogonal,
    cayley_transform,
    check_skew,
    init_skew,
    make_scaling,
    skew_from_angles,
)


def random_skew(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return (m - m.T) / 2.0


def test_skew_from_angles_zero_angle():
    a = skew_from_angles(np.zeros(2), 4)
    assert np.all(a == 0.0)


def test_skew_from_angles_right_angle():
    # t = pi/2 gives s = sqrt((1-0)/(1+0)) = 1.
    a = skew_from_angles(np.array([np.pi / 2.0]), 2)
    assert abs(a[0, 1] - 1.0) < 1e-15
    assert abs(a[1, 0] + 1.0) < 1e-15


def test_init_skew_block_structure():
    a = init_skew(6, seed=3)
    assert np.max(np.abs(a + a.T)) == 0.0
    # Entries outside the 2x2 diagonal blocks stay zero.
    mask = np.zeros((6, 6), dtype=bool)
    for j in range(0, 6, 2):
        mask[j : j + 2, j : j + 2] = True
    assert np.all(a[~mask] == 0.0)
    # Off-diagonal block entries obey |s| <= 1.
    assert np.max(np.abs(a)) <= 1.0


def test_init_skew_odd_dimension_trailing_zero():
    a = init_skew(5, seed=3)
    assert np.all(a[4, :] == 0.0)
    assert np.all(a[:, 4] == 0.0)


def test_init_skew_deterministic():
    a1 = init_skew(8, seed=12)
    a2 = init_skew(8, seed=12)
    assert np.array_equal(a1, a2)
    a3 = init_skew(8, seed=13)
    assert not np.array_equal(a1, a3)


def test_init_skew_rejects_small_n():
    with pytest.raises(ShapeError):
        init_skew(1, seed=0)


def test_make_scaling_cases():
    assert np.array_equal(make_scaling(4, 0), np.ones(4))
    assert np.array_equal(make_scaling(4, 4), -np.ones(4))
    d = make_scaling(118, 50)
    assert np.all(d[:50] == -1.0)
    assert np.all(d[50:] == 1.0)
    with pytest.raises(ShapeError):
        make_scaling(4, 5)


def test_check_skew_accepts_and_rejects():
    a = random_skew(5, 0)
    check_skew(a, "a")
    bad = a.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ShapeError):
        check_skew(bad, "a")
    # Non-finite entries: NaN compares false with any tolerance, and an
    # antisymmetric +-Inf pair sums to NaN.
    with pytest.raises(ShapeError):
        check_skew(np.full((3, 3), np.nan), "m")
    inf_pair = np.zeros((3, 3))
    inf_pair[0, 1], inf_pair[1, 0] = np.inf, -np.inf
    with pytest.raises(ShapeError):
        check_skew(inf_pair, "m")


def test_cayley_identity():
    u = cayley_transform(np.zeros((3, 3)), np.ones(3))
    assert np.array_equal(u, np.eye(3))


def test_cayley_hand_2x2():
    # (I+A)^-1 (I-A) for A = [[0,1],[-1,0]] is [[0,-1],[1,0]].
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = cayley_transform(a, np.ones(2))
    want = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(u - want)) < 1e-15


def test_cayley_orthogonality_many_sizes():
    for n in (2, 3, 16, 64, 128):
        a = random_skew(n, seed=n)
        d = make_scaling(n, n // 2)
        u = cayley_transform(a, d)
        assert fro_dist_identity(u) < 1e-10 * n


def test_cayley_scaling_changes_sign_of_columns():
    a = random_skew(4, seed=9)
    u_plus = cayley_transform(a, np.ones(4))
    d = make_scaling(4, 2)
    u_mixed = cayley_transform(a, d)
    assert np.allclose(u_mixed, u_plus * d[None, :])


def test_create_defaults_and_validation():
    sk = SkewOrthogonal.create(6, seed=0)
    assert sk.n == 6
    assert sk.neumann_order == 2
    assert np.sum(sk.d == -1.0) == 3
    assert fro_dist_identity(sk.u) < 1e-10 * 6
    with pytest.raises(ValueError):
        SkewOrthogonal.create(6, seed=0, neumann_order=4)
    with pytest.raises(ShapeError):
        SkewOrthogonal.create(1, seed=0)


def test_construction_converts_and_checks_list_state():
    sk = SkewOrthogonal.create(4, seed=0)
    same = SkewOrthogonal(a=sk.a.tolist(), d=sk.d.tolist(), a_tilde=sk.a_tilde.tolist())
    assert np.array_equal(same.u, sk.u)
    for edit in ({"d": [5.0, 1.0, 1.0, 1.0]}, {"d": [1.0, -1.0, 1.0]},
                 {"a_tilde": np.eye(3).tolist()}, {"a_tilde": [[np.inf] * 4] * 4}):
        state = {"a": sk.a, "d": sk.d, "a_tilde": sk.a_tilde, **edit}
        with pytest.raises(ShapeError):
            SkewOrthogonal(**state)


def test_zero_skew_gives_scaled_identity():
    sk = SkewOrthogonal.create(4, seed=0, num_neg=1)
    sk.a[:] = 0.0
    sk.reset()
    assert np.array_equal(sk.a_tilde, np.eye(4))
    assert np.array_equal(sk.u, np.diag(sk.d))


def test_grad_pullback_zero():
    sk = SkewOrthogonal.create(5, seed=1)
    g = sk.grad_pullback(np.zeros((5, 5)))
    assert np.all(g == 0.0)


def test_grad_pullback_exactly_skew():
    sk = SkewOrthogonal.create(7, seed=2)
    rng = np.random.default_rng(3)
    g = sk.grad_pullback(rng.normal(size=(7, 7)))
    # V^T - V is skew by construction, bitwise.
    assert np.array_equal(g, -g.T)


def test_grad_pullback_shape_error():
    sk = SkewOrthogonal.create(5, seed=1)
    with pytest.raises(ShapeError):
        sk.grad_pullback(np.zeros((4, 4)))


def test_grad_pullback_matches_finite_differences():
    """dL/dA for L(A) = <G, U(A)> against central differences, n=6."""
    n = 6
    rng = np.random.default_rng(17)
    sk = SkewOrthogonal.create(n, seed=5)
    g_u = rng.normal(size=(n, n))

    def loss(a):
        return float(np.sum(g_u * cayley_transform(a, sk.d)))

    analytic = sk.grad_pullback(g_u)
    eps = 1e-6
    fd = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ap = sk.a.copy()
            am = sk.a.copy()
            ap[i, j] += eps
            ap[j, i] -= eps
            am[i, j] -= eps
            am[j, i] += eps
            d_ij = (loss(ap) - loss(am)) / (2.0 * eps)
            fd[i, j] = d_ij
            fd[j, i] = -d_ij
    denom = max(float(np.max(np.abs(fd))), 1e-12)
    assert np.max(np.abs(analytic - fd)) / denom < 1e-6


def test_neumann_step_zero_delta():
    sk = SkewOrthogonal.create(8, seed=4)
    a0 = sk.a.copy()
    at0 = sk.a_tilde.copy()
    u0 = sk.u.copy()
    diag = sk.neumann_step(np.zeros((8, 8)))
    assert diag.contraction_norm == 0.0
    assert np.array_equal(sk.a, a0)
    assert np.array_equal(sk.a_tilde, at0)
    assert np.array_equal(sk.u, u0)


def test_neumann_step_rejects_non_skew_delta():
    sk = SkewOrthogonal.create(4, seed=4)
    bad = np.zeros((4, 4))
    bad[0, 1] = 1e-3
    with pytest.raises(ShapeError):
        sk.neumann_step(bad)
    # A non-finite step is a numeric failure (training aborts on it), not
    # a shape error.
    for step in (sk.neumann_step, sk.exact_step):
        with pytest.raises(NumericError):
            step(np.full((4, 4), np.nan))


def test_neumann_step_moves_a_opposite_to_delta():
    sk = SkewOrthogonal.create(6, seed=6)
    a0 = sk.a.copy()
    delta = 1e-3 * random_skew(6, seed=7)
    sk.neumann_step(delta)
    assert np.allclose(sk.a, a0 - delta)


def test_neumann_update_accuracy_small_step():
    """One order-2 step with a tiny delta keeps the cached inverse tight."""
    sk = SkewOrthogonal.create(16, seed=8, reset_every=0)
    delta = 1e-4 * random_skew(16, seed=9)
    e = sk.a_tilde @ delta
    diag = sk.neumann_step(delta)
    # The contraction diagnostic is the exact ||E||_2, not an estimate.
    want = np.linalg.svd(e, compute_uv=False)[0]
    assert abs(diag.contraction_norm - want) <= 1e-12 * want
    true_inv = exact_inverse(np.eye(16) + sk.a)
    # Order 2 leaves O(||E||^3) truncation error, about 6e-11 here.
    assert np.max(np.abs(sk.a_tilde - true_inv)) < 1e-9


def test_contraction_norm_exact_at_n256():
    """The monitor on a real n=256 E = Atil @ dA (an Adam step on a pulled
    back gradient) matches the SVD's top singular value."""
    sk = SkewOrthogonal.create(256, seed=30, reset_every=0)
    grad_u = np.random.default_rng(31).normal(size=(256, 256))
    delta = Optimizer("adam", lr=1e-3).step("a", sk.grad_pullback(grad_u))
    want = np.linalg.svd(sk.a_tilde @ delta, compute_uv=False)[0]
    diag = sk.neumann_step(delta)
    assert abs(diag.contraction_norm - want) <= 1e-13 * want


def test_neumann_order_law():
    """Inverse error after one order-p step scales like the (p+1)-th power."""
    n = 12
    base = 0.05 * random_skew(n, seed=10)
    scales = np.array([1.0, 0.5, 0.25, 0.125])
    for order in (1, 2, 3):
        errs = []
        for s in scales:
            sk = SkewOrthogonal.create(n, seed=11, neumann_order=order,
                                       reset_every=0)
            delta = s * base
            sk.neumann_step(delta)
            errs.append(spectral_norm(sk.a_tilde @ (np.eye(n) + sk.a) - np.eye(n)))
        slope = np.polyfit(np.log(scales), np.log(np.array(errs)), 1)[0]
        assert abs(slope - (order + 1)) < 0.3


def test_reset_cadence():
    sk = SkewOrthogonal.create(8, seed=12, reset_every=3)
    delta = 1e-3 * random_skew(8, seed=13)
    for k in range(1, 7):
        sk.neumann_step(delta)
        assert sk.steps_since_reset == (0 if k % 3 == 0 else k % 3)
    assert sk.step == 6


def test_reset_disabled_when_zero():
    sk = SkewOrthogonal.create(8, seed=12, reset_every=0)
    delta = 1e-3 * random_skew(8, seed=13)
    for _ in range(5):
        sk.neumann_step(delta)
    assert sk.steps_since_reset == 5


def test_reset_idempotent():
    sk = SkewOrthogonal.create(10, seed=14)
    sk.reset()
    at1 = sk.a_tilde.copy()
    u1 = sk.u.copy()
    sk.reset()
    assert np.max(np.abs(sk.a_tilde - at1)) < 1e-15
    assert np.max(np.abs(sk.u - u1)) < 1e-15


def test_drift_recovers_after_order1_soak():
    """200 coarse order-1 steps accumulate drift; one reset removes it."""
    n = 16
    sk = SkewOrthogonal.create(n, seed=15, neumann_order=1, reset_every=0)
    rng = np.random.default_rng(16)
    for _ in range(200):
        m = rng.normal(size=(n, n))
        delta = 2e-3 * (m - m.T) / 2.0
        sk.neumann_step(delta)
    drifted = sk.drift()
    assert drifted > 1e-10 * n
    sk.reset()
    assert sk.drift() < 1e-10 * n
    assert sk.drift() < drifted


def test_exact_step_has_no_truncation_error():
    n = 10
    sk = SkewOrthogonal.create(n, seed=17, reset_every=0)
    delta = 0.05 * random_skew(n, seed=18)
    diag = sk.exact_step(delta)
    assert diag.drift < 1e-10 * n
    true_inv = exact_inverse(np.eye(n) + sk.a)
    assert np.max(np.abs(sk.a_tilde - true_inv)) < 1e-11


def test_contraction_warning_logged(caplog):
    sk = SkewOrthogonal.create(4, seed=19, reset_every=0)
    # A huge delta drives ||Atil @ dA|| past 1.
    delta = 50.0 * random_skew(4, seed=20)
    with caplog.at_level("WARNING", logger="ncgru.orthocore"):
        diag = sk.neumann_step(delta)
    assert diag.contraction_norm >= 1.0
    assert any("contraction" in rec.message.lower() for rec in caplog.records)


def test_serialization_round_trip_bitwise():
    sk = SkewOrthogonal.create(9, seed=21, num_neg=4, neumann_order=3,
                               reset_every=7)
    delta = 1e-3 * random_skew(9, seed=22)
    for _ in range(3):
        sk.neumann_step(delta)
    blob = sk.to_dict()
    # The dict must survive JSON text round-tripping without precision loss.
    blob = json.loads(json.dumps(blob, default=encode))
    back = SkewOrthogonal.from_dict(blob)
    assert np.array_equal(back.a, sk.a)
    assert np.array_equal(back.d, sk.d)
    assert np.array_equal(back.a_tilde, sk.a_tilde)
    assert np.array_equal(back.u, sk.u)
    assert back.neumann_order == sk.neumann_order
    assert back.reset_every == sk.reset_every
    assert back.steps_since_reset == sk.steps_since_reset
    assert back.step == sk.step


@pytest.mark.parametrize("edit", [
    {"neumann_order": 7},
    {"reset_every": -3},
    {"d": [5.0, 1.0, 1.0, 1.0]},
    {"d": [1.0, -1.0, 1.0]},
    {"d": [1.0, -1.0, np.nan, 1.0]},
    {"a": [[0.0, np.nan, 0.0, 0.0]] * 4},
    {"a_tilde": np.eye(3).tolist()},
    {"a_tilde": np.full((4, 4), np.inf).tolist()},
])
def test_from_dict_rejects_corrupt_state(edit):
    blob = SkewOrthogonal.create(4, seed=25).to_dict()
    SkewOrthogonal.from_dict(blob)
    blob.update(edit)
    with pytest.raises(ShapeError):
        SkewOrthogonal.from_dict(blob)


@pytest.mark.parametrize("edit", [
    lambda b: b.pop("a_tilde"),
    lambda b: b.pop("step"),
    lambda b: b.update(a="x"),
    lambda b: b.update(step="x"),
    lambda b: b["a"].update(f8="@@@@"),
    lambda b: b["a"].update(f8=encode(np.zeros(15))["f8"]),  # 120 bytes for shape [4, 4]
    lambda b: b["a"].update(shape=[4, "4"]),
    lambda b: b["a"].update(shape=[-4, -4]),
    lambda b: b["d"].update(shape=[True] * 4),
], ids=["no_a_tilde", "no_step", "a_string", "step_string", "bad_base64",
        "byte_length", "string_shape", "negative_shape", "bool_shape"])
def test_from_dict_rejects_malformed_blob(edit):
    blob = json.loads(json.dumps(SkewOrthogonal.create(4, seed=25).to_dict(), default=encode))
    SkewOrthogonal.from_dict(blob)
    edit(blob)
    with pytest.raises(ContractError):
        SkewOrthogonal.from_dict(blob)


def test_skew_invariant_through_training_noise():
    """A stays skew to 1e-14 entrywise across many mixed steps."""
    sk = SkewOrthogonal.create(12, seed=23, reset_every=4)
    rng = np.random.default_rng(24)
    for _ in range(40):
        m = rng.normal(size=(12, 12))
        sk.neumann_step(1e-3 * (m - m.T) / 2.0)
        assert np.max(np.abs(sk.a + sk.a.T)) < 1e-14
        assert np.all(np.abs(sk.d) == 1.0)
