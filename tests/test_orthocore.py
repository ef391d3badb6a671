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
    diag = sk.neumann_step(delta, sample=True)
    # The contraction diagnostic is the ||E||_F certificate; the sampled
    # spectral_norm is the exact ||E||_2.
    want = np.linalg.svd(e, compute_uv=False)[0]
    assert diag.contraction_norm == np.linalg.norm(e)
    assert diag.contraction_norm >= want
    assert abs(diag.spectral_norm - want) <= 1e-12 * want
    true_inv = exact_inverse(np.eye(16) + sk.a)
    # Order 2 leaves O(||E||^3) truncation error, about 6e-11 here.
    assert np.max(np.abs(sk.a_tilde - true_inv)) < 1e-9


def test_contraction_norm_exact_at_n256():
    """On a real n=256 E = Atil @ dA (an Adam step on a pulled back
    gradient) the certificate is ||E||_F, above the SVD's top singular
    value, and a sampled step's spectral_norm matches that value."""
    sk = SkewOrthogonal.create(256, seed=30, reset_every=0)
    grad_u = np.random.default_rng(31).normal(size=(256, 256))
    delta = Optimizer("adam", lr=1e-3).step("a", sk.grad_pullback(grad_u))
    e = sk.a_tilde @ delta
    want = np.linalg.svd(e, compute_uv=False)[0]
    diag = sk.neumann_step(delta, sample=True)
    assert diag.contraction_norm == np.linalg.norm(e)
    assert diag.contraction_norm >= want
    assert abs(diag.spectral_norm - want) <= 1e-13 * want


def test_unsampled_step_skips_the_exact_norm():
    sk = SkewOrthogonal.create(16, seed=8)
    for step in (sk.neumann_step, sk.exact_step):
        diag = step(1e-4 * random_skew(16, seed=9))
        assert diag.spectral_norm is None
        assert 0.0 < diag.contraction_norm < 1.0


def test_certificate_at_one_falls_back_to_exact_norm():
    """||E||_F = 8 cannot certify, but ||E||_2 = 0.5 does: the step reports
    the exact value and applies the series."""
    n = 256
    sk = SkewOrthogonal(a=np.zeros((n, n)), d=np.ones(n), a_tilde=np.eye(n), reset_every=0)
    delta = np.kron(np.eye(n // 2), [[0.0, 0.5], [-0.5, 0.0]])
    assert np.linalg.norm(delta) == 8.0
    diag = sk.neumann_step(delta)
    assert abs(diag.contraction_norm - 0.5) < 1e-12
    assert diag.spectral_norm == diag.contraction_norm
    assert sk.steps_since_reset == 1


@pytest.mark.parametrize("kind", ["neumann_step", "exact_step"])
def test_overflowing_e_is_a_numeric_error(kind):
    """A finite skew delta whose E overflows aborts the step with
    NumericError instead of recording a NaN contraction."""
    n = 8
    upper = np.triu(np.full((n, n), 1.5e308), k=1)
    delta = upper - upper.T
    sk = SkewOrthogonal.create(n, seed=3)
    a0 = sk.a.copy()
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        getattr(sk, kind)(delta)
    assert np.array_equal(sk.a, a0)


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


def test_uncertified_step_reinverts():
    """A step whose ||E||_2 reaches 1 takes the exact inverse instead of
    the diverging series, also with periodic resets disabled."""
    n = 4
    sk = SkewOrthogonal.create(n, seed=19, reset_every=0)
    # A huge delta drives ||Atil @ dA|| past 1.
    diag = sk.neumann_step(50.0 * random_skew(n, seed=20))
    assert diag.contraction_norm >= 1.0
    assert diag.spectral_norm == diag.contraction_norm
    assert sk.steps_since_reset == 0
    assert _bits(sk.a_tilde) == _bits(exact_inverse(np.eye(n) + sk.a))
    assert diag.drift < 1e-10 * n


@pytest.mark.parametrize("sample", [False, True])
def test_neumann_step_resetting_every_step_is_exact_step(sample):
    """With reset_every=1 every Neumann step re-inverts, bit for bit as
    the exact arm."""
    n = 12
    neumann = SkewOrthogonal.create(n, seed=26, reset_every=1)
    exact = SkewOrthogonal.create(n, seed=26, reset_every=1)
    for k in range(5):
        delta = 1e-2 * random_skew(n, seed=27 + k)
        got, want = neumann.neumann_step(delta, sample), exact.exact_step(delta, sample)
        assert got == want
        for field in ("a", "a_tilde", "u"):
            assert _bits(getattr(neumann, field)) == _bits(getattr(exact, field)), field


def test_serialization_round_trip_bitwise():
    sk = SkewOrthogonal.create(9, seed=21, num_neg=4, neumann_order=3,
                               reset_every=7)
    delta = 1e-3 * random_skew(9, seed=22)
    for _ in range(3):
        sk.neumann_step(delta)
    blob = sk.to_dict()
    # The dict must survive JSON text round-tripping without precision loss.
    blob = json.loads(json.dumps(blob, default=encode))
    # d and the settings come from the state restored onto, as a checkpoint
    # takes them from its config; a, a_tilde and the counters from blob
    built = SkewOrthogonal.create(9, seed=0, num_neg=4, neumann_order=3, reset_every=7)
    back = built.restore(blob, step=sk.step)
    assert np.array_equal(back.a, sk.a)
    assert np.array_equal(back.d, sk.d)
    assert np.array_equal(back.a_tilde, sk.a_tilde)
    assert np.array_equal(back.u, sk.u)
    assert back.neumann_order == sk.neumann_order
    assert back.reset_every == sk.reset_every
    assert back.steps_since_reset == sk.steps_since_reset
    assert back.step == sk.step


def _skew_blob():
    return json.loads(json.dumps(SkewOrthogonal.create(4, seed=25).to_dict(), default=encode))


# the ids are those of the earlier, longer case list, so that results
# stay comparable across versions of the suite
@pytest.mark.parametrize("edit", [
    pytest.param({"a": encode(np.array([[0.0, np.nan, 0.0, 0.0]] * 4))}, id="edit5"),
    pytest.param({"a_tilde": encode(np.full((4, 4), np.inf))}, id="edit7"),
    pytest.param({"steps_since_reset": -100}, id="edit8"),
])
def test_from_dict_rejects_corrupt_state(edit):
    built = SkewOrthogonal.create(4, seed=0)
    blob = _skew_blob()
    built.restore(blob, step=0)
    blob.update(edit)
    with pytest.raises(ShapeError):
        built.restore(blob, step=0)


@pytest.mark.parametrize("counter,step,reset_every", [
    (5, 4, 50),   # more steps since the reset than steps
    (3, 4, 3),    # the reset at the third step zeroes it
    (9, 12, 7),
])
def test_restore_rejects_a_counter_the_step_cannot_leave(counter, step, reset_every):
    built = SkewOrthogonal.create(4, seed=0, reset_every=reset_every)
    blob = dict(_skew_blob(), steps_since_reset=counter)
    with pytest.raises(ContractError, match="cannot follow"):
        built.restore(blob, step=step)
    # resets off: the counter may reach step
    back = SkewOrthogonal.create(4, seed=0, reset_every=0).restore(blob, step=counter)
    assert back.steps_since_reset == back.step == counter


@pytest.mark.parametrize("edit", [
    lambda b: b.pop("a_tilde"),
    lambda b: b.update(a="x"),
    lambda b: b["a"].update(f8="@@@@"),
    lambda b: b["a"].update(f8=encode(np.zeros(15))["f8"]),  # 120 bytes for shape [4, 4]
    lambda b: b["a"].update(shape=[4, "4"]),
    lambda b: b["a"].update(shape=[-4, -4]),
    lambda b: b["a"].update(shape=[True] * 2),
    lambda b: b.update(steps_since_reset=2.9),
    lambda b: b.update(a_tilde=encode(np.eye(3))),             # the state is 4 x 4
], ids=["no_a_tilde", "a_string", "bad_base64", "byte_length", "string_shape",
        "negative_shape", "bool_shape", "steps_since_reset_float", "a_tilde_shape"])
def test_from_dict_rejects_malformed_blob(edit):
    built = SkewOrthogonal.create(4, seed=0)
    blob = _skew_blob()
    built.restore(blob, step=0)
    edit(blob)
    with pytest.raises(ContractError):
        built.restore(blob, step=0)


def test_skew_invariant_through_training_noise():
    """A stays skew to 1e-14 entrywise across many mixed steps."""
    sk = SkewOrthogonal.create(12, seed=23, reset_every=4)
    rng = np.random.default_rng(24)
    for _ in range(40):
        m = rng.normal(size=(12, 12))
        sk.neumann_step(1e-3 * (m - m.T) / 2.0)
        assert np.max(np.abs(sk.a + sk.a.T)) < 1e-14
        assert np.all(np.abs(sk.d) == 1.0)


def _product_u(sk):
    return sk.a_tilde @ ((np.eye(sk.n) - sk.a) * sk.d)


def _bits(m):
    return np.ascontiguousarray(m).tobytes()


def test_refresh_after_exact_inverse_is_elementwise_at_n256():
    """Right after an exact inverse, u is (2 Atil - I) D bit for bit,
    C-ordered, and agrees with the product Atil (I - A) D to rounding."""
    n = 256
    sk = SkewOrthogonal.create(n, seed=40, reset_every=0)
    sk.neumann_step(1e-4 * random_skew(n, seed=42))
    for advance in (sk.reset, lambda: sk.exact_step(1e-4 * random_skew(n, seed=43))):
        advance()
        assert sk.steps_since_reset == 0 < sk.step
        want = (2.0 * sk.a_tilde - np.eye(n)) * sk.d
        assert _bits(sk.u) == _bits(want)
        assert sk.u.flags.c_contiguous
        assert np.max(np.abs(sk.u - _product_u(sk))) < 1e-13
        assert sk.drift() < 1e-10 * n


def test_from_dict_rebuilds_u_after_an_exact_inverse():
    """A state saved right after exact_step, or right after a Neumann
    arm's periodic reset, loads with the same u bit for bit."""
    n = 12
    exact = SkewOrthogonal.create(n, seed=44)
    exact.exact_step(1e-3 * random_skew(n, seed=45))
    periodic = SkewOrthogonal.create(n, seed=44, reset_every=2)
    for k in range(2):
        periodic.neumann_step(1e-3 * random_skew(n, seed=46 + k))
    assert periodic.steps_since_reset == 0 < periodic.step
    for sk in (exact, periodic):
        blob = json.loads(json.dumps(sk.to_dict(), default=encode))
        back = SkewOrthogonal.create(n, seed=0, reset_every=sk.reset_every).restore(blob, sk.step)
        assert _bits(back.u) == _bits(sk.u)
        assert _bits(sk.u) == _bits((2.0 * sk.a_tilde - np.eye(n)) * sk.d)


def test_fresh_state_keeps_the_product():
    """Before the first step u is Atil (I - A) D, also after a reset."""
    sk = SkewOrthogonal.create(10, seed=47)
    assert _bits(sk.u) == _bits(_product_u(sk))
    sk.reset()
    assert _bits(sk.u) == _bits(_product_u(sk))


def test_certificate_survives_underflowing_squares():
    """Every entry of E near 1e-170 squares to 0; the certificate is still
    at least ||E||_2 and positive."""
    sk = SkewOrthogonal.create(4, seed=48, reset_every=0)
    delta = 1e-170 * random_skew(4, seed=49)
    e = sk.a_tilde @ delta
    assert np.linalg.norm(e) == 0.0
    diag = sk.neumann_step(delta, sample=True)
    assert diag.spectral_norm == spectral_norm(e)
    assert diag.contraction_norm >= diag.spectral_norm > 0.0
