"""Jacobian bound and saturation sweep tests."""

import numpy as np
import pytest

from ncgru.bounds import compute_bound, saturation_sweep
from ncgru.cells import CellParams, cell_forward, jacobian_h
from ncgru.errors import ContractError
from ncgru.linalg import spectral_norm
from ncgru.orthocore import SkewOrthogonal


def gru_with_scaled_weights(n, m, seed, scale=1.0):
    p = CellParams.init("gru", n, m, seed=seed)
    for name, arr in p.named_arrays():
        if name.startswith("u_"):
            arr *= scale
    return p


def test_delta_caps_at_quarter():
    # sigmoid gates satisfy u(1-u) <= 1/4 with equality at u = 1/2.
    p = CellParams.init("gru", 6, 4, seed=0)
    for name, arr in p.named_arrays():
        arr[:] = 0.0
    _, cache = cell_forward(p, np.zeros((4, 1)), np.zeros((6, 1)))
    rep = compute_bound(p, cache)
    assert rep.delta_u == 0.25
    assert rep.delta_r == 0.25


def test_delta_never_exceeds_quarter():
    rng = np.random.default_rng(1)
    p = CellParams.init("gru", 8, 5, seed=2)
    for _ in range(50):
        x = rng.normal(size=(5, 1)) * 4.0
        h = rng.uniform(-1.0, 1.0, (8, 1))
        _, cache = cell_forward(p, x, h)
        rep = compute_bound(p, cache)
        assert rep.delta_u <= 0.25
        assert rep.delta_r <= 0.25


def test_bound_dominates_measured_norm():
    """slack >= -1e-10 over random GRU states."""
    rng = np.random.default_rng(3)
    for trial in range(20):
        p = gru_with_scaled_weights(10, 4, seed=trial, scale=rng.uniform(0.5, 2.0))
        x = rng.normal(size=(4, 1))
        h = rng.uniform(-1.0, 1.0, (10, 1))
        _, cache = cell_forward(p, x, h)
        rep = compute_bound(p, cache)
        assert rep.slack >= -1e-10
        assert rep.bound == pytest.approx(rep.alpha + rep.beta * rep.norm_u_c)


def test_tanh_envelopes():
    """alpha <= ||U_u||/2 + 1 and beta <= ||U_r||/4 + 1 for tanh candidates."""
    rng = np.random.default_rng(4)
    for trial in range(30):
        p = gru_with_scaled_weights(8, 3, seed=200 + trial,
                                    scale=rng.uniform(0.5, 3.0))
        x = rng.normal(size=(3, 1)) * 2.0
        h = rng.uniform(-1.0, 1.0, (8, 1))
        _, cache = cell_forward(p, x, h)
        rep = compute_bound(p, cache)
        assert rep.alpha <= 0.5 * rep.norm_u_u + 1.0 + 1e-12
        assert rep.beta <= 0.25 * rep.norm_u_r + 1.0 + 1e-12


def test_compute_bound_rejects_batched_cache():
    p = CellParams.init("gru", 4, 3, seed=5)
    _, cache = cell_forward(p, np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ContractError):
        compute_bound(p, cache)
    _, one = cell_forward(p, np.zeros((3, 1)), np.zeros((4, 1)))
    assert compute_bound(p, one).slack >= -1e-10


def orthogonal_gru(n, m, seed):
    """GRU cell whose three recurrent weights are exactly orthogonal."""
    p = CellParams.init("gru", n, m, seed=seed)
    for i, name in enumerate(("u_r", "u_u", "u_c")):
        sk = SkewOrthogonal.create(n, seed=seed + 10 * i)
        setattr(p, name, sk.u.copy())
    return p


def test_sweep_mixed_regime_near_two():
    p = orthogonal_gru(12, 5, seed=6)
    summary = saturation_sweep(p, "mixed", samples=60, seed=7)
    assert summary.max_alpha_plus_beta <= 2.05
    assert summary.min_slack >= -1e-10
    assert summary.n_samples == 60


def test_sweep_whole_vector_regimes_near_one():
    p = orthogonal_gru(12, 5, seed=8)
    for regime in ("u_zero", "u_one_r_zero", "u_one_r_one"):
        summary = saturation_sweep(p, regime, samples=60, seed=9)
        assert summary.max_alpha_plus_beta <= 1.05, regime


def test_sweep_u_zero_bound_collapses_to_decay():
    # With u near 0 the step is almost the identity, measured norm near 1.
    # The cell equations allow at most 1 + 4 * delta_u above it here:
    # |c - h| <= 2, u <= delta_u / (1 - u) and U_* orthogonal.
    p = orthogonal_gru(10, 4, seed=10)
    summary = saturation_sweep(p, "u_zero", samples=30, seed=11)
    delta_u = max(rep.delta_u for rep in summary.reports)
    assert summary.max_measured <= 1.0 + 4.0 * delta_u


def test_sweep_tightens_with_saturation():
    """Stronger bias forcing cannot loosen the mixed-regime bound."""
    p = orthogonal_gru(12, 5, seed=12)
    maxima = [saturation_sweep(p, "mixed", samples=40, seed=13, force=f
                               ).max_alpha_plus_beta
              for f in (2.0, 6.0, 12.0)]
    assert maxima[0] >= maxima[1] >= maxima[2]
    assert maxima[2] <= 2.05


def test_sweep_unknown_regime_and_bad_samples():
    p = CellParams.init("gru", 4, 3, seed=14)
    with pytest.raises(ContractError):
        saturation_sweep(p, "chaos", samples=5, seed=0)
    with pytest.raises(ContractError):
        saturation_sweep(p, "mixed", samples=0, seed=0)


def test_sweep_does_not_mutate_params():
    p = CellParams.init("gru", 6, 3, seed=15)
    b_r0 = p.b_r.copy()
    b_u0 = p.b_u.copy()
    saturation_sweep(p, "mixed", samples=3, seed=16)
    assert np.array_equal(p.b_r, b_r0)
    assert np.array_equal(p.b_u, b_u0)


def test_ncgru_orthogonal_measured_norm_capped():
    """Orthogonal-weight modrelu cell: measured norm <= 2.05 when saturated."""
    p = CellParams.init("ncgru", 12, 5, seed=17)
    for i, name in enumerate(("u_r", "u_c")):
        sk = SkewOrthogonal.create(12, seed=30 + i)
        setattr(p, name, sk.u.copy())
    summary = saturation_sweep(p, "mixed", samples=60, seed=18)
    assert summary.max_measured <= 2.05


def test_measured_agrees_with_direct_spectral_norm():
    p = CellParams.init("gru", 7, 3, seed=21)
    rng = np.random.default_rng(22)
    _, cache = cell_forward(p, rng.normal(size=(3, 1)), rng.uniform(-1, 1, (7, 1)))
    rep = compute_bound(p, cache)
    direct = spectral_norm(jacobian_h(p, cache).matrix)
    assert abs(rep.measured - direct) < 1e-8
