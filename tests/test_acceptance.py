"""End-to-end acceptance checks.

Every test here pins one quantitative claim with the tolerance written
directly into its assertions, so `pytest -v tests/test_acceptance.py`
reads as a checklist. Tests marked slow are the desk-scale training runs
(minutes each); the rest complete in seconds.

One test is marked known_defect and fails by design: the all-steps drift
ceiling cannot hold at this learning rate because a first-order optimizer's
early updates have entry magnitude near lr itself, which puts the per-step
truncation error orders of magnitude above the ceiling. The assertion is
kept at its nominal value rather than widened to fit the measurement.
"""

import numpy as np
import pytest

from ncgru.bounds import compute_bound, saturation_sweep
from ncgru.cells import CellParams, cell_forward, jacobian_h
from ncgru.harness import (
    ExperimentConfig,
    read_metrics_csv,
    run_gradcheck,
    run_training,
)
from ncgru.linalg import fro_dist_identity, spectral_norm
from ncgru.optim import Optimizer
from ncgru.orthocore import SkewOrthogonal, cayley_transform, make_scaling
from ncgru.tasks import copying_baseline_xent, gen_copying, memoryless_copying_xent


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def drift_trajectory():
    """1000 incremental-update steps: order 2, n=64, Adam lr 1e-3,
    exact-inverse reset every 50 steps, unit-normal loss gradients."""
    n = 64
    sk = SkewOrthogonal.create(n, seed=0, neumann_order=2, reset_every=50)
    opt = Optimizer("adam", lr=1e-3)
    rng = np.random.default_rng(1)
    drifts = np.zeros(1000)
    post_reset = np.zeros(1000, dtype=bool)
    for k in range(1000):
        grad_a = sk.grad_pullback(rng.standard_normal((n, n)))
        delta = opt.step("a", grad_a)
        diag = sk.neumann_step(delta)
        drifts[k] = diag.drift
        post_reset[k] = sk.steps_since_reset == 0
    return drifts, post_reset


@pytest.fixture(scope="module")
def bound_ensemble():
    """1000 random GRU states at n=32 with the bound evaluated at each;
    the first 50 keep their params/state for finite-difference probing."""
    rng = np.random.default_rng(2024)
    reports = []
    fd_cases = []
    for i in range(1000):
        p = CellParams.init("gru", 32, 8, seed=int(rng.integers(0, 2**31)))
        scale = rng.uniform(0.5, 2.0)
        for name, arr in p.named_arrays():
            if name.startswith("u_"):
                arr *= scale
        x = rng.standard_normal((8, 1))
        h = rng.uniform(-1.0, 1.0, (32, 1))
        _, cache = cell_forward(p, x, h)
        reports.append(compute_bound(p, cache))
        if i < 50:
            fd_cases.append((p, x, h, cache))
    return reports, fd_cases


def _adding_config(reset_every, iterations=5000, eval_every=250):
    return ExperimentConfig.from_dict({
        "task": {"name": "adding", "T": 100},
        "model": {"variant": "NC-GRU", "hidden": 32, "ortho_set": ["u_c"],
                  "reset_every": reset_every},
        "optimizer": {"kind": "adam", "lr": 1e-3},
        "train": {"iterations": iterations, "batch_size": 50, "seed": 0,
                  "eval_every": eval_every, "eval_batch_size": 200},
    })


@pytest.fixture(scope="module")
def adding_runs(tmp_path_factory):
    """The desk-scale adding runs: resets on (every 50) and resets off."""
    runs = {}
    for label, reset in (("resets50", 50), ("resets0", 0)):
        out = tmp_path_factory.mktemp(f"adding_{label}")
        runs[label] = run_training(_adding_config(reset), out_dir=str(out))
    return runs


def _param_count(hidden, in_dim, out_dim, n_ortho=0):
    """Trainable scalars of one cell plus its linear readout. An orthogonal
    weight contributes its n(n-1)/2 skew entries instead of n^2 (the +/-1
    scaling is fixed); both variants carry three n-sized bias vectors."""
    n = hidden
    return (3 * n * in_dim + (3 - n_ortho) * n * n + n_ortho * (n * (n - 1) // 2)
            + 3 * n + out_dim * (n + 1))


@pytest.fixture(scope="module")
def parenthesis_runs(tmp_path_factory):
    """NC-GRU(u_r, u_c) hidden 48 vs plain GRU at a matched budget,
    identical seed and schedule."""
    in_dim, out_dim = 21, 11
    budget = _param_count(48, in_dim, out_dim, n_ortho=2)
    # smallest GRU hidden size whose parameter count reaches the budget
    gru_hidden = next(n for n in range(2, 4096) if _param_count(n, in_dim, out_dim) >= budget)

    def cfg(variant, hidden, ortho):
        model = {"variant": variant, "hidden": hidden}
        if ortho:
            model["ortho_set"] = ortho
        return ExperimentConfig.from_dict({
            "task": {"name": "parenthesis", "T": 100},
            "model": model,
            "optimizer": {"kind": "adam", "lr": 1e-3},
            "train": {"iterations": 3000, "batch_size": 16, "seed": 0,
                      "eval_every": 250, "eval_batch_size": 64},
        })

    runs = {}
    for label, variant, hidden, ortho in (
            ("ncgru", "NC-GRU", 48, ["u_r", "u_c"]),
            ("gru", "GRU", gru_hidden, None)):
        out = tmp_path_factory.mktemp(f"paren_{label}")
        runs[label] = run_training(cfg(variant, hidden, ortho), out_dir=str(out))
    runs["budgets"] = (budget, _param_count(gru_hidden, in_dim, out_dim), gru_hidden)
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_c01_cayley_orthogonality():
    """||U^T U - I||_F < 1e-10 * n for n in {2, 16, 64, 128}, 20 seeds."""
    for n in (2, 16, 64, 128):
        for seed in range(20):
            rng = np.random.default_rng(1000 * n + seed)
            m = rng.standard_normal((n, n))
            a = (m - m.T) / 2.0
            d = make_scaling(n, n // 2)
            u = cayley_transform(a, d)
            defect = fro_dist_identity(u)
            assert defect < 1e-10 * n, f"n={n} seed={seed}: defect {defect:.3e}"


def test_c02_gradient_pullback_vs_finite_differences():
    """Pullback to the skew parameters, 20 instances at n <= 8, rel err < 1e-6."""
    rep = run_gradcheck("cayley", seed=0, instances=20)
    assert len(rep.per_case) >= 20
    assert rep.max_rel_err < 1e-6, f"max rel err {rep.max_rel_err:.3e}"


def test_c03_bptt_vs_finite_differences():
    """Length-5 sequences, n=4, m=3, both cell variants, kink-free draws:
    every parameter gradient within rel err 1e-5."""
    rep = run_gradcheck("bptt", seed=0, instances=4)
    variants = {key.split("_", 1)[0] for key in rep.per_case}
    assert variants == {"gru", "ncgru"}
    assert rep.max_rel_err < 1e-5, f"max rel err {rep.max_rel_err:.3e}"


def test_c04_neumann_order_law():
    """Scaling the step by {1, 1/2, 1/4, 1/8} fits a log-log slope of
    p + 1 (within 0.3) for truncation orders p = 1, 2, 3."""
    n = 16
    rng = np.random.default_rng(4)
    m = rng.standard_normal((n, n))
    base = 0.04 * (m - m.T) / 2.0
    scales = np.array([1.0, 0.5, 0.25, 0.125])
    for order in (1, 2, 3):
        errs = []
        for s in scales:
            sk = SkewOrthogonal.create(n, seed=5, neumann_order=order,
                                       reset_every=0)
            sk.neumann_step(s * base)
            errs.append(spectral_norm(
                sk.a_tilde @ (np.eye(n) + sk.a) - np.eye(n)))
        slope = float(np.polyfit(np.log(scales), np.log(np.array(errs)), 1)[0])
        assert abs(slope - (order + 1)) < 0.3, f"order {order}: slope {slope:.3f}"


def test_c05_drift_below_ceiling_after_every_reset(drift_trajectory):
    """Immediately after each exact-inverse reset, drift < 1e-10 * n."""
    drifts, post_reset = drift_trajectory
    assert int(np.sum(post_reset)) == 20
    worst = float(np.max(drifts[post_reset]))
    assert worst < 1e-10 * 64, f"worst post-reset drift {worst:.3e}"


@pytest.mark.known_defect
def test_c05_drift_below_ceiling_at_all_steps(drift_trajectory):
    """Drift < 1e-6 at every one of the 1000 steps.

    This fails by design and documents a measured gap: Adam's first update
    has entry magnitude lr = 1e-3, so the order-2 truncation error lands
    near 1e-5 for n=64, ten times the ceiling, already at step one. Only
    the post-reset ceiling above is attainable at this learning rate.
    """
    drifts, _ = drift_trajectory
    worst = float(np.max(drifts))
    assert worst < 1e-6, (
        f"max drift over 1000 steps is {worst:.3e}, above the 1e-6 ceiling; "
        f"step-1 drift alone is {drifts[0]:.3e} because an Adam update with "
        f"lr 1e-3 perturbs every skew entry by about 1e-3"
    )


def test_c06_jacobian_bound_zero_violations(bound_ensemble):
    """measured ||J||_2 <= alpha + beta ||U_c||_2 + 1e-10 on 1000 states;
    analytic J agrees with finite differences entrywise on 50 of them."""
    reports, fd_cases = bound_ensemble
    assert len(reports) == 1000
    violations = [rep for rep in reports if rep.measured > rep.bound + 1e-10]
    assert not violations, f"{len(violations)} bound violations"

    eps = 1e-6
    worst_fd = 0.0
    for p, x, h, cache in fd_cases:
        jac = jacobian_h(p, cache).matrix
        fd = np.zeros_like(jac)
        for j in range(h.size):
            hp = h.copy()
            hm = h.copy()
            hp[j, 0] += eps
            hm[j, 0] -= eps
            fp, _ = cell_forward(p, x, hp)
            fm, _ = cell_forward(p, x, hm)
            fd[:, j] = (fp - fm)[:, 0] / (2.0 * eps)
        worst_fd = max(worst_fd, float(np.max(np.abs(jac - fd))))
    assert worst_fd < 1e-6, f"worst Jacobian entry error {worst_fd:.3e}"


def test_c07_corollary_envelopes_and_saturation(bound_ensemble):
    """Gate factors never pass 1/4; tanh envelopes hold to 1e-12; saturated
    sweeps stay under 2.05 (mixed) / 1.05 (whole-vector); a saturated
    orthogonal-weight modrelu cell measures <= 2.05."""
    reports, _ = bound_ensemble
    for rep in reports:
        assert rep.delta_u <= 0.25 and rep.delta_r <= 0.25
        assert rep.alpha <= 0.5 * rep.norm_u_u + 1.0 + 1e-12
        assert rep.beta <= 0.25 * rep.norm_u_r + 1.0 + 1e-12

    p = CellParams.init("gru", 16, 6, seed=70)
    for i, name in enumerate(("u_r", "u_u", "u_c")):
        setattr(p, name, SkewOrthogonal.create(16, seed=71 + i).u.copy())
    mixed = saturation_sweep(p, "mixed", samples=100, seed=72)
    assert mixed.max_alpha_plus_beta <= 2.05, mixed.max_alpha_plus_beta
    for regime in ("u_zero", "u_one_r_zero", "u_one_r_one"):
        summary = saturation_sweep(p, regime, samples=100, seed=73)
        assert summary.max_alpha_plus_beta <= 1.05, (regime, summary.max_alpha_plus_beta)

    pn = CellParams.init("ncgru", 16, 6, seed=74)
    for i, name in enumerate(("u_r", "u_c")):
        setattr(pn, name, SkewOrthogonal.create(16, seed=75 + i).u.copy())
    sat = saturation_sweep(pn, "mixed", samples=100, seed=76)
    assert sat.max_measured <= 2.05, sat.max_measured


def test_c08_copying_baseline_identity():
    """Memoryless cross-entropy equals 10 ln(8) / (T + 20) within 1% for
    T in {100, 1000} over 1e4 samples, and the T=1000 value is the familiar
    2.039e-2 plateau."""
    for T in (100, 1000):
        chunk_means = []
        for chunk in range(10):
            batch = gen_copying(T=T, batch=1000, seed=800 + chunk)
            chunk_means.append(memoryless_copying_xent(batch))
        measured = float(np.mean(chunk_means))
        want = copying_baseline_xent(T)
        assert abs(measured - want) / want < 0.01, (T, measured, want)
    assert abs(copying_baseline_xent(1000) - 2.039e-2) < 1e-4


@pytest.mark.slow
def test_c09_adding_converges_with_and_without_resets(adding_runs):
    """NC-GRU(u_c), T=100, hidden 32, 5000 iterations, batch 50: eval MSE
    under 0.05 (baseline 1/6) both with periodic resets and with resets
    disabled."""
    for label in ("resets50", "resets0"):
        run = adding_runs[label]
        assert run.status == "completed", label
        assert run.final_eval is not None
        assert run.final_eval < 0.05, f"{label}: eval MSE {run.final_eval:.4f}"
        assert run.final_eval < 1.0 / 6.0


@pytest.mark.slow
def test_c10_parenthesis_ncgru_not_worse_than_gru(parenthesis_runs):
    """Matched-budget comparison at identical seed: NC-GRU's final eval
    cross-entropy does not exceed the plain GRU's."""
    budget_nc, budget_gru, gru_hidden = parenthesis_runs["budgets"]
    assert gru_hidden == 42
    assert budget_gru >= budget_nc
    # The match is tight: one hidden unit fewer would undershoot.
    assert _param_count(gru_hidden - 1, 21, 11) < budget_nc
    nc = parenthesis_runs["ncgru"]
    gru = parenthesis_runs["gru"]
    assert nc.status == "completed" and gru.status == "completed"
    assert nc.final_eval <= gru.final_eval, (nc.final_eval, gru.final_eval)


@pytest.mark.slow
def test_c11_contraction_norm_stays_below_one(adding_runs):
    """Every contraction_norm recorded over the adding runs is under 1,
    read back from the metrics CSV."""
    for label in ("resets50", "resets0"):
        rows = read_metrics_csv(adding_runs[label].metrics_path)
        assert len(rows) == 5000
        norms = [row.contraction_norm for row in rows]
        assert all(v < 1.0 for v in norms), label
        # The column is genuinely populated, not defaulted to zero.
        assert max(norms) > 0.0


def test_c12_optimizers_preserve_skew_structure():
    """100 steps of each optimizer on skew gradients: the update stays
    skew to 1e-13 in max norm."""
    rng = np.random.default_rng(12)
    for kind in ("sgd", "rmsprop", "adam"):
        opt = Optimizer(kind, lr=1e-3)
        for _ in range(100):
            m = rng.standard_normal((16, 16))
            delta = opt.step("a", (m - m.T) / 2.0)
            asym = float(np.max(np.abs(delta + delta.T)))
            assert asym < 1e-13, f"{kind}: asymmetry {asym:.3e}"


def test_c13_metric_csvs_byte_identical(tmp_path):
    """Two executions of the same config and seed write byte-identical
    metrics CSVs."""
    cfg = _adding_config(50, iterations=40, eval_every=10)
    run_training(cfg, out_dir=str(tmp_path / "a"))
    run_training(cfg, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 41
