"""A-priori bound on the one-step state Jacobian of a gated cell, and
saturation sweeps that exercise its regimes.

For a step with gates r_t, u_t, previous state h_{t-1} and candidate c_t,
the spectral norm of J = d h_t / d h_{t-1} is bounded by

    ||J||_2 <= alpha + beta * ||U_c||_2

    alpha = delta_u * (max_i h_{t-1,i} + max_i c_{t,i}) * ||U_u||_2
            + max_i (1 - u_{t,i})
    beta  = max_i u_{t,i} * (delta_r * ||U_r||_2 * max_i h_{t-1,i}
            + max_i r_{t,i})

with delta_u = max_i u_{t,i}(1 - u_{t,i}) and delta_r likewise for r_t.
The maxima are signed (largest entry, not largest magnitude). Because the
gate factors never exceed 1/4 and a tanh candidate keeps |h|, |c| <= 1,
alpha + beta stays small whenever the gates saturate, and with orthogonal
recurrent weights (norm 1) the whole bound collapses to roughly 2 in the
worst mixed-saturation case and to roughly 1 in the single-regime cases.

compute_bound evaluates bound and measured norm at one cached step;
saturation_sweep drives the gates into a named regime by bias forcing and
aggregates reports over random states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cells import CellParams, StepCache, cell_forward, jacobian_h
from .errors import ContractError
from .linalg import spectral_norm

_REGIMES = ("mixed", "u_zero", "u_one_r_zero", "u_one_r_one")


@dataclass
class BoundReport:
    """One step's bound evaluation.

    slack = bound - measured; gate_saturation is the largest distance of
    any gate entry from {0, 1} (0 means fully saturated gates); near_kink
    mirrors the Jacobian's modReLU flag.
    """

    alpha: float
    beta: float
    delta_u: float
    delta_r: float
    norm_u_r: float
    norm_u_u: float
    norm_u_c: float
    bound: float
    measured: float
    slack: float
    gate_saturation: float
    near_kink: bool


def compute_bound(p: CellParams, cache: StepCache) -> BoundReport:
    """Evaluate the Jacobian bound and the measured norm at one step.

    The cache must hold one column (B = 1); jacobian_h rejects any other.
    All norms are exact (linalg.spectral_norm), so a negative slack is a
    real bound violation.
    """
    jac = jacobian_h(p, cache)
    h = cache.h_prev[:, 0]
    r = cache.r_t[:, 0]
    u = cache.u_t[:, 0]
    c = cache.c_t[:, 0]

    delta_u = float(np.max(u * (1.0 - u)))
    delta_r = float(np.max(r * (1.0 - r)))
    n_ur = spectral_norm(p.u_r)
    n_uu = spectral_norm(p.u_u)
    n_uc = spectral_norm(p.u_c)

    alpha = delta_u * (float(np.max(h)) + float(np.max(c))) * n_uu + float(np.max(1.0 - u))
    beta = float(np.max(u)) * (delta_r * n_ur * float(np.max(h)) + float(np.max(r)))
    bound = alpha + beta * n_uc

    measured = spectral_norm(jac.matrix)
    sat = float(max(np.max(np.minimum(r, 1.0 - r)), np.max(np.minimum(u, 1.0 - u))))
    return BoundReport(
        alpha=alpha, beta=beta, delta_u=delta_u, delta_r=delta_r,
        norm_u_r=n_ur, norm_u_u=n_uu, norm_u_c=n_uc,
        bound=bound, measured=measured, slack=bound - measured,
        gate_saturation=sat, near_kink=jac.near_kink,
    )


@dataclass
class SweepSummary:
    regime: str
    n_samples: int
    max_alpha: float
    max_beta: float
    max_alpha_plus_beta: float
    mean_alpha_plus_beta: float
    max_measured: float
    min_slack: float
    reports: list


def _forced_biases(regime: str, n: int, force: float, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    if regime == "u_zero":
        b_u = np.full(n, -force)
        b_r = rng.choice([-force, force], n)
    elif regime == "u_one_r_zero":
        b_u = np.full(n, force)
        b_r = np.full(n, -force)
    elif regime == "u_one_r_one":
        b_u = np.full(n, force)
        b_r = np.full(n, force)
    else:
        # mixed: both saturation directions present in each gate, placement random
        b_u = np.full(n, force)
        b_u[: n // 2] = -force
        rng.shuffle(b_u)
        b_r = np.full(n, force)
        b_r[: n // 2] = -force
        rng.shuffle(b_r)
    return b_u, b_r


def saturation_sweep(p: CellParams, regime: str, samples: int, seed: int,
                     force: float = 12.0) -> SweepSummary:
    """Evaluate the bound over random states with gates pushed into a regime.

    Gate biases are overwritten with +/-force (sigmoid(12) is within 1e-5
    of 1), so each gate entry saturates the way the regime prescribes:

        mixed          both gates saturated, signs mixed per entry
        u_zero         u_t near the zero vector
        u_one_r_zero   u_t near one, r_t near zero
        u_one_r_one    u_t near one, r_t near one

    Inputs and previous states are drawn uniformly from [-1, 1], matching
    the range a tanh candidate keeps the state in. The cell weights are
    taken from p as-is; only bias vectors are replaced.
    """
    if regime not in _REGIMES:
        raise ContractError(f"unknown regime {regime!r}, expected one of {_REGIMES}")
    if samples < 1:
        raise ContractError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(samples):
        b_u, b_r = _forced_biases(regime, p.n, force, rng)
        forced = replace(p, b_r=b_r, b_u=b_u)
        x = rng.uniform(-1.0, 1.0, (p.m, 1))
        h = rng.uniform(-1.0, 1.0, (p.n, 1))
        _, cache = cell_forward(forced, x, h)
        reports.append(compute_bound(forced, cache))
    ab = np.array([rep.alpha + rep.beta for rep in reports])
    return SweepSummary(
        regime=regime,
        n_samples=samples,
        max_alpha=max(rep.alpha for rep in reports),
        max_beta=max(rep.beta for rep in reports),
        max_alpha_plus_beta=float(np.max(ab)),
        mean_alpha_plus_beta=float(np.mean(ab)),
        max_measured=max(rep.measured for rep in reports),
        min_slack=min(rep.slack for rep in reports),
        reports=reports,
    )
