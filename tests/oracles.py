"""Independent oracles used to derive expected values.

Everything here recomputes quantities from first principles (bisection,
golden-section search, dense grids, fixed-point scans) without touching the closed-form code paths
under test, so oracle agreement is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np

from weavelane.model import (
    CostCoefficients,
    FlowConfig,
    RampConfig,
    affine_reduce,
    eval_costs,
    social_cost,
)


def random_coeffs(rng: np.random.Generator) -> CostCoefficients:
    return CostCoefficients(*rng.uniform(0.1, 5.0, size=10))


def random_config(rng: np.random.Generator) -> RampConfig:
    flows = FlowConfig(*rng.dirichlet((1.0, 1.0, 1.0)))
    return RampConfig(flows, random_coeffs(rng))


def random_admissible_config(rng: np.random.Generator) -> RampConfig:
    from weavelane.social import admissible

    while True:
        cfg = random_config(rng)
        if admissible(cfg):
            return cfg


def bisect_equal_costs(cfg: RampConfig, tol: float = 1e-12) -> float:
    """Clamped root of j1s - j1b on [0, 1] by bisection.

    j1s - j1b is strictly increasing, so the equilibrium is 0 when the
    difference is already nonnegative at 0, and 1 when it is still
    nonpositive at 1.
    """
    aff = affine_reduce(cfg)

    def diff(x: float) -> float:
        costs = eval_costs(aff, x)
        return costs.j1s - costs.j1b

    if diff(0.0) >= 0.0:
        return 0.0
    if diff(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_argmin_social(cfg: RampConfig, step: float = 1e-6) -> tuple[float, float]:
    """Dense-grid minimizer of the social cost over x1s in [0, 1]."""
    aff = affine_reduce(cfg)
    n = cfg.flows
    xs = np.arange(0.0, 1.0 + step / 2.0, step)
    xb = 1.0 - xs
    j1s = aff.k1s * xs + aff.b1s
    j1b = aff.k1b * xb + aff.b1b
    j2s = aff.k2s * xb + aff.b2s
    j2e = aff.k2exit * xs + aff.b2exit
    j0e = aff.k0enter * xs + aff.b0enter
    total = xs * j1s + xb * j1b + n.n2_s * j2s + n.n2_exit * j2e + n.n0_enter * j0e
    i = int(np.argmin(total))
    return float(xs[i]), float(total[i])


def grid_best_leader(
    cfg: RampConfig, p: float, step: float = 1e-4
) -> tuple[float, float]:
    """Grid-minimize the social cost over q_s with the inner best response.

    The follower share is recomputed here from the bisection equilibrium
    target rather than the solver's best-response helper.
    """
    target = bisect_equal_costs(cfg)
    best_q, best_j = 0.0, float("inf")
    q = 0.0
    while q <= 1.0 + step / 2.0:
        x_hdv = min(1.0 - p, max(0.0, target - p * q))
        j = social_cost(cfg, min(1.0, p * q + x_hdv))
        if j < best_j:
            best_q, best_j = q, j
        q += step
    return best_q, best_j


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def search_best_leader(
    cfg: RampConfig, p: float, tol: float = 1e-10
) -> tuple[float, float, float]:
    """Leader optimum ``(q_s, x1s_total, j_soc)`` by search in share space.

    The follower share comes from the bisection equilibrium target, as in
    :func:`grid_best_leader`. The total share is continuous and
    nondecreasing in q_s, so a golden-section search of the social cost over
    the reachable shares finds the optimal share, and a bisection on q_s
    then finds a leader move that realizes it.
    """
    target = bisect_equal_costs(cfg)

    def total_share(q: float) -> float:
        return p * q + min(1.0 - p, max(0.0, target - p * q))

    def cost(x: float) -> float:
        return social_cost(cfg, min(1.0, x))

    lo, hi = total_share(0.0), total_share(1.0)
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = cost(c), cost(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = cost(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = cost(d)
    x_star = 0.5 * (lo + hi)

    if total_share(1.0) <= x_star:
        q = 1.0
    elif total_share(0.0) >= x_star:
        q = 0.0
    else:
        q_lo, q_hi = 0.0, 1.0
        while q_hi - q_lo > tol:
            mid = 0.5 * (q_lo + q_hi)
            if total_share(mid) < x_star:
                q_lo = mid
            else:
                q_hi = mid
        q = 0.5 * (q_lo + q_hi)
    x = min(1.0, total_share(q))
    return q, x, social_cost(cfg, x)


def fixed_point_scan(
    chis: list[float], weights: list[float], step: float = 1e-5
) -> float:
    """Scan for the aggregate share solving x = sum of upper-set weights.

    Uses only the thresholds and shares: the aggregate demand for steadfast
    at share x is the weight of all types whose threshold exceeds x (mixing
    types can absorb any remainder at their threshold). Returns the grid
    point with the smallest absolute mismatch.
    """
    xs = np.arange(0.0, 1.0 + step / 2.0, step)
    chi_arr = np.array(chis)
    w_arr = np.array(weights)
    demand_hi = (chi_arr[None, :] >= xs[:, None]) @ w_arr  # mixing allowed at chi
    demand_lo = (chi_arr[None, :] > xs[:, None]) @ w_arr
    # Feasible iff demand_lo <= x <= demand_hi; pick the minimal violation.
    violation = np.maximum(demand_lo - xs, 0.0) + np.maximum(xs - demand_hi, 0.0)
    return float(xs[int(np.argmin(violation))])
