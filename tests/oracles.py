"""Independent oracles used to derive expected values.

Everything here recomputes quantities from first principles (bisection,
golden-section search, dense grids, fixed-point scans, derivative-free
search, multistart SLSQP, scipy's nonnegative least squares) without
touching the closed-form code paths under test, so oracle agreement is
meaningful evidence.
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


_WEIGHTS = ("alpha", "beta", "omega", "gamma", "rho", "delta")


def multistart_fit(
    dataset: list, initial: CostCoefficients, bounds: dict[str, tuple[float, float]]
) -> float:
    """Least residual objective a multistart Nelder-Mead search finds.

    The unit costs stay pinned to ``initial``'s; the six weights range over
    ``bounds`` (one interval per weight). The three starts are ``initial``'s
    weights and two uniform draws from the box. The search only evaluates
    the public ``residual_objective``, so its result bounds the optimum from
    above independently of the exact fit.
    """
    from scipy.optimize import minimize

    from weavelane.calibration import residual_objective

    units = {f: getattr(initial, f) for f in ("c1_t", "c2_t", "c1_m", "c2_m")}
    lo = np.array([bounds[f][0] for f in _WEIGHTS])
    hi = np.array([bounds[f][1] for f in _WEIGHTS])

    def objective(w: np.ndarray) -> float:
        weights = dict(zip(_WEIGHTS, (float(v) for v in np.clip(w, lo, hi))))
        return residual_objective(dataset, CostCoefficients(**units, **weights))

    rng = np.random.default_rng(0)
    starts = [np.array([getattr(initial, f) for f in _WEIGHTS])]
    starts += [rng.uniform(lo, hi) for _ in range(2)]
    return min(
        float(
            minimize(
                objective,
                x0,
                method="Nelder-Mead",
                bounds=list(zip(lo, hi)),
                options={"maxfev": 1500, "xatol": 1e-10, "fatol": 1e-14},
            ).fun
        )
        for x0 in starts
    )


#: The unit cost each weight multiplies in the Lane-1 cost gap.
_WEIGHT_UNIT = {
    "alpha": "c1_t", "beta": "c1_t", "omega": "c1_m",
    "gamma": "c2_t", "rho": "c2_m", "delta": "c2_m",
}
_FREE_UNITS = ("c2_t", "c1_m", "c2_m")


def lifted_fit(
    dataset: list, initial: CostCoefficients, bounds: dict[str, tuple[float, float]]
) -> float:
    """Least residual objective SLSQP finds with free unit costs.

    ``c1_t`` stays at ``initial``'s. The variables are the other three unit
    costs and each weight times its unit cost, so a weight bound
    ``lo <= w <= hi`` is the linear constraint ``lo*c <= u <= hi*c``; unit
    costs range over ``bounds`` (default ``(0, 10)``). The three starts are
    ``initial`` and two uniform draws from the box. A point is mapped back
    with every coefficient clipped to its bounds (a weight whose unit cost
    is zero takes its lower bound) and scored only by the public
    ``residual_objective``, so the result is the objective of a feasible
    point and bounds the free optimum from above.
    """
    from scipy.optimize import minimize

    from weavelane.calibration import residual_objective

    box = {f: bounds.get(f, (0.0, 10.0)) for f in _FREE_UNITS + _WEIGHTS}

    def coeffs(v: np.ndarray) -> CostCoefficients:
        units = {"c1_t": initial.c1_t}
        units.update({f: min(max(x, box[f][0]), box[f][1]) for f, x in zip(_FREE_UNITS, v)})
        weights = {}
        for f, u in zip(_WEIGHTS, v[3:]):
            c, (lo, hi) = units[_WEIGHT_UNIT[f]], box[f]
            weights[f] = min(max(u / c, lo), hi) if c > 0.0 else lo
        return CostCoefficients(**units, **weights)

    def lift(c: CostCoefficients) -> np.ndarray:
        weights = [getattr(c, f) * getattr(c, _WEIGHT_UNIT[f]) for f in _WEIGHTS]
        return np.array([getattr(c, f) for f in _FREE_UNITS] + weights)

    def cone(v: np.ndarray) -> np.ndarray:
        units = {"c1_t": initial.c1_t, **dict(zip(_FREE_UNITS, v))}
        rows = []
        for f, u in zip(_WEIGHTS, v[3:]):
            c, (lo, hi) = units[_WEIGHT_UNIT[f]], box[f]
            rows += [u - lo * c, hi * c - u]
        return np.array(rows)

    rng = np.random.default_rng(0)
    draws = [
        CostCoefficients(c1_t=initial.c1_t, **{f: rng.uniform(*box[f]) for f in box})
        for _ in range(2)
    ]
    return min(
        residual_objective(
            dataset,
            coeffs(
                minimize(
                    lambda v: residual_objective(dataset, coeffs(v)),
                    lift(start),
                    method="SLSQP",
                    bounds=[box[f] for f in _FREE_UNITS] + [(0.0, None)] * 6,
                    constraints={"type": "ineq", "fun": cone},
                    options={"maxiter": 100, "ftol": 1e-15},
                ).x
            ),
        )
        for start in [initial] + draws
    )


def nnls_objective(m: np.ndarray, r: np.ndarray) -> float:
    """Least ``|m x + r|**2`` over ``x >= 0``, by scipy's Lawson-Hanson NNLS."""
    from scipy.optimize import nnls

    x = nnls(m, -r)[0]
    return float(np.sum((m @ x + r) ** 2))


def slsqp_objective(
    m: np.ndarray, r: np.ndarray, g: np.ndarray, h: np.ndarray, starts: list, tol: float
) -> float:
    """Least ``|m z + r|**2`` SLSQP finds over ``G z <= h`` from each start.

    A result counts only if no row is violated by more than ``tol``; the
    first start must be feasible, and its own objective always counts, so
    the result bounds the optimum from above (up to ``tol``).
    """
    from scipy.optimize import minimize

    def objective(z: np.ndarray) -> float:
        return float(np.sum((m @ z + r) ** 2))

    best = objective(starts[0])
    for start in starts:
        z = minimize(
            objective,
            start,
            jac=lambda z: 2.0 * (m.T @ (m @ z + r)),
            method="SLSQP",
            constraints={"type": "ineq", "fun": lambda z: h - g @ z, "jac": lambda z: -g},
            options={"ftol": 1e-15, "maxiter": 1000},
        ).x
        if np.all(g @ z - h <= tol):
            best = min(best, objective(z))
    return best
