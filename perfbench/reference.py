"""Frozen reference of the weaving-ramp model and the oracles the checks use.

Nothing here imports weavelane. The cost model is transcribed once from the
package as it stood when the benchmark was written, and every derived
quantity is found by search on that transcription (bisection for crossing
shares, parabolic interpolation or a dense grid for the social optimum, a
monotone bisection for typed equilibria). A later change to the package's
formulas therefore cannot move the reference with it.

Coefficients are plain dicts keyed like ``CostCoefficients`` fields; flows
are ``(n0_enter, n2_exit, n2_s)`` tuples; vehicle types are
``(vehicle_class, theta, weight)`` tuples.
"""

from __future__ import annotations

import math

COEFF_FIELDS = (
    "c1_t", "c2_t", "c1_m", "c2_m",
    "alpha", "beta", "omega", "gamma", "rho", "delta",
)
UNIT_FIELDS = COEFF_FIELDS[:4]
DEFAULTS = {
    "c1_t": 1.0, "c2_t": 1.0, "c1_m": 1.0, "c2_m": 1.0,
    "alpha": 1.255, "beta": 1.138, "omega": 1.0,
    "gamma": 2.384, "rho": 1.0, "delta": 3.094,
}


def affine(c: dict, n: tuple) -> dict:
    """Slopes and intercepts of the five behaviour costs."""
    n0, n2e, n2s = n
    return {
        "k1s": c["c1_t"] * c["alpha"] + c["c1_m"] * (c["omega"] * n2e + n0),
        "b1s": c["c1_t"] * (c["beta"] * n2e + n0),
        "k1b": c["c2_t"] * c["gamma"] + c["c2_m"] * (c["rho"] * n2s + c["delta"] * n2e),
        "b1b": c["c2_t"] * n2s,
        "k2s": c["c2_t"] * c["gamma"] + c["c2_m"] * n2s,
        "b2s": c["c2_t"] * n2s,
        "k2exit": c["c1_t"] * c["alpha"] + c["c1_m"] * (n0 + n2e) - c["c2_m"] * c["delta"] * n2e,
        "b2exit": c["c1_t"] * (c["beta"] * n2e + c["omega"] * n0) + c["c2_m"] * c["delta"] * n2e,
        "k0enter": c["c1_t"] * c["alpha"] + c["c1_m"] * (n0 + n2e),
        "b0enter": c["c1_t"] * (c["beta"] * n2e + c["omega"] * n0),
    }


def costs(a: dict, x: float) -> tuple:
    """(j1s, j1b, j2s, j2exit, j0enter) at steadfast share ``x`` (any real x)."""
    xb = 1.0 - x
    return (
        a["k1s"] * x + a["b1s"],
        a["k1b"] * xb + a["b1b"],
        a["k2s"] * xb + a["b2s"],
        a["k2exit"] * x + a["b2exit"],
        a["k0enter"] * x + a["b0enter"],
    )


def gap(a: dict, x: float) -> float:
    """j1s - j1b, strictly increasing in x when the slopes are not both 0."""
    j = costs(a, x)
    return j[0] - j[1]


def social(c: dict, n: tuple, x: float, a: dict | None = None) -> float:
    """Total delay: every behaviour cost weighted by its flow."""
    a = a or affine(c, n)
    n0, n2e, n2s = n
    j = costs(a, x)
    return x * j[0] + (1.0 - x) * j[1] + n2s * j[2] + n2e * j[3] + n0 * j[4]


def degenerate(c: dict, n: tuple) -> bool:
    a = affine(c, n)
    return a["k1s"] + a["k1b"] <= 0.0


def _bisect_increasing(f, lo: float, hi: float) -> float:
    """Root of an increasing function; widens the bracket until it holds."""
    for _ in range(64):
        if f(lo) > 0.0:
            lo, hi = lo - 2.0 * (hi - lo), lo
        elif f(hi) < 0.0:
            lo, hi = hi, hi + 2.0 * (hi - lo)
        else:
            break
    else:
        raise ValueError("no sign change: the function is not increasing")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phi(c: dict, n: tuple) -> float:
    """Unclamped crossing share of the two Lane-1 costs, by bisection."""
    a = affine(c, n)
    return _bisect_increasing(lambda x: gap(a, x), 0.0, 1.0)


def gamma(c: dict, n: tuple) -> float:
    """Unclamped minimiser of the social cost, by parabolic interpolation.

    The social cost is quadratic in x, so the vertex through three samples
    is exact up to rounding; only the weighted sum of costs is evaluated.
    """
    a = affine(c, n)
    f0, f1, f2 = (social(c, n, x, a) for x in (0.0, 0.5, 1.0))
    curv = f0 - 2.0 * f1 + f2  # equals a_quad / 2 for samples 0.5 apart
    return 0.5 - 0.25 * (f2 - f0) / curv


def grid_argmin_social(c: dict, n: tuple, step: float = 1e-6) -> float:
    """Dense-grid minimiser of the social cost over [0, 1] (uses numpy)."""
    import numpy as np

    a = affine(c, n)
    xs = np.arange(0.0, 1.0 + step / 2.0, step)
    n0, n2e, n2s = n
    xb = 1.0 - xs
    total = (
        xs * (a["k1s"] * xs + a["b1s"])
        + xb * (a["k1b"] * xb + a["b1b"])
        + n2s * (a["k2s"] * xb + a["b2s"])
        + n2e * (a["k2exit"] * xs + a["b2exit"])
        + n0 * (a["k0enter"] * xs + a["b0enter"])
    )
    return float(xs[int(np.argmin(total))])


def crossing(c: dict, n: tuple) -> float:
    """Phi in closed form. Only input generation uses it, for speed; the
    checks use the bisection in :func:`phi`."""
    a = affine(c, n)
    return (a["k1b"] + a["b1b"] - a["b1s"]) / (a["k1s"] + a["k1b"])


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def admissible_margin(c: dict, n: tuple, fast: bool = False) -> float:
    """Signed distance to the edge of 0 < Phi < Gamma < 1 (negative outside);
    ``fast`` takes Phi in closed form, for input generation."""
    if degenerate(c, n):
        return -1.0
    p, g = (crossing if fast else phi)(c, n), gamma(c, n)
    return min(p, g - p, 1.0 - g)


def bilevel(c: dict, n: tuple, p: float) -> tuple[float, float]:
    """Total steadfast share and social cost of dedicated CAV control at p.

    The achievable total share runs from the all-bypass leader allocation to
    the all-steadfast one; the convex social cost is minimised over it.
    """
    ph, g = phi(c, n), gamma(c, n)
    lo = min(1.0 - p, max(0.0, ph))
    hi = p + min(1.0 - p, max(0.0, ph - p))
    x = min(hi, max(lo, g))
    return x, social(c, n, x)


def regime(p: float, ph: float, g: float) -> str:
    if p <= ph or p == 0.0:
        return "Plateau"
    if p >= g:
        return "Optimal"
    return "Improving"


def blended_gap(c: dict, n: tuple, theta: float, x: float, a: dict | None = None) -> float:
    """Steadfast minus bypass cost of a type that weighs its own delay by
    cos(theta) and the marginal system delay of its strategy by sin(theta)."""
    a = a or affine(c, n)
    n0, n2e, n2s = n
    j1s, j1b = costs(a, x)[:2]
    own = j1s - j1b
    # Marginal delay of one more steadfast (bypass) vehicle: its own cost plus
    # the slope it adds to everyone sharing that cost.
    marg_s = j1s + x * a["k1s"] + n2e * a["k2exit"] + n0 * a["k0enter"]
    marg_b = j1b + (1.0 - x) * a["k1b"] + n2s * a["k2s"]
    return math.cos(theta) * own + math.sin(theta) * (marg_s - marg_b)


def chi(c: dict, n: tuple, theta: float) -> float:
    """Indifference share of a type, by bisection on its blended gap."""
    a = affine(c, n)
    return _bisect_increasing(lambda x: blended_gap(c, n, theta, x, a), 0.0, 1.0)


def type_shares(types: list, p: float) -> list[float]:
    return [(1.0 - p) * w if cls == "HDV" else p * w for cls, _, w in types]


def hetero_share(chis: list[float], shares: list[float]) -> float:
    """Aggregate steadfast share of the typed equilibrium.

    Types whose threshold exceeds the aggregate stay steadfast, so the
    equilibrium solves x = D(x) with D the weight above x; x - D(x) is
    increasing and jumps at each threshold, and bisection finds where it
    changes sign, which is a threshold when a type mixes.
    """

    def excess(x: float) -> float:
        return x - math.fsum(w for k, w in zip(chis, shares) if k > x)

    lo, hi = 0.0, 1.0
    if excess(lo) >= 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def residual(a: dict, x: float) -> float:
    d = gap(a, x)
    return x * max(0.0, d) + (1.0 - x) * max(0.0, -d)


def objective(c: dict, observations: list) -> float:
    """Sum of squared complementarity residuals; observations are (n, x)."""
    return math.fsum(residual(affine(c, n), x) ** 2 for n, x in observations)


def mper(c: dict, observations: list) -> float:
    errs = [abs(x - clamp01(phi(c, n))) / x for n, x in observations]
    return 100.0 * math.fsum(errs) / len(errs)
