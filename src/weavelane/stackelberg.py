"""Bilevel control of dedicated altruistic CAVs over selfish HDVs.

A central command fixes the steadfast proportion ``q_s`` of the CAV share
``p`` of Lane-1 through traffic; HDVs then settle into the selfish
equilibrium given that allocation. Because the follower response is a scalar
clamp, the bilevel program collapses to minimizing the convex social cost
over the interval of total shares the leader can reach. Two solvers are
provided: the closed-form regime solution built from the two penetration
thresholds, which needs an ordered configuration, and a general-domain
solver that clamps the social vertex to the reachable interval on any
configuration and certifies the complementarity residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import DomainError, NotAdmissible, ToleranceNotMet
from .model import (
    AffineCoefficients,
    FlowConfig,
    RampConfig,
    affine_reduce,
    eval_costs,
    social_quadratic_from_affine,
)
from .social import _admissible_thresholds, gamma_from_affine
from .wardrop import phi, phi_from_affine

#: Complementarity residual bound certified by the numeric solver.
RESIDUAL_TOL = 1e-8


class Regime(str, Enum):
    """Penetration regime of the controlled system."""

    PLATEAU = "Plateau"
    IMPROVING = "Improving"
    OPTIMAL = "Optimal"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Thresholds:
    """Efficiency threshold ``p1`` and saturation threshold ``p2``."""

    p1: float
    p2: float


@dataclass(frozen=True)
class StackelbergSolution:
    """Leader-follower outcome at one penetration rate."""

    p: float
    q_s_star: float
    x1s_hdv: float
    x1s_total: float
    j_soc: float
    regime: Regime


@dataclass(frozen=True)
class SweepRecord:
    """One penetration-rate sample of a sweep.

    ``q_s`` and ``j_cav`` are filled by the dedicated-control sweep;
    ``active_type`` by the heterogeneous sweep. ``regime_label`` is the bare
    regime token written to CSV.
    """

    p: float
    x1s_total: float
    j_soc: float
    regime_label: str
    q_s: float | None = None
    j_cav: float | None = None
    active_type: str | None = None


def penetration_thresholds(cfg: RampConfig) -> Thresholds:
    """Compute the two penetration thresholds of an admissible configuration.

    ``p1`` is the selfish crossing share Phi and ``p2`` the social vertex
    Gamma, both from one affine reduction. Raises :class:`NotAdmissible`
    outside the 0 < Phi < Gamma < 1 set.
    """
    p1, p2 = _admissible_thresholds(affine_reduce(cfg), cfg.flows)
    return Thresholds(p1=p1, p2=p2)


def hdv_best_response(cfg: RampConfig, p: float, q_s: float) -> float:
    """Equilibrium HDV steadfast mass given the CAV allocation ``p * q_s``.

    The follower equilibrium places the total share at the cost crossing
    whenever the HDV mass can reach it, and clamps to [0, 1 - p] otherwise.
    """
    _check_penetration(p)
    if not 0.0 <= q_s <= 1.0:
        raise DomainError(f"q_s must lie in [0, 1], got {q_s!r}")
    return _follower_share(phi(cfg), p, q_s)


def _follower_share(phi_v: float, p: float, q_s: float) -> float:
    """HDV steadfast mass answering CAV steadfast mass ``p * q_s``."""
    return min(1.0 - p, max(0.0, phi_v - p * q_s))


def _check_penetration(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"penetration rate must lie in [0, 1], got {p!r}")


def _ordering_or_raise(aff: AffineCoefficients, n: FlowConfig) -> tuple[float, float]:
    """Phi and Gamma for configurations the closed form covers.

    Requires 0 < Phi < 1 and Phi < Gamma. Gamma >= 1 is allowed: the optimal
    regime is then empty inside [0, 1] and every p above p1 stays in the
    improving regime.
    """
    phi_v = phi_from_affine(aff)
    gamma_v = gamma_from_affine(aff, n)
    if not (0.0 < phi_v < 1.0 and phi_v < gamma_v):
        raise NotAdmissible(
            f"closed form requires 0 < Phi < 1 and Phi < Gamma, got "
            f"Phi={phi_v!r}, Gamma={gamma_v!r}"
        )
    return phi_v, gamma_v


def _classify(p: float, phi_v: float, gamma_v: float) -> Regime:
    if p <= phi_v or p == 0.0:
        return Regime.PLATEAU
    if p >= gamma_v:
        return Regime.OPTIMAL
    return Regime.IMPROVING


def _closed_point(
    p: float, phi_v: float, gamma_v: float
) -> tuple[float, float, float, Regime]:
    """``(q_s, x1s_hdv, x1s_total, regime)`` of the closed form at ``p``."""
    regime = _classify(p, phi_v, gamma_v)
    if regime is Regime.PLATEAU:
        q_s = 1.0 if p == 0.0 else min(1.0, phi_v / p)
        return q_s, phi_v - p * q_s, phi_v, regime
    if regime is Regime.IMPROVING:
        return 1.0, 0.0, p, regime
    x_total = min(1.0, gamma_v)
    return x_total / p, 0.0, x_total, regime


def solve_closed(cfg: RampConfig, p: float) -> StackelbergSolution:
    """Closed-form Stackelberg solution at penetration rate ``p``.

    On the plateau the leader sends every CAV steadfast and HDVs absorb the
    difference; in the improving regime the total share equals ``p``; at and
    beyond saturation the total share pins to the social vertex. The
    saturation boundary itself is labeled optimal since the cost already
    equals the optimum there.
    """
    _check_penetration(p)
    aff = affine_reduce(cfg)
    phi_v, gamma_v = _ordering_or_raise(aff, cfg.flows)
    quad = social_quadratic_from_affine(aff, cfg.flows)
    q_s, x_hdv, x_total, regime = _closed_point(p, phi_v, gamma_v)
    return StackelbergSolution(
        p=p,
        q_s_star=q_s,
        x1s_hdv=x_hdv,
        x1s_total=x_total,
        j_soc=quad.value(x_total),
        regime=regime,
    )


def solve_numeric(cfg: RampConfig, p: float) -> StackelbergSolution:
    """Solve the bilevel problem on any configuration and certify the result.

    The follower response is a clamp, so the total steadfast share is
    continuous and nondecreasing in ``q_s`` and covers the interval between
    its values at ``q_s = 0`` and ``q_s = 1``. Minimizing the social cost over
    ``q_s`` is therefore minimizing the strictly convex quadratic over that
    interval: the vertex Gamma clamped to it. The leader plays the largest
    ``q_s`` that reaches this share. Unlike :func:`solve_closed` this needs no
    threshold ordering. The returned solution certifies both complementarity
    residuals below :data:`RESIDUAL_TOL`, otherwise :class:`ToleranceNotMet`
    is raised.
    """
    _check_penetration(p)
    aff = affine_reduce(cfg)
    phi_v = phi_from_affine(aff)
    gamma_v = gamma_from_affine(aff, cfg.flows)
    quad = social_quadratic_from_affine(aff, cfg.flows)

    x_lo = _follower_share(phi_v, p, 0.0)
    x_hi = p + _follower_share(phi_v, p, 1.0)
    x_star = min(x_hi, max(x_lo, gamma_v))
    if x_star >= x_hi:
        q_star = 1.0
    elif x_star < phi_v:
        # Below the crossing every HDV that can is steadfast: 1 - p of them.
        q_star = (x_star - (1.0 - p)) / p
    else:
        q_star = min(1.0, x_star / p)

    x_hdv = _follower_share(phi_v, p, q_star)
    x_total = p * q_star + x_hdv
    costs = eval_costs(aff, x_total)
    diff = costs.j1s - costs.j1b
    h1 = x_hdv * max(0.0, diff)
    h2 = ((1.0 - p) - x_hdv) * max(0.0, -diff)
    if h1 > RESIDUAL_TOL or h2 > RESIDUAL_TOL:
        raise ToleranceNotMet(
            f"residuals h1={h1!r}, h2={h2!r} exceed {RESIDUAL_TOL}"
        )
    return StackelbergSolution(
        p=p,
        q_s_star=q_star,
        x1s_hdv=x_hdv,
        x1s_total=x_total,
        j_soc=quad.value(x_total),
        regime=_classify(p, phi_v, gamma_v),
    )


def cav_cost(cfg: RampConfig, solution: StackelbergSolution) -> float:
    """Aggregate CAV-side delay ``p * (j1s * x1s + j1b * x1b)`` at a solution."""
    return _cav_cost(affine_reduce(cfg), solution.p, solution.x1s_total)


def _cav_cost(aff: AffineCoefficients, p: float, x1s: float) -> float:
    costs = eval_costs(aff, x1s)
    return p * (costs.j1s * x1s + costs.j1b * (1.0 - x1s))


def _validate_grid(p_grid: Sequence[float]) -> None:
    if len(p_grid) == 0:
        raise DomainError("penetration grid must be nonempty")
    prev = None
    for p in p_grid:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"grid point {p!r} outside [0, 1]")
        if prev is not None and p <= prev:
            raise DomainError("penetration grid must be strictly ascending")
        prev = p


def sweep_penetration(cfg: RampConfig, p_grid: Iterable[float]) -> list[SweepRecord]:
    """Closed-form sweep over an ascending penetration grid.

    Phi, Gamma and the social quadratic depend on the configuration only,
    so they are derived once; each grid point is then the regime arithmetic
    of :func:`solve_closed`.
    """
    grid = [float(p) for p in p_grid]
    _validate_grid(grid)
    aff = affine_reduce(cfg)
    phi_v, gamma_v = _ordering_or_raise(aff, cfg.flows)
    quad = social_quadratic_from_affine(aff, cfg.flows)
    records = []
    for p in grid:
        q_s, _, x_total, regime = _closed_point(p, phi_v, gamma_v)
        records.append(
            SweepRecord(
                p=p,
                x1s_total=x_total,
                j_soc=quad.value(x_total),
                regime_label=regime.value,
                q_s=q_s,
                j_cav=_cav_cost(aff, p, x_total),
            )
        )
    return records
