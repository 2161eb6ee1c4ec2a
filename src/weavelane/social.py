"""Socially optimal steadfast share and the user-equilibrium gap.

The total delay is a strictly convex quadratic in the steadfast share
whenever the traversing and merging costs are positive, so the social
optimum is the clamped vertex. The admissibility predicate singles out
configurations where the selfish crossing sits strictly below the vertex
inside the open unit interval; the control results in
:mod:`weavelane.stackelberg` assume it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateCosts, NotAdmissible
from .model import (
    AffineCoefficients,
    FlowConfig,
    RampConfig,
    SocialQuadratic,
    affine_reduce,
    social_quadratic_from_affine,
)
from .wardrop import hdv_from_affine, phi_from_affine


@dataclass(frozen=True)
class SocialOptimum:
    """Minimizer of the total delay over the steadfast share."""

    x1s_so: float
    j_opt: float
    interior: bool


def gamma(cfg: RampConfig) -> float:
    """Unclamped vertex of the social-cost quadratic.

    Values outside [0, 1] mean the constrained optimum pins to a boundary.
    Raises :class:`DegenerateCosts` when the quadratic degenerates.
    """
    return gamma_from_affine(affine_reduce(cfg), cfg.flows)


def gamma_from_affine(aff: AffineCoefficients, n: FlowConfig) -> float:
    """The vertex of :func:`gamma` from reduced coefficients and flows."""
    denom = aff.k1s + aff.k1b
    if denom <= 0.0:
        raise DegenerateCosts("k1s + k1b must be positive to locate the vertex")
    return (
        2.0 * aff.k1b
        + aff.b1b
        - aff.b1s
        - n.n2_exit * aff.k2exit
        - n.n0_enter * aff.k0enter
        + n.n2_s * aff.k2s
    ) / (2.0 * denom)


def solve_social_optimum(cfg: RampConfig) -> SocialOptimum:
    """Minimize the total delay over steadfast shares in [0, 1]."""
    aff = affine_reduce(cfg)
    return _optimum(aff, cfg.flows, social_quadratic_from_affine(aff, cfg.flows))


def _optimum(
    aff: AffineCoefficients, n: FlowConfig, quad: SocialQuadratic
) -> SocialOptimum:
    if quad.a <= 0.0:
        # Degenerate quadratic: minimize the affine remainder on [0, 1].
        x = 0.0 if quad.b >= 0.0 else 1.0
        return SocialOptimum(x1s_so=x, j_opt=quad.value(x), interior=False)
    raw = gamma_from_affine(aff, n)
    x = min(1.0, max(0.0, raw))
    return SocialOptimum(x1s_so=x, j_opt=quad.value(x), interior=0.0 < raw < 1.0)


def ue_so_gap(cfg: RampConfig) -> tuple[float, float, float]:
    """Total delay at the selfish equilibrium, at the optimum, and their gap.

    The gap is nonnegative up to rounding: the selfish outcome can never beat
    the optimum of the same quadratic.
    """
    aff = affine_reduce(cfg)
    quad = social_quadratic_from_affine(aff, cfg.flows)
    j_ue = quad.value(hdv_from_affine(aff).x1s_star)
    opt = _optimum(aff, cfg.flows, quad)
    return j_ue, opt.j_opt, j_ue - opt.j_opt


def admissible(cfg: RampConfig) -> bool:
    """True iff the unclamped shares satisfy 0 < Phi < Gamma < 1.

    Inside this set the selfish crossing is interior, the optimum is
    interior, and the selfish share undershoots the optimum, which is the
    regime the penetration-threshold results are stated for.
    """
    try:
        _admissible_thresholds(affine_reduce(cfg), cfg.flows)
    except NotAdmissible:
        return False
    return True


def _admissible_thresholds(aff: AffineCoefficients, n: FlowConfig) -> tuple[float, float]:
    """``(Phi, Gamma)`` if 0 < Phi < Gamma < 1, else :class:`NotAdmissible`."""
    if aff.k1s + aff.k1b <= 0.0:
        raise NotAdmissible("degenerate costs cannot be admissible")
    phi_v = phi_from_affine(aff)
    gamma_v = gamma_from_affine(aff, n)
    if not 0.0 < phi_v < gamma_v < 1.0:
        raise NotAdmissible(
            f"thresholds require 0 < p1 < p2 < 1, got p1={phi_v!r}, p2={gamma_v!r}"
        )
    return phi_v, gamma_v
