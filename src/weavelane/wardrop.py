"""Baseline selfish lane-choice equilibrium for human-driven vehicles.

With both Lane-1 costs affine in the steadfast share (one increasing, one
decreasing), the equilibrium is the clamped crossing point of the two lines.
The solver classifies the three cases (all bypass, interior mix, all
steadfast) and a separate verifier checks the complementarity conditions on
arbitrary candidate distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateCosts
from .model import AffineCoefficients, FlowDistribution, RampConfig, affine_reduce, eval_costs


class EquilibriumCase(str, Enum):
    """Which of the three equilibrium structures holds."""

    ALL_BYPASS = "AllBypass"
    INTERIOR = "Interior"
    ALL_STEADFAST = "AllSteadfast"

    def __str__(self) -> str:  # bare label for reports and CSV
        return self.value


@dataclass(frozen=True)
class HdvEquilibrium:
    """Solved selfish equilibrium: steadfast share, case, and the two costs."""

    x1s_star: float
    case_label: EquilibriumCase
    j1s: float
    j1b: float


def phi_from_affine(aff: AffineCoefficients) -> float:
    """Unclamped crossing point of the steadfast and bypass cost lines."""
    denom = aff.k1s + aff.k1b
    if denom <= 0.0:
        raise DegenerateCosts("k1s + k1b must be positive to locate the crossing")
    return (aff.k1b + aff.b1b - aff.b1s) / denom


def phi(cfg: RampConfig) -> float:
    """Steadfast share at which the two Lane-1 costs are equal.

    The value is not clamped: results outside [0, 1] signal that one strategy
    dominates over the whole range and callers interpret them as boundary
    cases. Raises :class:`DegenerateCosts` when both cost slopes vanish.
    """
    return phi_from_affine(affine_reduce(cfg))


def solve_hdv(cfg: RampConfig) -> HdvEquilibrium:
    """Solve the selfish HDV-only equilibrium in closed form.

    Clamps the cost-crossing share to [0, 1] and labels the case from the
    clamp direction; exact hits of 0 or 1 are labeled as the corresponding
    boundary case.
    """
    return hdv_from_affine(affine_reduce(cfg))


def hdv_from_affine(aff: AffineCoefficients) -> HdvEquilibrium:
    """The selfish equilibrium of :func:`solve_hdv` from reduced coefficients."""
    raw = phi_from_affine(aff)
    if raw <= 0.0:
        x1s, case = 0.0, EquilibriumCase.ALL_BYPASS
    elif raw >= 1.0:
        x1s, case = 1.0, EquilibriumCase.ALL_STEADFAST
    else:
        x1s, case = raw, EquilibriumCase.INTERIOR
    costs = eval_costs(aff, x1s)
    return HdvEquilibrium(x1s_star=x1s, case_label=case, j1s=costs.j1s, j1b=costs.j1b)


def check_wardrop(cfg: RampConfig, x: FlowDistribution, tol: float) -> bool:
    """Check the selfish complementarity conditions for the HDV components.

    Costs are evaluated at the combined (CAV + HDV) steadfast share, since
    HDVs respond to the total flow; only the HDV components enter the
    products. True iff both products are at most ``tol``.
    """
    costs = eval_costs(affine_reduce(cfg), x.x1s)
    diff = costs.j1s - costs.j1b
    return x.x1s_hdv * diff <= tol and x.x1b_hdv * (-diff) <= tol
