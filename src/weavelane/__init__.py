"""Lane-choice equilibria and CAV control at highway weaving ramps.

The package computes the selfish lane-choice equilibrium of human-driven
vehicles on a weaving ramp, the socially optimal allocation, bilevel control
of dedicated altruistic CAVs with its penetration thresholds, heterogeneous
equilibria under social-value-orientation weighted costs with plateau
analysis, and coefficient calibration against observed lane-choice data.
"""

from .errors import (
    AngleOutOfRange, BoundsInfeasible, DatasetFormatError, DegenerateCosts,
    DistinctnessViolated, DomainError, EmptyDataset, MissingSection,
    NegativeFlow, NotAdmissible, ScenarioError, SimplexViolation,
    ToleranceNotMet, WeavelaneError, ZeroDenominator, ZeroObservedShare,
)
from .model import (
    AffineCoefficients, BehaviorCosts, CostCoefficients, FlowConfig,
    FlowDistribution, RampConfig, SocialQuadratic, affine_reduce,
    eval_costs, social_cost, social_quadratic,
)
from .scenario import (
    Scenario, SweepGrid, emit_scenario, load_scenario, parse_scenario_text,
    write_scenario,
)
from .social import SocialOptimum, admissible, gamma, solve_social_optimum, ue_so_gap
from .stackelberg import (
    Regime, StackelbergRow, StackelbergSolution, Thresholds, cav_cost,
    hdv_best_response, penetration_thresholds, solve_closed, solve_numeric,
    sweep_penetration,
)
from .svo import (
    CAV, HDV, HeteroEquilibrium, HeteroRow, PlateauInterval, Population,
    TypeAllocation, TypedAffine, VehicleType, check_heterogeneous, chi,
    plateau_free, plateau_intervals, population_shares, solve_heterogeneous,
    svo_transform, sweep_heterogeneous, type_thresholds,
)
from .wardrop import EquilibriumCase, HdvEquilibrium, check_wardrop, phi, solve_hdv

__version__ = "0.1.0"

# Calibration is the only part of the package that needs numpy, so its names
# resolve on first access (PEP 562): ``import weavelane`` and every other CLI
# subcommand do not load it.
_CALIBRATION_NAMES = (
    "CalibrationResult", "Observation", "calibrate", "count_satisfied",
    "equilibrium_residual", "load_dataset", "mper", "normalize_flows",
    "residual_objective", "save_dataset",
)


def __getattr__(name: str):
    if name in _CALIBRATION_NAMES:
        from . import calibration

        return getattr(calibration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_CALIBRATION_NAMES})


__all__ = [
    *_CALIBRATION_NAMES,
    # errors
    "AngleOutOfRange", "BoundsInfeasible", "DatasetFormatError", "DegenerateCosts",
    "DistinctnessViolated", "DomainError", "EmptyDataset", "MissingSection",
    "NegativeFlow", "NotAdmissible", "ScenarioError", "SimplexViolation",
    "ToleranceNotMet", "WeavelaneError", "ZeroDenominator", "ZeroObservedShare",
    # model
    "AffineCoefficients", "BehaviorCosts", "CostCoefficients", "FlowConfig",
    "FlowDistribution", "RampConfig", "SocialQuadratic", "affine_reduce",
    "eval_costs", "social_cost", "social_quadratic",
    # scenario
    "Scenario", "SweepGrid", "emit_scenario", "load_scenario", "parse_scenario_text",
    "write_scenario",
    # social
    "SocialOptimum", "admissible", "gamma", "solve_social_optimum", "ue_so_gap",
    # stackelberg
    "Regime", "StackelbergRow", "StackelbergSolution", "Thresholds", "cav_cost",
    "hdv_best_response", "penetration_thresholds", "solve_closed", "solve_numeric",
    "sweep_penetration",
    # svo
    "CAV", "HDV", "HeteroEquilibrium", "HeteroRow", "PlateauInterval", "Population",
    "TypeAllocation", "TypedAffine", "VehicleType", "check_heterogeneous", "chi",
    "plateau_free", "plateau_intervals", "population_shares", "solve_heterogeneous",
    "svo_transform", "sweep_heterogeneous", "type_thresholds",
    # wardrop
    "EquilibriumCase", "HdvEquilibrium", "check_wardrop", "phi", "solve_hdv",
]
