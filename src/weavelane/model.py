"""Core lane-choice cost model for a two-lane highway weaving ramp.

Lane-1 through traffic splits into a *steadfast* share ``x1s`` (stay in the
conflict lane) and a *bypass* share ``1 - x1s`` (change to Lane 2). Entering,
exiting, and Lane-2 through flows are exogenous and enter as normalized
ratios that live on the unit simplex. Every behavior cost is affine in
``x1s``, which makes the total system delay an explicit quadratic.

This module holds the shared value types, the affine reduction of the five
behavior costs, and the social-cost quadratic. All types are immutable and
all operations are pure functions, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DomainError, NegativeFlow, SimplexViolation

#: Acceptable deviation of the exogenous ratios from the unit simplex.
SIMPLEX_TOL = 1e-9

#: Tolerance for the penetration-split identities inside FlowDistribution.
SPLIT_TOL = 1e-12


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CostCoefficients:
    """Calibratable cost coefficients of the weaving ramp.

    ``c1_t``/``c2_t`` are unit traversing costs and ``c1_m``/``c2_m`` unit
    merging costs per lane, in dimensionless delay units. The six weights
    scale individual interaction terms relative to those units. Defaults are
    the calibrated values for the reference ramp; all fields must be finite
    and nonnegative.
    """

    c1_t: float = 1.0
    c2_t: float = 1.0
    c1_m: float = 1.0
    c2_m: float = 1.0
    alpha: float = 1.255
    beta: float = 1.138
    omega: float = 1.0
    gamma: float = 2.384
    rho: float = 1.0
    delta: float = 3.094

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            _require_finite(name, value)
            if value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        return {
            "c1_t": self.c1_t,
            "c2_t": self.c2_t,
            "c1_m": self.c1_m,
            "c2_m": self.c2_m,
            "alpha": self.alpha,
            "beta": self.beta,
            "omega": self.omega,
            "gamma": self.gamma,
            "rho": self.rho,
            "delta": self.delta,
        }

    def with_scaled_unit_costs(self, factor: float) -> "CostCoefficients":
        """Scale the four unit costs, leaving the interaction weights fixed.

        Every behavior cost is homogeneous of degree one in the unit costs,
        so this scales all delays by ``factor`` while equilibrium shares stay
        put. Scaling the weights as well would not have that property.
        """
        return CostCoefficients(
            c1_t=self.c1_t * factor,
            c2_t=self.c2_t * factor,
            c1_m=self.c1_m * factor,
            c2_m=self.c2_m * factor,
            alpha=self.alpha,
            beta=self.beta,
            omega=self.omega,
            gamma=self.gamma,
            rho=self.rho,
            delta=self.delta,
        )


@dataclass(frozen=True)
class FlowConfig:
    """Exogenous normalized flow ratios (entering, exiting, Lane-2 through).

    The three ratios are fractions of the total exogenous flow near Lane 1
    and must sum to one. Inputs are stored exactly as given; nothing is
    renormalized, so calibration datasets stay bit-reproducible.
    """

    n0_enter: float
    n2_exit: float
    n2_s: float

    def __post_init__(self) -> None:
        for name, value in (
            ("n0_enter", self.n0_enter),
            ("n2_exit", self.n2_exit),
            ("n2_s", self.n2_s),
        ):
            _require_finite(name, value)
            if value < 0.0:
                raise NegativeFlow(f"{name} must be nonnegative, got {value!r}")
        total = self.n0_enter + self.n2_exit + self.n2_s
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise SimplexViolation(
                f"flow ratios must sum to 1 (got {total!r}, deviation {total - 1.0:.3e})"
            )


@dataclass(frozen=True)
class RampConfig:
    """A weaving ramp configuration: exogenous flows plus cost coefficients."""

    flows: FlowConfig
    coeffs: CostCoefficients = CostCoefficients()


@dataclass(frozen=True)
class FlowDistribution:
    """Decomposition of the Lane-1 through flow by class and strategy.

    The CAV components sum to the penetration rate ``p`` and the HDV
    components to ``1 - p``. Aggregates ``x1s``/``x1b`` are derived.
    """

    x1s_cav: float
    x1b_cav: float
    x1s_hdv: float
    x1b_hdv: float
    p: float

    def __post_init__(self) -> None:
        for name, value in (
            ("x1s_cav", self.x1s_cav),
            ("x1b_cav", self.x1b_cav),
            ("x1s_hdv", self.x1s_hdv),
            ("x1b_hdv", self.x1b_hdv),
            ("p", self.p),
        ):
            _require_finite(name, value)
            if not -SPLIT_TOL <= value <= 1.0 + SPLIT_TOL:
                raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.x1s_cav + self.x1b_cav - self.p) > SPLIT_TOL:
            raise DomainError("CAV components must sum to the penetration rate p")
        if abs(self.x1s_hdv + self.x1b_hdv - (1.0 - self.p)) > SPLIT_TOL:
            raise DomainError("HDV components must sum to 1 - p")

    @property
    def x1s(self) -> float:
        """Total steadfast share of the Lane-1 through flow."""
        return self.x1s_cav + self.x1s_hdv

    @property
    def x1b(self) -> float:
        """Total bypass share of the Lane-1 through flow."""
        return self.x1b_cav + self.x1b_hdv

    @staticmethod
    def hdv_only(x1s: float) -> "FlowDistribution":
        """All-HDV distribution with the given steadfast share."""
        return FlowDistribution(0.0, 0.0, x1s, 1.0 - x1s, 0.0)


@dataclass(frozen=True)
class AffineCoefficients:
    """Slope/intercept form of the five behavior costs.

    The steadfast, exit, and enter costs are affine in ``x1s``; the bypass
    and Lane-2 through costs are affine in ``x1b = 1 - x1s``. The exit slope
    ``k2exit`` already folds the bypass-merge term through that substitution
    and can therefore be negative.
    """

    k1s: float
    b1s: float
    k1b: float
    b1b: float
    k2s: float
    b2s: float
    k2exit: float
    b2exit: float
    k0enter: float
    b0enter: float


class BehaviorCosts(NamedTuple):
    """Per-behavior delays at a given steadfast share."""

    j1s: float
    j1b: float
    j2s: float
    j2exit: float
    j0enter: float


@dataclass(frozen=True)
class SocialQuadratic:
    """Total system delay as ``a * x1s**2 + b * x1s + c``."""

    a: float
    b: float
    c: float

    def value(self, x1s: float) -> float:
        return (self.a * x1s + self.b) * x1s + self.c

    def derivative(self, x1s: float) -> float:
        return 2.0 * self.a * x1s + self.b

    def vertex(self) -> float:
        """Unconstrained minimizer ``-b / (2a)``; requires ``a != 0``."""
        return -self.b / (2.0 * self.a)


def affine_reduce(cfg: RampConfig) -> AffineCoefficients:
    """Collect each behavior cost into slope/intercept form.

    Terms in ``x1s`` (or ``x1b``) aggregate into the K slopes, constant terms
    into the B intercepts. The enter-flow term in the steadfast cost carries
    no omega weight while the exit cost weights it by omega; both follow the
    calibrated cost model literally, and the distinction only matters when
    omega is recalibrated away from one.
    """
    c = cfg.coeffs
    n = cfg.flows
    return AffineCoefficients(
        *_lane1_affine(c, n.n0_enter, n.n2_exit, n.n2_s),
        k2s=c.c2_t * c.gamma + c.c2_m * n.n2_s,
        b2s=c.c2_t * n.n2_s,
        k2exit=c.c1_t * c.alpha
        + c.c1_m * (n.n0_enter + n.n2_exit)
        - c.c2_m * c.delta * n.n2_exit,
        b2exit=c.c1_t * (c.beta * n.n2_exit + c.omega * n.n0_enter)
        + c.c2_m * c.delta * n.n2_exit,
        k0enter=c.c1_t * c.alpha + c.c1_m * (n.n0_enter + n.n2_exit),
        b0enter=c.c1_t * (c.beta * n.n2_exit + c.omega * n.n0_enter),
    )


def _lane1_affine(c: CostCoefficients, n0_enter, n2_exit, n2_s) -> tuple:
    """``(k1s, b1s, k1b, b1b)``; the flows may be floats or numpy arrays."""
    return (
        c.c1_t * c.alpha + c.c1_m * (c.omega * n2_exit + n0_enter),
        c.c1_t * (c.beta * n2_exit + n0_enter),
        c.c2_t * c.gamma + c.c2_m * (c.rho * n2_s + c.delta * n2_exit),
        c.c2_t * n2_s,
    )


def _check_share(x1s: float) -> None:
    if not 0.0 <= x1s <= 1.0:
        raise DomainError(f"steadfast share must lie in [0, 1], got {x1s!r}")


def penetration_grid(p_grid: Iterable[float]) -> list[float]:
    """A sweep grid as floats, checked nonempty, inside [0, 1] and strictly
    ascending; raises :class:`DomainError` at the first violation."""
    grid = [float(p) for p in p_grid]
    if len(grid) == 0:
        raise DomainError("penetration grid must be nonempty")
    prev = None
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"grid point {p!r} outside [0, 1]")
        if prev is not None and p <= prev:
            raise DomainError("penetration grid must be strictly ascending")
        prev = p
    return grid


def eval_costs(aff: AffineCoefficients, x1s: float) -> BehaviorCosts:
    """Evaluate all five behavior costs at a steadfast share."""
    _check_share(x1s)
    x1b = 1.0 - x1s
    return BehaviorCosts(
        j1s=aff.k1s * x1s + aff.b1s,
        j1b=aff.k1b * x1b + aff.b1b,
        j2s=aff.k2s * x1b + aff.b2s,
        j2exit=aff.k2exit * x1s + aff.b2exit,
        j0enter=aff.k0enter * x1s + aff.b0enter,
    )


def social_cost(cfg: RampConfig, x1s: float) -> float:
    """Total delay across all vehicles at a steadfast share.

    Sum of the behavior costs weighted by their flow magnitudes. Agrees with
    :func:`social_quadratic` evaluated at ``x1s`` to within accumulated
    rounding (about 1e-12 at unit-scale coefficients).
    """
    costs = eval_costs(affine_reduce(cfg), x1s)
    n = cfg.flows
    return (
        x1s * costs.j1s
        + (1.0 - x1s) * costs.j1b
        + n.n2_s * costs.j2s
        + n.n2_exit * costs.j2exit
        + n.n0_enter * costs.j0enter
    )


def social_quadratic(cfg: RampConfig) -> SocialQuadratic:
    """Expand the social cost into its quadratic coefficients in ``x1s``."""
    return social_quadratic_from_affine(affine_reduce(cfg), cfg.flows)


def social_quadratic_from_affine(aff: AffineCoefficients, n: FlowConfig) -> SocialQuadratic:
    """Social-cost quadratic from the reduced coefficients and the flows."""
    # Constant parts of the three exogenous costs survive the expansion.
    b_soc = n.n2_s * aff.b2s + n.n2_exit * aff.b2exit + n.n0_enter * aff.b0enter
    return SocialQuadratic(
        a=aff.k1s + aff.k1b,
        b=(
            -2.0 * aff.k1b
            + n.n2_exit * aff.k2exit
            + n.n0_enter * aff.k0enter
            + aff.b1s
            - n.n2_s * aff.k2s
            - aff.b1b
        ),
        c=aff.k1b + n.n2_s * aff.k2s + aff.b1b + b_soc,
    )
