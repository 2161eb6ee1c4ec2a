"""Fit cost coefficients to observed lane-choice data.

An observation pairs an exogenous flow mix with the steadfast share the
traffic settled on. A coefficient vector explains an observation when the
selfish complementarity conditions hold there, so the fit minimizes the sum
of squared complementarity residuals over the dataset with a bounded
derivative-free simplex search. Unit traversing/merging costs are pinned to
their reference values by default, which removes the scale invariance of the
equilibrium (scaling every coefficient leaves the crossing share unchanged).
Fit quality is scored with the mean prediction error rate (MPER): the mean
absolute relative error between observed and model-predicted steadfast
shares, as a percentage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import Bounds, minimize

from .errors import (
    BoundsInfeasible,
    DatasetFormatError,
    DegenerateCosts,
    DomainError,
    EmptyDataset,
    NegativeFlow,
    ZeroDenominator,
    ZeroObservedShare,
)
from .model import (
    CostCoefficients,
    FlowConfig,
    RampConfig,
    _lane1_affine,
    affine_reduce,
    eval_costs,
)

_RAW_HEADER = ("f0_enter", "f2_exit", "f2_s", "f1_s", "f1_b")
_NORMALIZED_HEADER = ("n0_enter", "n2_exit", "n2_s", "x1s")

_WEIGHT_FIELDS = ("alpha", "beta", "omega", "gamma", "rho", "delta")
_UNIT_FIELDS = ("c1_t", "c2_t", "c1_m", "c2_m")

#: Default box for every free coefficient.
DEFAULT_BOUNDS = (0.0, 10.0)

#: Residual below which an observation counts as satisfied exactly.
SATISFIED_TOL = 1e-6


@dataclass(frozen=True)
class Observation:
    """One equilibrium snapshot: exogenous mix plus observed steadfast share."""

    flows: FlowConfig
    x1s_observed: float
    source: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.x1s_observed <= 1.0:
            raise DomainError(
                f"observed steadfast share must lie in [0, 1], got {self.x1s_observed!r}"
            )


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted coefficients with the residual objective and quality scores."""

    coeffs: CostCoefficients
    objective: float
    mper: float
    iterations: int
    converged: bool


def normalize_flows(
    f0_enter: float, f2_exit: float, f2_s: float, f1_s: float, f1_b: float
) -> tuple[FlowConfig, float]:
    """Convert raw hourly counts to normalized ratios and a steadfast share."""
    for name, value in (
        ("f0_enter", f0_enter),
        ("f2_exit", f2_exit),
        ("f2_s", f2_s),
        ("f1_s", f1_s),
        ("f1_b", f1_b),
    ):
        if value < 0.0:
            raise NegativeFlow(f"{name} must be nonnegative, got {value!r}")
    exogenous = f0_enter + f2_exit + f2_s
    through = f1_s + f1_b
    if exogenous <= 0.0:
        raise ZeroDenominator("exogenous flows sum to zero")
    if through <= 0.0:
        raise ZeroDenominator("Lane-1 through flows sum to zero")
    flows = FlowConfig(f0_enter / exogenous, f2_exit / exogenous, f2_s / exogenous)
    return flows, f1_s / through


def equilibrium_residual(cfg: RampConfig, x1s: float) -> float:
    """Complementarity residual of a candidate share; zero iff in equilibrium."""
    costs = eval_costs(affine_reduce(cfg), x1s)
    diff = costs.j1s - costs.j1b
    return x1s * max(0.0, diff) + (1.0 - x1s) * max(0.0, -diff)


class _DatasetArrays:
    """Column view of a dataset for vectorized residual evaluation."""

    def __init__(self, dataset: Sequence[Observation]):
        self.n0 = np.array([o.flows.n0_enter for o in dataset])
        self.n2e = np.array([o.flows.n2_exit for o in dataset])
        self.n2s = np.array([o.flows.n2_s for o in dataset])
        self.x = np.array([o.x1s_observed for o in dataset])

    def cost_diff(self, c: CostCoefficients) -> np.ndarray:
        """j1s - j1b at each observed share."""
        k1s, b1s, k1b, b1b = _lane1_affine(c, self.n0, self.n2e, self.n2s)
        return (k1s * self.x + b1s) - (k1b * (1.0 - self.x) + b1b)

    def residuals(self, c: CostCoefficients) -> np.ndarray:
        diff = self.cost_diff(c)
        return np.where(diff > 0.0, self.x * diff, -(1.0 - self.x) * diff)

    def predicted_share(self, c: CostCoefficients) -> np.ndarray:
        k1s, b1s, k1b, b1b = _lane1_affine(c, self.n0, self.n2e, self.n2s)
        denom = k1s + k1b
        if np.any(denom <= 0.0):
            raise DegenerateCosts("k1s + k1b must be positive to locate the crossing")
        return np.clip((k1b + b1b - b1s) / denom, 0.0, 1.0)


def residual_objective(dataset: Sequence[Observation], coeffs: CostCoefficients) -> float:
    """Sum of squared complementarity residuals over the dataset."""
    if not dataset:
        raise EmptyDataset("dataset must contain at least one observation")
    res = _DatasetArrays(dataset).residuals(coeffs)
    return float(np.dot(res, res))


def count_satisfied(
    dataset: Sequence[Observation],
    coeffs: CostCoefficients,
    tol: float = SATISFIED_TOL,
) -> int:
    """How many observations the coefficients explain within ``tol``."""
    if not dataset:
        raise EmptyDataset("dataset must contain at least one observation")
    return int(np.count_nonzero(_DatasetArrays(dataset).residuals(coeffs) <= tol))


def mper(dataset: Sequence[Observation], coeffs: CostCoefficients) -> float:
    """Mean prediction error rate between observed and predicted shares.

    Raises :class:`ZeroObservedShare` when an observed share is zero, then
    :class:`DegenerateCosts` when the coefficients give some observation
    vanishing Lane-1 cost slopes, where no share is predicted.
    """
    if not dataset:
        raise EmptyDataset("dataset must contain at least one observation")
    arrays = _DatasetArrays(dataset)
    if np.any(arrays.x == 0.0):
        raise ZeroObservedShare("MPER is undefined when an observed share is zero")
    predicted = arrays.predicted_share(coeffs)
    return float(np.mean(np.abs((arrays.x - predicted) / arrays.x)) * 100.0)


def _resolve_bounds(
    fields: Sequence[str], bounds: Mapping[str, tuple[float, float]] | None
) -> tuple[np.ndarray, np.ndarray]:
    bounds = dict(bounds or {})
    unknown = set(bounds) - set(_WEIGHT_FIELDS) - set(_UNIT_FIELDS)
    if unknown:
        raise BoundsInfeasible(f"bounds given for unknown fields: {sorted(unknown)}")
    lo = np.empty(len(fields))
    hi = np.empty(len(fields))
    for i, field in enumerate(fields):
        lo[i], hi[i] = bounds.get(field, DEFAULT_BOUNDS)
        if lo[i] < 0.0:
            raise BoundsInfeasible(f"lower bound of {field} must be nonnegative")
        if lo[i] > hi[i]:
            raise BoundsInfeasible(f"empty bound interval for {field}")
    return lo, hi


def calibrate(
    dataset: Sequence[Observation],
    initial: CostCoefficients = CostCoefficients(),
    bounds: Mapping[str, tuple[float, float]] | None = None,
    budget: int = 24000,
    seed: int = 0,
    pin_unit_costs: bool = True,
) -> CalibrationResult:
    """Fit the interaction weights to a dataset of equilibrium observations.

    Minimizes the squared-residual objective with a bounded Nelder-Mead
    search restarted from the incumbent plus three jittered starts per cycle;
    cycles repeat until a full cycle improves the objective by less than
    1e-10 (converged) or ``budget`` function evaluations are spent. The
    search is deterministic for a fixed ``seed``. Unit costs stay pinned to
    their values in ``initial`` unless ``pin_unit_costs`` is false.

    Equilibrium data carry an exact blind spot: shifting (beta, omega,
    delta) along the direction that cancels inside the Lane-1 cost gap
    leaves every residual and every predicted share unchanged, so those
    three weights are only identified up to one degree of freedom. The
    returned coefficients are the representative on that flat ray whose
    omega matches ``initial`` (clipped to the bounds), which makes noiseless
    recovery well-posed without touching the objective.
    """
    if not dataset:
        raise EmptyDataset("dataset must contain at least one observation")
    if budget <= 0:
        raise DomainError(f"budget must be positive, got {budget!r}")
    fields = _WEIGHT_FIELDS if pin_unit_costs else _UNIT_FIELDS + _WEIGHT_FIELDS
    lo, hi = _resolve_bounds(fields, bounds)
    initial_map = initial.as_dict()
    x0 = np.array([initial_map[f] for f in fields])
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise BoundsInfeasible("initial coefficients lie outside the bounds")

    arrays = _DatasetArrays(dataset)
    pinned = {f: initial_map[f] for f in _UNIT_FIELDS} if pin_unit_costs else {}

    def build(vector: np.ndarray) -> CostCoefficients:
        values = dict(pinned)
        values.update(zip(fields, (float(v) for v in vector)))
        return CostCoefficients(**values)

    def objective(vector: np.ndarray) -> float:
        res = arrays.residuals(build(np.clip(vector, lo, hi)))
        return float(np.dot(res, res))

    rng = np.random.default_rng(seed)
    best_x = x0.copy()
    best_f = objective(best_x)
    evaluations = 1
    converged = False
    per_start = max(200, budget // 8)
    while evaluations < budget:
        cycle_start_f = best_f
        starts = [best_x]
        for _ in range(3):
            jitter = best_x * (1.0 + 0.15 * rng.standard_normal(len(fields)))
            jitter += 0.05 * rng.standard_normal(len(fields))
            starts.append(np.clip(jitter, lo, hi))
        for start in starts:
            remaining = budget - evaluations
            if remaining <= 0:
                break
            result = minimize(
                objective,
                start,
                method="Nelder-Mead",
                bounds=Bounds(lo, hi),
                options={
                    "maxfev": min(per_start, remaining),
                    "xatol": 1e-10,
                    "fatol": 1e-14,
                },
            )
            evaluations += result.nfev
            if result.fun < best_f:
                best_f = float(result.fun)
                best_x = np.asarray(result.x)
        if cycle_start_f - best_f < 1e-10:
            converged = True
            break

    coeffs = _fix_gauge(build(best_x), initial.omega, fields, lo, hi)
    best_f = float(np.dot(arrays.residuals(coeffs), arrays.residuals(coeffs)))
    try:
        score = mper(dataset, coeffs)
    except (ZeroObservedShare, DegenerateCosts):
        score = math.nan
    return CalibrationResult(
        coeffs=coeffs,
        objective=best_f,
        mper=score,
        iterations=evaluations,
        converged=converged,
    )


def _fix_gauge(
    coeffs: CostCoefficients,
    omega_ref: float,
    fields: Sequence[str],
    lo: np.ndarray,
    hi: np.ndarray,
) -> CostCoefficients:
    """Pick the flat-ray representative whose omega matches the reference.

    The shift (beta, omega, delta) -> (beta + rb*s, omega - rw*s, delta + s)
    with rb = c2_m/c1_t and rw = c2_m/c1_m cancels exactly inside
    j1s - j1b, so it never changes residuals or predictions. The shift is
    clipped so all three weights stay inside their bounds.
    """
    if coeffs.c1_t <= 0.0 or coeffs.c1_m <= 0.0 or coeffs.c2_m <= 0.0:
        return coeffs
    rb = coeffs.c2_m / coeffs.c1_t
    rw = coeffs.c2_m / coeffs.c1_m
    bound = {f: (lo[i], hi[i]) for i, f in enumerate(fields)}
    s = (coeffs.omega - omega_ref) / rw
    s_lo = max(
        (bound["beta"][0] - coeffs.beta) / rb,
        (coeffs.omega - bound["omega"][1]) / rw,
        bound["delta"][0] - coeffs.delta,
    )
    s_hi = min(
        (bound["beta"][1] - coeffs.beta) / rb,
        (coeffs.omega - bound["omega"][0]) / rw,
        bound["delta"][1] - coeffs.delta,
    )
    s = min(max(s, s_lo), s_hi)
    if s == 0.0:
        return coeffs
    values = coeffs.as_dict()
    values["beta"] = coeffs.beta + rb * s
    values["omega"] = coeffs.omega - rw * s
    values["delta"] = coeffs.delta + s
    return CostCoefficients(**values)


def load_dataset(path: str | Path) -> list[Observation]:
    """Read observations from a comma-separated file.

    The header selects the mode: raw hourly counts
    (``f0_enter,f2_exit,f2_s,f1_s,f1_b``) are normalized on load, while
    normalized rows (``n0_enter,n2_exit,n2_s,x1s``) are taken as-is.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(cell.strip() for cell in next(reader))
        except StopIteration:
            raise DatasetFormatError(f"{path}: file is empty") from None
        if header == _RAW_HEADER:
            raw_mode = True
        elif header == _NORMALIZED_HEADER:
            raw_mode = False
        else:
            raise DatasetFormatError(
                f"{path}: unknown header {','.join(header)!r}; expected "
                f"{','.join(_RAW_HEADER)!r} or {','.join(_NORMALIZED_HEADER)!r}"
            )
        observations = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DatasetFormatError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            source = f"{path.name}:{lineno}"
            if raw_mode:
                flows, x1s = normalize_flows(*values)
                observations.append(Observation(flows, x1s, source))
            else:
                n0, n2e, n2s, x1s = values
                observations.append(Observation(FlowConfig(n0, n2e, n2s), x1s, source))
    return observations


def save_dataset(path: str | Path, observations: Iterable[Observation]) -> None:
    """Write observations in normalized mode with full float precision."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_NORMALIZED_HEADER)
        for obs in observations:
            writer.writerow(
                [
                    format(obs.flows.n0_enter, ".17g"),
                    format(obs.flows.n2_exit, ".17g"),
                    format(obs.flows.n2_s, ".17g"),
                    format(obs.x1s_observed, ".17g"),
                ]
            )
