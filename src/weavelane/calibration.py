"""Fit cost coefficients to observed lane-choice data.

An observation pairs an exogenous flow mix with the steadfast share the
traffic settled on. A coefficient vector explains an observation when the
selfish complementarity conditions hold there, so the fit minimizes the sum
of squared complementarity residuals over the dataset. Scaling every unit
cost leaves the crossing share unchanged, so ``c1_t`` is held as the unit
of delay; the other unit costs are pinned too by default or fitted with
``pin_unit_costs=False``. Either way the objective is a convex piecewise
quadratic in lifted variables (each weight times its unit cost) over a
polyhedron, solved exactly. Fit quality is scored with the mean prediction
error rate (MPER): the mean absolute relative error between observed and
model-predicted steadfast shares, as a percentage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

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

#: Largest KKT-residual entry, in units of the squared largest cost-gap
#: slope, at which a fit counts as optimal.
GRADIENT_TOL = 1e-9


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
    bounds: Mapping[str, tuple[float, float]] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-field ``(lo, hi)`` arrays in ``_UNIT_FIELDS + _WEIGHT_FIELDS`` order."""
    fields = _UNIT_FIELDS + _WEIGHT_FIELDS
    bounds = dict(bounds or {})
    unknown = set(bounds) - set(fields)
    if unknown:
        raise BoundsInfeasible(f"bounds given for unknown fields: {sorted(unknown)}")
    lo = np.empty(len(fields))
    hi = np.empty(len(fields))
    for i, field in enumerate(fields):
        lo[i], hi[i] = bounds.get(field, DEFAULT_BOUNDS)
        if math.isnan(lo[i]) or math.isnan(hi[i]):
            raise BoundsInfeasible(f"bounds of {field} must not be nan")
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
    """Fit the cost coefficients to a dataset of equilibrium observations.

    ``c1_t`` is the unit of delay and stays at its value in ``initial``
    (scaling all four unit costs is the known invariance); the other unit
    costs stay there too unless ``pin_unit_costs`` is false, in which case
    they range over their bounds and ``initial.c1_t`` must be positive, or
    :class:`DomainError` is raised. In the lifted variables (the unit costs
    and each weight times its unit cost) the cost gap is linear and every
    bound is a linear inequality, so both modes are one convex piecewise
    quadratic over a polyhedron, solved exactly: a linearly constrained
    least-squares step on the residual sign pattern, repeated until
    ``converged`` certifies the optimum by a KKT residual of at most
    ``GRADIENT_TOL`` times the squared largest cost-gap slope.
    ``iterations`` counts objective evaluations and ``budget`` caps them.
    ``seed`` has no effect; it is accepted for compatibility.

    Equilibrium data are blind to three directions, along which every
    residual and every predicted share stays the same: a coordinated
    (beta, omega, delta) shift, the scale of ``c2_m`` (seen only through
    ``c2_m*rho`` and ``c2_m*delta``), and, since the flow ratios sum to one,
    a shift of (alpha, c1_m, omega, c2_t, rho) by (+1, -1, -1, +1, -1) in
    lifted terms. Data the fit explains exactly cannot see the cost scale
    either. The fit returns the point along these directions whose
    ``omega``, ``c2_m``, ``c1_m`` (and, on exactly explained data, ``c2_t``)
    are ``initial``'s, or the nearest the bounds allow, so noiseless
    recovery is well-posed; a weight whose unit cost is zero is
    ``initial``'s, clipped to its bounds. A pinned fit can move only along
    the first direction.
    """
    if not dataset:
        raise EmptyDataset("dataset must contain at least one observation")
    if budget <= 0:
        raise DomainError(f"budget must be positive, got {budget!r}")
    lo, hi = _resolve_bounds(bounds)
    x0 = np.array(list(initial.as_dict().values()))
    checked = 4 if pin_unit_costs else 0
    if np.any(x0[checked:] < lo[checked:]) or np.any(x0[checked:] > hi[checked:]):
        raise BoundsInfeasible("initial coefficients lie outside the bounds")
    if x0[0] <= 0.0 and not pin_unit_costs:
        raise DomainError("free unit costs are measured in c1_t, which must be positive")
    held = 4 if pin_unit_costs else 1
    lo[:held] = hi[:held] = x0[:held]

    arrays = _DatasetArrays(dataset)
    g, h = _constraints(lo, hi)
    z, evaluations, converged, exact = _fit(arrays, g, h, _lift(x0), budget)
    coeffs = _unlift(_fix_gauge(z, x0, g, h, exact), x0, lo, hi)
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


#: Lifted variable ``4 + k`` is weight ``k`` times the unit cost at index
#: ``_OWNER[k]``; variables 0-3 are the unit costs, as in ``_UNIT_FIELDS``.
_OWNER = np.array([0, 0, 2, 1, 3, 3])


def _lift(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x[:4], x[4:] * x[_OWNER]])


def _unlift(z: np.ndarray, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> CostCoefficients:
    """Coefficients of a lifted point, clipped to the bounds against rounding."""
    own = z[_OWNER]
    weights = np.where(own > 0.0, z[4:] / np.where(own > 0.0, own, 1.0), x0[4:])
    values = np.clip(np.concatenate([z[:4], weights]), lo, hi)
    return CostCoefficients(*(float(v) for v in values))


def _constraints(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G z <= h``: the unit-cost boxes, then ``lo_w*c <= u <= hi_w*c`` for
    each weight's lifted variable ``u`` and unit cost ``c``; rows with an
    infinite bound are left out."""
    eye, finite_hi = np.eye(10), np.where(np.isfinite(hi), hi, 0.0)
    g = np.vstack([eye[:4], -eye[:4], eye[4:] - finite_hi[4:, None] * eye[_OWNER],
                   lo[4:, None] * eye[_OWNER] - eye[4:]])
    h = np.concatenate([finite_hi[:4], -lo[:4], np.zeros(12)])
    keep = np.isfinite(np.concatenate([hi[:4], lo[:4], hi[4:], lo[4:]]))
    return g[keep], h[keep]


def _slide(z: np.ndarray, v: np.ndarray, t: float, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``z + t v``, with ``t`` clipped to the interval where ``G z <= h`` holds."""
    gv = g @ v
    room = np.maximum(h - g @ z, 0.0)
    t = min(t, np.min(room[gv > 0] / gv[gv > 0], initial=np.inf))
    return z + max(t, np.max(room[gv < 0] / gv[gv < 0], initial=-np.inf)) * v


#: Most passes of :func:`_lsq`; each adds or drops one working row.
_LSQ_PASSES = 200


def _lsq(
    m: np.ndarray, r: np.ndarray | float, g: np.ndarray, h: np.ndarray | float, z: np.ndarray
) -> tuple[np.ndarray, int]:
    """Minimize ``|m z + r|`` over ``G z <= h`` from a feasible ``z``.

    Returns the minimizer and the passes made, ``_LSQ_PASSES`` if capped.
    A primal active set: each pass steps toward the minimum-norm
    least-squares point in the null space of the working rows and stops at
    the first row it would cross, which joins them. After a full step the
    point is optimal unless a multiplier is negative beyond rounding; then
    the most negative one's row leaves. A row met only by rounding (one
    dependent on the working rows) does not block.
    """
    work: list[int] = []
    floor = 1e-13 * float(np.max(np.abs(m), initial=0.0)) ** 2
    for passes in range(1, _LSQ_PASSES):
        _, sv, vt = np.linalg.svd(g[work])
        null = vt[np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0)):].T
        p = null @ np.linalg.lstsq(m @ null, -(m @ z + r), rcond=None)[0]
        gp = g @ p
        block = gp > 1e-12 * np.linalg.norm(g, axis=1) * np.linalg.norm(p)
        block[work] = False
        ratios = np.where(block, np.maximum(h - g @ z, 0.0) / np.where(block, gp, 1.0), np.inf)
        t = min(1.0, np.min(ratios, initial=np.inf))
        z = z + t * p
        if t < 1.0:
            work.append(int(np.argmin(ratios)))
            continue
        if not work:
            return z, passes
        lam = np.linalg.lstsq(g[work].T, -(m.T @ (m @ z + r)), rcond=None)[0]
        if lam.min() >= -max(1e-12 * np.max(np.abs(lam)), floor * (1.0 + np.max(np.abs(z)))):
            return z, passes
        work.pop(int(np.argmin(lam)))
    return z, _LSQ_PASSES


def _fit(
    arrays: _DatasetArrays,
    g: np.ndarray,
    h: np.ndarray,
    z0: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, int, bool, bool]:
    """Minimize the objective over ``G z <= h``.

    Returns ``(z, evaluations, converged, exact)``; ``exact`` says every
    residual at ``z`` is within the certificate's tolerance.

    The cost gap is ``A @ z``, with ``A`` read off the one Lane-1 formula at
    unit monomials. Residual ``i`` is ``s_i * gap_i`` with ``s_i = x_i``
    where the gap is positive and ``x_i - 1`` elsewhere, so on a fixed sign
    pattern the objective is a linear least-squares problem. Its gradient
    ``2 A.T (s * s * gap)`` is continuous across patterns, so a vanishing
    KKT residual (the gradient less the best nonnegative combination of the
    active rows' normals) certifies the optimum. Gradients scale with the
    square of the cost units, so the certificate measures them in units of
    ``max |A|`` squared.
    """
    eye = np.eye(10)
    base = [arrays.cost_diff(CostCoefficients(*e)) for e in eye[:4]]
    a = np.column_stack(
        base + [arrays.cost_diff(CostCoefficients(*(eye[o] + eye[4 + k]))) - base[o]
                for k, o in enumerate(_OWNER)]
    )
    tol = GRADIENT_TOL * float(np.max(np.abs(a))) ** 2

    def evaluate(z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        gap = a @ z
        sign = np.where(gap > 0.0, arrays.x, arrays.x - 1.0)
        res = sign * gap
        return float(np.dot(res, res)), sign, res

    def certified(z: np.ndarray, sign: np.ndarray, res: np.ndarray) -> bool:
        grad = 2.0 * (a.T @ (sign * res))
        act = g[h - g @ z <= tol]
        kkt = grad + act.T @ _lsq(act.T, grad, -np.eye(len(act)), 0.0, np.zeros(len(act)))[0]
        return bool(np.max(np.abs(kkt)) <= tol)

    z = z0
    f, sign, res = evaluate(z)
    evaluations = 1
    while not (converged := certified(z, sign, res)) and evaluations < budget:
        target = _lsq(sign[:, None] * a, 0.0, g, h, z)[0]
        t = 1.0
        while True:
            trial = z + t * (target - z)
            f_trial, sign_trial, res_trial = evaluate(trial)
            evaluations += 1
            if f_trial <= f:
                z, f, sign, res = trial, f_trial, sign_trial, res_trial
                break
            if evaluations >= budget:
                break
            t *= 0.5
    return z, evaluations, converged, bool(np.max(res) <= tol)


def _fix_gauge(
    z: np.ndarray, x0: np.ndarray, g: np.ndarray, h: np.ndarray, exact: bool
) -> np.ndarray:
    """Move ``z`` along the directions in which the cost gap is flat toward
    the point whose c1_m, c2_m and omega (and, if ``exact``, c2_t) are
    ``initial``'s, as far as ``G z <= h`` allows; no residual changes.

    In lifted order (c1_t, c2_t, c1_m, c2_m, then each weight times its unit
    cost) the directions are (alpha, c1_m, omega, c2_t, rho) by
    (+1, -1, -1, +1, -1), c2_m alone, and (beta, omega, delta) by
    (+1, -1, +1). Where every residual vanishes (``exact``) the data cannot
    see the cost scale either: ``z`` less c1_t times the vector that is
    (+1, -1, -1, +1, +1) in (c1_t, c2_t, alpha, beta, gamma), whose gap
    vanishes since ``n0 + n2e + n2s = 1``. The move is the straight one to
    the matching point, then one along each direction in turn where the
    bounds cut it.
    """
    eye, c = np.eye(10), x0[0]
    flats = [
        np.array([0, 1, -1, 0, 1, 0, -1, 0, -1, 0]),
        eye[3],
        np.array([0, 0, 0, 0, 0, 1, -1, 0, 0, 1]),
    ]
    rows, want = [eye[2], eye[3], eye[6] - x0[6] * eye[2]], [x0[2], x0[3], 0.0]
    if exact and c > 0.0:
        flats.append(z - c * np.array([1, -1, 0, 0, -1, 1, 0, 1, 0, 0]))
        rows.append(eye[1])
        want.append(x0[1])
    v, p, q = np.column_stack(flats), np.array(rows), np.array(want)
    z = _slide(z, v @ np.linalg.solve(p @ v, q - p @ z), 1.0, g, h)
    for vj, pj, qj in zip(v.T, p, q):
        z = _slide(z, vj, (qj - pj @ z) / (pj @ vj), g, h)
    return z


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
