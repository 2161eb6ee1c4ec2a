"""Heterogeneous lane choice with social-value-orientation weighted costs.

Each vehicle type blends its own delay (weight ``cos theta``) with the
marginal system delay of its strategy (weight ``sin theta``). The blended
costs stay affine in the aggregate steadfast share, so every type has a
single indifference threshold ``chi``; selfish types sit at the selfish
crossing and fully altruistic types at the social vertex. At equilibrium at
most one type mixes, which pins the aggregate share to that type's
threshold and makes the social cost piecewise constant in the penetration
rate. This module computes the typed costs, the thresholds, the coupled
equilibrium, the plateau intervals, and heterogeneous sweeps.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AngleOutOfRange, DegenerateCosts, DistinctnessViolated, DomainError
from .model import (
    AffineCoefficients,
    RampConfig,
    SocialQuadratic,
    affine_reduce,
    penetration_grid,
    social_quadratic_from_affine,
)

#: Minimum gap between two indifference thresholds before types collide.
CHI_GAP_TOL = 1e-9

HDV = "HDV"
CAV = "CAV"


@dataclass(frozen=True)
class VehicleType:
    """One behavioral type: class, orientation angle, within-class share."""

    vehicle_class: str
    theta: float
    weight: float

    def __post_init__(self) -> None:
        if self.vehicle_class not in (HDV, CAV):
            raise ValueError(f"vehicle_class must be HDV or CAV, got {self.vehicle_class!r}")
        if not math.isfinite(self.theta) or not math.isfinite(self.weight):
            raise DomainError("theta and weight must be finite")
        if math.cos(self.theta) + 2.0 * math.sin(self.theta) <= 0.0:
            raise AngleOutOfRange(
                f"theta={self.theta!r} violates cos(theta) + 2 sin(theta) > 0"
            )
        if self.vehicle_class == CAV and not 0.0 <= self.theta <= math.pi / 2.0:
            raise AngleOutOfRange(
                f"CAV angles are confined to [0, pi/2], got {self.theta!r}"
            )
        if not 0.0 < self.weight <= 1.0:
            raise DomainError(f"weight must lie in (0, 1], got {self.weight!r}")


@dataclass(frozen=True)
class Population:
    """HDV and CAV type lists with within-class weights summing to one.

    One class may be absent (for single-class studies at p = 0 or p = 1);
    a fully empty population is rejected.
    """

    hdv_types: tuple[VehicleType, ...]
    cav_types: tuple[VehicleType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hdv_types", tuple(self.hdv_types))
        object.__setattr__(self, "cav_types", tuple(self.cav_types))
        if not self.hdv_types and not self.cav_types:
            raise ValueError("population must contain at least one vehicle type")
        for cls, types in ((HDV, self.hdv_types), (CAV, self.cav_types)):
            if not types:
                continue
            for t in types:
                if t.vehicle_class != cls:
                    raise ValueError(f"{t!r} listed under the {cls} class")
            total = math.fsum(t.weight for t in types)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"{cls} weights must sum to 1, got {total!r}")

    @property
    def types(self) -> tuple[VehicleType, ...]:
        """All types in canonical order: HDV list first, then CAV list."""
        return self.hdv_types + self.cav_types

    def labels(self) -> tuple[str, ...]:
        """Stable display labels; class name alone when a class has one type."""
        out: list[str] = []
        for cls, types in ((HDV, self.hdv_types), (CAV, self.cav_types)):
            if len(types) == 1:
                out.append(cls)
            else:
                out.extend(f"{cls}{i + 1}" for i in range(len(types)))
        return tuple(out)


@dataclass(frozen=True)
class TypedAffine:
    """Slope/intercept of one type's blended steadfast and bypass costs."""

    k1js: float
    b1js: float
    k1jb: float
    b1jb: float


@dataclass(frozen=True)
class PlateauInterval:
    """Penetration interval on which one type mixes and the cost is flat."""

    k: int
    label: str
    chi_k: float
    p_lo: float
    p_hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, p: float) -> bool:
        if p < self.p_lo or p > self.p_hi:
            return False
        if p == self.p_lo and not self.lo_closed:
            return False
        if p == self.p_hi and not self.hi_closed:
            return False
        return True

    def notation(self) -> str:
        lo = "[" if self.lo_closed else "("
        hi = "]" if self.hi_closed else ")"
        return f"{lo}{self.p_lo:.6g}, {self.p_hi:.6g}{hi}"


@dataclass(frozen=True)
class TypeAllocation:
    """Equilibrium steadfast mass of one type; ``x1s`` lies in [0, share]."""

    label: str
    vtype: VehicleType
    chi: float
    share: float
    x1s: float


@dataclass(frozen=True)
class HeteroEquilibrium:
    """Coupled equilibrium across all types at one penetration rate."""

    x1s_star: float
    j_soc: float
    allocations: tuple[TypeAllocation, ...]
    mixed_label: str | None


@dataclass(slots=True)
class HeteroRow:
    """One penetration-rate sample of :func:`sweep_heterogeneous`.

    ``active_type`` is the label of the mixing type, or ``"none"`` when every
    type is pure; ``regime_label`` is ``Plateau`` or ``Shift`` accordingly.
    """

    p: float
    x1s_total: float
    active_type: str
    j_soc: float
    regime_label: str

    def __reduce__(self):
        # As StackelbergRow.__reduce__: no per-row state dict while pickling.
        return HeteroRow, (self.p, self.x1s_total, self.active_type, self.j_soc, self.regime_label)


def svo_transform(aff: AffineCoefficients, cfg: RampConfig, theta: float) -> TypedAffine:
    """Blend a type's own delay with its marginal system delay.

    The marginal delay of each strategy adds one extra cost slope, so the
    blended slopes scale by ``cos + 2 sin`` while the intercepts absorb the
    exogenous marginal terms.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    scale = c + 2.0 * s
    if scale <= 0.0:
        raise AngleOutOfRange(f"theta={theta!r} violates cos(theta) + 2 sin(theta) > 0")
    n = cfg.flows
    return TypedAffine(
        k1js=scale * aff.k1s,
        b1js=c * aff.b1s
        + s * (aff.b1s + n.n2_exit * aff.k2exit + n.n0_enter * aff.k0enter),
        k1jb=scale * aff.k1b,
        b1jb=c * aff.b1b + s * (aff.b1b + n.n2_s * aff.k2s),
    )


def chi(aff: AffineCoefficients, cfg: RampConfig, theta: float) -> float:
    """Aggregate share at which a type's two blended costs coincide.

    Reduces to the selfish crossing at ``theta = 0`` and to the social vertex
    at ``theta = pi/2``. Raises :class:`DegenerateCosts` when both blended
    slopes vanish.
    """
    typed = svo_transform(aff, cfg, theta)
    denom = typed.k1js + typed.k1jb
    if denom <= 0.0:
        raise DegenerateCosts("k1s + k1b must be positive to locate a type threshold")
    return (typed.b1jb + typed.k1jb - typed.b1js) / denom


def population_shares(pop: Population, p: float) -> list[tuple[VehicleType, float]]:
    """Overall share of each type at penetration ``p``, in canonical order."""
    _check_penetration(pop, p)
    shares = [(t, (1.0 - p) * t.weight) for t in pop.hdv_types]
    shares += [(t, p * t.weight) for t in pop.cav_types]
    return shares


def _check_penetration(pop: Population, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"penetration rate must lie in [0, 1], got {p!r}")
    if p > 0.0 and not pop.cav_types:
        raise DomainError("population has no CAV types; only p = 0 is meaningful")
    if p < 1.0 and not pop.hdv_types:
        raise DomainError("population has no HDV types; only p = 1 is meaningful")


@dataclass(frozen=True)
class _RankedType:
    index: int
    label: str
    vtype: VehicleType
    chi: float


def type_thresholds(cfg: RampConfig, pop: Population) -> list[_RankedType]:
    """All type thresholds sorted ascending; rejects near-collisions."""
    return _rank_types(affine_reduce(cfg), cfg, pop)


def _rank_types(
    aff: AffineCoefficients, cfg: RampConfig, pop: Population
) -> list[_RankedType]:
    labels = pop.labels()
    ranked = [
        _RankedType(index=i, label=labels[i], vtype=t, chi=chi(aff, cfg, t.theta))
        for i, t in enumerate(pop.types)
    ]
    ranked.sort(key=lambda r: r.chi)
    for lo, hi in zip(ranked, ranked[1:]):
        if hi.chi - lo.chi <= CHI_GAP_TOL:
            raise DistinctnessViolated(
                f"thresholds of {lo.label} and {hi.label} collide "
                f"({lo.chi!r} vs {hi.chi!r})"
            )
    return ranked


def _ranked_shares(ranked: list[_RankedType], p: float) -> list[float]:
    """Each rank's overall share at ``p``, as :func:`population_shares` has it."""
    return [
        (p if r.vtype.vehicle_class == CAV else 1.0 - p) * r.vtype.weight for r in ranked
    ]


def _ranked_split(
    ranked: list[_RankedType], weights: list[float], p: float
) -> tuple[float, int | None, int, list[float]]:
    """Equilibrium split of the ranked types with shares ``weights`` at ``p``.

    Returns the aggregate share, the mixing rank or None, the cut (ranks at
    or above it are fully steadfast, the others bypass except the mixing
    one), and the suffix sums ``above``: ``above[k]`` is the combined share
    of ranks >= k, so the upper-set weight of rank k is ``above[k + 1]``.

    The first cut whose steadfast share does not exceed its own threshold
    is found from the suffix sums. Rounding can put it one rank off only
    where the share meets a threshold, so the plateau half-lines of the two
    ranks beside it decide the split, by the arithmetic of
    :func:`plateau_intervals`: a rank inside both half-lines mixes, a rank
    outside its lower one bypasses, and any other rank is steadfast.
    """
    count = len(ranked)
    above = [0.0] * (count + 1)
    for k in range(count - 1, -1, -1):
        above[k] = above[k + 1] + weights[k]
    cut = next((c for c in range(count) if above[c] <= ranked[c].chi), count)
    steadfast = {}
    for k in (cut - 1, cut):
        if 0 <= k < count:
            lower, upper = _rank_halflines(ranked, k)
            steadfast[k] = _inside(lower, p)
            if steadfast[k] and _inside(upper, p):
                return ranked[k].chi, k, k + 1, above
    if steadfast.get(cut - 1):
        cut -= 1
    elif steadfast.get(cut) is False:
        cut += 1
    return above[cut], None, cut, above


def solve_heterogeneous(cfg: RampConfig, pop: Population, p: float) -> HeteroEquilibrium:
    """Solve the coupled equilibrium across all types at penetration ``p``.

    Types are ranked by threshold. Types above the aggregate share stay
    steadfast, types below bypass, and at most one type mixes to pin the
    aggregate at its threshold. When no threshold can be pinned, the share
    sits at the jump between adjacent thresholds and every type is pure.
    A type mixes exactly where ``p`` lies in its interval from
    :func:`plateau_intervals`; at an open endpoint it is pure.
    """
    aff = affine_reduce(cfg)
    ranked = _rank_types(aff, cfg, pop)
    _check_penetration(pop, p)
    weights = _ranked_shares(ranked, p)
    x_star, mixed_rank, cut, above = _ranked_split(ranked, weights, p)
    masses = [weights[k] if k >= cut else 0.0 for k in range(len(ranked))]
    mixed_label = None
    if mixed_rank is not None:
        masses[mixed_rank] = x_star - above[cut]
        mixed_label = ranked[mixed_rank].label

    allocations: list[TypeAllocation | None] = [None] * len(ranked)
    for k, r in enumerate(ranked):
        allocations[r.index] = TypeAllocation(
            label=r.label, vtype=r.vtype, chi=r.chi, share=weights[k], x1s=masses[k]
        )
    quad = social_quadratic_from_affine(aff, cfg.flows)
    return HeteroEquilibrium(
        x1s_star=x_star,
        j_soc=quad.value(min(1.0, max(0.0, x_star))),
        allocations=tuple(allocations),
        mixed_label=mixed_label,
    )


def check_heterogeneous(
    cfg: RampConfig,
    pop: Population,
    p: float,
    allocation: Sequence[float],
    tol: float,
) -> bool:
    """Check the typed complementarity products for a candidate allocation.

    ``allocation`` lists each type's steadfast mass in canonical population
    order. True iff both products are at most ``tol`` for every type at the
    aggregate share.
    """
    shares = population_shares(pop, p)
    if len(allocation) != len(shares):
        raise DomainError("allocation length does not match the population")
    x_total = math.fsum(allocation)
    if not -tol <= x_total <= 1.0 + tol:
        return False
    aff = affine_reduce(cfg)
    x = min(1.0, max(0.0, x_total))
    for (vtype, share), x1js in zip(shares, allocation):
        typed = svo_transform(aff, cfg, vtype.theta)
        diff = (typed.k1js * x + typed.b1js) - (typed.k1jb * (1.0 - x) + typed.b1jb)
        if x1js * diff > tol:
            return False
        if (share - x1js) * (-diff) > tol:
            return False
    return True


#: An open interval ``(a, b)`` of p, or None when empty.
_Halfline = tuple[float, float] | None


def _strict_halfline(u: float, v: float) -> _Halfline:
    """Solution set of u + v*p < 0 as an open interval, or None if empty."""
    if v > 0.0:
        return (-math.inf, -u / v)
    if v < 0.0:
        return (-u / v, math.inf)
    return (-math.inf, math.inf) if u < 0.0 else None


def _inside(line: _Halfline, p: float) -> bool:
    return line is not None and line[0] < p < line[1]


def _rank_halflines(
    ranked: list[_RankedType], k: int
) -> tuple[_Halfline, _Halfline]:
    """Where ``W_k(p) < chi_k`` and where ``V_k(p) > chi_k``, as open half-lines.

    ``W_k(p)`` is the upper-set weight of rank k and ``V_k(p) = W_k(p) +
    w_k(p)`` adds its own share; both are affine in p. Rank k mixes exactly
    where p lies in both half-lines.
    """
    r = ranked[k]
    above = [s.vtype for s in ranked[k + 1 :]]
    hdv_above = math.fsum([t.weight for t in above if t.vehicle_class == HDV])
    cav_above = math.fsum([t.weight for t in above if t.vehicle_class == CAV])
    # W_k(p) = w0 + w1*p ; V_k(p) = W_k(p) + w_k(p) = v0 + v1*p
    w0, w1 = hdv_above, cav_above - hdv_above
    if r.vtype.vehicle_class == HDV:
        v0, v1 = w0 + r.vtype.weight, w1 - r.vtype.weight
    else:
        v0, v1 = w0, w1 + r.vtype.weight
    return _strict_halfline(w0 - r.chi, w1), _strict_halfline(r.chi - v0, -v1)


def _plateaus(
    ranked: list[_RankedType],
) -> list[tuple[int, PlateauInterval, _Halfline]]:
    """``(rank, interval, lower half-line)`` of every rank whose plateau is
    nonempty, ascending by threshold."""
    out = []
    for k, r in enumerate(ranked):
        lower, upper = _rank_halflines(ranked, k)
        if lower is None or upper is None:
            continue
        p_lo, p_hi = 0.0, 1.0
        lo_closed, hi_closed = True, True
        for a, b in (lower, upper):
            if a > p_lo:
                p_lo, lo_closed = a, False
            elif a == p_lo:
                lo_closed = False
            if b < p_hi:
                p_hi, hi_closed = b, False
            elif b == p_hi:
                hi_closed = False
        if p_lo > p_hi:
            continue
        if p_lo == p_hi and not (lo_closed and hi_closed):
            continue
        interval = PlateauInterval(
            k=r.index,
            label=r.label,
            chi_k=r.chi,
            p_lo=p_lo,
            p_hi=p_hi,
            lo_closed=lo_closed,
            hi_closed=hi_closed,
        )
        out.append((k, interval, lower))
    return out


def plateau_intervals(cfg: RampConfig, pop: Population) -> list[PlateauInterval]:
    """Exact plateau interval of every type, ascending by threshold.

    For type k with upper-set weight ``W_k(p)`` and own share ``w_k(p)``,
    the plateau is ``0 < chi_k - W_k(p) < w_k(p)`` intersected with [0, 1].
    Both boundaries are affine in p, so each inequality is solved exactly;
    endpoints produced by the strict inequalities are open, endpoints
    clipped at 0 or 1 are closed. Empty intervals are dropped.
    """
    return [interval for _, interval, _ in _plateaus(type_thresholds(cfg, pop))]


def plateau_free(
    cfg: RampConfig, pop: Population, p_lo: float, p_hi: float
) -> tuple[bool, list[PlateauInterval]]:
    """Whether [p_lo, p_hi] dodges every plateau; blockers otherwise."""
    if not (0.0 <= p_lo < p_hi <= 1.0):
        raise DomainError(f"need 0 <= p_lo < p_hi <= 1, got [{p_lo!r}, {p_hi!r}]")
    blocking = []
    for iv in plateau_intervals(cfg, pop):
        left = max(iv.p_lo, p_lo)
        right = min(iv.p_hi, p_hi)
        if left > right:
            continue
        if left < right:
            blocking.append(iv)
            continue
        if iv.contains(left):
            blocking.append(iv)
    return (not blocking, blocking)


def sweep_heterogeneous(
    cfg: RampConfig, pop: Population, p_grid: Iterable[float]
) -> list[HeteroRow]:
    """Heterogeneous sweep; records the active mixed type per grid point.

    [0, 1] is partitioned once into regime pieces: the intervals of
    :func:`plateau_intervals`, where one type mixes and pins the share at
    its threshold, and the gaps between them, where every type is pure and
    the share is the steadfast weight above one cut. A gap's cut is fixed by
    the side on which its neighbouring plateau closed: a rank that closes
    at ``W_k = chi_k`` bypasses beyond it, one that closes at ``V_k =
    chi_k`` stays steadfast. Each piece then fills its slice of the grid.
    Labels therefore equal interval membership, and rows equal
    :func:`solve_heterogeneous` bit for bit.
    """
    grid = penetration_grid(p_grid)
    aff = affine_reduce(cfg)
    ranked = _rank_types(aff, cfg, pop)
    for p in (grid[0], grid[-1]):
        _check_penetration(pop, p)
    quad = social_quadratic_from_affine(aff, cfg.flows)
    plateaus = sorted(_plateaus(ranked), key=lambda t: t[1].p_lo)
    # The walk below needs disjoint pieces. Thresholds at least CHI_GAP_TOL
    # apart keep plateaus apart; refuse, rather than mislabel, if they touch.
    for (_, a, _), (_, b, _) in zip(plateaus, plateaus[1:]):
        if a.p_hi > b.p_lo or (a.p_hi == b.p_lo and a.hi_closed and b.lo_closed):
            raise DistinctnessViolated(f"plateaus of {a.label} and {b.label} overlap")

    rows: list[HeteroRow] = []
    start, cut = 0, None
    for k, iv, lower in plateaus:
        lo = (bisect_left if iv.lo_closed else bisect_right)(grid, iv.p_lo, start)
        hi = (bisect_right if iv.hi_closed else bisect_left)(grid, iv.p_hi, lo)
        if cut is None:
            cut = k if _inside(lower, iv.p_lo) else k + 1
        rows += _pure_rows(ranked, cut, grid[start:lo], quad)
        j_soc = quad.value(min(1.0, max(0.0, iv.chi_k)))
        rows += [HeteroRow(p, iv.chi_k, iv.label, j_soc, "Plateau") for p in grid[lo:hi]]
        cut = k if _inside(lower, iv.p_hi) else k + 1
        start = hi
    if cut is None:
        # No plateau anywhere: one cut holds on all of [0, 1].
        cut = _ranked_split(ranked, _ranked_shares(ranked, 0.5), 0.5)[2]
    rows += _pure_rows(ranked, cut, grid[start:], quad)
    return rows


def _pure_rows(
    ranked: list[_RankedType], cut: int, ps: list[float], quad: SocialQuadratic
) -> list[HeteroRow]:
    """Rows at ``ps`` where the ranks at or above ``cut`` are all steadfast.

    The share is summed from the top rank down, as the suffix sums of
    :func:`_ranked_split` are.
    """
    upper = [(r.vtype.weight, r.vtype.vehicle_class == CAV) for r in reversed(ranked[cut:])]
    rows = []
    for p in ps:
        q = 1.0 - p
        x = 0.0
        for weight, is_cav in upper:
            x += (p if is_cav else q) * weight
        rows.append(HeteroRow(p, x, "none", quad.value(min(1.0, max(0.0, x))), "Shift"))
    return rows
