"""Sweeps derive their configuration quantities once and agree exactly with
the point solvers they replace, rows and raised error kinds alike."""

from __future__ import annotations

import importlib
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weavelane
from weavelane.errors import DegenerateCosts, WeavelaneError
from weavelane.model import CostCoefficients, FlowConfig, RampConfig
from weavelane.social import admissible, gamma
from weavelane.stackelberg import (
    StackelbergRow,
    cav_cost,
    solve_closed,
    sweep_penetration,
)
from weavelane.svo import (
    CAV,
    HDV,
    HeteroRow,
    Population,
    VehicleType,
    plateau_intervals,
    population_shares,
    solve_heterogeneous,
    sweep_heterogeneous,
    type_thresholds,
)
from weavelane.wardrop import phi

from oracles import fixed_point_scan

PROPERTY = settings(max_examples=120, derandomize=True, deadline=None)


@st.composite
def configs(draw) -> RampConfig:
    cuts = sorted(draw(st.lists(st.integers(0, 1000), min_size=2, max_size=2)))
    flows = FlowConfig(cuts[0] / 1000, (cuts[1] - cuts[0]) / 1000, (1000 - cuts[1]) / 1000)
    coeffs = CostCoefficients(*draw(st.lists(st.floats(0.1, 5.0), min_size=10, max_size=10)))
    return RampConfig(flows, coeffs)


def _types(draw, cls: str, lo: float, hi: float) -> tuple[VehicleType, ...]:
    """One to four types of a class. Angles sit on a 1/200 lattice of the
    allowed range, so thresholds collide only when two angles coincide."""
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    return tuple(
        VehicleType(cls, lo + (hi - lo) * draw(st.integers(0, 200)) / 200, part / sum(parts))
        for part in parts
    )


@st.composite
def populations(draw) -> Population:
    return Population(_types(draw, HDV, -0.4, 2.0), _types(draw, CAV, 0.0, math.pi / 2))


def _grid(draw, marks) -> list[float]:
    """Random points plus the configuration's own thresholds, so that
    regime boundaries are hit exactly."""
    points = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    if draw(st.booleans()):
        points += [0.0, 1.0]
    points += [m for m in marks if 0.0 <= m <= 1.0]
    return sorted(set(points))


def _outcome(build):
    """Rows, or the kind of the first error the computation raises."""
    try:
        return build()
    except WeavelaneError as exc:
        return type(exc)


def _closed_rows(cfg, grid):
    rows = []
    for p in grid:
        sol = solve_closed(cfg, p)
        rows.append(
            StackelbergRow(
                p=p,
                x1s_total=sol.x1s_total,
                q_s=sol.q_s_star,
                j_soc=sol.j_soc,
                j_cav=cav_cost(cfg, sol),
                regime_label=str(sol.regime),
            )
        )
    return rows


def _typed_rows(cfg, pop, grid):
    rows = []
    for p in grid:
        eq = solve_heterogeneous(cfg, pop, p)
        rows.append(
            HeteroRow(
                p=p,
                x1s_total=eq.x1s_star,
                active_type=eq.mixed_label if eq.mixed_label is not None else "none",
                j_soc=eq.j_soc,
                regime_label="Plateau" if eq.mixed_label is not None else "Shift",
            )
        )
    return rows


@PROPERTY
@given(data=st.data())
def test_stackelberg_sweep_equals_point_solver(data):
    cfg = data.draw(configs())
    assume(admissible(cfg))
    grid = _grid(data.draw, (phi(cfg), gamma(cfg)))
    assert sweep_penetration(cfg, grid) == _closed_rows(cfg, grid)


@PROPERTY
@given(data=st.data())
def test_heterogeneous_sweep_equals_point_solver(data):
    cfg = data.draw(configs())
    pop = data.draw(populations())
    try:
        marks = [r.chi for r in type_thresholds(cfg, pop)]
        marks += [end for iv in plateau_intervals(cfg, pop) for end in (iv.p_lo, iv.p_hi)]
    except WeavelaneError:
        marks = []
    grid = _grid(data.draw, marks)
    want = _outcome(lambda: _typed_rows(cfg, pop, grid))
    assert _outcome(lambda: sweep_heterogeneous(cfg, pop, grid)) == want


def _ulp_neighbours(ends, ulps: int) -> list[float]:
    """Each end and the ``ulps`` floats on either side of it, inside [0, 1]."""
    points = set()
    for end in ends:
        lo = hi = end
        points.add(end)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            points.update((lo, hi))
    return sorted(p for p in points if 0.0 <= p <= 1.0)


@PROPERTY
@given(cfg=configs(), pop=populations(), ulps=st.integers(0, 4))
def test_labels_equal_membership_at_plateau_endpoints(cfg, pop, ulps):
    # Within a few ulps of an endpoint rounding decides the label, yet the
    # sweep and the point solver must both report exactly the interval
    # that holds p.
    intervals = _outcome(lambda: plateau_intervals(cfg, pop))
    assume(isinstance(intervals, list) and intervals)
    grid = _ulp_neighbours([end for iv in intervals for end in (iv.p_lo, iv.p_hi)], ulps)
    rows = sweep_heterogeneous(cfg, pop, grid)
    assert rows == _typed_rows(cfg, pop, grid)
    for row in rows:
        inside = [iv.label for iv in intervals if iv.contains(row.p)]
        assert [row.active_type] == (inside or ["none"])


@PROPERTY
@given(cfg=configs(), pop=populations(), p=st.floats(0.0, 1.0))
def test_heterogeneous_share_matches_fixed_point_scan(cfg, pop, p):
    eq = _outcome(lambda: solve_heterogeneous(cfg, pop, p))
    assume(not isinstance(eq, type))
    ranked = type_thresholds(cfg, pop)
    shares = population_shares(pop, p)
    step = 1e-5
    scanned = fixed_point_scan([r.chi for r in ranked], [shares[r.index][1] for r in ranked], step)
    assert abs(eq.x1s_star - scanned) <= step + 1e-12


def test_sweeps_raise_what_the_first_point_raises(cfg_thirds):
    # Gamma > 1 is not admissible, yet the closed form covers it.
    corner = RampConfig(FlowConfig(0.0, 0.0, 1.0))
    bad = RampConfig(FlowConfig(1 / 3, 1 / 3, 1 / 3), CostCoefficients(gamma=0.1))
    assert not admissible(bad)
    for cfg in (corner, bad):
        assert _outcome(lambda: sweep_penetration(cfg, [0.2, 0.9])) == _outcome(
            lambda: _closed_rows(cfg, [0.2, 0.9])
        )
    hdv_only = Population((VehicleType(HDV, 0.0, 1.0),), ())
    assert _outcome(lambda: sweep_heterogeneous(cfg_thirds, hdv_only, [0.0, 0.5])) == _outcome(
        lambda: _typed_rows(cfg_thirds, hdv_only, [0.0, 0.5])
    )


def test_typed_solvers_raise_degenerate_costs_on_zero_unit_costs(pop_four_cav):
    cfg = RampConfig(
        FlowConfig(1 / 3, 1 / 3, 1 / 3), CostCoefficients(c1_t=0.0, c2_t=0.0, c1_m=0.0, c2_m=0.0)
    )
    with pytest.raises(DegenerateCosts):
        type_thresholds(cfg, pop_four_cav)
    with pytest.raises(DegenerateCosts):
        plateau_intervals(cfg, pop_four_cav)
    with pytest.raises(DegenerateCosts):
        solve_heterogeneous(cfg, pop_four_cav, 0.5)
    with pytest.raises(DegenerateCosts):
        sweep_heterogeneous(cfg, pop_four_cav, [0.0, 0.5, 1.0])


@pytest.fixture
def count_reductions(monkeypatch):
    """Count affine_reduce calls made through any weavelane module."""
    original = weavelane.model.affine_reduce
    calls = [0]

    def counting(cfg):
        calls[0] += 1
        return original(cfg)

    for name in ("model", "wardrop", "social", "stackelberg", "svo", "calibration"):
        module = importlib.import_module(f"weavelane.{name}")
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("points", [11, 1001])
def test_sweeps_reduce_once_whatever_the_grid_length(
    count_reductions, cfg_thirds, pop_four_cav, points
):
    grid = [i / (points - 1) for i in range(points)]
    sweep_penetration(cfg_thirds, grid)
    assert count_reductions[0] == 1
    sweep_heterogeneous(cfg_thirds, pop_four_cav, grid)
    assert count_reductions[0] == 2


def test_solvers_reduce_once_per_call(count_reductions, cfg_thirds, pop_four_cav):
    from weavelane.social import solve_social_optimum, ue_so_gap
    from weavelane.stackelberg import penetration_thresholds, solve_numeric
    from weavelane.wardrop import solve_hdv

    calls = [
        lambda: phi(cfg_thirds),
        lambda: gamma(cfg_thirds),
        lambda: solve_hdv(cfg_thirds),
        lambda: solve_social_optimum(cfg_thirds),
        lambda: ue_so_gap(cfg_thirds),
        lambda: admissible(cfg_thirds),
        lambda: penetration_thresholds(cfg_thirds),
        lambda: solve_closed(cfg_thirds, 0.7),
        lambda: solve_numeric(cfg_thirds, 0.7),
        lambda: solve_numeric(cfg_thirds, 0.0),
        lambda: solve_heterogeneous(cfg_thirds, pop_four_cav, 0.4),
        lambda: plateau_intervals(cfg_thirds, pop_four_cav),
    ]
    for k, call in enumerate(calls, start=1):
        call()
        assert count_reductions[0] == k


def test_rows_survive_a_pickle_round_trip(cfg_thirds, pop_four_cav):
    grid = [i / 20 for i in range(21)]
    for rows in (
        sweep_penetration(cfg_thirds, grid),
        sweep_heterogeneous(cfg_thirds, pop_four_cav, grid),
    ):
        assert pickle.loads(pickle.dumps(rows)) == rows
