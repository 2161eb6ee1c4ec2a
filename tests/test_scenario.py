import math

import pytest

from weavelane.errors import ScenarioError, SimplexViolation
from weavelane.scenario import (
    MAX_SWEEP_POINTS,
    SweepGrid,
    emit_scenario,
    load_scenario,
    parse_scenario_text,
)

MINIMAL = """
flows:
  n0_enter: 0.2
  n2_exit: 0.3
  n2_s: 0.5
"""

FULL = """
flows:
  n0_enter: 0.3333333333333333
  n2_exit: 0.3333333333333333
  n2_s: 0.3333333333333334
coefficients:
  alpha: 1.4
population:
  - class: HDV
    theta_radians: 0.0
    weight: 1.0
  - class: CAV
    theta_degrees: 90.0
    weight: 0.6
  - class: CAV
    theta_radians: 0.7853981633974483
    weight: 0.4
sweep:
  start: 0.0
  stop: 1.0
  step: 0.25
"""


def test_minimal_scenario_defaults():
    sc = parse_scenario_text(MINIMAL)
    assert sc.config.flows.n2_s == 0.5
    assert sc.config.coeffs.alpha == 1.255  # untouched default
    assert sc.population is None and sc.sweep is None


def test_full_scenario():
    sc = parse_scenario_text(FULL)
    assert sc.config.coeffs.alpha == 1.4
    assert sc.config.coeffs.beta == 1.138  # partial override keeps the rest
    assert len(sc.population.cav_types) == 2
    assert sc.population.cav_types[0].theta == pytest.approx(math.pi / 2)
    assert sc.sweep.points() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario_text(MINIMAL + "extra: 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text(MINIMAL.replace("n2_s", "n2_weird"))
    with pytest.raises(ScenarioError):
        parse_scenario_text(
            MINIMAL + "population:\n  - class: HDV\n    theta_radians: 0\n    weight: 1\n    color: red\n"
        )


def test_missing_flows_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario_text("coefficients:\n  alpha: 1.0\n")


def test_angle_keys_are_exclusive():
    text = MINIMAL + (
        "population:\n"
        "  - class: HDV\n    theta_radians: 0.0\n    theta_degrees: 0.0\n    weight: 1.0\n"
    )
    with pytest.raises(ScenarioError):
        parse_scenario_text(text)
    with pytest.raises(ScenarioError):
        parse_scenario_text(MINIMAL + "population:\n  - class: HDV\n    weight: 1.0\n")


def test_simplex_violation_passes_through():
    with pytest.raises(SimplexViolation):
        parse_scenario_text("flows:\n  n0_enter: 0.5\n  n2_exit: 0.6\n  n2_s: 0.2\n")


def test_round_trip_preserves_values(tmp_path):
    sc = parse_scenario_text(FULL)
    path = tmp_path / "scenario.yaml"
    path.write_text(emit_scenario(sc), encoding="utf-8")
    again = load_scenario(path)
    assert again == sc


def test_sweep_grid_validation():
    with pytest.raises(ScenarioError):
        SweepGrid(0.5, 0.4, 0.1)
    with pytest.raises(ScenarioError):
        SweepGrid(0.0, 1.0, 0.0)
    grid = SweepGrid(0.0, 1.0, 0.1)
    points = grid.points()
    assert len(points) == 11
    assert points[0] == 0.0 and points[-1] == pytest.approx(1.0)


def test_sweep_grid_never_passes_stop():
    # 0.09 + 13 * 0.07 rounds to 1.0000000000000002.
    points = SweepGrid(0.09, 1.0, 0.07).points()
    assert len(points) == 14
    assert points[-1] == 1.0
    assert all(a < b for a, b in zip(points, points[1:]))


@pytest.mark.parametrize("step", [math.nan, 5e-324, 1e-9, 1.0 / MAX_SWEEP_POINTS])
def test_sweep_grid_rejects_nan_and_oversized_steps(step):
    # 5e-324 once overflowed the point count and NaN reached math.floor.
    with pytest.raises(ScenarioError):
        SweepGrid(0.0, 1.0, step)


def test_sweep_grid_largest_allowed():
    points = SweepGrid(0.0, 1.0, 1.0 / (MAX_SWEEP_POINTS - 1)).points()
    assert len(points) == MAX_SWEEP_POINTS
    assert points[-1] == pytest.approx(1.0)
